"""What the command groups share: the policy-name check and the
campaign figure selection."""

from __future__ import annotations

from typing import List, Optional, Sequence


def split_csv(raw: Optional[str]) -> List[str]:
    return [s.strip() for s in raw.split(",") if s.strip()] if raw else []


def known_policies(prog: str, flag: str, names: Sequence[str]) -> List[str]:
    """``names`` once every one is a registered load balancer; else
    exit with one line naming the unknown ones and the registered."""
    from ..lb import available

    unknown = sorted(set(names) - set(available()))
    if unknown:
        raise SystemExit(
            f"{prog}: unknown polic{'y' if len(unknown) == 1 else 'ies'} "
            f"{', '.join(unknown)} in {flag} "
            f"(registered: {', '.join(available())})")
    return list(names)


def campaign_specs(prog: str, *, only: List[str] = (),
                   skip: List[str] = (), tags: List[str] = (),
                   policies: List[str] = ()):
    """The figure selection every campaign-scale command shares.

    ``figures run --all`` and ``orchestrate`` must agree on what a
    selection means (including the ``--policies`` arena derivation),
    or an orchestrated campaign could silently cover a different
    figure set than the single-host run it is checked against.
    ``prog`` only brands the error messages.
    """
    from ..harness.campaign import select_figures

    try:
        specs = select_figures(only=list(only), skip=list(skip),
                               tags=list(tags))
    except KeyError as exc:
        raise SystemExit(f"{prog}: {exc.args[0]}")
    if not specs:
        raise SystemExit(f"{prog}: the --only/--skip/--tag "
                         f"filters selected no figures")
    if policies:
        from ..scenarios import arena_specs

        known_policies(prog, "--policies", policies)
        arena = arena_specs(policies, bases=specs, pivot=policies[0])
        if not arena:
            raise SystemExit(
                f"{prog}: --policies derived no arena figures "
                f"(no selected figure has {policies[0]!r} cells)")
        specs = list(specs) + arena
    return specs
