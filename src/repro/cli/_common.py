"""What the command groups share: store / backend environment checks
and the campaign figure selection."""

from __future__ import annotations

import os
from typing import List, Optional


def open_store(root: str, **kwargs):
    """Open a store under the ``$REPRO_STORE`` format policy, failing
    a command cleanly on a malformed env var."""
    from ..harness import store

    try:
        return store.open_store(root, **kwargs)
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}")


def check_backend_env() -> None:
    """Fail a sweep-running command cleanly on a bad ``$REPRO_BACKEND``
    (``--backend`` is argparse-validated; the env var is not)."""
    from ..harness.backends import BACKEND_ENV, backend_names

    raw = os.environ.get(BACKEND_ENV)
    if raw and raw not in backend_names():
        raise SystemExit(
            f"repro: {BACKEND_ENV}={raw!r} is not a known backend; "
            f"one of {', '.join(backend_names())}")


def split_csv(raw: Optional[str]) -> List[str]:
    return [s.strip() for s in raw.split(",") if s.strip()] if raw else []


def campaign_specs(prog: str, *, only: List[str] = (),
                   skip: List[str] = (), tags: List[str] = (),
                   policies: List[str] = ()):
    """The figure selection every campaign-scale command shares.

    ``figures run --all``, ``shard plan`` and ``orchestrate`` must
    agree on what a selection means (including the ``--policies``
    arena derivation), or an orchestrated campaign could silently
    cover a different figure set than the single-host run it is
    checked against.  ``prog`` only brands the error messages.
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
        from ..lb import available
        from ..scenarios import arena_specs

        unknown = sorted(set(policies) - set(available()))
        if unknown:
            raise SystemExit(
                f"{prog}: unknown polic"
                f"{'y' if len(unknown) == 1 else 'ies'} "
                f"{', '.join(unknown)} in --policies "
                f"(registered: {', '.join(available())})")
        arena = arena_specs(policies, bases=specs, pivot=policies[0])
        if not arena:
            raise SystemExit(
                f"{prog}: --policies derived no arena figures "
                f"(no selected figure has {policies[0]!r} cells)")
        specs = list(specs) + arena
    return specs
