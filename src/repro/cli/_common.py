"""What the command groups share: comma-separated flag values and the
policy-name check (``run`` / ``compare`` / ``sweep`` and ``figures run
--policies``)."""

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
