"""REPS: the paper's core contribution (Sec. 3)."""

from .. import _lazy_exports

__all__ = ["RepsConfig", "RepsSender", "Footprint", "compute_footprint"]

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".footprint": ("Footprint", "compute_footprint"),
    ".reps": ("RepsConfig", "RepsSender"),
})
