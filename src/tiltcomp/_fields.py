"""Config field rules, each declared with the field's default; the one checker
that enforces them from ``__post_init__``; and the one finiteness test. Imports
nothing from the package, so every module can use it."""

import math
from dataclasses import field, fields

import numpy as np


def _finite(*values: float) -> bool:
    """Whether all ``values`` are finite: a finite sum implies finite terms, and
    only a non-finite sum (finite terms can overflow) needs the term test."""
    return math.isfinite(sum(values, 0.0)) or all(map(math.isfinite, values))


def _vec3(value, name: str) -> np.ndarray:
    """``value`` as a finite (3,) float array; ValueError naming ``name`` otherwise."""
    v = np.asarray(value, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    if not _finite(*v.tolist()):
        raise ValueError(f"{name} must be finite, got {v}")
    return v


def _integer(value) -> bool:
    """Whether ``value`` is an int; a bool, an int to ``isinstance``, is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _ranged(default, lo: float, hi: float, *, above: bool = False):
    """A field whose value must be finite and in ``[lo, hi]``, or ``(lo, hi]``
    with ``above``; an int default also requires an :func:`_integer`."""
    return field(default=default, metadata={"range": (lo, hi, above, type(default) is int)})


def _vector(x: float, y: float, z: float):
    """A field holding a finite 3-vector, stored as a (3,) float array."""
    return field(default_factory=lambda: np.array([x, y, z], float), metadata={"vector": True})


def _rule(lo: float, hi: float, above: bool) -> str:
    """The words of a range fault's message, e.g. ``finite and >= 0``."""
    if hi < math.inf:
        return f"in {'(' if above else '['}{lo:g}, {hi:g}]"
    if lo == -math.inf:
        return "finite"
    return "positive" if above and lo == 0 else f"finite and {'>' if above else '>='} {lo:g}"


def _check_fields(obj) -> None:
    """Enforce each declared rule of dataclass ``obj``; store its vectors as float arrays."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if "vector" in f.metadata:
            object.__setattr__(obj, f.name, _vec3(value, f.name))
        elif "range" in f.metadata:
            lo, hi, above, integral = f.metadata["range"]
            if integral and not _integer(value):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            # Ints are finite, and math.isfinite overflows on a huge one.
            in_range = (lo < value if above else lo <= value) and value <= hi
            if not (in_range and (integral or math.isfinite(value))):
                raise ValueError(f"{f.name} must be {_rule(lo, hi, above)}, got {value}")
