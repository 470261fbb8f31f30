"""The package's one exact rescaling: divide by 2**exponent(top), which puts
the top magnitude into [0.5, 1), work at unit scale, multiply back by 2**k."""

import math

import numpy as np


def exponent(top: float, error: str) -> int:
    """The e with top * 2**-e in [0.5, 1), 0 for top = 0; a non-finite top
    has none: ValueError(error)."""
    if not math.isfinite(top):
        raise ValueError(error)
    return math.frexp(top)[1]


def times_pow2(x, k: int):
    """x * 2**k (a float for a scalar x): exact for a normal result, else inf
    or 0, never a warning or the OverflowError of 2.0 ** k past k = 1023."""
    with np.errstate(over="ignore"):
        y = np.ldexp(x, k)
    return y if isinstance(y, np.ndarray) else float(y)
