"""Small finite-difference helpers used by the fallback derivative paths."""

from __future__ import annotations

from typing import Callable

import numpy as np


def central_diff(f: Callable[[float], np.ndarray | float], t0: float, h: float,
                 richardson: bool = True):
    """Central difference d/dt f(t) at t0, optionally Richardson-extrapolated once.

    The plain stencil has O(h^2) truncation error; one Richardson level
    combines steps h and h/2 into an O(h^4) estimate.
    """
    def d(step: float):
        return (np.asarray(f(t0 + step)) - np.asarray(f(t0 - step))) / (2.0 * step)

    d1 = d(h)
    if not richardson:
        return d1
    d2 = d(0.5 * h)
    return (4.0 * d2 - d1) / 3.0

