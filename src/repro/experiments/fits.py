"""Log-log power-law fits for scaling benches.

The theorems predict power laws (rounds ``∝ k^{-2}`` for PageRank,
``∝ k^{-5/3}`` for triangles, ``∝ n^{1/3}`` in the clique).  Benches fit
``y = C x^a`` by least squares on ``(log x, log y)`` and report the
exponent ``a`` next to the paper's prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PowerLawFit", "fit_power_law"]


@dataclass(frozen=True)
class PowerLawFit:
    """A least-squares fit ``y ≈ coefficient * x**exponent``.

    ``r_squared`` is the coefficient of determination in log-log space.
    """

    exponent: float
    coefficient: float
    r_squared: float


def fit_power_law(x, y) -> PowerLawFit:
    """Fit ``y = C x^a`` on positive data by log-log least squares."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if x.size < 2:
        raise ValueError("need at least two points to fit")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fits require positive data")
    lx, ly = np.log(x), np.log(y)
    a, b = np.polyfit(lx, ly, 1)
    pred = a * lx + b
    ss_res = float(((ly - pred) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(exponent=float(a), coefficient=float(np.exp(b)), r_squared=r2)
