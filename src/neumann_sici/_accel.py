"""Limit extraction for eventually-alternating partial-sum sequences.

Averaging (the Euler transformation) kills the alternating component, but
the sequences here carry a smooth monotone remainder as well: when the
summand couples two alternating factors, the product of their sign patterns
is constant (alternating-harmonic tails inside an alternating Euler sum; a
Si or Ci tail against a Bessel function in a Longman integral).  The
averaged sums are collocated against a basis of smooth modes on
geometrically spaced truncation points and extrapolated to infinity: the
integer power ladder 1, 1/m, ..., 1/m^5 for the Euler sums, and b^(-3/2),
b^(-3/2) log b, ... at the partition edges b for ``quad``'s Longman sums.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["alternating_series_limit"]

_AVERAGING_PASSES = 4
_POINTS = 7  # collocation points, spaced by a factor sqrt(2)
POWER_LADDER = tuple((q, False) for q in range(6))


def alternating_series_limit(
    partial_sums: Sequence[float],
    positions: Sequence[float] | None = None,
    basis: Sequence[tuple[float, bool]] = POWER_LADDER,
) -> tuple[float, float]:
    """Extrapolated limit of ``partial_sums`` and the drop-one-point shift.

    ``positions`` are the truncation points (default 1, 2, ...) and each
    ``basis`` entry ``(q, with_log)`` a column scale^(-q), times log(scale)
    if with_log; the first must be the constant.  Callers pass at least 32
    partial sums, which leaves at least three collocation points.  The
    shift, how far the limit moves when the farthest-back collocation point
    is dropped, is left to the caller to turn into an error estimate.
    """
    y = np.asarray(partial_sums, dtype=float)
    if positions is None:
        positions = range(1, len(y) + 1)
    b = np.asarray(positions, dtype=float)
    for _ in range(_AVERAGING_PASSES):
        y = 0.5 * (y[1:] + y[:-1])
        b = 0.5 * (b[1:] + b[:-1])
    idx: list[int] = []
    target = b[-1]
    for _ in range(_POINTS):
        i = int(np.argmin(np.abs(b - target)))
        if not idx or i != idx[-1]:
            idx.append(i)
        target /= math.sqrt(2.0)
    idx = sorted(set(idx))
    bp, yp = b[idx], y[idx]
    scale = bp / bp[-1]
    n_basis = min(len(basis), len(bp) - 1)
    design = np.stack([
        scale ** -q * np.log(scale) if with_log else scale ** -q
        for q, with_log in basis[:n_basis]
    ], axis=1)
    full = float(np.linalg.lstsq(design, yp, rcond=None)[0][0])
    n2 = min(n_basis, len(bp) - 2)
    dropped = float(np.linalg.lstsq(design[1:, :n2], yp[1:], rcond=None)[0][0])
    return full, abs(full - dropped)
