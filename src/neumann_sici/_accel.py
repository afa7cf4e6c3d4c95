"""Limit extraction for eventually-alternating partial-sum sequences.

A partial sum F_m, truncated at position b_m (the index m of a series, the
m-th partition edge of a Longman integral), misses a remainder with two
parts: one that alternates with m and one that does not.  The second is
real: when the summand couples two alternating factors, the product of
their sign patterns is constant (alternating-harmonic tails inside an
alternating Euler sum; a Si or Ci tail against a Bessel function in a
Longman integral).  Both parts expand in the same smooth modes, so the raw
partial sums are fitted by least squares to

    F_m = I + sum_q c_q (-1)^m s^(-q) [log s] + sum_q d_q s^(-q) [log s],

with s = b_m / b_max, over the non-constant entries (q, with_log) of a basis,
and the constant I is the limit.  This is Sidi's GREP with an alternating and
a smooth shape function (A. Sidi, *Practical Extrapolation Methods*,
Cambridge UP, 2003, ch. 4 and 11).  The fit takes the last half of the sums
and normalised columns.  The Euler sums pass integer powers of m with log m
twins, and ``quad`` passes half-integer powers of the partition edge.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["alternating_series_limit", "sums_from_last"]


def alternating_series_limit(
    partial_sums: Sequence[float],
    positions: Sequence[float] | None,
    basis: Sequence[tuple[float, bool]],
) -> tuple[float, float]:
    """Fitted limit of ``partial_sums`` and its shift without the last basis entry.

    ``positions`` are the truncation points (None for 1, 2, ...) and each
    ``basis`` entry ``(q, with_log)`` gives an alternating and a smooth column
    scale^(-q), times log(scale) if with_log; the first must be the constant.
    Callers pass at least twice as many sums as the fit has columns.  The
    limit moves with a constant added to every sum, so a caller may pass
    ``sums_from_last`` and add the total itself.  The shift, how far the limit
    moves when the last basis entry is dropped, is left to the caller to turn
    into an error estimate.
    """
    y = np.asarray(partial_sums, dtype=float)
    # the last half of the sums, thinned for long sequences by an odd stride
    # that keeps both parities of m; the last sum is always a row
    n = len(y)
    rows = np.arange(n - 1, n // 2 - 1, -(2 * (n // 4096) + 1))[::-1]
    scale = rows + 1.0 if positions is None else np.asarray(positions, dtype=float)[rows]
    scale /= scale[-1]
    y = y[rows]
    sign = np.where(rows % 2 == 0, -1.0, 1.0)  # (-1)^m for the 1-based index m
    columns = [np.ones_like(scale)]
    for q, with_log in basis[1:]:
        smooth = scale**-q * np.log(scale) if with_log else scale**-q
        columns += [sign * smooth, smooth]
    design = np.stack(columns, axis=1)
    design /= np.linalg.norm(design, axis=0)
    norm = math.sqrt(len(y))  # of the constant column
    full = float(np.linalg.lstsq(design, y, rcond=None)[0][0]) / norm
    dropped = float(np.linalg.lstsq(design[:, :-2], y, rcond=None)[0][0]) / norm
    return full, abs(full - dropped)


def sums_from_last(terms: np.ndarray) -> np.ndarray:
    """Partial sums of ``terms`` minus their total: -sum_{k>m} terms[k].

    Summed from the far end, their rounding is the size of the tail, not of
    the total, which the least-squares limit would amplify.
    """
    return np.append(-np.cumsum(terms[:0:-1])[::-1], 0.0)
