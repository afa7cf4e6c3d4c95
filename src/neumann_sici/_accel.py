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

At positions 1..n (``positions=None``, the Euler sums) the design depends
only on n and the basis, so the limit and its drop-one shift are two dot
products with cached rows of the design's pseudo-inverse.  Longman edges
differ per integral and checkpoint, so a cache would rarely hit there, and
weight rows round differently from a solve by up to about 1e-12 on those
fits, which the Longman error estimates are tested against near the
roundoff floor; given positions keep a per-call ``lstsq``.
"""

from __future__ import annotations

import functools
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
    Fewer sums than twice the fit's columns, positions of another length or
    a basis without a non-constant entry raise ``ValueError``.  The
    limit moves with a constant added to every sum, so a caller may pass
    ``sums_from_last`` and add the total itself.  The shift, how far the limit
    moves when the last basis entry is dropped, is left to the caller to turn
    into an error estimate.
    """
    y = np.asarray(partial_sums, dtype=float)
    n = len(y)
    if len(basis) < 2:
        raise ValueError("basis needs the constant and at least one more entry")
    columns = 2 * len(basis) - 1
    if n < 2 * columns:
        raise ValueError(f"{n} partial sums, fewer than twice the fit's {columns} columns")
    if positions is not None and len(positions) != n:
        raise ValueError(f"{len(positions)} positions for {n} partial sums")
    if positions is None:
        rows, full, dropped = _unit_weights(n, tuple(map(tuple, basis)))
        y = y[rows]
        limit = float(full @ y)
        return limit, abs(limit - float(dropped @ y))
    rows, design = _design(n, np.asarray(positions, dtype=float), basis)
    y = y[rows]
    norm = math.sqrt(len(y))  # of the constant column
    full = float(np.linalg.lstsq(design, y, rcond=None)[0][0]) / norm
    dropped = float(np.linalg.lstsq(design[:, :-2], y, rcond=None)[0][0]) / norm
    return full, abs(full - dropped)


def _design(
    n: int, positions: np.ndarray | None, basis: Sequence[tuple[float, bool]]
) -> tuple[np.ndarray, np.ndarray]:
    # The rows of the fit and its design, with columns normalised.  The rows
    # are the last half of the sums, thinned for long sequences by an odd
    # stride that keeps both parities of m; the last sum is always a row.
    rows = np.arange(n - 1, n // 2 - 1, -(2 * (n // 4096) + 1))[::-1]
    scale = rows + 1.0 if positions is None else positions[rows]
    scale /= scale[-1]
    sign = np.where(rows % 2 == 0, -1.0, 1.0)  # (-1)^m for the 1-based index m
    columns = [np.ones_like(scale)]
    for q, with_log in basis[1:]:
        smooth = scale**-q * np.log(scale) if with_log else scale**-q
        columns += [sign * smooth, smooth]
    design = np.stack(columns, axis=1)
    design /= np.linalg.norm(design, axis=0)
    return rows, design


@functools.lru_cache(maxsize=8)
def _unit_weights(
    n: int, basis: tuple[tuple[float, bool], ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The rows of the fit at positions 1..n and two weight rows: the limit of
    # the full fit and of the fit without its last column pair, each the
    # first row of the design's pseudo-inverse (over the constant column's
    # norm), with lstsq's singular-value cutoff eps max(M, N).
    rows, design = _design(n, None, basis)
    norm = math.sqrt(len(rows))
    weights = []
    for d in (design, design[:, :-2]):
        u, s, vt = np.linalg.svd(d, full_matrices=False)
        keep = s > np.finfo(float).eps * max(d.shape) * s[0]
        weights.append(u[:, keep] @ (vt[keep, 0] / s[keep]) / norm)
    for a in (rows, *weights):
        a.flags.writeable = False
    return rows, *weights


def sums_from_last(terms: np.ndarray) -> np.ndarray:
    """Partial sums of ``terms`` minus their total: -sum_{k>m} terms[k].

    Summed from the far end, their rounding is the size of the tail, not of
    the total, which the least-squares limit would amplify.
    """
    return np.append(-np.cumsum(terms[:0:-1])[::-1], 0.0)
