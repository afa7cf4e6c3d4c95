"""Limit extraction for eventually-alternating partial-sum sequences.

A partial sum F_m, truncated at index m of a series, misses a remainder with
two parts: one that alternates with m and one that does not.  The second is
real: when the summand couples two alternating factors, the product of
their sign patterns is constant (alternating-harmonic tails inside an
alternating Euler sum).  Both parts expand in the same smooth modes, so the
raw partial sums are fitted by least squares to

    F_m = I + sum_q c_q (-1)^m s^(-q) [log s] + sum_q d_q s^(-q) [log s],

with s = m / n, over the non-constant entries (q, with_log) of a basis, and
the constant I is the limit.  This is Sidi's GREP with an alternating and a
smooth shape function (A. Sidi, *Practical Extrapolation Methods*,
Cambridge UP, 2003, ch. 4 and 11).  The fit takes the last half of the sums
and normalised columns; the Euler sums pass integer powers of m with log m
twins.  The design depends only on n and the basis, so the limit and its
drop-one shift are two dot products with cached rows of the design's
pseudo-inverse.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

__all__ = ["alternating_series_limit", "sums_from_last"]


def alternating_series_limit(
    partial_sums: Sequence[float], basis: Sequence[tuple[float, bool]]
) -> tuple[float, float]:
    """Fitted limit of ``partial_sums`` and its shift without the last basis entry.

    The sums are F_1 .. F_n, and each ``basis`` entry ``(q, with_log)`` gives
    an alternating and a smooth column (m/n)^(-q), times log(m/n) if with_log;
    the first must be the constant.  Fewer sums than twice the fit's columns
    or a basis without a non-constant entry raise ``ValueError``.  The limit
    moves with a constant added to every sum, so a caller may pass
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
    rows, full, dropped = _unit_weights(n, tuple(map(tuple, basis)))
    y = y[rows]
    limit = float(full @ y)
    return limit, abs(limit - float(dropped @ y))


def _design(n: int, basis: Sequence[tuple[float, bool]]) -> tuple[np.ndarray, np.ndarray]:
    # The rows of the fit and its design, with columns normalised.  The rows
    # are the last half of the sums, thinned for long sequences by an odd
    # stride that keeps both parities of m; the last sum is always a row.
    rows = np.arange(n - 1, n // 2 - 1, -(2 * (n // 4096) + 1))[::-1]
    scale = (rows + 1.0) / n
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
    # The rows of the fit and two weight rows: the limit of the full fit and
    # of the fit without its last column pair, each the first row of the
    # design's pseudo-inverse (over the constant column's norm), with lstsq's
    # singular-value cutoff eps max(M, N).
    rows, design = _design(n, basis)
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
    the total, which the least-squares limit would amplify.  Only the last
    half, from index n // 2 on, is summed, as the fit reads no other row;
    the first half is nan.
    """
    n = len(terms)
    out = np.full(n, math.nan)
    out[n // 2 : -1] = -np.cumsum(terms[: n // 2 : -1])[::-1]
    out[-1] = 0.0
    return out
