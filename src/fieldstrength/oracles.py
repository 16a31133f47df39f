"""Brute-force reference implementations used to cross-check the engine.

Everything here is deliberately naive: quadratic scans and textbook
formulas, written without numpy so they cannot share bugs with the
optimized code paths they verify. Used by the test suite and the
acceptance runs only; never on the hot path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence


def oracle_top_p(members: Sequence[tuple[str, int]], p: float) -> set[str]:
    """Flag the top-p% members of one citation cell by pairwise counting.

    A member is flagged iff the number of members with strictly more
    citations, b, satisfies 100*b < p*len(members), compared exactly with
    p as the decimal it is written as. Ties therefore share the better
    outcome.
    """
    size = len(members)
    exact_p = Fraction(repr(float(p)))
    flagged = set()
    for pub_id, cits in members:
        b = 0
        for _, other in members:
            if other > cits:
                b += 1
        if 100 * b < exact_p * size:
            flagged.add(pub_id)
    return flagged


def oracle_quantile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated order statistic at position (n-1)*q."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of empty sequence")
    pos = (len(data) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return data[lo] + frac * (data[hi] - data[lo])


def oracle_quartiles(values: Sequence[float]) -> tuple[float, float]:
    """(q1, q3) by direct sort-and-interpolate."""
    return oracle_quantile(values, 0.25), oracle_quantile(values, 0.75)


def oracle_fractional_ranks(values: Sequence[float]) -> list[float]:
    """Ascending ranks 1..n, tied values sharing the mean of their ranks.

    For each element: (count strictly below) + (count equal + 1) / 2,
    counted by direct comparison against every other element.
    """
    ranks = []
    for x in values:
        below = sum(1 for y in values if y < x)
        equal = sum(1 for y in values if y == x)
        ranks.append(below + (equal + 1) / 2.0)
    return ranks


def oracle_spearman(x: Sequence[float], y: Sequence[float]) -> Optional[float]:
    """Tie-safe Spearman: Pearson on fractional ranks, by direct sums.

    Returns None when either rank vector has zero variance (undefined).
    """
    if len(x) != len(y):
        raise ValueError("length mismatch")
    n = len(x)
    if n < 2:
        return None
    rx = oracle_fractional_ranks(x)
    ry = oracle_fractional_ranks(y)
    sx = sum(rx)
    sy = sum(ry)
    sxx = sum(v * v for v in rx)
    syy = sum(v * v for v in ry)
    sxy = sum(a * b for a, b in zip(rx, ry))
    var_x = n * sxx - sx * sx
    var_y = n * syy - sy * sy
    if var_x <= 0 or var_y <= 0:
        return None
    return (n * sxy - sx * sy) / math.sqrt(var_x * var_y)
