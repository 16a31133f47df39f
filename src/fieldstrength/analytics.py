"""Rankings, rank correlations, and median-quadrant classification.

All rank work uses fractional (mean) ranks: zero-heavy indicator columns
make ties the norm, and Spearman with ties requires mean ranks to stay
well defined.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .indicators import FieldTable, indicator_id

log = logging.getLogger(__name__)


def fractional_ranks(values: Sequence[float]) -> np.ndarray:
    """Ascending ranks 1..n with tied values sharing the mean rank.

    A tie group of c values preceded by s smaller ones spans ranks
    s+1..s+c, so every member gets s + (c+1)/2.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return np.empty(0, dtype=float)
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    smaller = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return (smaller + (counts + 1) / 2.0)[inverse]


@dataclass(frozen=True)
class IndicatorRanking:
    """One indicator's values and fractional ranks, both in the order of
    sds_codes (ascending), and order, the field indices best first."""

    indicator_id: str
    sds_codes: tuple[str, ...]
    values: np.ndarray
    ranks: np.ndarray
    order: np.ndarray


def rank_values(indicator: str, sds_codes: tuple[str, ...],
                values: np.ndarray) -> IndicatorRanking:
    """Rank fields on one indicator's values, in sds_codes order: rank 1 is
    the highest value, and tied values share the mean of the ranks they
    span. The best-first order breaks ties by position in sds_codes."""
    return IndicatorRanking(indicator_id=indicator, sds_codes=sds_codes, values=values,
                            ranks=fractional_ranks(-values),
                            order=np.argsort(-values, kind="stable"))


def rank_indicator(fields: FieldTable, family: str, p: float) -> IndicatorRanking:
    """rank_values of one indicator (family "fss_ts" or "fss_fhca" at
    percentile p); a percentile the table does not hold raises KeyError."""
    values = dict(zip(fields.percentiles, getattr(fields, family).T))[p]
    return rank_values(indicator_id(family, p), fields.sds_codes, values)


@dataclass(frozen=True)
class CorrelationMatrix:
    indicator_ids: tuple[str, ...]
    # None marks entries undefined under zero rank variance
    values: tuple[tuple[Optional[float], ...], ...]


def correlation_matrix(rankings: Sequence[IndicatorRanking]) -> CorrelationMatrix:
    """Spearman correlation of every pair of indicator rankings (Pearson on
    the fractional ranks, aligned by SDS) from one np.corrcoef over the rank
    rows. An entry is None when there are fewer than two fields or either
    ranking has no rank variance; such rows never reach corrcoef.

    Each entry has the bits of np.corrcoef of its two rows alone: fractional
    ranks are multiples of 0.5, so their mean (n+1)/2, the centred ranks and
    their products (multiples of 0.25) are exact, and while n**3 <= 2**53
    (n up to about 200k fields) so is every partial sum of products, in any
    BLAS summation order; what corrcoef does next is elementwise.
    """
    if len({r.sds_codes for r in rankings}) > 1:
        raise ValueError("rankings cover different field sets")
    values = np.full((len(rankings), len(rankings)), None, dtype=object)
    defined = [i for i, r in enumerate(rankings) if len(r.ranks) >= 2 and np.ptp(r.ranks) > 0]
    if defined:
        rows = np.array([rankings[i].ranks for i in defined])
        # the repeated first row keeps a lone row from coming back as corrcoef's scalar 1.0
        values[np.ix_(defined, defined)] = np.corrcoef(rows, rows[:1])[:-1, :-1]
    return CorrelationMatrix(indicator_ids=tuple(r.indicator_id for r in rankings),
                             values=tuple(map(tuple, values.tolist())))


@dataclass(frozen=True)
class QuadrantResult:
    """Median-split strong/weak field sets.

    For each percentile p, a field is strong when it sits strictly above
    the median on both indicators at p, weak when strictly below both;
    the reported sets are unions over the percentiles. Fields exactly on
    a median belong to neither. A field can qualify as strong at one
    percentile and weak at another; such ambiguous fields are excluded
    from both unions (keeping them disjoint) and reported separately.
    """

    medians: Mapping[str, float]
    strong_union: frozenset[str]
    weak_union: frozenset[str]
    ambiguous: frozenset[str]


def quadrant_classify(fields: FieldTable) -> QuadrantResult:
    if not len(fields):
        return QuadrantResult(medians={}, strong_union=frozenset(),
                              weak_union=frozenset(), ambiguous=frozenset())
    medians: dict[str, float] = {}
    strong = np.zeros(len(fields), dtype=bool)
    weak = np.zeros(len(fields), dtype=bool)
    for p, ts, fhca in zip(fields.percentiles, fields.fss_ts.T, fields.fss_fhca.T):
        ts_med = float(np.median(ts))
        fhca_med = float(np.median(fhca))
        medians[indicator_id("fss_ts", p)] = ts_med
        medians[indicator_id("fss_fhca", p)] = fhca_med
        strong |= (ts > ts_med) & (fhca > fhca_med)
        weak |= (ts < ts_med) & (fhca < fhca_med)

    def codes(mask: np.ndarray) -> frozenset[str]:
        return frozenset(fields.sds_codes[f] for f in np.flatnonzero(mask).tolist())

    ambiguous = codes(strong & weak)
    if ambiguous:
        log.info("fields strong at one percentile, weak at another: %s", sorted(ambiguous))
    return QuadrantResult(
        medians=medians,
        strong_union=codes(strong & ~weak),
        weak_union=codes(weak & ~strong),
        ambiguous=ambiguous,
    )


@dataclass(frozen=True)
class AverageRankResult:
    avg_rank: np.ndarray  # each field's mean rank, in SDS order
    order: np.ndarray  # the field indices ascending by avg_rank (best first)
    truncated: bool  # more than len(order) best and worst fields were asked for


def average_rank_extremes(rankings: Sequence[IndicatorRanking], k: int) -> AverageRankResult:
    """Order fields by the mean of their fractional ranks across all
    indicator rankings, best first.

    Ties on the average are broken by SDS code. Asking for the best and
    worst k of fewer than k fields marks the result truncated, with a
    logged note; the report layer picks the k extremes.
    """
    if not rankings:
        raise ValueError("no rankings supplied")
    if any(r.sds_codes != rankings[0].sds_codes for r in rankings):
        raise ValueError("rankings cover different field sets")
    # half-integer ranks add exactly in any order
    avg_rank = sum(r.ranks for r in rankings) / len(rankings)
    n = len(avg_rank)
    truncated = k > n
    if truncated:
        log.warning("requested top/bottom %d of only %d fields; truncating", k, n)
    return AverageRankResult(avg_rank=avg_rank, order=np.argsort(avg_rank, kind="stable"),
                             truncated=truncated)
