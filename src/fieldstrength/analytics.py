"""Rankings, rank correlations, and median-quadrant classification.

All rank work uses fractional (mean) ranks: zero-heavy indicator columns
make ties the norm, and Spearman with ties requires mean ranks to stay
well defined.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence

import numpy as np

from .indicators import FieldScoreboard, indicator_id

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
    """One indicator's fields sorted best-first with fractional ranks.

    The lookups below are built on first use and then kept, so that
    pairwise correlations and average ranks do not rebuild them.
    """

    indicator_id: str
    ranked: tuple[tuple[str, float, float], ...]  # (sds, value, rank)

    @cached_property
    def rank_by_sds(self) -> dict[str, float]:
        return {sds: rank for sds, _, rank in self.ranked}

    @cached_property
    def value_by_sds(self) -> dict[str, float]:
        return {sds: value for sds, value, _ in self.ranked}

    @cached_property
    def ranks_by_code(self) -> tuple[tuple[str, ...], np.ndarray]:
        """(SDS codes in ascending order, their ranks in that order)."""
        codes = tuple(sorted(self.rank_by_sds))
        return codes, np.array([self.rank_by_sds[sds] for sds in codes])


def rank_indicator(boards: Sequence[FieldScoreboard], family: str, p: float) -> IndicatorRanking:
    """Rank fields on one indicator (family "fss_ts" or "fss_fhca" at
    percentile p), best value first.

    Rank 1 is the best; tied values share the mean of the ranks they
    span. Display order breaks ties by SDS code so output is stable.
    """
    values = [getattr(board, family)[p] for board in boards]
    # rank 1 = highest value, so rank descending
    ranks = fractional_ranks([-value for value in values]).tolist()
    entries = sorted(zip((board.sds for board in boards), values, ranks),
                     key=lambda e: (-e[1], e[0]))
    return IndicatorRanking(indicator_id=indicator_id(family, p), ranked=tuple(entries))


def spearman(x: IndicatorRanking, y: IndicatorRanking) -> Optional[float]:
    """Spearman correlation between two indicator rankings.

    Pearson on the fractional ranks, aligned by SDS. Undefined (None)
    when fewer than two fields or either rank vector has no variance.
    """
    keys, a = x.ranks_by_code
    y_keys, b = y.ranks_by_code
    if keys != y_keys:
        raise ValueError("rankings cover different field sets")
    if len(keys) < 2:
        return None
    if np.ptp(a) == 0 or np.ptp(b) == 0:
        return None
    return float(np.corrcoef(a, b)[0, 1])


@dataclass(frozen=True)
class CorrelationMatrix:
    indicator_ids: tuple[str, ...]
    # None marks entries undefined under zero rank variance
    values: tuple[tuple[Optional[float], ...], ...]


def correlation_matrix(rankings: Sequence[IndicatorRanking]) -> CorrelationMatrix:
    ids = tuple(r.indicator_id for r in rankings)
    values = tuple(
        tuple(spearman(a, b) for b in rankings)
        for a in rankings
    )
    return CorrelationMatrix(indicator_ids=ids, values=values)


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


def quadrant_classify(boards: Sequence[FieldScoreboard],
                      percentiles: Sequence[float]) -> QuadrantResult:
    medians: dict[str, float] = {}
    strong: set[str] = set()
    weak: set[str] = set()
    if not boards:
        return QuadrantResult(medians={}, strong_union=frozenset(),
                              weak_union=frozenset(), ambiguous=frozenset())
    for p in percentiles:
        ts_values = {b.sds: b.fss_ts[p] for b in boards}
        fhca_values = {b.sds: b.fss_fhca[p] for b in boards}
        ts_med = float(np.median(list(ts_values.values())))
        fhca_med = float(np.median(list(fhca_values.values())))
        medians[indicator_id("fss_ts", p)] = ts_med
        medians[indicator_id("fss_fhca", p)] = fhca_med
        for b in boards:
            if ts_values[b.sds] > ts_med and fhca_values[b.sds] > fhca_med:
                strong.add(b.sds)
            if ts_values[b.sds] < ts_med and fhca_values[b.sds] < fhca_med:
                weak.add(b.sds)
    ambiguous = strong & weak
    if ambiguous:
        log.info("fields strong at one percentile, weak at another: %s", sorted(ambiguous))
    return QuadrantResult(
        medians=medians,
        strong_union=frozenset(strong - ambiguous),
        weak_union=frozenset(weak - ambiguous),
        ambiguous=frozenset(ambiguous),
    )


@dataclass(frozen=True)
class AverageRankEntry:
    sds: str
    avg_rank: float
    position: int
    ranks: Mapping[str, float]
    values: Mapping[str, float]


@dataclass(frozen=True)
class AverageRankResult:
    entries: tuple[AverageRankEntry, ...]  # ascending by avg_rank (best first)
    truncated: bool  # more than len(entries) best and worst fields were asked for


def average_rank_extremes(rankings: Sequence[IndicatorRanking], k: int) -> AverageRankResult:
    """Order fields by the mean of their fractional ranks across all
    indicator rankings, best first.

    Ties on the average are broken by SDS code. Asking for the best and
    worst k of fewer than k fields marks the result truncated, with a
    logged note; the report layer picks the k extremes.
    """
    if not rankings:
        raise ValueError("no rankings supplied")
    field_sets = [set(r.rank_by_sds) for r in rankings]
    if any(fs != field_sets[0] for fs in field_sets):
        raise ValueError("rankings cover different field sets")
    sds_codes = sorted(field_sets[0])

    entries = []
    for sds in sds_codes:
        ranks = {r.indicator_id: r.rank_by_sds[sds] for r in rankings}
        values = {r.indicator_id: r.value_by_sds[sds] for r in rankings}
        avg = sum(ranks.values()) / len(rankings)
        entries.append((avg, sds, ranks, values))
    entries.sort(key=lambda e: (e[0], e[1]))
    full = tuple(
        AverageRankEntry(sds=sds, avg_rank=avg, position=i + 1, ranks=ranks, values=values)
        for i, (avg, sds, ranks, values) in enumerate(entries)
    )

    truncated = k > len(full)
    if truncated:
        log.warning("requested top/bottom %d of only %d fields; truncating", k, len(full))
    return AverageRankResult(entries=full, truncated=truncated)
