"""Field strength scoreboards and discipline-level aggregation.

Two indicators per field and percentile threshold:

* top scientists per euro spent in the field (``fss_ts``);
* fractional highly cited articles, rescaled by the mean fractional
  output of the field's top scientists, per euro spent (``fss_fhca``).

Both are multiplied by a reporting scale (default: per 100 M euro).
Discipline rows aggregate member fields weighted by research expenditure.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .hca import HcaFlagSet
from .ingest import Corpus
from .model import FALLBACK_UDA_THEN_NATIONAL, RANKS, CostModel, p_label
from .scoring import (
    RESCALE_EXHAUSTED,
    RESCALE_FROM_FIELD,
    ResearcherScore,
    detect_top_scientists,
    ts_output_means,
)


def indicator_id(family: str, p: float) -> str:
    return f"{family}_{p_label(p)}"


@dataclass(frozen=True)
class FieldScoreboard:
    """Everything computed for one field (SDS)."""

    sds: str
    uda: str
    n_professors: int
    n_by_rank: Mapping[str, int]
    total_cost: float
    ts_ids: Mapping[float, frozenset[str]]
    fhca_total: Mapping[float, float]
    fhca_rescaled: Mapping[float, float]
    fss_ts: Mapping[float, float]
    fss_fhca: Mapping[float, float]
    rescale_provenance: Mapping[float, str]

    def ts_count(self, p: float) -> int:
        return len(self.ts_ids[p])

    def fallback_flags(self) -> str:
        flagged = [
            f"{p_label(p)}:{src}"
            for p, src in sorted(self.rescale_provenance.items())
            if src != RESCALE_FROM_FIELD
        ]
        return ";".join(flagged)


@dataclass(frozen=True)
class DisciplineScoreboard:
    """Expenditure-weighted aggregate of one discipline's fields."""

    uda: str
    n_sds: int
    n_professors: int
    total_cost: float
    ts_count: Mapping[float, int]
    ts_share: Mapping[float, float]
    fss_ts: Mapping[float, float]
    fss_fhca: Mapping[float, float]


def per_euro(amount: float, total_cost: float, reporting_scale: float) -> float:
    """Top scientists or rescaled fractional HCAs per euro, scaled for reporting."""
    if total_cost <= 0:
        raise ValueError("field with non-positive total cost")
    return reporting_scale * amount / total_cost


def build_field_scoreboards(corpus: Corpus, scores: Sequence[ResearcherScore],
                            flag_sets: Mapping[float, HcaFlagSet],
                            cost_model: CostModel) -> list[FieldScoreboard]:
    """Compute the full per-field scoreboard, sorted by SDS code."""
    percentiles = sorted(flag_sets)
    multiplier = corpus.config.ts_fence_multiplier
    scale = cost_model.reporting_scale

    scores_by_sds: dict[str, list[ResearcherScore]] = {}
    for score in scores:
        scores_by_sds.setdefault(score.sds, []).append(score)

    ts_by_sds = {
        sds: detect_top_scientists(field_scores, percentiles, multiplier)
        for sds, field_scores in scores_by_sds.items()
    }
    ts_means = ts_output_means(
        scores_by_sds,
        ts_by_sds,
        corpus.taxonomy.sds_to_uda,
        percentiles,
        use_uda=corpus.config.rescale_fallback == FALLBACK_UDA_THEN_NATIONAL,
    )

    boards = []
    for sds in sorted(scores_by_sds):
        field_scores = scores_by_sds[sds]
        uda = corpus.taxonomy.uda_of(sds)
        total_cost = sum(s.cost for s in field_scores)
        n_by_rank = dict.fromkeys(RANKS, 0)
        for score in field_scores:
            n_by_rank[corpus.researchers[score.researcher_id].latest_rank] += 1

        ts_ids: dict[float, frozenset[str]] = {}
        fhca_total, fhca_rescaled, fss_ts_by_p, fss_fhca_by_p = {}, {}, {}, {}
        provenance: dict[float, str] = {}
        for p in percentiles:
            ts = ts_by_sds[sds][p]
            ts_ids[p] = frozenset(ts)
            fhca_total[p] = sum(s.fhca_score[p] for s in field_scores)
            avg_out, provenance[p] = ts_means[sds, p]
            if provenance[p] == RESCALE_EXHAUSTED or fhca_total[p] == 0.0:
                fhca_rescaled[p] = 0.0
            else:
                fhca_rescaled[p] = fhca_total[p] / avg_out
            fss_fhca_by_p[p] = per_euro(fhca_rescaled[p], total_cost, scale)
            fss_ts_by_p[p] = per_euro(len(ts), total_cost, scale)

        boards.append(FieldScoreboard(
            sds=sds, uda=uda, n_professors=len(field_scores), n_by_rank=n_by_rank,
            total_cost=total_cost, ts_ids=ts_ids, fhca_total=fhca_total,
            fhca_rescaled=fhca_rescaled, fss_ts=fss_ts_by_p, fss_fhca=fss_fhca_by_p,
            rescale_provenance=provenance))
    return boards


def aggregate_uda(uda: str, fields: Sequence[FieldScoreboard],
                  percentiles: Sequence[float]) -> DisciplineScoreboard:
    """Weighted mean of each indicator, weights = field cost share.

    Also sums top-scientist counts and reports their share of the
    discipline's professors. The weighted mean of member values is a
    convex combination, so each aggregate lies within the member range.
    """
    if not fields:
        raise ValueError(f"discipline {uda!r} has no fields")
    total_cost = sum(f.total_cost for f in fields)
    weights = {f.sds: f.total_cost / total_cost for f in fields}
    n_professors = sum(f.n_professors for f in fields)

    ts_count, ts_share, w_fss_ts, w_fss_fhca = {}, {}, {}, {}
    for p in percentiles:
        ts_count[p] = sum(f.ts_count(p) for f in fields)
        ts_share[p] = 100.0 * ts_count[p] / n_professors
        w_fss_ts[p] = sum(weights[f.sds] * f.fss_ts[p] for f in fields)
        w_fss_fhca[p] = sum(weights[f.sds] * f.fss_fhca[p] for f in fields)

    return DisciplineScoreboard(uda=uda, n_sds=len(fields), n_professors=n_professors,
                                total_cost=total_cost, ts_count=ts_count, ts_share=ts_share,
                                fss_ts=w_fss_ts, fss_fhca=w_fss_fhca)


def build_discipline_scoreboards(boards: Sequence[FieldScoreboard],
                                 percentiles: Sequence[float],
                                 ) -> tuple[list[DisciplineScoreboard], DisciplineScoreboard]:
    """Per-discipline rows (sorted by UDA code) plus the overall row."""
    by_uda: dict[str, list[FieldScoreboard]] = {}
    for board in boards:
        by_uda.setdefault(board.uda, []).append(board)
    rows = [aggregate_uda(uda, by_uda[uda], percentiles) for uda in sorted(by_uda)]
    overall = aggregate_uda("ALL", list(boards), percentiles)
    return rows, overall


def write_scoreboard_csv(boards: Sequence[FieldScoreboard], percentiles: Sequence[float],
                         path: Path) -> int:
    """Full-precision per-field scoreboard export."""
    labels = [p_label(p) for p in percentiles]
    header = ["sds", "uda", "n_professors", "total_cost"]
    header += [f"ts_{pl}" for pl in labels]
    header += [f"fss_ts_{pl}" for pl in labels]
    header += [f"fss_fhca_{pl}" for pl in labels]
    header.append("fallback_flags")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for board in boards:
            row = [board.sds, board.uda, board.n_professors, repr(board.total_cost)]
            row += [board.ts_count(p) for p in percentiles]
            row += [repr(board.fss_ts[p]) for p in percentiles]
            row += [repr(board.fss_fhca[p]) for p in percentiles]
            row.append(board.fallback_flags())
            writer.writerow(row)
    return len(boards)
