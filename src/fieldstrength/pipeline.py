"""End-to-end computation: corpus -> flags -> scores -> scoreboards -> analytics.

Pure compute; all file writing stays in the cli layer so the pipeline
can be exercised and compared in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from .analytics import (
    AverageRankResult,
    CorrelationMatrix,
    IndicatorRanking,
    QuadrantResult,
    average_rank_extremes,
    correlation_matrix,
    quadrant_classify,
    rank_indicator,
)
from .hca import HcaFlagSet, SummaryTable, build_cells, corpus_summary, flag_hcas
from .indicators import (
    DisciplineScoreboard,
    FieldScoreboard,
    build_discipline_scoreboards,
    build_field_scoreboards,
)
from .ingest import Corpus
from .model import CostModel, OutputOptions, p_label
from .reporting import ReportBundle
from .scoring import RESCALE_FROM_FIELD, ScoreTable, score_researchers


@dataclass
class PipelineResult:
    corpus: Corpus
    flag_sets: dict[float, HcaFlagSet]
    summary: SummaryTable
    scores: ScoreTable
    boards: list[FieldScoreboard]
    discipline_rows: list[DisciplineScoreboard]
    discipline_overall: Optional[DisciplineScoreboard]
    rankings: list[IndicatorRanking]
    correlations: CorrelationMatrix
    quadrant: QuadrantResult
    avg_rank: AverageRankResult
    bundle: ReportBundle
    counts: dict[str, int]
    warnings: list[str]


def run_pipeline(corpus: Corpus, cost_model: CostModel,
                 top_bottom_k: int = OutputOptions.top_bottom_k) -> PipelineResult:
    percentiles = list(corpus.config.sorted_percentiles)
    cells = build_cells(corpus)
    flag_sets = flag_hcas(cells, percentiles)
    summary = corpus_summary(corpus, flag_sets)
    scores = score_researchers(corpus, flag_sets, cost_model)
    boards = build_field_scoreboards(corpus, scores, cost_model)
    if boards:
        discipline_rows, discipline_overall = build_discipline_scoreboards(boards, percentiles)
    else:
        discipline_rows, discipline_overall = [], None

    rankings = [rank_indicator(boards, family, p)
                for family in ("fss_ts", "fss_fhca") for p in percentiles]
    correlations = correlation_matrix(rankings)
    quadrant = quadrant_classify(boards, percentiles)
    avg_rank = average_rank_extremes(rankings, top_bottom_k)

    counts = {
        "researchers": len(corpus.researchers),
        "publications": len(corpus.pub_ids),
        "baseline_only_publications": len(corpus.pub_ids) - summary.overall.n_publications,
        "authorships": len(corpus.link_pub),
        "citation_cells": len(cells),
        "fields": len(boards),
        "disciplines": len(discipline_rows),
    }
    for p in percentiles:
        pl = p_label(p)
        counts[f"hca_{pl}_flagged"] = len(flag_sets[p].flagged)
        counts[f"hca_{pl}_roster"] = summary.overall.hca_counts[p]
        counts[f"ts_{pl}"] = sum(b.ts_count[p] for b in boards)

    warnings = list(corpus.report.warnings)
    warnings += [f"field {board.sds}: rescaling at p={p_label(p)} used {source}"
                 for board in boards for p, source in board.rescale_provenance.items()
                 if source != RESCALE_FROM_FIELD]
    if avg_rank.truncated:
        warnings.append(
            f"average-rank lists truncated: requested {top_bottom_k}, have {len(boards)} fields")
    if quadrant.ambiguous:
        warnings.append("fields strong at one percentile but weak at another, in neither union: "
                        + ", ".join(sorted(quadrant.ambiguous)))

    bundle = _build_bundle(
        corpus, summary, boards, discipline_rows, discipline_overall,
        rankings, correlations, quadrant, avg_rank, top_bottom_k,
    )
    return PipelineResult(
        corpus=corpus,
        flag_sets=flag_sets,
        summary=summary,
        scores=scores,
        boards=boards,
        discipline_rows=discipline_rows,
        discipline_overall=discipline_overall,
        rankings=rankings,
        correlations=correlations,
        quadrant=quadrant,
        avg_rank=avg_rank,
        bundle=bundle,
        counts=counts,
        warnings=warnings,
    )


def _per_p(percentiles, **families: Mapping[float, Any]) -> dict[str, Any]:
    """One f"{family}_{p}" entry per family and percentile, family by family."""
    return {f"{family}_{p_label(p)}": values[p]
            for family, values in families.items() for p in percentiles}


def _summary_row_dict(row, percentiles) -> dict[str, Any]:
    return {"uda": row.uda, "uda_name": row.uda_name, "n_sds": row.n_sds,
            "n_professors": row.n_professors, "n_publications": row.n_publications,
            **_per_p(percentiles, hca=row.hca_counts)}


def _discipline_row_dict(row: DisciplineScoreboard, percentiles) -> dict[str, Any]:
    out = {"uda": row.uda, "n_sds": row.n_sds, "n_professors": row.n_professors,
           "total_cost": row.total_cost}
    for p in percentiles:
        out.update({f"ts_{p_label(p)}": row.ts_count[p], f"ts_{p_label(p)}_share": row.ts_share[p]})
    return {**out, **_per_p(percentiles, fss_ts=row.fss_ts, fss_fhca=row.fss_fhca)}


def _field_row_dict(board: FieldScoreboard, percentiles) -> dict[str, Any]:
    return {"sds": board.sds, "uda": board.uda,
            **{f"n_{rank}": board.n_by_rank[rank] for rank in ("assistant", "associate", "full")},
            "n_professors": board.n_professors, "total_cost": board.total_cost,
            **_per_p(percentiles, ts=board.ts_count, fss_ts=board.fss_ts,
                     fss_fhca=board.fss_fhca),
            "fallback_flags": board.fallback_flags()}


def _build_bundle(corpus, summary, boards, discipline_rows, discipline_overall,
                  rankings, correlations, quadrant, avg_rank, top_bottom_k) -> ReportBundle:
    percentiles = list(corpus.config.sorted_percentiles)
    ids = [r.indicator_id for r in rankings]
    value_maps = {r.indicator_id: r.value_by_sds for r in rankings}
    uda_of = {b.sds: b.uda for b in boards}

    def quadrant_entries(members) -> list[dict[str, Any]]:
        entries = []
        for sds in sorted(members):
            entry: dict[str, Any] = {"sds": sds, "uda": uda_of[sds]}
            entry.update({i: value_maps[i][sds] for i in ids})
            entries.append(entry)
        return entries

    def avg_entry(entry) -> dict[str, Any]:
        out: dict[str, Any] = {"sds": entry.sds, "uda": uda_of[entry.sds],
                               "avg_rank": entry.avg_rank, "position": entry.position}
        for i in ids:
            out[f"{i}_value"] = entry.values[i]
            out[f"{i}_rank"] = entry.ranks[i]
        return out

    return ReportBundle(
        percentiles=[p_label(p) for p in percentiles],
        summary_rows=[_summary_row_dict(r, percentiles) for r in summary.rows],
        summary_overall=_summary_row_dict(summary.overall, percentiles),
        discipline_rows=[_discipline_row_dict(r, percentiles) for r in discipline_rows],
        discipline_overall=(
            _discipline_row_dict(discipline_overall, percentiles)
            if discipline_overall is not None else None
        ),
        field_rows=[_field_row_dict(b, percentiles) for b in boards],
        spearman={
            "indicator_ids": list(correlations.indicator_ids),
            "matrix": [list(line) for line in correlations.values],
        },
        quadrant={
            "medians": dict(sorted(quadrant.medians.items())),
            "strong": quadrant_entries(quadrant.strong_union),
            "weak": quadrant_entries(quadrant.weak_union),
            "ambiguous": sorted(quadrant.ambiguous),
        },
        avg_rank={
            "entries": [avg_entry(e) for e in avg_rank.entries],
            "truncated": avg_rank.truncated,
        },
        rankings={
            r.indicator_id: [
                {"sds": sds, "value": value, "rank": rank} for sds, value, rank in r.ranked
            ]
            for r in rankings
        },
        top_bottom_k=top_bottom_k,
    )
