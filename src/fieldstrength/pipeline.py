"""End-to-end computation: corpus -> flags -> scores -> scoreboards -> analytics.

Pure compute; all file writing stays in the cli layer so the pipeline
can be exercised and compared in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

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
from .hca import HcaFlags, SummaryTable, build_cells, corpus_summary, flag_hcas
from .indicators import (
    DisciplineTable,
    FieldTable,
    build_discipline_scoreboards,
    build_field_scoreboards,
)
from .ingest import Corpus
from .model import RANKS, CostModel, OutputOptions, p_label
from .reporting import ReportBundle
from .scoring import (RESCALE_EXHAUSTED, RESCALE_FROM_NATIONAL, RESCALE_FROM_UDA, ScoreTable,
                      score_researchers)


@dataclass
class PipelineResult:
    corpus: Corpus
    flags: HcaFlags
    summary: SummaryTable
    scores: ScoreTable
    fields: FieldTable
    discipline_rows: Optional[DisciplineTable]  # both None without fields
    discipline_overall: Optional[DisciplineTable]
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
    flags = flag_hcas(cells, percentiles)
    summary = corpus_summary(corpus, flags)
    scores = score_researchers(corpus, flags, cost_model)
    fields = build_field_scoreboards(corpus, scores, cost_model)
    if len(fields):
        discipline_rows, discipline_overall = build_discipline_scoreboards(fields)
    else:
        discipline_rows, discipline_overall = None, None

    rankings = [rank_indicator(fields, family, p)
                for family in ("fss_ts", "fss_fhca") for p in percentiles]
    correlations = correlation_matrix(rankings)
    quadrant = quadrant_classify(fields)
    avg_rank = average_rank_extremes(rankings, top_bottom_k)

    counts = {
        "researchers": len(corpus.researcher_ids),
        "publications": len(corpus.pub_ids),
        "baseline_only_publications": len(corpus.pub_ids) - summary.overall.n_publications,
        "authorships": len(corpus.link_pub),
        "citation_cells": len(cells),
        "fields": len(fields),
        "disciplines": len(discipline_rows or ()),
    }
    for j, (p, n_ts) in enumerate(zip(percentiles, fields.ts_count.sum(axis=0).tolist())):
        pl = p_label(p)
        counts[f"hca_{pl}_flagged"] = int(flags.hit[:, j].sum())
        counts[f"hca_{pl}_roster"] = summary.overall.hca_counts[p]
        counts[f"ts_{pl}"] = n_ts

    warnings = list(corpus.report.warnings)
    for p, sources in zip(percentiles, fields.provenance.T):
        for source in (RESCALE_FROM_UDA, RESCALE_FROM_NATIONAL, RESCALE_EXHAUSTED):  # chain order
            if n := int((sources == source).sum()):
                warnings.append(f"rescaling at p={p_label(p)} used {source} for {n} of "
                                f"{len(fields)} fields (see fallback_flags)")
    if avg_rank.truncated:
        warnings.append(
            f"average-rank lists truncated: requested {top_bottom_k}, have {len(fields)} fields")
    if quadrant.ambiguous:
        warnings.append("fields strong at one percentile but weak at another, in neither union: "
                        + ", ".join(sorted(quadrant.ambiguous)))

    bundle = _build_bundle(corpus, summary, fields, discipline_rows, discipline_overall,
                           correlations, quadrant, top_bottom_k)
    return PipelineResult(
        corpus=corpus,
        flags=flags,
        summary=summary,
        scores=scores,
        fields=fields,
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


def _per_p(percentiles, **families: Sequence[Any]) -> dict[str, Any]:
    """One f"{family}_{p}" entry per family and percentile, family by family;
    each family holds one value per percentile."""
    return {f"{family}_{p_label(p)}": value
            for family, values in families.items() for p, value in zip(percentiles, values)}


def _summary_row_dict(row, percentiles) -> dict[str, Any]:
    return {"uda": row.uda, "uda_name": row.uda_name, "n_sds": row.n_sds,
            "n_professors": row.n_professors, "n_publications": row.n_publications,
            **_per_p(percentiles, hca=[row.hca_counts[p] for p in percentiles])}


def _discipline_rows(table: DisciplineTable, percentiles) -> list[dict[str, Any]]:
    rows = []
    for row in zip(table.uda, table.n_sds.tolist(), table.n_professors.tolist(),
                   table.total_cost.tolist(), table.ts_count.tolist(), table.ts_share.tolist(),
                   table.fss_ts.tolist(), table.fss_fhca.tolist()):
        uda, n_sds, n_professors, total_cost, ts_count, ts_share, fss_ts, fss_fhca = row
        out = {"uda": uda, "n_sds": n_sds, "n_professors": n_professors, "total_cost": total_cost}
        for p, count, share in zip(percentiles, ts_count, ts_share):
            out.update({f"ts_{p_label(p)}": count, f"ts_{p_label(p)}_share": share})
        rows.append({**out, **_per_p(percentiles, fss_ts=fss_ts, fss_fhca=fss_fhca)})
    return rows


def _field_rows(fields: FieldTable) -> list[dict[str, Any]]:
    rows = []
    for row in zip(fields.sds_codes, fields.uda, fields.n_by_rank.tolist(),
                   fields.n_professors.tolist(), fields.total_cost.tolist(),
                   fields.ts_count.tolist(), fields.fss_ts.tolist(), fields.fss_fhca.tolist(),
                   fields.fallback_flags()):
        sds, uda, n_by_rank, n_professors, total_cost, ts, fss_ts, fss_fhca, flags = row
        rows.append({"sds": sds, "uda": uda,
                     **{f"n_{rank}": n for rank, n in zip(RANKS, n_by_rank)},
                     "n_professors": n_professors, "total_cost": total_cost,
                     **_per_p(fields.percentiles, ts=ts, fss_ts=fss_ts, fss_fhca=fss_fhca),
                     "fallback_flags": flags})
    return rows


def _build_bundle(corpus, summary, fields, discipline_rows, discipline_overall,
                  correlations, quadrant, top_bottom_k) -> ReportBundle:
    percentiles = list(corpus.config.sorted_percentiles)
    return ReportBundle(
        percentiles=[p_label(p) for p in percentiles],
        summary_rows=[_summary_row_dict(r, percentiles) for r in summary.rows],
        summary_overall=_summary_row_dict(summary.overall, percentiles),
        discipline_rows=(_discipline_rows(discipline_rows, percentiles)
                         if discipline_rows is not None else []),
        discipline_overall=(
            _discipline_rows(discipline_overall, percentiles)[0]
            if discipline_overall is not None else None
        ),
        field_rows=_field_rows(fields),
        spearman={
            "indicator_ids": list(correlations.indicator_ids),
            "matrix": [list(line) for line in correlations.values],
        },
        quadrant={
            "medians": dict(sorted(quadrant.medians.items())),
            "strong": sorted(quadrant.strong_union),
            "weak": sorted(quadrant.weak_union),
            "ambiguous": sorted(quadrant.ambiguous),
        },
        top_bottom_k=top_bottom_k,
    )
