"""End-to-end computation: corpus -> flags -> scores -> scoreboards -> analytics.

Pure compute; all file writing stays in the cli layer so the pipeline
can be exercised and compared in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

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
from .model import CostModel, OutputOptions, p_label
from .reporting import ReportBundle, _discipline_columns, _field_columns, _summary_columns
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


def _summary_row_dict(row, percentiles, keys: list[str]) -> dict[str, Any]:
    return dict(zip(keys, (row.uda, row.uda_name, row.n_sds, row.n_professors,
                           row.n_publications, *(row.hca_counts[p] for p in percentiles))))


def _discipline_rows(table: DisciplineTable, labels: list[str]) -> list[dict[str, Any]]:
    """One dict per discipline row, keyed by its reporting columns and built
    by column as _field_rows is."""
    keys = [name for name, _ in _discipline_columns(labels)]
    columns = (table.uda, table.n_sds.tolist(), table.n_professors.tolist(),
               table.total_cost.tolist(),
               *(c.tolist() for pair in zip(table.ts_count.T, table.ts_share.T) for c in pair),
               *table.fss_ts.T.tolist(), *table.fss_fhca.T.tolist())
    return [dict(zip(keys, row)) for row in zip(*columns)]


def _field_rows(fields: FieldTable) -> list[dict[str, Any]]:
    """One dict per field, keyed by its reporting columns and built by
    column: each key is made once."""
    keys = [name for name, _ in _field_columns([p_label(p) for p in fields.percentiles])]
    columns = (fields.sds_codes, fields.uda, *fields.n_by_rank.T.tolist(),
               fields.n_professors.tolist(), fields.total_cost.tolist(),
               *fields.ts_count.T.tolist(), *fields.fss_ts.T.tolist(), *fields.fss_fhca.T.tolist(),
               fields.fallback_flags())
    return [dict(zip(keys, row)) for row in zip(*columns)]


def _build_bundle(corpus, summary, fields, discipline_rows, discipline_overall,
                  correlations, quadrant, top_bottom_k) -> ReportBundle:
    percentiles = list(corpus.config.sorted_percentiles)
    labels = [p_label(p) for p in percentiles]
    summary_keys = [name for name, _ in _summary_columns(labels, shares=False)]
    return ReportBundle(
        percentiles=labels,
        summary_rows=[_summary_row_dict(r, percentiles, summary_keys) for r in summary.rows],
        summary_overall=_summary_row_dict(summary.overall, percentiles, summary_keys),
        discipline_rows=(_discipline_rows(discipline_rows, labels)
                         if discipline_rows is not None else []),
        discipline_overall=(_discipline_rows(discipline_overall, labels)[0]
                            if discipline_overall is not None else None),
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
