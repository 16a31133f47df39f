"""End-to-end computation: corpus -> flags -> scores -> scoreboards -> analytics.

Pure compute; all file writing stays in the cli layer so the pipeline
can be exercised and compared in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
from .reporting import ReportBundle
from .scoring import (RESCALE_EXHAUSTED, RESCALE_FROM_NATIONAL, RESCALE_FROM_UDA, ScoreTable,
                      score_researchers)


@dataclass
class PipelineResult:
    corpus: Corpus
    flags: HcaFlags
    summary_rows: SummaryTable
    summary_overall: SummaryTable
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
    summary_rows, summary_overall = corpus_summary(corpus, flags)
    scores = score_researchers(corpus, flags, cost_model)
    fields = build_field_scoreboards(corpus, scores, cost_model)
    disciplines = build_discipline_scoreboards(fields) if len(fields) else None
    discipline_rows, discipline_overall = disciplines or (None, None)

    rankings = [rank_indicator(fields, family, p)
                for family in ("fss_ts", "fss_fhca") for p in percentiles]
    correlations = correlation_matrix(rankings)
    quadrant = quadrant_classify(fields)
    avg_rank = average_rank_extremes(rankings)

    counts = {
        "researchers": len(corpus.researcher_ids),
        "publications": len(corpus.pub_ids),
        "baseline_only_publications": len(corpus.pub_ids) - summary_overall.n_publications.item(),
        "authorships": len(corpus.link_pub),
        "citation_cells": len(cells),
        "fields": len(fields),
        "disciplines": len(discipline_rows or ()),
    }
    for j, p in enumerate(percentiles):
        pl = p_label(p)
        counts[f"hca_{pl}_flagged"] = int(flags.hit[:, j].sum())
        counts[f"hca_{pl}_roster"] = summary_overall.hca_count[0, j].item()
        counts[f"ts_{pl}"] = fields.ts_count[:, j].sum().item()

    warnings = list(corpus.report.warnings)
    for p, sources in zip(percentiles, fields.provenance.T):
        for source in (RESCALE_FROM_UDA, RESCALE_FROM_NATIONAL, RESCALE_EXHAUSTED):  # chain order
            if n := int((sources == source).sum()):
                warnings.append(f"rescaling at p={p_label(p)} used {source} for {n} of "
                                f"{len(fields)} fields (see fallback_flags)")
    if top_bottom_k > len(fields):
        warnings.append(
            f"average-rank lists truncated: requested {top_bottom_k}, have {len(fields)} fields")
    if quadrant.ambiguous:
        warnings.append("fields strong at one percentile but weak at another, in neither union: "
                        + ", ".join(sorted(quadrant.ambiguous)))

    bundle = ReportBundle.from_tables((summary_rows, summary_overall), fields, disciplines,
                                      correlations, quadrant, top_bottom_k)
    return PipelineResult(
        corpus=corpus,
        flags=flags,
        summary_rows=summary_rows,
        summary_overall=summary_overall,
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

