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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .ingest import Corpus
from .model import FALLBACK_UDA_THEN_NATIONAL, RANKS, CostModel, p_label
from .scoring import (
    RESCALE_EXHAUSTED,
    RESCALE_FROM_FIELD,
    ScoreTable,
    detect_top_scientists,
    group_sums,
    ts_output_means,
)


def indicator_id(family: str, p: float) -> str:
    return f"{family}_{p_label(p)}"


@dataclass(frozen=True)
class FieldScoreboard:
    """Everything computed for one field (SDS). is_ts holds the TS verdict
    of each of the field's professors (score-table rows) per percentile."""

    sds: str
    uda: str
    n_professors: int
    n_by_rank: Mapping[str, int]
    total_cost: float
    ts_count: Mapping[float, int]
    fhca_total: Mapping[float, float]
    fhca_rescaled: Mapping[float, float]
    fss_ts: Mapping[float, float]
    fss_fhca: Mapping[float, float]
    rescale_provenance: Mapping[float, str]
    is_ts: np.ndarray = field(compare=False, repr=False)

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


def per_euro(amount: np.ndarray, total_cost: np.ndarray, reporting_scale: float) -> np.ndarray:
    """Top scientists or rescaled fractional HCAs per euro, scaled for
    reporting, element by element (numbers work as well as arrays)."""
    if np.any(np.less_equal(total_cost, 0)):
        raise ValueError("field with non-positive total cost")
    return reporting_scale * amount / total_cost


def build_field_scoreboards(corpus: Corpus, table: ScoreTable,
                            cost_model: CostModel) -> list[FieldScoreboard]:
    """Compute the full per-field scoreboard, sorted by SDS code.

    Every count and total is one np.bincount over the table's rows, which
    adds each field's rows in (sds, researcher_id) order.
    """
    scale = cost_model.reporting_scale
    field_of_row = table.field
    n_fields = len(table.sds_codes)

    _, is_ts = detect_top_scientists(table, corpus.config.ts_fence_multiplier)
    avg_out, provenance = ts_output_means(
        table, is_ts, corpus.taxonomy.sds_to_uda,
        use_uda=corpus.config.rescale_fallback == FALLBACK_UDA_THEN_NATIONAL,
    )
    n_by_rank = np.bincount(field_of_row * len(RANKS) + table.rank,
                            minlength=n_fields * len(RANKS)).reshape(n_fields, len(RANKS))
    total_cost = group_sums(field_of_row, table.cost[:, None], n_fields)
    fhca_total = group_sums(field_of_row, table.fhca, n_fields)
    ts_count = group_sums(field_of_row, is_ts, n_fields)
    with np.errstate(divide="ignore", invalid="ignore"):  # the masked means are 0.0
        fhca_rescaled = np.where((provenance == RESCALE_EXHAUSTED) | (fhca_total == 0.0),
                                 0.0, fhca_total / avg_out)
    bounds = table.field_start.tolist()

    def by_p(matrix: np.ndarray, f: int, kind: type = float) -> dict:
        return dict(zip(table.percentiles, matrix[f].astype(kind).tolist()))

    return [FieldScoreboard(
        sds=sds, uda=corpus.taxonomy.uda_of(sds), n_professors=bounds[f + 1] - bounds[f],
        n_by_rank=dict(zip(RANKS, n_by_rank[f].tolist())), total_cost=float(total_cost[f, 0]),
        ts_count=by_p(ts_count, f, int), fhca_total=by_p(fhca_total, f),
        fhca_rescaled=by_p(fhca_rescaled, f),
        fss_ts=by_p(per_euro(ts_count, total_cost, scale), f),
        fss_fhca=by_p(per_euro(fhca_rescaled, total_cost, scale), f),
        rescale_provenance=by_p(provenance, f, str), is_ts=is_ts[bounds[f]:bounds[f + 1]])
        for f, sds in enumerate(table.sds_codes)]


def build_discipline_scoreboards(boards: Sequence[FieldScoreboard],
                                 percentiles: Sequence[float],
                                 ) -> tuple[list[DisciplineScoreboard], DisciplineScoreboard]:
    """Per-discipline rows (sorted by UDA code) plus the overall row.

    Each indicator is the mean of the member fields' values weighted by
    field cost share, summed in board order: a convex combination, so it
    lies within the member range. Top-scientist counts are summed and
    reported as a share of the discipline's professors.
    """
    if not boards:
        raise ValueError("no fields to aggregate")
    udas = sorted({board.uda for board in boards})
    uda_of_board = np.array([udas.index(board.uda) for board in boards], dtype=np.intp)
    rows = _aggregate(udas, uda_of_board, boards, percentiles)
    [overall] = _aggregate(["ALL"], np.zeros_like(uda_of_board), boards, percentiles)
    return rows, overall


def _aggregate(names: Sequence[str], group: np.ndarray, boards: Sequence[FieldScoreboard],
               percentiles: Sequence[float]) -> list[DisciplineScoreboard]:
    """One DisciplineScoreboard per name, over the boards of its group."""
    def sums(values: list) -> np.ndarray:
        return group_sums(group, np.array(values, dtype=float), len(names))

    def per_p(attr: str) -> list[list[float]]:
        return [[getattr(b, attr)[p] for p in percentiles] for b in boards]

    cost = np.array([[b.total_cost] for b in boards])
    total_cost = sums(cost)
    weight = cost / total_cost[group]
    n_professors = sums([[b.n_professors] for b in boards])
    ts_count = sums(per_p("ts_count"))
    means = {"ts_share": 100.0 * ts_count / n_professors,
             "fss_ts": sums(weight * per_p("fss_ts")),
             "fss_fhca": sums(weight * per_p("fss_fhca"))}
    return [DisciplineScoreboard(
        uda=name, n_sds=int(np.count_nonzero(group == g)), n_professors=int(n_professors[g, 0]),
        total_cost=float(total_cost[g, 0]),
        ts_count=dict(zip(percentiles, ts_count[g].astype(int).tolist())),
        **{attr: dict(zip(percentiles, matrix[g].tolist())) for attr, matrix in means.items()})
        for g, name in enumerate(names)]


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
            row += [board.ts_count[p] for p in percentiles]
            row += [repr(board.fss_ts[p]) for p in percentiles]
            row += [repr(board.fss_fhca[p]) for p in percentiles]
            row.append(board.fallback_flags())
            writer.writerow(row)
    return len(boards)
