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
class FieldTable:
    """The per-field scoreboard as columns, one row per field of the
    ScoreTable, in SDS order.

    Row f is field sds_codes[f] of discipline udas[field_uda[f]], coded as
    the corpus codes it. n_by_rank[f] counts its professors per RANKS entry
    and total_cost[f] is their cost. The (field x percentile) matrices hold,
    at percentiles[j], the TS count, the fractional HCA total, both
    indicators and the provenance of the TS output mean that rescales
    fss_fhca. is_ts[i, j] is the TS verdict of score-table row i at
    percentiles[j].
    """

    sds_codes: tuple[str, ...]
    udas: tuple[str, ...]
    field_uda: np.ndarray
    percentiles: tuple[float, ...]
    n_by_rank: np.ndarray
    total_cost: np.ndarray
    ts_count: np.ndarray
    fhca_total: np.ndarray
    fss_ts: np.ndarray
    fss_fhca: np.ndarray
    provenance: np.ndarray
    is_ts: np.ndarray

    def __len__(self) -> int:
        return len(self.sds_codes)

    @property
    def uda(self) -> tuple[str, ...]:
        return tuple(map(self.udas.__getitem__, self.field_uda.tolist()))

    @property
    def n_professors(self) -> np.ndarray:
        return self.n_by_rank.sum(axis=1)

    def fallback_flags(self) -> list[str]:
        """Each field's percentiles rescaled from a fallback pool, as
        "p:source" entries joined by ";"."""
        labels = [p_label(p) for p in self.percentiles]
        return [";".join(f"{label}:{source}" for label, source in zip(labels, row)
                         if source != RESCALE_FROM_FIELD)
                for row in self.provenance.tolist()]


@dataclass(frozen=True)
class DisciplineTable:
    """Expenditure-weighted aggregates of groups of fields, one row per
    group: uda[g] names the group, and the (group x percentile) matrices
    are in FieldTable's percentile order."""

    uda: tuple[str, ...]
    n_sds: np.ndarray
    n_professors: np.ndarray
    total_cost: np.ndarray
    ts_count: np.ndarray
    ts_share: np.ndarray
    fss_ts: np.ndarray
    fss_fhca: np.ndarray

    def __len__(self) -> int:
        return len(self.uda)


def per_euro(amount: np.ndarray, total_cost: np.ndarray, reporting_scale: float) -> np.ndarray:
    """Top scientists or rescaled fractional HCAs per euro, scaled for
    reporting, element by element (numbers work as well as arrays)."""
    if np.any(np.less_equal(total_cost, 0)):
        raise ValueError("field with non-positive total cost")
    return reporting_scale * amount / total_cost


def build_field_scoreboards(corpus: Corpus, table: ScoreTable,
                            cost_model: CostModel) -> FieldTable:
    """Compute the full per-field scoreboard, rows in SDS order.

    Every count and total is one np.bincount over the table's rows, which
    adds each field's rows in (sds, researcher_id) order.
    """
    scale = cost_model.reporting_scale
    field_of_row = table.field
    n_fields = len(table.sds_codes)

    _, is_ts = detect_top_scientists(table, corpus.config.ts_fence_multiplier)
    avg_out, provenance = ts_output_means(
        table, is_ts, corpus.field_uda, len(corpus.udas),
        use_uda=corpus.config.rescale_fallback == FALLBACK_UDA_THEN_NATIONAL)
    n_by_rank = np.bincount(field_of_row * len(RANKS) + table.rank,
                            minlength=n_fields * len(RANKS)).reshape(n_fields, len(RANKS))
    total_cost = group_sums(field_of_row, table.cost[:, None], n_fields)
    fhca_total = group_sums(field_of_row, table.fhca, n_fields)
    ts_count = group_sums(field_of_row, is_ts, n_fields).astype(np.intp)
    with np.errstate(divide="ignore", invalid="ignore"):  # the masked means are 0.0
        fhca_rescaled = np.where((provenance == RESCALE_EXHAUSTED) | (fhca_total == 0.0),
                                 0.0, fhca_total / avg_out)
    return FieldTable(
        sds_codes=table.sds_codes, udas=corpus.udas, field_uda=corpus.field_uda,
        percentiles=table.percentiles, n_by_rank=n_by_rank, total_cost=total_cost[:, 0],
        ts_count=ts_count, fhca_total=fhca_total,
        fss_ts=per_euro(ts_count, total_cost, scale),
        fss_fhca=per_euro(fhca_rescaled, total_cost, scale),
        provenance=provenance, is_ts=is_ts)


def build_discipline_scoreboards(fields: FieldTable) -> tuple[DisciplineTable, DisciplineTable]:
    """Per-discipline rows (sorted by UDA code) plus the overall row.

    Each indicator is the mean of the member fields' values weighted by
    field cost share, summed in field order: a convex combination, so it
    lies within the member range. Top-scientist counts are summed and
    reported as a share of the discipline's professors.
    """
    if not len(fields):
        raise ValueError("no fields to aggregate")
    return (_aggregate(fields.udas, fields.field_uda, fields),
            _aggregate(("ALL",), np.zeros_like(fields.field_uda), fields))


def _aggregate(names: tuple[str, ...], group: np.ndarray, fields: FieldTable) -> DisciplineTable:
    """One DisciplineTable row per name, over the fields of its group."""
    def sums(values: np.ndarray) -> np.ndarray:
        return group_sums(group, values, len(names))

    cost = fields.total_cost[:, None]
    total_cost = sums(cost)
    weight = cost / total_cost[group]
    n_professors = sums(fields.n_professors[:, None])
    ts_count = sums(fields.ts_count)
    return DisciplineTable(
        uda=names, n_sds=np.bincount(group, minlength=len(names)),
        n_professors=n_professors[:, 0].astype(np.intp), total_cost=total_cost[:, 0],
        ts_count=ts_count.astype(np.intp), ts_share=100.0 * ts_count / n_professors,
        fss_ts=sums(weight * fields.fss_ts), fss_fhca=sums(weight * fields.fss_fhca))


def write_scoreboard_csv(fields: FieldTable, path: Path) -> int:
    """Full-precision per-field scoreboard export."""
    labels = [p_label(p) for p in fields.percentiles]
    header = ["sds", "uda", "n_professors", "total_cost"]
    header += [f"ts_{pl}" for pl in labels]
    header += [f"fss_ts_{pl}" for pl in labels]
    header += [f"fss_fhca_{pl}" for pl in labels]
    header.append("fallback_flags")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in zip(fields.sds_codes, fields.uda, fields.n_professors.tolist(),
                       fields.total_cost.tolist(), fields.ts_count.tolist(),
                       fields.fss_ts.tolist(), fields.fss_fhca.tolist(), fields.fallback_flags()):
            sds, uda, n_professors, total_cost, ts_count, fss_ts, fss_fhca, flags = row
            writer.writerow([sds, uda, n_professors, repr(total_cost), *ts_count,
                             *map(repr, fss_ts), *map(repr, fss_fhca), flags])
    return len(fields)
