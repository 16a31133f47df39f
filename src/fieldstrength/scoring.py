"""Per-researcher fractional scores and outlier-based top-scientist detection.

A researcher's score at percentile p is the sum of 1/author_count over
their highly cited articles; top scientists are the researchers whose
score strictly exceeds the Tukey fence (q3 + multiplier * iqr) of their
field's full score distribution, zero scorers included.

Every float total is added one value at a time in row order
(np.bincount), never pairwise (np.sum) or compensated (the builtin sum
since Python 3.12), so the output has the same bits on every Python.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .hca import HcaFlagSet
from .ingest import Corpus
from .model import RANKS, CostModel, p_label, researcher_costs

RESCALE_FROM_FIELD = "field"
RESCALE_FROM_UDA = "uda_fallback"
RESCALE_FROM_NATIONAL = "national_fallback"
RESCALE_EXHAUSTED = "no_ts_anywhere"


@dataclass(frozen=True)
class ScoreTable:
    """Every roster researcher's scores as columns, one row per researcher
    in (sds, researcher_id) order.

    Field f is sds_codes[f] (sorted, each with at least one professor) and
    holds rows field_start[f]:field_start[f + 1]. fhca[i, j] is row i's
    fractional HCA score at percentiles[j]; output[i] its total fractional
    output, cost[i] its cost over the active years, and rank[i] the index
    into RANKS of its latest rank.
    """

    researcher_ids: tuple[str, ...]
    sds_codes: tuple[str, ...]
    field_start: np.ndarray
    percentiles: tuple[float, ...]
    fhca: np.ndarray
    output: np.ndarray
    cost: np.ndarray
    rank: np.ndarray

    @property
    def field(self) -> np.ndarray:
        """The field index of every row."""
        return np.repeat(np.arange(len(self.sds_codes)), np.diff(self.field_start))


def score_researchers(corpus: Corpus, flag_sets: Mapping[float, HcaFlagSet],
                      cost_model: CostModel) -> ScoreTable:
    """Fractional HCA score per percentile plus total fractional output,
    cost and latest rank, for every roster researcher (zero scorers
    included).

    Every score is one np.bincount of 1/author_count over the authorship
    links, which come sorted by pub_id: bincount adds in input order, so
    each researcher's shares are added in ascending pub_id order at every
    percentile.
    """
    percentiles = tuple(sorted(flag_sets))
    records = list(corpus.researchers.values())
    sds_codes = sorted({r.sds for r in records})
    code = {sds: f for f, sds in enumerate(sds_codes)}
    field = np.array([code[r.sds] for r in records], dtype=np.intp)
    order = np.argsort(field, kind="stable")  # researcher rows are in researcher_id order
    records = [records[i] for i in order.tolist()]
    share = 1.0 / corpus.author_count[corpus.link_pub]

    def per_researcher(weights: np.ndarray) -> np.ndarray:
        return np.bincount(corpus.link_researcher, weights=weights,
                           minlength=len(records))[order]

    return ScoreTable(
        researcher_ids=tuple(r.researcher_id for r in records),
        sds_codes=tuple(sds_codes),
        field_start=np.concatenate(([0], np.cumsum(np.bincount(field, minlength=len(sds_codes))))),
        percentiles=percentiles,
        fhca=np.column_stack([per_researcher(share * flag_sets[p].hit[corpus.link_pub])
                              for p in percentiles]),
        output=per_researcher(share),
        cost=researcher_costs(records, cost_model),
        rank=np.array([RANKS.index(r.latest_rank) for r in records], dtype=np.intp),
    )


def group_sums(group: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """Column sums of the (row x column) values over the rows of each group,
    as an (n_groups x column) matrix. Each sum adds its rows one at a time in
    row order, starting from 0.0, as np.bincount does."""
    n_columns = values.shape[1]
    index = group[:, None] * n_columns + np.arange(n_columns)
    return np.bincount(index.ravel(), weights=values.ravel(),
                       minlength=n_groups * n_columns).reshape(n_groups, n_columns)


def detect_top_scientists(table: ScoreTable,
                          multiplier: float = 1.5) -> tuple[np.ndarray, np.ndarray]:
    """The Tukey fence threshold of every (field, percentile), and whether
    each (row, percentile) score strictly exceeds its field's threshold.

    Each field's fences come from one quantile call over its rows, with
    linearly interpolated quartiles at positions (n-1)*q (numpy's "linear"
    method, which the brute-force oracle pins). The fence is a property of
    the field's whole distribution, non-producers included. With a
    degenerate all-equal distribution the fence equals the common value and
    nobody is an outlier.
    """
    threshold = np.empty((len(table.sds_codes), len(table.percentiles)))
    bounds = table.field_start.tolist()
    for f, (start, end) in enumerate(zip(bounds, bounds[1:])):
        if start == end:
            raise ValueError(f"field {table.sds_codes[f]} has no professors")
        q1, q3 = np.quantile(table.fhca[start:end], [0.25, 0.75], axis=0, method="linear")
        threshold[f] = q3 + multiplier * (q3 - q1)
    return threshold, table.fhca > threshold[table.field]


def ts_output_means(table: ScoreTable, is_ts: np.ndarray, sds_to_uda: Mapping[str, str],
                    use_uda: bool) -> tuple[np.ndarray, np.ndarray]:
    """Mean fractional publication output of each field's top scientists,
    and its provenance, per (field, percentile).

    A field without a top scientist at p takes the pooled mean of its
    discipline's top scientists (when use_uda), then the national pool;
    (0.0, "no_ts_anywhere") when every pool is empty. Each pool adds its
    top scientists' outputs in row order.
    """
    udas = sorted({sds_to_uda[sds] for sds in table.sds_codes})
    uda_of_field = np.array([udas.index(sds_to_uda[sds]) for sds in table.sds_codes],
                            dtype=np.intp)
    field = table.field
    ts_output = table.output[:, None] * is_ts  # 0.0 off the top scientists, and x + 0.0 == x

    def pooled_mean(group: np.ndarray, n_groups: int) -> np.ndarray:
        with np.errstate(invalid="ignore"):  # an empty pool's mean is nan
            return group_sums(group, ts_output, n_groups) / group_sums(group, is_ts, n_groups)

    mean = pooled_mean(field, len(table.sds_codes))
    source = np.full(mean.shape, RESCALE_FROM_FIELD, dtype=object)
    fallbacks = [(pooled_mean(np.zeros_like(field), 1), RESCALE_FROM_NATIONAL),
                 (0.0, RESCALE_EXHAUSTED)]
    if use_uda:
        uda_mean = pooled_mean(uda_of_field[field], len(udas))[uda_of_field]
        fallbacks.insert(0, (uda_mean, RESCALE_FROM_UDA))
    for pool_mean, pool in fallbacks:  # each pool fills the means still empty
        empty = np.isnan(mean)
        mean = np.where(empty, pool_mean, mean)
        source[empty] = pool
    return mean, source


def write_researcher_scores_csv(table: ScoreTable, is_ts: np.ndarray, path: Path) -> int:
    """Export one row per (researcher, percentile) with the TS verdict,
    rows in table order; is_ts holds the (row x percentile) verdicts."""
    labels = [p_label(p) for p in table.percentiles]
    sds = [table.sds_codes[f] for f in table.field.tolist()]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["researcher_id", "sds", "p", "fhca_score", "frac_pub_output", "is_ts"])
        columns = (table.researcher_ids, sds, table.fhca.tolist(), table.output.tolist(),
                   is_ts.tolist())
        for researcher_id, field_sds, scores, output, ts in zip(*columns):
            writer.writerows([researcher_id, field_sds, label, repr(score), repr(output),
                              "true" if flag else "false"]
                             for label, score, flag in zip(labels, scores, ts))
    return len(table.researcher_ids) * len(labels)
