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

import numpy as np

from .hca import HcaFlags
from .ingest import Corpus
from .model import CostModel, p_label, researcher_costs

RESCALE_FROM_FIELD = "field"
RESCALE_FROM_UDA = "uda_fallback"
RESCALE_FROM_NATIONAL = "national_fallback"
RESCALE_EXHAUSTED = "no_ts_anywhere"
_BLOCK = 256  # researchers per write of researcher_scores.csv


@dataclass(frozen=True)
class ScoreTable:
    """Every roster researcher's scores as columns, one row per roster row
    of the corpus, so in (sds, researcher_id) order.

    researcher_ids, sds_codes and field_start are the corpus's own: field f
    is sds_codes[f] and holds rows field_start[f]:field_start[f + 1].
    fhca[i, j] is row i's fractional HCA score at percentiles[j]; output[i]
    its total fractional output, cost[i] its cost over the active years,
    and rank[i] the index into RANKS of its rank in its last active year.
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


def score_researchers(corpus: Corpus, flags: HcaFlags, cost_model: CostModel) -> ScoreTable:
    """Fractional HCA score per percentile plus total fractional output,
    cost and latest rank, for every roster researcher (zero scorers
    included), in the corpus's roster order.

    Every score is one np.bincount of 1/author_count over the authorship
    links, which come sorted by pub_id: bincount adds in input order, so
    each researcher's shares are added in ascending pub_id order at every
    percentile.
    """
    share = 1.0 / corpus.author_count[corpus.link_pub]
    rank = corpus.rank
    # each row's latest rank is the one in its last active year column
    last_active = np.where(rank >= 0, np.arange(rank.shape[1]), -1).max(axis=1, initial=-1)

    def per_researcher(weights: np.ndarray) -> np.ndarray:
        return np.bincount(corpus.link_researcher, weights=weights,
                           minlength=len(corpus.researcher_ids))

    return ScoreTable(
        researcher_ids=corpus.researcher_ids,
        sds_codes=corpus.sds_codes,
        field_start=corpus.field_start,
        percentiles=flags.percentiles,
        fhca=np.column_stack([per_researcher(share * hit[corpus.link_pub]) for hit in flags.hit.T]),
        output=per_researcher(share),
        cost=researcher_costs(rank, cost_model),
        rank=rank[np.arange(len(rank)), last_active],
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


def ts_output_means(table: ScoreTable, is_ts: np.ndarray, field_uda: np.ndarray, n_udas: int,
                    use_uda: bool) -> tuple[np.ndarray, np.ndarray]:
    """Mean fractional publication output of the top scientists of each
    field f (of discipline code field_uda[f], one of n_udas) and its
    provenance, per (field, percentile).

    A field without a top scientist at p takes the pooled mean of its
    discipline's top scientists (when use_uda), then the national pool;
    (0.0, "no_ts_anywhere") when every pool is empty. Each pool adds its
    top scientists' outputs in row order.
    """
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
        uda_mean = pooled_mean(field_uda[field], n_udas)[field_uda]
        fallbacks.insert(0, (uda_mean, RESCALE_FROM_UDA))
    for pool_mean, pool in fallbacks:  # each pool fills the means still empty
        empty = np.isnan(mean)
        mean = np.where(empty, pool_mean, mean)
        source[empty] = pool
    return mean, source


class _Line:
    write = staticmethod(str)  # a csv.writer target: writerow returns the line it writes


def write_researcher_scores_csv(table: ScoreTable, is_ts: np.ndarray, path: Path) -> int:
    """Export one row per (researcher, percentile) with the TS verdict,
    rows in table order; is_ts holds the (row x percentile) verdicts.

    Written by column, a block of researchers at a time, in the bytes of a
    csv.writer row per (researcher, percentile): csv.writer quotes each
    "id,sds," prefix, and each distinct float bit pattern of a block gets one repr.
    """
    quote = csv.writer(_Line(), lineterminator="\n").writerow
    labels = np.array([f"{p_label(p)}," for p in table.percentiles], dtype=object)
    verdicts = np.array(["false\n", "true\n"], dtype=object)
    sds = [table.sds_codes[f] for f in table.field.tolist()]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(quote(["researcher_id", "sds", "p", "fhca_score", "frac_pub_output", "is_ts"]))
        for start in range(0, len(sds), _BLOCK):
            rows = slice(start, start + _BLOCK)
            prefix = [quote((researcher_id, sds_code, ""))[:-1]
                      for researcher_id, sds_code in zip(table.researcher_ids[rows], sds[rows])]
            floats = np.concatenate((table.fhca[rows].ravel(), table.output[rows]))
            bits, code = np.unique(floats.view(np.int64), return_inverse=True)
            text = np.array([f"{v!r}," for v in bits.view(np.float64).tolist()], dtype=object)[code]
            m = len(prefix)
            columns = (np.array(prefix, dtype=object)[:, None], labels,
                       text[:-m].reshape(m, len(labels)), text[-m:, None],
                       verdicts[is_ts[rows].astype(np.intp)])
            handle.write("".join(np.stack(np.broadcast_arrays(*columns), axis=-1).ravel().tolist()))
    return len(sds) * len(labels)
