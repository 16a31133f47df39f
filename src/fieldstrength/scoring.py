"""Per-researcher fractional scores and outlier-based top-scientist detection.

A researcher's score at percentile p is the sum of 1/author_count over
their highly cited articles; top scientists are the researchers whose
score strictly exceeds the Tukey fence (q3 + multiplier * iqr) of their
field's full score distribution, zero scorers included.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .hca import HcaFlagSet
from .ingest import Corpus
from .model import CostModel, p_label, researcher_cost

RESCALE_FROM_FIELD = "field"
RESCALE_FROM_UDA = "uda_fallback"
RESCALE_FROM_NATIONAL = "national_fallback"
RESCALE_EXHAUSTED = "no_ts_anywhere"


@dataclass(frozen=True)
class ResearcherScore:
    researcher_id: str
    sds: str
    fhca_score: Mapping[float, float]
    frac_pub_output: float
    cost: float


@dataclass(frozen=True)
class TukeyFence:
    q1: float
    q3: float
    iqr: float
    threshold: float


def score_researchers(corpus: Corpus, flag_sets: Mapping[float, HcaFlagSet],
                      cost_model: CostModel) -> list[ResearcherScore]:
    """Fractional HCA score per percentile plus total fractional output
    and cost, for every roster researcher (zero scorers included).

    Every sum is one np.bincount of 1/author_count over the authorship
    links, which come sorted by pub_id: bincount adds in input order, so
    each researcher's shares are added in ascending pub_id order at every
    percentile. Output is sorted by (sds, researcher_id).
    """
    percentiles = sorted(flag_sets)
    share = 1.0 / corpus.author_count[corpus.link_pub]

    def per_researcher(weights: np.ndarray) -> list[float]:
        return np.bincount(corpus.link_researcher, weights=weights,
                           minlength=len(corpus.researchers)).tolist()

    output = per_researcher(share)
    fhca = {p: per_researcher(share * flag_sets[p].hit[corpus.link_pub]) for p in percentiles}

    scores = [
        ResearcherScore(
            researcher_id=researcher.researcher_id,
            sds=researcher.sds,
            fhca_score={p: fhca[p][i] for p in percentiles},
            frac_pub_output=output[i],
            cost=researcher_cost(researcher, cost_model),
        )
        for i, researcher in enumerate(corpus.researchers.values())
    ]
    scores.sort(key=lambda s: (s.sds, s.researcher_id))
    return scores


def _fences(scores: np.ndarray, multiplier: float) -> tuple[np.ndarray, ...]:
    """(q1, q3, iqr, threshold) of every column of a 2-D score matrix."""
    q1, q3 = np.quantile(scores, [0.25, 0.75], axis=0, method="linear")
    iqr = q3 - q1
    return q1, q3, iqr, q3 + multiplier * iqr


def tukey_fence(values: Sequence[float], multiplier: float = 1.5) -> TukeyFence:
    """Outlier fence from linearly interpolated quartiles.

    Quartiles sit at position (n-1)*q in the sorted data, interpolated
    between neighbouring order statistics (numpy's default "linear"
    method); the brute-force oracle pins the same convention.
    """
    if len(values) == 0:
        raise ValueError("tukey_fence of empty sequence")
    column = np.asarray(values, dtype=float).reshape(-1, 1)
    q1, q3, iqr, threshold = (float(v[0]) for v in _fences(column, multiplier))
    return TukeyFence(q1=q1, q3=q3, iqr=iqr, threshold=threshold)


def detect_top_scientists(field_scores: Sequence[ResearcherScore], percentiles: Sequence[float],
                          multiplier: float = 1.5) -> dict[float, set[str]]:
    """Researchers of one field whose score strictly exceeds the fence,
    per percentile.

    The fences of all percentiles come from one quantile call over the
    (researcher x percentile) score matrix. field_scores must cover every
    professor of the field: the fence is a property of the whole
    distribution, non-producers included. With a degenerate all-equal
    distribution the fence equals the common value and nobody is an
    outlier.
    """
    if not field_scores:
        return {p: set() for p in percentiles}
    scores = np.array([[s.fhca_score[p] for p in percentiles] for s in field_scores],
                      dtype=float)
    threshold = _fences(scores, multiplier)[3]
    ids = [s.researcher_id for s in field_scores]
    return {p: {ids[i] for i in np.flatnonzero(scores[:, j] > threshold[j])}
            for j, p in enumerate(percentiles)}


def ts_output_means(scores_by_sds: Mapping[str, Sequence[ResearcherScore]],
                    ts_by_sds: Mapping[str, Mapping[float, set[str]]],
                    sds_to_uda: Mapping[str, str],
                    percentiles: Sequence[float],
                    use_uda: bool) -> dict[tuple[str, float], tuple[float, str]]:
    """Mean fractional publication output of each field's top scientists,
    with its provenance, per (sds, p).

    A field without a top scientist at p takes the pooled mean of its
    discipline's top scientists (when use_uda), then the national pool;
    (0.0, "no_ts_anywhere") when every pool is empty. Pools are extended
    field by field in scores_by_sds order.
    """
    own: dict[tuple[str, float], list[float]] = {}
    pooled_uda: dict[tuple[str, float], list[float]] = {}
    pooled_national: dict[float, list[float]] = {p: [] for p in percentiles}
    for sds, scores in scores_by_sds.items():
        uda = sds_to_uda[sds]
        for p in percentiles:
            ts = ts_by_sds[sds][p]
            outputs = own[sds, p] = [s.frac_pub_output for s in scores if s.researcher_id in ts]
            pooled_uda.setdefault((uda, p), []).extend(outputs)
            pooled_national[p].extend(outputs)

    def mean(values: list[float]) -> Optional[float]:
        return sum(values) / len(values) if values else None

    uda_mean = {key: mean(values) for key, values in pooled_uda.items()}
    national_mean = {p: mean(values) for p, values in pooled_national.items()}
    means = {}
    for (sds, p), outputs in own.items():
        chain = ((mean(outputs), RESCALE_FROM_FIELD),
                 (uda_mean[sds_to_uda[sds], p] if use_uda else None, RESCALE_FROM_UDA),
                 (national_mean[p], RESCALE_FROM_NATIONAL),
                 (0.0, RESCALE_EXHAUSTED))
        means[sds, p] = next(c for c in chain if c[0] is not None)
    return means


def write_researcher_scores_csv(scores: Sequence[ResearcherScore],
                                ts_ids_by_sds: Mapping[str, Mapping[float, frozenset[str]]],
                                path: Path) -> int:
    """Export one row per (researcher, percentile) with the TS verdict."""
    percentiles = sorted(scores[0].fhca_score) if scores else []
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["researcher_id", "sds", "p", "fhca_score", "frac_pub_output", "is_ts"])
        n = 0
        labels = {p: p_label(p) for p in percentiles}
        for score in scores:
            for p in percentiles:
                is_ts = score.researcher_id in ts_ids_by_sds[score.sds][p]
                writer.writerow([
                    score.researcher_id, score.sds, labels[p],
                    repr(score.fhca_score[p]), repr(score.frac_pub_output),
                    str(is_ts).lower(),
                ])
                n += 1
    return n
