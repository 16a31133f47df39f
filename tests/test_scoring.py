from __future__ import annotations

import csv
import random
from dataclasses import replace

import numpy as np
import pytest

from conftest import flagged_ids, mk_corpus, mk_table
from fieldstrength import scoring
from fieldstrength.hca import build_cells, flag_hcas
from fieldstrength.model import AnalysisConfig, CostModel, p_label
from fieldstrength.oracles import oracle_quartiles
from fieldstrength.scoring import (
    RESCALE_EXHAUSTED,
    RESCALE_FROM_FIELD,
    RESCALE_FROM_NATIONAL,
    RESCALE_FROM_UDA,
    detect_top_scientists,
    score_researchers,
    ts_output_means,
    write_researcher_scores_csv,
)

YEARS = {2012: "assistant", 2013: "assistant", 2014: "assistant"}


def scored_corpus():
    # r1 authors two highly cited articles (2 and 4 authors) plus a low one;
    # r2 co-authors one of them; 40 padding articles keep the cell honest.
    researchers = [("r1", "S1", YEARS), ("r2", "S1", YEARS)]
    pubs = [
        ("hc1", 2012, 900, 2, ["A"]),
        ("hc2", 2012, 800, 4, ["A"]),
        ("low", 2012, 0, 5, ["A"]),
    ]
    links = [("hc1", "r1"), ("hc1", "r2"), ("hc2", "r1"), ("low", "r1")]
    for i in range(40):
        pubs.append((f"pad{i}", 2012, i, 3, ["A"]))
    return mk_corpus(researchers, pubs, links, {"S1": "U1"})


def one_field(scores):
    """Field S1 whose professors score the given values at p = 5."""
    return mk_table({"S1": [[v] for v in scores]}, [5.0])


def threshold_of(scores, multiplier: float) -> float:
    """The fence threshold of one field with the given scores; at
    multiplier 0 it is the field's q3."""
    threshold, _ = detect_top_scientists(one_field(scores), multiplier)
    return float(threshold[0, 0])


def ts_ids(table, multiplier: float = 1.5) -> set[str]:
    """The researchers that are top scientists at the table's first percentile."""
    _, is_ts = detect_top_scientists(table, multiplier)
    return {table.researcher_ids[i] for i in np.flatnonzero(is_ts[:, 0])}


def test_score_researchers_fractional_sums():
    corpus = scored_corpus()
    flags = flag_hcas(build_cells(corpus), (5.0, 10.0))
    assert flagged_ids(flags, 5.0) >= {"hc1", "hc2"}
    table = score_researchers(corpus, flags, CostModel())
    r1, r2 = table.researcher_ids.index("r1"), table.researcher_ids.index("r2")

    assert table.fhca[r1, 0] == pytest.approx(0.5 + 0.25)
    assert table.output[r1] == pytest.approx(0.5 + 0.25 + 0.2)
    # co-author gains their own half; the pair together carries the whole article
    assert table.fhca[r2, 0] == pytest.approx(0.5)
    assert table.cost[r1] == 3 * 70007.0


def test_zero_hca_researcher_scores_zero():
    corpus = scored_corpus()
    flags = flag_hcas(build_cells(corpus), (5.0, 10.0))
    table = score_researchers(corpus, flags, CostModel())
    assert table.percentiles == (5.0, 10.0)
    assert (table.fhca[:, 0] <= table.fhca[:, 1]).all()
    assert (table.fhca[:, 0] <= table.output).all()


def test_tukey_fence_all_zero():
    assert threshold_of([0.0, 0.0, 0.0, 0.0], 0.0) == threshold_of([0.0] * 4, 1.5) == 0.0


def test_tukey_fence_interpolated_example():
    # nine values: quartile positions (9-1)*0.25 = 2 and (9-1)*0.75 = 6
    values = [1, 2, 3, 4, 5, 6, 7, 8, 100]
    q3 = threshold_of(values, 0.0)
    assert q3 == 7.0
    assert 2 * q3 - threshold_of(values, 1.0) == 3.0  # q1
    assert threshold_of(values, 1.5) == 13.0
    assert 100 > threshold_of(values, 1.5)


def test_tukey_fence_sparse_fields():
    # exactly 75% zeros: q3 interpolates a quarter of the way to the
    # first positive value (positions 74..75 straddle the boundary)
    values = [0.0] * 75 + [5.0] * 25
    q1, q3 = oracle_quartiles(values)
    assert threshold_of(values, 0.0) == q3 == pytest.approx(1.25)
    assert threshold_of(values, 1.5) == q3 + 1.5 * (q3 - q1)
    # strictly more than 75% zeros: the fence collapses to zero and any
    # positive scorer is an outlier
    values = [0.0] * 76 + [5.0] * 24
    assert oracle_quartiles(values) == (0.0, 0.0)
    assert threshold_of(values, 1.5) == 0.0


def test_tukey_fence_matches_oracle_on_random_vectors():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 500)
        if rng.random() < 0.5:
            values = [rng.randint(0, 5) for _ in range(n)]  # heavy ties
        else:
            values = [rng.uniform(-100, 100) for _ in range(n)]
        q1, q3 = oracle_quartiles(values)
        assert threshold_of(values, 0.0) == pytest.approx(q3, abs=1e-12)
        assert threshold_of(values, 1.5) == pytest.approx(q3 + 1.5 * (q3 - q1), abs=1e-12)


def test_tukey_fence_empty_rejected():
    # a field without professors has no distribution to fence
    table = mk_table({"S1": [[1.0]], "S2": []}, [5.0])
    with pytest.raises(ValueError, match="S2"):
        detect_top_scientists(table, 1.5)


def test_detect_top_scientists_strictness():
    assert ts_ids(one_field([0.0] * 10)) == set()
    assert ts_ids(one_field([2.5] * 10)) == set()


def test_detect_top_scientists_sparse_field():
    table = one_field([0.0] * 96 + [0.2])
    assert ts_ids(table) == {table.researcher_ids[-1]}


def test_positive_scaling_leaves_ts_set_unchanged():
    rng = random.Random(23)
    table = one_field([rng.expovariate(2.0) if rng.random() < 0.4 else 0.0 for _ in range(120)])
    base = ts_ids(table)
    threshold, _ = detect_top_scientists(table, 1.5)
    for c in (0.1, 3.0, 1e6):
        scaled = replace(table, fhca=c * table.fhca)
        assert ts_ids(scaled) == base
        scaled_threshold, _ = detect_top_scientists(scaled, 1.5)
        assert scaled_threshold[0, 0] == pytest.approx(c * threshold[0, 0], rel=1e-9)


def test_each_field_fence_is_the_quantile_of_that_field_alone():
    rng = random.Random(31)
    sizes = {"S1": 7, "S2": 23}
    scores = {sds: [[rng.choice([0.0, 0.25, 1 / 3, rng.uniform(0, 5)]) for _ in SWEEP[:3]]
                    for _ in range(n)] for sds, n in sizes.items()}
    table = mk_table(scores, SWEEP[:3])
    threshold, is_ts = detect_top_scientists(table, 1.5)
    for f, sds in enumerate(table.sds_codes):
        alone = np.array(scores[sds])
        q1, q3 = np.quantile(alone, [0.25, 0.75], axis=0)
        assert threshold[f].tolist() == (q3 + 1.5 * (q3 - q1)).tolist()
        rows = slice(table.field_start[f], table.field_start[f + 1])
        assert (is_ts[rows] == (alone > q3 + 1.5 * (q3 - q1))).all()


def _mean_of(field, ts, others=(), use_uda=True):
    """ts_output_means of field S1 (discipline U1) at p=5: its professors
    have the outputs in field, and ts says which are top scientists. Next
    to it lie the (sds, uda, output) fields of one top scientist each."""
    outputs, flags, sds_to_uda = {"S1": list(field)}, {"S1": list(ts)}, {"S1": "U1"}
    for sds, uda, output in others:
        outputs[sds], flags[sds], sds_to_uda[sds] = [output], [True], uda
    table = mk_table({sds: [[0.0]] * len(v) for sds, v in outputs.items()}, [5.0], outputs)
    is_ts = np.array([[flag] for sds in table.sds_codes for flag in flags[sds]], dtype=bool)
    udas, field_uda = np.unique(np.array([sds_to_uda[sds] for sds in table.sds_codes],
                                         dtype=object), return_inverse=True)
    mean, source = ts_output_means(table, is_ts, field_uda, len(udas), use_uda)
    return mean[0, 0], source[0, 0]  # S1 is the table's first field


def test_avg_ts_output_direct():
    value, source = _mean_of([3.4, 9.9], [True, False])
    assert (value, source) == (3.4, RESCALE_FROM_FIELD)

    value, _ = _mean_of([3.4, 9.9, 2.0], [True, False, True])
    assert value == pytest.approx((3.4 + 2.0) / 2)


def test_avg_ts_output_fallback_chain():
    value, source = _mean_of([1.0], [False], [("S2", "U1", 2.5)])
    assert (value, source) == (2.5, RESCALE_FROM_UDA)

    value, source = _mean_of([1.0], [False], [("S3", "U2", 4.0)])
    assert (value, source) == (4.0, RESCALE_FROM_NATIONAL)

    # national-only mode skips the discipline pool (national mean (2.5 + 5.5) / 2)
    value, source = _mean_of([1.0], [False], [("S2", "U1", 2.5), ("S3", "U2", 5.5)],
                             use_uda=False)
    assert (value, source) == (4.0, RESCALE_FROM_NATIONAL)

    value, source = _mean_of([1.0], [False])
    assert (value, source) == (0.0, RESCALE_EXHAUSTED)


def test_fractional_conservation(default_corpus):
    corpus = default_corpus
    roster_share = np.bincount(corpus.link_pub, weights=1.0 / corpus.author_count[corpus.link_pub],
                               minlength=len(corpus.pub_ids))
    assert roster_share.max() <= 1.0 + 1e-12


def test_min_years_config_respected():
    cfg = AnalysisConfig(min_years=2)
    corpus = mk_corpus([("r1", "S1", {2012: "full", 2013: "full"})], [], [], {"S1": "U1"}, cfg)
    flags = flag_hcas(build_cells(corpus), [5.0, 10.0])
    table = score_researchers(corpus, flags, CostModel())
    assert table.researcher_ids == ("r1",) and table.output.tolist() == [0.0]


SWEEP = [0.5 * i for i in range(1, 21)]


def test_batched_fences_equal_one_tukey_fence_per_percentile():
    rng = random.Random(23)
    for _ in range(60):
        rows = [[rng.choice([0.0, 0.0, 0.25, 1 / 3, 0.5, rng.uniform(0, 5)]) for _ in SWEEP]
                for _ in range(rng.randint(1, 40))]
        multiplier = rng.choice([0.0, 1.5, 3.0])
        threshold, is_ts = detect_top_scientists(mk_table({"S1": rows}, SWEEP), multiplier)
        for j, p in enumerate(SWEEP):
            one_threshold, one_is_ts = detect_top_scientists(
                mk_table({"S1": [[row[j]] for row in rows]}, [p]), multiplier)
            assert threshold[0, j] == one_threshold[0, 0]
            assert (is_ts[:, j] == one_is_ts[:, 0]).all()


def test_fhca_scores_equal_a_naive_per_link_loop():
    rng = random.Random(29)
    for _ in range(10):
        researchers = [(f"r{i:02d}", f"S{i % 3}", YEARS) for i in range(15)]
        pubs, links = [], []
        for j in range(120):
            n_authors = rng.randint(1, 9)
            pubs.append((f"p{j:03d}", rng.choice((2012, 2013, 2014)), rng.randint(0, 5),
                         n_authors, rng.sample("ABC", rng.randint(1, 2))))
            for researcher_id, _, _ in rng.sample(researchers, rng.randint(0, min(n_authors, 4))):
                links.append((f"p{j:03d}", researcher_id))
        corpus = mk_corpus(researchers, pubs, links, {"S0": "U1", "S1": "U1", "S2": "U2"})
        flags = flag_hcas(build_cells(corpus), SWEEP)
        flagged = {p: flagged_ids(flags, p) for p in SWEEP}

        author_count = {pub[0]: pub[3] for pub in pubs}
        fhca = {r: dict.fromkeys(SWEEP, 0.0) for r in corpus.researcher_ids}
        output = dict.fromkeys(corpus.researcher_ids, 0.0)
        for pub_id, researcher_id in sorted(links):  # ascending pub_id
            share = 1.0 / author_count[pub_id]
            output[researcher_id] += share
            for p in SWEEP:
                if pub_id in flagged[p]:
                    fhca[researcher_id][p] += share

        table = score_researchers(corpus, flags, CostModel())
        sds_of_row = [table.sds_codes[f] for f in table.field.tolist()]
        assert list(zip(sds_of_row, table.researcher_ids)) == sorted(
            (sds, rid) for rid, sds, _ in researchers)
        assert table.fhca.dtype == np.float64
        for rid, scores, out in zip(table.researcher_ids, table.fhca.tolist(),
                                    table.output.tolist()):
            assert dict(zip(SWEEP, scores)) == fhca[rid]
            assert out == output[rid]


def row_writer_researcher_scores_csv(table, is_ts, path) -> None:
    """The reference: one csv.writer row per (researcher, percentile), with
    repr of each float."""
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


def test_researcher_scores_csv_matches_the_row_writer(tmp_path, monkeypatch):
    """Ids and SDS codes with a comma, a double quote and a non-ASCII letter,
    tied and inexact scores and both zeros: the column writer writes the row
    writer's bytes at any block size, and every score reads back to its bits."""
    rng = random.Random(61)
    scores = [1 / 3 + 1 / 3, 1 / 3 + 1 / 3, 0.1 + 0.2, 0.3, 0.0, -0.0, 5e-324, 1e300, 1.0]
    percentiles = [2.5, 5.0, 10.0]
    fhca = {sds: [rng.choices(scores, k=len(percentiles)) for _ in range(rng.randint(1, 5))]
            for sds in ('A,"é', 'B "q"', "C", "Ω,1")}
    table = mk_table(fhca, percentiles,
                     {sds: rng.choices(scores, k=len(rows)) for sds, rows in fhca.items()})
    n = len(table.researcher_ids)
    is_ts = np.array([[rng.random() < 0.3 for _ in percentiles] for _ in range(n)])
    row_writer_researcher_scores_csv(table, is_ts, tmp_path / "rows.csv")
    expected = (tmp_path / "rows.csv").read_bytes()
    path = tmp_path / "columns.csv"
    for block in (1, 2, 3, scoring._BLOCK):
        monkeypatch.setattr(scoring, "_BLOCK", block)
        assert write_researcher_scores_csv(table, is_ts, path) == n * len(percentiles)
        assert path.read_bytes() == expected

    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    assert [row[0] for row in rows[::len(percentiles)]] == list(table.researcher_ids)
    assert [float(row[3]).hex() for row in rows] == [v.hex() for v in table.fhca.ravel().tolist()]
