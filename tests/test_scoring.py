from __future__ import annotations

import random

import numpy as np
import pytest

from conftest import mk_corpus
from fieldstrength.hca import build_cells, flag_hcas
from fieldstrength.model import AnalysisConfig, CostModel
from fieldstrength.oracles import oracle_quartiles
from fieldstrength.scoring import (
    RESCALE_EXHAUSTED,
    RESCALE_FROM_FIELD,
    RESCALE_FROM_NATIONAL,
    RESCALE_FROM_UDA,
    ResearcherScore,
    detect_top_scientists,
    score_researchers,
    ts_output_means,
    tukey_fence,
)

YEARS = {2012: "assistant", 2013: "assistant", 2014: "assistant"}


def mk_score(rid, sds, fhca, output=None, cost=1.0):
    if isinstance(fhca, (int, float)):
        fhca = {5.0: float(fhca), 10.0: float(fhca)}
    return ResearcherScore(researcher_id=rid, sds=sds, fhca_score=fhca,
                           frac_pub_output=output if output is not None else max(fhca.values()),
                           cost=cost)


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


def test_score_researchers_fractional_sums():
    corpus = scored_corpus()
    flags = flag_hcas(build_cells(corpus), (5.0, 10.0))
    assert flags[5.0].flagged >= {"hc1", "hc2"}
    scores = {s.researcher_id: s for s in score_researchers(corpus, flags, CostModel())}

    assert scores["r1"].fhca_score[5.0] == pytest.approx(0.5 + 0.25)
    assert scores["r1"].frac_pub_output == pytest.approx(0.5 + 0.25 + 0.2)
    # co-author gains their own half; the pair together carries the whole article
    assert scores["r2"].fhca_score[5.0] == pytest.approx(0.5)
    assert scores["r1"].cost == 3 * 70007.0


def test_zero_hca_researcher_scores_zero():
    corpus = scored_corpus()
    flags = flag_hcas(build_cells(corpus), (5.0, 10.0))
    scores = {s.researcher_id: s for s in score_researchers(corpus, flags, CostModel())}
    assert scores["r2"].fhca_score[5.0] <= scores["r2"].fhca_score[10.0]
    assert all(s.fhca_score[5.0] <= s.frac_pub_output for s in scores.values())


def test_tukey_fence_all_zero():
    fence = tukey_fence([0.0, 0.0, 0.0, 0.0], 1.5)
    assert fence.q1 == fence.q3 == fence.iqr == fence.threshold == 0.0


def test_tukey_fence_interpolated_example():
    # nine values: quartile positions (9-1)*0.25 = 2 and (9-1)*0.75 = 6
    fence = tukey_fence([1, 2, 3, 4, 5, 6, 7, 8, 100], 1.5)
    assert fence.q1 == 3.0
    assert fence.q3 == 7.0
    assert fence.threshold == 13.0
    assert 100 > fence.threshold


def test_tukey_fence_sparse_fields():
    # exactly 75% zeros: q3 interpolates a quarter of the way to the
    # first positive value (positions 74..75 straddle the boundary)
    values = [0.0] * 75 + [5.0] * 25
    fence = tukey_fence(values, 1.5)
    assert (fence.q1, fence.q3) == oracle_quartiles(values)
    assert fence.q3 == pytest.approx(1.25)
    # strictly more than 75% zeros: the fence collapses to zero and any
    # positive scorer is an outlier
    values = [0.0] * 76 + [5.0] * 24
    fence = tukey_fence(values, 1.5)
    assert (fence.q1, fence.q3) == oracle_quartiles(values)
    assert fence.threshold == 0.0


def test_tukey_fence_matches_oracle_on_random_vectors():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 500)
        if rng.random() < 0.5:
            values = [rng.randint(0, 5) for _ in range(n)]  # heavy ties
        else:
            values = [rng.uniform(-100, 100) for _ in range(n)]
        fence = tukey_fence(values, 1.5)
        q1, q3 = oracle_quartiles(values)
        assert fence.q1 == pytest.approx(q1, abs=1e-12)
        assert fence.q3 == pytest.approx(q3, abs=1e-12)
        assert fence.threshold == pytest.approx(q3 + 1.5 * (q3 - q1), abs=1e-12)


def test_tukey_fence_empty_rejected():
    with pytest.raises(ValueError):
        tukey_fence([], 1.5)


def test_detect_top_scientists_strictness():
    all_zero = [mk_score(f"r{i}", "S1", 0.0) for i in range(10)]
    assert detect_top_scientists(all_zero, [5.0], 1.5)[5.0] == set()

    uniform = [mk_score(f"r{i}", "S1", 2.5) for i in range(10)]
    assert detect_top_scientists(uniform, [5.0], 1.5)[5.0] == set()


def test_detect_top_scientists_sparse_field():
    scores = [mk_score(f"r{i}", "S1", 0.0) for i in range(96)]
    scores.append(mk_score("hero", "S1", 0.2))
    assert detect_top_scientists(scores, [5.0], 1.5)[5.0] == {"hero"}


def test_positive_scaling_leaves_ts_set_unchanged():
    rng = random.Random(23)
    scores = [mk_score(f"r{i}", "S1", rng.expovariate(2.0) if rng.random() < 0.4 else 0.0)
              for i in range(120)]
    base = detect_top_scientists(scores, [5.0], 1.5)[5.0]
    for c in (0.1, 3.0, 1e6):
        scaled = [
            mk_score(s.researcher_id, s.sds, {p: c * v for p, v in s.fhca_score.items()})
            for s in scores
        ]
        assert detect_top_scientists(scaled, [5.0], 1.5)[5.0] == base
        fence = tukey_fence([s.fhca_score[5.0] for s in scores], 1.5)
        scaled_fence = tukey_fence([c * s.fhca_score[5.0] for s in scores], 1.5)
        assert scaled_fence.threshold == pytest.approx(c * fence.threshold, rel=1e-9)


def _mean_of(field, ts, others=(), use_uda=True):
    """ts_output_means of field S1 (discipline U1) with top scientists ts at
    p=5, next to (sds, uda, output) fields of one top scientist each."""
    scores_by_sds = {"S1": field}
    ts_by_sds = {"S1": {5.0: ts}}
    sds_to_uda = {"S1": "U1"}
    for sds, uda, output in others:
        scores_by_sds[sds] = [mk_score(f"{sds}-ts", sds, 1.0, output=output)]
        ts_by_sds[sds] = {5.0: {f"{sds}-ts"}}
        sds_to_uda[sds] = uda
    return ts_output_means(scores_by_sds, ts_by_sds, sds_to_uda, [5.0], use_uda)["S1", 5.0]


def test_avg_ts_output_direct():
    field = [mk_score("r1", "S1", 1.0, output=3.4), mk_score("r2", "S1", 0.0, output=9.9)]
    value, source = _mean_of(field, {"r1"})
    assert (value, source) == (3.4, RESCALE_FROM_FIELD)

    field.append(mk_score("r3", "S1", 1.0, output=2.0))
    value, _ = _mean_of(field, {"r1", "r3"})
    assert value == pytest.approx((3.4 + 2.0) / 2)


def test_avg_ts_output_fallback_chain():
    field = [mk_score("r1", "S1", 0.0, output=1.0)]
    value, source = _mean_of(field, set(), [("S2", "U1", 2.5)])
    assert (value, source) == (2.5, RESCALE_FROM_UDA)

    value, source = _mean_of(field, set(), [("S3", "U2", 4.0)])
    assert (value, source) == (4.0, RESCALE_FROM_NATIONAL)

    # national-only mode skips the discipline pool (national mean (2.5 + 5.5) / 2)
    value, source = _mean_of(field, set(), [("S2", "U1", 2.5), ("S3", "U2", 5.5)],
                             use_uda=False)
    assert (value, source) == (4.0, RESCALE_FROM_NATIONAL)

    value, source = _mean_of(field, set())
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
    scores = score_researchers(corpus, flags, CostModel())
    assert len(scores) == 1 and scores[0].frac_pub_output == 0.0


SWEEP = [0.5 * i for i in range(1, 21)]


def test_batched_fences_equal_one_tukey_fence_per_percentile():
    rng = random.Random(23)
    for _ in range(60):
        field = [
            ResearcherScore(
                researcher_id=f"r{i}", sds="S1",
                fhca_score={p: rng.choice([0.0, 0.0, 0.25, 1 / 3, 0.5, rng.uniform(0, 5)])
                            for p in SWEEP},
                frac_pub_output=1.0, cost=1.0,
            )
            for i in range(rng.randint(1, 40))
        ]
        multiplier = rng.choice([0.0, 1.5, 3.0])
        batched = detect_top_scientists(field, SWEEP, multiplier)
        for p in SWEEP:
            fence = tukey_fence([s.fhca_score[p] for s in field], multiplier)
            assert batched[p] == {s.researcher_id for s in field
                                  if s.fhca_score[p] > fence.threshold}


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
        flag_sets = flag_hcas(build_cells(corpus), SWEEP)

        author_count = {pub[0]: pub[3] for pub in pubs}
        fhca = {r: dict.fromkeys(SWEEP, 0.0) for r in corpus.researchers}
        output = dict.fromkeys(corpus.researchers, 0.0)
        for pub_id, researcher_id in sorted(links):  # ascending pub_id
            share = 1.0 / author_count[pub_id]
            output[researcher_id] += share
            for p in SWEEP:
                if pub_id in flag_sets[p].flagged:
                    fhca[researcher_id][p] += share

        for score in score_researchers(corpus, flag_sets, CostModel()):
            assert score.fhca_score == fhca[score.researcher_id]
            assert score.frac_pub_output == output[score.researcher_id]
            assert all(type(v) is float for v in score.fhca_score.values())
