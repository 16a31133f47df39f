from __future__ import annotations

import math
import random

import pytest

import numpy as np

from conftest import mk_fields
from fieldstrength.analytics import (
    IndicatorRanking,
    average_rank_extremes,
    correlation_matrix,
    fractional_ranks,
    quadrant_classify,
    rank_indicator,
    spearman,
)
from fieldstrength.oracles import oracle_fractional_ranks, oracle_spearman


def fields_from_values(values: dict[str, float], indicator_p: float = 5.0):
    return mk_fields([(sds, {indicator_p: v}, {indicator_p: v}) for sds, v in values.items()])


def ranking_from_values(values: list[float]) -> IndicatorRanking:
    fields = mk_fields([(f"F{i:03d}", {5.0: v}, {5.0: v}) for i, v in enumerate(values)])
    return rank_indicator(fields, "fss_ts", 5.0)


def best_first(ranking: IndicatorRanking) -> list[tuple[str, float]]:
    """(sds, rank) pairs in the ranking's best-first order."""
    return [(ranking.sds_codes[f], ranking.ranks[f]) for f in ranking.order]


def test_fractional_ranks_match_oracle():
    rng = random.Random(29)
    for _ in range(100):
        values = [rng.randint(0, 6) for _ in range(rng.randint(1, 60))]
        assert list(fractional_ranks(values)) == oracle_fractional_ranks(values)


def test_rank_indicator_basic():
    ranking = rank_indicator(fields_from_values({"A": 3.0, "B": 1.0, "C": 2.0}), "fss_ts", 5.0)
    assert best_first(ranking) == [("A", 1.0), ("C", 2.0), ("B", 3.0)]


def test_rank_indicator_ties_share_mean_rank():
    ranking = rank_indicator(fields_from_values({"B": 5.0, "A": 5.0, "C": 1.0}), "fss_ts", 5.0)
    assert ranking.sds_codes == ("A", "B", "C")
    assert ranking.ranks.tolist() == [1.5, 1.5, 3.0]
    # display order breaks the tie by field code
    assert [sds for sds, _ in best_first(ranking)] == ["A", "B", "C"]


def test_rank_indicator_zero_block_shares_bottom_rank():
    values = {f"Z{i:02d}": 0.0 for i in range(36)}
    values.update({"A": 3.0, "B": 2.0})
    ranking = rank_indicator(fields_from_values(values), "fss_ts", 5.0)
    zero_ranks = {rank for sds, rank in best_first(ranking) if sds.startswith("Z")}
    # ranks 3..38 averaged
    assert zero_ranks == {(3 + 38) / 2}


def test_rank_indicator_unknown_indicator():
    with pytest.raises(KeyError):
        rank_indicator(fields_from_values({"A": 1.0}), "fss_ts", 42.0)


def test_spearman_identical_and_reversed():
    x = ranking_from_values([1, 2, 3, 4])
    assert spearman(x, x) == pytest.approx(1.0)
    y = ranking_from_values([4, 3, 2, 1])
    assert spearman(x, y) == pytest.approx(-1.0)


def test_spearman_frozen_examples():
    x = ranking_from_values([1, 2, 3])
    y = ranking_from_values([1, 3, 2])
    assert spearman(x, y) == pytest.approx(0.5)
    assert oracle_spearman([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)
    # tie case, value pinned by the oracle before the engine existed
    xt = ranking_from_values([1, 1, 2])
    yt = ranking_from_values([3, 3, 1])
    assert oracle_spearman([1, 1, 2], [3, 3, 1]) == pytest.approx(-1.0)
    assert spearman(xt, yt) == pytest.approx(-1.0)


def test_spearman_undefined_cases():
    x = ranking_from_values([2, 2, 2])
    y = ranking_from_values([1, 2, 3])
    assert spearman(x, y) is None
    assert spearman(ranking_from_values([1]), ranking_from_values([2])) is None


def test_spearman_mismatched_fields_rejected():
    x = ranking_from_values([1, 2])
    y = rank_indicator(fields_from_values({"OTHER": 1.0}), "fss_ts", 5.0)
    with pytest.raises(ValueError):
        spearman(x, y)


def test_spearman_matches_oracle_on_random_vectors():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(2, 150)
        x = [rng.randint(0, 8) for _ in range(n)]
        y = [rng.randint(0, 8) for _ in range(n)]
        expected = oracle_spearman(x, y)
        got = spearman(ranking_from_values(x), ranking_from_values(y))
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=1e-10)


def test_correlation_matrix_shape(default_result):
    matrix = default_result.correlations
    n = len(matrix.indicator_ids)
    assert n == 4
    for i in range(n):
        assert matrix.values[i][i] == pytest.approx(1.0)
        for j in range(n):
            assert matrix.values[i][j] == pytest.approx(matrix.values[j][i])
            assert -1.0 - 1e-12 <= matrix.values[i][j] <= 1.0 + 1e-12


def test_quadrant_strong_and_weak_unions():
    # A is above both medians at p=5; D below both; B, C mixed
    fields = mk_fields([
        ("A", {5.0: 10.0}, {5.0: 10.0}),
        ("B", {5.0: 8.0}, {5.0: 1.0}),
        ("C", {5.0: 1.0}, {5.0: 8.0}),
        ("D", {5.0: 0.0}, {5.0: 0.0}),
    ])
    result = quadrant_classify(fields)
    assert result.strong_union == {"A"}
    assert result.weak_union == {"D"}
    assert result.medians["fss_ts_5"] == pytest.approx(4.5)


def test_quadrant_union_across_percentiles():
    # A is strong at p=5 only (dead on the median at p=10): still in the union
    fields = mk_fields([
        ("A", {5.0: 10.0, 10.0: 5.0}, {5.0: 10.0, 10.0: 5.0}),
        ("B", {5.0: 1.0, 10.0: 1.0}, {5.0: 1.0, 10.0: 1.0}),
        ("C", {5.0: 2.0, 10.0: 9.0}, {5.0: 2.0, 10.0: 9.0}),
    ])
    result = quadrant_classify(fields)
    assert result.strong_union == {"A", "C"}
    assert result.weak_union == {"B"}
    assert result.ambiguous == frozenset()


def test_quadrant_cross_percentile_conflict_is_ambiguous():
    # A flips from high-high at p=5 to low-low at p=10: in neither union
    fields = mk_fields([
        ("A", {5.0: 10.0, 10.0: 0.0}, {5.0: 10.0, 10.0: 0.0}),
        ("B", {5.0: 1.0, 10.0: 5.0}, {5.0: 1.0, 10.0: 5.0}),
        ("C", {5.0: 2.0, 10.0: 9.0}, {5.0: 2.0, 10.0: 9.0}),
    ])
    result = quadrant_classify(fields)
    assert result.ambiguous == {"A"}
    assert "A" not in result.strong_union
    assert "A" not in result.weak_union
    assert not (result.strong_union & result.weak_union)


def test_quadrant_degenerate_all_equal():
    result = quadrant_classify(fields_from_values({s: 3.0 for s in "ABCD"}))
    assert result.strong_union == frozenset()
    assert result.weak_union == frozenset()


def test_quadrant_median_field_in_neither_union():
    rng = random.Random(37)
    values = rng.sample(range(100), 7)
    result = quadrant_classify(fields_from_values({f"F{i}": float(v)
                                                   for i, v in enumerate(values)}))
    median_field = f"F{values.index(sorted(values)[3])}"
    assert median_field not in result.strong_union
    assert median_field not in result.weak_union


def test_average_rank_example():
    rankings = []
    ranks_wanted = {"A": [3, 18, 4, 2]}
    # build four rankings where A takes the wanted rank and the rest follow
    for slot, indicator in enumerate([("fss_ts", 5.0), ("fss_ts", 10.0),
                                      ("fss_fhca", 5.0), ("fss_fhca", 10.0)]):
        values = {}
        target = ranks_wanted["A"][slot]
        for i in range(20):
            values[f"B{i:02d}"] = float(100 - i)
        values["A"] = 100.0 - (target - 1) + 0.5  # sits exactly at rank `target`
        fields = mk_fields([(sds, {5.0: v, 10.0: v}, {5.0: v, 10.0: v})
                            for sds, v in values.items()])
        rankings.append(rank_indicator(fields, *indicator))
    result = average_rank_extremes(rankings, 5)
    assert rankings[0].sds_codes[0] == "A"
    assert result.avg_rank[0] == pytest.approx((3 + 18 + 4 + 2) / 4)


def test_average_rank_all_first():
    rankings = []
    for indicator in [("fss_ts", 5.0), ("fss_fhca", 5.0)]:
        fields = fields_from_values({"TOP": 9.0, "MID": 5.0, "LOW": 1.0})
        rankings.append(rank_indicator(fields, *indicator))
    result = average_rank_extremes(rankings, 1)
    codes = rankings[0].sds_codes
    assert not result.truncated
    assert codes[result.order[0]] == "TOP"
    assert result.avg_rank[result.order[0]] == 1.0
    assert codes[result.order[-1]] == "LOW"


def test_average_rank_tie_breaks_by_code_and_truncation():
    fields = mk_fields([
        ("BBB", {5.0: 1.0}, {5.0: 2.0}),
        ("AAA", {5.0: 2.0}, {5.0: 1.0}),
    ])
    rankings = [rank_indicator(fields, family, 5.0) for family in ("fss_ts", "fss_fhca")]
    result = average_rank_extremes(rankings, 10)
    assert result.truncated
    assert [fields.sds_codes[f] for f in result.order] == ["AAA", "BBB"]
    assert result.avg_rank.tolist() == [1.5, 1.5]


def test_monotone_transform_leaves_analytics_unchanged():
    rng = random.Random(41)
    values = {f"F{i:02d}": rng.choice([0.0, rng.uniform(0, 10)]) for i in range(30)}

    def transformed(f):
        return fields_from_values({s: f(v) for s, v in values.items()})

    base_fields = transformed(lambda v: v)
    mono_fields = transformed(lambda v: math.expm1(v) + v ** 3)

    base_rank = rank_indicator(base_fields, "fss_ts", 5.0)
    mono_rank = rank_indicator(mono_fields, "fss_ts", 5.0)
    assert base_rank.sds_codes == mono_rank.sds_codes
    assert (base_rank.ranks == mono_rank.ranks).all()

    base_quadrant = quadrant_classify(base_fields)
    mono_quadrant = quadrant_classify(mono_fields)
    assert base_quadrant.strong_union == mono_quadrant.strong_union
    assert base_quadrant.weak_union == mono_quadrant.weak_union

    # the best of other goes to the first code of values, and so on
    other = ranking_from_values([rng.random() for _ in range(30)])
    renamed = IndicatorRanking(
        indicator_id="fss_fhca_5", sds_codes=tuple(sorted(values)),
        values=other.values[other.order], ranks=other.ranks[other.order], order=np.arange(30),
    )
    assert spearman(base_rank, renamed) == pytest.approx(
        spearman(mono_rank, renamed), abs=1e-12
    )


def test_average_rank_permutation_invariant():
    rng = random.Random(43)
    values = {f"F{i:02d}": rng.uniform(0, 5) for i in range(25)}
    rows = [(s, {5.0: v}, {5.0: v}) for s, v in values.items()]
    shuffled = list(rows)
    rng.shuffle(shuffled)
    results = []
    for fields in (mk_fields(rows), mk_fields(shuffled)):
        rankings = [rank_indicator(fields, family, 5.0) for family in ("fss_ts", "fss_fhca")]
        results.append(average_rank_extremes(rankings, 5))
    assert (results[0].avg_rank == results[1].avg_rank).all()
    assert (results[0].order == results[1].order).all()


def test_correlation_matrix_on_rankings():
    fields = mk_fields([(f"F{i}", {5.0: float(i)}, {5.0: float(i % 3)}) for i in range(9)])
    rankings = [rank_indicator(fields, "fss_ts", 5.0), rank_indicator(fields, "fss_fhca", 5.0)]
    matrix = correlation_matrix(rankings)
    assert matrix.indicator_ids == ("fss_ts_5", "fss_fhca_5")
    assert matrix.values[0][0] == pytest.approx(1.0)
    assert matrix.values[0][1] == pytest.approx(matrix.values[1][0])
