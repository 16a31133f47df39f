from __future__ import annotations

import math
import random

import pytest

from conftest import mk_board
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


def boards_from_values(values: dict[str, float], indicator_p: float = 5.0):
    return [
        mk_board(sds, "U1", {indicator_p: v}, {indicator_p: v})
        for sds, v in values.items()
    ]


def ranking_from_values(values: list[float]) -> IndicatorRanking:
    boards = [mk_board(f"F{i:03d}", "U1", {5.0: v}, {5.0: v}) for i, v in enumerate(values)]
    return rank_indicator(boards, "fss_ts", 5.0)


def test_fractional_ranks_match_oracle():
    rng = random.Random(29)
    for _ in range(100):
        values = [rng.randint(0, 6) for _ in range(rng.randint(1, 60))]
        assert list(fractional_ranks(values)) == oracle_fractional_ranks(values)


def test_rank_indicator_basic():
    ranking = rank_indicator(boards_from_values({"A": 3.0, "B": 1.0, "C": 2.0}), "fss_ts", 5.0)
    assert [(sds, rank) for sds, _, rank in ranking.ranked] == [("A", 1.0), ("C", 2.0), ("B", 3.0)]


def test_rank_indicator_ties_share_mean_rank():
    ranking = rank_indicator(boards_from_values({"A": 5.0, "B": 5.0, "C": 1.0}), "fss_ts", 5.0)
    assert ranking.rank_by_sds == {"A": 1.5, "B": 1.5, "C": 3.0}
    # display order breaks the tie by field code
    assert [sds for sds, _, _ in ranking.ranked] == ["A", "B", "C"]


def test_rank_indicator_zero_block_shares_bottom_rank():
    values = {f"Z{i:02d}": 0.0 for i in range(36)}
    values.update({"A": 3.0, "B": 2.0})
    ranking = rank_indicator(boards_from_values(values), "fss_ts", 5.0)
    zero_ranks = {rank for sds, _, rank in ranking.ranked if sds.startswith("Z")}
    # ranks 3..38 averaged
    assert zero_ranks == {(3 + 38) / 2}


def test_rank_indicator_unknown_indicator():
    with pytest.raises(KeyError):
        rank_indicator(boards_from_values({"A": 1.0}), "fss_ts", 42.0)


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
    boards = [mk_board("OTHER", "U1", {5.0: 1.0}, {5.0: 1.0})]
    y = rank_indicator(boards, "fss_ts", 5.0)
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
    boards = [
        mk_board("A", "U1", {5.0: 10.0}, {5.0: 10.0}),
        mk_board("B", "U1", {5.0: 8.0}, {5.0: 1.0}),
        mk_board("C", "U1", {5.0: 1.0}, {5.0: 8.0}),
        mk_board("D", "U1", {5.0: 0.0}, {5.0: 0.0}),
    ]
    result = quadrant_classify(boards, [5.0])
    assert result.strong_union == {"A"}
    assert result.weak_union == {"D"}
    assert result.medians["fss_ts_5"] == pytest.approx(4.5)


def test_quadrant_union_across_percentiles():
    # A is strong at p=5 only (dead on the median at p=10): still in the union
    boards = [
        mk_board("A", "U1", {5.0: 10.0, 10.0: 5.0}, {5.0: 10.0, 10.0: 5.0}),
        mk_board("B", "U1", {5.0: 1.0, 10.0: 1.0}, {5.0: 1.0, 10.0: 1.0}),
        mk_board("C", "U1", {5.0: 2.0, 10.0: 9.0}, {5.0: 2.0, 10.0: 9.0}),
    ]
    result = quadrant_classify(boards, [5.0, 10.0])
    assert result.strong_union == {"A", "C"}
    assert result.weak_union == {"B"}
    assert result.ambiguous == frozenset()


def test_quadrant_cross_percentile_conflict_is_ambiguous():
    # A flips from high-high at p=5 to low-low at p=10: in neither union
    boards = [
        mk_board("A", "U1", {5.0: 10.0, 10.0: 0.0}, {5.0: 10.0, 10.0: 0.0}),
        mk_board("B", "U1", {5.0: 1.0, 10.0: 5.0}, {5.0: 1.0, 10.0: 5.0}),
        mk_board("C", "U1", {5.0: 2.0, 10.0: 9.0}, {5.0: 2.0, 10.0: 9.0}),
    ]
    result = quadrant_classify(boards, [5.0, 10.0])
    assert result.ambiguous == {"A"}
    assert "A" not in result.strong_union
    assert "A" not in result.weak_union
    assert not (result.strong_union & result.weak_union)


def test_quadrant_degenerate_all_equal():
    boards = [mk_board(s, "U1", {5.0: 3.0}, {5.0: 3.0}) for s in "ABCD"]
    result = quadrant_classify(boards, [5.0])
    assert result.strong_union == frozenset()
    assert result.weak_union == frozenset()


def test_quadrant_median_field_in_neither_union():
    rng = random.Random(37)
    values = rng.sample(range(100), 7)
    boards = [
        mk_board(f"F{i}", "U1", {5.0: float(v)}, {5.0: float(v)})
        for i, v in enumerate(values)
    ]
    result = quadrant_classify(boards, [5.0])
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
        boards = [
            mk_board(sds, "U1",
                     {5.0: v, 10.0: v}, {5.0: v, 10.0: v})
            for sds, v in values.items()
        ]
        rankings.append(rank_indicator(boards, *indicator))
    result = average_rank_extremes(rankings, 5)
    entry = next(e for e in result.entries if e.sds == "A")
    assert entry.avg_rank == pytest.approx((3 + 18 + 4 + 2) / 4)


def test_average_rank_all_first():
    rankings = []
    for indicator in [("fss_ts", 5.0), ("fss_fhca", 5.0)]:
        boards = [
            mk_board("TOP", "U1", {5.0: 9.0}, {5.0: 9.0}),
            mk_board("MID", "U1", {5.0: 5.0}, {5.0: 5.0}),
            mk_board("LOW", "U1", {5.0: 1.0}, {5.0: 1.0}),
        ]
        rankings.append(rank_indicator(boards, *indicator))
    result = average_rank_extremes(rankings, 1)
    assert not result.truncated
    assert result.entries[0].sds == "TOP"
    assert result.entries[0].avg_rank == 1.0
    assert result.entries[-1].sds == "LOW"


def test_average_rank_tie_breaks_by_code_and_truncation():
    boards = [
        mk_board("AAA", "U1", {5.0: 2.0}, {5.0: 1.0}),
        mk_board("BBB", "U1", {5.0: 1.0}, {5.0: 2.0}),
    ]
    rankings = [rank_indicator(boards, family, 5.0) for family in ("fss_ts", "fss_fhca")]
    result = average_rank_extremes(rankings, 10)
    assert result.truncated
    assert [e.sds for e in result.entries] == ["AAA", "BBB"]
    assert result.entries[0].avg_rank == result.entries[1].avg_rank == 1.5


def test_monotone_transform_leaves_analytics_unchanged():
    rng = random.Random(41)
    values = {f"F{i:02d}": rng.choice([0.0, rng.uniform(0, 10)]) for i in range(30)}

    def transformed(f):
        return [mk_board(s, "U1", {5.0: f(v)}, {5.0: f(v)}) for s, v in values.items()]

    base_boards = transformed(lambda v: v)
    mono_boards = transformed(lambda v: math.expm1(v) + v ** 3)

    base_rank = rank_indicator(base_boards, "fss_ts", 5.0)
    mono_rank = rank_indicator(mono_boards, "fss_ts", 5.0)
    assert base_rank.rank_by_sds == mono_rank.rank_by_sds

    base_quadrant = quadrant_classify(base_boards, [5.0])
    mono_quadrant = quadrant_classify(mono_boards, [5.0])
    assert base_quadrant.strong_union == mono_quadrant.strong_union
    assert base_quadrant.weak_union == mono_quadrant.weak_union

    other = ranking_from_values([rng.random() for _ in range(30)])
    renamed = IndicatorRanking(
        indicator_id="fss_fhca_5",
        ranked=tuple((sds, v, r) for (_, v, r), sds in zip(other.ranked, sorted(values))),
    )
    assert spearman(base_rank, renamed) == pytest.approx(
        spearman(mono_rank, renamed), abs=1e-12
    )


def test_average_rank_permutation_invariant():
    rng = random.Random(43)
    values = {f"F{i:02d}": rng.uniform(0, 5) for i in range(25)}
    boards = [mk_board(s, "U1", {5.0: v}, {5.0: v}) for s, v in values.items()]
    shuffled = list(boards)
    rng.shuffle(shuffled)
    r1 = [rank_indicator(boards, "fss_ts", 5.0), rank_indicator(boards, "fss_fhca", 5.0)]
    r2 = [rank_indicator(shuffled, "fss_ts", 5.0), rank_indicator(shuffled, "fss_fhca", 5.0)]
    assert average_rank_extremes(r1, 5) == average_rank_extremes(r2, 5)


def test_correlation_matrix_on_rankings():
    boards = [
        mk_board(f"F{i}", "U1", {5.0: float(i)}, {5.0: float(i % 3)})
        for i in range(9)
    ]
    rankings = [rank_indicator(boards, "fss_ts", 5.0), rank_indicator(boards, "fss_fhca", 5.0)]
    matrix = correlation_matrix(rankings)
    assert matrix.indicator_ids == ("fss_ts_5", "fss_fhca_5")
    assert matrix.values[0][0] == pytest.approx(1.0)
    assert matrix.values[0][1] == pytest.approx(matrix.values[1][0])
