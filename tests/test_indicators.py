from __future__ import annotations

import pytest

from conftest import mk_board, mk_corpus
from fieldstrength.hca import build_cells, flag_hcas
from fieldstrength.indicators import (
    build_discipline_scoreboards,
    build_field_scoreboards,
    indicator_id,
    per_euro,
)
from fieldstrength.model import CostModel, p_label
from fieldstrength.scoring import score_researchers

YEARS = {2012: "assistant", 2013: "assistant", 2014: "assistant"}


def test_p_label():
    assert p_label(5.0) == "5"
    assert p_label(10) == "10"
    assert p_label(2.5) == "2.5"
    assert indicator_id("fss_ts", 5.0) == "fss_ts_5"


def test_fss_ts_values():
    assert per_euro(0, 1e6, 1e8) == 0.0
    assert per_euro(2, 700070.0, 1e8) == pytest.approx(285.7, abs=0.05)
    # homogeneity of degree -1 in cost
    assert per_euro(3, 2 * 1e6, 1e8) == pytest.approx(per_euro(3, 1e6, 1e8) / 2, rel=1e-12)


def test_fss_fhca_values():
    assert per_euro(0.0, 1e6, 1e8) == 0.0
    assert per_euro(1.5 / 3.0, 500000.0, 1e8) == pytest.approx(100.0)


def test_fss_rejects_empty_field_cost():
    with pytest.raises(ValueError):
        per_euro(1, 0.0, 1e8)


def two_field_corpus():
    """Field A and field B in different disciplines, one top scorer each."""
    researchers = []
    pubs = []
    links = []
    for tag, sds, cat in (("a", "S1", "CA"), ("b", "S2", "CB")):
        for i in range(8):
            researchers.append((f"{tag}{i}", sds, YEARS))
        # one dominant researcher with clearly cited articles, plus filler
        for j in range(6):
            pid = f"{tag}hot{j}"
            pubs.append((pid, 2012, 500 + j, 1, [cat]))
            links.append((pid, f"{tag}0"))
        for i in range(1, 8):
            pid = f"{tag}low{i}"
            pubs.append((pid, 2012, i, 1, [cat]))
            links.append((pid, f"{tag}{i}"))
        pubs.extend((f"{tag}pad{k}", 2012, 10 + k, 1, [cat]) for k in range(40))
    return mk_corpus(researchers, pubs, links, {"S1": "U1", "S2": "U2"})


def build_boards(corpus, cost_model=None):
    cost_model = cost_model or CostModel()
    flags = flag_hcas(build_cells(corpus), corpus.config.sorted_percentiles)
    scores = score_researchers(corpus, flags, cost_model)
    return build_field_scoreboards(corpus, scores, cost_model)


def test_field_scoreboard_consistency():
    boards = build_boards(two_field_corpus())
    assert [b.sds for b in boards] == ["S1", "S2"]
    for board in boards:
        assert board.total_cost == 8 * 3 * 70007.0
        for p in (5.0, 10.0):
            assert (board.fss_ts[p] == 0.0) == (board.ts_count[p] == 0)
            assert board.fss_ts[p] >= 0.0 and board.fss_fhca[p] >= 0.0
            assert board.fss_ts[p] == pytest.approx(
                1e8 * board.ts_count[p] / board.total_cost
            )


def test_scoreboard_zero_iff_no_ts(default_result):
    for board in default_result.boards:
        for p in (5.0, 10.0):
            assert (board.fss_ts[p] == 0.0) == (board.ts_count[p] == 0)


def test_aggregate_single_field_equals_field():
    boards = build_boards(two_field_corpus())
    [row], _ = build_discipline_scoreboards(boards[:1], [5.0, 10.0])
    board = boards[0]
    for p in (5.0, 10.0):
        assert row.fss_ts[p] == pytest.approx(board.fss_ts[p])
        assert row.fss_fhca[p] == pytest.approx(board.fss_fhca[p])
        assert row.ts_count[p] == board.ts_count[p]


def test_aggregate_equal_costs_is_plain_mean():
    a = mk_board("S1", "U1", {5.0: 4.0}, {5.0: 1.0}, total_cost=1e6)
    b = mk_board("S2", "U1", {5.0: 8.0}, {5.0: 3.0}, total_cost=1e6)
    [row], _ = build_discipline_scoreboards([a, b], [5.0])
    assert row.fss_ts[5.0] == pytest.approx(6.0)
    assert row.fss_fhca[5.0] == pytest.approx(2.0)


def test_aggregate_is_convex_combination(default_result):
    for row in default_result.discipline_rows:
        members = [b for b in default_result.boards if b.uda == row.uda]
        for p in (5.0, 10.0):
            for attr in ("fss_ts", "fss_fhca"):
                values = [getattr(b, attr)[p] for b in members]
                assert min(values) - 1e-9 <= getattr(row, attr)[p] <= max(values) + 1e-9


def test_overall_ts_share(default_result):
    overall = default_result.discipline_overall
    for p in (5.0, 10.0):
        total_ts = sum(b.ts_count[p] for b in default_result.boards)
        total_prof = sum(b.n_professors for b in default_result.boards)
        assert overall.ts_count[p] == total_ts
        assert overall.ts_share[p] == pytest.approx(100.0 * total_ts / total_prof)


def test_aggregate_empty_uda_rejected():
    with pytest.raises(ValueError):
        build_discipline_scoreboards([], [5.0])


def test_intensity_rescaling_cancels():
    """Two fields whose top scorers differ only by publication intensity
    (2x the output, 2x the highly cited share) score the same fss_fhca."""
    researchers = []
    pubs = []
    links = []
    # field A: one article per slot; field B: everything duplicated
    for tag, sds, cat, copies in (("a", "S1", "CA", 1), ("b", "S2", "CB", 2)):
        for i in range(6):
            researchers.append((f"{tag}{i}", sds, YEARS))
        for j in range(8):
            for c in range(copies):
                pid = f"{tag}hot{j}c{c}"
                pubs.append((pid, 2012, 1000 - 10 * j, 2, [cat]))
                links.append((pid, f"{tag}0"))
        for i in range(1, 6):
            for c in range(copies):
                pid = f"{tag}low{i}c{c}"
                pubs.append((pid, 2012, i, 4, [cat]))
                links.append((pid, f"{tag}{i}"))
    corpus = mk_corpus(researchers, pubs, links, {"S1": "U1", "S2": "U2"})
    boards = {b.sds: b for b in build_boards(corpus)}
    for p in (5.0, 10.0):
        a, b = boards["S1"], boards["S2"]
        assert a.fhca_total[p] > 0
        assert b.fhca_total[p] == pytest.approx(2 * a.fhca_total[p], rel=1e-12)
        assert b.fss_fhca[p] == pytest.approx(a.fss_fhca[p], rel=1e-12)


def test_fallback_flags_column():
    board = mk_board("S1", "U1", {5.0: 0.0, 10.0: 1.0}, {5.0: 1.0, 10.0: 1.0},
                     provenance={5.0: "uda_fallback", 10.0: "field"})
    assert board.fallback_flags() == "5:uda_fallback"
