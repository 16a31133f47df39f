from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import best_categories, flagged_ids, members, mk_cells, mk_corpus, one_cell
from fieldstrength.hca import _cutoffs, build_cells, flag_hcas
from fieldstrength.model import CostModel, p_label
from fieldstrength.oracles import oracle_top_p
from fieldstrength.scoring import score_researchers


def pub(pid, year, cits, cats, n_authors=1):
    return (pid, year, cits, n_authors, cats)


def test_build_cells_groups_by_year_and_category():
    cells = mk_cells([
        pub("p1", 2012, 3, ["A"]),
        pub("p2", 2012, 5, ["A"]),
        pub("p3", 2013, 1, ["A"]),
    ])
    assert [(c.year, c.category, len(c.pub_ids)) for c in cells] == [(2012, "A", 2), (2013, "A", 1)]


def test_build_cells_multi_category_membership():
    cells = mk_cells([pub("p1", 2012, 3, ["A", "B"])])
    assert [(c.year, c.category) for c in cells] == [(2012, "A"), (2012, "B")]
    assert all(c.pub_ids == ("p1",) for c in cells)


def test_build_cells_empty():
    assert len(mk_cells([])) == 0
    assert list(mk_cells([])) == []


def test_build_cells_order_insensitive():
    pubs = [pub(f"p{i}", 2012 + i % 3, i * 2 % 7, ["A", "B"][i % 2]) for i in range(30)]
    shuffled = list(pubs)
    random.Random(3).shuffle(shuffled)
    assert list(mk_cells(pubs)) == list(mk_cells(shuffled))


def test_is_top_p_distinct_counts():
    cells = one_cell(list(range(100)))
    top5 = flagged_ids(flag_hcas(cells, [5]), 5)
    assert top5 == {"p95", "p96", "p97", "p98", "p99"}
    assert oracle_top_p(members(*cells), 5) == top5


def test_is_top_p_all_tied_cell_flags_everyone():
    # b = 0 for every member, so the whole tie group shares the best outcome
    cells = one_cell([4] * 20)
    [cell] = cells
    assert flagged_ids(flag_hcas(cells, [5]), 5) == set(cell.pub_ids)
    assert oracle_top_p(members(cell), 5) == set(cell.pub_ids)


def test_is_top_p_singleton():
    cells = one_cell([0])
    assert flagged_ids(flag_hcas(cells, [5]), 5) == {"p0"}
    assert oracle_top_p(members(*cells), 5) == {"p0"}


def test_percentile_is_compared_as_its_decimal():
    # exactly 2.2% of 1500 is 33 members, so a member with b = 33 above it is
    # not in the top 2.2%; in floats 2.2 * 1500 is 3300.0000000000005 > 100 * 33
    cells = one_cell(list(range(1500)))
    flagged = flagged_ids(flag_hcas(cells, [2.2]), 2.2)
    assert "p1466" not in flagged  # b = 33
    assert flagged == {f"p{i}" for i in range(1467, 1500)}  # b = 0..32
    assert oracle_top_p(members(*cells), 2.2) == flagged


@pytest.mark.parametrize("p", [0.1, 2.5, 5, 33.333333333333336, 99.99])
def test_cutoffs_follow_the_fraction_rule(p):
    # a * size passes 2**63 for p = 33.333333333333336, whose decimal has 17 digits
    sizes = range(1, 5001)
    exact_p = Fraction(repr(float(p)))
    expected = [math.ceil(exact_p * size / 100) for size in sizes]
    assert _cutoffs(p, np.array(sizes)).tolist() == expected


def test_flag_hcas_most_favourable_category():
    # top of its 2012/A cell, bottom of its 2012/B cell
    pubs = [
        pub("star", 2012, 50, ["A", "B"]),
        pub("a1", 2012, 1, ["A"]),
        *[pub(f"b{i}", 2012, 100 + i, ["B"]) for i in range(30)],
    ]
    flags = flag_hcas(mk_cells(pubs), [5])
    assert "star" in flagged_ids(flags, 5)
    assert best_categories(flags, 5)["star"] == "A"


def test_flag_hcas_not_flagged_when_outside_everywhere():
    pubs = [pub("low", 2012, 0, ["A", "B"])]
    for i in range(40):
        pubs.append(pub(f"a{i}", 2012, 10 + i, ["A"]))
        pubs.append(pub(f"b{i}", 2012, 10 + i, ["B"]))
    assert "low" not in flagged_ids(flag_hcas(mk_cells(pubs), [10]), 10)


def test_flag_hcas_p100_flags_everything():
    pubs = [pub(f"p{i}", 2012, i, ["A"]) for i in range(10)]
    assert flagged_ids(flag_hcas(mk_cells(pubs), [100]), 100) == {p[0] for p in pubs}


def test_flag_hcas_rejects_bad_percentile():
    with pytest.raises(ValueError):
        flag_hcas(mk_cells([]), [0])
    with pytest.raises(ValueError):
        flag_hcas(mk_cells([]), [101])


def test_flags_match_oracle_and_nest_on_random_cells():
    rng = random.Random(11)
    for _ in range(200):
        size = rng.randint(1, 200)
        citations = [rng.randint(0, 50) for _ in range(size)]
        cells = one_cell(citations)
        flags5 = flagged_ids(flag_hcas(cells, [5]), 5)
        flags10 = flagged_ids(flag_hcas(cells, [10]), 10)
        assert flags5 == oracle_top_p(members(*cells), 5)
        assert flags10 == oracle_top_p(members(*cells), 10)
        assert flags5 <= flags10
        # one call at both thresholds agrees with a call per threshold, and
        # its columns nest: a row flagged at 5 is flagged at 10
        both = flag_hcas(cells, [10, 5])
        assert both.percentiles == (5, 10)
        assert (flagged_ids(both, 5), flagged_ids(both, 10)) == (flags5, flags10)
        assert (both.hit[:, 0] <= both.hit[:, 1]).all()


def test_flags_invariant_under_member_permutation():
    rng = random.Random(5)
    pubs = [pub(f"p{i}", 2012, rng.randint(0, 10), ["A"]) for i in range(50)]
    shuffled = list(pubs)
    rng.shuffle(shuffled)
    flagged = flagged_ids(flag_hcas(mk_cells(pubs), [10]), 10)
    assert flagged_ids(flag_hcas(mk_cells(shuffled), [10]), 10) == flagged


def test_more_citations_never_unflags():
    rng = random.Random(13)
    citations = [rng.randint(0, 30) for _ in range(80)]
    flagged = flagged_ids(flag_hcas(one_cell(citations), [10]), 10)
    for idx in range(0, 80, 7):
        bumped = list(citations)
        bumped[idx] += rng.randint(1, 20)
        new_flags = flagged_ids(flag_hcas(one_cell(bumped), [10]), 10)
        if f"p{idx}" in flagged:
            assert f"p{idx}" in new_flags


SWEEP = [0.5 * i for i in range(1, 21)] + [100.0]


def random_pubs(rng: random.Random) -> list[tuple]:
    """Multi-year, multi-category publications with frequent citation ties."""
    return [
        pub(f"p{i:03d}", rng.choice((2012, 2013, 2014)), rng.randint(0, 6),
            rng.sample("ABCDE", rng.randint(1, 3)))
        for i in range(rng.randint(1, 300))
    ]


def wide_pubs(rng: random.Random) -> list[tuple]:
    """Publications over 260 years and 260 categories: more (year, category)
    codes than 16 bits hold, in shuffled pub_id order."""
    n = 260
    pubs = [pub(f"p{i:04d}", 1800 + i % n, 0, [f"C{i % n:03d}", f"C{i * 7 % n:03d}"])
            for i in range(2 * n)]
    rng.shuffle(pubs)
    return pubs


@pytest.mark.parametrize("draw", [random_pubs, wide_pubs], ids=["few codes", "wide codes"])
def test_build_cells_member_slots(draw):
    corpus = mk_cells(draw(random.Random(23))).corpus
    cells = build_cells(corpus)
    # members ascend by pub_id within each cell, which is sorted by (year, category)
    groups = {}
    for i, row in enumerate(corpus.category_start[:-1].tolist()):
        for code in corpus.category_code[row:corpus.category_start[i + 1]].tolist():
            groups.setdefault((int(corpus.year[i]), corpus.categories[code]), []).append(
                corpus.pub_ids[i])
    assert [(c.year, c.category, c.pub_ids) for c in cells] == [
        (year, category, tuple(sorted(ids))) for (year, category), ids in sorted(groups.items())]
    # each member slot names its membership: the cell's category, of its publication
    pub_of = np.repeat(np.arange(len(corpus.pub_ids)), np.diff(corpus.category_start))
    cell_of = np.repeat(np.arange(len(cells)), np.diff(cells.start))
    assert (corpus.category_code[cells.member] == cells.category[cell_of]).all()
    assert (pub_of[cells.member] == cells.pub_row).all()


def test_single_pass_equals_oracle_union_over_cells():
    rng = random.Random(17)
    for _ in range(40):
        cells = mk_cells(random_pubs(rng))
        flags = flag_hcas(cells, SWEEP)
        assert flags.percentiles == tuple(SWEEP)
        assert flags.hit.shape == (len(cells.corpus.pub_ids), len(SWEEP))
        for p in SWEEP:
            expected = set().union(*(oracle_top_p(members(cell), p) for cell in cells))
            assert flagged_ids(flags, p) == expected
        # flags nest in p: a row flagged at one threshold is flagged at every larger one
        for j in range(len(SWEEP) - 1):
            assert (flags.hit[:, j] <= flags.hit[:, j + 1]).all()


def test_best_category_is_brute_force_argmin():
    rng = random.Random(19)
    for _ in range(40):
        cells = mk_cells(random_pubs(rng))
        standings: dict[str, list[tuple[float, str]]] = {}
        for cell in cells:
            for pub_id, own in members(cell):
                b = sum(1 for other in cell.citations if other > own)
                standings.setdefault(pub_id, []).append((b / len(cell.pub_ids), cell.category))
        best = {pub_id: min(options)[1] for pub_id, options in standings.items()}
        flags = flag_hcas(cells, SWEEP)
        assert best_categories(flags, 100.0) == best  # p = 100 flags everyone
        for p in SWEEP:
            assert best_categories(flags, p) == {pub_id: best[pub_id]
                                                 for pub_id in flagged_ids(flags, p)}


def test_pipeline_counts_the_flags_of_each_percentile(default_result):
    flags, counts = default_result.flags, default_result.counts
    roster = set(default_result.corpus.authors_by_pub)
    assert len({len(flagged_ids(flags, p)) for p in flags.percentiles}) > 1
    for p in flags.percentiles:
        assert counts[f"hca_{p_label(p)}_flagged"] == len(flagged_ids(flags, p))
        assert counts[f"hca_{p_label(p)}_roster"] == len(flagged_ids(flags, p) & roster)


def test_fractional_value():
    # each author's share of one publication is 1 / author_count
    years = {2012: "assistant", 2013: "assistant", 2014: "assistant"}
    for n_authors, share in ((4, 0.25), (1, 1.0), (1000, 0.001)):
        corpus = mk_corpus([("r1", "S1", years)], [pub("x", 2012, 0, ["A"], n_authors)],
                           [("x", "r1")], {"S1": "U1"})
        flags = flag_hcas(build_cells(corpus), [5.0])
        table = score_researchers(corpus, flags, CostModel())
        assert table.output.tolist() == [share]
        assert table.fhca.tolist() == [[share]]  # the lone publication tops its cell
