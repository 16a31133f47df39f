from __future__ import annotations

import csv
import functools
import operator
from dataclasses import replace

import numpy as np
import pytest

from conftest import mk_corpus, mk_fields
from fieldstrength.hca import build_cells, flag_hcas
from fieldstrength.indicators import (
    build_discipline_scoreboards,
    build_field_scoreboards,
    indicator_id,
    per_euro,
)
from fieldstrength.model import RANKS, CostModel, cost_per_year, p_label
from fieldstrength.pipeline import run_pipeline
from fieldstrength.reporting import render
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


def build_fields(corpus, cost_model=None):
    cost_model = cost_model or CostModel()
    flags = flag_hcas(build_cells(corpus), corpus.config.sorted_percentiles)
    scores = score_researchers(corpus, flags, cost_model)
    return build_field_scoreboards(corpus, scores, cost_model)


def test_field_scoreboard_consistency():
    fields = build_fields(two_field_corpus())
    assert fields.sds_codes == ("S1", "S2")
    assert (fields.total_cost == 8 * 3 * 70007.0).all()
    assert ((fields.fss_ts == 0.0) == (fields.ts_count == 0)).all()
    assert (fields.fss_ts >= 0.0).all() and (fields.fss_fhca >= 0.0).all()
    assert fields.fss_ts == pytest.approx(1e8 * fields.ts_count / fields.total_cost[:, None])


def test_each_field_keeps_its_discipline_out_of_code_order(tmp_path):
    # field order (S1, S2, S3) differs from discipline order (U1, U10, U2);
    # field k has k + 1 professors
    sds_to_uda = {"S1": "U2", "S2": "U10", "S3": "U1"}
    researchers = [(f"r{sds}{i}", sds, YEARS) for k, sds in enumerate(sds_to_uda)
                   for i in range(k + 1)]
    corpus = mk_corpus(researchers, [("p", 2012, 1, 1, ["A"])], [("p", "rS10")], sds_to_uda)
    fields = build_fields(corpus)
    assert fields.udas == ("U1", "U10", "U2")
    assert fields.uda == ("U2", "U10", "U1")
    rows, _ = build_discipline_scoreboards(fields)
    assert rows.uda == ("U1", "U10", "U2")
    assert rows.n_professors.tolist() == [3, 2, 1]
    bundle = run_pipeline(corpus, CostModel()).bundle
    render(bundle, "csv", tmp_path)
    with open(tmp_path / "reports" / "avg_rank.csv", newline="", encoding="utf-8") as handle:
        entries = bundle.field_rows + list(csv.DictReader(handle))
    assert sorted({(entry["sds"], entry["uda"]) for entry in entries}) == sorted(sds_to_uda.items())


def test_scoreboard_zero_iff_no_ts(default_result):
    fields = default_result.fields
    assert ((fields.fss_ts == 0.0) == (fields.ts_count == 0)).all()


def head(fields, n):
    """The table of the first n fields alone, with the disciplines they hold."""
    codes, field_uda = np.unique(fields.field_uda[:n], return_inverse=True)
    return replace(fields, udas=tuple(fields.udas[u] for u in codes.tolist()),
                   field_uda=field_uda, **{name: getattr(fields, name)[:n] for name in (
        "sds_codes", "n_by_rank", "total_cost", "ts_count", "fhca_total", "fss_ts",
        "fss_fhca", "provenance")})


def test_aggregate_single_field_equals_field():
    fields = head(build_fields(two_field_corpus()), 1)
    rows, _ = build_discipline_scoreboards(fields)
    assert rows.uda == fields.uda
    assert rows.fss_ts == pytest.approx(fields.fss_ts)
    assert rows.fss_fhca == pytest.approx(fields.fss_fhca)
    assert (rows.ts_count == fields.ts_count).all()


def test_aggregate_equal_costs_is_plain_mean():
    fields = mk_fields([("S1", {5.0: 4.0}, {5.0: 1.0}), ("S2", {5.0: 8.0}, {5.0: 3.0})],
                       total_cost={"S1": 1e6, "S2": 1e6})
    rows, _ = build_discipline_scoreboards(fields)
    assert rows.uda == ("U1",)
    assert rows.fss_ts[0, 0] == pytest.approx(6.0)
    assert rows.fss_fhca[0, 0] == pytest.approx(2.0)


def test_aggregate_is_convex_combination(default_result):
    fields, rows = default_result.fields, default_result.discipline_rows
    uda = np.array(fields.uda)
    for g, name in enumerate(rows.uda):
        for attr in ("fss_ts", "fss_fhca"):
            values = getattr(fields, attr)[uda == name]
            assert (values.min(axis=0) - 1e-9 <= getattr(rows, attr)[g]).all()
            assert (getattr(rows, attr)[g] <= values.max(axis=0) + 1e-9).all()


def test_overall_ts_share(default_result):
    overall, fields = default_result.discipline_overall, default_result.fields
    assert overall.uda == ("ALL",)
    for j in range(2):
        total_ts = int(fields.ts_count[:, j].sum())
        total_prof = int(fields.n_professors.sum())
        assert overall.ts_count[0, j] == total_ts
        assert overall.ts_share[0, j] == pytest.approx(100.0 * total_ts / total_prof)


def test_aggregate_empty_uda_rejected():
    with pytest.raises(ValueError):
        build_discipline_scoreboards(head(mk_fields([("S1", {5.0: 1.0}, {5.0: 1.0})]), 0))


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
    fields = build_fields(corpus)
    assert fields.sds_codes == ("S1", "S2")
    a, b = 0, 1
    assert (fields.fhca_total[a] > 0).all()
    assert fields.fhca_total[b] == pytest.approx(2 * fields.fhca_total[a], rel=1e-12)
    assert fields.fss_fhca[b] == pytest.approx(fields.fss_fhca[a], rel=1e-12)


def test_fallback_flags_column():
    fields = mk_fields([("S1", {5.0: 0.0, 10.0: 1.0}, {5.0: 1.0, 10.0: 1.0}),
                        ("S2", {5.0: 0.0, 10.0: 1.0}, {5.0: 1.0, 10.0: 1.0})],
                       provenance={"S1": {5.0: "uda_fallback", 10.0: "field"},
                                   "S2": {5.0: "uda_fallback", 10.0: "national_fallback"}})
    assert fields.fallback_flags() == ["5:uda_fallback", "5:uda_fallback;10:national_fallback"]


def test_rank_and_cost_come_from_each_researchers_own_active_years():
    # r1 is not active in 2014; r3's last year, 2014, is before the roster's last, 2016
    researchers = [("r1", "S1", {2012: "full", 2013: "full", 2015: "associate"}),
                   ("r2", "S1", {2014: "full", 2015: "full", 2016: "full"}),
                   ("r3", "S1", {2012: "full", 2013: "full", 2014: "assistant"})]
    corpus = mk_corpus(researchers, [("p1", 2014, 3, 1, ["A"])], [("p1", "r2")], {"S1": "U1"})
    full, associate, assistant = (RANKS.index(rank) for rank in ("full", "associate", "assistant"))
    assert corpus.active_years.tolist() == [2012, 2013, 2014, 2015, 2016]
    assert corpus.rank.tolist() == [[full, full, -1, associate, -1],
                                    [-1, -1, full, full, full],
                                    [full, full, assistant, -1, -1]]
    cost_model = CostModel()
    table = score_researchers(corpus, flag_hcas(build_cells(corpus), [10.0]), cost_model)
    assert [RANKS[r] for r in table.rank.tolist()] == ["associate", "full", "assistant"]
    assert table.cost.tolist() == [
        functools.reduce(operator.add, (cost_per_year(rank, cost_model)
                                        for _, rank in sorted(ranks.items())), 0)
        for _, _, ranks in researchers]
    assert build_field_scoreboards(corpus, table, cost_model).n_by_rank.tolist() == [[1, 1, 1]]
