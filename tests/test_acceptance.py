"""Acceptance suite: the seven release criteria, each printing one
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).

Tolerances are pinned here and nowhere else: cost constants to 0.5 euro,
flag sets exact against the brute-force oracle, quartiles to 1e-12,
rank correlations to 1e-10, the intensity-rescaling identity to 1e-12
relative, byte identity for reruns.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from conftest import members, mk_board, mk_corpus, mk_table, one_cell
from fieldstrength.analytics import rank_indicator, spearman
from fieldstrength.cli import main
from fieldstrength.hca import build_cells, flag_hcas
from fieldstrength.indicators import build_field_scoreboards
from fieldstrength.ingest import CorpusPaths, load_corpus
from fieldstrength.model import AnalysisConfig, CostModel, cost_per_year
from fieldstrength.oracles import oracle_quartiles, oracle_spearman, oracle_top_p
from fieldstrength.pipeline import run_pipeline
from fieldstrength.reporting import render
from fieldstrength.scoring import detect_top_scientists, score_researchers
from fieldstrength.synth import SynthParams, generate

YEARS = {2012: "assistant", 2013: "assistant", 2014: "assistant"}


@contextmanager
def criterion(number: int, name: str, time_limit: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {number}] FAIL: {name}")
        raise
    elapsed = time.perf_counter() - start
    if time_limit is not None:
        assert elapsed < time_limit, f"criterion {number} took {elapsed:.1f}s (limit {time_limit}s)"
    print(f"[criterion {number}] PASS: {name} ({elapsed:.2f}s)")


def load_synth(tmp, **params) -> "Corpus":
    generate(SynthParams(**params), tmp)
    paths = CorpusPaths(
        taxonomy=tmp / "taxonomy.csv",
        researchers=tmp / "researchers.csv",
        publications=tmp / "publications.csv",
        authorships=tmp / "authorships.csv",
    )
    return load_corpus(paths, AnalysisConfig())


def test_criterion_1_cost_model_reproduction():
    with criterion(1, "cost model reproduces the published production factor costs", 1.0):
        cm = CostModel()  # w = 54628 / 66821 / 101301, k = 42693, share 0.5
        exact = {"assistant": 70007.0, "associate": 76103.5, "full": 93343.5}
        published = {"assistant": 70007, "associate": 76104, "full": 93344}
        for rank in exact:
            value = cost_per_year(rank, cm)
            assert value == exact[rank]
            assert abs(value - published[rank]) <= 0.5


def test_criterion_2_oracle_equivalence():
    with criterion(2, "engine matches brute-force oracles on 1000 random instances each", 60.0):
        rng = random.Random(2024)

        # HCA flagging: exact set equality
        for _ in range(1000):
            size = rng.randint(1, 200)
            citations = [rng.randint(0, 50) for _ in range(size)]
            cells = one_cell(citations)
            p = rng.choice([5.0, 10.0, round(rng.uniform(0.5, 99.5), 2)])
            assert flag_hcas(cells, [p])[p].flagged == oracle_top_p(members(*cells), p)

        # Tukey quartiles: 1e-12, on 1000 fields of one table; the fence at
        # multiplier 0 is q3
        fields = {}
        for i in range(1000):
            n = rng.randint(1, 500)
            if rng.random() < 0.5:
                values = [float(rng.randint(0, 6)) for _ in range(n)]
            else:
                values = [rng.uniform(-1e3, 1e3) for _ in range(n)]
            fields[f"F{i:04d}"] = [[v] for v in values]
        table = mk_table(fields, [5.0])
        q3s, _ = detect_top_scientists(table, 0.0)
        fences, _ = detect_top_scientists(table, 1.5)
        for f, sds in enumerate(table.sds_codes):
            q1, q3 = oracle_quartiles([row[0] for row in fields[sds]])
            assert abs(q3s[f, 0] - q3) <= 1e-12
            assert abs(fences[f, 0] - (q3 + 1.5 * (q3 - q1))) <= 1e-12

        # Spearman: 1e-10, including tie-heavy and degenerate vectors
        for _ in range(1000):
            n = rng.randint(2, 200)
            if rng.random() < 0.7:
                x = [float(rng.randint(0, 10)) for _ in range(n)]
                y = [float(rng.randint(0, 10)) for _ in range(n)]
            else:
                x = [rng.uniform(0, 1) for _ in range(n)]
                y = [rng.uniform(0, 1) for _ in range(n)]
            boards = [
                mk_board(f"F{i:03d}", "U1", {5.0: x[i]}, {5.0: y[i]})
                for i in range(n)
            ]
            got = spearman(rank_indicator(boards, "fss_ts", 5.0),
                           rank_indicator(boards, "fss_fhca", 5.0))
            expected = oracle_spearman(x, y)
            if expected is None:
                assert got is None
            else:
                assert abs(got - expected) <= 1e-10


def test_criterion_3_invariance_suite(default_corpus, default_result, tmp_path):
    with criterion(3, "nestedness, scaling, cost-inflation, and convexity invariants", 120.0):
        # (a) flag nestedness on every generated corpus
        corpora = [default_corpus,
                   load_synth(tmp_path / "s1", seed=101, n_udas=2, n_fields_per_uda=2,
                              professors_per_field=(5, 10), pubs_per_professor_mean=6.0),
                   load_synth(tmp_path / "s2", seed=202, n_udas=3, n_fields_per_uda=1,
                              professors_per_field=(4, 8), pubs_per_professor_mean=5.0,
                              hca_fraction=0.5)]
        for corpus in corpora:
            cells = build_cells(corpus)
            assert flag_hcas(cells, [5.0])[5.0].flagged <= flag_hcas(cells, [10.0])[10.0].flagged

        # (b) positive scaling of the scores leaves every field's TS set unchanged
        table = default_result.scores
        _, base_ts = detect_top_scientists(table, 1.5)
        for c in (0.25, 13.0):
            _, scaled_ts = detect_top_scientists(replace(table, fhca=c * table.fhca), 1.5)
            assert (scaled_ts == base_ts).all()

        # (c) uniform cost inflation by c = 2 (exact in floats): FSS x 1/2,
        # ranks, quadrant memberships and Spearman entries unchanged
        base = default_result
        inflated_cm = CostModel(
            salary={r: 2.0 * v for r, v in CostModel().salary.items()},
            capital=2.0 * CostModel().capital,
        )
        inflated = run_pipeline(default_corpus, inflated_cm, top_bottom_k=10)
        for b_board, i_board in zip(base.boards, inflated.boards):
            assert b_board.sds == i_board.sds
            for p in (5.0, 10.0):
                assert i_board.fss_ts[p] == b_board.fss_ts[p] / 2.0
                assert i_board.fss_fhca[p] == b_board.fss_fhca[p] / 2.0
        for b_rank, i_rank in zip(base.rankings, inflated.rankings):
            assert b_rank.rank_by_sds == i_rank.rank_by_sds
        assert base.quadrant.strong_union == inflated.quadrant.strong_union
        assert base.quadrant.weak_union == inflated.quadrant.weak_union
        assert base.correlations.values == inflated.correlations.values

        # reporting-scale invariance rides along: scale x 2 doubles every FSS
        doubled_scale = run_pipeline(default_corpus, CostModel(reporting_scale=2e8))
        for b_board, s_board in zip(base.boards, doubled_scale.boards):
            for p in (5.0, 10.0):
                assert s_board.fss_ts[p] == 2.0 * b_board.fss_ts[p]
        assert base.quadrant == doubled_scale.quadrant or (
            base.quadrant.strong_union == doubled_scale.quadrant.strong_union
            and base.quadrant.weak_union == doubled_scale.quadrant.weak_union
        )

        # (d) discipline aggregates are convex combinations of member fields
        for row in base.discipline_rows:
            members = [b for b in base.boards if b.uda == row.uda]
            for p in (5.0, 10.0):
                for attr in ("fss_ts", "fss_fhca"):
                    values = [getattr(b, attr)[p] for b in members]
                    assert min(values) - 1e-9 <= getattr(row, attr)[p] <= max(values) + 1e-9


def test_criterion_4_zero_path_end_to_end(tmp_path):
    with criterion(4, "zero-HCA corpus: all-zero indicators, empty unions, null correlations"):
        corpus = load_synth(tmp_path / "zero", seed=4, n_udas=3, n_fields_per_uda=2,
                            professors_per_field=(6, 10), pubs_per_professor_mean=6.0,
                            hca_fraction=0.0)
        result = run_pipeline(corpus, CostModel())
        roster = set(corpus.authors_by_pub)
        for p in (5.0, 10.0):
            assert not (result.flag_sets[p].flagged & roster)
        for board in result.boards:
            for p in (5.0, 10.0):
                assert board.ts_count[p] == 0
                assert board.fss_ts[p] == 0.0
                assert board.fss_fhca[p] == 0.0
        assert result.quadrant.strong_union == frozenset()
        assert result.quadrant.weak_union == frozenset()
        for line in result.correlations.values:
            assert all(v is None for v in line)
        assert result.summary.overall.hca_counts[5.0] == 0
        # the bundle still renders a complete, valid report directory
        entries = []
        for fmt in ("csv", "json", "markdown"):
            entries += render(result.bundle, fmt, tmp_path / "out")
        assert len(entries) == 18
        payload = json.loads((tmp_path / "out" / "reports" / "correlations.json")
                             .read_text(encoding="utf-8"))
        for row in payload["rows"]:
            for key, value in row.items():
                if key != "indicator":
                    assert value is None


def test_criterion_5_rescaling_purpose():
    with criterion(5, "intensity rescaling cancels a uniform 2x output difference (1e-12)"):
        researchers, pubs, links = [], [], []
        # field B mirrors field A with every article duplicated: its top
        # scorers have exactly twice the fractional output and twice the
        # highly cited count; equal costs
        for tag, sds, cat, copies in (("a", "S1", "CA", 1), ("b", "S2", "CB", 2)):
            for i in range(7):
                researchers.append((f"{tag}{i}", sds, YEARS))
            for j in range(9):
                for c in range(copies):
                    pid = f"{tag}hot{j}c{c}"
                    pubs.append((pid, 2012, 2000 - 25 * j, 3, [cat]))
                    links.append((pid, f"{tag}0"))
            for i in range(1, 7):
                for c in range(copies):
                    pid = f"{tag}low{i}c{c}"
                    pubs.append((pid, 2013, i % 4, 2, [cat]))
                    links.append((pid, f"{tag}{i}"))
        corpus = mk_corpus(researchers, pubs, links, {"S1": "U1", "S2": "U2"})
        flags = flag_hcas(build_cells(corpus), (5.0, 10.0))
        scores = score_researchers(corpus, flags, CostModel())
        boards = {b.sds: b for b in
                  build_field_scoreboards(corpus, scores, CostModel())}
        a, b = boards["S1"], boards["S2"]
        assert a.total_cost == b.total_cost
        for p in (5.0, 10.0):
            assert a.ts_count[p] >= 1, "field A needs a top scientist for the check to bite"
            assert a.fhca_total[p] > 0
            assert abs(b.fhca_total[p] - 2 * a.fhca_total[p]) / a.fhca_total[p] < 1e-12
            assert abs(a.fss_fhca[p] - b.fss_fhca[p]) / a.fss_fhca[p] < 1e-12


def test_criterion_6_byte_identical_reruns(tmp_path):
    with criterion(6, "identical inputs produce byte-identical report trees and manifests"):
        corpus_dir = tmp_path / "corpus"
        generate(SynthParams(seed=6, n_udas=4, n_fields_per_uda=2,
                             professors_per_field=(8, 15)), corpus_dir)
        config = {
            "inputs": {name: f"corpus/{name}.csv"
                       for name in ("taxonomy", "researchers", "publications", "authorships")},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(config_path), "--out", str(out_b)]) == 0
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b and files_a
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


def test_criterion_7_structural_mimicry(default_result, tmp_path):
    with criterion(7, "every table shape present with the expected schema"):
        result = default_result
        out = tmp_path / "out"
        for fmt in ("csv", "json", "markdown"):
            render(result.bundle, fmt, out)
        for name in ("summary", "disciplines", "fields", "correlations", "quadrants", "avg_rank"):
            for ext in ("csv", "json", "md"):
                assert (out / "reports" / f"{name}.{ext}").exists()

        # dataset summary: per-discipline rows plus a de-duplicated overall row
        summary = result.summary
        assert len(summary.rows) == 11
        assert sum(r.n_professors for r in summary.rows) == summary.overall.n_professors
        per_uda_pubs = sum(r.n_publications for r in summary.rows)
        assert summary.overall.n_publications < per_uda_pubs  # cross-discipline co-authorship
        for row in list(summary.rows) + [summary.overall]:
            assert row.hca_counts[5.0] <= row.hca_counts[10.0] <= row.n_publications

        # four-indicator scoreboard over all fields
        assert len(result.boards) == 44
        ids = [r.indicator_id for r in result.rankings]
        assert ids == ["fss_ts_5", "fss_ts_10", "fss_fhca_5", "fss_fhca_10"]

        # symmetric unit-diagonal correlation matrix
        matrix = result.correlations.values
        assert len(matrix) == 4
        for i in range(4):
            assert matrix[i][i] == pytest.approx(1.0)
            for j in range(4):
                assert matrix[i][j] == pytest.approx(matrix[j][i])

        # disjoint strong/weak unions, both non-trivial on the default corpus
        assert result.quadrant.strong_union
        assert result.quadrant.weak_union
        assert not (result.quadrant.strong_union & result.quadrant.weak_union)

        # top-k / bottom-k average-rank lists
        assert not result.avg_rank.truncated
        assert result.avg_rank.entries[0].position == 1
        assert result.avg_rank.entries[-1].position == 44
        avg_values = [e.avg_rank for e in result.avg_rank.entries]
        assert avg_values == sorted(avg_values)
