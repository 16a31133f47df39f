"""Acceptance suite: the seven release criteria, each printing one
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).

Tolerances are pinned here and nowhere else: cost constants to 0.5 euro,
flag sets exact against the brute-force oracle, quartiles to 1e-12,
rank correlations to 1e-10, the intensity-rescaling identity to 1e-12
relative, byte identity for reruns.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from conftest import flagged_ids, members, mk_corpus, mk_fields, mk_table, one_cell
from fieldstrength.analytics import correlation_matrix, rank_indicator
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
            assert flagged_ids(flag_hcas(cells, [p]), p) == oracle_top_p(members(*cells), p)

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
            fields = mk_fields([(f"F{i:03d}", {5.0: x[i]}, {5.0: y[i]}) for i in range(n)])
            got = correlation_matrix([rank_indicator(fields, "fss_ts", 5.0),
                                      rank_indicator(fields, "fss_fhca", 5.0)]).values[0][1]
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
            assert (flagged_ids(flag_hcas(cells, [5.0]), 5.0)
                    <= flagged_ids(flag_hcas(cells, [10.0]), 10.0))

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
        assert base.fields.sds_codes == inflated.fields.sds_codes
        assert (inflated.fields.fss_ts == base.fields.fss_ts / 2.0).all()
        assert (inflated.fields.fss_fhca == base.fields.fss_fhca / 2.0).all()
        for b_rank, i_rank in zip(base.rankings, inflated.rankings):
            assert (b_rank.ranks == i_rank.ranks).all()
        assert base.quadrant.strong_union == inflated.quadrant.strong_union
        assert base.quadrant.weak_union == inflated.quadrant.weak_union
        assert base.correlations.values == inflated.correlations.values

        # reporting-scale invariance rides along: scale x 2 doubles every FSS
        doubled_scale = run_pipeline(default_corpus, CostModel(reporting_scale=2e8))
        assert (doubled_scale.fields.fss_ts == 2.0 * base.fields.fss_ts).all()
        assert base.quadrant == doubled_scale.quadrant or (
            base.quadrant.strong_union == doubled_scale.quadrant.strong_union
            and base.quadrant.weak_union == doubled_scale.quadrant.weak_union
        )

        # (d) discipline aggregates are convex combinations of member fields
        uda = np.array(base.fields.uda)
        for g, name in enumerate(base.discipline_rows.uda):
            for attr in ("fss_ts", "fss_fhca"):
                values = getattr(base.fields, attr)[uda == name]
                row = getattr(base.discipline_rows, attr)[g]
                assert (values.min(axis=0) - 1e-9 <= row).all()
                assert (row <= values.max(axis=0) + 1e-9).all()


def test_criterion_4_zero_path_end_to_end(tmp_path):
    with criterion(4, "zero-HCA corpus: all-zero indicators, empty unions, null correlations"):
        corpus = load_synth(tmp_path / "zero", seed=4, n_udas=3, n_fields_per_uda=2,
                            professors_per_field=(6, 10), pubs_per_professor_mean=6.0,
                            hca_fraction=0.0)
        result = run_pipeline(corpus, CostModel())
        roster = set(corpus.authors_by_pub)
        for p in (5.0, 10.0):
            assert not (flagged_ids(result.flags, p) & roster)
        assert (result.fields.ts_count == 0).all()
        assert (result.fields.fss_ts == 0.0).all()
        assert (result.fields.fss_fhca == 0.0).all()
        assert result.quadrant.strong_union == frozenset()
        assert result.quadrant.weak_union == frozenset()
        for line in result.correlations.values:
            assert all(v is None for v in line)
        assert result.summary.overall.hca_counts[5.0] == 0
        # the bundle still renders a complete, valid report directory
        entries = render(result.bundle, ["csv", "json", "markdown"], tmp_path / "out")
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
        fields = build_field_scoreboards(corpus, scores, CostModel())
        assert fields.sds_codes == ("S1", "S2")
        a, b = 0, 1
        assert fields.total_cost[a] == fields.total_cost[b]
        for j in range(2):
            assert fields.ts_count[a, j] >= 1, "field A needs a top scientist for the check to bite"
            fhca_a, fhca_b = fields.fhca_total[a, j], fields.fhca_total[b, j]
            assert fhca_a > 0
            assert abs(fhca_b - 2 * fhca_a) / fhca_a < 1e-12
            fss_a, fss_b = fields.fss_fhca[a, j], fields.fss_fhca[b, j]
            assert abs(fss_a - fss_b) / fss_a < 1e-12


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
        render(result.bundle, ["csv", "json", "markdown"], out)
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
        assert len(result.fields) == 44
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
        assert sorted(result.avg_rank.order.tolist()) == list(range(44))
        avg_values = result.avg_rank.avg_rank[result.avg_rank.order].tolist()
        assert avg_values == sorted(avg_values)


# sha256 of the synth-default run's output (seed 42, default config). A change
# that alters output on purpose updates these and says so in CHANGES.md.
# analytics.json is compared parsed, spearman.matrix included: its entries
# are exact in any BLAS summation order (analytics.correlation_matrix).
GOLDEN_DIGESTS = {
    "scoreboard.csv": "d6da2aef0ee808ad6a7b33877af3b4e483d77ddbae8a02c0c3aa1da1d61535b2",
    "researcher_scores.csv": "8e73e5de70177ade6632a633142ef7b0e9ba7e05ca0d4dc0fe87742ca08b8309",
    "hca_flags.csv": "35027b5ffae0a356c0643f96cf5f047acadd595a4c7e0d2cf5a83fa3705951fa",
    "reports/avg_rank.csv": "89badf84b0cb53f180ba9e83123fefe01ae36312c30852075e26dba6aabc7e94",
    "reports/avg_rank.json": "aced521b31d9b57b8c5af08327404cd9110df814c51f4937ccb41a04d9a8501d",
    "reports/avg_rank.md": "906081783073ef8b6beab8e0feaad1791cccb9df0ca8e1a38efe5bbf9f283740",
    "reports/correlations.csv": "02df3fd434f2ade8a3edc5e0065f41cb23ff9835b3d0b1da964a3ee544e6e849",
    "reports/correlations.json": "7fcbd08054b72f4b50b0d2be2fe702b566df4553cd83ae311997d3868328305f",
    "reports/correlations.md": "93700bad250512678bd183451f964826538b11a4ce56edc5856f457c16bb760d",
    "reports/disciplines.csv": "79b8bd3d7ce47162ee2c2958838ceb0b4660ad98dd5ed1127a74e15e3b4862a4",
    "reports/disciplines.json": "b9e96c636b07e398105c276f9a1b4e929d9370e1de850cffc4b455d490cb54d5",
    "reports/disciplines.md": "d7b6be0ed384f21c1097a27dcf40e553ed4ec16f8c3543b3e81d1205764224ba",
    "reports/fields.csv": "fe2c5b98a4c02d70b09fffba828897d3c824b92fc462ecaa7a3a3cd37d1976c4",
    "reports/fields.json": "c2641ee474eecfb6c6a4e415398c5ae978401d71c084b0821d8a54022d038b02",
    "reports/fields.md": "ab71abe6684f7015530a7751ff05e59dabfee6cd0b0d11b58ee2178caa3f3c6c",
    "reports/quadrants.csv": "4a566a99507b02496c55a4c296fc65fd116dc581b826319a753e18862683350f",
    "reports/quadrants.json": "0d8b350961cec1e1b9204e6291b4da917186a71e454bac980eb80b16a0b3bbaa",
    "reports/quadrants.md": "5f95815a63f5dca6231482cbb018e7359be49f04f9c2456c9da3b074a8da3fad",
    "reports/summary.csv": "70089ff9143f3d7d3cd3c3a878cb264b0283908e07815d1da51a997a4d02d0da",
    "reports/summary.json": "e87f5d8f8d327648645a4f5e5faf13444dcb6743679619f48b53a3ec6d75c00b",
    "reports/summary.md": "5cdc03744efb2de27be6d7ce6ecb92b3bc2d7f5a2c7b8e586d672133a57e4e5f",
    "analytics.json": "c09ea811f7843110f45ec3fb14b11fcd214088b87965f2231ccd31ac8d850461",
}


def _golden_digests(out) -> dict[str, str]:
    digests = {}
    for name in ["scoreboard.csv", "researcher_scores.csv", "hca_flags.csv"] + sorted(
            f"reports/{p.name}" for p in (out / "reports").iterdir()):
        digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    analytics = json.loads((out / "analytics.json").read_text(encoding="utf-8"))
    digests["analytics.json"] = hashlib.sha256(
        json.dumps(analytics, sort_keys=True).encode("utf-8")).hexdigest()
    return digests


def test_golden_output_digests(default_synth_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"inputs": {
        name: str(default_synth_dir / f"{name}.csv")
        for name in ("taxonomy", "researchers", "publications", "authorships")}}),
        encoding="utf-8")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert _golden_digests(tmp_path / "out") == GOLDEN_DIGESTS
