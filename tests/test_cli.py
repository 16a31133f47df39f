from __future__ import annotations

import builtins
import csv
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import MINI_AUTHORSHIPS, MINI_PUBLICATIONS, MINI_RESEARCHERS, MINI_TAXONOMY, write_csvs
from fieldstrength import cli
from fieldstrength.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")
TABLE_NAMES = ("summary", "disciplines", "fields", "correlations", "quadrants", "avg_rank")


def write_config(tmp_path: Path, corpus_dir: Path, **extra) -> Path:
    config = {
        "inputs": {
            "taxonomy": str(corpus_dir / "taxonomy.csv"),
            "researchers": str(corpus_dir / "researchers.csv"),
            "publications": str(corpus_dir / "publications.csv"),
            "authorships": str(corpus_dir / "authorships.csv"),
        },
    }
    config.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


@pytest.fixture
def mini_config(tmp_path) -> Path:
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_csvs(corpus, MINI_TAXONOMY, MINI_RESEARCHERS, MINI_PUBLICATIONS, MINI_AUTHORSHIPS)
    return write_config(tmp_path, corpus)


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    """One synthetic corpus, one full run; shared by the read-only tests."""
    tmp = tmp_path_factory.mktemp("cli-run")
    corpus = tmp / "corpus"
    assert main(["synth", "--out", str(corpus), "--seed", "11",
                 "--n-udas", "3", "--n-fields-per-uda", "2"]) == 0
    config = write_config(tmp, corpus)
    out = tmp / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    return tmp, config, out


def test_validate_clean_corpus(mini_config, capsys):
    assert main(["validate", "--config", str(mini_config)]) == 0
    assert "0 errors" in capsys.readouterr().out


def test_validate_reports_dangling_key(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_csvs(corpus, MINI_TAXONOMY, MINI_RESEARCHERS, MINI_PUBLICATIONS,
               MINI_AUTHORSHIPS + ["phantom,r1"])
    config = write_config(tmp_path, corpus)
    assert main(["validate", "--config", str(config)]) == 1
    out = capsys.readouterr().out
    assert "phantom" in out and "dangling_reference" in out


def test_validate_min_years_drop_is_warning_not_error(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_csvs(corpus, MINI_TAXONOMY,
               MINI_RESEARCHERS + ["r2,S1,2012,full", "r2,S1,2013,full"],
               MINI_PUBLICATIONS, MINI_AUTHORSHIPS)
    config = write_config(tmp_path, corpus)
    assert main(["validate", "--config", str(config)]) == 0
    assert "dropped 1 researchers_below_min_years" in capsys.readouterr().out


def test_run_writes_expected_layout(synth_run):
    _, _, out = synth_run
    for name in ("summary", "disciplines", "fields", "correlations", "quadrants", "avg_rank"):
        for ext in ("csv", "json", "md"):
            assert (out / "reports" / f"{name}.{ext}").exists()
    for name in ("scoreboard.csv", "hca_flags.csv", "researcher_scores.csv",
                 "analytics.json", "manifest.json"):
        assert (out / name).exists()


def test_run_determinism_across_out_dirs(synth_run):
    tmp, config, out = synth_run
    out2 = tmp / "out2"
    assert main(["run", "--config", str(config), "--out", str(out2)]) == 0
    files_a = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (out / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def test_manifest_contents(synth_run):
    _, _, out = synth_run
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["version"]
    assert len(manifest["config_hash"]) == 64
    assert set(manifest["inputs"]) == {"taxonomy", "researchers", "publications", "authorships"}
    for entry in manifest["inputs"].values():
        assert len(entry["sha256"]) == 64
    assert manifest["counts"]["fields"] == 6
    assert {f["path"] for f in manifest["files"]} >= {"scoreboard.csv", "analytics.json"}


def test_scoreboard_header_contract(synth_run):
    _, _, out = synth_run
    header = (out / "scoreboard.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == ("sds,uda,n_professors,total_cost,ts_5,ts_10,"
                      "fss_ts_5,fss_ts_10,fss_fhca_5,fss_fhca_10,fallback_flags")


def test_extra_percentile_adds_columns(tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--seed", "12",
                 "--n-udas", "2", "--n-fields-per-uda", "2"]) == 0
    config = write_config(tmp_path, corpus, hca_percentiles=[1, 5, 10])
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    header = (out / "scoreboard.csv").read_text(encoding="utf-8").splitlines()[0]
    assert "ts_1,ts_5,ts_10" in header and "fss_fhca_1" in header
    analytics = json.loads((out / "analytics.json").read_text(encoding="utf-8"))
    assert len(analytics["spearman"]["indicator_ids"]) == 6
    flags = (out / "hca_flags.csv").read_text(encoding="utf-8")
    assert ",1," in flags  # three flag sets exported


def test_report_rerenders_identically(synth_run):
    tmp, _, out = synth_run
    re_out = tmp / "rerender"
    assert main(["report", "--bundle", str(out / "analytics.json"),
                 "--out", str(re_out)]) == 0
    for path in sorted((out / "reports").iterdir()):
        assert (re_out / "reports" / path.name).read_bytes() == path.read_bytes()


def test_repeated_formats_are_written_once(synth_run, tmp_path, capsys):
    _, config, out = synth_run
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "run"),
                 "--format", "csv, json,csv,json"]) == 0
    paths = [f["path"] for f in json.loads(
        (tmp_path / "run" / "manifest.json").read_text(encoding="utf-8"))["files"]]
    assert len(paths) == len(set(paths)) == 12 + 4
    capsys.readouterr()
    assert main(["report", "--bundle", str(out / "analytics.json"), "--out", str(tmp_path / "re"),
                 "--format", "markdown,json,markdown"]) == 0
    printed = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
    assert printed == [f"reports/{name}.{ext}" for ext in ("md", "json")
                       for name in sorted(TABLE_NAMES)]


@pytest.mark.parametrize("edit, field", [
    (lambda a: a.update(field_rows=None), "field_rows"),
    (lambda a: a.update(correlation=a.pop("spearman")), "correlation"),
    (lambda a: a.pop("quadrant"), "quadrant"),
    (lambda a: a["quadrant"].pop("medians"), "medians"),
    (lambda a: a["quadrant"].pop("ambiguous"), "ambiguous"),
    (lambda a: a.update(rankings={}), "rankings"),  # the layout that restated field_rows
    (lambda a: a["quadrant"]["strong"].append("X99/99"), "X99/99"),
    (lambda a: a["field_rows"][0].pop("fss_fhca_10"), "fss_fhca_10"),
    (lambda a: a["field_rows"][0].update(fss_ts_5=None), "fss_ts_5"),
    (lambda a: a["field_rows"][0].update(fss_fhca_5=True), "fss_fhca_5"),
    (lambda a: a["spearman"]["indicator_ids"].append("sds"), "indicator_ids"),  # not a number
    (lambda a: a["spearman"]["indicator_ids"].append("fss_ts_50"), "indicator_ids"),
])
def test_report_rejects_malformed_artifact(synth_run, tmp_path, capsys, edit, field):
    _, _, out = synth_run
    analytics = json.loads((out / "analytics.json").read_text(encoding="utf-8"))
    edit(analytics)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(analytics), encoding="utf-8")
    assert main(["report", "--bundle", str(bad), "--out", str(tmp_path / "re")]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("section, row, key, value", [
    ("field_rows", 0, "total_cost", None),
    ("field_rows", 0, "ts_5", True),
    ("summary_rows", 0, "n_publications", "12"),
    ("discipline_rows", 0, "ts_5", 1.5),
], ids=["null cost", "bool count", "string count", "fractional count"])
def test_report_checks_row_values(synth_run, tmp_path, capsys, section, row, key, value):
    # each row value must be of its column's kind; a bad one is named, and
    # nothing is rendered
    _, _, out = synth_run
    analytics = json.loads((out / "analytics.json").read_text(encoding="utf-8"))
    analytics[section][row][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(analytics), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--bundle", str(bad), "--out", str(tmp_path / "re")]) == 2
    assert f"{section}[{row}].{key} must be" in capsys.readouterr().err
    assert not (tmp_path / "re").exists()


def test_report_ranks_the_values_the_bundle_holds(synth_run, tmp_path):
    _, _, out = synth_run
    analytics = json.loads((out / "analytics.json").read_text(encoding="utf-8"))
    rows = analytics["field_rows"]
    raised = min(rows, key=lambda row: row["fss_ts_5"])
    raised["fss_ts_5"] = max(row["fss_ts_5"] for row in rows) + 1.0
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(analytics), encoding="utf-8")
    assert main(["report", "--bundle", str(edited), "--out", str(tmp_path / "re")]) == 0
    reports = tmp_path / "re" / "reports"
    fields_md = (reports / "fields.md").read_text(encoding="utf-8")
    strongest = fields_md.split("## strongest 10: fss_ts_5\n")[1].splitlines()
    assert strongest[3].startswith(f"| {raised['sds']} | ") and strongest[3].endswith(" | 1.00 |")
    with open(reports / "avg_rank.csv", newline="", encoding="utf-8") as handle:
        avg_rows = [row for row in csv.DictReader(handle) if row["sds"] == raised["sds"]]
    assert avg_rows  # fewer fields than top_bottom_k: every field is listed
    for row in avg_rows:
        assert row["fss_ts_5_rank"] == "1.00"
        ranks = [float(value) for key, value in row.items() if key.endswith("_rank")
                 and key != "avg_rank"]
        assert row["avg_rank"] == f"{sum(ranks) / len(ranks):.2f}"


def test_top_bottom_k_above_the_field_count_is_noted_once(tmp_path, caplog):
    corpus, out, again = tmp_path / "corpus", tmp_path / "out", tmp_path / "again"
    corpus.mkdir()
    write_csvs(corpus, MINI_TAXONOMY, MINI_RESEARCHERS, MINI_PUBLICATIONS, MINI_AUTHORSHIPS)
    config = write_config(tmp_path, corpus, top_bottom_k=5)  # the mini corpus has one field
    with caplog.at_level(logging.DEBUG, logger="fieldstrength.analytics"):
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert [r for r in caplog.records if r.name == "fieldstrength.analytics"] == []
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert [w for w in manifest["warnings"] if "truncated" in w] == [
        "average-rank lists truncated: requested 5, have 1 fields"]
    note = "\n*fewer than 5 fields; lists truncated*\n"
    assert note in (out / "reports" / "avg_rank.md").read_text(encoding="utf-8")
    assert main(["report", "--bundle", str(out / "analytics.json"), "--out", str(again)]) == 0
    assert note in (again / "reports" / "avg_rank.md").read_text(encoding="utf-8")


def test_synth_seed_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["--n-udas", "2", "--n-fields-per-uda", "1", "--seed", "42"]
    assert main(["synth", "--out", str(a), *args]) == 0
    assert main(["synth", "--out", str(b), *args]) == 0
    for name in ("taxonomy", "researchers", "publications", "authorships"):
        assert (a / f"{name}.csv").read_bytes() == (b / f"{name}.csv").read_bytes()


def test_unknown_config_key_is_config_error(tmp_path, mini_config, capsys):
    raw = json.loads(mini_config.read_text(encoding="utf-8"))
    raw["hca_percentile"] = [5]  # typo
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["validate", "--config", str(bad)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_bad_percentile_is_config_error(tmp_path, mini_config):
    raw = json.loads(mini_config.read_text(encoding="utf-8"))
    raw["hca_percentiles"] = [0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["validate", "--config", str(bad)]) == 2


@pytest.mark.parametrize("value", [-3, 2.5, "5", True])
def test_bad_top_bottom_k_is_config_error(tmp_path, mini_config, capsys, value):
    raw = json.loads(mini_config.read_text(encoding="utf-8"))
    raw["top_bottom_k"] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "top_bottom_k" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("roster_only_baseline", "false"),
    ("salary", []),
    ("salary", {"assistant": "54628", "associate": 66821, "full": 101301}),
    ("window", "2012"),
    ("window", [2012, 2016, 2020]),
    ("export_hca_flags", "no"),
    ("hca_percentiles", "10"),
    ("min_years", 3.0),
    ("capital", "42693"),
    ("census_date", 20181030),
])
def test_mistyped_config_value_is_config_error(tmp_path, mini_config, capsys, key, value):
    raw = json.loads(mini_config.read_text(encoding="utf-8"))
    raw[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, literal, named", [
    ("hca_percentiles", "[]", "hca_percentiles"),
    ("capital", "NaN", "NaN"),
    ("ts_fence_multiplier", "NaN", "NaN"),
    ("reporting_scale", "Infinity", "Infinity"),
    ("capital", "-Infinity", "-Infinity"),
    ("capital", "1e999", "capital"),  # a literal that overflows to inf
])
def test_non_finite_or_empty_config_value_is_config_error(tmp_path, mini_config, capsys,
                                                         key, literal, named):
    text = mini_config.read_text(encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace("{", f'{{"{key}": {literal},', 1), encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_report_rejects_negative_top_bottom_k(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--seed", "6",
                 "--n-udas", "2", "--n-fields-per-uda", "4"]) == 0
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, corpus)), "--out", str(out)]) == 0
    analytics = json.loads((out / "analytics.json").read_text(encoding="utf-8"))
    analytics["top_bottom_k"] = -3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(analytics), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--bundle", str(bad), "--out", str(tmp_path / "re")]) == 2
    assert "top_bottom_k must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "re").exists()


def test_int_valued_floats_write_the_same_bytes(tmp_path, mini_config):
    raw = json.loads(mini_config.read_text(encoding="utf-8"))
    outputs = []
    for capital, share in ((42693.0, 1.0), (42693, 1)):
        raw.update(capital=capital, research_time_share=share)
        path = tmp_path / f"config_{len(outputs)}.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / f"out_{len(outputs)}"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("scoreboard.csv", "researcher_scores.csv")])
    assert outputs[0] == outputs[1]


def test_missing_input_file_is_io_error(tmp_path, mini_config):
    raw = json.loads(mini_config.read_text(encoding="utf-8"))
    raw["inputs"]["publications"] = str(tmp_path / "nope.csv")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["validate", "--config", str(bad)]) == 3


def test_unknown_format_is_config_error(mini_config, tmp_path):
    assert main(["run", "--config", str(mini_config),
                 "--out", str(tmp_path / "o"), "--format", "xml"]) == 2


def test_unknown_synth_param_rejected(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"n_uda": 3}), encoding="utf-8")
    assert main(["synth", "--out", str(tmp_path / "x"), "--params", str(params)]) == 2


def test_non_finite_synth_param_rejected(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text('{"hca_fraction": NaN}', encoding="utf-8")
    assert main(["synth", "--out", str(tmp_path / "x"), "--params", str(params)]) == 2
    assert "NaN" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("params, flags, named", [
    ({"window": 5}, [], "window"),
    ({"window": [2016, 2012]}, [], "window"),
    ({"seed": "x"}, [], "seed"),
    ({"seed": -1}, [], "seed"),
    (None, ["--seed", "-3"], "seed"),
    ({"n_udas": 1.5}, [], "n_udas"),
    ({"rank_mix": [1]}, [], "rank_mix"),
    ({"n_categories": 0}, [], "n_categories"),
    ({"min_years": 0}, [], "min_years"),
    ({"pubs_per_professor_mean": -1}, [], "pubs_per_professor_mean"),
    ({"citation_log_sigma": -1}, [], "citation_log_sigma"),
    ([1, 2], [], "must be a JSON object"),
])
def test_bad_synth_param_is_config_error(tmp_path, capsys, params, flags, named):
    argv = ["synth", "--out", str(tmp_path / "x"), *flags]
    if params is not None:
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params), encoding="utf-8")
        argv += ["--params", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and named in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("log_mean", [100, 1000])
def test_synth_with_huge_citation_mean_validates(tmp_path, capsys, log_mean):
    # exp(100) is ~1e43 and exp(1000) overflows a float: each draw is clipped
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"citation_log_mean": log_mean, "n_udas": 2,
                                  "n_fields_per_uda": 2, "professors_per_field": [4, 6],
                                  "hca_fraction": 0.5}), encoding="utf-8")
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--params", str(params)]) == 0
    assert main(["validate", "--config", str(write_config(tmp_path, corpus))]) == 0
    assert "0 errors" in capsys.readouterr().out


def test_params_file_seed_survives_unless_flag_given(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"seed": 7, "n_udas": 1, "n_fields_per_uda": 1,
                                  "professors_per_field": [4, 5]}), encoding="utf-8")
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["synth", "--out", str(a), "--params", str(params)]) == 0
    assert main(["synth", "--out", str(b), "--params", str(params)]) == 0
    assert (a / "publications.csv").read_bytes() == (b / "publications.csv").read_bytes()
    assert main(["synth", "--out", str(c), "--params", str(params), "--seed", "8"]) == 0
    assert (a / "publications.csv").read_bytes() != (c / "publications.csv").read_bytes()


def test_rows_before_a_bad_byte_are_validated(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    paths = write_csvs(corpus, MINI_TAXONOMY, MINI_RESEARCHERS,
                       ["p1,2013,7,2,A", "p2,2013,x,2,A"], MINI_AUTHORSHIPS)
    with open(paths.publications, "ab") as handle:
        handle.write(b"p3,2013,1,1,Caf\xe9\n")
    assert main(["validate", "--config", str(write_config(tmp_path, corpus))]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "2 errors",
        f"  malformed_row: citations is not an integer: 'x' [{paths.publications}:3]",
        "  malformed_row: not valid UTF-8 (invalid continuation byte); rest of file skipped "
        f"[{paths.publications}:4]",
    ]


def test_oversized_number_or_field_is_a_validation_error(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    big = "1" + "0" * 25
    paths = write_csvs(corpus, MINI_TAXONOMY, MINI_RESEARCHERS,
                       ["p1,2013,7,2,A", f"p2,2013,{big},1,A", "p3,2013,7,1," + "A" * 140_000],
                       MINI_AUTHORSHIPS)
    config = str(write_config(tmp_path, corpus))
    assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 1
    assert main(["validate", "--config", config]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "2 errors",
        f"  malformed_row: citations must be <= {2**63 - 1}, got {big} [{paths.publications}:3]",
        "  malformed_row: field larger than field limit (131072); rest of file skipped "
        f"[{paths.publications}:4]",
    ]


def test_line_break_inside_an_id_is_a_validation_error(tmp_path, capsys):
    # csv.writer would write the id back unquoted on some Python versions,
    # so no output may hold it: the run stops before writing anything
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    paths = write_csvs(corpus, MINI_TAXONOMY, [], MINI_PUBLICATIONS, MINI_AUTHORSHIPS)
    rows = [row.split(",") for row in MINI_RESEARCHERS]
    rows[1][0] = "x\ry"
    with open(paths.researchers, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, quoting=csv.QUOTE_ALL, lineterminator="\n")
        writer.writerows([["researcher_id", "sds_code", "year", "rank"], *rows])
    config, out = str(write_config(tmp_path, corpus)), tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 1
    issue = f"malformed_row: line break inside researcher_id [{paths.researchers}:4]"
    assert issue in capsys.readouterr().err
    assert not out.exists()
    assert main(["validate", "--config", config]) == 1
    assert capsys.readouterr().out.splitlines() == ["1 errors", f"  {issue}"]


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"inputs": {}, "capital": "caf\xe9"}')
    assert main(["validate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"config {config} is not valid UTF-8" in err
    assert "Traceback" not in err


def test_unexpected_exception_is_internal_error(tmp_path, mini_config, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom\non two lines")

    monkeypatch.setattr(cli, "run_pipeline", broken)
    assert main(["run", "--config", str(mini_config), "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: boom on two lines\n"


def test_internal_error_traceback_only_at_debug_level(mini_config, tmp_path):
    script = ("import sys\n"
              "from fieldstrength import cli\n"
              "def broken(*args, **kwargs):\n"
              "    raise RuntimeError('boom')\n"
              "cli.run_pipeline = broken\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    for level, traceback in (("warning", False), ("debug", True)):
        done = subprocess.run([sys.executable, "-c", script, "--log-level", level, "run",
                               "--config", str(mini_config), "--out", str(tmp_path / level)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 4
        assert done.stderr.endswith("internal error: RuntimeError: boom\n")
        assert ("Traceback" in done.stderr) is traceback


def test_run_output_does_not_depend_on_the_hash_seed(default_synth_dir, tmp_path):
    # string hashing is salted per process, so an order taken from a set of
    # strings would show up as two different trees
    config = write_config(tmp_path, default_synth_dir)
    trees = []
    for seed in ("1", "2"):
        out = tmp_path / f"out_{seed}"
        subprocess.run([sys.executable, "-m", "fieldstrength.cli", "run", "--config", str(config),
                        "--out", str(out)], check=True,
                       env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed))
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert trees[0] == trees[1] and len(trees[0]) == 23


def test_output_does_not_depend_on_builtin_sum(default_synth_dir, tmp_path, monkeypatch):
    # Python 3.12 made sum() of floats compensated, so a float total taken
    # with sum() would differ in the last bits between interpreters; math.fsum
    # (correctly rounded) stands in for the newer sum here
    real_sum = builtins.sum

    def fsum_sum(iterable, start=0):
        items = list(iterable)
        if any(isinstance(item, float) for item in items):
            return math.fsum([start, *items])
        return real_sum(items, start)

    config = write_config(tmp_path, default_synth_dir)
    trees = []
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(builtins, "sum", fsum_sum)
        out = tmp_path / f"out_{patched}"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    monkeypatch.undo()
    assert fsum_sum([0.1] * 10) != real_sum([0.1] * 10)  # the stand-in does change float sums
    assert trees[0] == trees[1] and len(trees[0]) == 23
