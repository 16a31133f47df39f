from __future__ import annotations

import csv
import dataclasses
import json

import pytest

from conftest import mk_corpus
from fieldstrength.errors import InputIOError
from fieldstrength.model import CostModel
from fieldstrength.pipeline import run_pipeline
from fieldstrength.reporting import K_RANK, ReportBundle, _fmt, _jr, render

YEARS = {2012: "assistant", 2013: "assistant", 2014: "assistant"}

TABLE_NAMES = ("summary", "disciplines", "fields", "correlations", "quadrants", "avg_rank")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def render_all(bundle, out):
    entries = []
    for fmt in ("csv", "json", "markdown"):
        entries += render(bundle, fmt, out)
    return entries


def test_render_writes_every_table_in_every_format(default_result, tmp_path):
    entries = render_all(default_result.bundle, tmp_path)
    assert len(entries) == len(TABLE_NAMES) * 3
    for name in TABLE_NAMES:
        for ext in ("csv", "json", "md"):
            assert (tmp_path / "reports" / f"{name}.{ext}").exists()


def test_render_is_byte_deterministic(default_result, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    render_all(default_result.bundle, a)
    render_all(default_result.bundle, b)
    for path_a in sorted((a / "reports").iterdir()):
        path_b = b / "reports" / path_a.name
        assert path_a.read_bytes() == path_b.read_bytes()


def test_bundle_round_trips_through_json(default_result, tmp_path):
    payload = json.loads(json.dumps(default_result.bundle.to_dict()))
    rebuilt = ReportBundle.from_dict(payload)
    a, b = tmp_path / "a", tmp_path / "b"
    render_all(default_result.bundle, a)
    render_all(rebuilt, b)
    for path_a in sorted((a / "reports").iterdir()):
        assert path_a.read_bytes() == (b / "reports" / path_a.name).read_bytes()


def test_empty_corpus_renders_header_only_tables(tmp_path):
    corpus = mk_corpus([], [], [], {"S1": "U1"})
    result = run_pipeline(corpus, CostModel())
    entries = render(result.bundle, "csv", tmp_path)
    by_name = {e["path"]: e["rows"] for e in entries}
    assert by_name["reports/fields.csv"] == 0
    assert by_name["reports/quadrants.csv"] == 0
    assert by_name["reports/avg_rank.csv"] == 0
    # summary keeps its all-zero overall row; correlations keep the 4 indicator rows
    fields = (tmp_path / "reports" / "fields.csv").read_text(encoding="utf-8")
    assert fields.count("\n") == 1  # header only


def test_single_field_corpus_discipline_row_equals_overall(tmp_path):
    pubs = [(f"p{i}", 2012, i * 3, 1, ["A"]) for i in range(30)]
    links = [(f"p{i}", f"r{i % 5}") for i in range(30)]
    researchers = [(f"r{i}", "S1", YEARS) for i in range(5)]
    corpus = mk_corpus(researchers, pubs, links, {"S1": "U1"})
    result = run_pipeline(corpus, CostModel())
    render(result.bundle, "csv", tmp_path)
    rows = read_csv(tmp_path / "reports" / "disciplines.csv")
    assert len(rows) == 2
    uda_row, overall = rows
    assert uda_row["uda"] == "U1" and overall["uda"] == "ALL"
    for column in uda_row:
        if column != "uda":
            assert uda_row[column] == overall[column]


def test_summary_percentages_recompute_from_counts(default_result, tmp_path):
    render(default_result.bundle, "csv", tmp_path)
    for row in read_csv(tmp_path / "reports" / "summary.csv"):
        for pl in ("5", "10"):
            count = int(row[f"hca_{pl}"])
            pubs = int(row["n_publications"])
            share = float(row[f"hca_{pl}_share"])
            expected = 100.0 * count / pubs if pubs else 0.0
            assert abs(share - expected) <= 0.05


def test_rounding_conventions(default_result, tmp_path):
    render(default_result.bundle, "csv", tmp_path)
    rows = read_csv(tmp_path / "reports" / "fields.csv")
    for row in rows:
        assert "." not in row["total_cost"]
        for key in row:
            if key.startswith("fss_"):
                whole, frac = row[key].split(".")
                assert len(frac) == 2


def test_quadrant_csv_lists_strong_then_weak(default_result, tmp_path):
    render(default_result.bundle, "csv", tmp_path)
    rows = read_csv(tmp_path / "reports" / "quadrants.csv")
    sets = [row["set"] for row in rows]
    assert sets == sorted(sets, key=lambda s: s != "strong")
    strong = {r["sds"] for r in rows if r["set"] == "strong"}
    weak = {r["sds"] for r in rows if r["set"] == "weak"}
    assert not (strong & weak)


def test_unknown_format_rejected(default_result, tmp_path):
    with pytest.raises(ValueError):
        render(default_result.bundle, "xml", tmp_path)


def test_unwritable_directory_is_io_error(default_result, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory", encoding="utf-8")
    with pytest.raises(InputIOError):
        render(default_result.bundle, "csv", blocker)


def test_markdown_has_extreme_lists(default_result, tmp_path):
    for k in (10, 0):
        bundle = dataclasses.replace(default_result.bundle, top_bottom_k=k)
        render(bundle, "markdown", tmp_path / str(k))
        text = (tmp_path / str(k) / "reports" / "fields.md").read_text(encoding="utf-8")
        assert f"strongest {k}: fss_ts_5" in text
        assert f"weakest {k}: fss_fhca_10" in text
        lists = [section.splitlines() for section in text.split("## ")
                 if section.startswith(("strongest", "weakest"))]
        assert len(lists) == 2 * len(bundle.spearman["indicator_ids"])
        for lines in lists:
            # title, blank, column header and separator, then one line per field
            assert len([line for line in lines if line.startswith("| ")]) - 2 == k, lines[0]


def test_rank_at_a_decimal_tie_renders_alike_in_json_and_csv():
    # an average of 40 half-integer ranks can be 24.575, stored just below it: both round down
    assert _fmt(24.575, K_RANK) == "24.57"  # csv and md cells
    assert _jr(24.575, K_RANK) == 24.57  # json rows
