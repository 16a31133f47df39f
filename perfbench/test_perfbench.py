"""Tests of the benchmark's own set-up.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from fieldstrength import cli
from fieldstrength.errors import ISSUE_DANGLING_REFERENCE, ISSUE_MALFORMED_ROW

import workloads

SMALL = workloads.Workload("small", {"n_udas": 2, "n_fields_per_uda": 3}, corrupt=True)


def _digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_gives_byte_identical_corpora(tmp_path):
    first = workloads.build(SMALL, 7, tmp_path / "a")
    second = workloads.build(SMALL, 7, tmp_path / "b")
    other = workloads.build(SMALL, 8, tmp_path / "c")
    assert _digests(tmp_path / "a") == _digests(tmp_path / "b")
    assert _digests(tmp_path / "a") != _digests(tmp_path / "c")
    assert first.expected_issues == second.expected_issues


def _write_csv(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_expected_issues_match_a_hand_built_case(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    paths = {name: corpus / f"{name}.csv" for name in workloads.INPUT_NAMES}
    _write_csv(paths["taxonomy"], ["sds_code,sds_name,uda_code,uda_name", "S1,F,U1,D"])
    _write_csv(paths["researchers"], ["researcher_id,sds_code,year,rank"] + [
        f"{r},S1,{y},full" for r in ("R1", "R2") for y in (2012, 2013, 2014)])
    _write_csv(paths["publications"],
               ["pub_id,year,citations,author_count,subject_categories"]
               + [f"P{i},2012,{i},3,C1" for i in range(1, 5)])
    _write_csv(paths["authorships"], ["pub_id,researcher_id", "P1,R1", "P1,R2", "P2,R1",
                                      "P3,R2", "P4,R1", "P4,R2"])

    # P1 is malformed, so both of its authorships dangle (one of them is
    # also corrupted, which adds nothing); P3's corrupted authorship dangles.
    expected = workloads.apply_corruption(paths, bad_pubs=[0], bad_links=[1, 3])
    assert expected == {ISSUE_MALFORMED_ROW: 1, ISSUE_DANGLING_REFERENCE: 3}

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"inputs": {n: f"corpus/{n}.csv" for n in paths}}))
    assert cli.main(["validate", "--config", str(config)]) == 1
    assert workloads.issue_counts(capsys.readouterr().out) == expected
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert workloads.issue_counts(capsys.readouterr().err) == expected
