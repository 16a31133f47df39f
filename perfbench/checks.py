"""Output checks against the engine's own brute-force oracles.

Each check recomputes part of the written results with
``fieldstrength.oracles`` and returns one message per mismatch:

- ``oracle_top_p`` on sampled (year, category) cells against
  ``hca_flags.csv``: equal for single-category publications, a subset for
  the rest, which may be flagged through another of their cells;
- ``oracle_quartiles`` on every field of ``researcher_scores.csv`` (it is
  cheap): the Tukey fence, every ``is_ts`` verdict and the field's TS count
  in ``scoreboard.csv``;
- ``oracle_spearman`` on sampled indicator pairs of ``scoreboard.csv``
  against the matrix in ``analytics.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from pathlib import Path

from fieldstrength.oracles import oracle_quartiles, oracle_spearman, oracle_top_p

CELL_PAIR_BUDGET = 10_000_000  # member comparisons oracle_top_p may make per check
MAX_CELLS = 300
MAX_PAIRS = 8
SPEARMAN_TOL = 1e-10
# A score this close to the fence, but not equal to it, is not judged: the
# engine's and the oracle's quartiles may differ in the last bits.
FENCE_TOL = 1e-9


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def check_tree(out_dir: Path, publications_csv: Path, percentiles: list[float],
               multiplier: float, seed: int) -> list[str]:
    rng = random.Random(seed)
    try:
        board = _rows(out_dir / "scoreboard.csv")
        return (_check_flags(out_dir, publications_csv, percentiles, rng)
                + _check_fences(out_dir, board, multiplier)
                + _check_spearman(out_dir, board, rng))
    except (OSError, KeyError, ValueError) as exc:  # a missing file, column or bad value
        return [f"cannot check the outputs: {exc!r}"]


def _check_flags(out_dir: Path, publications_csv: Path, percentiles: list[float],
                 rng: random.Random) -> list[str]:
    cells: dict[tuple[str, str], list[tuple[str, int]]] = {}
    n_categories: dict[str, int] = {}
    for row in _rows(publications_csv):
        categories = {c.strip() for c in row["subject_categories"].split(";") if c.strip()}
        n_categories[row["pub_id"]] = len(categories)
        for category in categories:
            cells.setdefault((row["year"], category), []).append(
                (row["pub_id"], int(row["citations"])))
    flagged: dict[float, set[str]] = {}
    for row in _rows(out_dir / "hca_flags.csv"):
        flagged.setdefault(float(row["p"]), set()).add(row["pub_id"])

    keys = sorted(cells)
    rng.shuffle(keys)
    problems = []
    budget = CELL_PAIR_BUDGET
    for key in keys[:MAX_CELLS]:
        members = cells[key]
        cost = len(members) ** 2 * len(percentiles)
        if cost > budget and budget < CELL_PAIR_BUDGET:
            break
        budget -= cost
        single = {pub for pub, _ in members if n_categories[pub] == 1}
        for p in percentiles:
            oracle = oracle_top_p(members, p)
            engine = flagged.get(p, set())
            if engine & single != oracle & single:
                problems.append(f"cell {key} p={p}: single-category flags differ from oracle_top_p")
            if not (oracle - single) <= engine:
                problems.append(f"cell {key} p={p}: multi-category top-p members not flagged")
    return problems


def _check_fences(out_dir: Path, board: list[dict[str, str]], multiplier: float) -> list[str]:
    scores: dict[str, dict[str, list[tuple[float, bool]]]] = {}
    for row in _rows(out_dir / "researcher_scores.csv"):
        scores.setdefault(row["sds"], {}).setdefault(row["p"], []).append(
            (float(row["fhca_score"]), row["is_ts"] == "true"))
    board_by_sds = {row["sds"]: row for row in board}

    problems = []
    for sds, by_p in scores.items():
        for label, entries in by_p.items():
            q1, q3 = oracle_quartiles([score for score, _ in entries])
            fence = q3 + multiplier * (q3 - q1)
            for score, is_ts in entries:
                if score != fence and abs(score - fence) <= FENCE_TOL * max(1.0, abs(fence)):
                    continue
                if (score > fence) != is_ts:
                    problems.append(f"field {sds} p={label}: is_ts disagrees with the fence "
                                    f"{fence!r} for score {score!r}")
            n_ts = sum(is_ts for _, is_ts in entries)
            if int(board_by_sds[sds][f"ts_{label}"]) != n_ts:
                problems.append(f"field {sds} p={label}: scoreboard TS count differs from "
                                f"{n_ts} is_ts rows")
    return problems


def _check_spearman(out_dir: Path, board: list[dict[str, str]],
                    rng: random.Random) -> list[str]:
    spearman = json.loads((out_dir / "analytics.json").read_text(encoding="utf-8"))["spearman"]
    ids, matrix = spearman["indicator_ids"], spearman["matrix"]
    pairs = [(i, j) for i in range(len(ids)) for j in range(i + 1, len(ids))]
    problems = []
    for i, j in rng.sample(pairs, min(MAX_PAIRS, len(pairs))):
        x = [float(row[ids[i]]) for row in board]
        y = [float(row[ids[j]]) for row in board]
        expected, got = oracle_spearman(x, y), matrix[i][j]
        if (expected is None) != (got is None) or (
                expected is not None and abs(expected - got) > SPEARMAN_TOL):
            problems.append(f"spearman({ids[i]}, {ids[j]}) = {got!r}, oracle {expected!r}")
    return problems


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())
