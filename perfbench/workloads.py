"""Benchmark workloads: seeded corpus generation, corruption and run configs.

Every corpus comes from ``fieldstrength.synth`` with the seed given on the
command line. ``invalid_10x`` then corrupts about 1% of publication rows and
1% of authorship rows, chosen by the same seed, and derives the validation
issues the engine must report from its own corruption list.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from fieldstrength import errors
from fieldstrength.synth import SynthParams, generate

CORRUPT_SHARE = 0.01
INPUT_NAMES = ("taxonomy", "researchers", "publications", "authorships")
ISSUE_KINDS = frozenset(v for k, v in vars(errors).items() if k.startswith("ISSUE_"))


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict
    percentiles: tuple[float, ...] = (5.0, 10.0)
    corrupt: bool = False

    @property
    def expected_exit(self) -> int:
        return 1 if self.corrupt else 0


NATIONAL = {"n_udas": 14, "n_fields_per_uda": 25}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("national_10x", NATIONAL),
        # Half the 10x disciplines and categories: cells of about 13 members
        # as at full size, in half the run time (see README.md).
        Workload(
            "threshold_sweep",
            {"n_udas": 7, "n_fields_per_uda": 25, "professors_per_field": (8, 16),
             "n_categories": 1000, "home_category_bias": 0.0},
            percentiles=tuple(0.5 * i for i in range(1, 21)),
        ),
        Workload("invalid_10x", NATIONAL, corrupt=True),
    )
}


@dataclass
class Inputs:
    """One generated corpus with its run config."""

    params: SynthParams
    config_path: Path
    config: dict
    csv_paths: dict[str, Path]
    expected_issues: dict[str, int] = field(default_factory=dict)


def build(workload: Workload, seed: int, dest: Path) -> Inputs:
    """Generate the corpus and config of one workload under dest."""
    params = SynthParams(seed=seed, **workload.synth)
    paths = generate(params, dest / "corpus")
    expected = corrupt(paths, seed) if workload.corrupt else {}
    config = {
        "inputs": {name: f"corpus/{paths[name].name}" for name in INPUT_NAMES},
        "hca_percentiles": list(workload.percentiles),
        "ts_fence_multiplier": 1.5,
        "export_hca_flags": True,
        "export_researcher_scores": True,
    }
    config_path = dest / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return Inputs(params, config_path, config, paths, expected)


def _read(path: Path) -> list[list[str]]:
    # synth writes no quoted fields, so a row is its line split on commas
    text = path.read_text(encoding="utf-8")
    if '"' in text:
        raise ValueError(f"{path} has quoted fields; cannot corrupt it line by line")
    return [line.split(",") for line in text.splitlines()]


def _write(path: Path, rows: list[list[str]]) -> None:
    path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")


def corrupt(paths: dict[str, Path], seed: int, share: float = CORRUPT_SHARE) -> dict[str, int]:
    """Corrupt a seeded share of publication and authorship rows; return
    the issue count per kind that validation must report."""
    rng = random.Random(seed)
    n_pubs = _data_rows(paths["publications"])
    n_links = _data_rows(paths["authorships"])
    bad_pubs = rng.sample(range(n_pubs), max(1, round(share * n_pubs)))
    bad_links = rng.sample(range(n_links), max(1, round(share * n_links)))
    return apply_corruption(paths, bad_pubs, bad_links)


def apply_corruption(paths: dict[str, Path], bad_pubs: list[int],
                     bad_links: list[int]) -> dict[str, int]:
    """Give the publications at the given data-row indices a non-integer
    citation count and the authorships an unknown researcher."""
    pubs = _read(paths["publications"])
    links = _read(paths["authorships"])
    pub_rows, link_rows = pubs[1:], links[1:]
    for i in bad_pubs:
        pub_rows[i][2] = "n/a"
    for i in bad_links:
        link_rows[i][1] = f"X{i:07d}"
    _write(paths["publications"], pubs)
    _write(paths["authorships"], links)
    return expected_issues({pub_rows[i][0] for i in bad_pubs},
                           [row[0] for row in link_rows], bad_links)


def expected_issues(bad_pub_ids: set[str], link_pub_ids: list[str],
                    bad_link_rows: list[int]) -> dict[str, int]:
    """Issues caused by the corruption, cascades included.

    Each corrupted publication is one malformed row. Every authorship of
    a corrupted publication then dangles on its pub_id, and a corrupted
    authorship of an intact publication dangles on its researcher_id.
    """
    cascaded = sum(1 for pub in link_pub_ids if pub in bad_pub_ids)
    direct = sum(1 for i in bad_link_rows if link_pub_ids[i] not in bad_pub_ids)
    counts = {
        errors.ISSUE_MALFORMED_ROW: len(bad_pub_ids),
        errors.ISSUE_DANGLING_REFERENCE: cascaded + direct,
    }
    return {kind: n for kind, n in counts.items() if n}


def issue_counts(text: str) -> dict[str, int]:
    """Issue count per kind in a `validate` or `run` error listing."""
    counts: dict[str, int] = {}
    for line in text.splitlines():
        kind = line.strip().split(":", 1)[0]
        if kind in ISSUE_KINDS:
            counts[kind] = counts.get(kind, 0) + 1
    return counts


def _data_rows(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle) - 1


def data_rows(paths: dict[str, Path]) -> int:
    """Data rows (header excluded) of the input CSVs."""
    return sum(_data_rows(path) for path in paths.values())
