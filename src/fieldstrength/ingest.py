"""CSV ingestion and validation of the four input tables.

All validation issues are collected before failing, each with its file
and line. Entities can also be *dropped* without failing (researchers
below the minimum activity, rows outside the window); every drop is
counted with a reason in the load report so that dropped + kept =
parsed always holds.
"""

from __future__ import annotations

import csv
import gc
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

from .errors import (
    ISSUE_CONSTRAINT,
    ISSUE_DANGLING_REFERENCE,
    ISSUE_DUPLICATE_KEY,
    ISSUE_EMPTY_CATEGORIES,
    ISSUE_MALFORMED_ROW,
    CorpusValidationError,
    InputIOError,
    ValidationIssue,
)
from .model import RANKS, AnalysisConfig, ResearcherRecord, Taxonomy

log = logging.getLogger(__name__)

TAXONOMY_HEADER = ["sds_code", "sds_name", "uda_code", "uda_name"]
RESEARCHERS_HEADER = ["researcher_id", "sds_code", "year", "rank"]
PUBLICATIONS_HEADER = ["pub_id", "year", "citations", "author_count", "subject_categories"]
AUTHORSHIPS_HEADER = ["pub_id", "researcher_id"]


@dataclass(frozen=True)
class PublicationRecord:
    """One indexed article with its citation count at the census date."""

    pub_id: str
    year: int
    citations: int
    author_count: int
    subject_categories: tuple[str, ...]


@dataclass(frozen=True)
class AuthorshipLink:
    pub_id: str
    researcher_id: str


@dataclass(frozen=True)
class CorpusPaths:
    taxonomy: Path
    researchers: Path
    publications: Path
    authorships: Path


@dataclass
class LoadReport:
    """Parse/keep/drop accounting for one load, plus free-form warnings."""

    parsed: dict[str, int] = field(default_factory=dict)
    kept: dict[str, int] = field(default_factory=dict)
    dropped: dict[str, int] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def drop(self, reason: str, count: int) -> None:
        if count:
            self.dropped[reason] = self.dropped.get(reason, 0) + count
            self.warnings.append(f"dropped {count} {reason}")


@dataclass(frozen=True)
class Corpus:
    """Validated, immutable join of the four input tables."""

    taxonomy: Taxonomy
    researchers: Mapping[str, ResearcherRecord]
    publications: Mapping[str, PublicationRecord]
    authorships: tuple[AuthorshipLink, ...]
    config: AnalysisConfig
    report: LoadReport

    @property
    def authors_by_pub(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {}
        for link in self.authorships:
            out.setdefault(link.pub_id, []).append(link.researcher_id)
        return {k: tuple(v) for k, v in out.items()}

    @property
    def pubs_by_researcher(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {}
        for link in self.authorships:
            out.setdefault(link.researcher_id, []).append(link.pub_id)
        return {k: tuple(v) for k, v in out.items()}

    @property
    def baseline_only_pubs(self) -> frozenset[str]:
        """Publications with no roster author: part of the citation
        baseline but invisible to researcher scoring."""
        linked = {link.pub_id for link in self.authorships}
        return frozenset(p for p in self.publications if p not in linked)


def _read_rows(path: Path, header: list[str], issues: list[ValidationIssue],
               stopped: set[Path]):
    """Yield (line_number, row) for data rows; enforce the exact header.

    An empty file, a bad header or a byte that is not UTF-8 ends the file
    with one issue, and adds path to stopped.
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise InputIOError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            first = next(reader, None)
            if first != header:
                problem = ("empty file, header row required" if first is None
                           else f"bad header {first!r}, expected {header!r}")
                issues.append(ValidationIssue(ISSUE_MALFORMED_ROW, problem, str(path), 1))
                stopped.add(path)
                return
            for row in reader:
                if not row:
                    continue
                line = reader.line_num
                if len(row) != len(header):
                    issues.append(ValidationIssue(ISSUE_MALFORMED_ROW,
                                                  f"expected {len(header)} fields, got {len(row)}",
                                                  str(path), line))
                    continue
                yield line, row
        except UnicodeDecodeError as exc:
            # exc.object is the chunk being decoded, which starts on the line after the last read
            line = reader.line_num + 1 + exc.object[:exc.start].count(b"\n")
            issues.append(ValidationIssue(
                ISSUE_MALFORMED_ROW, f"not valid UTF-8 ({exc.reason}); rest of file skipped",
                str(path), line))
            stopped.add(path)


def _parse_int(text: str, what: str, path: Path, line: int, issues: list[ValidationIssue],
               minimum: Optional[int] = None) -> Optional[int]:
    try:
        value = int(text)
    except ValueError:
        issues.append(
            ValidationIssue(ISSUE_MALFORMED_ROW, f"{what} is not an integer: {text!r}", str(path), line)
        )
        return None
    if minimum is not None and value < minimum:
        issues.append(
            ValidationIssue(ISSUE_MALFORMED_ROW, f"{what} must be >= {minimum}, got {value}", str(path), line)
        )
        return None
    return value


def _load_taxonomy(path: Path, issues: list[ValidationIssue]) -> Optional[Taxonomy]:
    sds_to_uda: dict[str, str] = {}
    sds_names: dict[str, str] = {}
    uda_names: dict[str, str] = {}
    for line, row in _read_rows(path, TAXONOMY_HEADER, issues, set()):
        sds_code, sds_name, uda_code, uda_name = map(str.strip, row)
        if not sds_code or not uda_code:
            issues.append(ValidationIssue(ISSUE_MALFORMED_ROW, "empty code", str(path), line))
            continue
        if sds_code in sds_to_uda:
            issues.append(
                ValidationIssue(ISSUE_DUPLICATE_KEY, f"duplicate sds_code {sds_code!r}",
                                str(path), line, key=sds_code)
            )
            continue
        if uda_code in uda_names and uda_names[uda_code] != uda_name:
            issues.append(
                ValidationIssue(ISSUE_CONSTRAINT,
                                f"conflicting names for uda {uda_code!r}", str(path), line, key=uda_code)
            )
            continue
        sds_to_uda[sds_code] = uda_code
        sds_names[sds_code] = sds_name
        uda_names[uda_code] = uda_name
    if issues:
        return None
    return Taxonomy(sds_to_uda=sds_to_uda, sds_names=sds_names, uda_names=uda_names)


def load_corpus(paths: CorpusPaths, config: AnalysisConfig) -> Corpus:
    """Parse and validate the four CSV files into a Corpus.

    Raises CorpusValidationError with the complete issue list if any
    hard error is found; drops (with report counts) researchers active
    fewer than config.min_years years and rows outside the window.
    References into a file that was not read to its end are not checked,
    so that its one issue does not cascade.

    The load builds no reference cycles, only strings, ints, tuples, dicts
    and frozen records, so the cyclic garbage collector is paused while it
    runs: otherwise it rescans the growing heap over and over. The
    caller's collector state is restored on return and on error.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _load_corpus(paths, config)
    finally:
        if was_enabled:
            gc.enable()


def _load_corpus(paths: CorpusPaths, config: AnalysisConfig) -> Corpus:
    issues: list[ValidationIssue] = []
    stopped: set[Path] = set()
    report = LoadReport()
    window = set(config.years)

    taxonomy = _load_taxonomy(paths.taxonomy, issues)

    # researchers.csv: one row per (researcher, active year)
    rank_rows: dict[str, dict[int, str]] = {}
    researcher_sds: dict[str, str] = {}
    out_of_window_years = 0
    n_rows = 0
    for line, row in _read_rows(paths.researchers, RESEARCHERS_HEADER, issues, stopped):
        n_rows += 1
        researcher_id, sds_code, year_text, rank = map(str.strip, row)
        rank = rank.lower()
        year = _parse_int(year_text, "year", paths.researchers, line, issues)
        if year is None:
            continue
        if rank not in RANKS:
            issues.append(
                ValidationIssue(ISSUE_MALFORMED_ROW, f"unknown rank {rank!r}",
                                str(paths.researchers), line)
            )
            continue
        if taxonomy is not None and sds_code not in taxonomy.sds_to_uda:
            issues.append(
                ValidationIssue(ISSUE_DANGLING_REFERENCE,
                                f"researcher {researcher_id!r} references unknown sds {sds_code!r}",
                                str(paths.researchers), line, key=sds_code)
            )
            continue
        prev_sds = researcher_sds.get(researcher_id)
        if prev_sds is not None and prev_sds != sds_code:
            issues.append(
                ValidationIssue(ISSUE_CONSTRAINT,
                                f"researcher {researcher_id!r} listed in both {prev_sds!r} and {sds_code!r}",
                                str(paths.researchers), line, key=researcher_id)
            )
            continue
        researcher_sds[researcher_id] = sds_code
        if year not in window:
            out_of_window_years += 1
            continue
        years = rank_rows.setdefault(researcher_id, {})
        if year in years:
            issues.append(
                ValidationIssue(ISSUE_DUPLICATE_KEY,
                                f"duplicate (researcher, year) key ({researcher_id!r}, {year})",
                                str(paths.researchers), line, key=researcher_id)
            )
            continue
        years[year] = rank
    report.parsed["researcher_rows"] = n_rows
    report.drop("researcher_years_outside_window", out_of_window_years)

    # publications.csv; each distinct category list is parsed once and its tuple shared
    publications: dict[str, PublicationRecord] = {}
    parsed_pub_ids: dict[str, str] = {}  # each id to itself, for the links to share
    categories_of: dict[str, tuple[str, ...]] = {}
    out_of_window_pubs = 0
    n_rows = 0
    for line, row in _read_rows(paths.publications, PUBLICATIONS_HEADER, issues, stopped):
        n_rows += 1
        pub_id, year_text, cit_text, auth_text, cats_text = map(str.strip, row)
        try:
            year, citations, author_count = int(year_text), int(cit_text), int(auth_text)
            numbers_ok = citations >= 0 and author_count >= 1
        except ValueError:
            numbers_ok = False
        if not numbers_ok:  # report each bad number with its own message
            _parse_int(year_text, "year", paths.publications, line, issues)
            _parse_int(cit_text, "citations", paths.publications, line, issues, minimum=0)
            _parse_int(auth_text, "author_count", paths.publications, line, issues, minimum=1)
            continue
        if pub_id in parsed_pub_ids:
            issues.append(
                ValidationIssue(ISSUE_DUPLICATE_KEY, f"duplicate pub_id {pub_id!r}",
                                str(paths.publications), line, key=pub_id)
            )
            continue
        parsed_pub_ids[pub_id] = pub_id
        categories = categories_of.get(cats_text)
        if categories is None:
            categories = categories_of[cats_text] = tuple(
                sorted({c.strip() for c in cats_text.split(";") if c.strip()}))
        if not categories:
            issues.append(
                ValidationIssue(ISSUE_EMPTY_CATEGORIES,
                                f"publication {pub_id!r} has no subject categories",
                                str(paths.publications), line, key=pub_id)
            )
            continue
        if year not in window:
            out_of_window_pubs += 1
            continue
        publications[pub_id] = PublicationRecord(pub_id, year, citations, author_count, categories)
    report.parsed["publications"] = n_rows
    report.drop("publications_outside_window", out_of_window_pubs)

    # authorships.csv; a dict keeps the links in file order, which is
    # usually already sorted, so the final sort is a linear pass
    links: dict[tuple[str, str], None] = {}
    researcher_ids = {r: r for r in researcher_sds}
    roster_links_per_pub: dict[str, int] = {}
    links_to_dropped_pubs = 0
    n_rows = 0
    for line, row in _read_rows(paths.authorships, AUTHORSHIPS_HEADER, issues, stopped):
        n_rows += 1
        pub_id, researcher_id = map(str.strip, row)
        # the strings read before replace this row's copies, so each id is stored once
        pub_id = parsed_pub_ids.get(pub_id, pub_id)
        researcher_id = researcher_ids.get(researcher_id, researcher_id)
        if pub_id not in parsed_pub_ids and paths.publications not in stopped:
            issues.append(
                ValidationIssue(ISSUE_DANGLING_REFERENCE,
                                f"authorship references unknown pub_id {pub_id!r}",
                                str(paths.authorships), line, key=pub_id)
            )
            continue
        if researcher_id not in researcher_sds and paths.researchers not in stopped:
            issues.append(
                ValidationIssue(ISSUE_DANGLING_REFERENCE,
                                f"authorship references unknown researcher_id {researcher_id!r}",
                                str(paths.authorships), line, key=researcher_id)
            )
            continue
        link = (pub_id, researcher_id)
        if link in links:
            issues.append(
                ValidationIssue(ISSUE_DUPLICATE_KEY,
                                f"duplicate authorship ({pub_id!r}, {researcher_id!r})",
                                str(paths.authorships), line, key=pub_id)
            )
            continue
        if pub_id not in publications:
            links_to_dropped_pubs += 1
            continue
        links[link] = None
        roster_links_per_pub[pub_id] = roster_links_per_pub.get(pub_id, 0) + 1
    report.parsed["authorships"] = n_rows
    report.drop("authorships_of_dropped_publications", links_to_dropped_pubs)

    over_linked = sorted(pub_id for pub_id, n_linked in roster_links_per_pub.items()
                         if publications[pub_id].author_count < n_linked)
    for pub_id in over_linked:
        issues.append(
            ValidationIssue(ISSUE_CONSTRAINT,
                            f"publication {pub_id!r} has author_count "
                            f"{publications[pub_id].author_count} "
                            f"but {roster_links_per_pub[pub_id]} roster authorships",
                            str(paths.publications), key=pub_id)
        )

    if issues:
        raise CorpusValidationError(issues)
    assert taxonomy is not None

    # Drop researchers with too few active years, then their links.
    researchers: dict[str, ResearcherRecord] = {}
    below_min = 0
    for researcher_id in sorted(researcher_sds):
        years = rank_rows.get(researcher_id, {})
        if len(years) < config.min_years:
            below_min += 1
            continue
        researchers[researcher_id] = ResearcherRecord(
            researcher_id=researcher_id,
            sds=researcher_sds[researcher_id],
            rank_by_year=dict(sorted(years.items())),
        )
    report.parsed["researchers"] = len(researcher_sds)
    report.kept["researchers"] = len(researchers)
    report.drop("researchers_below_min_years", below_min)

    kept_links = tuple(
        AuthorshipLink(p, r) for p, r in sorted(links)
        if r in researchers
    )
    report.drop("authorships_of_dropped_researchers", len(links) - len(kept_links))
    report.kept["authorships"] = len(kept_links)

    linked_pubs = {link.pub_id for link in kept_links}
    baseline_only = sorted(p for p in publications if p not in linked_pubs)
    if config.roster_only_baseline:
        for pub_id in baseline_only:
            del publications[pub_id]
        report.drop("publications_without_roster_author", len(baseline_only))
    elif baseline_only:
        report.warnings.append(
            f"{len(baseline_only)} publications have no roster author; "
            "kept as citation baseline only"
        )
    report.kept["publications"] = len(publications)

    publications = {pub_id: publications[pub_id] for pub_id in sorted(publications)}
    for key, value in sorted(report.dropped.items()):
        log.info("load_corpus dropped %d: %s", value, key)

    return Corpus(
        taxonomy=taxonomy,
        researchers=researchers,
        publications=publications,
        authorships=kept_links,
        config=config,
        report=report,
    )
