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
import io
import logging
from dataclasses import dataclass, field
from itertools import chain, dropwhile
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

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


@dataclass(frozen=True, eq=False)
class Corpus:
    """Validated, immutable join of the four input tables, held as columns.

    Publication row i is pub_ids[i], with year[i], citations[i] and
    author_count[i]; rows are in ascending pub_id order. Its subject
    categories are categories[c] for the codes c in
    category_code[category_start[i]:category_start[i + 1]]; categories is
    sorted, so codes order as the category strings do. Researcher row j is
    the j-th entry of researchers, in ascending researcher_id order. Kept
    authorship k links publication row link_pub[k] to researcher row
    link_researcher[k]; the links are sorted, so in ascending (pub_id,
    researcher_id) order.
    """

    taxonomy: Taxonomy
    researchers: Mapping[str, ResearcherRecord]
    pub_ids: tuple[str, ...]
    year: np.ndarray
    citations: np.ndarray
    author_count: np.ndarray
    categories: tuple[str, ...]
    category_start: np.ndarray
    category_code: np.ndarray
    link_pub: np.ndarray
    link_researcher: np.ndarray
    config: AnalysisConfig
    report: LoadReport

    @property
    def has_roster_author(self) -> np.ndarray:
        """Per publication row, whether a kept link names it."""
        linked = np.zeros(len(self.pub_ids), dtype=bool)
        linked[self.link_pub] = True
        return linked

    @property
    def authorships(self) -> np.ndarray:
        """The kept links, one (pub row, researcher row) pair per row."""
        return np.column_stack((self.link_pub, self.link_researcher))

    @property
    def authors_by_pub(self) -> dict[str, tuple[str, ...]]:
        return _group(self.pub_ids, self.link_pub, list(self.researchers), self.link_researcher)

    @property
    def pubs_by_researcher(self) -> dict[str, tuple[str, ...]]:
        return _group(list(self.researchers), self.link_researcher, self.pub_ids, self.link_pub)

    @property
    def baseline_only_pubs(self) -> frozenset[str]:
        """Publications with no roster author: part of the citation
        baseline but invisible to researcher scoring."""
        return frozenset(self.pub_ids[row] for row in np.flatnonzero(~self.has_roster_author))


def _group(key_ids, keys, value_ids, values) -> dict[str, tuple[str, ...]]:
    out: dict[str, list[str]] = {}
    for key, value in zip(keys.tolist(), values.tolist()):
        out.setdefault(key_ids[key], []).append(value_ids[value])
    return {key: tuple(group) for key, group in out.items()}


def build_corpus(taxonomy: Taxonomy, researchers: Sequence[ResearcherRecord],
                 pub_ids: Sequence[str], year: Sequence[int], citations: Sequence[int],
                 author_count: Sequence[int], category_sets: Sequence[tuple[str, ...]],
                 category_set_of: Sequence[int], link_pub: Sequence[int],
                 link_researcher: Sequence[int], config: AnalysisConfig,
                 report: LoadReport) -> Corpus:
    """The Corpus of validated tables given in any row order.

    Publication i is pub_ids[i] with year[i], citations[i], author_count[i]
    and the categories category_sets[category_set_of[i]], a non-empty tuple
    of distinct strings. Each link is a distinct (index into pub_ids, index
    into researchers) pair. Researchers active fewer than config.min_years
    years are dropped with their links, and so, with
    config.roster_only_baseline, are the publications then left without a
    roster author; report counts each drop. Rows are sorted by id and the
    links by their rows.
    """
    researcher_order = sorted((i for i, r in enumerate(researchers)
                               if len(r.rank_by_year) >= config.min_years),
                              key=lambda i: researchers[i].researcher_id)
    report.parsed["researchers"] = len(researchers)
    report.kept["researchers"] = len(researcher_order)
    report.drop("researchers_below_min_years", len(researchers) - len(researcher_order))
    link_researcher = _positions(researcher_order, len(researchers))[
        np.asarray(link_researcher, dtype=np.intp)]
    kept = link_researcher >= 0
    link_pub, link_researcher = np.asarray(link_pub, dtype=np.intp)[kept], link_researcher[kept]
    report.drop("authorships_of_dropped_researchers", len(kept) - len(link_pub))
    report.kept["authorships"] = len(link_pub)

    linked = np.zeros(len(pub_ids), dtype=bool)
    linked[link_pub] = True
    n_baseline_only = len(pub_ids) - int(linked.sum())
    if config.roster_only_baseline:
        report.drop("publications_without_roster_author", n_baseline_only)
    elif n_baseline_only:
        report.warnings.append(f"{n_baseline_only} publications have no roster author; "
                               "kept as citation baseline only")
    pub_order = sorted(np.flatnonzero(linked).tolist() if config.roster_only_baseline
                       else range(len(pub_ids)), key=pub_ids.__getitem__)
    report.kept["publications"] = len(pub_order)
    pub_rows = np.array(pub_order, dtype=np.intp)
    link_pub = _positions(pub_rows, len(pub_ids))[link_pub]
    link_order = np.lexsort((link_researcher, link_pub))

    # categories in CSR form, gathered from the codes of the distinct category sets
    categories = sorted(set(chain.from_iterable(category_sets)))
    code = {category: i for i, category in enumerate(categories)}
    set_codes = np.array([code[c] for s in category_sets for c in s], dtype=np.int32)
    set_size = np.array([len(s) for s in category_sets], dtype=np.intp)
    set_start = np.cumsum(set_size) - set_size
    set_of = np.asarray(category_set_of, dtype=np.intp)[pub_rows]
    sizes = set_size[set_of]
    category_start = np.concatenate(([0], np.cumsum(sizes)))
    gather = np.repeat(set_start[set_of] - category_start[:-1], sizes)
    gather += np.arange(category_start[-1])

    return Corpus(
        taxonomy=taxonomy,
        researchers={researchers[i].researcher_id: researchers[i] for i in researcher_order},
        pub_ids=tuple(map(pub_ids.__getitem__, pub_order)),
        year=np.asarray(year, dtype=np.int64)[pub_rows],
        citations=np.asarray(citations, dtype=np.int64)[pub_rows],
        author_count=np.asarray(author_count, dtype=np.int64)[pub_rows],
        categories=tuple(categories),
        category_start=category_start,
        category_code=set_codes[gather],
        link_pub=link_pub[link_order],
        link_researcher=link_researcher[link_order],
        config=config,
        report=report,
    )


def _positions(order: Sequence[int], n: int) -> np.ndarray:
    """Where each of range(n) stands in order, or -1 if it is not there."""
    position = np.full(n, -1, dtype=np.intp)
    position[order] = np.arange(len(order))
    return position


class _Issues(list):
    """The validation issues of one load, in the order they are found."""

    def add(self, kind: str, message: str, path: Path, line: Optional[int] = None,
            key: Optional[str] = None) -> None:
        self.append(ValidationIssue(kind, message, str(path), line, key))


def _read_rows(path: Path, header: list[str], issues: _Issues, stopped: set[Path]):
    """Yield (line_number, row) for data rows; enforce the exact header.

    An empty file, a bad header or a byte that is not UTF-8 ends the file
    with one issue, and adds path to stopped. The rows before the line of a
    bad byte are read as usual.
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise InputIOError(f"cannot read {path}: {exc}") from exc
    width = len(header)
    with handle:
        reader = csv.reader(handle)
        try:
            if _header_ok(next(reader, None), header, path, issues, stopped):
                for row in reader:
                    if not row:
                        continue
                    line = reader.line_num
                    if len(row) != width:
                        issues.add(ISSUE_MALFORMED_ROW, f"expected {width} fields, got {len(row)}",
                                   path, line)
                        continue
                    yield line, row
            return
        except UnicodeDecodeError:
            consumed = reader.line_num
    yield from _rows_before_bad_byte(path, header, issues, stopped, consumed)


def _header_ok(first: Optional[list[str]], header: list[str], path: Path, issues: _Issues,
               stopped: set[Path]) -> bool:
    if first != header:
        issues.add(ISSUE_MALFORMED_ROW, "empty file, header row required" if first is None
                   else f"bad header {first!r}, expected {header!r}", path, 1)
        stopped.add(path)
    return first == header


def _rows_before_bad_byte(path: Path, header: list[str], issues: _Issues, stopped: set[Path],
                          consumed: int):
    """The error path of _read_rows: the decoder reads ahead in chunks, so
    a bad byte can stop the reading before the rows in front of it are
    handed out. Parse the file up to the bad byte's line again, yield the
    rows that end after line `consumed` (and check the header if it was not
    read), then report the bad byte."""
    try:
        data = path.read_bytes()
        data.decode("utf-8")
    except OSError as exc:
        raise InputIOError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        bad_byte, reason = exc.start, exc.reason
    else:
        raise InputIOError(f"{path} changed while it was read")
    lines = data[:bad_byte].splitlines(keepends=True)
    if lines and not lines[-1].endswith((b"\n", b"\r")):
        lines.pop()  # the start of the bad line
    reader = csv.reader(io.StringIO(b"".join(lines).decode("utf-8"), newline=""))
    rows = dropwhile(lambda _: reader.line_num <= consumed, reader)
    if lines and not consumed and not _header_ok(next(rows, None), header, path, issues, stopped):
        return
    for row in rows:
        if len(row) == len(header):
            yield reader.line_num, row
        elif row:
            issues.add(ISSUE_MALFORMED_ROW, f"expected {len(header)} fields, got {len(row)}",
                       path, reader.line_num)
    issues.add(ISSUE_MALFORMED_ROW, f"not valid UTF-8 ({reason}); rest of file skipped",
               path, len(lines) + 1)
    stopped.add(path)


def _parse_int(text: str, what: str, path: Path, line: int, issues: _Issues,
               minimum: Optional[int] = None) -> Optional[int]:
    try:
        value = int(text)
    except ValueError:
        issues.add(ISSUE_MALFORMED_ROW, f"{what} is not an integer: {text!r}", path, line)
        return None
    if minimum is not None and value < minimum:
        issues.add(ISSUE_MALFORMED_ROW, f"{what} must be >= {minimum}, got {value}", path, line)
        return None
    return value


def _load_taxonomy(path: Path, issues: _Issues) -> Optional[Taxonomy]:
    sds_to_uda: dict[str, str] = {}
    sds_names: dict[str, str] = {}
    uda_names: dict[str, str] = {}
    for line, row in _read_rows(path, TAXONOMY_HEADER, issues, set()):
        sds_code, sds_name, uda_code, uda_name = map(str.strip, row)
        if not sds_code or not uda_code:
            issues.add(ISSUE_MALFORMED_ROW, "empty code", path, line)
        elif sds_code in sds_to_uda:
            issues.add(ISSUE_DUPLICATE_KEY, f"duplicate sds_code {sds_code!r}", path, line,
                       sds_code)
        elif uda_code in uda_names and uda_names[uda_code] != uda_name:
            issues.add(ISSUE_CONSTRAINT, f"conflicting names for uda {uda_code!r}", path, line,
                       uda_code)
        else:
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

    The load builds no reference cycles, only strings, ints, tuples, lists,
    dicts, arrays and researcher records, so the cyclic garbage collector
    is paused while it runs: otherwise it rescans the growing heap over and
    over. The caller's collector state is restored on return and on error.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _load_corpus(paths, config)
    finally:
        if was_enabled:
            gc.enable()


def _load_corpus(paths: CorpusPaths, config: AnalysisConfig) -> Corpus:
    issues = _Issues()
    stopped: set[Path] = set()
    report = LoadReport()
    window = set(config.years)

    taxonomy = _load_taxonomy(paths.taxonomy, issues)

    # researchers.csv: one row per (researcher, active year)
    path = paths.researchers
    rank_rows: dict[str, dict[int, str]] = {}
    researcher_sds: dict[str, str] = {}
    out_of_window_years = 0
    n_rows = 0
    for line, row in _read_rows(path, RESEARCHERS_HEADER, issues, stopped):
        n_rows += 1
        researcher_id, sds_code, year_text, rank = map(str.strip, row)
        rank = rank.lower()
        year = _parse_int(year_text, "year", path, line, issues)
        if year is None:
            continue
        if rank not in RANKS:
            issues.add(ISSUE_MALFORMED_ROW, f"unknown rank {rank!r}", path, line)
            continue
        if taxonomy is not None and sds_code not in taxonomy.sds_to_uda:
            issues.add(ISSUE_DANGLING_REFERENCE,
                       f"researcher {researcher_id!r} references unknown sds {sds_code!r}",
                       path, line, sds_code)
            continue
        prev_sds = researcher_sds.get(researcher_id)
        if prev_sds is not None and prev_sds != sds_code:
            issues.add(ISSUE_CONSTRAINT,
                       f"researcher {researcher_id!r} listed in both {prev_sds!r} and {sds_code!r}",
                       path, line, researcher_id)
            continue
        researcher_sds[researcher_id] = sds_code
        if year not in window:
            out_of_window_years += 1
            continue
        years = rank_rows.setdefault(researcher_id, {})
        if year in years:
            issues.add(ISSUE_DUPLICATE_KEY,
                       f"duplicate (researcher, year) key ({researcher_id!r}, {year})",
                       path, line, researcher_id)
            continue
        years[year] = rank
    report.parsed["researcher_rows"] = n_rows
    report.drop("researcher_years_outside_window", out_of_window_years)

    # publications.csv, into columns; each distinct category list is parsed once
    path = paths.publications
    pub_row: dict[str, int] = {}  # each parsed pub_id to its column row, -1 when not kept
    pub_ids, years, citation_counts, author_counts, category_set_of = [], [], [], [], []
    category_sets: list[tuple[str, ...]] = []
    set_of_text: dict[str, int] = {}  # each category list as written to its category_sets index
    out_of_window_pubs = 0
    n_rows = 0
    for line, row in _read_rows(path, PUBLICATIONS_HEADER, issues, stopped):
        n_rows += 1
        pub_id, year_text, cit_text, auth_text, cats_text = map(str.strip, row)
        try:
            year, citations, author_count = int(year_text), int(cit_text), int(auth_text)
            numbers_ok = citations >= 0 and author_count >= 1
        except ValueError:
            numbers_ok = False
        if not numbers_ok:  # report each bad number with its own message
            _parse_int(year_text, "year", path, line, issues)
            _parse_int(cit_text, "citations", path, line, issues, minimum=0)
            _parse_int(auth_text, "author_count", path, line, issues, minimum=1)
            continue
        if pub_id in pub_row:
            issues.add(ISSUE_DUPLICATE_KEY, f"duplicate pub_id {pub_id!r}", path, line, pub_id)
            continue
        pub_row[pub_id] = -1
        set_id = set_of_text.get(cats_text)
        if set_id is None:
            set_id = set_of_text[cats_text] = len(category_sets)
            category_sets.append(
                tuple(sorted({c.strip() for c in cats_text.split(";") if c.strip()})))
        if not category_sets[set_id]:
            issues.add(ISSUE_EMPTY_CATEGORIES, f"publication {pub_id!r} has no subject categories",
                       path, line, pub_id)
            continue
        if year not in window:
            out_of_window_pubs += 1
            continue
        pub_row[pub_id] = len(pub_ids)
        pub_ids.append(pub_id)
        years.append(year)
        citation_counts.append(citations)
        author_counts.append(author_count)
        category_set_of.append(set_id)
    report.parsed["publications"] = n_rows
    report.drop("publications_outside_window", out_of_window_pubs)

    # authorships.csv, into (pub row, researcher index) pairs; a link is
    # kept only when its publication is, so only kept links can repeat
    path = paths.authorships
    researcher_index = {researcher_id: i for i, researcher_id in enumerate(researcher_sds)}
    n_kept_pubs = len(pub_ids)
    link_keys: set[int] = set()  # researcher index * n_kept_pubs + pub row
    link_pub, link_researcher = [], []
    links_to_dropped_pubs = 0
    n_rows = 0
    for line, row in _read_rows(path, AUTHORSHIPS_HEADER, issues, stopped):
        n_rows += 1
        pub_id, researcher_id = map(str.strip, row)
        row_of_pub = pub_row.get(pub_id)
        if row_of_pub is None and paths.publications not in stopped:
            issues.add(ISSUE_DANGLING_REFERENCE, f"authorship references unknown pub_id {pub_id!r}",
                       path, line, pub_id)
            continue
        researcher = researcher_index.get(researcher_id)
        if researcher is None:
            if paths.researchers not in stopped:
                issues.add(ISSUE_DANGLING_REFERENCE,
                           f"authorship references unknown researcher_id {researcher_id!r}",
                           path, line, researcher_id)
                continue
            researcher = researcher_index[researcher_id] = len(researcher_index)
        if row_of_pub is None or row_of_pub < 0:
            links_to_dropped_pubs += 1
            continue
        key = researcher * n_kept_pubs + row_of_pub
        if key in link_keys:
            issues.add(ISSUE_DUPLICATE_KEY, f"duplicate authorship ({pub_id!r}, {researcher_id!r})",
                       path, line, pub_id)
            continue
        link_keys.add(key)
        link_pub.append(row_of_pub)
        link_researcher.append(researcher)
    del link_keys, pub_row
    report.parsed["authorships"] = n_rows
    report.drop("authorships_of_dropped_publications", links_to_dropped_pubs)

    links_per_pub = np.bincount(np.array(link_pub, dtype=np.intp), minlength=len(pub_ids))
    over_linked = np.flatnonzero(np.array(author_counts, dtype=np.int64) < links_per_pub)
    for row in sorted(over_linked.tolist(), key=pub_ids.__getitem__):
        issues.add(ISSUE_CONSTRAINT, f"publication {pub_ids[row]!r} has author_count "
                   f"{author_counts[row]} but {links_per_pub[row]} roster authorships",
                   paths.publications, key=pub_ids[row])

    if issues:
        raise CorpusValidationError(issues)
    assert taxonomy is not None

    researchers = [ResearcherRecord(rid, sds, dict(sorted(rank_rows.get(rid, {}).items())))
                   for rid, sds in researcher_sds.items()]
    corpus = build_corpus(taxonomy, researchers, pub_ids, years, citation_counts, author_counts,
                          category_sets, category_set_of, link_pub, link_researcher, config, report)
    for key, value in sorted(report.dropped.items()):
        log.info("load_corpus dropped %d: %s", value, key)
    return corpus
