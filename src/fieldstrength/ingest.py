"""CSV ingestion and validation of the four input tables.

All validation issues are collected before failing, each with its file
and line. Entities can also be *dropped* without failing (researchers
below the minimum activity, rows outside the window); every drop is
counted with a reason in the load report so that dropped + kept =
parsed always holds.

researchers.csv, publications.csv and authorships.csv are each read once,
as bytes, by one reader of column rules, fed by one of two tokenizers that
fill the same field columns. The byte split finds the fields of a clean
file (unquoted, LF, no whitespace at a field's edge) with numpy;
csv.reader reads the bytes of any file the byte split declines, and
records the file's own issues. Array tests then single out the rows that
break a rule, and only those are decided in Python, in line order; each
row-level issue is worded by one _Issues method. Ids are joined by one
search over one integer key where they fit in 8 bytes, and category lists
are cut at ';' by bytes, so no Python object is made per row until
build_corpus turns the kept ids into strings. oracles.oracle_load states
the same rules as a row loop, the reference the tests hold the readers to.
"""

from __future__ import annotations

import csv
import gc
import io
import logging
from array import array
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import Optional, Sequence

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
from .model import RANKS, AnalysisConfig, Taxonomy

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
    sorted, so codes order as the category strings do. Roster row j is
    researcher_ids[j], in (sds, researcher_id) order; field f is sds_codes[f],
    of discipline udas[field_uda[f]] (udas sorted as str), and holds rows
    field_start[f]:field_start[f + 1]. rank[j, t] is the index into RANKS of
    row j's rank in active_years[t], -1 if it was not active then;
    active_years ascends and holds only the years in which some row is
    active. Kept authorship k links publication row link_pub[k] to roster
    row link_researcher[k]; the links are sorted by (pub row, roster row).
    """

    taxonomy: Taxonomy
    researcher_ids: tuple[str, ...]
    sds_codes: tuple[str, ...]
    udas: tuple[str, ...]
    field_uda: np.ndarray
    field_start: np.ndarray
    active_years: np.ndarray
    rank: np.ndarray
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
        return _group(self.pub_ids, self.link_pub, self.researcher_ids, self.link_researcher)

    @property
    def pubs_by_researcher(self) -> dict[str, tuple[str, ...]]:
        return _group(self.researcher_ids, self.link_researcher, self.pub_ids, self.link_pub)

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


def build_corpus(taxonomy: Taxonomy, researcher_ids: np.ndarray, researcher_sds: np.ndarray,
                 active_researcher: np.ndarray, active_year: np.ndarray,
                 active_rank: np.ndarray, pub_ids: np.ndarray, year: np.ndarray,
                 citations: np.ndarray, author_count: np.ndarray, categories: Sequence[str],
                 category_start: np.ndarray, category_code: np.ndarray, link_pub: np.ndarray,
                 link_researcher: np.ndarray, config: AnalysisConfig,
                 report: LoadReport) -> Corpus:
    """The Corpus of validated tables, given as arrays in any row order.

    Ids are arrays that order as the ids do: str, or their UTF-8 bytes.
    Researcher i is researcher_ids[i] of field researcher_sds[i]; active row
    k gives researcher active_researcher[k]'s rank RANKS[active_rank[k]] in
    the window year active_year[k], once per (researcher, year). Publication
    i is pub_ids[i] with year[i], citations[i], author_count[i] and the
    categories categories[c] for the codes c in
    category_code[category_start[i]:category_start[i + 1]]: sorted, distinct
    and never none; categories is sorted. Each link is a distinct (index into
    pub_ids, index into researcher_ids) pair. Researchers active fewer than
    config.min_years years are dropped with their links, and so, with
    config.roster_only_baseline, are the publications then left without a
    roster author; report counts each drop. Publications are sorted by id
    (no sort when the ids ascend already), the roster by (sds,
    researcher_id) and the links by their rows, with one sort of the key
    pub row * roster size + roster row.
    """
    active_researcher = np.asarray(active_researcher, dtype=np.intp)
    n_years = np.bincount(active_researcher, minlength=len(researcher_ids))
    roster = np.flatnonzero(n_years >= config.min_years)
    if not _ascending(researcher_ids[roster]):
        roster = roster[np.argsort(researcher_ids[roster], kind="stable")]
    roster = roster[np.argsort(researcher_sds[roster], kind="stable")]
    report.parsed["researchers"] = len(researcher_ids)
    report.kept["researchers"] = len(roster)
    report.drop("researchers_below_min_years", len(researcher_ids) - len(roster))
    roster_row = _positions(roster, len(researcher_ids))
    link_researcher = roster_row[link_researcher]
    kept = link_researcher >= 0
    if not kept.all():
        link_pub, link_researcher = link_pub[kept], link_researcher[kept]
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
    pub_rows = None if _ascending(pub_ids) else np.argsort(pub_ids, kind="stable")
    if config.roster_only_baseline and n_baseline_only:
        pub_rows = np.flatnonzero(linked) if pub_rows is None else pub_rows[linked[pub_rows]]
    columns = [np.asarray(column, dtype=np.int64) for column in (year, citations, author_count)]
    category_start = np.asarray(category_start, dtype=np.intp)
    category_code = np.asarray(category_code, dtype=np.int32)
    if pub_rows is not None:
        pub_ids, columns = pub_ids[pub_rows], [column[pub_rows] for column in columns]
        category_start, category_code = _take_rows(category_start, category_code, pub_rows)
        link_pub = _positions(pub_rows, len(linked))[link_pub]
    report.kept["publications"] = len(pub_ids)
    stride = max(len(roster), 1)
    key = np.multiply(link_pub, stride, dtype=np.int64)
    key += link_researcher
    del link_pub, link_researcher
    key.sort()
    link_pub, link_researcher = np.divmod(key, stride)
    del key

    # the rank matrix has a column only for the years a kept researcher is active
    active_row = roster_row[active_researcher]
    on_roster = active_row >= 0
    active_years, column = np.unique(np.asarray(active_year, dtype=np.int64)[on_roster],
                                     return_inverse=True)
    rank = np.full((len(roster), len(active_years)), -1, dtype=np.int8)
    rank[active_row[on_roster], column] = np.asarray(active_rank, dtype=np.int8)[on_roster]
    # the roster is in sds order, so each code's first row starts its field
    sds_codes, field_start = np.unique(researcher_sds[roster].astype(object), return_index=True)
    udas, field_uda = np.unique(np.array([taxonomy.sds_to_uda[sds] for sds in sds_codes],
                                         dtype=object), return_inverse=True)

    return Corpus(
        taxonomy=taxonomy,
        researcher_ids=_strings(researcher_ids[roster]),
        sds_codes=tuple(sds_codes),
        udas=tuple(udas),
        field_uda=field_uda,
        field_start=np.append(field_start, len(roster)),
        active_years=active_years,
        rank=rank,
        pub_ids=_strings(pub_ids),
        year=columns[0],
        citations=columns[1],
        author_count=columns[2],
        categories=tuple(categories),
        category_start=category_start,
        category_code=category_code,
        link_pub=link_pub,
        link_researcher=link_researcher,
        config=config,
        report=report,
    )


def _ascending(ids: np.ndarray) -> bool:
    return bool((ids[1:] > ids[:-1]).all())


def _positions(order: np.ndarray, n: int) -> np.ndarray:
    """Where each of range(n) stands in order, or -1 if it is not there."""
    position = np.full(n, -1, dtype=np.intp)
    position[order] = np.arange(len(order))
    return position


def _take_rows(start: np.ndarray, values: np.ndarray,
               rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows `rows` of a CSR table, whose row i is values[start[i]:start[i + 1]]."""
    sizes = start[rows + 1] - start[rows]
    taken = np.zeros(len(rows) + 1, dtype=start.dtype)
    np.cumsum(sizes, out=taken[1:])
    gather = np.repeat(start[rows] - taken[:-1], sizes)
    gather += np.arange(len(gather), dtype=gather.dtype)
    return taken, values[gather]


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: one sort and a mask, which numpy 2's
    hash-based np.unique(values) is many times slower than."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))] if len(values) else values


class _Issues(list):
    """The validation issues of one load, in the order they are found. The
    methods after in_line_order word the row-level issues, for the readers
    and for oracles.oracle_load alike."""

    def add(self, kind: str, message: str, path: Path, line: Optional[int] = None,
            key: Optional[str] = None) -> None:
        self.append(ValidationIssue(kind, message, str(path), line, key))

    def in_line_order(self, start: int) -> None:
        """Sort the issues from index start on, all of one file, by line."""
        self[start:] = sorted(self[start:], key=lambda issue: issue.line)

    def unknown_rank(self, path: Path, line: int, rank: str) -> None:
        self.add(ISSUE_MALFORMED_ROW, f"unknown rank {rank!r}", path, line)

    def unknown_sds(self, path: Path, line: int, researcher_id: str, sds_code: str) -> None:
        self.add(ISSUE_DANGLING_REFERENCE,
                 f"researcher {researcher_id!r} references unknown sds {sds_code!r}", path, line,
                 sds_code)

    def two_fields(self, path: Path, line: int, researcher_id: str, first_sds: str,
                   sds_code: str) -> None:
        self.add(ISSUE_CONSTRAINT,
                 f"researcher {researcher_id!r} listed in both {first_sds!r} and {sds_code!r}",
                 path, line, researcher_id)

    def duplicate_year(self, path: Path, line: int, researcher_id: str, year: int) -> None:
        self.add(ISSUE_DUPLICATE_KEY,
                 f"duplicate (researcher, year) key ({researcher_id!r}, {year})", path, line,
                 researcher_id)

    def duplicate_pub(self, path: Path, line: int, pub_id: str) -> None:
        self.add(ISSUE_DUPLICATE_KEY, f"duplicate pub_id {pub_id!r}", path, line, pub_id)

    def no_categories(self, path: Path, line: int, pub_id: str) -> None:
        self.add(ISSUE_EMPTY_CATEGORIES, f"publication {pub_id!r} has no subject categories",
                 path, line, pub_id)

    def unknown_pub(self, path: Path, line: int, pub_id: str) -> None:
        self.add(ISSUE_DANGLING_REFERENCE, f"authorship references unknown pub_id {pub_id!r}",
                 path, line, pub_id)

    def unknown_researcher(self, path: Path, line: int, researcher_id: str) -> None:
        self.add(ISSUE_DANGLING_REFERENCE,
                 f"authorship references unknown researcher_id {researcher_id!r}", path, line,
                 researcher_id)

    def duplicate_link(self, path: Path, line: int, pub_id: str, researcher_id: str) -> None:
        self.add(ISSUE_DUPLICATE_KEY, f"duplicate authorship ({pub_id!r}, {researcher_id!r})",
                 path, line, pub_id)

    def over_linked(self, path: Path, pub_id: str, author_count: int, n_links: int) -> None:
        self.add(ISSUE_CONSTRAINT, f"publication {pub_id!r} has author_count {author_count} "
                 f"but {n_links} roster authorships", path, key=pub_id)


def _stop(message: str, path: Path, line: int, issues: _Issues, stopped: set[Path]) -> None:
    """Record the one issue of a file that is not read to its end."""
    issues.add(ISSUE_MALFORMED_ROW, message, path, line)
    stopped.add(path)


def _file_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise InputIOError(f"cannot read {path}: {exc}") from exc


def _read_rows(path: Path, data: bytes, header: list[str], issues: _Issues, stopped: set[Path]):
    """Yield (line_number, row) for the data rows of path, whose bytes are
    data; enforce the exact header.

    A row of the wrong width, or with a line break inside a field's
    stripped text, is one issue and is not yielded. An empty file, a bad
    header, a byte that is not UTF-8 or a row the csv module rejects (a
    field longer than csv.field_size_limit()) ends the file with one issue,
    and adds path to stopped. One csv.reader reads the whole lines in front
    of the first bad byte's line, as usual; the header is checked unless
    there are none.
    """
    reason = None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        reason, bad = exc.reason, exc.start
        data = data[:max(data.rfind(b"\n", 0, bad), data.rfind(b"\r", 0, bad)) + 1]
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    try:
        if (data or reason is None) and not _header_ok(next(reader, None), header, path,
                                                       issues, stopped):
            return
        for row in reader:
            if row and _row_ok(row, header, path, reader.line_num, issues):
                yield reader.line_num, row
    except csv.Error as exc:
        _stop(f"{exc}; rest of file skipped", path, reader.line_num, issues, stopped)
        return
    if reason is not None:
        _stop(f"not valid UTF-8 ({reason}); rest of file skipped", path, reader.line_num + 1,
              issues, stopped)


def _header_ok(first: Optional[list[str]], header: list[str], path: Path, issues: _Issues,
               stopped: set[Path]) -> bool:
    if first != header:
        _stop("empty file, header row required" if first is None
              else f"bad header {first!r}, expected {header!r}", path, 1, issues, stopped)
    return first == header


def _row_ok(row: list[str], header: list[str], path: Path, line: int, issues: _Issues) -> bool:
    """Whether a data row has the header's width and no line break in a
    field's stripped text (no CSV output could hold it); records the issue if not."""
    if len(row) != len(header):
        issues.add(ISSUE_MALFORMED_ROW, f"expected {len(header)} fields, got {len(row)}", path,
                   line)
        return False
    for name, text in zip(header, map(str.strip, row)):
        if "\n" in text or "\r" in text:
            issues.add(ISSUE_MALFORMED_ROW, f"line break inside {name}", path, line)
            return False
    return True


def _int(text: str) -> int:
    """An optional sign and ASCII digits as an int; ValueError for anything
    else, such as the digit-group underscores and non-ASCII digits that
    int() alone accepts."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return int(text)


def _parse_int(text: str, what: str, path: Path, line: int, issues: _Issues,
               minimum: Optional[int] = None, maximum: Optional[int] = None) -> Optional[int]:
    try:
        value = _int(text)
    except ValueError:
        issues.add(ISSUE_MALFORMED_ROW, f"{what} is not an integer: {text!r}", path, line)
        return None
    if minimum is not None and value < minimum:
        issues.add(ISSUE_MALFORMED_ROW, f"{what} must be >= {minimum}, got {value}", path, line)
        return None
    if maximum is not None and value > maximum:
        issues.add(ISSUE_MALFORMED_ROW, f"{what} must be <= {maximum}, got {value}", path, line)
        return None
    return value


def _category_set(text: str) -> tuple[str, ...]:
    """The subject categories of one ';'-joined list, sorted and distinct."""
    return tuple(sorted({c.strip() for c in text.split(";") if c.strip()}))


def _load_taxonomy(path: Path, issues: _Issues) -> Optional[Taxonomy]:
    sds_to_uda: dict[str, str] = {}
    sds_names: dict[str, str] = {}
    uda_names: dict[str, str] = {}
    for line, row in _read_rows(path, _file_bytes(path), TAXONOMY_HEADER, issues, set()):
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


@dataclass
class _Researchers:
    """researchers.csv as read: the ids ascend, sds holds the field of each,
    and the active (researcher, year, rank) rows are as build_corpus takes them."""

    rows: int
    outside_window: int
    ids: np.ndarray
    sds: np.ndarray
    researcher: np.ndarray
    year: np.ndarray
    rank: np.ndarray
    stopped: bool  # not read to its end, so references into it are not checked


@dataclass
class _Publications:
    """publications.csv as read: the kept rows as columns, in ascending
    pub_id order, with their categories as build_corpus takes them."""

    rows: int
    outside_window: int
    pub_ids: np.ndarray
    year: np.ndarray
    citations: np.ndarray
    author_count: np.ndarray
    categories: list[str]
    category_start: np.ndarray
    category_code: np.ndarray


@dataclass
class _PubLookup:
    """Each listed pub_id's column row, -1 when it is not kept: keys holds
    the ids in ascending order, as keys. Only authorships.csv reads it."""

    keys: np.ndarray
    row_of: np.ndarray
    stopped: bool  # as _Researchers.stopped


_INT64_MAX = 2**63 - 1  # citations and author counts are held as int64
# publications.csv fields 1 to 3: each number's name and bounds
_PUBLICATION_NUMBERS = (("year", None, None), ("citations", 0, _INT64_MAX),
                        ("author_count", 1, _INT64_MAX))


class _Declined(Exception):
    """The byte split cannot split a file as csv.reader would."""


_MAX_DIGITS = 18  # a number of up to 18 digits is below 2**63
_BLOCK = 1 << 18  # bytes scanned at a time for field ends
# sorted for _find; RANKS is too, so a key's position is its rank's index in RANKS
_RANK_KEYS = np.array(sorted(RANKS), dtype=np.bytes_)


def _offset_type(n: int) -> type:
    """The integer type of offsets and counts up to n: int32 below 2 GiB."""
    return np.int32 if n < 2**31 else np.intp


def _strippable(byte: np.ndarray) -> np.ndarray:
    """Whether str.strip() could remove a field edge that is this byte:
    ASCII whitespace (9-13, 28-32) or part of a non-ASCII character."""
    return ((byte - np.uint8(9)) <= 4) | ((byte - np.uint8(28)) <= 4) | (byte >= 0x80)


class _Fields:
    """The data rows of one CSV file as UTF-8 field columns: field k of row
    i is data[start[j]:start[j] + length[j]] with j = i * width + k, and row
    i is on line lines[i]. stopped: the file was not read to its end."""

    def __init__(self, data: bytes, start: np.ndarray, length: np.ndarray, width: int,
                 lines: Sequence[int], stopped: bool = False):
        self.data, self.byte, self.width = data, np.frombuffer(data, dtype=np.uint8), width
        self.start, self.length = start, length
        self.rows, self.lines, self.stopped = len(start) // width, lines, stopped

    def text(self, row: int, k: int) -> str:
        """Field k of data row `row`, decoded."""
        j = row * self.width + k
        start = int(self.start[j])
        return self.data[start:start + int(self.length[j])].decode()

    def _bytes_at(self, start: np.ndarray, length: np.ndarray, limit: Optional[int] = None):
        """For j = 0, 1, ... below limit: the j-th byte of each of the byte
        strings data[start[i]:start[i] + length[i]], and which have one."""
        for j in range(min(int(length.max(initial=0)), limit or len(self.byte))):
            yield self.byte.take(start + j, mode="clip"), length > j

    def numbers(self, k: int, minimum: Optional[int] = None,
                maximum: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
        """Column k as int64, and which of its fields _parse_int accepts
        within these bounds. Fields of 1 to 18 ASCII digits, which int()
        reads as the same number, are read with array operations and any
        other by _parse_int. An accepted number outside int64, which only an
        unbounded column (a year) can hold, is held as the nearest int64:
        outside the window."""
        value = np.zeros(self.rows, dtype=np.int64)
        not_digit = np.zeros(self.rows, dtype=bool)
        length = self.length[k::self.width]
        for byte, live in self._bytes_at(self.start[k::self.width], length, _MAX_DIGITS):
            digit = byte - np.uint8(ord("0"))
            not_digit |= (digit > 9) & live
            np.multiply(value, 10, out=value, where=live)
            np.add(value, digit, out=value, where=live)
        plain = ~not_digit & (length >= 1) & (length <= _MAX_DIGITS)
        ok = plain.copy()
        if minimum is not None:
            ok &= value >= minimum
        if maximum is not None:
            ok &= value <= maximum
        for row in np.flatnonzero(~plain).tolist():
            # the rule only: the issue is recorded later, in line order
            number = _parse_int(self.text(row, k), "", Path(), 0, _Issues(), minimum, maximum)
            if number is not None:
                value[row], ok[row] = min(max(number, -_INT64_MAX - 1), _INT64_MAX), True
        return value, ok

    def keys(self, k: int, lower: bool = False) -> np.ndarray:
        """Column k, ASCII-lowercased if lower, as _slices gives it."""
        return self._slices(self.start[k::self.width], self.length[k::self.width], lower)

    def _slices(self, start: np.ndarray, length: np.ndarray, lower: bool = False) -> np.ndarray:
        """The byte strings data[start[i]:start[i] + length[i]], ASCII-lowercased
        if lower, as an array that orders as they do, and so as the decoded
        strings do: fixed-width bytes, or bytes objects where padding each to
        the longest would take more than twice the file's size or lose a
        trailing NUL."""
        width = max(int(length.max(initial=0)), 1)
        if len(start) * width > 2 * len(self.data) or b"\0" in self.data:
            keys = [self.data[i:j] for i, j in zip(start.tolist(), (start + length).tolist())]
            return np.array([key.lower() for key in keys] if lower else keys, dtype=object)
        matrix = np.zeros((len(start), width), dtype=np.uint8)
        for j, (byte, live) in enumerate(self._bytes_at(start, length)):
            if lower:
                byte = byte + ((byte - np.uint8(ord("A"))) <= 25) * np.uint8(32)
            matrix[:, j] = np.where(live, byte, np.uint8(0))
        return matrix.view(f"S{width}").ravel()

    def categories(self, k: int) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Column k as ';'-joined category lists, by _category_set's rule:
        the distinct categories of all rows, sorted, and each row's sorted
        distinct codes into them, those of row i being
        code[start[i]:start[i + 1]]. The fields are cut at ';' with array
        operations; a row with a piece whose edge str.strip() could remove
        is split by _category_set instead."""
        start = self.start[k::self.width]
        end = start + self.length[k::self.width]
        # the ';' bytes inside column k's fields, each with its row
        cut = np.flatnonzero(self.byte == ord(";")).astype(start.dtype)
        row = np.searchsorted(start, cut, side="right") - 1
        inside = (row >= 0) & (cut < end[np.maximum(row, 0)])
        cut, row = cut[inside], row[inside]
        # a row of c cuts has c + 1 pieces, each from its field's start or a
        # cut to the next cut or its field's end
        n_cuts = np.bincount(row, minlength=self.rows).astype(start.dtype)
        first = np.arange(self.rows, dtype=start.dtype)
        first += np.cumsum(n_cuts, dtype=start.dtype) - n_cuts
        after = np.arange(1, len(cut) + 1, dtype=start.dtype) + row
        del row
        piece_start, piece_end = np.empty((2, self.rows + len(cut)), dtype=start.dtype)
        piece_start[first], piece_start[after] = start, cut + 1
        piece_end[first + n_cuts], piece_end[after - 1] = end, cut
        del cut, after, first, end
        piece_row = np.repeat(np.arange(self.rows, dtype=start.dtype), n_cuts + 1)
        # pieces are kept unless empty; a row with a piece of a strippable
        # edge is left to _category_set
        keep = piece_end > piece_start
        stripped = np.zeros(self.rows, dtype=bool)
        stripped[piece_row[keep][_strippable(self.byte[piece_start[keep]])
                                 | _strippable(self.byte[piece_end[keep] - 1])]] = True
        keep &= ~stripped[piece_row]
        piece_end -= piece_start  # in place: the piece lengths
        keys = self._slices(piece_start[keep], piece_end[keep])
        piece_row = piece_row[keep]
        del piece_start, piece_end, keep
        py_rows = np.flatnonzero(stripped).tolist()
        if py_rows:
            py_sets = [_category_set(self.text(r, k)) for r in py_rows]
            py_keys = [c.encode() for c in chain.from_iterable(py_sets)]
            keys = np.concatenate((keys, np.array(py_keys, dtype=keys.dtype.kind)))
            piece_row = np.concatenate((piece_row, np.repeat(py_rows, list(map(len, py_sets)))))
        # codes with one sort; fixed-width keys of up to 8 bytes sort as uint64
        keys = _sortable(keys)
        distinct = _sorted_distinct(keys)
        codes = np.searchsorted(distinct, keys)
        del keys
        if distinct.dtype == np.uint64:
            distinct = distinct.astype(">u8").view("S8")
        # each row's codes sorted and distinct, by one sort of row * n + code
        n = max(len(distinct), 1)
        pairs = _sorted_distinct(piece_row.astype(np.int64) * n + codes)
        del piece_row, codes
        rows, codes = np.divmod(pairs, n)
        category_start = np.zeros(self.rows + 1, dtype=start.dtype)
        np.cumsum(np.bincount(rows, minlength=self.rows), out=category_start[1:])
        return _strings(distinct), category_start, codes.astype(np.int32)


def _split_bytes(data: bytes, header: list[str]) -> _Fields:
    """The byte split: a file's bytes split at every comma and LF with numpy.
    Data row i is on line i + 2, as there are no blank lines.

    Declines unless csv.reader would split the file the same way and
    str.strip() would change no field: the exact header line, valid UTF-8,
    no quote, CR or NUL byte, width fields on every line, and every field
    non-empty, within csv.field_size_limit() and without a strippable edge.
    """
    if not data.endswith(b"\n"):
        data += b"\n"
    head = ",".join(header).encode() + b"\n"
    if not data.startswith(head) or b'"' in data or b"\r" in data or b"\0" in data:
        raise _Declined
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            raise _Declined from None
    byte = np.frombuffer(data, dtype=np.uint8)
    is_end = byte == ord(",")
    is_end |= byte == ord("\n")
    is_end[:len(head)] = False
    # the positions of the ends, found a block at a time into int32 offsets
    end = np.empty(np.count_nonzero(is_end), dtype=_offset_type(len(data)))
    filled = 0
    for i in range(0, len(data), _BLOCK):
        found = np.flatnonzero(is_end[i:i + _BLOCK])
        end[filled:filled + len(found)] = found + i
        filled += len(found)
    del is_end
    width = len(header)
    line_end = byte[end] == ord("\n")
    if len(end) % width or np.count_nonzero(line_end) * width != len(end) \
            or not line_end[width - 1::width].all():
        raise _Declined
    del line_end
    start = np.empty_like(end)
    start[:1] = len(head)
    np.add(end[:-1], 1, out=start[1:])
    if len(end) and (_strippable(byte[start]).any() or _strippable(byte[end - 1]).any()):
        raise _Declined
    length = end
    length -= start  # in place: the ends are not needed again
    if len(length) and (length.min() < 1 or length.max() > csv.field_size_limit()):
        raise _Declined
    return _Fields(data, start, length, width, range(2, len(length) // width + 2))


def _split_csv(path: Path, data: bytes, header: list[str], issues: _Issues) -> _Fields:
    """The csv tokenizer: any file's bytes, read by _read_rows, which records
    the file's own issues. Each field is stripped with str.strip(). The rows
    are encoded a chunk at a time, so that few field strings live at once."""
    stopped: set[Path] = set()
    rows = _read_rows(path, data, header, issues, stopped)
    lines, pieces, lengths = array("q"), [], [np.zeros(0, dtype=np.intp)]
    while chunk := list(islice(rows, 4096)):
        lines.extend(map(itemgetter(0), chunk))
        fields = list(map(str.strip, chain.from_iterable(map(itemgetter(1), chunk))))
        pieces.append("".join(fields).encode())
        lengths.append(np.fromiter(map(len, fields if pieces[-1].isascii()
                                       else map(str.encode, fields)), dtype=np.intp))
    data = b"".join(pieces)
    length = np.concatenate(lengths).astype(_offset_type(len(data)))
    return _Fields(data, np.cumsum(length) - length, length, len(header), lines, bool(stopped))


def _read(path: Path, header: list[str], issues: _Issues) -> _Fields:
    """The fields of path, read once: by the byte split, or by csv.reader
    where the byte split declines the file."""
    data = _file_bytes(path)
    try:
        return _split_bytes(data, header)
    except _Declined:
        pass  # the byte split's buffers are freed before csv.reader starts
    return _split_csv(path, data, header, issues)


# The readers: array tests single out every row that breaks a row-level
# rule (a number _parse_int rejects, an unknown rank, sds or id, a
# researcher in two fields, a repeated key, an empty category list). Only
# those rows are decided in Python, and the first check that fails is
# recorded; a file's issues, the tokenizer's included, end in line order.

def _u64(keys: np.ndarray) -> np.ndarray:
    """Fixed-width byte keys of at most 8 bytes as big-endian uint64s, which
    order and compare as the keys do: a fixed-width key holds no trailing NUL,
    so the zero padding tells no two keys apart that differ."""
    return keys.astype("S8", copy=False).view(">u8").astype(np.uint64)


def _sortable(keys: np.ndarray) -> np.ndarray:
    """keys as uint64 where they fit, to sort and search as one integer."""
    return _u64(keys) if keys.dtype.kind == "S" and keys.itemsize <= 8 else keys


def _find(keys: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The position of each of ids in the ascending array keys, and whether
    it is there: compared as uint64 where both fit in 8 bytes, as wider
    fixed-width bytes, or as bytes objects where either holds a NUL."""
    if keys.dtype == object or ids.dtype == object:
        keys, ids = keys.astype(object), ids.astype(object)
    elif max(keys.itemsize, ids.itemsize) <= 8:
        keys, ids = _u64(keys), _u64(ids)
    else:
        width = max(keys.itemsize, ids.itemsize)
        keys, ids = keys.astype(f"S{width}", copy=False), ids.astype(f"S{width}", copy=False)
    if not len(keys):
        return np.zeros(len(ids), dtype=np.intp), np.zeros(len(ids), dtype=bool)
    position = np.minimum(np.searchsorted(keys, ids), len(keys) - 1)
    return position, keys[position] == ids


def _first_rows(*keys: np.ndarray) -> np.ndarray:
    """The first row i of each distinct key (keys[0][i], keys[1][i], ...),
    in key order."""
    order = (np.lexsort(keys[::-1]) if len(keys) > 1
             else np.argsort(_sortable(keys[0]), kind="stable"))
    first = np.ones(len(order), dtype=bool)
    first[1:] = ~np.logical_and.reduce([key[order[1:]] == key[order[:-1]] for key in keys])
    return order[first]


def _strings(ids: np.ndarray) -> tuple[str, ...]:
    """ids, held as UTF-8 bytes or as str, as str; bytes are decoded a block
    at a time, so that few bytes objects live at once."""
    if ids.dtype.kind != "S" and not (len(ids) and isinstance(ids[0], bytes)):
        return tuple(ids.tolist())
    return tuple(chain.from_iterable(map(bytes.decode, ids[i:i + 4096].tolist())
                                     for i in range(0, len(ids), 4096)))


def _researcher_columns(path: Path, taxonomy: Optional[Taxonomy], window: range,
                        issues: _Issues) -> _Researchers:
    first_issue = len(issues)
    fields = _read(path, RESEARCHERS_HEADER, issues)
    year, year_ok = fields.numbers(2)
    # only U+212A lowers to an ASCII letter, k, which no rank name holds
    rank, rank_ok = _find(_RANK_KEYS, fields.keys(3, lower=True))
    sds_keys = fields.keys(1)
    if taxonomy is None:  # taxonomy.csv has issues: no sds is checked
        known = _sorted_distinct(sds_keys)
    else:
        codes = [code.encode() for code in sorted(taxonomy.sds_to_uda)]
        known = np.array(codes, dtype=object if any(b"\0" in c for c in codes) else np.bytes_)
    sds, sds_ok = _find(known, sds_keys)
    codes = _strings(known)
    valid = year_ok & rank_ok & sds_ok
    # a researcher is listed, in the field of its first row, by the rows
    # with a valid year, rank and sds
    rows = np.flatnonzero(valid)
    researcher = np.full(fields.rows, -1, dtype=np.intp)
    ids, first, researcher[rows] = np.unique(fields.keys(0)[rows], return_index=True,
                                             return_inverse=True)
    sds_of = sds[rows[first]]
    two_fields = np.zeros(fields.rows, dtype=bool)
    two_fields[rows] = sds[rows] != sds_of[researcher[rows]]
    rows = rows[~two_fields[rows]]
    in_window = (year[rows] >= window.start) & (year[rows] < window.stop)
    n_outside = len(rows) - np.count_nonzero(in_window)
    rows = rows[in_window]
    firsts = rows[_first_rows(researcher[rows], year[rows])]
    repeat = np.zeros(fields.rows, dtype=bool)
    repeat[rows] = True
    repeat[firsts] = False
    for row in np.flatnonzero(~valid | two_fields | repeat).tolist():
        line = fields.lines[row]
        researcher_id, sds_code = fields.text(row, 0), fields.text(row, 1)
        if not year_ok[row]:
            _parse_int(fields.text(row, 2), "year", path, line, issues)
        elif not rank_ok[row]:
            issues.unknown_rank(path, line, fields.text(row, 3).lower())
        elif not sds_ok[row]:
            issues.unknown_sds(path, line, researcher_id, sds_code)
        elif two_fields[row]:
            issues.two_fields(path, line, researcher_id, codes[sds_of[researcher[row]]], sds_code)
        else:
            issues.duplicate_year(path, line, researcher_id, int(year[row]))
    issues.in_line_order(first_issue)
    return _Researchers(fields.rows, n_outside, ids, np.array(codes, dtype=object)[sds_of],
                        researcher[firsts], year[firsts], rank[firsts], fields.stopped)


def _publication_columns(path: Path, window: range,
                         issues: _Issues) -> tuple[_Publications, _PubLookup]:
    first_issue = len(issues)
    fields = _read(path, PUBLICATIONS_HEADER, issues)
    (year, year_ok), (citations, citations_ok), (author_count, author_count_ok) = (
        fields.numbers(k, minimum, maximum)
        for k, (_, minimum, maximum) in enumerate(_PUBLICATION_NUMBERS, 1))
    numbers_ok = year_ok & citations_ok & author_count_ok
    number_texts = {row: [fields.text(row, k) for k in (1, 2, 3)]
                    for row in np.flatnonzero(~numbers_ok).tolist()}
    pub_ids = fields.keys(0)
    categories, category_start, category_code = fields.categories(4)
    n_rows, lines, stopped = fields.rows, fields.lines, fields.stopped
    del fields
    no_categories = category_start[1:] == category_start[:-1]
    # a pub_id is taken by its first row with valid numbers
    rows = np.flatnonzero(numbers_ok)
    rows = rows[_first_rows(pub_ids[rows])]  # in pub_id order
    unlisted = np.ones(n_rows, dtype=bool)
    unlisted[rows] = False
    for row in np.flatnonzero(unlisted | no_categories).tolist():
        line = lines[row]
        if not numbers_ok[row]:
            for text, (what, minimum, maximum) in zip(number_texts[row], _PUBLICATION_NUMBERS):
                _parse_int(text, what, path, line, issues, minimum, maximum)
        elif unlisted[row]:
            issues.duplicate_pub(path, line, pub_ids[row].decode())
        else:
            issues.no_categories(path, line, pub_ids[row].decode())
    issues.in_line_order(first_issue)
    has_categories = ~no_categories[rows]
    kept = has_categories & (year[rows] >= window.start) & (year[rows] < window.stop)
    row_of = np.full(len(rows), -1, dtype=_offset_type(len(rows)))
    row_of[kept] = np.arange(np.count_nonzero(kept))
    kept_rows = rows[kept]
    category_start, category_code = _take_rows(category_start, category_code, kept_rows)
    return (_Publications(n_rows, np.count_nonzero(has_categories & ~kept), pub_ids[kept_rows],
                          year[kept_rows], citations[kept_rows], author_count[kept_rows],
                          categories, category_start, category_code),
            _PubLookup(pub_ids[rows], row_of, stopped))


def _authorship_columns(path: Path, pubs: _PubLookup, n_kept_pubs: int,
                        researchers: _Researchers,
                        issues: _Issues) -> tuple[int, int, np.ndarray, np.ndarray]:
    """authorships.csv as read: its rows, those that name a dropped
    publication, and the kept (pub row, researcher index) links."""
    first_issue = len(issues)
    fields = _read(path, AUTHORSHIPS_HEADER, issues)
    pub_ids, researcher_ids = fields.keys(0), fields.keys(1)
    n_rows, lines = fields.rows, fields.lines
    del fields
    pub, pub_found = _find(pubs.keys, pub_ids)
    researcher, researcher_found = _find(researchers.ids, researcher_ids)
    if researchers.stopped:  # unknown ids get codes of their own, so their links can repeat
        unknown = np.flatnonzero(~researcher_found)
        researcher[unknown] = len(researchers.ids) + np.unique(researcher_ids[unknown],
                                                               return_inverse=True)[1]
        researcher_found[unknown] = True
    rows = np.flatnonzero(pub_found & researcher_found)
    link_pub = pubs.row_of[pub[rows]]
    kept = link_pub >= 0
    rows, link_pub = rows[kept], link_pub[kept]
    link_researcher = researcher[rows]
    del pub, researcher
    # a link is taken by its first row; np.sort finds out far faster than
    # a stable argsort whether one repeats
    key = np.sort(link_researcher * n_kept_pubs + link_pub)
    repeat = np.zeros(n_rows, dtype=bool)
    firsts = slice(None)
    if (key[1:] == key[:-1]).any():
        firsts = _first_rows(link_researcher * n_kept_pubs + link_pub)
        repeat[rows] = True
        repeat[rows[firsts]] = False
    unknown_pub = ~pub_found & (not pubs.stopped)  # no reference into a stopped file is checked
    for row in np.flatnonzero(unknown_pub | ~researcher_found | repeat).tolist():
        line = lines[row]
        pub_id, researcher_id = pub_ids[row].decode(), researcher_ids[row].decode()
        if unknown_pub[row]:
            issues.unknown_pub(path, line, pub_id)
        elif not researcher_found[row]:
            issues.unknown_researcher(path, line, researcher_id)
        else:
            issues.duplicate_link(path, line, pub_id, researcher_id)
    issues.in_line_order(first_issue)
    return n_rows, len(kept) - len(rows), link_pub[firsts], link_researcher[firsts]


def load_corpus(paths: CorpusPaths, config: AnalysisConfig) -> Corpus:
    """Parse and validate the four CSV files into a Corpus.

    Raises CorpusValidationError with the complete issue list if any
    hard error is found; drops (with report counts) researchers active
    fewer than config.min_years years and rows outside the window.
    References into a file that was not read to its end are not checked,
    so that its one issue does not cascade.

    The load builds no reference cycles, only strings, ints, tuples, lists,
    dicts and arrays, so the cyclic garbage collector
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
    """load_corpus without the collector pause; each big file picks its tokenizer."""
    issues = _Issues()
    report = LoadReport()
    window = config.years

    taxonomy = _load_taxonomy(paths.taxonomy, issues)
    researchers = _researcher_columns(paths.researchers, taxonomy, window, issues)
    report.parsed["researcher_rows"] = researchers.rows
    report.drop("researcher_years_outside_window", researchers.outside_window)

    pubs, pub_lookup = _publication_columns(paths.publications, window, issues)
    report.parsed["publications"] = pubs.rows
    report.drop("publications_outside_window", pubs.outside_window)

    n_links, to_dropped_pubs, link_pub, link_researcher = _authorship_columns(
        paths.authorships, pub_lookup, len(pubs.pub_ids), researchers, issues)
    del pub_lookup
    report.parsed["authorships"] = n_links
    report.drop("authorships_of_dropped_publications", to_dropped_pubs)

    pub_ids, author_counts = pubs.pub_ids, pubs.author_count
    links_per_pub = np.bincount(link_pub, minlength=len(pub_ids))
    for row in np.flatnonzero(author_counts < links_per_pub).tolist():  # in pub_id order
        issues.over_linked(paths.publications, pub_ids[row].decode(), author_counts[row],
                           links_per_pub[row])

    if issues:
        raise CorpusValidationError(issues)
    assert taxonomy is not None

    corpus = build_corpus(taxonomy, researchers.ids, researchers.sds, researchers.researcher,
                          researchers.year, researchers.rank, pub_ids, pubs.year, pubs.citations,
                          author_counts, pubs.categories, pubs.category_start,
                          pubs.category_code, link_pub, link_researcher, config, report)
    for key, value in sorted(report.dropped.items()):
        log.info("load_corpus dropped %d: %s", value, key)
    return corpus
