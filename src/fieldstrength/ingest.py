"""CSV ingestion and validation of the four input tables.

All validation issues are collected before failing, each with its file
and line. Entities can also be *dropped* without failing (researchers
below the minimum activity, rows outside the window); every drop is
counted with a reason in the load report so that dropped + kept =
parsed always holds.

researchers.csv, publications.csv and authorships.csv are each read one
of two ways, with the same result: the column path certifies a clean
file with numpy array operations, and the row loop reads any file. Only
the row loop records issues, so their text, lines and order do not
depend on the path.
"""

from __future__ import annotations

import csv
import gc
import io
import logging
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, dropwhile
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, TypeVar

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
T = TypeVar("T")

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


def _stop(message: str, path: Path, line: int, issues: _Issues, stopped: set[Path]) -> None:
    """Record the one issue of a file that is not read to its end."""
    issues.add(ISSUE_MALFORMED_ROW, message, path, line)
    stopped.add(path)


def _read_rows(path: Path, header: list[str], issues: _Issues, stopped: set[Path]):
    """Yield (line_number, row) for data rows; enforce the exact header.

    An empty file, a bad header, a byte that is not UTF-8 or a row the csv
    module rejects (a field longer than csv.field_size_limit()) ends the
    file with one issue, and adds path to stopped. The rows before the line
    of a bad byte are read as usual.
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
        except csv.Error as exc:
            _stop(f"{exc}; rest of file skipped", path, reader.line_num, issues, stopped)
            return
    yield from _rows_before_bad_byte(path, header, issues, stopped, consumed)


def _header_ok(first: Optional[list[str]], header: list[str], path: Path, issues: _Issues,
               stopped: set[Path]) -> bool:
    if first != header:
        _stop("empty file, header row required" if first is None
              else f"bad header {first!r}, expected {header!r}", path, 1, issues, stopped)
    return first == header


def _rows_before_bad_byte(path: Path, header: list[str], issues: _Issues, stopped: set[Path],
                          consumed: int):
    """The error path of _read_rows: the decoder reads ahead in chunks, so
    a bad byte can stop the reading before the rows in front of it are
    handed out. Parse the file up to the bad byte's line again, yield the
    rows that end after line `consumed` (and check the header if it was not
    read), then report the bad byte, or the first row in front of it that
    the csv module rejects."""
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
    try:
        if lines and not consumed and not _header_ok(next(rows, None), header, path, issues,
                                                      stopped):
            return
        for row in rows:
            if len(row) == len(header):
                yield reader.line_num, row
            elif row:
                issues.add(ISSUE_MALFORMED_ROW, f"expected {len(header)} fields, got {len(row)}",
                           path, reader.line_num)
    except csv.Error as exc:
        _stop(f"{exc}; rest of file skipped", path, reader.line_num, issues, stopped)
        return
    _stop(f"not valid UTF-8 ({reason}); rest of file skipped", path, len(lines) + 1, issues,
          stopped)


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


class _Ids:
    """Ids mapped to ints. The row loop gives a dict. The column path gives
    the ids as an ascending array of fixed-width ASCII bytes (keys) with
    their values, and the dict is built from them only if a later file is
    read by the row loop."""

    def __init__(self, mapping: Optional[dict[str, int]] = None,
                 keys: Optional[np.ndarray] = None, values: Optional[np.ndarray] = None):
        self.keys, self.values = keys, values
        if mapping is not None:
            self.mapping = mapping

    @cached_property
    def mapping(self) -> dict[str, int]:
        return dict(zip(_strings(self.keys), self.values.tolist()))


@dataclass
class _Researchers:
    """researchers.csv as read; each reader also returns an _Ids of every
    researcher_id's position in records()."""

    rows: int
    outside_window: int
    records: Callable[[], list[ResearcherRecord]]


@dataclass
class _Publications:
    """publications.csv as read: the kept rows as columns. Each reader also
    returns an _Ids of every parsed pub_id's column row, -1 when it is not
    kept."""

    rows: int
    outside_window: int
    pub_ids: Sequence[str]
    year: Sequence[int]
    citations: Sequence[int]
    author_count: Sequence[int]
    category_sets: list[tuple[str, ...]]
    category_set_of: Sequence[int]


@dataclass
class _Links:
    """authorships.csv as read: the kept (pub row, researcher index) links."""

    rows: int
    to_dropped_pubs: int
    link_pub: Sequence[int]
    link_researcher: Sequence[int]


# The row loop: each row is checked in file order and every problem becomes
# an issue at its line.

def _researcher_rows(path: Path, taxonomy: Optional[Taxonomy], window: range, issues: _Issues,
                     stopped: set[Path]) -> tuple[_Researchers, _Ids]:
    """researchers.csv: one row per (researcher, active year)."""
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
    return (_Researchers(
        n_rows, out_of_window_years,
        lambda: [ResearcherRecord(rid, sds, dict(sorted(rank_rows.get(rid, {}).items())))
                 for rid, sds in researcher_sds.items()]),
        _Ids({rid: i for i, rid in enumerate(researcher_sds)}))


_INT64_MAX = 2**63 - 1  # citations and author counts are held as int64


def _publication_rows(path: Path, window: range, issues: _Issues,
                      stopped: set[Path]) -> tuple[_Publications, _Ids]:
    """publications.csv, into columns; each distinct category list is parsed once."""
    pub_row: dict[str, int] = {}  # each parsed pub_id to its column row, -1 when not kept
    pub_ids, years, citation_counts, author_counts, category_set_of = [], [], [], [], []
    category_sets: list[tuple[str, ...]] = []
    set_of_text: dict[str, int] = {}  # each category list as written to its category_sets index
    out_of_window_pubs = 0
    n_rows = 0
    for line, row in _read_rows(path, PUBLICATIONS_HEADER, issues, stopped):
        n_rows += 1
        pub_id, year_text, cit_text, auth_text, cats_text = map(str.strip, row)
        numbers = year_text + cit_text + auth_text  # _int's test, once for the row
        try:
            year, citations, author_count = int(year_text), int(cit_text), int(auth_text)
            numbers_ok = (numbers.isascii() and "_" not in numbers
                          and 0 <= citations <= _INT64_MAX and 1 <= author_count <= _INT64_MAX)
        except ValueError:
            numbers_ok = False
        if not numbers_ok:  # report each bad number with its own message
            _parse_int(year_text, "year", path, line, issues)
            _parse_int(cit_text, "citations", path, line, issues, 0, _INT64_MAX)
            _parse_int(auth_text, "author_count", path, line, issues, 1, _INT64_MAX)
            continue
        if pub_id in pub_row:
            issues.add(ISSUE_DUPLICATE_KEY, f"duplicate pub_id {pub_id!r}", path, line, pub_id)
            continue
        pub_row[pub_id] = -1
        set_id = set_of_text.get(cats_text)
        if set_id is None:
            set_id = set_of_text[cats_text] = len(category_sets)
            category_sets.append(_category_set(cats_text))
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
    return (_Publications(n_rows, out_of_window_pubs, pub_ids, years, citation_counts,
                          author_counts, category_sets, category_set_of), _Ids(pub_row))


def _authorship_rows(paths: CorpusPaths, pub_lookup: _Ids, n_kept_pubs: int,
                     researcher_lookup: _Ids, issues: _Issues, stopped: set[Path]) -> _Links:
    """authorships.csv, into (pub row, researcher index) pairs; a link is
    kept only when its publication is, so only kept links can repeat."""
    path = paths.authorships
    pub_row, researcher_index = pub_lookup.mapping, researcher_lookup.mapping
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
    return _Links(n_rows, links_to_dropped_pubs, link_pub, link_researcher)


# The column path: a file is read once as bytes and split with array
# operations. It either certifies that the row loop would record no issue
# in the file and returns what the row loop would, or raises _Declined and
# leaves the file to the row loop, which then lists the issues.

class _Declined(Exception):
    """The column path cannot certify a file; the row loop reads it."""


_MAX_DIGITS = 18  # a number of up to 18 digits is below 2**63
_RANK_NAMES = sorted(RANKS)
_RANK_KEYS = np.array(_RANK_NAMES, dtype=np.bytes_)


def _strippable(byte: np.ndarray) -> np.ndarray:
    """Whether str.strip() could remove a field edge that is this byte:
    ASCII whitespace (9-13, 28-32) or part of a non-ASCII character."""
    return ((byte - np.uint8(9)) <= 4) | ((byte - np.uint8(28)) <= 4) | (byte >= 0x80)


class _Fields:
    """The data rows of one CSV file, split at every comma and LF: field k
    of row i is data[start[j]:start[j] + length[j]] with j = i * width + k.

    Declines unless csv.reader would split the file the same way and the
    row loop would strip no field: the exact header line, valid UTF-8, no
    quote, CR or NUL byte, width fields on every line, and every field
    non-empty, within csv.field_size_limit() and without a strippable edge.
    """

    def __init__(self, path: Path, header: list[str]):
        try:
            data = path.read_bytes()
        except OSError:
            raise _Declined from None  # the row loop reports it
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
        end = np.flatnonzero(is_end).astype(np.int32 if len(data) < 2**31 else np.intp)
        del is_end
        width = len(header)
        line_end = byte[end] == ord("\n")
        if len(end) % width or np.count_nonzero(line_end) * width != len(end) \
                or not line_end[width - 1::width].all():
            raise _Declined
        start = np.empty_like(end)
        start[:1] = len(head)
        start[1:] = end[:-1] + 1
        length = end - start
        if len(end) and (length.min() < 1 or length.max() > csv.field_size_limit()
                         or _strippable(byte[start]).any() or _strippable(byte[end - 1]).any()):
            raise _Declined
        self.data, self.byte, self.width = data, byte, width
        self.start, self.length = start, length
        self.rows = len(end) // width

    def _bytes_at(self, k: int):
        """For j = 0, 1, ...: the j-th byte of each field of column k, and
        which fields have one."""
        start, length = self.start[k::self.width], self.length[k::self.width]
        last = len(self.byte) - 1
        for j in range(int(length.max(initial=0))):
            yield self.byte[np.minimum(start + j, last)], length > j

    def numbers(self, k: int) -> np.ndarray:
        """Column k as int64; declines unless every field is 1 to 18 ASCII
        digits, which int() reads as the same number."""
        if self.rows and self.length[k::self.width].max() > _MAX_DIGITS:
            raise _Declined
        value = np.zeros(self.rows, dtype=np.int64)
        for byte, live in self._bytes_at(k):
            digit = byte - np.uint8(ord("0"))
            if ((digit > 9) & live).any():
                raise _Declined
            value = np.where(live, value * 10 + digit, value)
        return value

    def keys(self, k: int, lower: bool = False) -> np.ndarray:
        """Column k as fixed-width bytes, ASCII-lowercased if lower.
        Declines if a field is not ASCII, or if padding every field to the
        longest would take more than twice the file's size."""
        width = max(int(self.length[k::self.width].max(initial=0)), 1)
        if self.rows * width > 2 * len(self.data):
            raise _Declined
        matrix = np.zeros((self.rows, width), dtype=np.uint8)
        for j, (byte, live) in enumerate(self._bytes_at(k)):
            if (byte[live] >= 0x80).any():
                raise _Declined
            if lower:
                byte = byte + ((byte - np.uint8(ord("A"))) <= 25) * np.uint8(32)
            matrix[:, j] = np.where(live, byte, np.uint8(0))
        return matrix.view(f"S{width}").ravel()

    def texts(self, k: int) -> tuple[list[str], np.ndarray]:
        """The distinct fields of column k, decoded in order of first
        appearance, and the index of each row's field among them."""
        start = self.start[k::self.width]
        end = start + self.length[k::self.width]
        fields = list(map(self.data.__getitem__, map(slice, start.tolist(), end.tolist())))
        index = {text: i for i, text in enumerate(dict.fromkeys(fields))}
        return ([text.decode() for text in index],
                np.fromiter(map(index.__getitem__, fields), dtype=np.intp, count=len(fields)))


def _find(keys: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The position of each of ids in the ascending array keys; declines
    if one is missing."""
    width = max(keys.itemsize, ids.itemsize)
    keys, ids = keys.astype(f"S{width}", copy=False), ids.astype(f"S{width}", copy=False)
    if not len(keys):
        if len(ids):
            raise _Declined
        return np.zeros(0, dtype=np.intp)
    position = np.minimum(np.searchsorted(keys, ids), len(keys) - 1)
    if (keys[position] != ids).any():
        raise _Declined
    return position


def _strings(keys: np.ndarray) -> list[str]:
    return keys.astype(np.str_).tolist()


def _researcher_columns(path: Path, taxonomy: Taxonomy,
                        window: range) -> tuple[_Researchers, _Ids]:
    fields = _Fields(path, RESEARCHERS_HEADER)
    year = fields.numbers(2)
    rank = _find(_RANK_KEYS, fields.keys(3, lower=True))
    codes = sorted(c for c in taxonomy.sds_to_uda if c.isascii() and "\0" not in c)
    sds = _find(np.array(codes, dtype=np.bytes_), fields.keys(1))
    ids, first, researcher = np.unique(fields.keys(0), return_index=True, return_inverse=True)
    n_rows = fields.rows
    del fields
    sds_of = sds[first]
    if (sds != sds_of[researcher]).any():
        raise _Declined  # a researcher in two fields
    in_window = (year >= window.start) & (year < window.stop)
    researcher, year, rank = researcher[in_window], year[in_window], rank[in_window]
    order = np.lexsort((year, researcher))
    researcher, year, rank = researcher[order], year[order], rank[order]
    if ((researcher[1:] == researcher[:-1]) & (year[1:] == year[:-1])).any():
        raise _Declined  # a duplicate (researcher, year) key
    n_years = np.bincount(researcher, minlength=len(ids))

    def records() -> list[ResearcherRecord]:
        years, ranks = year.tolist(), [_RANK_NAMES[r] for r in rank.tolist()]
        return [ResearcherRecord(rid, codes[s], dict(zip(years[end - n:end], ranks[end - n:end])))
                for rid, s, n, end in zip(_strings(ids), sds_of.tolist(), n_years.tolist(),
                                          np.cumsum(n_years).tolist())]

    return (_Researchers(n_rows, n_rows - len(year), records),
            _Ids(keys=ids, values=np.arange(len(ids))))


def _publication_columns(path: Path, window: range) -> tuple[_Publications, _Ids]:
    fields = _Fields(path, PUBLICATIONS_HEADER)
    year, citations, author_count = fields.numbers(1), fields.numbers(2), fields.numbers(3)
    if not author_count.all():
        raise _Declined  # an author_count of 0
    pub_ids = fields.keys(0)
    texts, set_of = fields.texts(4)
    n_rows = fields.rows
    del fields
    category_sets = list(map(_category_set, texts))
    if not all(category_sets):
        raise _Declined  # an empty category list
    order = np.argsort(pub_ids, kind="stable")
    pub_ids = pub_ids[order]
    if (pub_ids[1:] == pub_ids[:-1]).any():
        raise _Declined  # a duplicate pub_id
    kept = (year[order] >= window.start) & (year[order] < window.stop)
    rows = order[kept]
    row_of = np.full(n_rows, -1, dtype=np.intp)
    row_of[kept] = np.arange(len(rows))
    return (_Publications(n_rows, n_rows - len(rows), _strings(pub_ids[kept]), year[rows],
                          citations[rows], author_count[rows], category_sets, set_of[rows]),
            _Ids(keys=pub_ids, values=row_of))


def _authorship_columns(path: Path, pub_lookup: _Ids, n_kept_pubs: int,
                        researcher_lookup: _Ids) -> _Links:
    if pub_lookup.keys is None or researcher_lookup.keys is None:
        raise _Declined  # an earlier file was read by the row loop
    fields = _Fields(path, AUTHORSHIPS_HEADER)
    pub_keys, researcher_keys = fields.keys(0), fields.keys(1)
    n_rows = fields.rows
    del fields
    link_pub = pub_lookup.values[_find(pub_lookup.keys, pub_keys)]
    link_researcher = researcher_lookup.values[_find(researcher_lookup.keys, researcher_keys)]
    kept = link_pub >= 0
    link_pub, link_researcher = link_pub[kept], link_researcher[kept]
    key = np.sort(link_researcher * n_kept_pubs + link_pub)
    if (key[1:] == key[:-1]).any():
        raise _Declined  # a duplicate link
    return _Links(n_rows, n_rows - len(link_pub), link_pub, link_researcher)


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
    """load_corpus without the collector pause. Each of researchers.csv,
    publications.csv and authorships.csv is read by the column path while
    no issue has been found, and by the row loop when that declines it."""
    issues = _Issues()
    stopped: set[Path] = set()
    report = LoadReport()
    window = config.years

    def read(columns: Callable[[], T], rows: Callable[[], T]) -> T:
        if not issues:
            try:
                return columns()
            except _Declined:
                pass  # the declined file's buffers are freed before the row loop starts
        return rows()

    taxonomy = _load_taxonomy(paths.taxonomy, issues)
    researchers, researcher_lookup = read(
        lambda: _researcher_columns(paths.researchers, taxonomy, window),
        lambda: _researcher_rows(paths.researchers, taxonomy, window, issues, stopped))
    report.parsed["researcher_rows"] = researchers.rows
    report.drop("researcher_years_outside_window", researchers.outside_window)

    pubs, pub_lookup = read(
        lambda: _publication_columns(paths.publications, window),
        lambda: _publication_rows(paths.publications, window, issues, stopped))
    report.parsed["publications"] = pubs.rows
    report.drop("publications_outside_window", pubs.outside_window)

    n_kept_pubs = len(pubs.pub_ids)
    links = read(
        lambda: _authorship_columns(paths.authorships, pub_lookup, n_kept_pubs, researcher_lookup),
        lambda: _authorship_rows(paths, pub_lookup, n_kept_pubs, researcher_lookup, issues,
                                 stopped))
    del pub_lookup, researcher_lookup
    report.parsed["authorships"] = links.rows
    report.drop("authorships_of_dropped_publications", links.to_dropped_pubs)

    pub_ids, author_counts = pubs.pub_ids, pubs.author_count
    links_per_pub = np.bincount(np.array(links.link_pub, dtype=np.intp), minlength=len(pub_ids))
    over_linked = np.flatnonzero(np.array(author_counts, dtype=np.int64) < links_per_pub)
    for row in sorted(over_linked.tolist(), key=pub_ids.__getitem__):
        issues.add(ISSUE_CONSTRAINT, f"publication {pub_ids[row]!r} has author_count "
                   f"{author_counts[row]} but {links_per_pub[row]} roster authorships",
                   paths.publications, key=pub_ids[row])

    if issues:
        raise CorpusValidationError(issues)
    assert taxonomy is not None

    corpus = build_corpus(taxonomy, researchers.records(), pub_ids, pubs.year, pubs.citations,
                          author_counts, pubs.category_sets, pubs.category_set_of,
                          links.link_pub, links.link_researcher, config, report)
    for key, value in sorted(report.dropped.items()):
        log.info("load_corpus dropped %d: %s", value, key)
    return corpus
