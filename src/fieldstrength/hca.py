"""Citation cells and highly-cited-article flagging.

Publications are compared only against publications of the same year and
subject category (one "cell" per pair). A publication is highly cited at
percentile p when fewer than p% of its cell rank strictly above it; ties
share the better outcome. Multi-category publications are judged in
every one of their cells and keep the most favourable result. The
per-discipline dataset summary counts the flagged publications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .ingest import Corpus, _sorted_distinct
from .model import csv_fields, csv_line, p_label


class CitationCell(NamedTuple):
    """All publications of one (year, subject category) pair."""

    year: int
    category: str
    pub_ids: tuple[str, ...]
    citations: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class CitationCells:
    """Every (year, subject category) cell of a corpus, as columns.

    Cell i is (year[i], corpus.categories[category[i]]); its members are the
    publication rows pub_row[start[i]:start[i + 1]], ascending. member[j] is
    the index of member slot j's membership in the corpus's category CSR
    (corpus.category_code[member[j]] is its cell's category), so a value per
    membership can be read back in (pub row, category code) order. Cells are
    in (year, category) order; iterating reads them back as CitationCell
    records.
    """

    corpus: Corpus
    year: np.ndarray
    category: np.ndarray
    start: np.ndarray
    pub_row: np.ndarray
    member: np.ndarray

    def __len__(self) -> int:
        return len(self.year)

    def __iter__(self) -> Iterator[CitationCell]:
        corpus = self.corpus
        members = np.split(self.pub_row, self.start[1:-1])
        for year, category, rows in zip(self.year.tolist(), self.category.tolist(), members):
            yield CitationCell(year, corpus.categories[category],
                               tuple(map(corpus.pub_ids.__getitem__, rows.tolist())),
                               tuple(corpus.citations[rows].tolist()))


@dataclass(frozen=True, eq=False)
class HcaFlags:
    """The highly cited articles of a corpus at every percentile threshold.

    hit[i, j] says whether publication row i of corpus is highly cited at
    percentiles[j], which ascend. best_category[i] is the category code of
    row i's best cell standing (smallest share of members strictly above
    it; ties broken by category code), which does not depend on p.
    """

    corpus: Corpus
    percentiles: tuple[float, ...]
    hit: np.ndarray
    best_category: np.ndarray


def build_cells(corpus: Corpus) -> CitationCells:
    """Group publications into (year, category) cells.

    A publication with several categories is a member of one cell per
    category. One stable argsort of the cell code (year code, category
    code) gives the cells sorted by (year, category) with members in
    membership order, and so sorted by pub_id.
    """
    n_members, n_categories = len(corpus.category_code), len(corpus.categories)
    pub_of = np.repeat(np.arange(len(corpus.pub_ids)), np.diff(corpus.category_start))
    years, year_code = _codes(corpus.year)
    cell = year_code[pub_of] * n_categories
    cell += corpus.category_code
    # in the narrowest unsigned type that holds every cell code: numpy's
    # stable sort of 8- and 16-bit integers is a radix sort
    member = np.argsort(cell.astype(np.min_scalar_type(len(years) * n_categories)),
                        kind="stable")
    cell = cell[member]
    heads = np.flatnonzero(np.diff(cell, prepend=-1))
    year, category = np.divmod(cell[heads], n_categories)
    return CitationCells(corpus=corpus, year=years[year], category=category,
                         start=np.append(heads, n_members), pub_row=pub_of[member],
                         member=member)


def _codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values, ascending, and each value's index among them."""
    distinct = _sorted_distinct(values)
    return distinct, np.searchsorted(distinct, values)


def _strictly_above(cell_of: np.ndarray, citations: np.ndarray,
                    sizes: np.ndarray) -> np.ndarray:
    """For each membership, how many members of its cell have strictly
    more citations: the cell's end minus the end of the member's tie
    group, both read off one sort by the key (cell, citation rank)."""
    distinct, rank = _codes(citations)
    key = cell_of * np.int64(len(distinct))
    key += rank
    del rank
    order = np.argsort(key)
    key = key[order]
    group_last = np.ones(len(key), dtype=bool)
    group_last[:-1] = key[1:] != key[:-1]
    del key
    group_ends = np.flatnonzero(group_last) + 1
    above = np.empty(len(order), dtype=np.int64)
    above[order] = np.repeat(np.cumsum(sizes)[cell_of[order[group_ends - 1]]] - group_ends,
                             np.diff(group_ends, prepend=0))
    return above


def _best_category(corpus: Corpus, share: np.ndarray) -> np.ndarray:
    """Per publication row, the category code of its smallest (share
    strictly above, category code) membership, with share given per
    membership in the corpus's category CSR order. There each row's codes
    ascend, so the first membership at its row's minimum share has the
    lowest code."""
    starts = corpus.category_start[:-1]
    lowest = np.repeat(np.minimum.reduceat(share, starts), np.diff(corpus.category_start))
    at_min = np.flatnonzero(share == lowest)
    del lowest
    return corpus.category_code[at_min[np.searchsorted(at_min, starts)]]


def flag_hcas(cells: CitationCells, percentiles: Iterable[float]) -> HcaFlags:
    """Flag publications highly cited at every percentile in one pass.

    The strictly-above count b of each cell membership, the cell sizes and
    each publication's best standing do not depend on p, so they are
    computed once for all memberships. Each p then costs one vectorized
    comparison, scattered to its column of publication rows: a
    multi-category publication is flagged if it qualifies in at least one
    of its cells (the most favourable category counts).

    The rule b < p*size/100 is decided exactly, with p taken as the decimal
    it is written as (Fraction(repr(p))), not as its binary float: for an
    integer b it holds iff b < ceil(p*size/100), an integer cutoff computed
    once per distinct cell size.
    """
    percentiles = tuple(sorted(set(percentiles)))
    for p in percentiles:
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
    corpus = cells.corpus
    sizes = np.diff(cells.start)
    # one entry per membership; int32 codes keep the peak memory down
    cell_of = np.repeat(np.arange(len(cells), dtype=np.int32), sizes)
    above = _strictly_above(cell_of, corpus.citations[cells.pub_row], sizes)
    # each membership's share of its cell strictly above it, in membership order
    share = np.empty(len(above))
    share[cells.member] = above / sizes[cell_of]
    # every publication has a category, so is in a cell: one best category per row
    best_category = _best_category(corpus, share)
    del share
    distinct_sizes, size_index = np.unique(sizes, return_inverse=True)
    member_size = size_index[cell_of]
    del cell_of

    # column order: each reader takes one percentile's column at a time
    hit = np.zeros((len(corpus.pub_ids), len(percentiles)), dtype=bool, order="F")
    for j, p in enumerate(percentiles):
        exact_p = Fraction(repr(float(p)))
        cutoffs = np.array([math.ceil(exact_p * size / 100) for size in distinct_sizes.tolist()],
                           dtype=np.int64)
        hit[cells.pub_row[above < cutoffs[member_size]], j] = True
    return HcaFlags(corpus, percentiles, hit, best_category)


def write_flags_csv(flags: HcaFlags, path: Path) -> int:
    """Export flagged publications with the category of their best standing,
    by percentile and then pub_id: publication rows are in pub_id order.
    Written by column, a percentile at a time, in the bytes of a csv.writer
    row per flag; each flagged pub_id and each category is quoted once."""
    corpus = flags.corpus
    flagged = np.flatnonzero(flags.hit.any(axis=1))
    ids = np.array(csv_fields(map(corpus.pub_ids.__getitem__, flagged.tolist())), dtype=object)
    tails = np.array([f"{category}\n" for category in csv_fields(corpus.categories)], dtype=object)
    tails = tails[flags.best_category[flagged]]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(csv_line(["pub_id", "p", "category_of_best_rank"]))
        for p, column in zip(flags.percentiles, flags.hit[flagged].T):
            k = np.flatnonzero(column)
            cells = np.stack(np.broadcast_arrays(ids[k], np.array(f",{p_label(p)},", dtype=object),
                                                 tails[k]), axis=-1)
            handle.write("".join(cells.ravel().tolist()))
    return int(np.count_nonzero(flags.hit))


@dataclass(frozen=True)
class SummaryRow:
    """One discipline's roster size and output, with HCA counts per percentile."""

    uda: str
    uda_name: str
    n_sds: int
    n_professors: int
    n_publications: int
    hca_counts: Mapping[float, int]


@dataclass(frozen=True)
class SummaryTable:
    percentiles: tuple[float, ...]
    rows: tuple[SummaryRow, ...]
    overall: SummaryRow


def corpus_summary(corpus: Corpus, flags: HcaFlags) -> SummaryTable:
    """Per-discipline dataset summary.

    A publication counts once per discipline it reaches through its
    roster authors, so a cross-discipline co-authored publication counts
    in several rows; the overall row de-duplicates (it counts distinct
    publications), which is why per-discipline columns can sum to more
    than the overall value. The distinct (discipline, publication) pairs
    come from one sort of the links' codes uda * n_pubs + pub_row.
    """
    percentiles, udas, field_uda = flags.percentiles, corpus.udas, corpus.field_uda
    researcher_uda = np.repeat(field_uda, np.diff(corpus.field_start))

    def per_uda(codes: np.ndarray) -> list[int]:
        return np.bincount(codes, minlength=len(udas)).tolist()

    stride = max(len(corpus.pub_ids), 1)
    pairs = np.sort(researcher_uda[corpus.link_researcher] * stride + corpus.link_pub)
    pair_uda, pair_pub = np.divmod(pairs[np.diff(pairs, prepend=-1) != 0], stride)
    columns = zip(udas, per_uda(field_uda), per_uda(researcher_uda), per_uda(pair_uda),
                  *(per_uda(pair_uda[hit[pair_pub]]) for hit in flags.hit.T))
    rows = tuple(SummaryRow(uda, corpus.taxonomy.uda_names[uda], n_sds, n_professors,
                            n_publications, dict(zip(percentiles, hca_counts)))
                 for uda, n_sds, n_professors, n_publications, *hca_counts in columns)
    roster = corpus.has_roster_author[:, None]
    overall = SummaryRow("ALL", "Overall", sum(r.n_sds for r in rows),
                         sum(r.n_professors for r in rows), int(roster.sum()),
                         dict(zip(percentiles, (flags.hit & roster).sum(axis=0).tolist())))
    return SummaryTable(percentiles=percentiles, rows=rows, overall=overall)
