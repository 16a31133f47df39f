"""Citation cells and highly-cited-article flagging.

Publications are compared only against publications of the same year and
subject category (one "cell" per pair). A publication is highly cited at
percentile p when fewer than p% of its cell rank strictly above it; ties
share the better outcome. Multi-category publications are judged in
every one of their cells and keep the most favourable result. The
per-discipline dataset summary counts the flagged publications.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .ingest import Corpus
from .model import p_label


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
    publication rows pub_row[start[i]:start[i + 1]], ascending. Cells are in
    (year, category) order; iterating reads them back as CitationCell records.
    """

    corpus: Corpus
    year: np.ndarray
    category: np.ndarray
    start: np.ndarray
    pub_row: np.ndarray

    def __len__(self) -> int:
        return len(self.year)

    def __iter__(self) -> Iterator[CitationCell]:
        corpus = self.corpus
        members = np.split(self.pub_row, self.start[1:-1])
        for year, category, rows in zip(self.year.tolist(), self.category.tolist(), members):
            yield CitationCell(year, corpus.categories[category],
                               tuple(map(corpus.pub_ids.__getitem__, rows.tolist())),
                               tuple(corpus.citations[rows].tolist()))


@dataclass(frozen=True)
class HcaFlagSet:
    """Publications flagged as highly cited at one percentile threshold.

    best_category records, for each flagged publication in ascending
    pub_id order, the category in which it achieved its best cell standing
    (smallest share of members strictly above it; ties broken by category
    code). hit marks the flagged rows of the corpus the cells came from.
    """

    p: float
    flagged: frozenset[str]
    best_category: Mapping[str, str]
    hit: np.ndarray = field(compare=False, repr=False)


def build_cells(corpus: Corpus) -> CitationCells:
    """Group publications into (year, category) cells.

    A publication with several categories is a member of one cell per
    category. One lexsort of the memberships by (year, category code, pub
    row) gives the cells sorted by (year, category) with members sorted by
    pub_id, whatever the input order.
    """
    member_pub = np.repeat(np.arange(len(corpus.pub_ids)), np.diff(corpus.category_start))
    member_year = corpus.year[member_pub]
    order = np.lexsort((member_pub, corpus.category_code, member_year))
    year, category = member_year[order], corpus.category_code[order]
    head = np.ones(len(order), dtype=bool)
    head[1:] = (year[1:] != year[:-1]) | (category[1:] != category[:-1])
    heads = np.flatnonzero(head)
    return CitationCells(corpus=corpus, year=year[heads], category=category[heads],
                         start=np.append(heads, len(order)), pub_row=member_pub[order])


def _strictly_above(cell_of: np.ndarray, citations: np.ndarray,
                    sizes: np.ndarray) -> np.ndarray:
    """For each membership, how many members of its cell have strictly
    more citations: the cell's end minus the end of the member's tie
    group, both read off one sort by (cell, citations)."""
    order = np.lexsort((citations, cell_of))
    sorted_cell, sorted_cit = cell_of[order], citations[order]
    group_last = np.ones(len(order), dtype=bool)
    group_last[:-1] = (sorted_cell[1:] != sorted_cell[:-1]) | (sorted_cit[1:] != sorted_cit[:-1])
    group_ends = np.flatnonzero(group_last) + 1
    tie_end = np.repeat(group_ends, np.diff(group_ends, prepend=0))
    above = np.empty(len(order), dtype=np.int64)
    above[order] = np.cumsum(sizes)[sorted_cell] - tie_end
    return above


def _best_category(pub_of: np.ndarray, share_above: np.ndarray,
                   member_category: np.ndarray) -> np.ndarray:
    """Per publication row, the category code of its smallest
    (share strictly above, category code) membership."""
    best = np.lexsort((member_category, share_above, pub_of))
    first = np.flatnonzero(np.diff(pub_of[best], prepend=-1))
    return member_category[best[first]]


def flag_hcas(cells: CitationCells, percentiles: Iterable[float]) -> dict[float, HcaFlagSet]:
    """Flag publications highly cited at every percentile in one pass.

    The strictly-above count b of each cell membership, the cell sizes and
    each publication's best standing do not depend on p, so they are
    computed once for all memberships. Each p then costs one vectorized
    comparison, scattered to publication rows: a multi-category
    publication is flagged if it qualifies in at least one of its cells
    (the most favourable category counts). Row indices become pub_id and
    category strings only for the flagged publications.

    The rule b < p*size/100 is decided exactly, with p taken as the decimal
    it is written as (Fraction(repr(p))), not as its binary float: for an
    integer b it holds iff b < ceil(p*size/100), an integer cutoff computed
    once per distinct cell size.
    """
    percentiles = list(percentiles)
    for p in percentiles:
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
    corpus = cells.corpus
    n_pubs = len(corpus.pub_ids)
    sizes = np.diff(cells.start)
    # one entry per membership; int32 codes keep the peak memory down
    cell_of = np.repeat(np.arange(len(cells), dtype=np.int32), sizes)
    above = _strictly_above(cell_of, corpus.citations[cells.pub_row], sizes)
    # every publication has a category, so is in a cell: one best category per row
    best_category = _best_category(cells.pub_row, above / sizes[cell_of], cells.category[cell_of])
    distinct_sizes, size_index = np.unique(sizes, return_inverse=True)
    member_size = size_index[cell_of]

    flag_sets = {}
    for p in percentiles:
        exact_p = Fraction(repr(float(p)))
        cutoffs = np.array([math.ceil(exact_p * size / 100) for size in distinct_sizes.tolist()],
                           dtype=np.int64)
        hit = np.zeros(n_pubs, dtype=bool)
        hit[cells.pub_row[above < cutoffs[member_size]]] = True
        rows = np.flatnonzero(hit)
        best = dict(zip(map(corpus.pub_ids.__getitem__, rows.tolist()),
                        map(corpus.categories.__getitem__, best_category[rows].tolist())))
        # a frozenset built from a dict is sized once, half the table of one grown from a generator
        flag_sets[p] = HcaFlagSet(p=p, flagged=frozenset(best), best_category=best, hit=hit)
    return flag_sets


def write_flags_csv(flag_sets: Mapping[float, HcaFlagSet], path: Path) -> int:
    """Export flagged publications with the category of their best standing,
    by percentile and then pub_id: best_category is in pub_id order."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["pub_id", "p", "category_of_best_rank"])
        for p in sorted(flag_sets):
            label = p_label(p)
            writer.writerows((pub_id, label, category)
                             for pub_id, category in flag_sets[p].best_category.items())
    return sum(len(flag_set.best_category) for flag_set in flag_sets.values())


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


def corpus_summary(corpus: Corpus, flag_sets: Mapping[float, HcaFlagSet]) -> SummaryTable:
    """Per-discipline dataset summary.

    A publication counts once per discipline it reaches through its
    roster authors, so a cross-discipline co-authored publication counts
    in several rows; the overall row de-duplicates (it counts distinct
    publications), which is why per-discipline columns can sum to more
    than the overall value. The distinct (discipline, publication) pairs
    come from one sort of the links' codes uda * n_pubs + pub_row.
    """
    percentiles = corpus.config.sorted_percentiles
    taxonomy = corpus.taxonomy
    researcher_udas = [taxonomy.uda_of(r.sds) for r in corpus.researchers.values()]
    udas = sorted(set(researcher_udas))
    code = {uda: i for i, uda in enumerate(udas)}
    researcher_uda = np.array([code[uda] for uda in researcher_udas], dtype=np.int64)
    n_sds = Counter(taxonomy.uda_of(sds) for sds in {r.sds for r in corpus.researchers.values()})

    def per_uda(codes: np.ndarray) -> list[int]:
        return np.bincount(codes, minlength=len(udas)).tolist()

    stride = max(len(corpus.pub_ids), 1)
    pairs = np.sort(researcher_uda[corpus.link_researcher] * stride + corpus.link_pub)
    pair_uda, pair_pub = np.divmod(pairs[np.diff(pairs, prepend=-1) != 0], stride)
    columns = zip(udas, per_uda(researcher_uda), per_uda(pair_uda),
                  *(per_uda(pair_uda[flag_sets[p].hit[pair_pub]]) for p in percentiles))
    rows = tuple(SummaryRow(uda, taxonomy.uda_names[uda], n_sds[uda], n_professors, n_publications,
                            dict(zip(percentiles, hca_counts)))
                 for uda, n_professors, n_publications, *hca_counts in columns)
    roster = corpus.has_roster_author
    overall = SummaryRow("ALL", "Overall", sum(r.n_sds for r in rows),
                         sum(r.n_professors for r in rows), int(roster.sum()),
                         {p: int((roster & flag_sets[p].hit).sum()) for p in percentiles})
    return SummaryTable(percentiles=percentiles, rows=rows, overall=overall)
