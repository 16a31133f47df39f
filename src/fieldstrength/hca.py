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
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .ingest import Corpus, PublicationRecord
from .model import p_label


@dataclass(frozen=True)
class CitationCell:
    """All publications of one (year, subject category) pair."""

    year: int
    category: str
    pub_ids: tuple[str, ...]
    citations: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.pub_ids)

    @property
    def members(self) -> list[tuple[str, int]]:
        return list(zip(self.pub_ids, self.citations))


@dataclass(frozen=True)
class HcaFlagSet:
    """Publications flagged as highly cited at one percentile threshold.

    best_category records, for each flagged publication, the category in
    which it achieved its best cell standing (smallest share of members
    strictly above it; ties broken by category code).
    """

    p: float
    flagged: frozenset[str]
    best_category: Mapping[str, str]


def build_cells(publications: Iterable[PublicationRecord]) -> list[CitationCell]:
    """Group publications into (year, category) cells.

    A publication with several categories appears in one cell per
    category. Cells come back sorted by (year, category) with members
    sorted by pub_id, so the output is independent of input order.
    """
    groups: dict[tuple[int, str], list[tuple[str, int]]] = {}
    for pub in publications:
        for category in pub.subject_categories:
            groups.setdefault((pub.year, category), []).append((pub.pub_id, pub.citations))
    cells = []
    for (year, category), members in sorted(groups.items()):
        members.sort()
        cells.append(
            CitationCell(
                year=year,
                category=category,
                pub_ids=tuple(m[0] for m in members),
                citations=tuple(m[1] for m in members),
            )
        )
    return cells


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


def flag_hcas(cells: Sequence[CitationCell],
              percentiles: Iterable[float]) -> dict[float, HcaFlagSet]:
    """Flag publications highly cited at every percentile in one pass.

    The strictly-above count b of each cell membership, the cell sizes and
    each publication's best standing do not depend on p, so they are
    computed once for all memberships. Each p then costs one vectorized
    comparison, scattered to publications: a multi-category publication is
    flagged if it qualifies in at least one of its cells (the most
    favourable category counts).

    The rule b < p*size/100 is decided exactly, with p taken as the decimal
    it is written as (Fraction(repr(p))), not as its binary float: for an
    integer b it holds iff b < ceil(p*size/100), an integer cutoff computed
    once per distinct cell size.
    """
    percentiles = list(percentiles)
    for p in percentiles:
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
    sizes = np.array([cell.size for cell in cells], dtype=np.int64)
    n = int(sizes.sum())
    # one entry per membership; int32 codes keep the peak memory down
    cell_of = np.repeat(np.arange(len(cells), dtype=np.int32), sizes)
    citations = np.fromiter(chain.from_iterable(cell.citations for cell in cells),
                            dtype=np.int64, count=n)
    row_of: dict[str, int] = {}
    pub_of = np.fromiter((row_of.setdefault(pub_id, len(row_of))
                          for cell in cells for pub_id in cell.pub_ids), dtype=np.int32, count=n)
    pub_ids = list(row_of)
    del row_of
    categories = sorted({cell.category for cell in cells})
    code = {category: i for i, category in enumerate(categories)}
    member_category = np.array([code[cell.category] for cell in cells], dtype=np.int32)[cell_of]

    above = _strictly_above(cell_of, citations, sizes)
    best_category = _best_category(pub_of, above / sizes[cell_of], member_category).tolist()
    distinct_sizes, size_index = np.unique(sizes, return_inverse=True)

    flag_sets = {}
    for p in percentiles:
        exact_p = Fraction(repr(float(p)))
        cutoffs = np.array([math.ceil(exact_p * size / 100) for size in distinct_sizes.tolist()],
                           dtype=np.int64)
        hit = np.zeros(len(pub_ids), dtype=bool)
        hit[pub_of[above < cutoffs[size_index][cell_of]]] = True
        best = {pub_ids[row]: categories[best_category[row]] for row in np.flatnonzero(hit).tolist()}
        # a frozenset built from a dict is sized once, half the table of one grown from a generator
        flag_sets[p] = HcaFlagSet(p=p, flagged=frozenset(best), best_category=best)
    return flag_sets


def fractional_value(pub: PublicationRecord) -> float:
    """Each author's share of one publication: 1 / author_count."""
    if pub.author_count < 1:
        raise ValueError(f"publication {pub.pub_id} has author_count {pub.author_count}")
    return 1.0 / pub.author_count


def write_flags_csv(flag_sets: Mapping[float, HcaFlagSet], path: Path) -> int:
    """Export flagged publications with the category of their best standing."""
    rows = []
    for p in sorted(flag_sets):
        flags = flag_sets[p]
        for pub_id in sorted(flags.flagged):
            rows.append((pub_id, p_label(p), flags.best_category[pub_id]))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["pub_id", "p", "category_of_best_rank"])
        writer.writerows(rows)
    return len(rows)


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


def corpus_summary(corpus: Corpus, flag_sets: Mapping[float, HcaFlagSet],
                   authors_by_pub: Mapping[str, tuple[str, ...]]) -> SummaryTable:
    """Per-discipline dataset summary.

    A publication counts once per discipline it reaches through its
    roster authors, so a cross-discipline co-authored publication counts
    in several rows; the overall row de-duplicates (it counts distinct
    publications), which is why per-discipline columns can sum to more
    than the overall value. authors_by_pub is corpus.authors_by_pub,
    built once by the caller.
    """
    percentiles = corpus.config.sorted_percentiles
    flagged = {p: flag_sets[p].flagged for p in percentiles}

    pubs_by_uda: dict[str, set[str]] = {}
    profs_by_uda: dict[str, set[str]] = {}
    sds_by_uda: dict[str, set[str]] = {}
    for researcher in corpus.researchers.values():
        uda = corpus.taxonomy.uda_of(researcher.sds)
        profs_by_uda.setdefault(uda, set()).add(researcher.researcher_id)
        sds_by_uda.setdefault(uda, set()).add(researcher.sds)
    for pub_id, authors in authors_by_pub.items():
        for researcher_id in authors:
            uda = corpus.taxonomy.uda_of(corpus.researchers[researcher_id].sds)
            pubs_by_uda.setdefault(uda, set()).add(pub_id)

    rows = []
    for uda in sorted(profs_by_uda):
        pubs = pubs_by_uda.get(uda, set())
        rows.append(
            SummaryRow(
                uda=uda,
                uda_name=corpus.taxonomy.uda_names[uda],
                n_sds=len(sds_by_uda[uda]),
                n_professors=len(profs_by_uda[uda]),
                n_publications=len(pubs),
                hca_counts={p: len(pubs & flagged[p]) for p in percentiles},
            )
        )

    all_pubs = set(authors_by_pub)
    overall = SummaryRow(
        uda="ALL",
        uda_name="Overall",
        n_sds=sum(r.n_sds for r in rows),
        n_professors=sum(r.n_professors for r in rows),
        n_publications=len(all_pubs),
        hca_counts={p: len(all_pubs & flagged[p]) for p in percentiles},
    )
    return SummaryTable(percentiles=percentiles, rows=tuple(rows), overall=overall)
