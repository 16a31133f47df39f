"""Brute-force reference implementations used to cross-check the engine.

Everything here is deliberately naive: quadratic scans, textbook formulas
and row loops, written without numpy so they cannot share bugs with the
optimized code paths they verify. The load oracle reuses only the csv
tokenizer (ingest._read_rows), the taxonomy loader, number and category
parsing (_category_set, the one rule the byte-level category split
follows), the wording of ingest._Issues and build_corpus, to which it hands
its lists as arrays. Used by the test suite and the acceptance runs only;
never on the hot path.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain
from typing import Optional, Sequence

import numpy as np

from .errors import CorpusValidationError
from .ingest import (_PUBLICATION_NUMBERS, Corpus, CorpusPaths, LoadReport, _category_set,
                     _file_bytes, _Issues, _load_taxonomy, _parse_int, _read_rows, build_corpus)
from .model import (AUTHORSHIPS_HEADER, PUBLICATIONS_HEADER, RANKS, RESEARCHERS_HEADER,
                    AnalysisConfig)


def oracle_top_p(members: Sequence[tuple[str, int]], p: float) -> set[str]:
    """Flag the top-p% members of one citation cell by pairwise counting.

    A member is flagged iff the number of members with strictly more
    citations, b, satisfies 100*b < p*len(members), compared exactly with
    p as the decimal it is written as. Ties therefore share the better
    outcome.
    """
    size = len(members)
    exact_p = Fraction(repr(float(p)))
    flagged = set()
    for pub_id, cits in members:
        b = 0
        for _, other in members:
            if other > cits:
                b += 1
        if 100 * b < exact_p * size:
            flagged.add(pub_id)
    return flagged


def oracle_quantile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated order statistic at position (n-1)*q."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of empty sequence")
    pos = (len(data) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return data[lo] + frac * (data[hi] - data[lo])


def oracle_quartiles(values: Sequence[float]) -> tuple[float, float]:
    """(q1, q3) by direct sort-and-interpolate."""
    return oracle_quantile(values, 0.25), oracle_quantile(values, 0.75)


def oracle_fractional_ranks(values: Sequence[float]) -> list[float]:
    """Ascending ranks 1..n, tied values sharing the mean of their ranks.

    For each element: (count strictly below) + (count equal + 1) / 2,
    counted by direct comparison against every other element.
    """
    ranks = []
    for x in values:
        below = sum(1 for y in values if y < x)
        equal = sum(1 for y in values if y == x)
        ranks.append(below + (equal + 1) / 2.0)
    return ranks


def oracle_spearman(x: Sequence[float], y: Sequence[float]) -> Optional[float]:
    """Tie-safe Spearman: Pearson on fractional ranks, by direct sums.

    Returns None when either rank vector has zero variance (undefined).
    """
    if len(x) != len(y):
        raise ValueError("length mismatch")
    n = len(x)
    if n < 2:
        return None
    rx = oracle_fractional_ranks(x)
    ry = oracle_fractional_ranks(y)
    sx = sum(rx)
    sy = sum(ry)
    sxx = sum(v * v for v in rx)
    syy = sum(v * v for v in ry)
    sxy = sum(a * b for a, b in zip(rx, ry))
    var_x = n * sxx - sx * sx
    var_y = n * syy - sy * sy
    if var_x <= 0 or var_y <= 0:
        return None
    return (n * sxy - sx * sy) / math.sqrt(var_x * var_y)


def oracle_load(paths: CorpusPaths, config: AnalysisConfig) -> Corpus:
    """load_corpus as a row loop: each row checked in file order against
    dicts of the rows before it, each problem an issue at its line. Returns
    the same Corpus, or raises the same CorpusValidationError."""
    issues, stopped, report = _Issues(), set(), LoadReport()
    window = config.years
    taxonomy = _load_taxonomy(paths.taxonomy, issues)

    path, header, n_rows, outside = paths.researchers, RESEARCHERS_HEADER, 0, 0
    researcher_sds: dict[str, str] = {}  # a researcher's field: that of its first valid row
    rank_in: dict[str, dict[int, str]] = {}
    rows = _read_rows(path, _file_bytes(path), header, issues, stopped)
    for n_rows, (line, row) in enumerate(rows, 1):
        researcher_id, sds_code, year_text, rank = map(str.strip, row)
        rank = rank.lower()
        year = _parse_int(year_text, "year", path, line, issues)
        if year is None:
            continue
        if rank not in RANKS:
            issues.unknown_rank(path, line, rank)
        elif taxonomy is not None and sds_code not in taxonomy.sds_to_uda:
            issues.unknown_sds(path, line, researcher_id, sds_code)
        elif researcher_sds.setdefault(researcher_id, sds_code) != sds_code:
            issues.two_fields(path, line, researcher_id, researcher_sds[researcher_id], sds_code)
        elif year not in window:
            outside += 1
        elif year in rank_in.setdefault(researcher_id, {}):
            issues.duplicate_year(path, line, researcher_id, year)
        else:
            rank_in[researcher_id][year] = rank
    report.parsed["researcher_rows"] = n_rows
    report.drop("researcher_years_outside_window", outside)
    researcher_index = {rid: i for i, rid in enumerate(researcher_sds)}
    active = [(researcher_index[rid], year, RANKS.index(rank))  # (researcher, year, rank code)
              for rid, ranks in rank_in.items() for year, rank in ranks.items()]

    path, header, n_rows, outside = paths.publications, PUBLICATIONS_HEADER, 0, 0
    pub_row: dict[str, int] = {}  # each listed pub_id to its row in pubs, -1 when not kept
    pubs: list[tuple] = []  # (pub_id, year, citations, author_count, index in category_sets)
    category_sets: list[tuple[str, ...]] = []  # of every listed pub_id, as load_corpus keeps
    rows = _read_rows(path, _file_bytes(path), header, issues, stopped)
    for n_rows, (line, row) in enumerate(rows, 1):
        pub_id, *texts, categories = map(str.strip, row)
        numbers = [_parse_int(text, what, path, line, issues, minimum, maximum)
                   for text, (what, minimum, maximum) in zip(texts, _PUBLICATION_NUMBERS)]
        if None in numbers:
            continue
        if pub_id in pub_row:
            issues.duplicate_pub(path, line, pub_id)
            continue
        pub_row[pub_id] = -1
        category_sets.append(_category_set(categories))
        if not category_sets[-1]:
            issues.no_categories(path, line, pub_id)
        elif numbers[0] not in window:
            outside += 1
        else:
            pub_row[pub_id] = len(pubs)
            pubs.append((pub_id, *numbers, len(category_sets) - 1))
    report.parsed["publications"] = n_rows
    report.drop("publications_outside_window", outside)

    path, header, n_rows, to_dropped_pubs = paths.authorships, AUTHORSHIPS_HEADER, 0, 0
    links: dict[tuple[int, int], None] = {}  # (pub row, researcher index), in file order
    rows = _read_rows(path, _file_bytes(path), header, issues, stopped)
    for n_rows, (line, row) in enumerate(rows, 1):
        pub_id, researcher_id = map(str.strip, row)
        pub = pub_row.get(pub_id)
        if pub is None and paths.publications not in stopped:
            issues.unknown_pub(path, line, pub_id)
            continue
        if researcher_id not in researcher_index:
            if paths.researchers not in stopped:
                issues.unknown_researcher(path, line, researcher_id)
                continue
            researcher_index[researcher_id] = len(researcher_index)
        link = (pub, researcher_index[researcher_id])
        if pub is None or pub < 0:
            to_dropped_pubs += 1
        elif link in links:
            issues.duplicate_link(path, line, pub_id, researcher_id)
        else:
            links[link] = None
    report.parsed["authorships"] = n_rows
    report.drop("authorships_of_dropped_publications", to_dropped_pubs)

    links_per_pub = Counter(pub for pub, _ in links)
    for pub in sorted(links_per_pub, key=lambda pub: pubs[pub][0]):
        if pubs[pub][3] < links_per_pub[pub]:
            issues.over_linked(paths.publications, pubs[pub][0], pubs[pub][3], links_per_pub[pub])
    if issues:
        raise CorpusValidationError(issues)
    pub_ids, years, citations, author_counts, set_of = ([pub[k] for pub in pubs] for k in range(5))
    return build_corpus(taxonomy, np.array(list(researcher_sds), dtype=object),
                        np.array(list(researcher_sds.values()), dtype=object),
                        *(np.array([row[k] for row in active], dtype=np.int64) for k in range(3)),
                        np.array(pub_ids, dtype=object),
                        *(np.array(column, dtype=np.int64)
                          for column in (years, citations, author_counts)),
                        *category_columns(category_sets, set_of),
                        np.array([pub for pub, _ in links], dtype=np.intp),
                        np.array([r for _, r in links], dtype=np.intp), config, report)


def category_columns(category_sets: Sequence[tuple[str, ...]],
                     set_of: Sequence[int]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The categories of publications i = 0, 1, ... with the sorted, distinct
    categories category_sets[set_of[i]], as build_corpus takes them: every
    category of category_sets, sorted, and the codes of each publication's,
    publication i's being code[start[i]:start[i + 1]]."""
    categories = sorted(set(chain.from_iterable(category_sets)))
    code = {category: i for i, category in enumerate(categories)}
    codes = [[code[category] for category in category_sets[i]] for i in set_of]
    return (categories, np.array([0, *accumulate(map(len, codes))], dtype=np.intp),
            np.array(list(chain.from_iterable(codes)), dtype=np.int32))
