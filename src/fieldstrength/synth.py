"""Deterministic synthetic corpus generation for tests and demos.

Desk-scale stand-in for a national dataset: a taxonomy of disciplines
and fields, professors with per-year ranks, and publications with
heavy-tailed citation counts so that the top-percentile share of large
cells lands near the nominal p%. Everything is driven by one seed; the
same seed always produces byte-identical files.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .model import (AUTHORSHIPS_HEADER, PUBLICATIONS_HEADER, RANK_ASSISTANT, RANK_ASSOCIATE,
                    RANK_FULL, RESEARCHERS_HEADER, TAXONOMY_HEADER)


@dataclass(frozen=True)
class SynthParams:
    seed: int = 42
    n_udas: int = 11
    n_fields_per_uda: int = 4
    professors_per_field: tuple[int, int] = (20, 40)
    window: tuple[int, int] = (2012, 2016)
    min_years: int = 3
    pubs_per_professor_mean: float = 15.0
    citation_log_mean: float = 1.2
    citation_log_sigma: float = 1.1
    n_categories: int = 40
    categories_per_pub: tuple[int, int] = (1, 3)
    home_category_bias: float = 0.7
    coauthor_prob: float = 0.3
    cross_field_coauthor_prob: float = 0.05
    extra_authors_mean: float = 3.0
    rank_mix: tuple[float, float, float] = (0.35, 0.40, 0.25)
    promotion_prob: float = 0.2
    full_window_prob: float = 0.8
    baseline_share: float = 0.05
    # Share of cell-top slots reachable by roster publications. Below 1.0
    # the generator injects unaffiliated baseline publications cited above
    # every roster publication of the cell; at 0.0 no roster publication
    # can be highly cited at any percentile up to max_percentile.
    hca_fraction: float = 1.0
    max_percentile: float = 10.0

    def __post_init__(self):
        """Reject every value the generator cannot take, naming its key."""
        def share(value: float) -> bool:
            return 0.0 <= value <= 1.0

        rules = [
            ("seed", self.seed >= 0, ">= 0"),
            ("n_udas", self.n_udas >= 1, ">= 1"),
            ("n_fields_per_uda", self.n_fields_per_uda >= 1, ">= 1"),
            ("professors_per_field", 1 <= self.professors_per_field[0]
             <= self.professors_per_field[1], "[low, high] with 1 <= low <= high"),
            ("window", self.window[0] <= self.window[1], "[start, end] with start <= end"),
            ("min_years", self.min_years >= 1, ">= 1"),
            ("pubs_per_professor_mean", self.pubs_per_professor_mean >= 0, ">= 0"),
            ("citation_log_sigma", self.citation_log_sigma >= 0, ">= 0"),
            ("n_categories", self.n_categories >= 1, ">= 1"),
            ("categories_per_pub", 1 <= self.categories_per_pub[0] <= self.categories_per_pub[1],
             "[low, high] with 1 <= low <= high"),
            ("home_category_bias", share(self.home_category_bias), "in [0, 1]"),
            ("coauthor_prob", share(self.coauthor_prob), "in [0, 1]"),
            ("cross_field_coauthor_prob", share(self.cross_field_coauthor_prob), "in [0, 1]"),
            ("extra_authors_mean", self.extra_authors_mean >= 0, ">= 0"),
            ("rank_mix", min(self.rank_mix) >= 0 and abs(sum(self.rank_mix) - 1.0) <= 1e-9,
             "three shares >= 0 that sum to 1"),
            ("promotion_prob", share(self.promotion_prob), "in [0, 1]"),
            ("full_window_prob", share(self.full_window_prob), "in [0, 1]"),
            ("baseline_share", self.baseline_share >= 0, ">= 0"),
            ("hca_fraction", share(self.hca_fraction), "in [0, 1]"),
            ("max_percentile", 0 < self.max_percentile < 100, "in (0, 100)"),
        ]
        for name, ok, rule in rules:
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass
class SynthTables:
    taxonomy: list[tuple[str, str, str, str]] = field(default_factory=list)
    researchers: list[tuple[str, str, int, str]] = field(default_factory=list)
    publications: list[tuple[str, int, int, int, str]] = field(default_factory=list)
    authorships: list[tuple[str, str]] = field(default_factory=list)


_RANK_LADDER = (RANK_ASSISTANT, RANK_ASSOCIATE, RANK_FULL)


# Each citation draw is clipped to this ceiling, far below 2**63 - 1, so
# that every corpus validates whatever citation_log_mean is, the baseline
# injected just above a cell's top included. The clip draws nothing, so it
# changes no corpus whose draws stay below the ceiling.
_MAX_CITATIONS = 1e12


def _sample_citations(rng: np.random.Generator, params: SynthParams) -> int:
    draw = rng.lognormal(params.citation_log_mean, params.citation_log_sigma)
    return int(draw if draw < _MAX_CITATIONS else _MAX_CITATIONS)


class _Draws:
    """Scalar draws of a PCG64 `Generator`, read straight from its bit generator.

    Each method makes the very draws of the `Generator` call it names, in
    numpy's order, without the call's argument handling: that costs 2-12 us
    a call, the draw itself about 0.4 us. `lognormal` and `poisson` stay
    `Generator` calls. They read `next_uint64`, which leaves alone the
    half-used `next_uint32` word that both sides keep in the C state.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng  # also keeps the state that the ctypes calls point into
        bits = rng.bit_generator.ctypes
        self._u32 = partial(bits.next_uint32, bits.state)
        self.random = partial(bits.next_double, bits.state)  # rng.random()

    def below(self, n: int) -> int:
        """rng.integers(0, n) for n >= 1: Lemire's rule on next_uint32."""
        if n == 1:
            return 0
        if n > 1 << 32:
            return int(self.rng.integers(0, n))
        m = self._u32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (1 << 32) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._u32() * n
        return m >> 32

    def pick(self, seq):
        """rng.choice(seq)."""
        return seq[self.below(len(seq))]

    @staticmethod
    def cdf(p) -> list[float]:
        """The cdf that rng.choice builds from p: the float64 cumsum over its last value."""
        cdf = np.cumsum(np.asarray(p, dtype=np.float64))
        return (cdf / cdf[-1]).tolist()

    def weighted(self, cdf: list[float]) -> int:
        """rng.choice(len(cdf), p=p), given cdf(p)."""
        return bisect_right(cdf, self.random())

    def sample(self, n: int, k: int) -> list[int]:
        """rng.choice(n, size=k, replace=False): Floyd's loop, then a shuffle.

        numpy takes this branch for n <= 10,000 or k <= n // 50; above
        that it shuffles a tail of arange(n) instead.
        """
        picks: list[int] = []
        for j in range(n - k, n):
            value = self.below(j + 1)
            picks.append(j if value in picks else value)
        for i in range(k - 1, 0, -1):
            j = self.below(i + 1)
            picks[i], picks[j] = picks[j], picks[i]
        return picks


def generate_tables(params: SynthParams) -> SynthTables:
    """Build the four tables in memory; deterministic per params."""
    rng = np.random.default_rng(params.seed)
    draw = _Draws(rng)
    rank_cdf = draw.cdf(params.rank_mix)
    tables = SynthTables()
    start, end = params.window
    years = list(range(start, end + 1))
    categories = [f"C{i:03d}" for i in range(params.n_categories)]

    # taxonomy + per-field home categories
    field_codes: list[str] = []
    home_cats: dict[str, list[str]] = {}
    for u in range(params.n_udas):
        uda = f"D{u + 1:02d}"
        for f in range(params.n_fields_per_uda):
            sds = f"{uda}/{f + 1:02d}"
            tables.taxonomy.append((sds, f"Field {sds}", uda, f"Discipline {u + 1:02d}"))
            field_codes.append(sds)
            picks = draw.sample(params.n_categories, min(2, params.n_categories))
            home_cats[sds] = [categories[i] for i in sorted(picks)]

    # researchers with per-year ranks
    researchers_by_field: dict[str, list[str]] = {sds: [] for sds in field_codes}
    active_years: dict[str, list[int]] = {}
    counter = 0
    lo, hi = params.professors_per_field
    for sds in field_codes:
        n_profs = lo + draw.below(hi - lo + 1)
        for _ in range(n_profs):
            counter += 1
            rid = f"R{counter:05d}"
            researchers_by_field[sds].append(rid)
            if draw.random() < params.full_window_prob or len(years) <= params.min_years:
                span = years
            else:
                length = params.min_years + draw.below(len(years) - params.min_years)
                offset = draw.below(len(years) - length + 1)
                span = years[offset:offset + length]
            active_years[rid] = span
            rank_idx = draw.weighted(rank_cdf)
            promote_at = None
            if rank_idx < 2 and len(span) > 1 and draw.random() < params.promotion_prob:
                promote_at = draw.pick(span[1:])
            for year in span:
                if promote_at is not None and year >= promote_at:
                    idx = min(rank_idx + 1, 2)
                else:
                    idx = rank_idx
                tables.researchers.append((rid, sds, year, _RANK_LADDER[idx]))

    # publications + authorships
    pub_counter = 0
    cat_lo, cat_hi = params.categories_per_pub
    for sds in field_codes:
        members = researchers_by_field[sds]
        for i, rid in enumerate(members):
            n_pubs = int(rng.poisson(params.pubs_per_professor_mean))
            for _ in range(n_pubs):
                pub_counter += 1
                pub_id = f"P{pub_counter:06d}"
                year = draw.pick(active_years[rid])
                citations = _sample_citations(rng, params)

                n_cats = cat_lo + draw.below(cat_hi - cat_lo + 1)
                cats: list[str] = []
                for _ in range(n_cats):
                    if draw.random() < params.home_category_bias:
                        cat = draw.pick(home_cats[sds])
                    else:
                        cat = draw.pick(categories)
                    if cat not in cats:
                        cats.append(cat)
                cats.sort()

                authors = [rid]
                if len(members) > 1 and draw.random() < params.coauthor_prob:
                    pool = members[:i] + members[i + 1:]
                    n_co = min(1 + draw.below(2), len(pool))
                    for other in draw.sample(len(pool), n_co):
                        authors.append(pool[other])
                # occasional collaboration outside the field, so articles can
                # count in more than one discipline
                if len(field_codes) > 1 and draw.random() < params.cross_field_coauthor_prob:
                    other_sds = draw.pick(field_codes)
                    if other_sds != sds and researchers_by_field[other_sds]:
                        pool = researchers_by_field[other_sds]
                        candidate = draw.pick(pool)
                        if candidate not in authors:
                            authors.append(candidate)
                author_count = len(authors) + int(rng.poisson(params.extra_authors_mean))

                tables.publications.append((pub_id, year, citations, author_count, ";".join(cats)))
                for author in authors:
                    tables.authorships.append((pub_id, author))

    # unaffiliated world-baseline publications
    n_baseline = int(round(params.baseline_share * pub_counter))
    for _ in range(n_baseline):
        pub_counter += 1
        year = draw.pick(years)
        cat = draw.pick(categories)
        tables.publications.append((
            f"P{pub_counter:06d}", year, _sample_citations(rng, params),
            1 + int(rng.poisson(params.extra_authors_mean)), cat,
        ))

    # bury roster publications below injected baseline when asked to;
    # flood size covers the whole cell population present so far
    if params.hca_fraction < 1.0:
        cell_count: dict[tuple[int, str], int] = {}
        cell_max: dict[tuple[int, str], int] = {}
        for _, year, citations, _, cats_text in tables.publications:
            for cat in cats_text.split(";"):
                key = (year, cat)
                cell_count[key] = cell_count.get(key, 0) + 1
                cell_max[key] = max(cell_max.get(key, -1), citations)
        mp = params.max_percentile
        for (year, cat), n_members in sorted(cell_count.items()):
            full_flood = math.ceil(n_members * mp / (100.0 - mp)) + 1
            flood = math.ceil(full_flood * (1.0 - params.hca_fraction))
            top = cell_max[(year, cat)]
            for i in range(flood):
                pub_counter += 1
                tables.publications.append((
                    f"P{pub_counter:06d}", year, top + 1 + i,
                    1 + int(rng.poisson(params.extra_authors_mean)), cat,
                ))

    tables.taxonomy.sort()
    tables.researchers.sort()
    tables.publications.sort()
    tables.authorships.sort()
    return tables


def generate(params: SynthParams, out_dir: Path) -> dict[str, Path]:
    """Write the four corpus CSVs; returns name -> path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = generate_tables(params)
    layout = {
        "taxonomy": (TAXONOMY_HEADER, tables.taxonomy),
        "researchers": (RESEARCHERS_HEADER, tables.researchers),
        "publications": (PUBLICATIONS_HEADER, tables.publications),
        "authorships": (AUTHORSHIPS_HEADER, tables.authorships),
    }
    paths = {}
    for name, (header, rows) in layout.items():
        path = out_dir / f"{name}.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        paths[name] = path
    return paths
