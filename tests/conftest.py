from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from fieldstrength.hca import CitationCell, CitationCells, HcaFlags, build_cells
from fieldstrength.indicators import FieldTable
from fieldstrength.ingest import Corpus, CorpusPaths, LoadReport, build_corpus, load_corpus
from fieldstrength.model import RANKS, AnalysisConfig, CostModel, Taxonomy
from fieldstrength.oracles import category_columns
from fieldstrength.pipeline import PipelineResult, run_pipeline
from fieldstrength.scoring import ScoreTable
from fieldstrength.synth import SynthParams, generate

# few examples per property by default, to keep the suite quick; CI also
# runs the ingest properties with --hypothesis-profile=ci
settings.register_profile("default", max_examples=8)
settings.register_profile("ci", max_examples=50)


def mk_taxonomy(sds_to_uda: dict[str, str]) -> Taxonomy:
    return Taxonomy(
        sds_to_uda=sds_to_uda,
        sds_names={s: f"Field {s}" for s in sds_to_uda},
        uda_names={u: f"Discipline {u}" for u in sds_to_uda.values()},
    )


def mk_corpus(researchers, pubs, links, sds_to_uda, config=None) -> Corpus:
    """Assemble a Corpus with the loader's table constructor, bypassing the
    CSV layer.

    researchers: (id, sds, {year: rank}); pubs: (id, year, citations,
    author_count, [categories]); links: (pub_id, researcher_id).
    """
    pub_index = {pub[0]: i for i, pub in enumerate(pubs)}
    researcher_index = {researcher[0]: i for i, researcher in enumerate(researchers)}
    active = [(i, year, RANKS.index(rank)) for i, (_, _, ranks) in enumerate(researchers)
              for year, rank in dict(ranks).items()]
    categories, category_start, category_code = category_columns(
        [tuple(sorted(set(pub[4]))) for pub in pubs], range(len(pubs)))
    return build_corpus(
        mk_taxonomy(sds_to_uda),
        researcher_ids=np.array([researcher[0] for researcher in researchers], dtype=object),
        researcher_sds=np.array([researcher[1] for researcher in researchers], dtype=object),
        active_researcher=np.array([row[0] for row in active], dtype=np.intp),
        active_year=np.array([row[1] for row in active], dtype=np.int64),
        active_rank=np.array([row[2] for row in active], dtype=np.int8),
        pub_ids=np.array([pub[0] for pub in pubs], dtype=object),
        year=np.array([pub[1] for pub in pubs], dtype=np.int64),
        citations=np.array([pub[2] for pub in pubs], dtype=np.int64),
        author_count=np.array([pub[3] for pub in pubs], dtype=np.int64),
        categories=categories,
        category_start=category_start,
        category_code=category_code,
        link_pub=np.array([pub_index[pub_id] for pub_id, _ in links], dtype=np.intp),
        link_researcher=np.array([researcher_index[researcher_id] for _, researcher_id in links],
                                 dtype=np.intp),
        config=config or AnalysisConfig(),
        report=LoadReport(),
    )


def mk_cells(pubs) -> CitationCells:
    """The citation cells of publications given as mk_corpus rows."""
    return build_cells(mk_corpus([], pubs, [], {"S1": "U1"}))


def members(cell: CitationCell) -> list[tuple[str, int]]:
    """The (pub_id, citations) pairs of a cell, as the oracle takes them."""
    return list(zip(cell.pub_ids, cell.citations))


def one_cell(citations, year=2012, category="A") -> CitationCells:
    """One cell whose members p0, p1, ... have the given citation counts."""
    return mk_cells([(f"p{i}", year, c, 1, [category]) for i, c in enumerate(citations)])


def flagged_ids(flags: HcaFlags, p: float) -> set[str]:
    """The pub_ids flagged at percentile p."""
    return set(best_categories(flags, p))


def best_categories(flags: HcaFlags, p: float) -> dict[str, str]:
    """{pub_id: category of its best standing} of the publications flagged
    at percentile p, in pub_id order."""
    rows = np.flatnonzero(flags.hit[:, flags.percentiles.index(p)]).tolist()
    return {flags.corpus.pub_ids[row]: flags.corpus.categories[flags.best_category[row]]
            for row in rows}


def mk_fields(rows, uda: dict[str, str] | None = None,
              total_cost: dict[str, float] | None = None,
              provenance: dict[str, dict[float, str]] | None = None,
              n_professors: int = 10) -> FieldTable:
    """A FieldTable of hand-set indicators. rows holds (sds, fss_ts,
    fss_fhca) with each indicator given as {p: value}, in any order; the
    table sorts them by SDS. A field is in discipline U1 (or uda[sds]), costs
    1e6 (or total_cost[sds]), has n_professors assistants and no top
    scientist, and takes its TS output mean from the field itself (or
    provenance[sds][p])."""
    rows = sorted(rows, key=lambda row: row[0])
    percentiles = tuple(sorted(rows[0][1]))
    codes = [sds for sds, _, _ in rows]
    n, shape = len(rows), (len(rows), len(percentiles))
    provenance = provenance or {}
    udas, field_uda = np.unique(np.array([(uda or {}).get(sds, "U1") for sds in codes],
                                         dtype=object), return_inverse=True)
    return FieldTable(
        sds_codes=tuple(codes),
        udas=tuple(udas),
        field_uda=field_uda,
        percentiles=percentiles,
        n_by_rank=np.tile([n_professors, 0, 0], (n, 1)),
        total_cost=np.array([(total_cost or {}).get(sds, 1e6) for sds in codes]),
        ts_count=np.zeros(shape, dtype=np.intp),
        fhca_total=np.zeros(shape),
        fss_ts=np.array([[ts[p] for p in percentiles] for _, ts, _ in rows]),
        fss_fhca=np.array([[fhca[p] for p in percentiles] for _, _, fhca in rows]),
        provenance=np.array([[provenance.get(sds, {}).get(p, "field") for p in percentiles]
                             for sds in codes], dtype=object),
        is_ts=np.zeros((n * n_professors, len(percentiles)), dtype=bool),
    )


def mk_table(fhca: dict[str, list], percentiles, output: dict[str, list] | None = None,
             ) -> ScoreTable:
    """A ScoreTable of hand-set scores. fhca maps each SDS code to its
    professors' rows of scores, one value per percentile; output (default
    1.0) maps it to their outputs. Professor i of field S is "S-0000i"; every
    professor costs 1.0 and is an assistant."""
    sds_codes = sorted(fhca)
    sizes = [len(fhca[sds]) for sds in sds_codes]
    n = sum(sizes)
    return ScoreTable(
        researcher_ids=tuple(f"{sds}-{i:05d}" for sds in sds_codes for i in range(len(fhca[sds]))),
        sds_codes=tuple(sds_codes),
        field_start=np.concatenate(([0], np.cumsum(sizes, dtype=np.intp))),
        percentiles=tuple(percentiles),
        fhca=np.array([row for sds in sds_codes for row in fhca[sds]],
                      dtype=float).reshape(n, len(percentiles)),
        output=(np.array([v for sds in sds_codes for v in output[sds]], dtype=float)
                if output is not None else np.ones(n)),
        cost=np.ones(n),
        rank=np.zeros(n, dtype=np.intp),
    )


def write_csvs(tmp: Path, taxonomy: list[str], researchers: list[str],
               publications: list[str], authorships: list[str]) -> CorpusPaths:
    """Write raw CSV lines (without headers) to a temp corpus."""
    headers = {
        "taxonomy": "sds_code,sds_name,uda_code,uda_name",
        "researchers": "researcher_id,sds_code,year,rank",
        "publications": "pub_id,year,citations,author_count,subject_categories",
        "authorships": "pub_id,researcher_id",
    }
    rows = {
        "taxonomy": taxonomy,
        "researchers": researchers,
        "publications": publications,
        "authorships": authorships,
    }
    paths = {}
    for name, header in headers.items():
        path = tmp / f"{name}.csv"
        path.write_text("\n".join([header] + rows[name]) + "\n", encoding="utf-8")
        paths[name] = path
    return CorpusPaths(**paths)


MINI_TAXONOMY = ["S1,Field one,U1,Discipline one"]
MINI_RESEARCHERS = ["r1,S1,2012,assistant", "r1,S1,2013,assistant", "r1,S1,2014,associate"]
MINI_PUBLICATIONS = ["p1,2013,7,2,A"]
MINI_AUTHORSHIPS = ["p1,r1"]


@pytest.fixture
def mini_paths(tmp_path) -> CorpusPaths:
    return write_csvs(tmp_path, MINI_TAXONOMY, MINI_RESEARCHERS,
                      MINI_PUBLICATIONS, MINI_AUTHORSHIPS)


@pytest.fixture(scope="session")
def default_synth_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("synth-default")
    generate(SynthParams(), out)
    return out


@pytest.fixture(scope="session")
def default_corpus(default_synth_dir) -> Corpus:
    paths = CorpusPaths(
        taxonomy=default_synth_dir / "taxonomy.csv",
        researchers=default_synth_dir / "researchers.csv",
        publications=default_synth_dir / "publications.csv",
        authorships=default_synth_dir / "authorships.csv",
    )
    return load_corpus(paths, AnalysisConfig())


@pytest.fixture(scope="session")
def default_result(default_corpus) -> PipelineResult:
    return run_pipeline(default_corpus, CostModel(), top_bottom_k=10)
