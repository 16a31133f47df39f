from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import flagged_ids, one_cell
from fieldstrength.hca import build_cells, flag_hcas
from fieldstrength.ingest import CorpusPaths, load_corpus
from fieldstrength.model import AnalysisConfig, CostModel
from fieldstrength.oracles import (
    oracle_quantile,
    oracle_quartiles,
    oracle_spearman,
    oracle_top_p,
)
from fieldstrength.pipeline import run_pipeline
from fieldstrength.synth import SynthParams, generate, generate_tables


def corpus_paths(out) -> CorpusPaths:
    return CorpusPaths(
        taxonomy=out / "taxonomy.csv",
        researchers=out / "researchers.csv",
        publications=out / "publications.csv",
        authorships=out / "authorships.csv",
    )


def test_generator_is_deterministic(tmp_path):
    params = SynthParams(seed=42, n_udas=2, n_fields_per_uda=2,
                         professors_per_field=(5, 8), pubs_per_professor_mean=4.0)
    a, b = tmp_path / "a", tmp_path / "b"
    generate(params, a)
    generate(params, b)
    for name in ("taxonomy", "researchers", "publications", "authorships"):
        assert (a / f"{name}.csv").read_bytes() == (b / f"{name}.csv").read_bytes()

    generate(SynthParams(seed=43, n_udas=2, n_fields_per_uda=2,
                         professors_per_field=(5, 8), pubs_per_professor_mean=4.0),
             tmp_path / "c")
    assert (a / "publications.csv").read_bytes() != (tmp_path / "c" / "publications.csv").read_bytes()


def test_default_corpus_shape(default_corpus):
    # 11 disciplines x 4 fields x 20..40 professors
    assert len(default_corpus.taxonomy.uda_names) == 11
    assert len(default_corpus.taxonomy.sds_to_uda) == 44
    assert 800 <= len(default_corpus.researcher_ids) <= 1800
    assert 10_000 <= len(default_corpus.pub_ids) <= 40_000
    assert not default_corpus.report.dropped.get("researchers_below_min_years")


def test_wide_window_keeps_costs_and_counts(default_synth_dir, default_result):
    # the rank matrix has a column per year in which someone is active, not
    # one per window year: a window of 2**63 years loads like the default one
    corpus = load_corpus(corpus_paths(default_synth_dir),
                         AnalysisConfig(window=(-2**62, 2**62)))
    result = run_pipeline(corpus, CostModel(), top_bottom_k=10)
    assert corpus.active_years.tolist() == default_result.corpus.active_years.tolist()
    assert np.array_equal(result.scores.cost, default_result.scores.cost)
    assert np.array_equal(result.fields.total_cost, default_result.fields.total_cost)
    assert result.counts == default_result.counts


def test_single_field_params(tmp_path):
    params = SynthParams(seed=1, n_udas=1, n_fields_per_uda=1,
                         professors_per_field=(4, 6), pubs_per_professor_mean=3.0)
    generate(params, tmp_path)
    corpus = load_corpus(corpus_paths(tmp_path), AnalysisConfig())
    assert list(corpus.taxonomy.sds_to_uda) == ["D01/01"]
    assert corpus.sds_codes == ("D01/01",)


def test_sole_authorship_degenerates_to_full_counting(tmp_path):
    params = SynthParams(seed=7, n_udas=1, n_fields_per_uda=2,
                         professors_per_field=(5, 8), pubs_per_professor_mean=5.0,
                         coauthor_prob=0.0, cross_field_coauthor_prob=0.0,
                         extra_authors_mean=0.0, baseline_share=0.0)
    generate(params, tmp_path)
    corpus = load_corpus(corpus_paths(tmp_path), AnalysisConfig())
    assert (corpus.author_count == 1).all()
    flagged = flagged_ids(flag_hcas(build_cells(corpus), [10.0]), 10.0)
    by_researcher = corpus.pubs_by_researcher
    for rid, pubs in by_researcher.items():
        hca_count = sum(1 for p in pubs if p in flagged)
        frac = sum(1.0 for _ in pubs)
        assert frac == len(pubs)
        assert hca_count == int(hca_count)


def test_hca_fraction_zero_buries_every_roster_pub(tmp_path):
    params = SynthParams(seed=3, n_udas=2, n_fields_per_uda=2,
                         professors_per_field=(5, 10), pubs_per_professor_mean=5.0,
                         hca_fraction=0.0)
    generate(params, tmp_path)
    corpus = load_corpus(corpus_paths(tmp_path), AnalysisConfig())
    roster_pubs = set(corpus.authors_by_pub)
    cells = build_cells(corpus)
    for p in (5.0, 10.0):
        flagged = flagged_ids(flag_hcas(cells, [p]), p)
        assert not (flagged & roster_pubs)
        assert flagged  # the injected baseline itself is cited


def test_all_equal_citations_flag_everything(tmp_path):
    params = SynthParams(seed=9, n_udas=1, n_fields_per_uda=1,
                         professors_per_field=(6, 9), pubs_per_professor_mean=4.0,
                         citation_log_sigma=1e-9, citation_log_mean=math.log(7.5),
                         baseline_share=0.0)
    generate(params, tmp_path)
    corpus = load_corpus(corpus_paths(tmp_path), AnalysisConfig())
    assert set(corpus.citations.tolist()) == {7}
    cells = build_cells(corpus)
    flagged = flagged_ids(flag_hcas(cells, [5.0]), 5.0)
    assert flagged == set(corpus.pub_ids)


def test_large_cell_share_lands_near_p(default_corpus):
    cells = build_cells(default_corpus)
    big = [c for c in cells if len(c.pub_ids) >= 100]
    assert big
    # one call per cell, so a member counts only when flagged in that cell
    flags = [flag_hcas(one_cell(cell.citations), (5.0, 10.0)) for cell in big]
    for p in (5.0, 10.0):
        shares = []
        for cell, cell_flags in zip(big, flags):
            shares.append(100.0 * len(flagged_ids(cell_flags, p)) / len(cell.pub_ids))
        mean_share = sum(shares) / len(shares)
        assert p <= mean_share <= p + 4.0  # ties only ever widen the top group


def test_generated_tables_have_no_duplicate_ids():
    tables = generate_tables(SynthParams(seed=5, n_udas=2, n_fields_per_uda=2,
                                         professors_per_field=(4, 6)))
    pub_ids = [row[0] for row in tables.publications]
    assert len(pub_ids) == len(set(pub_ids))
    links = set(tables.authorships)
    assert len(links) == len(tables.authorships)


def test_params_validation():
    with pytest.raises(ValueError):
        SynthParams(n_udas=0)
    with pytest.raises(ValueError):
        SynthParams(professors_per_field=(5, 2))
    with pytest.raises(ValueError):
        SynthParams(hca_fraction=1.5)
    with pytest.raises(ValueError):
        SynthParams(rank_mix=(0.5, 0.5, 0.5))


# --- oracle self-checks (frozen values the engines are held to) ---

def test_oracle_top_p_examples():
    distinct = [(f"p{i}", i) for i in range(100)]
    assert oracle_top_p(distinct, 10) == {f"p{i}" for i in range(90, 100)}
    tied = [(f"p{i}", 4) for i in range(20)]
    assert oracle_top_p(tied, 5) == {f"p{i}" for i in range(20)}
    assert oracle_top_p([("only", 0)], 5) == {"only"}


def test_oracle_quartile_examples():
    assert oracle_quartiles(range(1, 10)) == (3.0, 7.0)
    assert oracle_quartiles([5.0]) == (5.0, 5.0)
    assert oracle_quantile([0, 0, 0, 10], 0.75) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        oracle_quantile([], 0.5)


def test_oracle_spearman_examples():
    assert oracle_spearman([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)
    assert oracle_spearman([4, 4, 4], [4, 4, 4]) is None
    assert oracle_spearman([1, 2], [1, 2]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        oracle_spearman([1, 2], [1, 2, 3])
