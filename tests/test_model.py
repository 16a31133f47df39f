from __future__ import annotations

import functools
import operator
import random

import pytest

from fieldstrength.errors import ConfigurationError
from fieldstrength.model import (
    RANKS,
    AnalysisConfig,
    CostModel,
    ResearcherRecord,
    Taxonomy,
    cost_per_year,
    read_json_fields,
    researcher_costs,
)

REFERENCE_COSTS = {"assistant": 70007.0, "associate": 76103.5, "full": 93343.5}


def test_cost_per_year_reference_values():
    cm = CostModel()
    for rank, expected in REFERENCE_COSTS.items():
        assert cost_per_year(rank, cm) == expected


def test_cost_per_year_published_roundings_within_half_euro():
    cm = CostModel()
    published = {"assistant": 70007, "associate": 76104, "full": 93344}
    for rank, value in published.items():
        assert abs(cost_per_year(rank, cm) - value) <= 0.5


def test_cost_per_year_capital_only():
    cm = CostModel(salary={"assistant": 0, "associate": 0, "full": 0},
                   capital=42693, research_time_share=1.0)
    assert cost_per_year("full", cm) == 42693


def test_cost_per_year_unknown_rank():
    with pytest.raises(ConfigurationError):
        cost_per_year("emeritus", CostModel())


def test_cost_monotone_in_salary_and_capital():
    base = CostModel()
    higher_salary = CostModel(salary={**base.salary, "assistant": 60000})
    assert cost_per_year("assistant", higher_salary) > cost_per_year("assistant", base)
    higher_capital = CostModel(capital=50000)
    assert cost_per_year("associate", higher_capital) > cost_per_year("associate", base)


def test_researcher_cost_examples():
    cm = CostModel()
    five_years = ResearcherRecord("r1", "S1", {y: "assistant" for y in range(2012, 2017)})
    mixed = ResearcherRecord(
        "r2", "S1",
        {2012: "assistant", 2013: "assistant", 2014: "assistant",
         2015: "associate", 2016: "associate"},
    )
    assert researcher_costs([five_years, mixed], cm).tolist() == [350035.0, 362228.0]


def test_researcher_cost_no_years_is_an_error():
    with pytest.raises(ConfigurationError):
        researcher_costs([ResearcherRecord("r0", "S1", {})], CostModel())


def test_researcher_cost_additive_over_disjoint_years():
    cm = CostModel()
    a = ResearcherRecord("ra", "S1", {2012: "assistant", 2013: "associate"})
    b = ResearcherRecord("rb", "S1", {2014: "full", 2015: "full", 2016: "assistant"})
    joined = ResearcherRecord("rc", "S1", {**a.rank_by_year, **b.rank_by_year})
    cost_a, cost_b, cost_joined = researcher_costs([a, b, joined], cm).tolist()
    assert cost_joined == pytest.approx(cost_a + cost_b, rel=1e-12)


def test_researcher_cost_adds_inexact_yearly_costs_in_year_order():
    # none of these costs is a whole number of euro, so the order of the
    # additions shows in the last bits of the totals
    cm = CostModel(salary={"assistant": 54628.37, "associate": 66821.19, "full": 101301.83},
                   capital=1234.567, research_time_share=0.37)
    rng = random.Random(41)
    records = []
    for i in range(300):
        years = rng.sample(range(2005, 2021), rng.randint(1, 16))  # not in year order
        records.append(ResearcherRecord(f"r{i}", "S1", {y: rng.choice(RANKS) for y in years}))
    for record, cost in zip(records, researcher_costs(records, cm).tolist()):
        expected = functools.reduce(
            operator.add,
            (cost_per_year(rank, cm) for _, rank in sorted(record.rank_by_year.items())), 0)
        assert cost == expected, record.researcher_id


def test_cost_model_validation():
    with pytest.raises(ConfigurationError):
        CostModel(salary={"assistant": -1, "associate": 1, "full": 1})
    with pytest.raises(ConfigurationError):
        CostModel(capital=0)
    with pytest.raises(ConfigurationError):
        CostModel(research_time_share=0)
    with pytest.raises(ConfigurationError):
        CostModel(research_time_share=1.2)
    with pytest.raises(ConfigurationError):
        CostModel(salary={"assistant": 1})  # missing ranks


def test_analysis_config_validation():
    with pytest.raises(ConfigurationError):
        AnalysisConfig(window=(2016, 2012))
    with pytest.raises(ConfigurationError):
        AnalysisConfig(hca_percentiles=(0,))
    with pytest.raises(ConfigurationError):
        AnalysisConfig(hca_percentiles=(100,))
    with pytest.raises(ConfigurationError):
        AnalysisConfig(hca_percentiles=(5, 5))
    with pytest.raises(ConfigurationError, match="at least one percentile"):
        AnalysisConfig(hca_percentiles=())
    with pytest.raises(ConfigurationError):
        AnalysisConfig(ts_fence_multiplier=-0.1)
    with pytest.raises(ConfigurationError):
        AnalysisConfig(rescale_fallback="nearest_field")
    cfg = AnalysisConfig(hca_percentiles=(10, 1, 5))
    assert cfg.sorted_percentiles == (1.0, 5.0, 10.0)


@pytest.mark.parametrize("cls, key, value", [
    (CostModel, "capital", float("nan")),
    (CostModel, "reporting_scale", float("inf")),
    (AnalysisConfig, "ts_fence_multiplier", float("-inf")),
    (AnalysisConfig, "hca_percentiles", [5.0, float("nan")]),
])
def test_read_json_fields_rejects_non_finite_numbers(cls, key, value):
    with pytest.raises(ConfigurationError, match=rf"^{key}(\[1\])? must be a finite number"):
        read_json_fields(cls, {key: value})


def test_taxonomy_rejects_orphan_uda():
    with pytest.raises(ConfigurationError):
        Taxonomy(sds_to_uda={"S1": "U9"}, sds_names={"S1": "x"}, uda_names={"U1": "y"})
