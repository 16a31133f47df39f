"""Domain types: field taxonomy, cost model, run settings.

Money is carried at full precision everywhere; rounding to integer euro
is a rendering concern and happens only in the report layer.
"""

from __future__ import annotations

import collections.abc
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Mapping, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigurationError

RANK_ASSISTANT = "assistant"
RANK_ASSOCIATE = "associate"
RANK_FULL = "full"
RANKS = (RANK_ASSISTANT, RANK_ASSOCIATE, RANK_FULL)

FALLBACK_UDA_THEN_NATIONAL = "uda_then_national"
FALLBACK_NATIONAL_ONLY = "national_only"
RESCALE_FALLBACKS = (FALLBACK_UDA_THEN_NATIONAL, FALLBACK_NATIONAL_ONLY)


def p_label(p: float) -> str:
    """Column-name suffix for a percentile: 5.0 -> "5", 2.5 -> "2.5"."""
    return str(int(p)) if float(p).is_integer() else str(p)


@dataclass(frozen=True)
class Taxonomy:
    """The two-level field classification: fine-grained fields (SDS)
    grouped into disciplines (UDA)."""

    sds_to_uda: Mapping[str, str]
    sds_names: Mapping[str, str]
    uda_names: Mapping[str, str]

    def __post_init__(self):
        orphans = sorted(set(self.sds_to_uda.values()) - set(self.uda_names))
        if orphans:
            raise ConfigurationError(f"taxonomy references unknown discipline codes: {orphans}")


@dataclass(frozen=True)
class CostModel:
    """Labor + capital cost per professor-year.

    Labor counts only the research share of salary (the remainder goes
    to teaching, administration, technology transfer); capital is the
    same for every rank.
    """

    # National average yearly salary per academic rank (euro) and yearly
    # capital endowment per professor (euro PPP).
    salary: Mapping[str, float] = field(default_factory=lambda: {
        RANK_ASSISTANT: 54628.0, RANK_ASSOCIATE: 66821.0, RANK_FULL: 101301.0})
    capital: float = 42693.0
    research_time_share: float = 0.5
    reporting_scale: float = 1e8  # indicators reported per 100 M euro

    def __post_init__(self):
        for rank, value in self.salary.items():
            if rank not in RANKS:
                raise ConfigurationError(f"unknown rank in salary table: {rank!r}")
            # zero is allowed so the capital-only degenerate case stays expressible
            if value < 0:
                raise ConfigurationError(f"salary for {rank!r} must be >= 0, got {value}")
        missing = [rank for rank in RANKS if rank not in self.salary]
        if missing:
            raise ConfigurationError(f"salary table missing ranks: {missing}")
        if self.capital <= 0:
            raise ConfigurationError(f"capital must be > 0, got {self.capital}")
        if not 0 < self.research_time_share <= 1:
            raise ConfigurationError(
                f"research_time_share must be in (0, 1], got {self.research_time_share}"
            )
        if self.reporting_scale <= 0:
            raise ConfigurationError(f"reporting_scale must be > 0, got {self.reporting_scale}")


@dataclass(frozen=True)
class AnalysisConfig:
    """Window, thresholds, and policy knobs for one analysis run."""

    window: tuple[int, int] = (2012, 2016)
    hca_percentiles: tuple[float, ...] = (5.0, 10.0)
    min_years: int = 3
    census_date: Optional[str] = None
    ts_fence_multiplier: float = 1.5
    rescale_fallback: str = FALLBACK_UDA_THEN_NATIONAL
    roster_only_baseline: bool = False

    def __post_init__(self):
        object.__setattr__(self, "window", (int(self.window[0]), int(self.window[1])))
        object.__setattr__(self, "hca_percentiles", tuple(float(p) for p in self.hca_percentiles))
        start, end = self.window
        if start > end:
            raise ConfigurationError(f"window start {start} > end {end}")
        if start <= -2**63 or end >= 2**63 - 1:  # a year beyond int64 is read as an end of it
            raise ConfigurationError(f"window years must lie inside int64, got {start}..{end}")
        if not self.hca_percentiles:
            raise ConfigurationError("hca_percentiles must list at least one percentile")
        for p in self.hca_percentiles:
            if not 0 < p < 100:
                raise ConfigurationError(f"percentile must be in (0, 100), got {p}")
        if len(set(self.hca_percentiles)) != len(self.hca_percentiles):
            raise ConfigurationError("duplicate percentiles")
        if self.min_years < 1:
            raise ConfigurationError(f"min_years must be >= 1, got {self.min_years}")
        if self.ts_fence_multiplier < 0:
            raise ConfigurationError(
                f"ts_fence_multiplier must be >= 0, got {self.ts_fence_multiplier}"
            )
        if self.rescale_fallback not in RESCALE_FALLBACKS:
            raise ConfigurationError(
                f"rescale_fallback must be one of {RESCALE_FALLBACKS}, got {self.rescale_fallback!r}"
            )

    @property
    def years(self) -> range:
        return range(self.window[0], self.window[1] + 1)

    @property
    def sorted_percentiles(self) -> tuple[float, ...]:
        return tuple(sorted(self.hca_percentiles))


@dataclass(frozen=True)
class OutputOptions:
    """What a run writes besides the report tables."""

    top_bottom_k: int = 10
    export_hca_flags: bool = True
    export_researcher_scores: bool = True

    def __post_init__(self):
        if self.top_bottom_k < 0:
            raise ConfigurationError(
                f"top_bottom_k must be a non-negative integer, got {self.top_bottom_k!r}")


# JSON types each scalar field accepts, and how a message names them
_JSON_SCALARS = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


def _not_json(token: str):
    raise ValueError(f"{token} is not a JSON number; numbers must be finite")


def parse_json(text: str) -> Any:
    """json.loads, except that the NaN, Infinity and -Infinity tokens, which
    Python's json accepts but JSON does not, raise ValueError like any other
    malformed document (json.JSONDecodeError is a ValueError)."""
    return json.loads(text, parse_constant=_not_json)


def read_json_fields(cls, data: Mapping[str, Any]):
    """Build the dataclass cls from the fields of a JSON object.

    Keys that are not fields of cls are ignored; an absent field takes its
    default, and a field without one must be present. Each value must have
    its field's JSON type exactly: a bool is only true/false, an int is never
    a bool, a float field takes any JSON number and stores a float, a
    tuple[X, Y] is a list of exactly two, a Mapping is an object. A float must
    be finite (1e999 parses to inf). A mismatch raises ConfigurationError
    naming the key.
    """
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        if f.name in data:
            values[f.name] = _json_value(data[f.name], hints[f.name], f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigurationError(f"{f.name} is missing")
    return cls(**values)


def _json_value(value: Any, hint: Any, where: str) -> Any:
    if hint is Any:
        return value
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # Optional[X]
        return None if value is None else _json_value(value, args[0], where)
    if hint in _JSON_SCALARS:
        types, name = _JSON_SCALARS[hint]
        if isinstance(value, bool) != (hint is bool) or not isinstance(value, types):
            raise ConfigurationError(f"{where} must be {name}, got {value!r}")
        if hint is not float:
            return value
        if not math.isfinite(value):
            raise ConfigurationError(f"{where} must be a finite number, got {value!r}")
        return float(value)
    if origin in (tuple, list):
        fixed = origin is tuple and args[-1] is not Ellipsis
        if not isinstance(value, list) or (fixed and len(value) != len(args)):
            shape = f"a list of {len(args)}" if fixed else "a list"
            raise ConfigurationError(f"{where} must be {shape}, got {value!r}")
        return origin(_json_value(item, args[i] if fixed else args[0], f"{where}[{i}]")
                      for i, item in enumerate(value))
    if origin in (dict, collections.abc.Mapping):
        if not isinstance(value, dict):
            raise ConfigurationError(f"{where} must be an object, got {value!r}")
        return {key: _json_value(item, args[1], f"{where}.{key}") for key, item in value.items()}
    raise TypeError(f"{where}: no JSON reading for {hint!r}")


def cost_per_year(rank: str, cost_model: CostModel) -> float:
    """Yearly research cost of one professor of the given rank."""
    if rank not in cost_model.salary:
        raise ConfigurationError(f"unknown rank: {rank!r}")
    return cost_model.salary[rank] * cost_model.research_time_share + cost_model.capital


def researcher_costs(rank: np.ndarray, cost_model: CostModel) -> np.ndarray:
    """Total cost of each row of a (researcher x year) matrix of indices
    into RANKS, -1 for an inactive year: the yearly costs added one year
    column at a time in order, 0.0 for an inactive year, as a left-to-right
    sum would on every Python."""
    yearly = np.array([cost_per_year(r, cost_model) for r in RANKS] + [0.0])  # -1 reads 0.0
    total = np.zeros(len(rank))
    for column in rank.T:
        total += yearly[column]
    return total
