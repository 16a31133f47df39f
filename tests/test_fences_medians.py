"""The one-sort fences and medians have numpy's bits.

detect_top_scientists reads every field's quartiles from one sort of each
percentile column, and quadrant_classify every median from one sort of the
indicator columns. Both must give, bit for bit, what np.quantile's "linear"
method and np.median give field by field and column by column, so that the
report trees do not move. CI runs this module at --hypothesis-profile=ci on
every numpy it installs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import mk_fields, mk_table
from fieldstrength.analytics import quadrant_classify
from fieldstrength.indicators import indicator_id
from fieldstrength.scoring import detect_top_scientists

# fractional scores tie often: sums of 1/author_count, zero for most professors
TIED = (0.0, 0.0, 0.25, 1 / 3, 0.5, 2 / 3, 1.0, 1.5, 7.0)
scores = st.one_of(st.sampled_from(TIED),
                   st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(abs))


@st.composite
def score_tables(draw):
    """Fields of 1-9 professors (one- and two-row fields, all-zero ones
    included) scored at 1-4 percentiles, and a fence multiplier."""
    n_percentiles = draw(st.integers(1, 4))
    rows = st.lists(scores, min_size=n_percentiles, max_size=n_percentiles)
    field = st.one_of(st.lists(rows, min_size=1, max_size=9),
                      st.integers(1, 9).map(lambda n: [[0.0] * n_percentiles] * n))
    fields = draw(st.lists(field, min_size=1, max_size=8))
    return (mk_table({f"S{f:02d}": rows for f, rows in enumerate(fields)},
                     [5.0 * (j + 1) for j in range(n_percentiles)]),
            draw(st.sampled_from((0.0, 1.5))))


def np_fences(table, multiplier: float) -> np.ndarray:
    """Each field's fences from np.quantile over its own rows."""
    bounds = table.field_start.tolist()
    threshold = np.empty((len(table.sds_codes), len(table.percentiles)))
    for f, (start, end) in enumerate(zip(bounds, bounds[1:])):
        q1, q3 = np.quantile(table.fhca[start:end], [0.25, 0.75], axis=0, method="linear")
        threshold[f] = q3 + multiplier * (q3 - q1)
    return threshold


@given(score_tables())
@example((mk_table({"S1": [[1.0, 0.0]], "S2": [[0.5, 2.0], [0.5, 1 / 3]],
                    "S3": [[0.0, 0.0]] * 3}, [5.0, 10.0]), 0.0))
@example((mk_table({"S1": [[v] for v in (0.1, 0.7, 0.7, 0.2, 0.9, 0.3)]}, [5.0]), 1.5))
def test_fences_are_np_quantile_bits(case):
    table, multiplier = case
    threshold, is_ts = detect_top_scientists(table, multiplier)
    expected = np_fences(table, multiplier)
    assert threshold.shape == expected.shape and threshold.tobytes() == expected.tobytes()
    assert np.array_equal(is_ts, table.fhca > expected[table.field])


@st.composite
def indicator_tables(draw):
    """1-9 fields (odd and even counts) with tied fss_ts and fss_fhca at 1-4 percentiles."""
    n_fields, n_percentiles = draw(st.integers(1, 9)), draw(st.integers(1, 4))
    column = st.lists(scores, min_size=n_fields, max_size=n_fields)
    ts, fhca = ([draw(column) for _ in range(n_percentiles)] for _ in range(2))
    percentiles = [5.0 * (j + 1) for j in range(n_percentiles)]
    return mk_fields([(f"F{f}", {p: ts[j][f] for j, p in enumerate(percentiles)},
                       {p: fhca[j][f] for j, p in enumerate(percentiles)})
                      for f in range(n_fields)])


@given(indicator_tables())
@example(mk_fields([("A", {5.0: 0.1}, {5.0: 0.2}), ("B", {5.0: 0.7}, {5.0: 0.2})]))
@example(mk_fields([(s, {5.0: 0.0, 10.0: v}, {5.0: 0.0, 10.0: v})
                    for s, v in zip("ABC", (1 / 3, 2 / 3, 1 / 3))]))
def test_medians_are_np_median_bits(fields):
    result = quadrant_classify(fields)
    strong = np.zeros(len(fields), dtype=bool)
    weak = np.zeros(len(fields), dtype=bool)
    expected = {}
    for p, ts, fhca in zip(fields.percentiles, fields.fss_ts.T, fields.fss_fhca.T):
        ts_med, fhca_med = float(np.median(ts)), float(np.median(fhca))
        expected[indicator_id("fss_ts", p)] = ts_med
        expected[indicator_id("fss_fhca", p)] = fhca_med
        strong |= (ts > ts_med) & (fhca > fhca_med)
        weak |= (ts < ts_med) & (fhca < fhca_med)
    assert list(result.medians) == list(expected)
    assert [v.hex() for v in result.medians.values()] == [v.hex() for v in expected.values()]
    codes = np.array(fields.sds_codes)
    assert result.strong_union == frozenset(codes[strong & ~weak].tolist())
    assert result.weak_union == frozenset(codes[weak & ~strong].tolist())
    assert result.ambiguous == frozenset(codes[strong & weak].tolist())
