"""The output writers against the plain row-by-row writers they replace.

The JSON writer must give json.dumps(value, indent=2)'s bytes; the CSV
writers, which build their bytes by column, must give the bytes of one
csv.writer row per record, quoting included. Report columns must format
and round each value as _fmt and _jr do.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mk_corpus
from fieldstrength.cli import main
from fieldstrength.hca import write_flags_csv
from fieldstrength.indicators import write_scoreboard_csv
from fieldstrength.model import AnalysisConfig, CostModel, json_text, p_label
from fieldstrength.pipeline import run_pipeline
from fieldstrength.reporting import (K_CORR, K_COST, K_FSS, K_INT, K_PCT, K_RANK, _fmt, _jr,
                                     _rounded, _text)
from fieldstrength.scoring import write_researcher_scores_csv

# ---------------------------------------------------------------- JSON

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([0.0, -0.0, 1e16, -1e16, 1e-7, math.nan, math.inf, -math.inf]),
    st.text(st.characters(), max_size=6),
    st.sampled_from(["é", "Ünïcode ☃", 'a "quoted" word', "back\\slash", "\x00\x1f\x7f",
                     "line\nbreak\ttab\r", " "]),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(st.characters(), max_size=4), inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=300)
@given(_VALUES)
def test_json_text_is_json_dumps_with_indent_2(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_json_text_named_cases():
    cases = [
        {}, [], (), {"a": {}, "b": [], "c": [[], {}]}, [[[]]], {"": {"": [None]}},
        {"rows": [{"x": 1.5, "é": "ü", "q": '"'}, {"x": -0.0, "é": None, "q": True}]},
        [np.float64(0.1), -0.0, 1e16, math.nan, math.inf, -math.inf, 2**70, False],
        {"nested": {"deeper": {"list": [1, [2, [3, {"k": "v"}]]]}}},
        "plain", 3, None,
    ]
    for value in cases:
        assert json_text(value) == json.dumps(value, indent=2), value


def test_every_json_file_is_indent_2(default_synth_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"inputs": {
        name: str(default_synth_dir / f"{name}.csv")
        for name in ("taxonomy", "researchers", "publications", "authorships")}}),
        encoding="utf-8")
    out, rerender = tmp_path / "out", tmp_path / "rerender"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert main(["report", "--bundle", str(out / "analytics.json"), "--out", str(rerender)]) == 0
    paths = sorted(out.rglob("*.json")) + sorted(rerender.rglob("*.json"))
    assert len(paths) == 6 + 2 + 6
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n", path


# ------------------------------------------------------- report columns

_CELLS = st.one_of(st.none(), st.integers(-10**18, 10**18),
                   st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 0.005, 0.015, 2.675, 24.575, -0.0004, 1e22]))


@settings(max_examples=200)
@given(st.lists(_CELLS, max_size=12), st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                                max_size=12),
       st.sampled_from([K_INT, K_FSS, K_PCT, K_COST, K_CORR, K_RANK]))
def test_columns_format_and_round_each_value_as_fmt_and_jr(mixed, floats, kind):
    for values in (mixed, floats):
        text = _text(values, kind)
        assert text == [_fmt(v, kind) for v in values]
        rounded = _rounded(values, text, kind)
        expected = [_jr(v, kind) for v in values]
        assert [(type(v), repr(v)) for v in rounded] == [(type(v), repr(v)) for v in expected]


# ---------------------------------------------------------------- CSV

def _csv_text(rows) -> bytes:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue().encode("utf-8")


def _flags_reference(flags) -> bytes:
    pub_ids, categories = flags.corpus.pub_ids, flags.corpus.categories
    rows = [["pub_id", "p", "category_of_best_rank"]]
    for p, column in zip(flags.percentiles, flags.hit.T):
        rows += [[pub_ids[row], p_label(p), categories[flags.best_category[row]]]
                 for row in np.flatnonzero(column).tolist()]
    return _csv_text(rows)


def _scoreboard_reference(fields) -> bytes:
    labels = [p_label(p) for p in fields.percentiles]
    rows = [["sds", "uda", "n_professors", "total_cost", *(f"ts_{pl}" for pl in labels),
             *(f"fss_ts_{pl}" for pl in labels), *(f"fss_fhca_{pl}" for pl in labels),
             "fallback_flags"]]
    for row in zip(fields.sds_codes, fields.uda, fields.n_professors.tolist(),
                   fields.total_cost.tolist(), fields.ts_count.tolist(), fields.fss_ts.tolist(),
                   fields.fss_fhca.tolist(), fields.fallback_flags()):
        sds, uda, n_professors, total_cost, ts, fss_ts, fss_fhca, flags = row
        rows.append([sds, uda, n_professors, repr(total_cost), *ts, *map(repr, fss_ts),
                     *map(repr, fss_fhca), flags])
    return _csv_text(rows)


def _scores_reference(table, is_ts) -> bytes:
    rows = [["researcher_id", "sds", "p", "fhca_score", "frac_pub_output", "is_ts"]]
    for i, (researcher_id, field) in enumerate(zip(table.researcher_ids, table.field.tolist())):
        for j, p in enumerate(table.percentiles):
            rows.append([researcher_id, table.sds_codes[field], p_label(p),
                         repr(table.fhca[i, j].item()), repr(table.output[i].item()),
                         "true" if is_ts[i, j] else "false"])
    return _csv_text(rows)


def _check_writers(result, tmp_path) -> None:
    write_flags_csv(result.flags, tmp_path / "flags.csv")
    write_scoreboard_csv(result.fields, tmp_path / "scoreboard.csv")
    write_researcher_scores_csv(result.scores, result.fields.is_ts, tmp_path / "scores.csv")
    assert (tmp_path / "flags.csv").read_bytes() == _flags_reference(result.flags)
    assert (tmp_path / "scoreboard.csv").read_bytes() == _scoreboard_reference(result.fields)
    assert (tmp_path / "scores.csv").read_bytes() == _scores_reference(
        result.scores, result.fields.is_ts)


def _hostile_result():
    """Ids, categories and codes with a comma, a double quote, a non-ASCII
    letter, or 9 and more bytes, next to plain ones."""
    years = {2012: "assistant", 2013: "associate", 2014: "full"}
    sds_to_uda = {'S,1': 'U"1', "Sé2": 'U"1', "S3": "U2"}
    categories = ["Cat,A", 'Cat"B', "Çat", "D"]
    researchers = [(f'r{i},"é' if i % 2 else f"r{i:02d}", sds, years)
                   for i, sds in enumerate(sorted(sds_to_uda) * 3)]
    pubs, links = [], []
    for i in range(120):
        pub_id = [f'P,{i:06d}"é', f"WOS:0000{i:05d}", f"p{i:03d}"][i % 3]
        pubs.append((pub_id, 2012 + i % 3, (i * 37) % 101, 1 + i % 3,
                     [categories[i % 4]] + ([categories[(i + 1) % 4]] if i % 5 == 0 else [])))
        links.append((pub_id, researchers[i % len(researchers)][0]))
    config = AnalysisConfig(hca_percentiles=(2.5, 10.0, 50.0))
    corpus = mk_corpus(researchers, pubs, links, sds_to_uda, config)
    return run_pipeline(corpus, CostModel())


def test_csv_writers_quote_like_csv_writer_rows(tmp_path):
    result = _hostile_result()
    assert result.flags.hit.any(axis=0).all()
    _check_writers(result, tmp_path)
    text = (tmp_path / "flags.csv").read_text(encoding="utf-8")
    assert '"P,' in text and '"Cat,A"' in text and '"Cat""B"' in text and "WOS:0000" in text
    assert '"S,1","U""1"' in (tmp_path / "scoreboard.csv").read_text(encoding="utf-8")


def test_csv_writers_on_the_synth_default(default_result, tmp_path):
    _check_writers(default_result, tmp_path)
