"""The two ways load_corpus reads researchers.csv, publications.csv and
authorships.csv give the same result: the same corpus, or the same issue
list.

The column path reads a file with array operations and lists its
row-level issues; the row loop reads any file. load_corpus takes the
column path where it can; row_loop below makes every column reader
decline.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_csvs
from fieldstrength import ingest
from fieldstrength.errors import CorpusValidationError
from fieldstrength.ingest import CorpusPaths, load_corpus
from fieldstrength.model import RANKS, AnalysisConfig
from fieldstrength.synth import SynthParams, generate

COLUMN_READERS = ("_researcher_columns", "_publication_columns", "_authorship_columns")
ROW_READERS = ("_researcher_rows", "_publication_rows", "_authorship_rows")


def _decline(*_args):
    raise ingest._Declined


def row_loop(paths: CorpusPaths, config: AnalysisConfig):
    """load_corpus with every file read by the row loop."""
    with pytest.MonkeyPatch.context() as patch:
        for name in COLUMN_READERS:
            patch.setattr(ingest, name, _decline)
        return load_corpus(paths, config)


def outcome(load, paths: CorpusPaths):
    """What one load gives: the corpus as plain values, or its issue list."""
    try:
        corpus = load(paths, AnalysisConfig())
    except CorpusValidationError as exc:
        return exc.issues
    values = {name: (value.dtype.str, value.tolist()) if isinstance(value, np.ndarray) else value
              for name, value in vars(corpus).items()}
    values["researchers"] = [(key, record, list(record.rank_by_year.items()))
                             for key, record in corpus.researchers.items()]
    values["report"] = vars(corpus.report)
    return values


TAXONOMY = ["S1,Field one,U1,Discipline one", "S2,Field two,U1,Discipline one",
            "S3,Field three,U2,Discipline two"]
FILES = ("researchers", "publications", "authorships")
YEARS = st.integers(2010, 2018)

# edits that make the column path decline, or the row loop find an issue
FIELD_EDITS = {
    "quote": lambda f: f'"{f}"',
    "pad with spaces": lambda f: f" {f} ",
    "pad with \\x1c": lambda f: f"\x1c{f}",
    "pad with \\xa0": lambda f: f"{f}\xa0",
    "non-ASCII": lambda f: f"{f}é",
    "swap case": str.swapcase,
    "plus sign": lambda f: "+7",
    "Arabic-Indic digit": lambda f: "٣",
    "leading zeros": lambda f: "007",
    "zero": lambda f: "0",
    "19 digits": lambda f: "1" + "0" * 18,
    "2**63": lambda f: str(2**63),
    "unknown id": lambda f: "zz",
    "n/a": lambda f: "n/a",
}
ROW_EDITS = ("duplicate row", "blank line")
TEXT_EDITS = {
    "CRLF": lambda text: text.replace("\n", "\r\n"),
    "BOM": lambda text: "\ufeff" + text,
    "no final newline": lambda text: text[:-1],
}


R_IDS = st.sampled_from([f"r{i}" for i in range(6)])
P_IDS = st.sampled_from([f"p{i}" for i in range(10)])
SDS = st.sampled_from(["S1", "S2", "S3"])


@st.composite
def corpora(draw) -> dict[str, list[str]]:
    """Rows of a small corpus. Each file is drawn either clean, with
    distinct keys and links to drawn rows (a category list can still be
    empty, as ";"), or as free rows over small id pools: those repeat keys,
    put a researcher in two fields, give author counts of 0 and dangling
    links."""
    if draw(st.booleans()):
        researchers = [(rid, sds, year, rank) for rid, (sds, ranks) in draw(st.dictionaries(
            R_IDS, st.tuples(SDS, st.dictionaries(YEARS, st.sampled_from(RANKS), min_size=1,
                                                  max_size=5)), max_size=6)).items()
                       for year, rank in ranks.items()]
    else:
        researchers = draw(st.lists(st.tuples(R_IDS, SDS, YEARS, st.sampled_from(RANKS)),
                                    max_size=12))
    categories = st.lists(st.sampled_from(["A", "B", "C", ""]), max_size=3).map(";".join)
    if draw(st.booleans()):
        pubs = [(pid, *pub) for pid, pub in draw(st.dictionaries(
            P_IDS, st.tuples(YEARS, st.integers(0, 30), st.integers(1, 4),
                             categories.filter(bool)), max_size=10)).items()]
    else:
        pubs = draw(st.lists(st.tuples(P_IDS, YEARS, st.integers(0, 30), st.integers(0, 4),
                                       categories), max_size=12))
    if draw(st.booleans()):
        links = draw(st.lists(st.tuples(st.sampled_from([p[0] for p in pubs] or ["p0"]),
                                        st.sampled_from([r[0] for r in researchers] or ["r0"])),
                              unique=True, max_size=15))
    else:
        links = draw(st.lists(st.tuples(P_IDS, R_IDS), max_size=15))
    return {name: [",".join(map(str, row)) for row in rows]
            for name, rows in zip(FILES, (researchers, pubs, links))}


def edited(rows: list[str], edit: str, i: int, k: int) -> list[str]:
    """rows with one edit at row i % len(rows), field k."""
    if not rows:
        return rows
    i %= len(rows)
    if edit == "duplicate row":
        return rows[:i] + [rows[i]] + rows[i:]
    if edit == "blank line":
        return rows[:i] + [""] + rows[i:]
    fields = rows[i].split(",")
    fields[k] = FIELD_EDITS[edit](fields[k])
    return rows[:i] + [",".join(fields)] + rows[i + 1:]


WIDTH = {"researchers": 4, "publications": 5, "authorships": 2}


@pytest.mark.parametrize("edit", ["none", *FIELD_EDITS, *ROW_EDITS, *TEXT_EDITS])
@settings(max_examples=8, deadline=None)
@given(tables=corpora(), i=st.integers(0, 100))
def test_column_path_equals_row_loop(edit, tables, i):
    # the edit goes to row i of each file in turn, and to each of its fields
    places = [(name, k) for name in FILES
              for k in (range(WIDTH[name]) if edit in FIELD_EDITS else [0])]
    with tempfile.TemporaryDirectory() as tmp:
        for name, k in places if edit != "none" else [(None, 0)]:
            rows = dict(tables)
            if name is not None and edit not in TEXT_EDITS:
                rows[name] = edited(rows[name], edit, i, k)
            paths = write_csvs(Path(tmp), TAXONOMY, rows["researchers"], rows["publications"],
                               rows["authorships"])
            if edit in TEXT_EDITS:
                path = getattr(paths, name)
                path.write_bytes(TEXT_EDITS[edit](path.read_text(encoding="utf-8")).encode())
            assert outcome(load_corpus, paths) == outcome(row_loop, paths), (name, k)


def _refuse(*_args):
    raise AssertionError("a reader ran that the file should not need")


@pytest.mark.parametrize("params", [
    {},
    {"seed": 101, "n_udas": 2, "n_fields_per_uda": 2, "professors_per_field": (5, 10),
     "pubs_per_professor_mean": 6.0},
    {"seed": 202, "n_udas": 3, "n_fields_per_uda": 1, "professors_per_field": (4, 8),
     "pubs_per_professor_mean": 5.0, "hca_fraction": 0.5},
    {"seed": 4, "n_udas": 3, "n_fields_per_uda": 2, "professors_per_field": (6, 10),
     "pubs_per_professor_mean": 6.0, "hca_fraction": 0.0},
    {"seed": 6, "n_udas": 4, "n_fields_per_uda": 2, "professors_per_field": (8, 15)},
], ids=["default", "seed101", "seed202", "seed4", "seed6"])
def test_column_path_reads_the_synthetic_corpora(tmp_path, monkeypatch, params):
    paths = CorpusPaths(**generate(SynthParams(**params), tmp_path))
    expected = outcome(row_loop, paths)
    for name in ROW_READERS:
        monkeypatch.setattr(ingest, name, _refuse)
    assert outcome(load_corpus, paths) == expected


def _set_field(row: str, k: int, value: str) -> str:
    fields = row.split(",")
    fields[k] = value
    return ",".join(fields)


def test_column_path_lists_row_level_issues(tmp_path, monkeypatch):
    # corrupted as the invalid_10x benchmark corrupts its corpus, plus three
    # cases where the first occurrence of a key decides an issue
    paths = CorpusPaths(**generate(SynthParams(seed=5, n_udas=2, n_fields_per_uda=2,
                                               professors_per_field=(5, 8)), tmp_path))
    taxonomy, researchers, pubs, links = (
        getattr(paths, name).read_text(encoding="utf-8").splitlines()
        for name in ("taxonomy", *FILES))
    for i in range(1, len(pubs), 7):
        pubs[i] = _set_field(pubs[i], 2, "n/a")
    for i in range(1, len(links), 11):
        links[i] = _set_field(links[i], 1, f"X{i:07d}")
    # a malformed first occurrence of a pub_id, then a good one: no duplicate
    pubs.insert(2, _set_field(pubs[2], 2, "n/a"))
    # duplicate links after dangling ones: a link of a malformed publication
    # dangles each time, a repeated kept link is a duplicate
    bad_pubs = {row.split(",")[0] for row in pubs[1:] if row.split(",")[2] == "n/a"}
    dangling = next(row for row in links[1:] if row.split(",")[0] in bad_pubs)
    kept = next(row for row in links[1:] if row.split(",")[0] not in bad_pubs
                and not row.split(",")[1].startswith("X"))
    links += [dangling, dangling, kept]
    # a researcher whose first row has an unknown rank, in another field, and
    # whose later row is in that other field
    researcher_id, sds, _, _ = researchers[1].split(",")
    other = next(row.split(",")[0] for row in taxonomy[1:] if row.split(",")[0] != sds)
    researchers.insert(1, f"{researcher_id},{other},2013,emeritus")
    researchers.append(f"{researcher_id},{other},2014,full")
    # a row with a bad year and an unknown rank: only the year is an issue
    researchers.append(f"{researcher_id},{sds},n/a,emeritus")
    for name, rows in zip(FILES, (researchers, pubs, links)):
        getattr(paths, name).write_text("".join(row + "\n" for row in rows), encoding="utf-8")

    expected = outcome(row_loop, paths)
    for name in ROW_READERS:
        monkeypatch.setattr(ingest, name, _refuse)
    issues = outcome(load_corpus, paths)
    assert issues == expected
    messages = [issue.message for issue in issues]
    assert messages.count("unknown rank 'emeritus'") == 1
    assert "year is not an integer: 'n/a'" in messages
    assert f"researcher {researcher_id!r} listed in both {sds!r} and {other!r}" in messages
    assert not any(message.startswith("duplicate pub_id") for message in messages)
    unknown_pub = f"authorship references unknown pub_id {dangling.split(',')[0]!r}"
    duplicate = f"duplicate authorship {tuple(kept.split(','))!r}"
    assert messages[-3:] == [unknown_pub, unknown_pub, duplicate]
    assert {issue.kind for issue in issues} == {"malformed_row", "dangling_reference",
                                                 "constraint_violation", "duplicate_key"}


PUBLICATIONS_HEAD = b"pub_id,year,citations,author_count,subject_categories\n"


@pytest.mark.parametrize("publications, skipped, kinds", [
    (PUBLICATIONS_HEAD + b"p1,2013,x,1,A\n", "_authorship_rows",
     ["malformed_row", "dangling_reference"]),
    (PUBLICATIONS_HEAD + b'"p1",2013,1,1,A\n', "_authorship_columns", None),
    (b"", "_authorship_columns", ["malformed_row"]),
], ids=["row-level issue", "declined", "stopped"])
def test_only_a_declined_file_sends_later_files_to_the_row_loop(tmp_path, monkeypatch,
                                                                publications, skipped, kinds):
    # after a row-level issue in publications.csv, authorships.csv is still
    # read by the column path and its dangling reference is listed; after a
    # declined or stopped publications.csv, it is read by the row loop, which
    # does not check references into a stopped file
    paths = write_csvs(tmp_path, TAXONOMY, ["r1,S1,2012,full"], [], ["p1,r1"])
    paths.publications.write_bytes(publications)
    expected = outcome(row_loop, paths)
    monkeypatch.setattr(ingest, skipped, _refuse)
    result = outcome(load_corpus, paths)
    assert result == expected
    assert isinstance(result, dict) if kinds is None else [i.kind for i in result] == kinds


@pytest.mark.parametrize("body", [
    b"p1\nr1\n",  # two rows of one field: as many separators as one row of two
    b"p1,r1\n\n",
    b"p1,r1\r\n",
    b'"p1",r1\n',
    b"p1,r1\x00\n",
    b"p1, r1\n",
    b"p1,r1\xc2\xa0\n",
    b"p1,r\xff1\n",
    b"p1," + b"r" * 131_073 + b"\n",
    b"p1,r\xc3\xa91\n",
    b"p1,r1\n" * 100 + b"p2," + b"r" * 5_000 + b"\n",
], ids=["shifted rows", "blank line", "CRLF", "quote", "NUL", "space", "no-break space",
        "not UTF-8", "over the csv field limit", "non-ASCII id",
        "padded ids over twice the file"])
def test_column_path_declines(tmp_path, body):
    path = tmp_path / "authorships.csv"
    path.write_bytes(b"pub_id,researcher_id\n" + body)
    with pytest.raises(ingest._Declined):
        ingest._Fields(path, ingest.AUTHORSHIPS_HEADER).keys(1)


def test_column_path_splits_fields(tmp_path):
    path = tmp_path / "authorships.csv"
    path.write_bytes("pub_id,researcher_id\np1,r1\np22,ré\x0b2".encode("utf-8"))
    fields = ingest._Fields(path, ingest.AUTHORSHIPS_HEADER)
    assert fields.rows == 2
    assert fields.keys(0).tolist() == [b"p1", b"p22"]
    assert fields.texts(1)[0] == ["r1", "ré\x0b2"]
