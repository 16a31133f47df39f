"""load_corpus gives what oracles.oracle_load gives: the same corpus, or
the same issue list.

load_corpus reads researchers.csv, publications.csv and authorships.csv
with column rules, after splitting each file by bytes or, where the byte
split declines it, with csv.reader. oracle_load is the row loop: each row
checked in file order against dicts.
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
from fieldstrength.oracles import oracle_load
from fieldstrength.synth import SynthParams, generate


def outcome(load, paths: CorpusPaths):
    """What one load gives: the corpus as plain values, or its issue list."""
    try:
        corpus = load(paths, AnalysisConfig())
    except CorpusValidationError as exc:
        return exc.issues
    values = {name: (value.dtype.str, value.tolist()) if isinstance(value, np.ndarray) else value
              for name, value in vars(corpus).items()}
    values["report"] = vars(corpus.report)
    return values


TAXONOMY = ["S1,Field one,U1,Discipline one", "S2,Field two,U1,Discipline one",
            "S3,Field three,U2,Discipline two"]
FILES = ("researchers", "publications", "authorships")
YEARS = st.integers(2010, 2018)

# edits that make the byte split decline, or the rules find an issue
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
    "empty": lambda f: "",
    "not UTF-8": lambda f: f + "\udcff",  # written as the byte 0xff
    "over the field limit": lambda f: f.ljust(131_073, "x"),
    "trailing NUL": lambda f: f + "\x00",
    "line break": lambda f: f'"{f}\r\n{f}"',
}
ROW_EDITS = ("duplicate row", "blank line", "extra field", "unterminated quote")
TEXT_EDITS = {
    "CRLF": lambda text: text.replace("\n", "\r\n"),
    "BOM": lambda text: "\ufeff" + text,
    "no final newline": lambda text: text[:-1],
}


# ids on both sides of the 8-byte cut, where keys stop being compared as
# uint64: 8- and 9-byte ids share an 8-byte prefix
R_IDS = st.sampled_from([f"r{i}" for i in range(4)] + ["r0000001", "r00000012", "researcher-1"])
P_IDS = st.sampled_from([f"p{i}" for i in range(7)] + ["p0000001", "p00000012", "publication-01"])
SDS = st.sampled_from(["S1", "S2", "S3"])
# category pieces: empty, repeated, padded, non-ASCII or wider than 8 bytes;
# "A;;B" is two pieces around an empty one
CATEGORIES = st.lists(st.sampled_from(["A", "B", "C", "", " A", "B ", "é", "\xa0A", "A;;B",
                                       "Category-9"]), max_size=3).map(";".join)


@st.composite
def corpora(draw) -> dict[str, list[str]]:
    """Rows of a small corpus. Each file is drawn either clean, with
    distinct keys and links to drawn rows (a category list can still be
    empty, as ";"), or as free rows over small id pools: those repeat keys,
    put a researcher in two fields, give author counts of 0 and dangling
    links. Ids fit in 8 bytes or not, and some category lists are split by
    _category_set rather than by bytes."""
    if draw(st.booleans()):
        researchers = [(rid, sds, year, rank) for rid, (sds, ranks) in draw(st.dictionaries(
            R_IDS, st.tuples(SDS, st.dictionaries(YEARS, st.sampled_from(RANKS), min_size=1,
                                                  max_size=5)), max_size=6)).items()
                       for year, rank in ranks.items()]
    else:
        researchers = draw(st.lists(st.tuples(R_IDS, SDS, YEARS, st.sampled_from(RANKS)),
                                    max_size=12))
    if draw(st.booleans()):
        pubs = [(pid, *pub) for pid, pub in draw(st.dictionaries(
            P_IDS, st.tuples(YEARS, st.integers(0, 30), st.integers(1, 4),
                             CATEGORIES.filter(bool)), max_size=10)).items()]
    else:
        pubs = draw(st.lists(st.tuples(P_IDS, YEARS, st.integers(0, 30), st.integers(0, 4),
                                       CATEGORIES), max_size=12))
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
    if edit in ("extra field", "unterminated quote"):
        row = rows[i] + ",x" if edit == "extra field" else '"' + rows[i]
        return rows[:i] + [row] + rows[i + 1:]
    fields = rows[i].split(",")
    fields[k] = FIELD_EDITS[edit](fields[k])
    return rows[:i] + [",".join(fields)] + rows[i + 1:]


WIDTH = {"researchers": 4, "publications": 5, "authorships": 2}
HEADERS = {"researchers": ingest.RESEARCHERS_HEADER, "publications": ingest.PUBLICATIONS_HEADER,
           "authorships": ingest.AUTHORSHIPS_HEADER}


@pytest.mark.parametrize("edit", ["none", "taxonomy in error", *FIELD_EDITS, *ROW_EDITS,
                                  *TEXT_EDITS])
@settings(deadline=None)
@given(tables=corpora(), i=st.integers(0, 100))
def test_column_path_equals_row_loop(edit, tables, i):
    # the edit goes to row i of each file in turn, and to each of its fields;
    # a taxonomy in error (a repeated sds_code) leaves every sds unchecked
    places = [(name, k) for name in FILES
              for k in (range(WIDTH[name]) if edit in FIELD_EDITS else [0])]
    taxonomy = TAXONOMY + TAXONOMY[:1] if edit == "taxonomy in error" else TAXONOMY
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_csvs(Path(tmp), taxonomy, [], [], [])
        for name, k in places if edit not in ("none", "taxonomy in error") else [(None, 0)]:
            for file in FILES:
                rows = tables[file]
                if file == name and edit not in TEXT_EDITS:
                    rows = edited(rows, edit, i, k)
                text = "".join(f"{row}\n" for row in [",".join(HEADERS[file]), *rows])
                if file == name and edit in TEXT_EDITS:
                    text = TEXT_EDITS[edit](text)
                getattr(paths, file).write_bytes(text.encode("utf-8", "surrogateescape"))
            assert outcome(load_corpus, paths) == outcome(oracle_load, paths), (name, k)


def _refuse(*_args):
    raise AssertionError("the csv tokenizer ran on a file the byte split should read")


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
    expected = outcome(oracle_load, paths)
    monkeypatch.setattr(ingest, "_split_csv", _refuse)
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

    expected = outcome(oracle_load, paths)
    monkeypatch.setattr(ingest, "_split_csv", _refuse)
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


@pytest.mark.parametrize("publications, kinds", [
    (PUBLICATIONS_HEAD + b"p1,2013,x,1,A\n", ["malformed_row", "dangling_reference"]),
    (PUBLICATIONS_HEAD + b'"p2",2013,1,1,A\r\n', ["dangling_reference"]),
    (b"", ["malformed_row"]),
], ids=["row-level issue", "quoted", "stopped"])
def test_each_file_picks_its_tokenizer(tmp_path, monkeypatch, publications, kinds):
    # whatever tokenizer reads publications.csv, a clean authorships.csv is
    # byte-split; its dangling pub_id is listed unless publications.csv
    # stopped (here: empty), as no reference into a stopped file is checked
    paths = write_csvs(tmp_path, TAXONOMY, ["r1,S1,2012,full"], [], ["p1,r1"])
    paths.publications.write_bytes(publications)
    expected = outcome(oracle_load, paths)
    split_csv = ingest._split_csv
    monkeypatch.setattr(ingest, "_split_csv", lambda path, *args: (
        _refuse() if path == paths.authorships else split_csv(path, *args)))
    result = outcome(load_corpus, paths)
    assert result == expected
    assert [issue.kind for issue in result] == kinds


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
], ids=["shifted rows", "blank line", "CRLF", "quote", "NUL", "space", "no-break space",
        "not UTF-8", "over the csv field limit"])
def test_column_path_declines(body):
    with pytest.raises(ingest._Declined):
        ingest._split_bytes(b"pub_id,researcher_id\n" + body, ingest.AUTHORSHIPS_HEADER)


@pytest.mark.parametrize("body, ids", [
    (b"p1,r\xc3\xa92\np2,r\xc3\xa91\np3,r2\n", ["ré2", "ré1", "r2"]),
    (b"p1,r1\n" * 100 + b"p2," + b"r" * 5_000 + b"\n", ["r1"] * 100 + ["r" * 5_000]),
    (b'p1,"r1\x00"\np2,r1\n', ["r1\x00", "r1"]),
    (b"p1,r1234567\np2,r123456\np3,r1234567\n", ["r1234567", "r123456", "r1234567"]),
    (b"p1,r12345678\np2,r1234567\np3,r12345670\n", ["r12345678", "r1234567", "r12345670"]),
], ids=["non-ASCII id", "padded ids over twice the file", "trailing NUL", "8-byte ids",
        "9-byte ids with an 8-byte prefix"])
def test_keys_hold_any_id(tmp_path, body, ids):
    # keys order and compare as the ids do, in fixed-width bytes or, where
    # padding would take too much memory or lose a trailing NUL, bytes
    # objects; _find looks each up, as uint64 where the keys fit in 8 bytes
    path = tmp_path / "authorships.csv"
    path.write_bytes(b"pub_id,researcher_id\n" + body)
    keys = ingest._read(path, ingest.AUTHORSHIPS_HEADER, ingest._Issues()).keys(1)
    assert [key.decode() for key in keys.tolist()] == ids
    assert np.argsort(keys, kind="stable").tolist() == sorted(range(len(ids)), key=ids.__getitem__)
    assert len(np.unique(keys)) == len(set(ids))
    distinct = np.unique(keys)
    position, found = ingest._find(distinct, keys)
    assert found.all() and (distinct[position] == keys).all()
    position, found = ingest._find(distinct, np.array([b"r", b"r12345679", b"s1"]))
    assert not found.any()


def test_column_path_splits_fields():
    data = "pub_id,researcher_id\np1,r1\np22,ré\x0b2".encode("utf-8")
    fields = ingest._split_bytes(data, ingest.AUTHORSHIPS_HEADER)
    assert fields.rows == 2
    assert fields.keys(0).tolist() == [b"p1", b"p22"]
    assert fields.keys(1).tolist() == [b"r1", "ré\x0b2".encode("utf-8")]
