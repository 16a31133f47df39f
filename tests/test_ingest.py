from __future__ import annotations

import builtins
import gc
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    MINI_AUTHORSHIPS,
    MINI_PUBLICATIONS,
    MINI_RESEARCHERS,
    MINI_TAXONOMY,
    write_csvs,
)
from fieldstrength.errors import (
    ISSUE_CONSTRAINT,
    ISSUE_DANGLING_REFERENCE,
    ISSUE_DUPLICATE_KEY,
    ISSUE_EMPTY_CATEGORIES,
    ISSUE_MALFORMED_ROW,
    CorpusValidationError,
    InputIOError,
)
from fieldstrength.hca import build_cells, corpus_summary, flag_hcas
from fieldstrength.ingest import CorpusPaths, load_corpus
from fieldstrength.model import RANKS, AnalysisConfig
from fieldstrength.oracles import oracle_load, oracle_top_p


def load(tmp_path, taxonomy=None, researchers=None, publications=None,
         authorships=None, config=None):
    paths = write_csvs(
        tmp_path,
        taxonomy if taxonomy is not None else MINI_TAXONOMY,
        researchers if researchers is not None else MINI_RESEARCHERS,
        publications if publications is not None else MINI_PUBLICATIONS,
        authorships if authorships is not None else MINI_AUTHORSHIPS,
    )
    return load_corpus(paths, config or AnalysisConfig())


def issues_of(excinfo) -> list:
    return excinfo.value.issues


def test_minimal_corpus(mini_paths):
    corpus = load_corpus(mini_paths, AnalysisConfig())
    assert corpus.researcher_ids == ("r1",)
    assert corpus.pub_ids == ("p1",)
    assert len(corpus.authorships) == 1
    assert corpus.active_years.tolist() == [2012, 2013, 2014]
    assert corpus.rank.tolist() == [[RANKS.index(rank)
                                     for rank in ("assistant", "assistant", "associate")]]


def test_rank_names_load_as_their_index_into_ranks(tmp_path):
    # the reader finds a rank among the sorted rank names; each must load as its RANKS index
    names = ("full", "associate", "assistant", "Full")
    corpus = load(tmp_path, researchers=[f"r1,S1,{2012 + i},{name}"
                                         for i, name in enumerate(names)])
    assert corpus.rank.dtype == np.int8
    assert corpus.rank.tolist() == [[RANKS.index(name.lower()) for name in names]]


def test_researcher_below_min_years_dropped(tmp_path):
    corpus = load(
        tmp_path,
        researchers=MINI_RESEARCHERS + ["r2,S1,2012,full", "r2,S1,2013,full"],
        authorships=MINI_AUTHORSHIPS + ["p1,r2"],
    )
    assert "r2" not in corpus.researcher_ids
    assert corpus.report.dropped["researchers_below_min_years"] == 1
    assert corpus.report.dropped["authorships_of_dropped_researchers"] == 1
    assert corpus.report.parsed["researchers"] == 2
    assert corpus.report.kept["researchers"] == 1


def test_dangling_authorship_names_the_key(tmp_path):
    with pytest.raises(CorpusValidationError) as excinfo:
        load(tmp_path, authorships=["p1,r1", "ghost,r1"])
    issues = issues_of(excinfo)
    assert len(issues) == 1
    assert issues[0].kind == ISSUE_DANGLING_REFERENCE
    assert "ghost" in issues[0].message


def test_unknown_researcher_and_sds_are_dangling(tmp_path):
    with pytest.raises(CorpusValidationError) as excinfo:
        load(
            tmp_path,
            researchers=MINI_RESEARCHERS + ["rX,NOPE,2012,full"],
            authorships=["p1,r1", "p1,somebody"],
        )
    kinds = {i.kind for i in issues_of(excinfo)}
    assert kinds == {ISSUE_DANGLING_REFERENCE}
    assert len(issues_of(excinfo)) == 2


def test_duplicate_keys(tmp_path):
    with pytest.raises(CorpusValidationError) as excinfo:
        load(
            tmp_path,
            researchers=MINI_RESEARCHERS + ["r1,S1,2012,full"],
            publications=MINI_PUBLICATIONS + ["p1,2013,1,1,A"],
            authorships=["p1,r1", "p1,r1"],
        )
    kinds = [i.kind for i in issues_of(excinfo)]
    assert kinds.count(ISSUE_DUPLICATE_KEY) == 3


def test_empty_category_list(tmp_path):
    with pytest.raises(CorpusValidationError) as excinfo:
        load(tmp_path, publications=["p1,2013,7,2,", "p2,2013,7,2,; ;"],
             authorships=["p1,r1"])
    assert {i.kind for i in issues_of(excinfo)} == {ISSUE_EMPTY_CATEGORIES}


def test_malformed_rows_carry_line_numbers(tmp_path):
    with pytest.raises(CorpusValidationError) as excinfo:
        load(
            tmp_path,
            researchers=MINI_RESEARCHERS + ["r2,S1,notayear,assistant", "r3,S1,2012,baron"],
            publications=["p1,2013,-4,2,A", "p2,2013,7,zero,A", "short,row"],
            authorships=["p1,r1"],
        )
    issues = issues_of(excinfo)
    malformed = [i for i in issues if i.kind == ISSUE_MALFORMED_ROW]
    assert len(malformed) == 5
    assert all(i.line is not None for i in malformed)
    # the authorship pointing at the rejected publication is reported too
    assert [i.kind for i in issues if i.kind != ISSUE_MALFORMED_ROW] == [ISSUE_DANGLING_REFERENCE]


def test_author_count_below_roster_links(tmp_path):
    with pytest.raises(CorpusValidationError) as excinfo:
        load(
            tmp_path,
            researchers=MINI_RESEARCHERS + ["r2,S1,2012,full", "r2,S1,2013,full", "r2,S1,2014,full"],
            publications=["p1,2013,7,1,A"],
            authorships=["p1,r1", "p1,r2"],
        )
    issues = issues_of(excinfo)
    assert issues[0].kind == ISSUE_CONSTRAINT
    assert "p1" in issues[0].message


def test_conflicting_sds_for_one_researcher(tmp_path):
    with pytest.raises(CorpusValidationError) as excinfo:
        load(
            tmp_path,
            taxonomy=MINI_TAXONOMY + ["S2,Field two,U1,Discipline one"],
            researchers=MINI_RESEARCHERS + ["r1,S2,2015,full"],
        )
    assert issues_of(excinfo)[0].kind == ISSUE_CONSTRAINT


def test_validation_collects_all_errors_before_failing(tmp_path):
    with pytest.raises(CorpusValidationError) as excinfo:
        load(
            tmp_path,
            researchers=MINI_RESEARCHERS + ["r2,S1,2012,baron"],
            publications=MINI_PUBLICATIONS + ["p2,2013,1,1,"],
            authorships=["p1,r1", "zzz,r1"],
        )
    kinds = {i.kind for i in issues_of(excinfo)}
    assert kinds == {ISSUE_MALFORMED_ROW, ISSUE_EMPTY_CATEGORIES, ISSUE_DANGLING_REFERENCE}


def test_researcher_without_active_years_is_not_on_the_roster(tmp_path):
    # even at min_years 1: r2's only row lies outside the window, so every
    # roster row has an active year and a cost
    corpus = load(tmp_path, researchers=MINI_RESEARCHERS + ["r2,S1,2005,full"],
                  config=AnalysisConfig(min_years=1))
    assert corpus.researcher_ids == ("r1",)
    assert corpus.report.dropped["researchers_below_min_years"] == 1
    assert (corpus.rank >= 0).any(axis=1).all()


def test_out_of_window_rows_dropped_with_reason(tmp_path):
    corpus = load(
        tmp_path,
        researchers=MINI_RESEARCHERS + ["r1,S1,2005,assistant"],
        publications=MINI_PUBLICATIONS + ["old,1999,50,1,A"],
        authorships=MINI_AUTHORSHIPS + ["old,r1"],
    )
    assert corpus.report.dropped["researcher_years_outside_window"] == 1
    assert corpus.report.dropped["publications_outside_window"] == 1
    assert corpus.report.dropped["authorships_of_dropped_publications"] == 1
    assert "old" not in corpus.pub_ids


def test_dropped_plus_kept_equals_parsed(tmp_path):
    corpus = load(
        tmp_path,
        researchers=MINI_RESEARCHERS + [
            "r2,S1,2012,full", "r2,S1,2013,full",   # below min_years
            "r1,S1,2003,assistant",                  # outside window
        ],
        publications=MINI_PUBLICATIONS + ["old,1999,5,1,A", "solo,2014,2,1,A"],
        authorships=MINI_AUTHORSHIPS + ["old,r1", "p1,r2"],
    )
    report = corpus.report
    assert report.parsed["researchers"] == 2
    assert report.kept["researchers"] + report.dropped["researchers_below_min_years"] == 2
    assert report.parsed["publications"] == 3
    assert (report.kept["publications"]
            + report.dropped["publications_outside_window"]) == 3
    assert report.parsed["authorships"] == 3
    assert (report.kept["authorships"]
            + report.dropped["authorships_of_dropped_publications"]
            + report.dropped["authorships_of_dropped_researchers"]) == 3
    # the roster-less publication is retained as baseline, not dropped
    assert corpus.baseline_only_pubs == {"solo"}


def test_missing_file_is_io_error(tmp_path):
    paths = write_csvs(tmp_path, MINI_TAXONOMY, MINI_RESEARCHERS,
                       MINI_PUBLICATIONS, MINI_AUTHORSHIPS)
    (tmp_path / "publications.csv").unlink()
    with pytest.raises(InputIOError):
        load_corpus(paths, AnalysisConfig())


def test_each_input_file_is_read_once(tmp_path, monkeypatch):
    # publications.csv is quoted, so the byte split declines it and csv.reader
    # reads the same bytes; each open, by Path.open (which read_bytes calls)
    # or by open(), is counted
    paths = write_csvs(tmp_path, MINI_TAXONOMY, MINI_RESEARCHERS, ['"p1",2013,7,2,"A"'],
                       MINI_AUTHORSHIPS)
    opened = Counter()

    def counted(open_file):
        def counting(file, *args, **kwargs):
            opened[str(file)] += 1
            return open_file(file, *args, **kwargs)
        return counting

    monkeypatch.setattr(Path, "open", counted(Path.open))
    monkeypatch.setattr(builtins, "open", counted(builtins.open))
    assert load_corpus(paths, AnalysisConfig()).pub_ids == ("p1",)
    assert {str(path): opened[str(path)] for path in vars(paths).values()} == {
        str(path): 1 for path in vars(paths).values()}


@pytest.mark.parametrize("n_good", [0, 1000])
def test_non_utf8_byte_is_one_malformed_row_issue(tmp_path, n_good):
    publications = MINI_PUBLICATIONS + [f"q{i},2013,1,1,A" for i in range(n_good)]
    paths = write_csvs(tmp_path, MINI_TAXONOMY, MINI_RESEARCHERS, publications, MINI_AUTHORSHIPS)
    with open(paths.publications, "ab") as handle:
        handle.write(b"bad,2013,5,1,Caf\xe9\n")
    with pytest.raises(CorpusValidationError) as excinfo:
        load_corpus(paths, AnalysisConfig())
    issues = [i for i in issues_of(excinfo) if i.file == str(paths.publications)]
    assert len(issues) == 1
    assert issues[0].kind == ISSUE_MALFORMED_ROW and "not valid UTF-8" in issues[0].message
    assert issues[0].line == len(publications) + 2  # after the header and the good rows
    if n_good:  # the good rows before it were read, so nothing else is wrong
        assert issues_of(excinfo) == issues


@pytest.mark.parametrize("n_good", [0, 1000])
def test_rows_before_a_bad_byte_are_checked(tmp_path, n_good):
    # the rows in front of the bad byte's line get every row check, the
    # line break inside p3's categories included
    publications = ([f"q{i},2013,1,1,A" for i in range(n_good)]
                    + ["p1,2013,7,2,A", "p2,2013,x,2,A", '"p3",2013,1,1,"A;\nB"'])
    paths = write_csvs(tmp_path, MINI_TAXONOMY, MINI_RESEARCHERS, publications, MINI_AUTHORSHIPS)
    with open(paths.publications, "ab") as handle:
        handle.write(b"p4,2013,5,1,Caf\xe9\np5,2013,x,1,A\n")
    with pytest.raises(CorpusValidationError) as excinfo:
        load_corpus(paths, AnalysisConfig())
    assert [(i.message, i.line) for i in issues_of(excinfo)] == [
        ("citations is not an integer: 'x'", n_good + 3),
        ("line break inside subject_categories", n_good + 5),
        ("not valid UTF-8 (invalid continuation byte); rest of file skipped", n_good + 6),
    ]


UTF8_STOP = "not valid UTF-8 (invalid continuation byte); rest of file skipped"
BOM_HEADER = ("bad header ['\\ufeffpub_id', 'year', 'citations', 'author_count', "
              "'subject_categories'], expected ['pub_id', 'year', 'citations', 'author_count', "
              "'subject_categories']")


@pytest.mark.parametrize("n_good", [0, 1000])
@pytest.mark.parametrize("damage, listing", [
    # the bad byte's line is the header: nothing before it, so no header issue
    ("bad byte on line 1", [(UTF8_STOP, 1)]),
    # p2's quoted field is still open when the bad byte's line starts: the
    # rows before that line are read to their end, p2's open field included
    ("open quote before the bad byte's line", [("citations is not an integer: 'x'", 3),
                                               (UTF8_STOP, 4)]),
    # a bad header ends the file before the later bad byte is met
    ("BOM header, later bad byte", [(BOM_HEADER, 1)]),
])
def test_bad_byte_listings(tmp_path, n_good, damage, listing):
    publications = [f"q{i},2013,1,1,A" for i in range(n_good)] + MINI_PUBLICATIONS
    paths = write_csvs(tmp_path, MINI_TAXONOMY, MINI_RESEARCHERS, publications, MINI_AUTHORSHIPS)
    data = paths.publications.read_bytes()
    if damage == "bad byte on line 1":
        data = b"\xe9" + data
    elif damage == "open quote before the bad byte's line":
        data += b'p2,2013,x,1,"A;\nB\xe9",x\np3,2013,1,1,A\n'
    else:
        data = b"\xef\xbb\xbf" + data + b"p4,2013,5,1,Caf\xe9\n"
    paths.publications.write_bytes(data)
    shift = n_good if damage == "open quote before the bad byte's line" else 0
    expected = [(ISSUE_MALFORMED_ROW, message, str(paths.publications), line + shift)
                for message, line in listing]
    for loader in (load_corpus, oracle_load):
        with pytest.raises(CorpusValidationError) as excinfo:
            loader(paths, AnalysisConfig())
        assert [(i.kind, i.message, i.file, i.line) for i in issues_of(excinfo)] == expected


@pytest.mark.parametrize("name", ["researchers", "publications"])
@pytest.mark.parametrize("damage", ["bom_header", "bad_byte"])
def test_file_that_stops_early_is_not_used_to_check_references(tmp_path, name, damage):
    paths = write_csvs(tmp_path, MINI_TAXONOMY, MINI_RESEARCHERS,
                       MINI_PUBLICATIONS, MINI_AUTHORSHIPS)
    path = getattr(paths, name)
    header, rows = path.read_bytes().split(b"\n", 1)
    if damage == "bom_header":
        path.write_bytes(b"\xef\xbb\xbf" + header + b"\n" + rows)
    else:
        path.write_bytes(header + b"\n\xe9" + rows)
    with pytest.raises(CorpusValidationError) as excinfo:
        load_corpus(paths, AnalysisConfig())
    # one issue for the file; authorships.csv is not checked against its missing rows
    line = 1 if damage == "bom_header" else 2
    assert [(i.kind, i.file, i.line) for i in issues_of(excinfo)] == [
        (ISSUE_MALFORMED_ROW, str(path), line)]


@pytest.mark.parametrize("pub_id", ["p\r2", "p\n2", "p\r\n2"])
def test_line_break_inside_a_field_is_malformed_row(tmp_path, pub_id):
    # the quoted row spans lines 3 and 4; its issue is at the line it ends on
    with pytest.raises(CorpusValidationError) as excinfo:
        load(tmp_path, publications=MINI_PUBLICATIONS + [f'"{pub_id}",2013,5,1,A'])
    assert [(i.kind, i.message, i.line) for i in issues_of(excinfo)] == [
        (ISSUE_MALFORMED_ROW, "line break inside pub_id", 4)]


def test_line_break_at_a_field_edge_is_stripped(tmp_path):
    corpus = load(tmp_path, publications=MINI_PUBLICATIONS + ['"\r\np2\n",2013,5,1,A'])
    assert corpus.pub_ids == ("p1", "p2")


@pytest.mark.parametrize("field", ["citations", "author_count"])
def test_number_above_int64_is_malformed_row(tmp_path, field):
    big = "1" + "0" * 25
    row = f"big,2013,{big},1,A" if field == "citations" else f"big,2013,7,{big},A"
    with pytest.raises(CorpusValidationError) as excinfo:
        load(tmp_path, publications=MINI_PUBLICATIONS + [row])
    assert [(i.kind, i.message, i.line) for i in issues_of(excinfo)] == [
        (ISSUE_MALFORMED_ROW, f"{field} must be <= {2**63 - 1}, got {big}", 3)]


@pytest.mark.parametrize("value", ["2_012", "1_000", "\u0663", "\uff12"])
@pytest.mark.parametrize("field", ["year", "citations", "author_count", "researcher year"])
def test_number_that_is_not_ascii_digits_is_malformed_row(tmp_path, field, value):
    # int() alone reads digit-group underscores and non-ASCII digits
    if field == "researcher year":
        files = {"researchers": MINI_RESEARCHERS + [f"r1,S1,{value},full"]}
        what, path, line = "year", tmp_path / "researchers.csv", 5
    else:
        row = {"year": f"p2,{value},5,1,A", "citations": f"p2,2013,{value},1,A",
               "author_count": f"p2,2013,5,{value},A"}[field]
        files = {"publications": MINI_PUBLICATIONS + [row]}
        what, path, line = field, tmp_path / "publications.csv", 3
    with pytest.raises(CorpusValidationError) as excinfo:
        load(tmp_path, **files)
    assert [(i.kind, i.message, i.file, i.line) for i in issues_of(excinfo)] == [
        (ISSUE_MALFORMED_ROW, f"{what} is not an integer: {value!r}", str(path), line)]


def test_largest_int64_counts_load(tmp_path):
    largest = 2**63 - 1
    corpus = load(tmp_path, publications=MINI_PUBLICATIONS + [f"big,2013,{largest},{largest},A"])
    assert corpus.citations.max() == corpus.author_count.max() == largest


@pytest.mark.parametrize("bad_byte_after", [False, True])
def test_field_over_the_csv_limit_stops_the_file(tmp_path, bad_byte_after):
    # the rows after it are not read, and authorships.csv is not checked against them
    publications = MINI_PUBLICATIONS + ["long,2013,1,1," + "A" * 140_000, "p2,2013,x,1,A"]
    paths = write_csvs(tmp_path, MINI_TAXONOMY, MINI_RESEARCHERS, publications,
                       MINI_AUTHORSHIPS + ["p2,r1"])
    if bad_byte_after:
        with open(paths.publications, "ab") as handle:
            handle.write(b"p3,2013,5,1,Caf\xe9\n")
    with pytest.raises(CorpusValidationError) as excinfo:
        load_corpus(paths, AnalysisConfig())
    assert [(i.kind, i.message, i.file, i.line) for i in issues_of(excinfo)] == [
        (ISSUE_MALFORMED_ROW, "field larger than field limit (131072); rest of file skipped",
         str(paths.publications), 3)]


def test_bad_header_rejected(tmp_path):
    paths = write_csvs(tmp_path, MINI_TAXONOMY, MINI_RESEARCHERS,
                       MINI_PUBLICATIONS, MINI_AUTHORSHIPS)
    (tmp_path / "authorships.csv").write_text("pub,who\np1,r1\n", encoding="utf-8")
    with pytest.raises(CorpusValidationError) as excinfo:
        load_corpus(paths, AnalysisConfig())
    assert issues_of(excinfo)[0].kind == ISSUE_MALFORMED_ROW


def test_load_is_order_insensitive(tmp_path):
    taxonomy = MINI_TAXONOMY + ["S2,Field two,U2,Discipline two"]
    researchers = [
        "r1,S1,2012,assistant", "r1,S1,2013,assistant", "r1,S1,2014,associate",
        "r2,S2,2012,full", "r2,S2,2013,full", "r2,S2,2014,full",
    ]
    publications = ["p1,2013,7,2,A;B", "p2,2014,3,1,B"]
    authorships = ["p1,r1", "p1,r2", "p2,r2"]

    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    corpus_a = load(dir_a, taxonomy, researchers, publications, authorships)
    rng = random.Random(1)
    for rows in (taxonomy, researchers, publications, authorships):
        rng.shuffle(rows)
    corpus_b = load(dir_b, taxonomy, researchers, publications, authorships)

    assert corpus_a.researcher_ids == corpus_b.researcher_ids == ("r1", "r2")
    assert corpus_a.sds_codes == corpus_b.sds_codes == ("S1", "S2")
    assert corpus_a.pub_ids == corpus_b.pub_ids == ("p1", "p2")
    assert corpus_a.categories == corpus_b.categories == ("A", "B")
    for column in ("field_start", "active_years", "rank", "year", "citations", "author_count",
                   "category_start", "category_code", "link_pub", "link_researcher"):
        assert np.array_equal(getattr(corpus_a, column), getattr(corpus_b, column)), column
    assert corpus_a.authors_by_pub == {"p1": ("r1", "r2"), "p2": ("r2",)}


def test_baseline_publications_kept_by_default(tmp_path):
    corpus = load(tmp_path, publications=MINI_PUBLICATIONS + ["world,2013,99,3,A"])
    assert "world" in corpus.pub_ids
    assert corpus.baseline_only_pubs == {"world"}
    assert any("citation baseline" in w for w in corpus.report.warnings)


def test_roster_only_baseline_drops_unlinked(tmp_path):
    cfg = AnalysisConfig(roster_only_baseline=True)
    corpus = load(tmp_path, publications=MINI_PUBLICATIONS + ["world,2013,99,3,A"],
                  config=cfg)
    assert "world" not in corpus.pub_ids
    assert corpus.report.dropped["publications_without_roster_author"] == 1


def _summary(corpus):
    return corpus_summary(corpus, flag_hcas(build_cells(corpus), corpus.config.sorted_percentiles))


def test_summary_single_uda_overall_equals_row(tmp_path):
    table = _summary(load(tmp_path))
    assert len(table.rows) == 1
    row, overall = table.rows[0], table.overall
    assert (row.n_professors, row.n_publications) == (overall.n_professors, overall.n_publications)
    assert row.hca_counts == overall.hca_counts


def test_summary_cross_uda_coauthorship_double_counts(tmp_path):
    corpus = load(
        tmp_path,
        taxonomy=MINI_TAXONOMY + ["S2,Field two,U2,Discipline two"],
        researchers=MINI_RESEARCHERS + [
            "r2,S2,2012,full", "r2,S2,2013,full", "r2,S2,2014,full",
        ],
        publications=["p1,2013,7,2,A"],
        authorships=["p1,r1", "p1,r2"],
    )
    table = _summary(corpus)
    per_uda_sum = sum(r.n_publications for r in table.rows)
    assert per_uda_sum == table.overall.n_publications + 1
    assert sum(r.n_professors for r in table.rows) == table.overall.n_professors


def test_summary_share_by_construction(tmp_path):
    # one cell of 40 distinct counts: exactly 5% (2 of 40) flagged at p=5
    researchers = []
    publications = []
    authorships = []
    for i in range(40):
        rid = f"r{i:02d}"
        researchers += [f"{rid},S1,{y},assistant" for y in (2012, 2013, 2014)]
        publications.append(f"q{i:02d},2013,{i},1,A")
        authorships.append(f"q{i:02d},{rid}")
    corpus = load(tmp_path, researchers=researchers, publications=publications,
                  authorships=authorships)
    table = _summary(corpus)
    assert table.overall.hca_counts[5.0] == 2
    assert 100 * table.overall.hca_counts[5.0] / table.overall.n_publications == pytest.approx(5.0)


def random_tables(rng: random.Random) -> tuple[list[str], list[str], list[str], list[str]]:
    """CSV rows of a random corpus: researchers below min_years, publications
    outside the window or without roster authors, cross-discipline links."""
    taxonomy = [f"S{i},Field {i},U{i % 3},Discipline {i % 3}" for i in range(6)]
    researchers, publications, authorships = [], [], []
    for i in range(30):
        for year in rng.sample(range(2010, 2018), rng.randint(1, 6)):
            researchers.append(f"r{i:02d},S{i % 6},{year},{rng.choice(RANKS)}")
    for j in range(200):
        authors = rng.sample(range(30), rng.choice((0, 0, 1, 2, 3, 4)))
        cats = ";".join(rng.sample("ABCD", rng.randint(1, 2)))
        publications.append(f"q{j:03d},{rng.randint(2011, 2017)},{rng.randint(0, 9)},"
                            f"{len(authors) + rng.randint(0, 2) or 1},{cats}")
        authorships += [f"q{j:03d},r{i:02d}" for i in authors]
    return taxonomy, researchers, publications, authorships


def brute_force_summary(tables, config: AnalysisConfig) -> list[tuple]:
    """(uda, n_sds, n_professors, n_publications, hca counts) per discipline
    and overall, by set counting over the CSV rows."""
    taxonomy, researcher_rows, pub_rows, link_rows = ([line.split(",") for line in rows]
                                                      for rows in tables)
    uda_of = {sds: uda for sds, _, uda, _ in taxonomy}
    years, sds_of = {}, {}
    for rid, sds, year, _ in researcher_rows:
        sds_of[rid] = sds
        if int(year) in config.years:
            years.setdefault(rid, set()).add(year)
    roster = {rid for rid, active in years.items() if len(active) >= config.min_years}
    pubs = {pid: (int(year), int(cits), cats.split(";"))
            for pid, year, cits, _, cats in pub_rows if int(year) in config.years}
    links = {(pid, rid) for pid, rid in link_rows if pid in pubs and rid in roster}
    if config.roster_only_baseline:
        pubs = {pid: pub for pid, pub in pubs.items() if pid in {p for p, _ in links}}
    cells: dict[tuple, list] = {}
    for pid, (year, cits, cats) in pubs.items():
        for cat in cats:
            cells.setdefault((year, cat), []).append((pid, cits))
    flagged = {p: set().union(*(oracle_top_p(members, p) for members in cells.values()))
               for p in config.sorted_percentiles}

    def row(uda, researchers):
        linked = {pid for pid, rid in links if rid in researchers}
        return (uda, len({sds_of[rid] for rid in researchers}), len(researchers), len(linked),
                {p: len(linked & flagged[p]) for p in config.sorted_percentiles})

    return [row(uda, {rid for rid in roster if uda_of[sds_of[rid]] == uda})
            for uda in sorted({uda_of[sds_of[rid]] for rid in roster})] + [row("ALL", roster)]


@pytest.mark.parametrize("roster_only_baseline", [False, True])
def test_summary_equals_brute_force_set_counts(tmp_path, roster_only_baseline):
    rng = random.Random(31)
    config = AnalysisConfig(hca_percentiles=(5.0, 10.0, 25.0),
                            roster_only_baseline=roster_only_baseline)
    for trial in range(5):
        tables = random_tables(rng)
        trial_dir = tmp_path / str(trial)
        trial_dir.mkdir()
        corpus = load(trial_dir, *tables, config=config)
        table = _summary(corpus)
        got = [(r.uda, r.n_sds, r.n_professors, r.n_publications, r.hca_counts)
               for r in (*table.rows, table.overall)]
        assert got == brute_force_summary(tables, config)
        assert table.rows[0].n_publications > 0 and table.overall.hca_counts[25.0] > 0


# Every row-level check fires, interleaved over the three row files: a row
# with three bad integers, a duplicate of an out-of-window publication,
# whitespace-padded fields and a quoted field spanning two lines, whose
# line break makes it malformed and leaves the links to it dangling.
ORDER_TAXONOMY = ["S1,Field one,U1,Discipline one", "S2,Field two,U1,Discipline one",
                  "S3,Field three,U2,Discipline two"]
ORDER_RESEARCHERS = [
    "r1,S1,2012,assistant",
    "r2,S2,notayear,full",
    "r1,S1,2013,assistant",
    " r2 , S2 , 2012 , FULL ",
    "r2,S2,2013,baron",
    "r3,NOPE,2012,full",
    "r1,S2,2015,full",
    "r1,S1,2014,associate",
    "r1,S1,2012,full",
    "r2,S2,2005,full",
    "short,row",
    "r2,S2,2014,full",
    "r2,S2,2015,full",
]
ORDER_PUBLICATIONS = [
    "p1,2013,7,2,A;B",
    "bad3,yr,x,-,A",
    "neg,2013,-4,0,A",
    "old,1999,5,1,A",
    "old,2000,6,1,A",
    " pad , 2014 , 3 , 1 , B ; A ",
    'nl,2013,2,2,"A;\nC"',
    "p1,2014,1,1,A",
    "empty,2013,1,1, ; ;",
    "a,b,c",
    "one,2013,9,1,A",
    "abc,2013,4,1,A",
]
ORDER_AUTHORSHIPS = [
    "p1,r1",
    "ghost,r1",
    "p1,nobody",
    "p1,r1",
    "old,r1",
    "old,r1",
    " pad , r2 ",
    "bad3,r2",
    "one,r1",
    "x",
    "one,r2",
    "nl,r3",
    "nl,r2",
    "abc,r2",
    "abc,r1",
]
ORDER_ISSUES = [
    "malformed_row: year is not an integer: 'notayear' [researchers.csv:3]",
    "malformed_row: unknown rank 'baron' [researchers.csv:6]",
    "dangling_reference: researcher 'r3' references unknown sds 'NOPE' [researchers.csv:7]",
    "constraint_violation: researcher 'r1' listed in both 'S1' and 'S2' [researchers.csv:8]",
    "duplicate_key: duplicate (researcher, year) key ('r1', 2012) [researchers.csv:10]",
    "malformed_row: expected 4 fields, got 2 [researchers.csv:12]",
    "malformed_row: year is not an integer: 'yr' [publications.csv:3]",
    "malformed_row: citations is not an integer: 'x' [publications.csv:3]",
    "malformed_row: author_count is not an integer: '-' [publications.csv:3]",
    "malformed_row: citations must be >= 0, got -4 [publications.csv:4]",
    "malformed_row: author_count must be >= 1, got 0 [publications.csv:4]",
    "duplicate_key: duplicate pub_id 'old' [publications.csv:6]",
    "malformed_row: line break inside subject_categories [publications.csv:9]",
    "duplicate_key: duplicate pub_id 'p1' [publications.csv:10]",
    "empty_categories: publication 'empty' has no subject categories [publications.csv:11]",
    "malformed_row: expected 5 fields, got 3 [publications.csv:12]",
    "dangling_reference: authorship references unknown pub_id 'ghost' [authorships.csv:3]",
    "dangling_reference: authorship references unknown researcher_id 'nobody' [authorships.csv:4]",
    "duplicate_key: duplicate authorship ('p1', 'r1') [authorships.csv:5]",
    "dangling_reference: authorship references unknown pub_id 'bad3' [authorships.csv:9]",
    "malformed_row: expected 2 fields, got 1 [authorships.csv:11]",
    "dangling_reference: authorship references unknown pub_id 'nl' [authorships.csv:13]",
    "dangling_reference: authorship references unknown pub_id 'nl' [authorships.csv:14]",
    "constraint_violation: publication 'abc' has author_count 1 but 2 roster authorships [publications.csv]",
    "constraint_violation: publication 'one' has author_count 1 but 2 roster authorships [publications.csv]",
]
# The file-level checks: the three taxonomy checks, a bad header, a
# non-UTF-8 byte and an empty file.
FILE_ISSUES = [
    "malformed_row: empty code [taxonomy.csv:3]",
    "duplicate_key: duplicate sds_code 'S1' [taxonomy.csv:4]",
    "constraint_violation: conflicting names for uda 'U1' [taxonomy.csv:5]",
    "malformed_row: bad header ['researcher_id', 'sds', 'year', 'rank'], "
    "expected ['researcher_id', 'sds_code', 'year', 'rank'] [researchers.csv:1]",
    "malformed_row: not valid UTF-8 (invalid continuation byte); rest of file skipped "
    "[publications.csv:3]",
    "malformed_row: empty file, header row required [authorships.csv:1]",
]


def _issue_lines(tmp_path, monkeypatch) -> list[str]:
    # relative paths, so that each issue names its file as written here
    monkeypatch.chdir(tmp_path)
    paths = CorpusPaths(*(Path(f"{name}.csv") for name in
                          ("taxonomy", "researchers", "publications", "authorships")))
    with pytest.raises(CorpusValidationError) as excinfo:
        load_corpus(paths, AnalysisConfig())
    return [issue.format() for issue in issues_of(excinfo)]


def test_every_row_check_reports_in_file_order(tmp_path, monkeypatch):
    write_csvs(tmp_path, ORDER_TAXONOMY, ORDER_RESEARCHERS, ORDER_PUBLICATIONS,
               ORDER_AUTHORSHIPS)
    assert _issue_lines(tmp_path, monkeypatch) == ORDER_ISSUES


def test_every_file_check_reports_in_file_order(tmp_path, monkeypatch):
    write_csvs(tmp_path,
               ["S1,Field one,U1,Discipline one", ",No code,U1,Discipline one",
                "S1,Again,U1,Discipline one", "S2,Field two,U1,Another name",
                "S3,Field three,U2,Discipline two"],
               [], ["p1,2013,7,2,A"], [])
    (tmp_path / "researchers.csv").write_text("researcher_id,sds,year,rank\nr1,S1,2012,full\n",
                                              encoding="utf-8")
    with open(tmp_path / "publications.csv", "ab") as handle:
        handle.write(b"p3,2013,1,1,Caf\xe9\np4,2013,1,1,A\n")
    (tmp_path / "authorships.csv").write_text("", encoding="utf-8")
    assert _issue_lines(tmp_path, monkeypatch) == FILE_ISSUES


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("valid", [True, False])
def test_load_leaves_gc_state_as_found(tmp_path, enabled, valid):
    publications = MINI_PUBLICATIONS if valid else ["p1,2013,x,2,A"]
    paths = write_csvs(tmp_path, MINI_TAXONOMY, MINI_RESEARCHERS, publications,
                       MINI_AUTHORSHIPS)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if valid:
            load_corpus(paths, AnalysisConfig())
        else:
            with pytest.raises(CorpusValidationError):
                load_corpus(paths, AnalysisConfig())
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
