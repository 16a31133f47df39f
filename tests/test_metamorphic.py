"""Metamorphic checks of the command line on the synth-default corpus.

Each check rewrites the corpus in a way that must not change what the
engine computes (CRLF line ends and quoted fields, hostile ids, long ids)
or what it lists (a corrupted copy read by either tokenizer), runs
cli.main in process on the copy and compares with the plain run. A copy
whose researcher ids hold a carriage return is rejected instead.
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import pytest

from fieldstrength.cli import main

LINE_BREAK_ISSUE = "malformed_row: line break inside researcher_id"


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def write_rows(path: Path, rows: list[list[str]], **dialect) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, **dialect).writerows(rows)


def write_config(corpus: Path) -> str:
    """A run config next to the corpus folder that reads its four tables."""
    config = corpus.parent / f"{corpus.name}.json"
    names = ("taxonomy", "researchers", "publications", "authorships")
    config.write_text(json.dumps({"inputs": {name: str(corpus / f"{name}.csv")
                                             for name in names}}), encoding="utf-8")
    return str(config)


def tree(out: Path) -> dict[Path, bytes]:
    """Every file under out but manifest.json, which names the input paths and hashes."""
    return {path.relative_to(out): path.read_bytes() for path in out.rglob("*")
            if path.is_file() and path.name != "manifest.json"}


@pytest.fixture(scope="module")
def plain(default_synth_dir, tmp_path_factory) -> Path:
    """The output tree of a run on the synth-default corpus, as given."""
    out = tmp_path_factory.mktemp("plain") / "out"
    assert main(["run", "--config", write_config(default_synth_dir), "--out", str(out)]) == 0
    return out


def copy_corpus(default_synth_dir: Path, tmp_path: Path, name: str) -> Path:
    corpus = tmp_path / name
    shutil.copytree(default_synth_dir, corpus)
    return corpus


def test_crlf_quote_all_copy_writes_the_same_tree(default_synth_dir, plain, tmp_path):
    # the byte split declines CRLF and quotes, so the csv.reader tokenizer
    # reads every file
    corpus = copy_corpus(default_synth_dir, tmp_path, "quoted")
    for path in corpus.glob("*.csv"):
        write_rows(path, read_rows(path), quoting=csv.QUOTE_ALL, lineterminator="\r\n")
    out = tmp_path / "quoted_out"
    assert main(["run", "--config", write_config(corpus), "--out", str(out)]) == 0
    assert tree(out) == tree(plain)


def test_hostile_ids_give_the_same_scores(default_synth_dir, plain, tmp_path):
    # every researcher id gets the suffix ,"é in researchers.csv and
    # authorships.csv, so the (sds, researcher_id) order stays;
    # researcher_scores.csv read back with csv.reader and with the suffix
    # stripped must hold the plain run's rows
    suffix = ',"é'
    corpus = copy_corpus(default_synth_dir, tmp_path, "hostile")
    for name, column in (("researchers.csv", 0), ("authorships.csv", 1)):
        rows = read_rows(corpus / name)
        for row in rows[1:]:
            row[column] += suffix
        write_rows(corpus / name, rows, lineterminator="\n")
    out = tmp_path / "hostile_out"
    assert main(["run", "--config", write_config(corpus), "--out", str(out)]) == 0
    plain_rows = read_rows(plain / "researcher_scores.csv")
    hostile = read_rows(out / "researcher_scores.csv")
    assert len(hostile) == len(plain_rows) > 1 and hostile[0] == plain_rows[0]
    assert all(row[0].endswith(suffix) for row in hostile[1:])
    assert [[row[0][:-len(suffix)], *row[1:]] for row in hostile[1:]] == plain_rows[1:]


def test_carriage_return_ids_are_rejected(default_synth_dir, tmp_path, capsys):
    # a copy whose researcher ids hold a carriage return (every field quoted)
    # is rejected: csv.writer would write such an id back bare on Python 3.10-3.12
    corpus = copy_corpus(default_synth_dir, tmp_path, "cr")
    for path in corpus.glob("*.csv"):
        column = {"researchers.csv": 0, "authorships.csv": 1}.get(path.name)
        rows = read_rows(path)
        for row in rows[1:] if column is not None else ():
            row[column] = f"x\r{row[column]}"
        write_rows(path, rows, quoting=csv.QUOTE_ALL, lineterminator="\n")
    config = write_config(corpus)
    assert main(["validate", "--config", config]) == 1
    assert LINE_BREAK_ISSUE in capsys.readouterr().out
    out = tmp_path / "cr_out"
    assert main(["run", "--config", config, "--out", str(out)]) == 1
    assert LINE_BREAK_ISSUE in capsys.readouterr().err
    assert not out.exists()


def test_long_ids_give_the_same_scores_and_flags(default_synth_dir, plain, tmp_path):
    # every pub_id and researcher_id gets the unquoted prefix WOS:00000, which
    # keeps their order and takes the byte split's wide key path;
    # researcher_scores.csv and hca_flags.csv with the prefix stripped must
    # hold the plain run's rows
    prefix = "WOS:00000"
    corpus = copy_corpus(default_synth_dir, tmp_path, "long")
    columns = {"researchers.csv": (0,), "publications.csv": (0,), "authorships.csv": (0, 1)}
    for name, ks in columns.items():
        lines = (corpus / name).read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines[1:], 1):
            fields = line.split(",")
            for k in ks:
                fields[k] = prefix + fields[k]
            lines[i] = ",".join(fields)
        (corpus / name).write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    out = tmp_path / "long_out"
    assert main(["run", "--config", write_config(corpus), "--out", str(out)]) == 0
    for name in ("researcher_scores.csv", "hca_flags.csv"):
        plain_rows, long = read_rows(plain / name), read_rows(out / name)
        assert len(long) == len(plain_rows) > 1 and long[0] == plain_rows[0], name
        assert all(row[0].startswith(prefix) for row in long[1:]), name
        assert [[row[0][len(prefix):], *row[1:]] for row in long[1:]] == plain_rows[1:], name


def test_both_tokenizers_list_the_same_issues(default_synth_dir, tmp_path, capsys):
    # n/a citations, unknown researcher ids and a duplicate pub_id; the LF
    # copy is tokenized by the byte split and its CRLF, every-field-quoted
    # copy by csv.reader
    tables = {path.name: read_rows(path) for path in default_synth_dir.glob("*.csv")}
    pubs, links = tables["publications.csv"], tables["authorships.csv"]
    for row in pubs[1::97]:
        row[2] = "n/a"
    for i, row in enumerate(links[1::89]):
        row[1] = f"X{i:05d}"
    pubs.insert(5, list(pubs[3]))
    listings = []
    for folder, quoting, end in (("bad", csv.QUOTE_MINIMAL, "\n"),
                                 ("bad_quoted", csv.QUOTE_ALL, "\r\n")):
        (tmp_path / folder).mkdir()
        for name, rows in tables.items():
            write_rows(tmp_path / folder / name, rows, quoting=quoting, lineterminator=end)
        assert main(["validate", "--config", write_config(tmp_path / folder)]) == 1
        listings.append(capsys.readouterr().out)
    lf, quoted = listings
    assert quoted.replace(f"{tmp_path / 'bad_quoted'}/", f"{tmp_path / 'bad'}/") == lf
