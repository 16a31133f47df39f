"""Each CLI child imports only what its command runs.

Every case runs `python -m fieldstrength.cli` in a child process, so that no
other test's imports are in sys.modules, and reads the modules the child
had loaded when it exited.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import SRC, write_config

ROOT = Path(SRC).parent
STAGES = {f"fieldstrength.{name}"
          for name in ("pipeline", "reporting", "hca", "scoring", "indicators", "analytics")}
# runs the CLI as `python -m` does, and writes sys.modules at exit
CHILD = ("import atexit, json, runpy, sys\n"
         "from pathlib import Path\n"
         "listing = Path(sys.argv.pop(1))\n"
         "atexit.register(lambda: listing.write_text(json.dumps(list(sys.modules))))\n"
         "runpy.run_module('fieldstrength.cli', run_name='__main__', alter_sys=True)\n")


def child_modules(tmp_path: Path, *args: str) -> tuple[int, set[str]]:
    """The exit code of one CLI child and the modules it had loaded."""
    listing = tmp_path / "modules.json"
    done = subprocess.run([sys.executable, "-c", CHILD, str(listing), *args],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    return done.returncode, set(json.loads(listing.read_text(encoding="utf-8")))


@pytest.fixture
def config(tmp_path, default_synth_dir) -> Path:
    return write_config(tmp_path, default_synth_dir)


def test_validate_and_version_load_no_stage(tmp_path, config):
    for args in (["validate", "--config", str(config)], ["--version"]):
        code, modules = child_modules(tmp_path, *args)
        assert code == 0 and "fieldstrength.ingest" in modules
        assert not STAGES & modules, args


def test_run_that_fails_at_the_load_loads_no_stage(tmp_path, default_synth_dir):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for path in default_synth_dir.iterdir():
        (corpus / path.name).write_bytes(path.read_bytes())
    with open(corpus / "authorships.csv", "a", encoding="utf-8") as handle:
        handle.write("no-such-pub,no-such-researcher\n")
    code, modules = child_modules(tmp_path, "run", "--config", str(write_config(tmp_path, corpus)),
                                  "--out", str(tmp_path / "out"))
    assert code == 1
    assert not STAGES & modules


def test_run_loads_the_stages_but_not_numpy_ma(tmp_path, config):
    code, modules = child_modules(tmp_path, "run", "--config", str(config),
                                  "--out", str(tmp_path / "out"))
    assert code == 0 and STAGES <= modules
    assert "numpy.ma" not in modules


def test_report_rerenders_in_a_fresh_child(tmp_path, config):
    out, again = tmp_path / "out", tmp_path / "again"
    assert child_modules(tmp_path, "run", "--config", str(config), "--out", str(out))[0] == 0
    assert child_modules(tmp_path, "report", "--bundle", str(out / "analytics.json"),
                         "--out", str(again))[0] == 0
    written = sorted(p.name for p in (out / "reports").iterdir())
    assert sorted(p.name for p in (again / "reports").iterdir()) == written
    for name in written:
        assert (again / "reports" / name).read_bytes() == (out / "reports" / name).read_bytes()


def test_tracer_finds_every_name(tmp_path, config):
    spans = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), "run",
                    "--config", str(config), "--out", str(tmp_path / "out")],
                   env=dict(os.environ, PYTHONPATH=SRC), check=True)
    assert json.loads(spans.read_text(encoding="utf-8"))["missing"] == []
