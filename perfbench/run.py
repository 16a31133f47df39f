"""End-to-end and per-layer benchmark of the fieldstrength CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The corpus of the workload is generated from
the seed, then the real CLI (``python3 -m fieldstrength.cli`` with
``PYTHONPATH=src``) runs as one child at a time, closed loop, with its
output sent to files. ``--trace 0`` times ``run`` and ``validate`` for about
``--seconds`` seconds (at least two of each) and reports the
end-to-end metrics; ``--trace 1`` adds one traced in-process run and reports
the per-layer metrics. Outputs are checked outside the timed region. Each
metric is printed by name and unit; the last line of standard output is the
JSON result, and the full record goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))  # the engine is imported from source

try:
    import numpy

    import checks
    import tracer
    import workloads
except ModuleNotFoundError as exc:
    sys.exit(f"perfbench needs fieldstrength and numpy, with the sources under "
             f"{ROOT / 'src'}: {exc}")

WORK = ROOT / ".bench_work"
DEADLINE_S = 170.0  # every child is killed by then, so a run ends within 180 s
SETUP_REPS = 3
MIN_RUNS, MIN_VALIDATES = 2, 2
STARTUP_REPS = 3
FORMATS = "csv,json,markdown"


@dataclass
class Op:
    """One child process: a timed operation or a warm-up."""

    kind: str
    seconds: float
    code: Optional[int]
    rss_mb: float
    stdout: str
    stderr: str
    digest: str = ""
    error: str = ""  # why the operation failed; empty when it passed


class Children:
    """Starts one child at a time, output to files, and reaps it with wait4."""

    def __init__(self, cwd: Path, logs: Path, deadline: float):
        self.cwd = cwd
        self.logs = logs
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.ops: list[Op] = []

    def spawn(self, kind: str, argv: list[str]) -> Op:
        n = len(self.ops)
        stdout, stderr = self.logs / f"{n:03d}-{kind}.out", self.logs / f"{n:03d}-{kind}.err"
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [],
                                            max(0.0, self.deadline - time.monotonic()))
                if not ready:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = time.perf_counter() - start
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        op = Op(kind, seconds, proc.returncode, usage.ru_maxrss / 1024, str(stdout), str(stderr))
        if not ready:
            op.error = "killed at the benchmark deadline"
        self.ops.append(op)
        return op

    def cli(self, kind: str, *args: str) -> Op:
        return self.spawn(kind, [sys.executable, "-m", "fieldstrength.cli", *args])

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline


class Session:
    """One benchmark run of one workload: its inputs, children and checks."""

    def __init__(self, workload, inputs, work: Path, seed: int, deadline: float):
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.work = work
        self.out_dir = work / "out"
        self.percentiles = sorted(inputs.config["hca_percentiles"])
        self.rows = workloads.data_rows(inputs.csv_paths)
        self.children = Children(work / "inputs", work / "logs", deadline)
        self.problems: list[str] = []

    def run(self, kind: str = "run", out_dir: Optional[Path] = None,
            runner: tuple[str, ...] = ("-m", "fieldstrength.cli")) -> Op:
        out_dir = out_dir or self.out_dir
        shutil.rmtree(out_dir, ignore_errors=True)
        op = self.children.spawn(kind, [
            sys.executable, *runner, "run", "--config", str(self.inputs.config_path),
            "--out", str(out_dir), "--format", FORMATS])
        self._verify(op, Path(op.stderr).read_text(encoding="utf-8"))
        if not op.error:
            op.digest = (checks.tree_digest(out_dir) if self.workload.expected_exit == 0
                         else checks.file_sha256(Path(op.stderr)))
        return op

    def version(self, kind: str) -> Op:
        op = self.children.cli(kind, "--version")
        if op.code != 0 and not op.error:
            op.error = f"exit code {op.code}"
        return op

    def validate(self) -> Op:
        op = self.children.cli("validate", "validate", "--config", str(self.inputs.config_path))
        text = Path(op.stdout).read_text(encoding="utf-8")
        self._verify(op, text)
        if not op.error and self.workload.expected_exit == 0 and not text.startswith("0 errors"):
            op.error = "validate reported errors on a clean corpus"
        return op

    def _verify(self, op: Op, listing: str) -> None:
        if op.error:
            return
        if op.code != self.workload.expected_exit:
            op.error = f"exit code {op.code}, expected {self.workload.expected_exit}"
        elif self.workload.corrupt:
            found = workloads.issue_counts(listing)
            if found != self.inputs.expected_issues:
                op.error = f"issues {found}, expected {self.inputs.expected_issues}"

    def check_outputs(self, op: Op) -> None:
        """Oracle checks on the tree op wrote, outside any timed region."""
        if self.workload.expected_exit != 0 or op.error:
            return
        self.problems = checks.check_tree(
            self.out_dir, self.inputs.csv_paths["publications"], self.percentiles,
            self.inputs.config["ts_fence_multiplier"], self.seed)
        if self.problems:
            op.error = f"{len(self.problems)} output-check mismatches"

    def end_to_end(self, seconds: float, setup_times: list[float]) -> dict[str, float]:
        """Alternate run and validate until `seconds` have passed and the
        minimum repetitions are done, closed loop."""
        runs: list[Op] = []
        validates: list[Op] = []
        start = time.perf_counter()
        while not self.children.out_of_time():
            if (len(runs) >= MIN_RUNS and len(validates) >= MIN_VALIDATES
                    and time.perf_counter() - start >= seconds):
                break
            if len(runs) <= len(validates):
                runs.append(self.run())
            else:
                validates.append(self.validate())
        for op in runs[1:]:
            if op.digest and runs[0].digest and op.digest != runs[0].digest:
                op.error = "output tree differs from the first repetition"
        metrics = {"setup_s": statistics.median(setup_times)}
        if runs:
            self.check_outputs(runs[-1])
            metrics["run_s"] = statistics.median(op.seconds for op in runs)
            metrics["rows_per_s"] = self.rows / metrics["run_s"]
            metrics["peak_rss_mb"] = statistics.median(op.rss_mb for op in runs)
        if validates:
            metrics["validate_s"] = statistics.median(op.seconds for op in validates)
        return metrics

    def per_layer(self) -> tuple[dict[str, float], dict]:
        """One untraced and one traced run, plus the CLI start-up time."""
        startup = [self.version("startup") for _ in range(STARTUP_REPS)]
        plain = self.run()
        self.check_outputs(plain)
        spans_path = self.work / "trace.json"
        traced = self.run("traced", self.work / "out_traced",
                          (str(BENCH_DIR / "tracer.py"), str(spans_path)))
        if not traced.error and traced.digest != plain.digest:
            traced.error = "traced run wrote different outputs"

        trace = {"spans": [], "values": {}, "missing": []}
        if spans_path.exists():
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
        metrics = tracer.layer_metrics(trace, len(self.percentiles))
        metrics["ingest.rows"] = self.rows
        metrics["cli.output_bytes"] = (checks.tree_bytes(self.out_dir)
                                       if self.out_dir.exists() else 0)
        metrics["cli.startup_s"] = statistics.median(op.seconds for op in startup)
        metrics["trace.overhead_s"] = traced.seconds - plain.seconds
        return metrics, trace


def _git_commit() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)

    # Set-up, timed: generate the corpus and config, the same bytes each time.
    setup_times, hashes = [], []
    for _ in range(1 if args.trace else SETUP_REPS):
        shutil.rmtree(work / "inputs", ignore_errors=True)
        start = time.perf_counter()
        inputs = workloads.build(workload, args.seed, work / "inputs")
        setup_times.append(time.perf_counter() - start)
        hashes.append({n: checks.file_sha256(p) for n, p in sorted(inputs.csv_paths.items())})
    if any(h != hashes[0] for h in hashes):
        print("corpus generation is not deterministic for one seed", file=sys.stderr)
        return 1

    session = Session(workload, inputs, work, args.seed, deadline)
    # `--version` imports every module, so bytecode is compiled and cached
    # before anything is timed.
    session.version("warmup")
    trace = None
    if args.trace:
        metrics, trace = session.per_layer()
    else:
        metrics = session.end_to_end(args.seconds, setup_times)

    ops = session.children.ops
    failed = sum(1 for op in ops if op.error)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reported = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        if name in metrics:
            reported[name] = {"value": metrics[name], "unit": unit}
            print(f"{name} = {metrics[name]!r} {unit}")
        else:
            print(f"{name}: absent")
    print(f"fail_rate = {failed / len(ops)!r} share ({failed} of {len(ops)} operations)")
    for op in ops:
        if op.error:
            print(f"FAILED {op.kind}: {op.error} (logs {op.stdout}, {op.stderr})", file=sys.stderr)
    for problem in session.problems:
        print(f"mismatch: {problem}", file=sys.stderr)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "synth_params": asdict(inputs.params),
        "run_config": inputs.config,
        "input_sha256": hashes[0],
        "input_rows": session.rows,
        "expected_issues": inputs.expected_issues,
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "setup_s": setup_times,
        "operations": [asdict(op) for op in ops],
        "check_mismatches": session.problems,
        "metrics": metrics,
        "spans": trace,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"BENCH_{workload.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
