"""Traced in-process run of the fieldstrength CLI, and the per-layer metrics.

Run as a script, it wraps the public functions each layer exposes by
rebinding the names that ``fieldstrength.cli``, ``fieldstrength.pipeline``
and ``fieldstrength.indicators`` import, then calls ``fieldstrength.cli.main``
with the remaining arguments and writes its spans and counts as JSON::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json run --config C --out O

A name that no longer exists is left unwrapped and listed as missing, so
that the metrics built on it are absent rather than the run failing.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional

INDEX_SPANS = ("ingest.authors_by_pub", "ingest.pubs_by_researcher", "ingest.baseline_only_pubs")
COUNT_SPAN = "trace.count"
COUNT_SUFFIX = ":count"


class Tracer:
    """Spans as [name, start, end, parent index], plus counts and values."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.values: dict[str, float] = {}
        self.missing: list[str] = []
        self._open: list[int] = []

    def add(self, key: str, amount: float) -> None:
        self.values[key] = self.values.get(key, 0) + amount

    def _timed(self, name: str, fn: Callable, *args, **kwargs):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def _count(self, name: str, hook: Callable, *args) -> None:
        # Counting happens in its own span, which the enclosing layer's
        # self time excludes. A hook that no longer fits the program's
        # types marks its counts missing.
        try:
            self._timed(COUNT_SPAN, hook, *args)
        except (AttributeError, TypeError):
            self.missing.append(name + COUNT_SUFFIX)

    def traced(self, name: str, fn: Callable, on_result: Optional[Callable] = None,
               on_error: Optional[Callable] = None) -> Callable:
        def wrapper(*args, **kwargs):
            try:
                result = self._timed(name, fn, *args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    self._count(name, on_error, exc)
                raise
            if on_result is not None:
                self._count(name, on_result, result, *args)
            return result
        return wrapper


def _resident_mb() -> float:
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def install(tracer: Tracer) -> None:
    """Wrap every traced name; record the ones that cannot be found."""
    def after_load(_corpus, *_):
        tracer.values["ingest.rss_mb"] = _resident_mb()
        tracer.add("ingest.issues", 0)

    def load_failed(exc):
        tracer.values["ingest.rss_mb"] = _resident_mb()
        tracer.add("ingest.issues", len(exc.issues))

    def after_cells(cells, *_):
        tracer.add("hca.cells", len(cells))
        tracer.add("hca.memberships", sum(len(cell.pub_ids) for cell in cells))

    def after_score(_scores, corpus, *_):
        tracer.add("scoring.links", len(corpus.authorships))

    def after_boards(boards, *_):
        tracer.add("indicators.fields", len(boards))

    def after_render(entries, _bundle, _fmt, out_dir, *_):
        tracer.add("reporting.bytes",
                   sum((Path(out_dir) / e["path"]).stat().st_size for e in entries))

    functions = [
        # (module, name, span, on_result, on_error)
        ("fieldstrength.cli", "cmd_run", "cli.cmd_run", None, None),
        ("fieldstrength.cli", "load_corpus", "ingest.load_corpus", after_load, load_failed),
        ("fieldstrength.cli", "run_pipeline", "pipeline.run_pipeline", None, None),
        ("fieldstrength.cli", "render", "reporting.render", after_render, None),
        ("fieldstrength.cli", "write_flags_csv", "hca.write_flags_csv", None, None),
        ("fieldstrength.cli", "write_scoreboard_csv", "indicators.write_scoreboard_csv", None, None),
        ("fieldstrength.cli", "write_researcher_scores_csv",
         "scoring.write_researcher_scores_csv", None, None),
        ("fieldstrength.pipeline", "build_cells", "hca.build_cells", after_cells, None),
        ("fieldstrength.pipeline", "flag_hcas", "hca.flag_hcas", None, None),
        ("fieldstrength.pipeline", "corpus_summary", "ingest.corpus_summary", None, None),
        ("fieldstrength.pipeline", "score_researchers", "scoring.score_researchers",
         after_score, None),
        ("fieldstrength.pipeline", "build_field_scoreboards",
         "indicators.build_field_scoreboards", after_boards, None),
        ("fieldstrength.pipeline", "build_discipline_scoreboards",
         "indicators.build_discipline_scoreboards", None, None),
        ("fieldstrength.pipeline", "rank_indicator", "analytics.rank_indicator", None, None),
        ("fieldstrength.pipeline", "correlation_matrix", "analytics.correlation_matrix",
         None, None),
        ("fieldstrength.pipeline", "quadrant_classify", "analytics.quadrant_classify", None, None),
        ("fieldstrength.pipeline", "average_rank_extremes", "analytics.average_rank_extremes",
         None, None),
        ("fieldstrength.indicators", "detect_top_scientists", "scoring.detect_top_scientists",
         None, None),
    ]
    for module_name, attr, span, on_result, on_error in functions:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if not callable(fn):
            tracer.missing.append(span)
            continue
        setattr(module, attr, tracer.traced(span, fn, on_result, on_error))

    corpus_cls = getattr(sys.modules.get("fieldstrength.ingest"), "Corpus", None)
    for span in INDEX_SPANS:
        attr = span.split(".", 1)[1]
        prop = vars(corpus_cls).get(attr) if corpus_cls is not None else None
        if not isinstance(prop, property):
            tracer.missing.append(span)
            continue
        setattr(corpus_cls, attr, property(tracer.traced(span, prop.fget)))


# Per-layer time metrics: (self or total, spans summed).
TIMES = {
    "ingest.load_s": ("total", ("ingest.load_corpus",)),
    "ingest.summary_s": ("self", ("ingest.corpus_summary",)),
    "ingest.index_s": ("total", INDEX_SPANS),
    "hca.cells_s": ("self", ("hca.build_cells",)),
    "hca.flag_s": ("self", ("hca.flag_hcas",)),
    "hca.write_s": ("self", ("hca.write_flags_csv",)),
    "scoring.score_s": ("self", ("scoring.score_researchers",)),
    "scoring.fence_s": ("self", ("scoring.detect_top_scientists",)),
    "scoring.write_s": ("self", ("scoring.write_researcher_scores_csv",)),
    "indicators.boards_s": ("self", ("indicators.build_field_scoreboards",
                                     "indicators.build_discipline_scoreboards")),
    "indicators.write_s": ("self", ("indicators.write_scoreboard_csv",)),
    "analytics.rank_s": ("self", ("analytics.rank_indicator",)),
    "analytics.spearman_s": ("self", ("analytics.correlation_matrix",)),
    "analytics.quadrant_s": ("self", ("analytics.quadrant_classify",)),
    "analytics.avg_rank_s": ("self", ("analytics.average_rank_extremes",)),
    "pipeline.total_s": ("total", ("pipeline.run_pipeline",)),
    "pipeline.self_s": ("self", ("pipeline.run_pipeline",)),
    "reporting.render_s": ("self", ("reporting.render",)),
    "cli.write_s": ("self", ("cli.cmd_run",)),
}
# Per-layer call counts: spans counted.
CALLS = {
    "ingest.index_builds": INDEX_SPANS,
    "hca.flag_calls": ("hca.flag_hcas",),
    "scoring.fence_calls": ("scoring.detect_top_scientists",),
    "analytics.indicators": ("analytics.rank_indicator",),
}
# Counts gathered by the wrappers: the span that must exist for each.
COUNTED = {
    "ingest.issues": "ingest.load_corpus",
    "ingest.rss_mb": "ingest.load_corpus",
    "hca.cells": "hca.build_cells",
    "hca.memberships": "hca.build_cells",
    "scoring.links": "scoring.score_researchers",
    "indicators.fields": "indicators.build_field_scoreboards",
    "reporting.bytes": "reporting.render",
}


def layer_metrics(trace: dict, n_percentiles: int) -> dict[str, float]:
    """Per-layer metrics from a tracer document; a metric is absent when a
    span or count it needs could not be wrapped."""
    spans = trace["spans"]
    missing = set(trace["missing"])
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start - inner)
        calls[name] = calls.get(name, 0) + 1

    out: dict[str, float] = {}
    for metric, (kind, names) in TIMES.items():
        if not missing.intersection(names):
            source = own if kind == "self" else total
            out[metric] = sum(source.get(n, 0.0) for n in names)
    for metric, names in CALLS.items():
        if not missing.intersection(names):
            out[metric] = sum(calls.get(n, 0) for n in names)
    for metric, span in COUNTED.items():
        if span not in missing and span + COUNT_SUFFIX not in missing:
            out[metric] = trace["values"].get(metric, 0)
    if "hca.flag_s" in out and "hca.memberships" in out:
        work = out["hca.memberships"] * n_percentiles
        out["hca.flag_ns_per_member_p"] = out["hca.flag_s"] * 1e9 / work if work else 0.0
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    install(tracer)
    from fieldstrength import cli

    try:
        return cli.main(cli_args)
    finally:
        spans_path.write_text(json.dumps({
            "spans": tracer.spans,
            "values": tracer.values,
            "missing": tracer.missing,
        }), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
