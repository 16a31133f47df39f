"""Command-line entry point: validate, run, synth, report.

The run configuration is one JSON document holding the input paths, the
cost model, the analysis settings and the output options. Its keys are
the fields of AnalysisConfig, CostModel and OutputOptions, read with
strict JSON types; each has a default, so a minimal config only names the
four input files. Exit codes: 0 success, 1 validation failure,
2 configuration failure, 3 I/O failure, 4 internal error (a fault of the
program; the traceback is printed at --log-level debug).

Each command imports only what it runs: validate and --version load only the
loader (ingest, model, errors); run imports the stages and writers once its
load succeeds, and report before it reads the bundle.
"""

from __future__ import annotations

import argparse
import importlib
import json
import logging
import sys
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Any, Optional

from . import __version__
from .errors import ConfigurationError, CorpusValidationError, InputIOError
from .ingest import CorpusPaths, load_corpus
from .model import (FORMATS, AnalysisConfig, CostModel, OutputOptions, parse_json,
                    read_json_fields, write_json)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

# the config file's sections besides "inputs"; each key is a field of one of them
_SECTIONS = (AnalysisConfig, CostModel, OutputOptions)
_INPUT_KEYS = tuple(f.name for f in dataclass_fields(CorpusPaths))
# The stage names run and report call, each to its module: imported on first use
# (PEP 562) and called as module globals, so that rebinding one takes effect.
_STAGES = {"run_pipeline": "pipeline", "render": "reporting", "ReportBundle": "reporting",
           "write_flags_csv": "hca", "write_scoreboard_csv": "reporting",
           "write_researcher_scores_csv": "scoring"}


def __getattr__(name: str) -> Any:
    if name not in _STAGES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_STAGES[name]}", __package__)
    globals()[name] = getattr(module, name)
    return globals()[name]


def _import_stages() -> None:
    """Bind each stage name that is not bound yet."""
    for name in _STAGES.keys() - globals().keys():
        __getattr__(name)


@dataclass(frozen=True)
class RunConfig:
    paths: CorpusPaths
    analysis: AnalysisConfig
    cost_model: CostModel
    output: OutputOptions
    raw: dict[str, Any]
    input_paths_as_written: dict[str, str]


def load_run_config(path: Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputIOError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"config {path} is not valid UTF-8 ({exc.reason} at byte {exc.start})") from exc
    try:
        raw = parse_json(text)
    except ValueError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    known = {"inputs"} | {f.name for section in _SECTIONS for f in dataclass_fields(section)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {unknown}")

    inputs = raw.get("inputs")
    if (not isinstance(inputs, dict) or sorted(inputs) != sorted(_INPUT_KEYS)
            or not all(isinstance(v, str) for v in inputs.values())):
        raise ConfigurationError(
            f"config needs 'inputs' with exactly the keys {_INPUT_KEYS}, each a path string")
    base = Path(path).parent
    analysis, cost_model, output = (read_json_fields(section, raw) for section in _SECTIONS)
    return RunConfig(
        paths=CorpusPaths(**{key: base / inputs[key] for key in _INPUT_KEYS}),
        analysis=analysis,
        cost_model=cost_model,
        output=output,
        raw=raw,
        input_paths_as_written=dict(inputs),
    )


def _sha256_file(path: Path) -> str:
    import hashlib  # only run hashes, so validate never imports it
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_hash(raw: dict[str, Any]) -> str:
    import hashlib
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cmd_validate(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    try:
        corpus = load_corpus(config.paths, config.analysis)
    except CorpusValidationError as exc:
        print(f"{len(exc.issues)} errors")
        for issue in exc.issues:
            print(f"  {issue.format()}")
        return EXIT_VALIDATION
    print("0 errors")
    report = corpus.report
    for name in ("researchers", "publications", "authorships"):
        print(f"  {name}: kept {report.kept.get(name, 0)}")
    for warning in report.warnings:
        print(f"  warning: {warning}")
    return EXIT_OK


def _run(config: RunConfig, out_dir: Path, formats: list[str]) -> int:
    corpus = load_corpus(config.paths, config.analysis)
    _import_stages()  # after the load, so that a run that fails there never imports them
    result = run_pipeline(corpus, config.cost_model, config.output.top_bottom_k)

    out_dir.mkdir(parents=True, exist_ok=True)
    files = render(result.bundle, formats, out_dir)

    n = write_scoreboard_csv(result.fields, out_dir / "scoreboard.csv")
    files.append({"path": "scoreboard.csv", "rows": n})
    if config.output.export_hca_flags:
        n = write_flags_csv(result.flags, out_dir / "hca_flags.csv")
        files.append({"path": "hca_flags.csv", "rows": n})
    if config.output.export_researcher_scores:
        n = write_researcher_scores_csv(result.scores, result.fields.is_ts,
                                        out_dir / "researcher_scores.csv")
        files.append({"path": "researcher_scores.csv", "rows": n})

    write_json(out_dir / "analytics.json", result.bundle.to_dict())
    files.append({"path": "analytics.json", "rows": len(result.fields)})

    manifest = {
        "version": __version__,
        "config_hash": _config_hash(config.raw),
        "inputs": {
            name: {
                "path": config.input_paths_as_written[name],
                "sha256": _sha256_file(path),
            }
            for name, path in sorted(vars(config.paths).items())
        },
        "counts": result.counts,
        "parsed": dict(sorted(corpus.report.parsed.items())),
        "kept": dict(sorted(corpus.report.kept.items())),
        "dropped": dict(sorted(corpus.report.dropped.items())),
        "warnings": result.warnings,
        "files": sorted(files, key=lambda f: f["path"]),
    }
    write_json(out_dir / "manifest.json", manifest)
    log.info("wrote %d files to %s", len(files) + 1, out_dir)
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    formats = _parse_formats(args.format)
    return _run(config, Path(args.out), formats)


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import SynthParams, generate  # only this command loads the generator

    overrides: Any = {}
    if args.params:
        try:
            overrides = parse_json(Path(args.params).read_text(encoding="utf-8"))
        except OSError as exc:
            raise InputIOError(f"cannot read params {args.params}: {exc}") from exc
        except ValueError as exc:
            raise ConfigurationError(f"bad params JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ConfigurationError(f"params {args.params} must be a JSON object")
    unknown = sorted(set(overrides) - {f.name for f in dataclass_fields(SynthParams)})
    if unknown:
        raise ConfigurationError(f"unknown synth params: {unknown}")
    for name in ("seed", "n_udas", "n_fields_per_uda", "hca_fraction", "pubs_per_professor_mean"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    try:
        params = read_json_fields(SynthParams, overrides)
    except (ConfigurationError, ValueError) as exc:
        raise ConfigurationError(f"bad synth params: {exc}") from exc
    paths = generate(params, Path(args.out))
    for name, path in sorted(paths.items()):
        print(f"wrote {name}: {path}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    formats = _parse_formats(args.format)
    _import_stages()
    try:
        bundle = ReportBundle.from_dict(parse_json(Path(args.bundle).read_text(encoding="utf-8")))
    except OSError as exc:
        raise InputIOError(f"cannot read bundle {args.bundle}: {exc}") from exc
    except (ValueError, ConfigurationError) as exc:
        raise ConfigurationError(f"bad bundle file {args.bundle}: {exc}") from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        entries = render(bundle, formats, out_dir)
    except (KeyError, TypeError, ValueError) as exc:  # a row or section that lacks a key
        raise ConfigurationError(f"bad bundle file {args.bundle}: {exc!r}") from exc
    for entry in entries:
        print(f"wrote {entry['path']} ({entry['rows']} rows)")
    return EXIT_OK


def _parse_formats(text: str) -> list[str]:
    """The formats named in text, each once, in first-named order."""
    formats = list(dict.fromkeys(f.strip() for f in text.split(",") if f.strip()))
    for fmt in formats:
        if fmt not in FORMATS:
            raise ConfigurationError(f"unknown format {fmt!r}; expected subset of {FORMATS}")
    if not formats:
        raise ConfigurationError("no output format selected")
    return formats


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldstrength",
        description="Field-level research strength scoreboards from roster, "
                    "publication, and citation tables.",
    )
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate the input corpus")
    p_validate.add_argument("--config", required=True, type=Path)
    p_validate.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="run the full pipeline and write reports")
    p_run.add_argument("--config", required=True, type=Path)
    p_run.add_argument("--out", required=True, type=Path)
    p_run.add_argument("--format", default="csv,json,markdown",
                       help="comma-separated subset of csv,json,markdown")
    p_run.set_defaults(func=cmd_run)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("--out", required=True, type=Path)
    p_synth.add_argument("--seed", type=int, default=None,
                         help="generator seed (default 42, or the params file's)")
    p_synth.add_argument("--params", type=Path, help="JSON file of generator parameters")
    p_synth.add_argument("--n-udas", type=int, dest="n_udas")
    p_synth.add_argument("--n-fields-per-uda", type=int, dest="n_fields_per_uda")
    p_synth.add_argument("--hca-fraction", type=float, dest="hca_fraction")
    p_synth.add_argument("--pubs-per-professor", type=float, dest="pubs_per_professor_mean")
    p_synth.set_defaults(func=cmd_synth)

    p_report = sub.add_parser("report", help="re-render reports from a cached bundle")
    p_report.add_argument("--bundle", required=True, type=Path)
    p_report.add_argument("--out", required=True, type=Path)
    p_report.add_argument("--format", default="csv,json,markdown")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=args.log_level.upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except CorpusValidationError as exc:
        print(f"validation failed:\n{exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InputIOError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        log.debug("internal error", exc_info=True)  # the traceback, at --log-level debug
        print(f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
