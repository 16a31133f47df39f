"""Render the computed tables as CSV, JSON, and Markdown.

Each table's columns are listed here once, beside the engine table's values
in that order (its blocks); the two build the bundle's rows and
scoreboard.csv. The bundle holds full-precision values; every rounding
convention lives here (2 decimals for strength indicators and ranks, 1 for
percentages, integer euro for costs; every format rounds a value the same
way) and nothing upstream ever rounds. Rankings, k-lists, average ranks and
quadrant rows are derived here from the field rows, by the engine's rank
rules. Rendering is pure: identical bundles give byte-identical files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from operator import itemgetter
from pathlib import Path
from typing import Any, Optional, Sequence

import numpy as np

from .analytics import (CorrelationMatrix, IndicatorRanking, QuadrantResult,
                        average_rank_extremes, rank_values)
from .errors import ConfigurationError, InputIOError
from .hca import SummaryTable
from .indicators import DisciplineTable, FieldTable
from .model import (FORMATS, RANKS, OutputOptions, _json_value, csv_cells, csv_fields, csv_line,
                    p_label, read_json_fields, write_json)

_EXT = {"csv": "csv", "json": "json", "markdown": "md"}

# column kinds; each one's decimals drive both string formatting and json rounding
K_STR = "str"
K_INT = "int"
K_FSS = "fss"      # strength indicators
K_PCT = "pct"      # percentages
K_COST = "cost"    # euro
K_CORR = "corr"    # correlations, may be undefined
K_RANK = "rank"    # fractional ranks / averages
_DECIMALS = {K_STR: None, K_INT: 0, K_FSS: 2, K_PCT: 1, K_COST: 0, K_CORR: 3, K_RANK: 2}


@dataclass
class ReportBundle:
    """Everything the report tables need, in full precision."""

    percentiles: list[str]  # percentile labels, e.g. ["5", "10"]
    summary_rows: list[dict[str, Any]]
    summary_overall: dict[str, Any]
    discipline_rows: list[dict[str, Any]]
    discipline_overall: Optional[dict[str, Any]]  # None for an empty corpus
    field_rows: list[dict[str, Any]]  # in SDS order, each with every indicator's value
    spearman: dict[str, Any]  # indicator_ids, and the matrix with rows and columns in that order
    quadrant: dict[str, Any]  # medians by indicator, and the sorted strong, weak and ambiguous SDS
    top_bottom_k: int

    def to_dict(self) -> dict[str, Any]:
        """The fields by name; the values are shared, not copied."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_tables(cls, summary: tuple[SummaryTable, SummaryTable], fields: FieldTable,
                    disciplines: Optional[tuple[DisciplineTable, DisciplineTable]],
                    correlations: CorrelationMatrix, quadrant: QuadrantResult,
                    top_bottom_k: int) -> "ReportBundle":
        """The bundle of a run's tables; disciplines is None without fields."""
        labels = [p_label(p) for p in fields.percentiles]
        summary_rows, summary_overall = (
            _rows(_summary_columns(labels, shares=False), _summary_blocks(t)) for t in summary)
        discipline_rows, discipline_overall = (
            [_rows(_discipline_columns(labels), _discipline_blocks(t)) for t in disciplines]
            if disciplines is not None else ([], [None]))
        return cls(
            percentiles=labels,
            summary_rows=summary_rows,
            summary_overall=summary_overall[0],
            discipline_rows=discipline_rows,
            discipline_overall=discipline_overall[0],
            field_rows=_rows(_field_columns(labels), _field_blocks(fields)),
            spearman={
                "indicator_ids": list(correlations.indicator_ids),
                "matrix": [list(line) for line in correlations.values],
            },
            quadrant={
                "medians": dict(sorted(quadrant.medians.items())),
                "strong": sorted(quadrant.strong_union),
                "weak": sorted(quadrant.weak_union),
                "ambiguous": sorted(quadrant.ambiguous),
            },
            top_bottom_k=top_bottom_k,
        )

    @classmethod
    def from_dict(cls, data: Any) -> "ReportBundle":
        """Read a bundle back from to_dict's JSON; ConfigurationError names
        a missing, unknown or mistyped field, a summary, discipline or
        field row value that is missing or not of its column's kind, an
        indicator id that is not a number column of the field rows, a
        top_bottom_k that the run config would reject, or a quadrant SDS
        that no field row holds."""
        if not isinstance(data, dict):
            raise ConfigurationError("a bundle must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigurationError(f"unknown bundle fields: {unknown}")
        bundle = read_json_fields(cls, data)
        OutputOptions(top_bottom_k=bundle.top_bottom_k)  # the run config's rule for k
        summary = _summary_columns(bundle.percentiles, shares=False)
        disciplines = _discipline_columns(bundle.percentiles)
        field_columns = _field_columns(bundle.percentiles)
        overall = [] if bundle.discipline_overall is None else [bundle.discipline_overall]
        for section, rows, columns in (
                ("summary_rows", bundle.summary_rows, summary),
                ("summary_overall", [bundle.summary_overall], summary),
                ("discipline_rows", bundle.discipline_rows, disciplines),
                ("discipline_overall", overall, disciplines),
                ("field_rows", bundle.field_rows, field_columns)):
            _check_rows(section, rows, columns)
        ids = bundle.spearman.get("indicator_ids")
        numbers = [name for name, kind in field_columns if kind != K_STR]
        if not isinstance(ids, list) or not all(isinstance(i, str) and i in numbers for i in ids):
            raise ConfigurationError(
                f"spearman.indicator_ids must name number columns of the field rows, got {ids!r}")
        known = {row["sds"] for row in bundle.field_rows}
        for name in ("strong", "weak", "ambiguous"):
            members = bundle.quadrant.get(name)
            if not isinstance(members, list) or not all(isinstance(s, str) for s in members):
                raise ConfigurationError(f"quadrant.{name} must be a list of SDS codes")
            unknown = sorted(set(members) - known)
            if unknown:
                raise ConfigurationError(f"quadrant.{name} names fields without a row: {unknown}")
        return bundle


def _check_rows(section: str, rows: list[dict[str, Any]], columns: list[tuple[str, str]]) -> None:
    """ConfigurationError naming the section, row and key of the first value
    that is missing or not of its column's kind, read as a JSON field is: a
    str for K_STR, an int for K_INT, a float (a finite number) for the rest."""
    for i, row in enumerate(rows):
        where = f"{section}[{i}]" if section.endswith("_rows") else section
        for name, kind in columns:
            if name not in row:
                raise ConfigurationError(f"{where} lacks {name}")
            _json_value(row[name], {K_STR: str, K_INT: int}.get(kind, float), f"{where}.{name}")


def _fmt(value: Any, kind: str) -> str:
    places = _DECIMALS[kind]
    if value is None:
        return ""
    return str(value) if places is None else f"%.{places}f" % value


def _jr(value: Any, kind: str) -> Any:
    places = _DECIMALS[kind]
    if value is None or places is None:
        return value
    return round(value, places) if places else round(value)


def _text(values: list, kind: str) -> list[str]:
    """_fmt of each value of a column; numbers in one printf-style format of them all."""
    places = _DECIMALS[kind]
    if places is None or None in values or not values:
        return [_fmt(v, kind) for v in values]
    return ("\n".join([f"%.{places}f"] * len(values)) % tuple(values)).split("\n")


def _rounded(values: list, text: list[str], kind: str) -> list:
    """_jr of each value of a column whose _text is text: round(v, n) of a
    float is the float its n-place text reads as, and round(v) the int (both
    round the exact binary value half to even); ints and strs stay as they are."""
    types = set(map(type, values))
    if types == {float}:
        return list(map(float if _DECIMALS[kind] else int, text))
    return values if types <= {int, str} else [_jr(v, kind) for v in values]


def _rankings(bundle: ReportBundle) -> list[IndicatorRanking]:
    """Each indicator's ranking of the field rows, in spearman.indicator_ids order."""
    sds = tuple(row["sds"] for row in bundle.field_rows)
    return [rank_values(i, sds, np.array(list(map(itemgetter(i), bundle.field_rows)), dtype=float))
            for i in bundle.spearman["indicator_ids"]]


def _extremes(entries: list, k: int) -> tuple[list, list]:
    """The best k and the worst k of entries ordered best first: both
    empty when k is 0, and all of them when k exceeds their number."""
    k = min(k, len(entries))
    return entries[:k], entries[len(entries) - k:]


def _rows(columns: list[tuple[str, str]], blocks: list) -> list[dict[str, Any]]:
    """One dict per row of the blocks, keyed by the column names in order: a
    matrix block gives one column per matrix column, any other block one."""
    values = []
    for block in blocks:
        if isinstance(block, np.ndarray):
            values += block.T.tolist() if block.ndim == 2 else [block.tolist()]
        else:
            values.append(block)
    keys = [name for name, _ in columns]
    return [dict(zip(keys, row)) for row in zip(*values)]


@dataclass
class _Table:
    name: str
    columns: list[tuple[str, str]]  # (column name, kind)
    rows: list[dict[str, Any]]
    notes: list[str]


def _each(name: str, kind: str, labels: Sequence[str]) -> list[tuple[str, str]]:
    """The columns of a matrix block: name_label for each label."""
    return [(f"{name}_{label}", kind) for label in labels]


def _summary_columns(percentiles: list[str], shares: bool = True) -> list[tuple[str, str]]:
    """The summary table's columns; the bundle holds all but the HCA shares."""
    columns = [("uda", K_STR), ("uda_name", K_STR), ("n_sds", K_INT),
               ("n_professors", K_INT), ("n_publications", K_INT)]
    for pl in percentiles:
        columns.append((f"hca_{pl}", K_INT))
        if shares:
            columns.append((f"hca_{pl}_share", K_PCT))
    return columns


def _summary_blocks(table: SummaryTable) -> list:
    """The values of the summary columns but the shares."""
    return [table.uda, table.uda_name, table.n_sds, table.n_professors, table.n_publications,
            table.hca_count]


def _summary_table(bundle: ReportBundle) -> _Table:
    rows = []
    for raw in bundle.summary_rows + [bundle.summary_overall]:
        row = dict(raw)
        for pl in bundle.percentiles:
            pubs = row["n_publications"]
            row[f"hca_{pl}_share"] = 100.0 * row[f"hca_{pl}"] / pubs if pubs else 0.0
        rows.append(row)
    return _Table("summary", _summary_columns(bundle.percentiles), rows,
                  ["overall publication and HCA counts de-duplicate articles "
                   "co-authored across disciplines"])


def _discipline_columns(percentiles: list[str]) -> list[tuple[str, str]]:
    columns = [("uda", K_STR), ("n_sds", K_INT), ("n_professors", K_INT),
               ("total_cost", K_COST)]
    for pl in percentiles:
        columns += [(f"ts_{pl}", K_INT), (f"ts_{pl}_share", K_PCT)]
    return columns + _each("fss_ts", K_FSS, percentiles) + _each("fss_fhca", K_FSS, percentiles)


def _discipline_blocks(table: DisciplineTable) -> list:
    return [table.uda, table.n_sds, table.n_professors, table.total_cost,
            *(column for pair in zip(table.ts_count.T, table.ts_share.T) for column in pair),
            table.fss_ts, table.fss_fhca]


def _discipline_table(bundle: ReportBundle) -> _Table:
    rows = list(bundle.discipline_rows)
    if bundle.discipline_overall is not None:
        rows.append(bundle.discipline_overall)
    return _Table("disciplines", _discipline_columns(bundle.percentiles), rows,
                  ["indicators aggregated over member fields weighted by total cost"])


def _field_columns(percentiles: list[str]) -> list[tuple[str, str]]:
    return [("sds", K_STR), ("uda", K_STR), *_each("n", K_INT, RANKS), ("n_professors", K_INT),
            ("total_cost", K_COST), *_each("ts", K_INT, percentiles),
            *_each("fss_ts", K_FSS, percentiles), *_each("fss_fhca", K_FSS, percentiles),
            ("fallback_flags", K_STR)]


def _field_blocks(fields: FieldTable) -> list:
    return [fields.sds_codes, fields.uda, fields.n_by_rank, fields.n_professors,
            fields.total_cost, fields.ts_count, fields.fss_ts, fields.fss_fhca,
            fields.fallback_flags()]


def _field_table(bundle: ReportBundle) -> _Table:
    return _Table("fields", _field_columns(bundle.percentiles), bundle.field_rows, [])


def write_scoreboard_csv(fields: FieldTable, path: Path) -> int:
    """The field table without its per-rank counts, at full precision: written
    by block in the bytes of a csv.writer row per field, each distinct number
    as one repr and each column of codes quoted as csv_fields quotes it."""
    ranks = _each("n", K_INT, RANKS)
    header = [name for name, kind in _field_columns([p_label(p) for p in fields.percentiles])
              if (name, kind) not in ranks]
    cells = np.concatenate([
        csv_cells(block[:, None] if block.ndim == 1 else block) if isinstance(block, np.ndarray)
        else np.array([f"{text}," for text in csv_fields(block)], dtype=object)[:, None]
        for block in _field_blocks(fields) if block is not fields.n_by_rank], axis=1)
    cells[:, -1] = [cell[:-1] + "\n" for cell in cells[:, -1].tolist()]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(csv_line(header))
        handle.write("".join(cells.ravel().tolist()))
    return len(fields)


def _correlation_table(bundle: ReportBundle) -> _Table:
    ids = bundle.spearman["indicator_ids"]
    columns = [("indicator", K_STR)] + [(i, K_CORR) for i in ids]
    rows = []
    for indicator, line in zip(ids, bundle.spearman["matrix"]):
        row: dict[str, Any] = {"indicator": indicator}
        row.update({i: v for i, v in zip(ids, line)})
        rows.append(row)
    return _Table("correlations", columns, rows,
                  ["empty cells are undefined (zero rank variance)"])


def _quadrant_table(bundle: ReportBundle) -> _Table:
    ids = bundle.spearman["indicator_ids"]
    columns = [("set", K_STR), ("sds", K_STR), ("uda", K_STR)]
    columns += [(i, K_FSS) for i in ids]
    by_sds = {row["sds"]: row for row in bundle.field_rows}
    rows = [{**by_sds[sds], "set": group}
            for group in ("strong", "weak") for sds in bundle.quadrant[group]]
    medians = ", ".join(
        f"{key}={_fmt(value, K_FSS)}" for key, value in sorted(bundle.quadrant["medians"].items())
    )
    notes = [f"strong = above both medians at some percentile; weak = below both; "
             f"medians: {medians or 'n/a'}"]
    ambiguous = bundle.quadrant["ambiguous"]
    if ambiguous:
        notes.append("strong at one percentile but weak at another, listed in neither: "
                     + ", ".join(ambiguous))
    return _Table("quadrants", columns, rows, notes)


def _avg_rank_table(bundle: ReportBundle, rankings: list[IndicatorRanking]) -> _Table:
    columns = [("group", K_STR), ("sds", K_STR), ("uda", K_STR)]
    for r in rankings:
        columns += [(f"{r.indicator_id}_value", K_FSS), (f"{r.indicator_id}_rank", K_RANK)]
    columns += [("avg_rank", K_RANK), ("position", K_INT)]
    k, n = bundle.top_bottom_k, len(bundle.field_rows)
    avg = average_rank_extremes(rankings)
    top, bottom = _extremes(list(enumerate(avg.order.tolist(), start=1)), k)
    rows = []
    for group, chosen in (("top", top), ("bottom", bottom)):
        for position, f in chosen:
            row = {**bundle.field_rows[f], "group": group,
                   "avg_rank": avg.avg_rank[f].item(), "position": position}
            for r in rankings:
                row[f"{r.indicator_id}_value"] = row[r.indicator_id]
                row[f"{r.indicator_id}_rank"] = r.ranks[f].item()
            rows.append(row)
    notes = [f"fewer than {k} fields; lists truncated"] if k > n else []
    return _Table("avg_rank", columns, rows, notes)


def _tables(bundle: ReportBundle, rankings: list[IndicatorRanking]) -> list[_Table]:
    return [
        _summary_table(bundle),
        _discipline_table(bundle),
        _field_table(bundle),
        _correlation_table(bundle),
        _quadrant_table(bundle),
        _avg_rank_table(bundle, rankings),
    ]


def _md_section(title: str, names: list[str], text: list[list[str]],
                notes: Sequence[str] = ()) -> list[str]:
    lines = [f"## {title}", "", "| " + " | ".join(names) + " |",
             "|" + "|".join(" --- " for _ in names) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in zip(*text)]
    for note in notes:
        lines += ["", f"*{note}*"]
    lines.append("")
    return lines


def _extreme_sections(k: int, rankings: list[IndicatorRanking]) -> list[str]:
    """fields.md's strongest and weakest k fields by each indicator."""
    lines = []
    for r in rankings:
        for title, chosen in zip(("strongest", "weakest"), _extremes(r.order.tolist(), k)):
            text = [[r.sds_codes[f] for f in chosen], _text(r.values[chosen].tolist(), K_FSS),
                    _text(r.ranks[chosen].tolist(), K_RANK)]
            lines += _md_section(f"{title} {k}: {r.indicator_id}", ["sds", "value", "rank"], text)
    return lines


def render(bundle: ReportBundle, formats: list[str], out_dir: Path) -> list[dict[str, Any]]:
    """Write one file per table in each of the given formats under
    out_dir/reports. The rankings and every table are built once, and each
    column is formatted once: csv and markdown write its text, and json
    its values rounded as _jr rounds them.

    Returns manifest entries (relative path + row count), format by format
    and sorted by path within each.
    """
    for fmt in formats:
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    reports_dir = Path(out_dir) / "reports"
    try:
        reports_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputIOError(f"cannot create {reports_dir}: {exc}") from exc

    rankings = _rankings(bundle)
    tables = []  # each table by name, with its names, kinds, values and text by column
    for table in sorted(_tables(bundle, rankings), key=lambda t: t.name):
        names, kinds = zip(*table.columns)
        values = [list(map(itemgetter(name), table.rows)) for name in names]
        tables.append((table, names, kinds, values, list(map(_text, values, kinds))))
    entries = []
    for fmt in formats:
        for table, names, kinds, values, text in tables:
            path = reports_dir / f"{table.name}.{_EXT[fmt]}"
            try:
                if fmt == "csv":
                    with open(path, "w", newline="", encoding="utf-8") as handle:
                        csv.writer(handle, lineterminator="\n").writerows([names, *zip(*text)])
                elif fmt == "json":
                    rows = [dict(zip(names, row))
                            for row in zip(*map(_rounded, values, text, kinds))]
                    write_json(path, {"table": table.name, "notes": table.notes, "rows": rows})
                else:
                    lines = _md_section(table.name, names, text, table.notes)
                    if table.name == "fields":
                        lines += _extreme_sections(bundle.top_bottom_k, rankings)
                    path.write_text("\n".join(lines), encoding="utf-8")
            except OSError as exc:
                raise InputIOError(f"cannot write {path}: {exc}") from exc
            entries.append({"path": str(path.relative_to(out_dir)), "rows": len(table.rows)})
    return entries
