"""Machine-readable report rendering: delimited (TSV) or structured (JSON).

Every report is a header mapping plus rows with a fixed, documented column
order; floats are rounded to six decimal places in both formats. Reports
carry no timestamps unless one is passed in explicitly, so identical
inputs render identical bytes.
"""

from __future__ import annotations

import json
from typing import Sequence

from .analytics import CorpusStats
from .schema import Violation
from .scoring import MetricReport, Metrics
from .significance import BootstrapResult

METRIC_COLUMNS = (
    "section",
    "kind",
    "event_type",
    "argument_type",
    "subtype",
    "tp",
    "fn",
    "fp",
    "precision",
    "recall",
    "f1",
)
STATS_COLUMNS = (
    "section",
    "source",
    "split",
    "event_type",
    "argument_type",
    "subtype",
    "count",
    "average",
)
BOOTSTRAP_COLUMNS = (
    "f1_a",
    "f1_b",
    "delta",
    "p_value",
    "repetitions",
    "seed",
    "alpha",
    "significant",
    "verdict",
)
VIOLATION_COLUMNS = ("doc_id", "annotation_id", "rule", "message")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        return round(value, 6)
    return value


def render(
    rows: Sequence[dict],
    columns: Sequence[str],
    fmt: str = "tsv",
    header: dict | None = None,
) -> str:
    """Render rows in the named format ("tsv" or "json")."""
    header = header or {}
    if fmt == "tsv":
        lines = [f"# {k}={_cell(v)}" for k, v in header.items()]
        lines.append("\t".join(columns))
        for row in rows:
            lines.append("\t".join(_cell(row.get(c)) for c in columns))
        return "".join(line + "\n" for line in lines)
    if fmt == "json":
        payload = dict(header)
        payload["columns"] = list(columns)
        payload["rows"] = [
            {c: _json_value(row.get(c)) for c in columns if row.get(c) is not None}
            for row in rows
        ]
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown report format {fmt!r}; expected tsv or json")


def _metrics_cells(metrics: Metrics) -> dict:
    return {
        "tp": metrics.tp,
        "fn": metrics.fn,
        "fp": metrics.fp,
        "precision": metrics.precision,
        "recall": metrics.recall,
        "f1": metrics.f1,
    }


def metric_rows(report: MetricReport) -> list[dict]:
    rows = []
    for key, metrics in report.per_key.items():
        rows.append(
            {
                "section": "phenomenon",
                "kind": key.kind,
                "event_type": key.event_type,
                "argument_type": key.argument_type,
                "subtype": key.subtype,
                **_metrics_cells(metrics),
            }
        )
    for section, table, column in (
        ("event_type", report.by_event_type, "event_type"),
        ("argument_type", report.by_argument_type, "argument_type"),
        ("subtype", report.by_subtype, "subtype"),
        ("kind", report.by_kind, "kind"),
    ):
        for name, metrics in table.items():
            rows.append({"section": section, column: name, **_metrics_cells(metrics)})
    rows.append({"section": "overall", **_metrics_cells(report.overall)})
    return rows


def stats_rows(stats: CorpusStats) -> list[dict]:
    rows = [{"section": "total", "count": stats.note_count}]
    for (source, split), count in stats.notes_by_partition.items():
        rows.append({"section": "notes", "source": source, "split": split, "count": count})
    for event_type, count in stats.events_by_type.items():
        rows.append(
            {
                "section": "events",
                "event_type": event_type,
                "count": count,
                "average": stats.avg_events_per_note.get(event_type, 0.0),
            }
        )
    for (event_type, argument_type, subtype), count in stats.subtype_frequencies.items():
        rows.append(
            {
                "section": "subtypes",
                "event_type": event_type,
                "argument_type": argument_type,
                "subtype": subtype,
                "count": count,
            }
        )
    return rows


def bootstrap_rows(result: BootstrapResult) -> list[dict]:
    return [
        {
            "f1_a": result.f1_a,
            "f1_b": result.f1_b,
            "delta": result.observed_delta,
            "p_value": result.p_value,
            "repetitions": result.repetitions,
            "seed": result.seed,
            "alpha": result.alpha,
            "significant": result.significant,
            "verdict": result.verdict(),
        }
    ]


def violation_rows(violations: list[Violation]) -> list[dict]:
    return [
        {
            "doc_id": v.doc_id,
            "annotation_id": v.annotation_id,
            "rule": v.rule,
            "message": v.message,
        }
        for v in violations
    ]
