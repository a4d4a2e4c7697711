"""Exporters: Prometheus text exposition, JSONL traces, summary tables.

Three output formats cover the consumption paths:

* :func:`render_exposition` — the Prometheus text format (`# HELP` /
  `# TYPE` comments, labelled samples, cumulative histogram buckets),
  so any scrape-format tool can ingest a run's metrics;
* :func:`parse_exposition` — the matching parser, which the tests read
  rendered text and ``--metrics-out`` files back with;
* :func:`summary_table` — a human-readable table for terminals;
* :func:`write_trace` / :func:`render_trace_jsonl` — the tracer's ring
  buffer as JSONL, one record per line.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Union

from .registry import (
    Counter,
    Gauge,
    Histogram,
    HistogramChild,
    MetricsRegistry,
    NullRegistry,
)
from .tracer import EventTracer, NullTracer

__all__ = [
    "render_exposition",
    "parse_exposition",
    "ParsedFamily",
    "ExpositionError",
    "summary_table",
    "render_trace_jsonl",
    "write_metrics",
    "write_trace",
]


class ExpositionError(ValueError):
    """Raised when exposition text cannot be parsed."""


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _unescape(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(names: tuple[str, ...], values: tuple[str, ...]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(value)}"' for name, value in zip(names, values)
    )
    return "{" + inner + "}"


def render_exposition(registry: Union[MetricsRegistry, NullRegistry]) -> str:
    """The whole registry in Prometheus text exposition format."""
    lines: list[str] = []
    for family in registry.collect():
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labelvalues, child in family.children():
            if isinstance(child, HistogramChild):
                bucket_names = family.labelnames + ("le",)
                for upper, cumulative in child.cumulative_buckets():
                    le = "+Inf" if math.isinf(upper) else _format_value(upper)
                    labels = _format_labels(
                        bucket_names, labelvalues + (le,)
                    )
                    lines.append(
                        f"{family.name}_bucket{labels} {cumulative}"
                    )
                base = _format_labels(family.labelnames, labelvalues)
                lines.append(f"{family.name}_sum{base} {_format_value(child.sum)}")
                lines.append(f"{family.name}_count{base} {child.count}")
            else:
                labels = _format_labels(family.labelnames, labelvalues)
                lines.append(
                    f"{family.name}{labels} {_format_value(child.value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class ParsedFamily:
    """One family read back from exposition text."""

    name: str
    kind: str
    help: str = ""
    # (sample name, ((label, value), ...) sorted) -> value
    samples: dict = field(default_factory=dict)

    def value(self, **labels) -> float:
        """The family's own sample value for ``labels``."""
        key = (self.name, tuple(sorted(labels.items())))
        return self.samples[key]


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_RE = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:\\.|[^"\\])*)"')


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    if text == "NaN":
        return float("nan")
    try:
        return float(text)
    except ValueError as exc:
        raise ExpositionError(f"bad sample value {text!r}") from exc


def parse_exposition(text: str) -> dict[str, ParsedFamily]:
    """Parse Prometheus text exposition into :class:`ParsedFamily` objects.

    Samples are attributed to the most recent ``# TYPE`` declaration
    whose name they extend (so ``foo_bucket`` lands in family ``foo``),
    which is exactly how :func:`render_exposition` lays text out.
    """
    families: dict[str, ParsedFamily] = {}
    current: ParsedFamily | None = None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            rest = line[len("# HELP "):]
            name, _, help_text = rest.partition(" ")
            family = families.setdefault(name, ParsedFamily(name, "untyped"))
            family.help = _unescape(help_text)
            current = family
            continue
        if line.startswith("# TYPE "):
            rest = line[len("# TYPE "):]
            name, _, kind = rest.partition(" ")
            family = families.setdefault(name, ParsedFamily(name, "untyped"))
            family.kind = kind.strip() or "untyped"
            current = family
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ExpositionError(f"line {line_number}: cannot parse {raw!r}")
        sample_name = match.group("name")
        labels: dict[str, str] = {}
        if match.group("labels"):
            for label_match in _LABEL_RE.finditer(match.group("labels")):
                labels[label_match.group("key")] = _unescape(
                    label_match.group("value")
                )
        value = _parse_value(match.group("value"))
        family = None
        if current is not None and (
            sample_name == current.name
            or (
                sample_name.startswith(current.name + "_")
                and sample_name[len(current.name) + 1:]
                in ("bucket", "sum", "count")
            )
        ):
            family = current
        if family is None:
            family = families.setdefault(
                sample_name, ParsedFamily(sample_name, "untyped")
            )
        family.samples[(sample_name, tuple(sorted(labels.items())))] = value
    return families


def summary_table(registry: Union[MetricsRegistry, NullRegistry]) -> str:
    """A terminal-friendly table of every series in the registry."""
    rows: list[tuple[str, str, str]] = []
    for family in registry.collect():
        for labelvalues, child in family.children():
            label_text = (
                ", ".join(
                    f"{name}={value}"
                    for name, value in zip(family.labelnames, labelvalues)
                )
                or "-"
            )
            if isinstance(child, HistogramChild):
                value_text = (
                    f"count={child.count} sum={_format_value(round(child.sum, 6))} "
                    f"mean={child.mean:.6g}"
                )
            else:
                value_text = _format_value(round(child.value, 6))
            rows.append((family.name, label_text, value_text))
    if not rows:
        return "(no metrics recorded)"
    name_width = max(len(r[0]) for r in rows)
    label_width = max(len(r[1]) for r in rows)
    header = f"{'metric':<{name_width}}  {'labels':<{label_width}}  value"
    lines = [header, "-" * len(header)]
    for name, labels, value in rows:
        lines.append(f"{name:<{name_width}}  {labels:<{label_width}}  {value}")
    return "\n".join(lines)


def render_trace_jsonl(tracer: Union[EventTracer, NullTracer]) -> str:
    """The tracer's buffered records as JSONL text."""
    lines = list(tracer.jsonl_lines())
    return "\n".join(lines) + ("\n" if lines else "")


def write_metrics(
    registry: Union[MetricsRegistry, NullRegistry], path: str
) -> None:
    """Dump the registry to ``path`` in exposition format."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_exposition(registry))


def write_trace(tracer: Union[EventTracer, NullTracer], path: str) -> None:
    """Dump the tracer's ring buffer to ``path`` as JSONL."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_trace_jsonl(tracer))
