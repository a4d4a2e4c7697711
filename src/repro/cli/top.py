"""``repro top``: poll a running edge's admin endpoint and render a live
panel (qps, cache-hit ratio, error rate, latency percentiles)."""

from __future__ import annotations

import argparse
import math
import time
import urllib.request
from typing import Optional

from ..obs import parse_exposition, parsed_histogram
from . import flags


def register(commands) -> None:
    sub = commands.add_parser(
        "top", help="live panel polled off a running cluster's admin endpoint"
    )
    sub.add_argument("--endpoint", default="127.0.0.1:9900", metavar="HOST:PORT",
                     help="admin endpoint of a running `repro serve` "
                          "(default 127.0.0.1:9900)")
    sub.add_argument("--interval", type=float, default=2.0,
                     help="seconds between polls (default 2)")
    sub.add_argument("--iterations", type=int, default=0,
                     help="stop after N panels (default 0 = until Ctrl-C)")
    sub.set_defaults(handler=run)


def _sample_sum(families, name: str, want=None) -> float:
    """Sum a counter family's samples, optionally filtering on labels."""
    family = families.get(name)
    if family is None:
        return 0.0
    total = 0.0
    for (sample_name, labelitems), value in family.samples.items():
        if sample_name != name:
            continue
        labels = dict(labelitems)
        if want is not None and not want(labels):
            continue
        total += value
    return total


def _panel_percentiles(families, name: str) -> Optional[dict]:
    family = families.get(name)
    if family is None:
        return None
    try:
        child = parsed_histogram(family)
    except ValueError:
        return None
    return {k: v * 1000.0 for k, v in child.percentile_summary().items()}


def render_top_panel(
    families: dict, previous: Optional[dict], elapsed: float
) -> str:
    """One `repro top` frame from (current, previous) /metrics scrapes.

    Rates (qps / rps) need two scrapes; on the first frame they render
    as ``-``.  Ratios and percentiles come from the cumulative state.
    """
    dns_now = _sample_sum(families, "serve_dns_queries_total")
    http_now = _sample_sum(families, "serve_http_requests_total")
    if previous is not None and elapsed > 0:
        dns_prev = _sample_sum(previous, "serve_dns_queries_total")
        http_prev = _sample_sum(previous, "serve_http_requests_total")
        qps = f"{max(0.0, dns_now - dns_prev) / elapsed:8.1f}"
        rps = f"{max(0.0, http_now - http_prev) / elapsed:8.1f}"
    else:
        qps = rps = f"{'-':>8}"
    hits = _sample_sum(
        families, "cache_requests_total", lambda l: "hit" in l.values()
    )
    lookups = _sample_sum(families, "cache_requests_total")
    hit_line = f"{hits / lookups:6.1%}" if lookups else "     -"
    errors = _sample_sum(
        families,
        "serve_http_requests_total",
        lambda l: l.get("status", "").startswith(("4", "5")),
    )
    error_line = f"{errors / http_now:6.1%}" if http_now else "     -"
    lines = [
        f"dns {qps} qps    http {rps} rps    "
        f"cache hit {hit_line}    errors {error_line}",
    ]
    for label, name in (
        ("dns handle ms ", "serve_dns_handle_seconds"),
        ("http handle ms", "serve_http_handle_seconds"),
    ):
        panel = _panel_percentiles(families, name)
        if panel is None:
            lines.append(f"{label}  (no samples yet)")
        else:
            lines.append(
                f"{label}  p50 {panel['p50']:7.3f}  p95 {panel['p95']:7.3f}  "
                f"p99 {panel['p99']:7.3f}  p999 {panel['p999']:7.3f}"
            )
    return "\n".join(lines)


def run(args: argparse.Namespace) -> int:
    try:
        host, port = flags.parse_endpoint(args.endpoint)
    except ValueError as exc:
        raise SystemExit(f"top: {exc}") from None
    if not (math.isfinite(args.interval) and args.interval > 0):
        raise SystemExit("top: --interval must be a finite number > 0")
    if args.iterations < 0:
        raise SystemExit("top: --iterations must be >= 0")
    url = f"http://{host}:{port}/metrics"
    previous: Optional[dict] = None
    last_ts: Optional[float] = None
    iteration = 0
    try:
        while not args.iterations or iteration < args.iterations:
            if iteration:
                time.sleep(args.interval)
            try:
                with urllib.request.urlopen(url, timeout=10.0) as response:
                    text = response.read().decode("utf-8")
            except OSError as exc:
                raise SystemExit(f"top: cannot scrape {url}: {exc}") from exc
            families = parse_exposition(text)
            now = time.monotonic()
            elapsed = (now - last_ts) if last_ts is not None else 0.0
            print(f"-- {args.endpoint}  frame {iteration + 1} --")
            print(render_top_panel(families, previous, elapsed))
            previous, last_ts = families, now
            iteration += 1
    except KeyboardInterrupt:
        pass
    return 0
