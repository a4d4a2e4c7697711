"""Labelled metrics: counters, gauges and fixed-bucket histograms.

The registry is the single handle every instrumented module routes
through.  Two implementations share the interface:

* :class:`MetricsRegistry` — the real thing: named metric families with
  label sets, children cached per label tuple, rendered to Prometheus
  text exposition by :mod:`repro.obs.export`;
* :class:`NullRegistry` — the zero-overhead opt-out: every instrument
  it hands out is the same no-op singleton, so instrumented hot paths
  cost a bound-method call at most (and nothing when the caller gates
  on ``registry.enabled``).

A process-wide default (:func:`get_registry` / :func:`set_registry` /
:func:`use_registry`) lets deeply nested components — per-probe
resolvers, edge sites built four constructors down — pick up the active
registry without threading a handle through every signature.  The
default is the null registry; install a real one *before* building a
scenario so construction-time instrument capture sees it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Sequence, Union

__all__ = [
    "MetricError",
    "Counter",
    "Gauge",
    "Histogram",
    "CounterChild",
    "GaugeChild",
    "HistogramChild",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "snapshot_delta",
    "get_registry",
    "set_registry",
    "use_registry",
]

# Prometheus' classic latency buckets; callers pass their own for
# quantities that are not seconds (chain lengths, Gbps, ...).
DEFAULT_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class MetricError(ValueError):
    """Raised on invalid metric names, labels or amounts."""


def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise MetricError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise MetricError(f"metric name cannot start with a digit: {name!r}")
    return name


class CounterChild:
    """One monotonically increasing series (a single label combination)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise MetricError(f"counters cannot decrease (inc by {amount})")
        self.value += amount


class GaugeChild:
    """One settable series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self.value -= amount


class HistogramChild:
    """One fixed-bucket distribution series.

    Bucket counts are stored per-bucket (non-cumulative); the exporter
    accumulates them into the Prometheus ``le`` convention.
    """

    __slots__ = ("uppers", "bucket_counts", "sum", "count")

    def __init__(self, uppers: tuple[float, ...]) -> None:
        self.uppers = uppers
        self.bucket_counts = [0] * len(uppers)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.sum += value
        self.count += 1
        for index, upper in enumerate(self.uppers):
            if value <= upper:
                self.bucket_counts[index] += 1
                break
        # values above the last bound land only in the implicit +Inf
        # bucket, whose cumulative count is ``count`` itself.

    @property
    def mean(self) -> float:
        """Average of all observations (0.0 before any)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by interpolating the buckets.

        Classic Prometheus ``histogram_quantile``: find the bucket the
        target rank falls into and interpolate linearly between its
        bounds (the first bucket's lower bound is 0).  Observations
        above the last bound clamp to that bound, so a p99 can be
        asserted in tests even when outliers escaped the bucket range.
        Returns 0.0 before any observation.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile must be in [0, 1]: {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        running = 0
        lower = 0.0
        for upper, n in zip(self.uppers, self.bucket_counts):
            if running + n >= rank and n > 0:
                fraction = (rank - running) / n
                return lower + (upper - lower) * max(0.0, min(1.0, fraction))
            running += n
            lower = upper
        # Rank lies in the implicit +Inf bucket: clamp to the last bound.
        return self.uppers[-1]

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) pairs, +Inf last."""
        out: list[tuple[float, int]] = []
        running = 0
        for upper, n in zip(self.uppers, self.bucket_counts):
            running += n
            out.append((upper, running))
        out.append((float("inf"), self.count))
        return out

    def percentile_summary(self) -> dict[str, float]:
        """The standard latency panel: p50/p95/p99/p999.

        The quantiles every live view and bench gate reads; an empty
        histogram yields all zeros (see :meth:`quantile`).
        """
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        }

    @classmethod
    def merge(cls, children: Sequence["HistogramChild"]) -> "HistogramChild":
        """A new child summing ``children`` bucket for bucket.

        Every input must share the same bucket bounds (merging across
        schemas would silently misplace observations).  Merging is
        exact — bucket counts, sums and observation counts are plain
        additions — so quantiles of the merged child equal quantiles of
        a single child that saw every observation, regardless of how
        the observations were partitioned across processes.
        """
        inputs = list(children)
        if not inputs:
            raise MetricError("merge needs at least one histogram child")
        uppers = inputs[0].uppers
        for child in inputs[1:]:
            if tuple(child.uppers) != tuple(uppers):
                raise MetricError(
                    "cannot merge histograms with different bucket bounds"
                )
        merged = cls(tuple(uppers))
        for child in inputs:
            for index, n in enumerate(child.bucket_counts):
                merged.bucket_counts[index] += n
            merged.sum += child.sum
            merged.count += child.count
        return merged


_Child = Union[CounterChild, GaugeChild, HistogramChild]


class MetricFamily:
    """A named metric with a label schema and one child per label tuple."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str]) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            if not label or not label.replace("_", "a").isalnum():
                raise MetricError(f"invalid label name {label!r}")
        self._children: dict[tuple[str, ...], _Child] = {}

    def _new_child(self) -> _Child:
        raise NotImplementedError

    def labels(self, *values) -> _Child:
        """The child series for one combination of label values."""
        if len(values) != len(self.labelnames):
            raise MetricError(
                f"{self.name} takes {len(self.labelnames)} label values, "
                f"got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            child = self._new_child()
            self._children[key] = child
        return child

    def children(self) -> Iterator[tuple[tuple[str, ...], _Child]]:
        """(label values, child) pairs in insertion order."""
        return iter(self._children.items())

    def __len__(self) -> int:
        return len(self._children)


class Counter(MetricFamily):
    """A family of monotonically increasing series."""

    kind = "counter"

    def _new_child(self) -> CounterChild:
        return CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabelled series (labelnames must be empty)."""
        self.labels().inc(amount)

    @property
    def value(self) -> float:
        """Value of the unlabelled series (0.0 if never touched)."""
        return self.labels().value


class Gauge(MetricFamily):
    """A family of settable series."""

    kind = "gauge"

    def _new_child(self) -> GaugeChild:
        return GaugeChild()

    def set(self, value: float) -> None:
        """Set the unlabelled series."""
        self.labels().set(value)

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabelled series."""
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Decrement the unlabelled series."""
        self.labels().dec(amount)

    @property
    def value(self) -> float:
        """Value of the unlabelled series."""
        return self.labels().value


class Histogram(MetricFamily):
    """A family of fixed-bucket distributions."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        uppers = tuple(sorted(float(b) for b in buckets))
        if not uppers:
            raise MetricError("histogram needs at least one bucket")
        if len(set(uppers)) != len(uppers):
            raise MetricError("histogram buckets must be distinct")
        super().__init__(name, help, labelnames)
        self.buckets = uppers

    def _new_child(self) -> HistogramChild:
        return HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        """Record on the unlabelled series."""
        self.labels().observe(value)

    def quantile(self, q: float) -> float:
        """Interpolated quantile of the unlabelled series."""
        return self.labels().quantile(q)


class MetricsRegistry:
    """Holds metric families; registration is idempotent by name.

    Re-requesting an existing name returns the same family provided the
    kind and label schema agree; a mismatch raises :class:`MetricError`
    (two modules silently sharing a name with different meanings is a
    bug worth failing loudly on).
    """

    enabled = True

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    def _register(self, family: MetricFamily) -> MetricFamily:
        existing = self._families.get(family.name)
        if existing is None:
            self._families[family.name] = family
            return family
        if existing.kind != family.kind:
            raise MetricError(
                f"{family.name} already registered as a {existing.kind}"
            )
        if existing.labelnames != family.labelnames:
            raise MetricError(
                f"{family.name} already registered with labels "
                f"{existing.labelnames}, not {family.labelnames}"
            )
        if (
            isinstance(existing, Histogram)
            and isinstance(family, Histogram)
            and existing.buckets != family.buckets
        ):
            raise MetricError(
                f"{family.name} already registered with different buckets"
            )
        return existing

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        """Get or create a counter family."""
        return self._register(Counter(name, help, labelnames))

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        """Get or create a gauge family."""
        return self._register(Gauge(name, help, labelnames))

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create a histogram family."""
        return self._register(Histogram(name, help, labelnames, buckets))

    def get(self, name: str) -> Optional[MetricFamily]:
        """The family registered under ``name``, if any."""
        return self._families.get(name)

    def snapshot(self, names: Optional[Sequence[str]] = None) -> dict:
        """A plain-data dump of (a subset of) the registry's state.

        The result is picklable and self-describing: per family the
        kind, label schema, help text, buckets (histograms) and every
        child's payload.  ``names`` restricts the dump to those
        families (missing names are skipped).  Used by the sharded
        engine to ship worker-side metrics back to the coordinator.
        """
        selected = (
            sorted(self._families) if names is None
            else [n for n in names if n in self._families]
        )
        dump: dict = {}
        for name in selected:
            family = self._families[name]
            children: dict = {}
            for labelvalues, child in family.children():
                if isinstance(child, HistogramChild):
                    children[labelvalues] = (
                        list(child.bucket_counts), child.sum, child.count
                    )
                else:
                    children[labelvalues] = child.value
            entry: dict = {
                "kind": family.kind,
                "help": family.help,
                "labelnames": family.labelnames,
                "children": children,
            }
            if isinstance(family, Histogram):
                entry["buckets"] = family.buckets
            dump[name] = entry
        return dump

    def absorb_snapshot(self, snapshot: dict) -> None:
        """Merge a :meth:`snapshot` (usually a delta) into this registry.

        Families are created on demand with the snapshot's schema;
        counter/gauge children add their values, histogram children add
        bucket counts, sums and observation counts.  Schema mismatches
        with already-registered families raise :class:`MetricError`,
        exactly as double registration would.
        """
        for name, entry in snapshot.items():
            kind = entry["kind"]
            labelnames = entry["labelnames"]
            if kind == "counter":
                family = self.counter(name, entry["help"], labelnames)
            elif kind == "gauge":
                family = self.gauge(name, entry["help"], labelnames)
            elif kind == "histogram":
                family = self.histogram(
                    name, entry["help"], labelnames, entry["buckets"]
                )
            else:  # pragma: no cover - snapshots only contain known kinds
                raise MetricError(f"unknown metric kind {kind!r} for {name}")
            for labelvalues, payload in entry["children"].items():
                child = family.labels(*labelvalues)
                if isinstance(child, HistogramChild):
                    buckets, total, count = payload
                    for index, n in enumerate(buckets):
                        child.bucket_counts[index] += n
                    child.sum += total
                    child.count += count
                else:
                    child.value += payload

    def collect(self) -> Iterator[MetricFamily]:
        """All families, name-ordered (the exposition order)."""
        for name in sorted(self._families):
            yield self._families[name]

    def __len__(self) -> int:
        return len(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families


class _NullInstrument:
    """The do-nothing instrument: absorbs every metric call.

    ``labels`` returns itself, so pre-bound children and call-time
    label lookups both collapse to no-op method calls.
    """

    __slots__ = ()

    value = 0.0
    sum = 0.0
    count = 0
    mean = 0.0

    def labels(self, *values) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def percentile_summary(self) -> dict:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "p999": 0.0}


NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The opt-out registry: every instrument is the no-op singleton."""

    enabled = False

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        return NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        return NULL_INSTRUMENT

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        return NULL_INSTRUMENT

    def get(self, name: str) -> None:
        return None

    def snapshot(self, names: Optional[Sequence[str]] = None) -> dict:
        return {}

    def absorb_snapshot(self, snapshot: dict) -> None:
        pass

    def collect(self) -> Iterator[MetricFamily]:
        return iter(())

    def __len__(self) -> int:
        return 0

    def __contains__(self, name: str) -> bool:
        return False


NULL_REGISTRY = NullRegistry()


def snapshot_delta(new: dict, base: dict) -> dict:
    """What ``new`` accumulated beyond ``base`` (both :meth:`snapshot` dumps).

    Children absent from ``base`` pass through unchanged; children whose
    delta is zero (or an empty histogram) are dropped, as are families
    left without children.  The result is itself a valid snapshot, ready
    for :meth:`MetricsRegistry.absorb_snapshot`.
    """
    delta: dict = {}
    for name, entry in new.items():
        base_children = base.get(name, {}).get("children", {})
        children: dict = {}
        for labelvalues, payload in entry["children"].items():
            before = base_children.get(labelvalues)
            if entry["kind"] == "histogram":
                b_buckets, b_sum, b_count = before if before else ([0] * len(payload[0]), 0.0, 0)
                buckets = [n - m for n, m in zip(payload[0], b_buckets)]
                count = payload[2] - b_count
                if count or any(buckets):
                    children[labelvalues] = (buckets, payload[1] - b_sum, count)
            else:
                value = payload - (before if before else 0.0)
                if value:
                    children[labelvalues] = value
        if children:
            delta[name] = {**entry, "children": children}
    return delta


def merge_registry_snapshots(snapshots: Sequence[dict]) -> MetricsRegistry:
    """A fresh registry absorbing every snapshot in ``snapshots``.

    The cross-process aggregation primitive of the serve fleet: each
    worker ships :meth:`MetricsRegistry.snapshot` dumps to the parent,
    which merges the latest per-worker dump into one registry.  Absorption is commutative and
    associative (plain additions per child), so merge order and the
    partition of observations across workers never change the result.
    """
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.absorb_snapshot(snapshot)
    return merged


_default_registry: Union[MetricsRegistry, NullRegistry] = NULL_REGISTRY


def get_registry() -> Union[MetricsRegistry, NullRegistry]:
    """The process-wide default registry (the null registry unless set)."""
    return _default_registry


def set_registry(registry: Union[MetricsRegistry, NullRegistry]) -> None:
    """Install ``registry`` as the process-wide default."""
    global _default_registry
    _default_registry = registry


@contextmanager
def use_registry(registry: Union[MetricsRegistry, NullRegistry]):
    """Temporarily install ``registry`` as the default (restores on exit)."""
    previous = get_registry()
    set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
