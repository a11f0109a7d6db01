"""Serving metrics: counters, gauges, reservoir-sampled histograms.

A production search tier is judged by its tail latency, not its mean —
FAST (arXiv:1709.02529) reports p99s for exactly this reason.  This
module provides the three metric kinds such a tier exports:

* :class:`MetricCounter` — a monotonically increasing count (queries
  served, cache hits, queries shed);
* :class:`Gauge` — an instantaneous level (queue depth, in-flight
  queries);
* :class:`Histogram` — a latency/size distribution summarised by
  quantiles.  It keeps a fixed-size uniform sample of all observations
  (Vitter's reservoir algorithm R), so memory stays bounded no matter
  how many queries flow through, while p50/p95/p99 remain unbiased
  estimates over the whole run.

All metrics are thread-safe; a :class:`MetricsRegistry` names them,
creates them on demand and renders everything to one plain dict
(JSON-ready, :meth:`MetricsRegistry.as_dict`) or to the Prometheus text
page ``repro serve`` exposes.
"""

from __future__ import annotations

import json
import random
import re
import threading
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "MetricCounter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "escape_label_value",
]


class MetricCounter:
    """A monotonically increasing, thread-safe counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """The current count."""
        with self._lock:
            return self._value


class Gauge:
    """An instantaneous level that can move both ways."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to an absolute level."""
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge up by ``amount``."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down by ``amount``."""
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        """The current level."""
        with self._lock:
            return self._value


class Histogram:
    """A bounded-memory distribution summary (reservoir sampling).

    Keeps a uniform random sample of at most ``reservoir_size``
    observations using Vitter's algorithm R: the ``n``-th observation
    replaces a random reservoir slot with probability ``size/n``.  Exact
    ``count``/``sum``/``min``/``max`` are tracked alongside, so only the
    quantiles are estimates.

    ``seed`` pins the replacement choices, making quantiles reproducible
    in tests and benchmarks.
    """

    __slots__ = ("_lock", "_rng", "_reservoir", "_size", "count", "total", "_min", "_max")

    def __init__(self, reservoir_size: int = 1024, seed: Optional[int] = None) -> None:
        if reservoir_size <= 0:
            raise ValueError(f"reservoir_size must be positive, got {reservoir_size}")
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._reservoir: List[float] = []
        self._size = reservoir_size
        self.count = 0
        self.total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self.count += 1
            self.total += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            if len(self._reservoir) < self._size:
                self._reservoir.append(value)
            else:
                slot = self._rng.randrange(self.count)
                if slot < self._size:
                    self._reservoir[slot] = value

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1) of all observations.

        Nearest-rank over the sorted reservoir; 0.0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if not self._reservoir:
                return 0.0
            ordered = sorted(self._reservoir)
            rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
            return ordered[rank]

    @property
    def mean(self) -> float:
        """Exact mean of all observations (0.0 when empty)."""
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        """The standard export: count, mean, min/max, p50/p95/p99."""
        with self._lock:
            count, total = self.count, self.total
            lo, hi = self._min, self._max
            ordered = sorted(self._reservoir)

        def rank(q: float) -> float:
            if not ordered:
                return 0.0
            return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]

        return {
            "count": count,
            "mean": total / count if count else 0.0,
            "min": lo if lo is not None else 0.0,
            "max": hi if hi is not None else 0.0,
            "p50": rank(0.50),
            "p95": rank(0.95),
            "p99": rank(0.99),
        }


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition rules:
    backslash, double quote and newline must be escaped inside the
    quoted value (tenant names are caller-supplied strings)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labeled_key(name: str, labels: Optional[Dict[str, str]]) -> str:
    """The registry key of a (name, labels) pair — the flat display form
    ``name{k="v",...}`` with label values escaped and keys sorted, so
    the same label set always maps to the same metric instance."""
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{escape_label_value(labels[key])}"'
        for key in sorted(labels)
    )
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Named metrics, created on first use, exported as one dict.

    Names are dotted strings (``"queries.completed"``); the export
    groups metrics by kind so consumers need no schema knowledge beyond
    the three metric shapes.  Metrics may carry **labels** (the
    multi-tenant serving tier labels per-tenant traffic
    ``{tenant="..."}``): label variants share one family — one
    ``# HELP``/``# TYPE`` header in the Prometheus exposition — and
    appear in :meth:`as_dict` under their flat ``name{k="v"}`` key.
    """

    def __init__(self, histogram_reservoir: int = 1024, seed: Optional[int] = None) -> None:
        self._lock = threading.Lock()
        self._histogram_reservoir = histogram_reservoir
        self._seed = seed
        self._counters: Dict[str, MetricCounter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # key -> (family name, {label: value}); families without labels
        # are implicit (key == family, no entry needed).
        self._families: Dict[str, Tuple[str, Dict[str, str]]] = {}
        self._help: Dict[str, str] = {}
        self._collect: List[Callable[[], None]] = []

    def describe(self, name: str, help_text: str) -> None:
        """Attach ``# HELP`` text to the metric family ``name``."""
        with self._lock:
            self._help[name] = help_text

    def _metric(self, table, make, name, labels, help_text):
        """``table``'s metric ``name`` (with ``labels``), ``make()``-d on
        first use.  A metric is never replaced, so a plain name with no
        help text is found by one dict read, without the lock."""
        if not labels and help_text is None:
            metric = table.get(name)
            if metric is not None:
                return metric
        with self._lock:
            key = _labeled_key(name, labels)
            if labels:
                self._families[key] = (name, dict(labels))
            if help_text is not None and name not in self._help:
                self._help[name] = help_text
            metric = table.get(key)
            if metric is None:
                metric = table[key] = make()
            return metric

    def counter(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        help_text: Optional[str] = None,
    ) -> MetricCounter:
        """The counter called ``name`` (with ``labels``), created if absent."""
        return self._metric(self._counters, MetricCounter, name, labels, help_text)

    def gauge(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        help_text: Optional[str] = None,
    ) -> Gauge:
        """The gauge called ``name`` (with ``labels``), created if absent."""
        return self._metric(self._gauges, Gauge, name, labels, help_text)

    def histogram(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        help_text: Optional[str] = None,
    ) -> Histogram:
        """The histogram called ``name`` (with ``labels``), created if absent."""
        return self._metric(
            self._histograms,
            lambda: Histogram(self._histogram_reservoir, seed=self._seed),
            name, labels, help_text,
        )

    def on_collect(self, hook: Callable[[], None]) -> None:
        """Run ``hook()`` at the start of every :meth:`as_dict`, so also
        of every Prometheus render (hooks run in the order added)."""
        self._collect.append(hook)

    def as_dict(self) -> Dict[str, Dict]:
        """Every metric's current value, grouped by kind."""
        for hook in self._collect:
            hook()
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "gauges": {name: g.value for name, g in sorted(gauges.items())},
            "histograms": {
                name: h.summary() for name, h in sorted(histograms.items())
            },
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The :meth:`as_dict` export serialised as JSON."""
        return json.dumps(self.as_dict(), indent=indent)

    def _family_of(self, key: str) -> Tuple[str, Dict[str, str]]:
        with self._lock:
            family = self._families.get(key)
        return family if family is not None else (key, {})

    def render_prometheus(self, prefix: str = "repro") -> str:
        """The Prometheus text exposition of every metric.

        Dotted names become underscore-joined and ``prefix``-ed
        (``queries.completed`` -> ``repro_queries_completed``); counters
        and gauges render as single samples, histograms as summaries —
        ``{quantile="..."}``-labelled p50/p95/p99 samples plus the
        conventional ``_sum`` and ``_count`` series.  Labelled metrics
        render with escaped label values and share their family's
        ``# HELP``/``# TYPE`` header (emitted once per family).  Output
        is grouped by kind, family-sorted within each group, ends with a
        newline and is stable for a given metric state — suitable both
        for an exporter endpoint and for golden tests.
        """
        snapshot = self.as_dict()
        with self._lock:
            help_texts = dict(self._help)

        def sanitize(name: str) -> str:
            return re.sub(r"[^a-zA-Z0-9_:]", "_", name)

        def sample(name: str) -> str:
            return f"{prefix}_{sanitize(name)}"

        def fmt(value: float) -> str:
            if isinstance(value, float) and value.is_integer():
                return str(int(value))
            return repr(value)

        def label_str(labels: Dict[str, str], extra: str = "") -> str:
            parts = [
                f'{sanitize(key)}="{escape_label_value(labels[key])}"'
                for key in sorted(labels)
            ]
            if extra:
                parts.append(extra)
            return "{" + ",".join(parts) + "}" if parts else ""

        def group(items: Dict) -> List[Tuple[str, List[Tuple[Dict, object]]]]:
            """(family, [(labels, value)...]) pairs, family-sorted; the
            per-family list keeps as_dict's key order (label-sorted)."""
            families: Dict[str, List[Tuple[Dict, object]]] = {}
            for key, value in items.items():
                base, labels = self._family_of(key)
                families.setdefault(base, []).append((labels, value))
            return sorted(families.items())

        lines: List[str] = []

        def header(base: str, kind: str) -> str:
            metric = sample(base)
            lines.append(
                f"# HELP {metric} {help_texts.get(base, base)}"
            )
            lines.append(f"# TYPE {metric} {kind}")
            return metric

        for base, variants in group(snapshot["counters"]):
            metric = header(base, "counter")
            for labels, value in variants:
                lines.append(f"{metric}{label_str(labels)} {fmt(value)}")
        for base, variants in group(snapshot["gauges"]):
            metric = header(base, "gauge")
            for labels, value in variants:
                lines.append(f"{metric}{label_str(labels)} {fmt(value)}")
        for base, variants in group(snapshot["histograms"]):
            metric = header(base, "summary")
            for labels, summary in variants:
                for q, quantile in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
                    quantile_label = 'quantile="%s"' % q
                    lines.append(
                        f"{metric}{label_str(labels, quantile_label)} "
                        f"{fmt(summary[quantile])}"
                    )
                lines.append(
                    f"{metric}_sum{label_str(labels)} "
                    f"{fmt(summary['mean'] * summary['count'])}"
                )
                lines.append(
                    f"{metric}_count{label_str(labels)} "
                    f"{fmt(float(summary['count']))}"
                )
        return "\n".join(lines) + "\n"
