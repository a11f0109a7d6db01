"""Clocks of the ladder benchmark: calibration kernel, quantiles, spans.

This host flips between speed regimes for tens of seconds at a time
(identical one-second rounds ranged 0.80-2.01 s).  Every timing is
therefore reported at *reference speed*: a fixed kernel is timed
before and after the measured interval in the load-generator process,
and the interval is multiplied by ``ref_s / mean(before, after)``.
Raw values are kept and printed next to the scaled ones.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from ladder_api import np

# A calibration older than this is retaken before it brackets a timing.
_STALE_S = 0.25


def calibration_kernel() -> float:
    """Seconds for a fixed mix of interpreter and small-numpy work —
    the same two kinds of work the query engine does."""
    start = time.perf_counter()
    acc = 0
    for i in range(750_000):
        acc += (i * i) % 7
    a = np.arange(2048, dtype=np.float64)
    peak = 0.0
    for _ in range(3600):
        peak += float(np.sqrt(a * a + 1.0).max())
    return time.perf_counter() - start


class Timed:
    """One measured interval: raw seconds and the factor to reference speed."""

    __slots__ = ("raw", "factor")

    def __init__(self) -> None:
        self.raw = 0.0
        self.factor = 1.0

    @property
    def scaled(self) -> float:
        return self.raw * self.factor


class Calibrator:
    """Brackets intervals with the calibration kernel."""

    def __init__(self, ref_s: float) -> None:
        self.ref_s = ref_s
        self.samples: List[float] = []
        self._last = 0.0
        self._last_at = float("-inf")

    def _fresh(self) -> float:
        if time.perf_counter() - self._last_at > _STALE_S:
            self._last = calibration_kernel()
            self._last_at = time.perf_counter()
            self.samples.append(self._last)
        return self._last

    @contextmanager
    def timed(self) -> Iterator[Timed]:
        """Time the body; adjacent intervals share one kernel run."""
        before = self._fresh()
        box = Timed()
        start = time.perf_counter()
        try:
            yield box
        finally:
            box.raw = time.perf_counter() - start
            self._last_at = float("-inf")
            after = self._fresh()
            box.factor = self.ref_s / ((before + after) / 2.0)

    @property
    def cv(self) -> float:
        """Coefficient of variation of the kernel over the run."""
        if len(self.samples) < 2:
            return 0.0
        return statistics.pstdev(self.samples) / statistics.fmean(self.samples)


def quantile(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted, non-empty list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Tracer:
    """Benchmark-side spans around calls into the layers' public API.

    Spans stay in memory and are written once, at the end of the run.
    """

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, query_id: Optional[int] = None) -> Iterator[Dict]:
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "query_id": query_id,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
