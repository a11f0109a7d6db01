"""Benchmark configuration: the paper's parameter grid, scaled.

Table 4's query parameters are kept verbatim (defaults in bold in the
paper are the defaults here):

    qn     2, 3, 4, 5          (default 3)
    alpha  0.1 .. 0.9          (default 0.5)
    k      10, 50, ... 200     (default 50)

Dataset cardinalities are scaled (DESIGN.md): the paper's Java indexes
on a server handled 1 M - 15 M tweets; this pure-Python simulation keeps
the 1:5:10:15 cardinality ratios at laptop scale.  Two profiles exist:

* ``quick``  — default; small corpora and few queries so the whole
  benchmark suite runs in minutes;
* ``full``   — the 1:500 scale of DESIGN.md with 100 queries per set
  (the paper's query-set size); expect a long run.

Select with the ``REPRO_BENCH_PROFILE`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["BenchProfile", "active_profile", "PAPER_DEFAULTS"]


@dataclass(frozen=True)
class PaperDefaults:
    """Table 4's parameter grid."""

    qn_values: Tuple[int, ...] = (2, 3, 4, 5)
    qn_default: int = 3
    alpha_values: Tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
    alpha_default: float = 0.5
    k_values: Tuple[int, ...] = (10, 50, 100, 150, 200)
    k_default: int = 50
    eta_values: Tuple[int, ...] = (100, 200, 300, 400, 500)
    eta_default: int = 300
    page_size: int = 4096


PAPER_DEFAULTS = PaperDefaults()


@dataclass(frozen=True)
class BenchProfile:
    """Scaled corpus sizes and query counts for one benchmark profile."""

    name: str
    twitter_sizes: Dict[str, int] = field(
        default_factory=lambda: {
            "Twitter1M": 1000,
            "Twitter5M": 2000,
            "Twitter10M": 4000,
            "Twitter15M": 6000,
        }
    )
    wikipedia_size: int = 400
    queries_per_set: int = 12
    update_operations: int = 400
    seed: int = 2013  # the paper's year; purely a reproducibility anchor


QUICK = BenchProfile(name="quick")

FULL = BenchProfile(
    name="full",
    twitter_sizes={
        "Twitter1M": 2000,
        "Twitter5M": 10000,
        "Twitter10M": 20000,
        "Twitter15M": 30000,
    },
    wikipedia_size=800,
    queries_per_set=100,
    update_operations=4000,
)

_PROFILES = {"quick": QUICK, "full": FULL}


def active_profile() -> BenchProfile:
    """The profile selected by ``REPRO_BENCH_PROFILE`` (default quick)."""
    name = os.environ.get("REPRO_BENCH_PROFILE", "quick").lower()
    if name not in _PROFILES:
        raise ValueError(
            f"unknown benchmark profile {name!r}; pick one of {sorted(_PROFILES)}"
        )
    return _PROFILES[name]
