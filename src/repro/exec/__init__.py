"""Execution engines: the tuple reference path and the vectorized path.

The scalar (``"tuple"``) engine is :class:`repro.core.query.I3QueryProcessor`
— one python object per stored tuple, the reference implementation that
mirrors the paper's pseudocode line by line.  The vectorized
(``"vector"``) engine (:mod:`repro.exec.vector`) is the one best-first
traversal (:class:`repro.core.query.BestFirstProcessor`, shared code)
given a different *cell model*: every keyword cell is columnar numpy
arrays, and whole cells are bounded and scored with batch kernels
(:mod:`repro.exec.kernels`).  Results are byte-identical — the
cross-engine differential suites assert it — because final document
scores are computed with bit-identical IEEE-754 operation sequences and
cell bounds only need to stay admissible (see ``docs/exec.md``).

Engine selection
----------------
The engine is chosen per call, else by numpy:

1. an explicit ``engine=`` argument (``I3Index.query(..., engine=...)``),
2. the index's ``engine`` pin (:attr:`repro.core.index.I3Index.engine`,
   ``None`` unless a caller sets it),
3. the default: ``"vector"`` when numpy is importable, else ``"tuple"``.

No environment variable, config field or CLI flag takes part.  A request
for the vector engine silently falls back to the tuple engine when numpy
is absent: the engines answer identically, so degrading to the slower
path is always safe, and it keeps minimal deployments working with zero
configuration.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ENGINES",
    "HAS_NUMPY",
    "available_engines",
    "default_engine",
    "resolve_engine",
]

ENGINES = ("tuple", "vector")

try:  # pragma: no cover - exercised via the fallback test's monkeypatch
    import numpy  # noqa: F401

    HAS_NUMPY = True
except ImportError:  # pragma: no cover
    HAS_NUMPY = False


def available_engines() -> tuple:
    """The engines that can actually run in this interpreter."""
    return ENGINES if HAS_NUMPY else ("tuple",)


def default_engine() -> str:
    """The engine used when nothing selects one explicitly."""
    return "vector" if HAS_NUMPY else "tuple"


def resolve_engine(explicit: Optional[str] = None) -> str:
    """Resolve the engine for one query call: ``explicit`` if given,
    else the default.  Unknown names raise ``ValueError``; ``"vector"``
    degrades to ``"tuple"`` when numpy is unavailable.
    """
    if explicit is None:
        return default_engine()
    choice = explicit.lower()
    if choice not in ENGINES:
        raise ValueError(
            f"unknown engine {choice!r}; expected one of {ENGINES}"
        )
    if choice == "vector" and not HAS_NUMPY:
        return "tuple"
    return choice
