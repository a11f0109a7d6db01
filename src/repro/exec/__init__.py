"""Columnar execution: the cell model every query runs on.

The best-first traversal is :class:`repro.core.query.BestFirstProcessor`;
:mod:`repro.exec.vector` gives it the columnar cell model — every keyword
cell is numpy arrays (:mod:`repro.exec.columns`), cached decoded per
index, and whole cells are bounded and scored with the batch kernels of
:mod:`repro.exec.kernels`.  It applies both of the paper's AND prunes
(Algorithm 5: the dense-signature intersection and its per-document
filter), so it reads exactly the pages the paper's algorithm reads.

numpy is a declared dependency; there is no fallback.  The scalar
reference, :class:`repro.core.query.I3QueryProcessor` (one python object
per stored tuple, mirroring the pseudocode line by line), is reached only
by name — ``I3Index.query(..., engine="tuple")`` or
``I3Index.engine_processor("tuple")`` — which is the one place an engine
name resolves.  The two answer byte-identically (``docs/exec.md``): final
scores are bit-identical IEEE-754 operation sequences, and cell bounds
only need to stay admissible.
"""
