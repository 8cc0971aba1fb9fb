"""Differential fuzzing and shadow-state sanitizing (``repro.verify``).

The correctness tooling of the reproduction, built on the two strongest
oracles the library owns:

* :mod:`repro.verify.sanitizer` — opt-in shadow-state sanitizer for the
  incremental binding engine (shadow-rebuild equivalence, apply/rollback
  round-trips, full legality checks), enabled per-config or via
  ``REPRO_SANITIZE=1``;
* :mod:`repro.verify.fuzz` — budgeted differential fuzzer: random CDFGs
  across sizes and schedulers, both allocators with sanitize on,
  netlist-simulation-vs-interpreter differential checking, and cost-model
  invariants;
* :mod:`repro.verify.shrink` — greedy minimization of a failing case to
  its smallest still-failing form;
* :mod:`repro.verify.corpus` — failure-signature bucketing and runnable
  reproducer emission (``results/fuzz/``).

Run the fuzzer from the command line::

    PYTHONPATH=src python -m repro.verify --budget 30s --seed 0

All randomness is routed through :class:`repro.rng.SeedStream`, so a run is
reproducible end-to-end from its root seed.

This ``__init__`` imports the sanitizer eagerly (the core engines depend on
it) but loads the fuzzing stack lazily, so ``repro.core`` modules can import
``repro.verify.sanitizer`` without creating an import cycle through the
allocators the fuzzer drives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.verify.classify import (FATAL, RETRYABLE, classify_failure,
                                   is_retryable)
from repro.verify.sanitizer import (SANITIZE_ENV, SanitizerError,
                                    ShadowSanitizer, make_sanitizer,
                                    sanitize_enabled)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.verify import corpus, fuzz, shrink  # noqa: F401

_LAZY_SUBMODULES = ("corpus", "fuzz", "shrink")

__all__ = [
    "FATAL", "RETRYABLE", "SANITIZE_ENV", "SanitizerError",
    "ShadowSanitizer", "classify_failure", "corpus", "fuzz",
    "is_retryable", "make_sanitizer", "sanitize_enabled", "shrink",
]


def __getattr__(name: str):
    if name in _LAZY_SUBMODULES:
        import importlib

        return importlib.import_module(f"repro.verify.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
