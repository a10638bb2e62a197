"""Conformance checking: runtime sanitizer + differential oracle harness.

Three layers, all opt-in (an unchecked run never pays for them):

* :class:`MachineSanitizer` (``sanitizer.py``) — audits conservation and
  accounting invariants at every charged operation of one machine.
  Enable per session with ``Session(sanitize=True)`` or process-wide with
  ``REPRO_SANITIZE=1``.
* the differential oracle registry (``oracle.py``) — runs every algorithm
  against its serial/NumPy reference across a seeded matrix of machine
  configurations (cost models × plan cache × tracing × fault recovery).
* golden cost snapshots (``golden.py``) — tier-1 workload counters pinned
  in-repo, so any change to tick/flop/transfer accounting is an explicit,
  reviewed diff.

``python -m repro check`` runs all three and emits a JSON conformance
report (nonzero exit on any violation); see ``docs/testing.md``.
"""

from .sanitizer import (
    ENV_FLAG,
    ENV_SAMPLE,
    MachineSanitizer,
    SanitizerStats,
    env_sample_every,
)

__all__ = [
    "ENV_FLAG",
    "ENV_SAMPLE",
    "MachineSanitizer",
    "SanitizerStats",
    "env_sample_every",
]
