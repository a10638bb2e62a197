"""The ``python -m repro check`` conformance runner.

Assembles the three layers of :mod:`repro.check` into one JSON report:

1. **sanitizer self-test** — a deliberately mis-charging machine double
   must be caught (proves the harness can actually fail);
2. **sanitized differential sweep** — every oracle case vs its serial
   reference across the configuration matrix, sanitizer attached;
3. **golden cost snapshots** — the pinned tier-1 counters must replay
   exactly, sanitizer off and on.

:func:`run_check` returns ``(report, passed)``; the CLI exits nonzero on
any violation so CI can gate on it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple

from ..errors import SanitizerError
from . import golden as golden_mod
from .oracle import run_differential
from .sanitizer import MachineSanitizer


def sanitizer_selftest() -> dict:
    """The sanitizer must catch a machine that cooks its books.

    Two doubles: one under-charges time (drops the per-round start-up),
    one loses an element per round.  Both must raise
    :class:`~repro.errors.SanitizerError`; a healthy machine running the
    same operations must not.
    """
    from ..machine.hypercube import Hypercube

    class _DropsStartup(Hypercube):
        def _charge_comm_round_plain(self, volume, rounds=1, dim=None):
            self.counters.charge_transfer(volume * self.p * rounds, rounds, 0.0)

    class _LosesElements(Hypercube):
        def _charge_comm_round_plain(self, volume, rounds=1, dim=None):
            time = self.cost_model.comm_round(volume)
            self.counters.charge_transfer(
                volume * self.p * rounds - 1.0, rounds, rounds * time
            )

    outcomes = {}
    for label, cls in (
        ("undercharged_time", _DropsStartup),
        ("lost_elements", _LosesElements),
    ):
        machine = cls(3)
        machine.attach(MachineSanitizer())
        try:
            machine.charge_comm_round(4.0, dim=1)
            outcomes[label] = {"caught": False}
        except SanitizerError as exc:
            outcomes[label] = {"caught": True, "error": str(exc)}

    healthy = Hypercube(3)
    healthy.attach(MachineSanitizer())
    try:
        healthy.charge_comm_round(4.0, dim=1)
        outcomes["honest_machine"] = {"caught": False}
    except SanitizerError as exc:  # pragma: no cover - would be a bug
        outcomes["honest_machine"] = {"caught": True, "error": str(exc)}

    passed = (
        outcomes["undercharged_time"]["caught"]
        and outcomes["lost_elements"]["caught"]
        and not outcomes["honest_machine"]["caught"]
    )
    return {"passed": passed, "outcomes": outcomes}


def run_check(
    seed: int = 0,
    n_dims: int = 4,
    quick: bool = False,
    golden_path: Optional[Path] = None,
    skip_differential: bool = False,
    skip_golden: bool = False,
) -> Tuple[dict, bool]:
    """Run the full conformance suite; returns ``(report, passed)``."""
    golden_path = (
        golden_mod.GOLDEN_PATH if golden_path is None else Path(golden_path)
    )
    report: dict = {"seed": seed, "n_dims": n_dims, "quick": quick}

    selftest = sanitizer_selftest()
    report["sanitizer_selftest"] = selftest
    passed = selftest["passed"]

    if not skip_differential:
        differential = run_differential(seed=seed, n_dims=n_dims, quick=quick)
        report["differential"] = differential
        passed = passed and differential["passed"]

    if not skip_golden:
        if golden_path.exists():
            golden_ok, mismatches = golden_mod.compare_golden(golden_path)
            report["golden"] = {
                "passed": golden_ok,
                "path": str(golden_path),
                "mismatches": mismatches,
            }
            passed = passed and golden_ok
        else:
            report["golden"] = {
                "passed": False,
                "path": str(golden_path),
                "mismatches": [],
                "error": "golden snapshot file missing; run --update-golden",
            }
            passed = False

    report["passed"] = passed
    return report, passed


__all__ = ["run_check", "sanitizer_selftest"]
