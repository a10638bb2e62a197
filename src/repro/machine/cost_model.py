"""Timing parameters for the simulated hypercube multiprocessor.

The paper reports Connection Machine (CM-2) timings.  We do not have that
hardware, so every operation executed on the simulated machine is charged
simulated time from a :class:`CostModel`.  The model follows the cost
structure used throughout the hypercube literature the paper builds on
(Johnsson & Ho's dimension-exchange analyses):

* every communication round along one cube dimension pays a fixed start-up
  ``tau`` plus ``t_c`` per element transferred per hop,
* every elementwise arithmetic step pays ``t_a`` per element,
* local data rearrangement (copies, packing) pays ``t_m`` per element.

All times are in abstract "ticks".  The :meth:`CostModel.cm2` preset scales
the parameters so that their *ratios* match published CM-2 characteristics
(router start-up much larger than per-element transfer, transfer a few times
an ALU op); the :meth:`CostModel.unit` preset sets every parameter to one,
which makes simulated time equal to a raw operation count and is convenient
in tests that verify complexity formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..errors import ConfigError


@dataclass(frozen=True)
class CostModel:
    """Charging rates for the simulated machine.

    Attributes
    ----------
    tau:
        Start-up ("latency") cost of one communication round along one cube
        dimension.  Charged once per round regardless of volume.
    t_c:
        Transfer cost per element per hop (link bandwidth reciprocal).
    t_a:
        Arithmetic cost per element for one elementwise operation.
    t_m:
        Local memory-move cost per element (packing, masking, copies).
    """

    tau: float = 1.0
    t_c: float = 1.0
    t_a: float = 1.0
    t_m: float = 1.0

    def __post_init__(self) -> None:
        for name in ("tau", "t_c", "t_a", "t_m"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"cost parameter {name!r} must be >= 0, got {value}")

    @classmethod
    def unit(cls) -> "CostModel":
        """All parameters equal to one: simulated time == operation count."""
        return cls(tau=1.0, t_c=1.0, t_a=1.0, t_m=1.0)

    @classmethod
    def cm2(cls) -> "CostModel":
        """CM-2-flavoured parameters (ratios, not absolute microseconds).

        The CM-2's router start-up dominated small transfers by two to three
        orders of magnitude over a single-element ALU operation, and a
        per-element single-precision transfer cost a handful of ALU ops.
        These ratios — not absolute wall-clock values — are what determine
        every comparison the paper makes (tree vs. serial collectives,
        primitive vs. naive applications, the ``m > p lg p`` crossover), so
        they are the calibration target.
        """
        return cls(tau=320.0, t_c=4.0, t_a=1.0, t_m=0.5)

    @classmethod
    def latency_bound(cls) -> "CostModel":
        """A network with extreme start-up cost; stresses round counting."""
        return cls(tau=5000.0, t_c=1.0, t_a=1.0, t_m=0.25)

    @classmethod
    def bandwidth_bound(cls) -> "CostModel":
        """A network where volume dominates; stresses transfer counting."""
        return cls(tau=10.0, t_c=50.0, t_a=1.0, t_m=0.5)

    def comm_round(self, elements_per_hop: float, hops: int = 1) -> float:
        """Time of one communication round moving ``elements_per_hop`` each hop."""
        if hops < 0:
            raise ConfigError("hops must be >= 0")
        if hops == 0:
            return 0.0
        return hops * (self.tau + self.t_c * elements_per_hop)

    def arithmetic(self, elements: float) -> float:
        """Time of one elementwise arithmetic pass over ``elements`` items."""
        return self.t_a * elements

    def memory(self, elements: float) -> float:
        """Time of one local move/pack pass over ``elements`` items."""
        return self.t_m * elements


#: The names a cost model may be given by (sessions, sweeps, the CLI).
PRESETS = ("cm2", "unit", "latency_bound", "bandwidth_bound")


def resolve_cost_model(cost_model):
    """A :class:`CostModel` from an instance, a preset name, or ``None``."""
    if not isinstance(cost_model, str):
        return cost_model
    if cost_model not in PRESETS:
        raise ConfigError(
            f"unknown cost model preset {cost_model!r}; try one of "
            + ", ".join(repr(name) for name in PRESETS)
        )
    return getattr(CostModel, cost_model)()
