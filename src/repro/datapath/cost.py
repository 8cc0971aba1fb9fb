"""Allocation cost model: weighted sum of FU, register and interconnect cost.

"The cost of a data path allocation is usually taken to be a weighted sum
of the number of functional units, registers, and interconnection elements"
(paper Sec. 1).  Since scheduling fixes the FU and register minima, "much
of the effort in allocation involves minimizing interconnection cost" —
the default weights therefore make one equivalent 2-1 multiplexer the unit
and price FUs/registers high enough that the search never trades several
muxes for an extra unit, plus a small wire term to break mux ties toward
fewer physical connections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class CostWeights:
    """Weights of the allocation cost function (paper Sec. 4)."""

    fu: float = 16.0        # per unit of FU area
    register: float = 8.0   # per register used
    mux: float = 1.0        # per equivalent 2-1 multiplexer
    wire: float = 0.05      # per distinct point-to-point connection
    latency: float = 0.0    # per mux-tree level summed over sinks

    def to_dict(self) -> Dict[str, float]:
        """JSON-able weights; ``CostWeights(**d)`` decodes them.

        A zero latency weight is the pre-timing cost function, so its key
        is omitted: request keys, binding documents and stats that predate
        the knob stay byte-identical.
        """
        payload = {"fu": self.fu, "register": self.register,
                   "mux": self.mux, "wire": self.wire}
        if self.latency:
            payload["latency"] = self.latency
        return payload


def weighted_total(weights: CostWeights, fu_area: float,
                   register_count: int, mux_count: int,
                   wire_count: int, mux_depth: int = 0) -> float:
    """The weighted sum of the cost components.

    Both :attr:`CostBreakdown.total` and the allocator's O(1) fast path
    (``Binding.total_cost``) evaluate this one expression, so the two are
    bit-identical by construction — same inputs, same float operations in
    the same order.

    ``mux_depth`` is the delay proxy: Σ over sinks of ceil(log2(fanin)),
    the number of 2-1 mux levels a signal traverses, summed over the
    whole interconnect.  At the default ``latency`` weight of 0.0 the
    term contributes an exact ``+ 0.0``, so every pre-timing cost value
    (goldens, paper tables, cache keys) is preserved bit-for-bit.
    """
    return (weights.fu * fu_area + weights.register * register_count +
            weights.mux * mux_count + weights.wire * wire_count +
            weights.latency * mux_depth)


@dataclass(frozen=True)
class CostBreakdown:
    """A fully-evaluated allocation cost."""

    fu_count: int
    fu_area: float
    register_count: int
    mux_count: int
    wire_count: int
    weights: CostWeights = CostWeights()
    mux_depth: int = 0

    @property
    def total(self) -> float:
        return weighted_total(self.weights, self.fu_area,
                              self.register_count, self.mux_count,
                              self.wire_count, self.mux_depth)

    def __str__(self) -> str:
        return (f"cost(total={self.total:.2f}: fu={self.fu_count} "
                f"(area {self.fu_area:g}), regs={self.register_count}, "
                f"mux={self.mux_count}, wires={self.wire_count}, "
                f"depth={self.mux_depth})")
