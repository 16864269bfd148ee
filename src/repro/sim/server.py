"""Multi-core server CPU model.

Each server has a fixed number of cores and a per-operation cost model.
Trace collection prices work with the cost model; the queueing
simulator (:mod:`repro.sim.queueing`) later decides how those CPU
demands contend for the finite cores.

The per-statement cost constants are calibrated so that a TPC-C
new-order transaction lands in the paper's observed range (roughly
10-25 ms end to end including round trips).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CostModel:
    """CPU seconds charged per kind of work.

    The defaults model a modest ~2.5 GHz core executing interpreted
    blocks: a simple statement costs a few microseconds, a database
    operation costs tens to hundreds of microseconds depending on the
    number of rows touched.
    """

    statement_cost: float = 2e-6
    block_dispatch_cost: float = 1e-6
    heap_op_cost: float = 1e-6
    db_fixed_cost: float = 40e-6
    db_row_cost: float = 10e-6
    serialize_byte_cost: float = 2e-9
    native_call_cost: float = 1e-6

    def db_operation(self, rows: int) -> float:
        """Cost of one SQL statement touching ``rows`` rows."""
        return self.db_fixed_cost + self.db_row_cost * max(rows, 0)


@dataclass
class Server:
    """A named server with ``cores`` CPUs and a per-operation cost model."""

    name: str
    cores: int = 8
    cost_model: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("a server needs at least one core")
