"""Multi-core server CPU model.

Each server has a fixed number of cores and a per-operation cost model.
During trace collection the server merely *accounts* CPU seconds; the
queueing simulator (:mod:`repro.sim.queueing`) later decides how those
CPU demands contend for the finite cores.

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
class CpuAccount:
    """Accumulated CPU demand, split by category for reporting."""

    statements: float = 0.0
    database: float = 0.0
    runtime_overhead: float = 0.0
    serialization: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.statements
            + self.database
            + self.runtime_overhead
            + self.serialization
        )

    def merge(self, other: "CpuAccount") -> None:
        self.statements += other.statements
        self.database += other.database
        self.runtime_overhead += other.runtime_overhead
        self.serialization += other.serialization

    def reset(self) -> None:
        self.statements = 0.0
        self.database = 0.0
        self.runtime_overhead = 0.0
        self.serialization = 0.0


@dataclass
class Server:
    """A named server with ``cores`` CPUs and an account of demanded CPU time."""

    name: str
    cores: int = 8
    cost_model: CostModel = field(default_factory=CostModel)
    account: CpuAccount = field(default_factory=CpuAccount)
    # External load occupying some cores, expressed as a fraction of total
    # capacity in [0, 1).  Used by the dynamic-switching and fig14 experiments.
    external_load: float = 0.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("a server needs at least one core")
        if not 0.0 <= self.external_load < 1.0:
            raise ValueError("external_load must be in [0, 1)")

    @property
    def effective_cores(self) -> float:
        """Cores left after external load is accounted for."""
        return self.cores * (1.0 - self.external_load)

    def charge_statement(self, count: int = 1) -> float:
        cost = self.cost_model.statement_cost * count
        self.account.statements += cost
        return cost

    def charge_block_dispatch(self) -> float:
        cost = self.cost_model.block_dispatch_cost
        self.account.runtime_overhead += cost
        return cost

    def charge_db_operation(self, rows: int) -> float:
        cost = self.cost_model.db_operation(rows)
        self.account.database += cost
        return cost

    def charge_serialization(self, nbytes: int) -> float:
        cost = self.cost_model.serialize_byte_cost * max(nbytes, 0)
        self.account.serialization += cost
        return cost

    def reset(self) -> None:
        self.account.reset()
