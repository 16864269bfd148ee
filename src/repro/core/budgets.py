"""CPU-budget ladder generation (Section 4, "multiple server
instruction budgets").

The partitioner generates several partitionings under different upper
limits on database-server computation; the runtime later switches
among them based on measured load (Section 6.3).  Budgets are
expressed in the same unit as statement node weights: profiled
execution counts.
"""

from __future__ import annotations

from typing import Sequence

from repro.profiler.profile_data import ProfileData

# Fractions of the total profiled statement weight used when the
# caller does not specify budgets.  0 forces everything possible onto
# the application server (the JDBC-like partition); the final rung is
# effectively unconstrained (the Manual-like partition).
DEFAULT_FRACTIONS: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0)


def budget_ladder(
    profile: ProfileData,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    headroom: float = 1.05,
) -> list[float]:
    """Budgets as fractions of the total profiled statement weight.

    ``headroom`` slightly inflates the top rung so the all-DB
    partition stays feasible despite profiling noise.
    """
    if not fractions:
        raise ValueError("need at least one budget fraction")
    total = float(profile.total_statement_weight())
    ladder = []
    for fraction in fractions:
        if fraction < 0:
            raise ValueError(f"budget fraction {fraction} is negative")
        ladder.append(total * fraction * headroom)
    return ladder
