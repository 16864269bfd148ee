"""The incremental partitioning service (compilation session).

The paper's pipeline is run-once: profile offline, solve a budget
ladder, compile, done.  :class:`PartitionService` refactors that batch
shape into a long-lived *session* that a serving system can keep
re-solving as live observations arrive:

* **Static artifacts** -- parsed IR, points-to, call graph, the
  access map (which heap location each statement touches) and the
  partition-graph *structure* (nodes/edges/pins/co-location plus
  symbolic weight recipes) -- are computed once per program and
  cached on the session.
* **Reweighting** -- a new :class:`~repro.profiler.profile_data.
  ProfileData` only re-evaluates the recorded weight recipes
  (:func:`repro.core.builder.reweight_graph`); no analysis re-runs.
* **Incremental solving** -- each budget re-solve is seeded with the
  previous placement (:func:`repro.core.ilp.resolve`); the default
  exact solver takes it as its first incumbent, greedy climbs from it,
  the SciPy oracle ignores it.
* **PyxIL artifact reuse** -- solved assignments are content-hashed
  (:meth:`PartitioningResult.signature`); sync plans and compiled
  block programs are cached by that hash, so a re-solve that lands on
  an unchanged placement skips recompilation entirely and returns the
  *identical* :class:`~repro.pyxil.blocks.CompiledProgram` object.

``repro.core.pipeline.Pyxis`` is this class (re-exported under the
historical name), so every existing call site runs through the
session; :class:`SessionStats` records how much work each call
actually performed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.analysis.access_map import AccessMap
from repro.analysis.interproc import CallGraph, build_call_graph
from repro.analysis.points_to import analyze_points_to
from repro.core.budgets import DEFAULT_FRACTIONS, budget_ladder
from repro.core.builder import (
    BuilderConfig,
    build_graph_structure,
    reweight_graph,
)
from repro.core.ilp import PartitioningResult, resolve
from repro.core.partition_graph import PartitionGraph
from repro.core.solvers import SOLVERS
from repro.core.solvers.scipy_milp import load_scipy
from repro.db.jdbc import Connection
from repro.lang.interp import NativeRegistry
from repro.lang.ir import ProgramIR
from repro.lang.parser import parse_source
from repro.profiler.instrument import Profiler
from repro.profiler.profile_data import ProfileData
from repro.pyxil.blocks import CompiledProgram
from repro.pyxil.compiler import compile_program
from repro.pyxil.program import PlacedProgram
from repro.pyxil.sync_insertion import SyncPlan, compute_sync_plan


@dataclass
class PyxisConfig:
    """Tunables of the partitioning pipeline.

    The solver name is validated here, at construction, so a typo --
    or ``scipy`` where SciPy is not installed -- fails immediately
    instead of after the (expensive) graph build.
    """

    latency: float = 0.001
    bandwidth: float = 125_000_000.0
    budget_fractions: Sequence[float] = DEFAULT_FRACTIONS
    solver: str = "bnb"
    reorder: bool = True

    def __post_init__(self) -> None:
        if self.solver not in SOLVERS:
            raise ValueError(
                f"unknown solver {self.solver!r}; "
                f"options: {sorted(SOLVERS)}"
            )
        if self.solver == "scipy":
            load_scipy()

    def builder_config(self) -> BuilderConfig:
        return BuilderConfig(latency=self.latency, bandwidth=self.bandwidth)


@dataclass
class Partition:
    """One budgeted partitioning with all its artifacts."""

    budget: float
    result: PartitioningResult
    placed: PlacedProgram
    sync_plan: SyncPlan
    compiled: CompiledProgram

    @property
    def fraction_on_db(self) -> float:
        return self.placed.fraction_on_db()

    @property
    def signature(self) -> str:
        """Content hash of the assignment (the PyxIL cache key)."""
        return self.result.signature()


@dataclass
class PartitionSet:
    """The pipeline's full output: shared analyses + per-budget partitions."""

    program: ProgramIR
    call_graph: CallGraph
    access_map: AccessMap
    profile: ProfileData
    graph: PartitionGraph
    partitions: list[Partition] = field(default_factory=list)

    def lowest(self) -> Partition:
        """The most APP-heavy partition (smallest budget)."""
        return min(self.partitions, key=lambda p: p.budget)

    def highest(self) -> Partition:
        """The most DB-heavy partition (largest budget)."""
        return max(self.partitions, key=lambda p: p.budget)

    def by_budget(self) -> list[Partition]:
        return sorted(self.partitions, key=lambda p: p.budget)


@dataclass
class SessionStats:
    """How much work the session actually performed (cache telemetry)."""

    structure_builds: int = 0
    reweights: int = 0
    solves: int = 0
    warm_solves: int = 0
    pyxil_compiles: int = 0
    pyxil_reuses: int = 0

    def snapshot(self) -> dict:
        return {
            "structure_builds": self.structure_builds,
            "reweights": self.reweights,
            "solves": self.solves,
            "warm_solves": self.warm_solves,
            "pyxil_compiles": self.pyxil_compiles,
            "pyxil_reuses": self.pyxil_reuses,
        }


class PartitionService:
    """Programmatic front door: parse, profile, partition, compile --
    incrementally.

    The first :meth:`partition` call pays for everything (structure
    build, cold solves, PyxIL compilation); subsequent calls with new
    profiles only reweight, warm-start the solver from the previous
    placement per budget, and recompile only the budgets whose solved
    assignment actually changed.
    """

    def __init__(
        self,
        program: ProgramIR,
        config: Optional[PyxisConfig] = None,
    ) -> None:
        self.program = program
        self.config = config if config is not None else PyxisConfig()
        self.points_to = analyze_points_to(program)
        self.call_graph = build_call_graph(program, self.points_to)
        self.access_map = AccessMap(self.call_graph)
        self.stats = SessionStats()
        self._structure: Optional[PartitionGraph] = None
        self._profile: Optional[ProfileData] = None
        # Previous solve per budget value: the warm-start seed.
        # Both caches are bounded (oldest-first eviction) so a
        # long-lived serving session -- whose default budget ladder
        # yields fresh budget floats on every new profile -- cannot
        # grow memory without limit.
        self._last_results: dict[float, PartitioningResult] = {}
        self._max_results = 64
        # PyxIL artifacts keyed by assignment signature.
        self._pyxil_cache: dict[str, tuple[SyncPlan, CompiledProgram]] = {}
        self._max_pyxil = 64

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_source(
        cls,
        source: str,
        entry_points: Optional[Sequence[tuple[str, str]]] = None,
        config: Optional[PyxisConfig] = None,
    ) -> "PartitionService":
        return cls(parse_source(source, entry_points), config)

    # -- profiling ----------------------------------------------------------------

    def profile_with(
        self,
        connection: Connection,
        workload: Callable[[Profiler], None],
        natives: Optional[NativeRegistry] = None,
    ) -> ProfileData:
        """Run the representative workload under instrumentation."""
        profiler = Profiler(self.program, connection, natives=natives)
        workload(profiler)
        return profiler.data

    # -- cached artifacts ----------------------------------------------------------

    @property
    def structure(self) -> PartitionGraph:
        """The cached partition-graph structure (built on first use).

        A freshly (re)built structure is immediately reweighted
        against the session's current profile, so an
        :meth:`invalidate` between partition() calls can never leave
        a zero-weight graph in front of the solver.
        """
        if self._structure is None:
            self._structure = build_graph_structure(
                self.program, self.call_graph, self.access_map
            )
            self.stats.structure_builds += 1
            if self._profile is not None:
                reweight_graph(
                    self._structure,
                    self._profile,
                    self.config.builder_config(),
                )
                self.stats.reweights += 1
        return self._structure

    @property
    def profile(self) -> Optional[ProfileData]:
        """The profile the graph weights currently reflect."""
        return self._profile

    def update_profile(
        self, profile: ProfileData, merge: bool = False
    ) -> PartitionGraph:
        """Point the session at new observations and reweight.

        With ``merge=True`` the new observations fold into the current
        profile instead of replacing it.  Reweighting mutates the
        session's (shared) graph in place; solved results keep the
        objective value they were solved under.
        """
        if merge and self._profile is not None:
            self._profile.merge(profile)
        else:
            self._profile = profile
        graph = reweight_graph(
            self.structure, self._profile, self.config.builder_config()
        )
        self.stats.reweights += 1
        return graph

    def known_signatures(self) -> list[str]:
        """Assignment signatures with cached PyxIL artifacts."""
        return list(self._pyxil_cache)

    def invalidate(self) -> None:
        """Drop every cached artifact (structure, solves, PyxIL)."""
        self._structure = None
        self._last_results.clear()
        self._pyxil_cache.clear()

    # -- partitioning --------------------------------------------------------------

    def partition(
        self,
        profile: Optional[ProfileData] = None,
        budgets: Optional[Sequence[float]] = None,
    ) -> PartitionSet:
        """Solve the placement BIP for each budget and compile.

        ``profile`` defaults to the session's current profile (set by
        a previous call or :meth:`update_profile`).  Re-solves are
        warm-started from the previous placement at the same budget
        (falling back to the nearest solved budget), and budgets whose
        solved assignment hash is unchanged reuse the cached sync plan
        and compiled program without recompiling.
        """
        if profile is not None:
            self.update_profile(profile)
        if self._profile is None:
            raise ValueError(
                "no profile: pass one to partition() or call "
                "update_profile() first"
            )
        graph = self.structure
        if budgets is None:
            budgets = budget_ladder(
                self._profile, self.config.budget_fractions
            )
        # Guard again at solve time: the config is a mutable dataclass,
        # so a name assigned after construction bypasses __post_init__.
        solver = SOLVERS.get(self.config.solver)
        if solver is None:
            raise ValueError(
                f"unknown solver {self.config.solver!r}; "
                f"options: {sorted(SOLVERS)}"
            )
        out = PartitionSet(
            program=self.program,
            call_graph=self.call_graph,
            access_map=self.access_map,
            profile=self._profile,
            graph=graph,
        )
        for budget in budgets:
            result = self._solve(graph, float(budget), solver)
            out.partitions.append(self._materialize(float(budget), result))
        return out

    def _solve(
        self,
        graph: PartitionGraph,
        budget: float,
        solver,
    ) -> PartitioningResult:
        warm = self._warm_start_for(budget)
        result = resolve(
            graph,
            budget,
            solver,
            solver_name=self.config.solver,
            warm_start=warm,
        )
        self.stats.solves += 1
        if result.warm_started:
            self.stats.warm_solves += 1
        self._last_results.pop(budget, None)
        self._last_results[budget] = result
        while len(self._last_results) > self._max_results:
            self._last_results.pop(next(iter(self._last_results)))
        return result

    def _warm_start_for(self, budget: float) -> Optional[PartitioningResult]:
        exact = self._last_results.get(budget)
        if exact is not None:
            return exact
        if not self._last_results:
            return None
        nearest = min(self._last_results, key=lambda b: abs(b - budget))
        return self._last_results[nearest]

    def _materialize(
        self, budget: float, result: PartitioningResult
    ) -> Partition:
        """Wrap a solve into a Partition, reusing PyxIL artifacts when
        the assignment is unchanged.

        A cache hit returns the *identical* CompiledProgram -- that is
        the contract (shared executors and block-code caches), so the
        object keeps the name of the budget it was first compiled for
        even when a different budget solves to the same assignment.
        Per-budget labels live on ``Partition.placed.name``.
        """
        name = f"budget={budget:.0f}"
        placed = PlacedProgram(
            program=self.program, result=result, name=name
        )
        signature = result.signature()
        cached = self._pyxil_cache.get(signature)
        if cached is not None:
            sync_plan, compiled = cached
            self.stats.pyxil_reuses += 1
        else:
            sync_plan = compute_sync_plan(placed, self.access_map)
            compiled = compile_program(
                placed,
                self.call_graph,
                sync_plan,
                graph=self.structure,
                reorder=self.config.reorder,
                name=name,
            )
            self._pyxil_cache[signature] = (sync_plan, compiled)
            self.stats.pyxil_compiles += 1
            while len(self._pyxil_cache) > self._max_pyxil:
                self._pyxil_cache.pop(next(iter(self._pyxil_cache)))
        return Partition(
            budget=budget,
            result=result,
            placed=placed,
            sync_plan=sync_plan,
            compiled=compiled,
        )
