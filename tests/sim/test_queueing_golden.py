"""Golden runs: the open-loop simulator's results, pinned.

The twin of ``tests/serve/test_engine_golden.py`` for
:class:`~repro.sim.queueing.QueueingSimulator`: ``completed``,
``latencies``, ``samples``, ``trace_names``, both utilizations and the
byte / message totals of each scenario are digested and compared with
the digest the commit before the event-core rewrite (bad5b61) produced,
so a change to tie-breaking, ``rng`` call order or the utilization
arithmetic cannot pass as "still deterministic".
"""

import hashlib

import pytest

from repro.sim.queueing import (
    QueueingSimulator,
    SimNetworkParams,
    Stage,
    StageKind,
    TransactionTrace,
)

APP, DB = StageKind.APP_CPU, StageKind.DB_CPU
TO_DB, TO_APP = StageKind.NET_TO_DB, StageKind.NET_TO_APP


def _trace(name, round_trips, db_cpu, lock_groups=None):
    stages = [Stage(APP, 0.0003)]
    for i in range(round_trips):
        stages += [
            Stage(TO_DB, nbytes=100 + 16 * i),
            Stage(DB, db_cpu),
            Stage(TO_APP, nbytes=250),
            Stage(APP, 0.0002),
        ]
    return TransactionTrace(name, tuple(stages), lock_groups=lock_groups)


CHATTY = _trace("chatty", 8, 0.0004)
BATCHED = _trace("batched", 1, 0.003)
LOCKED = _trace("locked", 4, 0.0006, lock_groups=4)
# Zero-duration stages complete at the instant they start, so their
# events tie with whatever else fires then.
INSTANT = TransactionTrace(
    "instant", (Stage(APP, 0.0), Stage(DB, 0.0), Stage(APP, 0.0))
)


def single(sim):
    return sim.run(CHATTY, rate=900, duration=3.0, name="single")


def sequence(sim):
    return sim.run(
        [CHATTY, BATCHED, INSTANT], rate=700, duration=3.0, name="seq"
    )


def selector(sim):
    """Switch to the batched trace while the database is busy."""
    state = {"busy": False, "calls": 0}

    def choose(now, simulator):
        state["calls"] += 1
        if state["calls"] % 50 == 0:
            state["busy"] = simulator.db_utilization_window() > 0.5
        return BATCHED if state["busy"] else CHATTY

    return sim.run(choose, rate=1100, duration=3.0, name="selector")


def lock_groups(sim):
    return sim.run([LOCKED, CHATTY], rate=800, duration=3.0, name="locks")


def warmup(sim):
    return sim.run(BATCHED, rate=600, duration=3.0, name="warm", warmup=1.0)


def external_load(sim):
    sim.schedule(1.0, lambda: sim.set_db_external_load(0.75))
    sim.schedule(2.0, lambda: sim.set_db_external_load(0.0))
    return sim.run([CHATTY, BATCHED], rate=900, duration=3.0, name="load")


SCENARIOS = {
    "single": single,
    "sequence": sequence,
    "selector": selector,
    "lock_groups": lock_groups,
    "warmup": warmup,
    "external_load": external_load,
}


def run_scenario(name):
    sim = QueueingSimulator(
        app_cores=4, db_cores=3, seed=41,
        network=SimNetworkParams(one_way_latency=0.0005),
    )
    result = SCENARIOS[name](sim)
    pinned = (
        result.completed, result.latencies, result.samples,
        result.trace_names, result.app_utilization, result.db_utilization,
        result.bytes_to_db, result.bytes_to_app, result.messages,
    )
    return result.completed, hashlib.sha256(repr(pinned).encode()).hexdigest()


# scenario -> (completed, sha256 of the pinned fields), recorded on
# bad5b61.
GOLDEN = {
    "external_load": (
        2750,
        "e062ebed6c57f3279f6445764d915b05c043f119e91e1228bce1b9bfeb377bb0",
    ),
    "lock_groups": (
        2426,
        "c9b80336d0d9c80b0eec801a6f840a9ca3bffbcd63b843e9f899ab58f5288d04",
    ),
    "selector": (
        3319,
        "214913164b7b3e2f85f1f557deeeb66009f4838504ff975d490fabc8898a58a1",
    ),
    "sequence": (
        2098,
        "112e73f7ff85a846a4314618d1421e0575c86a8b044bd1d771657ca07211f9c9",
    ),
    "single": (
        2682,
        "2a852f5cd18be7d9ee231386711e4095e68dd16e99b1f0cc57fd2bdaa26325f0",
    ),
    "warmup": (
        1792,
        "2ece4fd35b35ed3832f12aa75f51ee24a09490bd6b4abc25ce592c856b866bb2",
    ),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_results_match_the_recorded_run(scenario):
    assert run_scenario(scenario) == GOLDEN[scenario]
