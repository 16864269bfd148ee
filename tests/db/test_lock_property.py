"""Property test: random lock schedules against the LockManager.

Drives seeded random acquire/upgrade/release schedules and checks,
after every step, the two invariants the PR-10 lock fixes pin:

(a) no resource is ever held (or queued for) by a finished
    transaction -- ``release_all`` must purge the departing txn's own
    queued requests before granting anything;
(b) the manager is always *saturated*: no queued request that the
    grant policy says is grantable (an upgrade with no other holders,
    or a compatible queue head) is left waiting.  Together with
    deadlock detection this gives liveness -- every blocked schedule
    either makes progress after some release or raises
    ``DeadlockError``.

A second harness drives :class:`Transaction` table locks through the
same manager and pins the per-transaction lock map that lets a
re-entrant ``lock_table`` skip the manager: it always equals what the
manager holds for that transaction.
"""

import random

import pytest

from repro.db import Database
from repro.db.errors import DeadlockError, LockTimeoutError
from repro.db.txn import LockManager, LockMode, Transaction

RESOURCES = ["a", "b", "c"]
MAX_ALIVE = 6
STEPS = 300


class _Harness:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.lm = LockManager()
        self.next_id = 1
        self.alive: set[int] = set()
        self.blocked: set[int] = set()
        self.finished: set[int] = set()
        self.lm.grant_callback = self._on_grant

    def _on_grant(self, txn_id: int, resource) -> None:
        assert txn_id not in self.finished, (
            f"grant_callback fired for finished txn {txn_id} on {resource}"
        )
        self.blocked.discard(txn_id)

    # -- schedule actions ---------------------------------------------------

    def begin(self) -> None:
        self.alive.add(self.next_id)
        self.next_id += 1

    def acquire(self, txn_id: int) -> None:
        resource = self.rng.choice(RESOURCES)
        mode = self.rng.choice([LockMode.SHARED, LockMode.EXCLUSIVE])
        try:
            granted = self.lm.acquire(txn_id, resource, mode)
        except DeadlockError as exc:
            assert txn_id in exc.cycle or txn_id == exc.args[0]
            self.finish(txn_id)  # victim aborts
            return
        if not granted:
            self.blocked.add(txn_id)

    def finish(self, txn_id: int) -> None:
        self.finished.add(txn_id)
        self.alive.discard(txn_id)
        self.blocked.discard(txn_id)
        self.lm.release_all(txn_id)

    def step(self) -> None:
        runnable = sorted(self.alive - self.blocked)
        choices = []
        if len(self.alive) < MAX_ALIVE:
            choices.append("begin")
        if runnable:
            choices.extend(["acquire"] * 4)
        if self.alive:
            choices.append("finish")
        if not choices:
            choices = ["begin"]
        action = self.rng.choice(choices)
        if action == "begin":
            self.begin()
        elif action == "acquire":
            self.acquire(self.rng.choice(runnable))
        else:
            self.finish(self.rng.choice(sorted(self.alive)))
        self.check_invariants()

    # -- invariants ---------------------------------------------------------

    def check_invariants(self) -> None:
        for txn_id in self.finished:
            assert not self.lm.held_by(txn_id)
        for resource in RESOURCES:
            holders = self.lm.holders(resource)
            waiters = self.lm.waiting(resource)
            for txn_id in holders:
                assert txn_id not in self.finished, (
                    f"finished txn {txn_id} still holds {resource}"
                )
                assert resource in self.lm.held_by(txn_id)
            for txn_id, _ in waiters:
                assert txn_id not in self.finished, (
                    f"finished txn {txn_id} still queued on {resource}"
                )
            self._check_saturated(resource, holders, waiters)
        # Progress: if anything is alive, something must be runnable --
        # an all-blocked schedule would mean an undetected deadlock.
        if self.alive:
            assert self.alive - self.blocked, (
                "every live txn is blocked and no DeadlockError was raised"
            )

    def _check_saturated(self, resource, holders, waiters) -> None:
        for txn_id, mode in waiters:
            others = {t: m for t, m in holders.items() if t != txn_id}
            upgrade = (
                holders.get(txn_id) is LockMode.SHARED
                and mode is LockMode.EXCLUSIVE
            )
            if upgrade and not others:
                pytest.fail(
                    f"grantable upgrade for txn {txn_id} left queued "
                    f"on {resource}"
                )
        if waiters:
            head_txn, head_mode = waiters[0]
            if head_txn not in holders:
                compatible = not holders or (
                    head_mode is LockMode.SHARED
                    and all(m is LockMode.SHARED for m in holders.values())
                )
                if compatible:
                    pytest.fail(
                        f"grantable head waiter {head_txn} left queued "
                        f"on {resource}"
                    )


@pytest.mark.parametrize("seed", range(8))
def test_random_schedules_hold_lock_invariants(seed):
    harness = _Harness(seed)
    for _ in range(STEPS):
        harness.step()
    # Drain: finish everything; the manager must come back empty.
    for txn_id in sorted(harness.alive, key=lambda t: harness.rng.random()):
        harness.finish(txn_id)
        harness.check_invariants()
    assert harness.lm.wait_for_edges() == {}
    for resource in RESOURCES:
        assert harness.lm.holders(resource) == {}
        assert harness.lm.waiting(resource) == []


# ---------------------------------------------------------------------------
# Transactions: the per-transaction table-lock map
# ---------------------------------------------------------------------------


class _TxnHarness:
    """Random schedules of :class:`Transaction` table locks on one
    shared manager: waiting and no-wait transactions, S -> X upgrades,
    deadlock victims rolled back, timeouts, commits and rollbacks.  A
    transaction whose queued request is granted is resumed the way a
    cooperative scheduler would -- it re-issues the request -- and after
    every step each live transaction's map of held table modes must
    equal what the manager says it holds."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.db = Database("locks")
        self.lm = LockManager()
        self.lm.grant_callback = self._on_grant
        self.alive: dict[int, Transaction] = {}
        self.waiting: dict[int, tuple[str, bool]] = {}  # txn -> request
        self.resumed: list[int] = []
        self.finished: list[Transaction] = []
        self.events = {"upgrade": 0, "deadlock": 0, "timeout": 0,
                       "queued": 0, "rollback": 0}

    def _on_grant(self, txn_id: int, resource) -> None:
        self.resumed.append(txn_id)

    def begin(self) -> None:
        txn = Transaction(
            self.db, self.lm, wait_for_locks=self.rng.random() < 0.7
        )
        self.alive[txn.id] = txn

    def lock(self, txn: Transaction, table: str, exclusive: bool) -> None:
        resource = ("table", table)
        if exclusive and self.lm.holders(resource).get(txn.id) is (
            LockMode.SHARED
        ):
            self.events["upgrade"] += 1
        try:
            txn.lock_table(table, exclusive=exclusive)
            # Returned without raising: the manager holds what we asked.
            held = self.lm.holders(resource)[txn.id]
            assert held is LockMode.EXCLUSIVE or not exclusive
        except DeadlockError:
            self.events["deadlock"] += 1
            self.finish(txn, commit=False)  # the victim aborts
        except LockTimeoutError:
            if txn.wait_for_locks:
                self.events["queued"] += 1
                self.waiting[txn.id] = (table, exclusive)
            else:
                self.events["timeout"] += 1

    def finish(self, txn: Transaction, *, commit: bool) -> None:
        del self.alive[txn.id]
        self.waiting.pop(txn.id, None)
        if commit:
            txn.commit()
        else:
            self.events["rollback"] += 1
            txn.rollback()
        self.finished.append(txn)

    def resume(self) -> None:
        while self.resumed:
            txn_id = self.resumed.pop(0)
            request = self.waiting.pop(txn_id, None)
            if request is not None and txn_id in self.alive:
                self.lock(self.alive[txn_id], *request)

    def step(self) -> None:
        runnable = sorted(set(self.alive) - set(self.waiting))
        choices = ["begin"] if len(self.alive) < MAX_ALIVE else []
        if runnable:
            choices.extend(["lock"] * 5 + ["commit"])
        if self.alive:
            choices.append("rollback")
        action = self.rng.choice(choices or ["begin"])
        if action == "begin":
            self.begin()
        elif action == "lock":
            txn = self.alive[self.rng.choice(runnable)]
            self.lock(txn, self.rng.choice(RESOURCES),
                      self.rng.random() < 0.5)
        elif action == "commit":
            self.finish(self.alive[self.rng.choice(runnable)], commit=True)
        else:
            txn = self.alive[self.rng.choice(sorted(self.alive))]
            self.finish(txn, commit=False)
        self.resume()
        self.check()

    def check(self) -> None:
        for txn in self.alive.values():
            held = {}
            for table in RESOURCES:
                mode = self.lm.holders(("table", table)).get(txn.id)
                if mode is not None:
                    held[("table", table)] = mode
            assert txn._table_locks == held, txn.id  # noqa: SLF001
        for txn in self.finished:
            assert txn._table_locks == {}  # noqa: SLF001
            assert not self.lm.held_by(txn.id)


def test_transaction_table_lock_map_equals_manager_holders():
    reached = dict.fromkeys(_TxnHarness(0).events, 0)
    for seed in range(8):
        harness = _TxnHarness(seed)
        for _ in range(STEPS):
            harness.step()
        for txn in list(harness.alive.values()):
            harness.finish(txn, commit=False)
            harness.resume()
            harness.check()
        assert harness.lm.wait_for_edges() == {}, seed
        for event, count in harness.events.items():
            reached[event] += count
    # The schedules reached every path the map has to survive.
    assert all(reached.values()), reached
