"""Shared fixtures: sample programs, loaded databases, pipelines."""

from __future__ import annotations

import importlib.util

import pytest

from repro.core.pipeline import Pyxis
from repro.db import Database, connect
from repro.db.catalog import IndexSpec

# SciPy is the optional cross-check oracle, not a dependency: tests
# that call it skip where it is not installed.
needs_scipy = pytest.mark.skipif(
    importlib.util.find_spec("scipy") is None,
    reason="SciPy (the cross-check oracle) is not installed",
)

# The running example from the paper (Figure 2), in the partitionable
# subset.  Used by front-end, analysis, pipeline and runtime tests.
ORDER_SOURCE = '''
class Order:
    def place_order(self, cid, dct):
        self.total_cost = 0.0
        self.compute_total_cost(dct)
        self.update_account(cid, self.total_cost)
        return self.total_cost

    def compute_total_cost(self, dct):
        i = 0
        costs = self.get_costs()
        self.real_costs = [0.0] * len(costs)
        for item_cost in costs:
            real_cost = item_cost * dct
            self.total_cost += real_cost
            self.real_costs[i] = real_cost
            i = i + 1
            self.db.execute(
                "INSERT INTO line_item (li_id, li_cost) VALUES (?, ?)",
                i, real_cost)

    def get_costs(self):
        rs = self.db.query("SELECT c_cost FROM costs ORDER BY c_id")
        out = []
        for row in rs:
            out.append(row[0])
        return out

    def update_account(self, cid, amount):
        self.db.execute(
            "UPDATE account SET a_balance = a_balance - ? WHERE a_id = ?",
            amount, cid)
'''

ORDER_ENTRY_POINTS = [("Order", "place_order")]


def make_order_database() -> tuple[Database, "object"]:
    """Fresh database for the running example."""
    db = Database("orders")
    db.create_table(
        "costs", [("c_id", "int", False), ("c_cost", "float")],
        primary_key=["c_id"],
    )
    db.create_table(
        "line_item", [("li_id", "int", False), ("li_cost", "float")],
        primary_key=["li_id"],
    )
    db.create_table(
        "account", [("a_id", "int", False), ("a_balance", "float")],
        primary_key=["a_id"],
    )
    conn = connect(db)
    for i, cost in enumerate([10.0, 20.0, 30.0], start=1):
        conn.execute(
            "INSERT INTO costs (c_id, c_cost) VALUES (?, ?)", i, cost
        )
    conn.execute(
        "INSERT INTO account (a_id, a_balance) VALUES (?, ?)", 7, 1000.0
    )
    return db, conn


def tpcc_invocations(scale, seed: int, rounds: int) -> list[tuple]:
    """``(class, method, args)`` for every TPC-C entry point, ``rounds``
    times over, from a seeded input generator."""
    from repro.workloads.tpcc import TpccInputGenerator

    gen = TpccInputGenerator(scale, seed=seed)
    invocations = []
    for _ in range(rounds):
        order = gen.new_order(rollback_fraction=0.0)
        pay = gen.payment()
        invocations.extend([
            ("TpccTransactions", "new_order",
             (order.w_id, order.d_id, order.c_id,
              order.item_ids, order.supply_w_ids, order.quantities)),
            ("TpccTransactions", "payment",
             (pay.w_id, pay.d_id, pay.c_w_id, pay.c_d_id, pay.c_id,
              pay.amount)),
            ("TpccTransactions", "order_status",
             (order.w_id, order.d_id, order.c_id)),
        ])
    return invocations


@pytest.fixture()
def order_db():
    return make_order_database()


@pytest.fixture(scope="session")
def order_pyxis() -> Pyxis:
    return Pyxis.from_source(ORDER_SOURCE, ORDER_ENTRY_POINTS)


@pytest.fixture(scope="session")
def order_partitions(order_pyxis):
    """Partition set for the running example at budgets 0 and inf."""
    _, conn = make_order_database()
    profile = order_pyxis.profile_with(
        conn, lambda p: p.invoke("Order", "place_order", 7, 0.9)
    )
    return order_pyxis.partition(profile, budgets=[0.0, 1e9])


@pytest.fixture()
def people_db():
    """A small generic database for SQL-layer tests."""
    db = Database("people")
    db.create_table(
        "person",
        [
            ("id", "int", False),
            ("name", "text", False),
            ("age", "int"),
            ("city", "text"),
            ("score", "float"),
        ],
        primary_key=["id"],
        indexes=[
            IndexSpec("person_by_city", ("city",)),
            IndexSpec("person_by_age", ("age",), ordered=True),
        ],
    )
    conn = connect(db)
    rows = [
        (1, "ann", 34, "boston", 9.5),
        (2, "bob", 28, "nyc", 7.25),
        (3, "cal", 45, "boston", 5.0),
        (4, "dee", 28, "sf", 8.0),
        (5, "eli", 61, "nyc", 6.5),
        (6, "fay", None, "sf", None),
    ]
    for row in rows:
        conn.execute(
            "INSERT INTO person (id, name, age, city, score) "
            "VALUES (?, ?, ?, ?, ?)",
            *row,
        )
    return db, conn
