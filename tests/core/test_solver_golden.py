"""Golden partitionings: every solve the repo's workloads make, pinned.

Each signature below is ``PartitioningResult.signature()`` as the
SciPy / HiGHS default produced it at bff5b01, the commit before the
native exact solver became the default.  The graphs are the ones the
four BENCHMARK workloads and the serve workload factories partition
(budgets ``[0.0, 1e9]``), plus the default four-rung budget ladder on
the same profiles and on the linked-list micro program, plus the three
budgets of Figure 14.  Where several assignments share the optimal
objective the solver's tie-break (least DB load, then the
lowest-indexed variables on APP -- see DESIGN.md) has to land on the
recorded one.  Some recorded answers were not optima (``STOPPED_SHORT``);
everywhere else the optimum is HiGHS's.
"""

import pytest

from repro.core.pipeline import Pyxis
from tests.core.workload_graphs import CASES

EXTREMES = [0.0, 1e9]

LINKED_LIST = "02c567bda4e81e6a83c6a46f6cf2dc2ae7884bf9"
THREE_PHASE_APP = "c054553acfc615050e5ac892465c3055c1cc98c7"
THREE_PHASE_DB = "aa06b4f5ba8d168440a4c8a7a5e0709bbbece280"
TPCC_JDBC = "83d2d831d030be23abba08bb34b5aaf0e0a87633"
TPCC_PROC = "c8e9128ca16b4a81acceb6aa8a30f989c4f86be6"
TPCW_JDBC = "0b753eb86724417081719070373c17ead2933258"
TPCW_PROC = "f5d8f53e526c2a9b38eea41be1be42ddc764f101"
STORE_APP = "de07667d911de8ff483852998e98eb0e10f7812c"
STORE_DB = "fd5100a2aba99fd3bbbe17dd0f23b6c56ef85839"

# case -> budgets ("ladder": the default one) -> signatures recorded
GOLDEN = {
    "linked_list": {"extremes": [LINKED_LIST] * 2, "ladder": [LINKED_LIST] * 4},
    "three_phase": {
        "extremes": [THREE_PHASE_APP, THREE_PHASE_DB],
        "ladder": [THREE_PHASE_APP,
                   "f689733a8d8a6ff3f86aa2f77372b55b8272c7b4",
                   "72ecd88b7a67c20b2c38526362e0c1824172a376",
                   THREE_PHASE_DB],
        "fig14": [THREE_PHASE_APP,
                  "5b37df725f3d8193ba3eaab5b36b19c099989748",
                  THREE_PHASE_DB],
    },
    "tpcc": {"extremes": [TPCC_JDBC, TPCC_PROC],
             "ladder": [TPCC_JDBC] * 3 + [TPCC_PROC]},
    "tpcc_w4": {"extremes": [TPCC_JDBC, TPCC_PROC],
                "ladder": [TPCC_JDBC] * 3 + [TPCC_PROC]},
    "tpcw": {"extremes": [TPCW_JDBC, TPCW_PROC],
             "ladder": [TPCW_JDBC] * 3 + [TPCW_PROC]},
    "storefront": {"extremes": [STORE_APP, STORE_DB],
                   "ladder": [STORE_APP] + [STORE_DB] * 3},
}

# The recorded answers that were not optima: HiGHS stops inside an
# absolute MIP gap of 1e-6, and these objectives are seconds with edges
# down to 6.4e-8.  An exact solver cannot reproduce them; it has to
# beat them.  (case, budgets, rung) -> (the objective recorded, the
# optimum's signature)
STORE_OPTIMUM = (0.007000512, "d97298f98304d960566ffbf0cb918ad20b454c82")
STOPPED_SHORT = {
    ("three_phase", "ladder", 1): (
        0.301019648, "b37f399ffb860a63941d2de8a4f6c3ea9097c353"),
    ("three_phase", "ladder", 2): (
        0.003000576, "f1f0e045a8b13397cf8569fe64eecfc5ca28a529"),
    ("three_phase", "fig14", 1): (
        0.003000384, "f1f0e045a8b13397cf8569fe64eecfc5ca28a529"),
    ("storefront", "extremes", 1): STORE_OPTIMUM,
    ("storefront", "ladder", 1): STORE_OPTIMUM,
    ("storefront", "ladder", 2): STORE_OPTIMUM,
    ("storefront", "ladder", 3): STORE_OPTIMUM,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_default_solver_reproduces_recorded_partitionings(name):
    pyxis, profile = CASES[name]()
    total = profile.total_statement_weight()
    budgets = {"extremes": EXTREMES, "ladder": None,
               "fig14": [0.0, total * 0.62, 1e9]}
    for which, recorded in GOLDEN[name].items():
        # A session each, so that every list of budgets starts cold.
        parts = Pyxis(pyxis.program, pyxis.config).partition(
            profile, budgets=budgets[which]
        ).partitions
        expected = list(recorded)
        for rung, part in enumerate(parts):
            short = STOPPED_SHORT.get((name, which, rung))
            if short is not None:
                assert part.result.objective < short[0] - 1e-9
                expected[rung] = short[1]
        assert [p.signature for p in parts] == expected
