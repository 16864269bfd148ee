"""Golden reports: ``repro serve`` stdout per scenario, pinned.

Every serve scenario is run through the CLI at explicit, short
arguments and the sha256 of its stdout is compared with the digest
recorded before the scenario runners were folded onto one engine path.
The failover and WAL runs also export ``--metrics-out`` /
``--trace-out``; those payloads are pinned the same way.  Paths under
the test's temporary directory are replaced by ``<TMP>`` before
hashing, so the WAL directory and export paths do not enter a digest.

Each scenario's flags name every value that differs between the CLI's
old defaults and the runner's own (``--think`` for ``--repartition``,
``--seed`` for ``--htap``), so a digest pins the report, not a default.
The switching digest was re-pinned once, when the report's time column
gained the decimals that keep sub-second buckets distinct; the sweep
stdout and the failover / WAL metrics digests once, when the always-zero
``rej`` column and the ``pool.*`` / ``serve.admission.rejected`` keys
went with the session pool (traces did not change).  The failover
metrics digest was re-pinned once more, when the always-zero
``replication.ship_failures{shard=N}`` keys went with the replica
links that alone could count a failed shipment (nothing else in
either export changed).  The shard-sweep and failover stdout and the
failover / WAL metrics were re-pinned once more, when walk events at
one instant began to run in (transaction, stage) order and core busy
time began to be read from per-core free times; the trace exports are
since pinned as the multiset of their spans, as span ids and thread
ids follow creation order.

``python tests/test_cli_serve_golden.py --record`` prints a fresh
table (run it from the repository root with ``PYTHONPATH=src:.``).
"""

import hashlib
import os
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from repro.cli import main
from tests.conftest import exported_span_multiset

# Live executions' CPU durations differ between rungs in the last
# float bits; the digests below were recorded on the default rungs.
NON_DEFAULT_RUNGS = (
    os.environ.get("REPRO_INTERP", "source") != "source"
    or os.environ.get("REPRO_SQL_EXEC", "source") != "source"
)

EXPORTS = ("--metrics-out", "{tmp}/metrics.json", "--trace-out",
           "{tmp}/trace.json")

# name -> serve arguments ("{tmp}" is the temporary directory).
SCENARIOS = {
    "sweep": ("--workload", "micro", "--clients", "1,4", "--duration", "4"),
    "switching": ("--switching", "--workload", "micro", "--clients", "20",
                  "--duration", "6"),
    "repartition": ("--repartition", "--duration", "12", "--think", "0.05"),
    "shard_sweep": ("--shard-sweep", "--clients", "24", "--duration", "4"),
    "htap": ("--htap", "--clients", "8", "--duration", "4", "--seed", "17"),
    "failover": ("--shards", "2", "--replicas", "1", "--inject",
                 "crash:db1@2", "--clients", "16", "--duration", "4",
                 *EXPORTS),
    "wal": ("--shards", "2", "--wal", "{tmp}/wal", "--clients", "8",
            "--duration", "4", "--restart", *EXPORTS),
}

# GOLDEN-BEGIN (python tests/test_cli_serve_golden.py --record)
GOLDEN = {
    'sweep': {
        'stdout':
            '6f92a09f239f2023ad6105f551b6672eb95380a342205ec99bfe132f6c13b043',
    },
    'switching': {
        'stdout':
            'ee720b729961346aef5241de2c3922caed69268f6876001d866cfc87561a8700',
    },
    'repartition': {
        'stdout':
            '78f694a7f333bf8d967f1ad6fda388a5735b9e62846a0dc4def5a0c951818508',
    },
    'shard_sweep': {
        'stdout':
            '01e3539d01027b223aa215a9943c77397b9a0bd89421cfb2fe88f98ad66d9727',
    },
    'htap': {
        'stdout':
            'fb886a9d2d866410b591c8aea61a069200dab4dd09abcf329bdede43d4d625da',
    },
    'failover': {
        'stdout':
            'ffa9d0c749ef708a4879899e57de62ee4b771c341f2679a3ed761d2a717b41e3',
        'metrics':
            '28d35698f79d8564ef1a3d75a87fa79abb5e441a88a877657fa46a88bb1cdb39',
        'trace':
            '2b5582b8cf592d9c844d22286c84abb3a3029671368ecf57ae4008920f86ab7a',
    },
    'wal': {
        'stdout':
            'de72822702a13073226b811b521c52b68e24865e0da9eaa1de224fda2eeb3831',
        'metrics':
            '487878da51070dc1fe5ae76641f5497ff148525df464b9d67f2e443a6a96f697',
        'trace':
            'a2620de3887f6fb013128a6d4340d2931cdbc48a4f53231035cb1dfd3d7f2a9f',
    },
}
# GOLDEN-END


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_scenario(name: str, tmp: Path) -> dict[str, str]:
    """Digests of one scenario's stdout and of any export it wrote."""
    args = [arg.format(tmp=tmp) for arg in SCENARIOS[name]]
    out = StringIO()
    with redirect_stdout(out):
        code = main(["serve", *args])
    assert code == 0, f"repro serve {' '.join(args)} exited {code}"
    digests = {"stdout": _sha(out.getvalue().replace(str(tmp), "<TMP>"))}
    metrics, trace = tmp / "metrics.json", tmp / "trace.json"
    if metrics.exists():
        digests["metrics"] = _sha(metrics.read_text(encoding="utf-8"))
    if trace.exists():
        spans = exported_span_multiset(trace.read_text(encoding="utf-8"))
        digests["trace"] = _sha("\n".join(spans))
    return digests


@pytest.mark.skipif(
    NON_DEFAULT_RUNGS, reason="digests recorded on the default source rungs"
)
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_serve_report_matches_golden(name, tmp_path):
    assert run_scenario(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__" and "--record" in sys.argv:
    print("GOLDEN = {")
    for scenario in SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp:
            digests = run_scenario(scenario, Path(tmp))
        print(f"    {scenario!r}: {{")
        for key, digest in digests.items():
            print(f"        {key!r}:")
            print(f"            {digest!r},")
        print("    },")
    print("}")
