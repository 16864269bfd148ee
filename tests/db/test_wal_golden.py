"""Golden bytes on disk: checkpoint files and WAL segments.

The digests below were recorded on the commit *before* the storage
tier stopped building a list per row for the JSON encoder (checkpoint
rows handed over as ``dict.items()``, redo after-images as the tuples
they are).  That change must be invisible on disk -- no format
version, no reader change -- so a fixed script writing every frame
kind (commit, prepare, resolve, decide), NULLs, non-ASCII text, floats
and a rolled-back transaction has to keep producing these exact bytes.
A red digest means the on-disk format moved: fix the code, do not
re-record.
"""

import hashlib

from repro.db import (
    ShardedDatabase,
    ShardingScheme,
    TableSharding,
    attach_wal,
    connect_sharded,
)
from repro.db.catalog import IndexSpec

GOLDEN = {
    "coord.wal":
        "c0af4f7c5084ccfaaf1b77920bd3f2917edf89ef452e205d4134c2949bebcfdc",
    "shard0.ckpt":
        "4116e14daee28d451347a7fa82fb4824dee8f0759cff07d11276ed382a91b467",
    "shard0.ckpt.bootstrap":
        "8f035c79ab23ab755fda4c21654eb7e1a892048ba08c95233480cd25caf359ac",
    "shard0.wal":
        "b2e1ad17fa8d72019f877740e17c9e56ed02cb782dbfae9c006c90b1a49c267c",
    "shard1.ckpt":
        "87c6fc9dd4d22cd2a6ed04afd6578e3dc3f561fb529db6a84c2d3dd9e324e997",
    "shard1.ckpt.bootstrap":
        "bca55c19f47c674a31b38338e9fa67e01d293371c608199cbb7e3e0c9284bf2d",
    "shard1.wal":
        "9fb9a3d416263696879a2e067d73ff14b928639745cd88d9c89a1eff29813c99",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_script(directory) -> dict[str, str]:
    """The fixed script; returns digest-by-file."""
    sdb = ShardedDatabase(
        "golden",
        shards=2,
        scheme=ShardingScheme(
            {"t": TableSharding(columns=("k",), strategy="mod")}
        ),
        replicas=1,
    )
    sdb.create_table(
        "t",
        [("k", "int", False), ("name", "text"), ("score", "float")],
        primary_key=["k"],
        indexes=[
            IndexSpec("t_by_name", ("name",)),
            IndexSpec("t_by_score", ("score",), ordered=True),
        ],
    )
    names = ["plain", "naïve ✓", 'quote " back \\ slash',
             "line\nbreak\ttab", None, ""]
    for k in range(10):
        score = None if k == 5 else (k - 3) / 7.0
        sdb.insert("t", (k, names[k % len(names)], score))
    manager = attach_wal(sdb, directory)
    digests = {
        f"shard{i}.ckpt.bootstrap": _sha256(wal.checkpoint_path)
        for i, wal in enumerate(manager.wals)
    }
    conn = connect_sharded(sdb)
    conn.execute("INSERT INTO t (k, name, score) VALUES (?, ?, ?)",
                 10, "東京", 2.5)
    conn.execute("INSERT INTO t (k, name, score) VALUES (?, ?, ?)",
                 11, None, None)
    conn.execute("UPDATE t SET score = ? WHERE k = ?", 2.0 ** 70, 1)
    conn.execute("UPDATE t SET name = ? WHERE k = ?", "moved", 2)
    conn.execute("DELETE FROM t WHERE k = ?", 4)
    conn.begin()
    conn.execute("INSERT INTO t (k, name, score) VALUES (?, ?, ?)",
                 12, "rolled back", 1.0)
    conn.execute("UPDATE t SET score = ? WHERE k = ?", -1.0, 3)
    conn.rollback()
    # Cross-shard transaction: prepare + decide + resolve frames.
    conn.begin()
    conn.execute("UPDATE t SET score = score + ? WHERE k = ?", 1.0, 6)
    conn.execute("UPDATE t SET score = score + ? WHERE k = ?", 1.0, 7)
    conn.execute("INSERT INTO t (k, name, score) VALUES (?, ?, ?)",
                 13, "2pc", -0.0)
    conn.commit()
    conn.execute("DELETE FROM t WHERE k = ?", 11)
    assert None not in manager.checkpoint(sdb.shards, truncate=False)
    conn.execute("UPDATE t SET name = ? WHERE k = ?", "after", 8)
    manager.close()
    sdb.assert_replica_groups_consistent()
    for path in sorted(directory.iterdir()):
        if path.suffix in (".wal", ".ckpt"):
            digests[path.name] = _sha256(path)
    return digests


def test_checkpoint_and_wal_bytes_match_the_recorded_goldens(tmp_path):
    assert run_script(tmp_path) == GOLDEN

