"""Seeded host traces against a recorded fixture.

With a seeded rng every leaf the host sees is fixed: set-up placement,
the position map's levels and every remap draw from it, and keys and
nonces never reach the trace.  So a seeded run's records, without their
timestamps, repeat exactly, and any change that leaves the host's view
alone must reproduce them.  ``tests/data/golden_trace.json`` holds, per
run, the record count and the SHA-256 of its records, one
``msg_type,tree_id,leaf,byte_count`` line each.

A change to what the host sees (the rounds of a query, a width, the
leaves drawn) re-records the fixture and says why:

    PYTHONPATH=src python tests/test_golden_trace.py > tests/data/golden_trace.json
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from conftest import random_graph
from obge.protocol import setup
from obge.server import deploy_inprocess

FIXTURE = Path(__file__).resolve().parent / "data" / "golden_trace.json"
VERTICES, QUERIES = 60, 300
# run name -> (mode, budget, chain depth of its position map)
RUNS = {
    "trivial": ("trivial", None, 0),
    "enhanced-flat": ("enhanced", None, 0),
    "enhanced-chain": ("enhanced", 512, 1),
}


def record_run(name: str) -> dict:
    """Record count and digest of one seeded run's host trace."""
    mode, budget, chain_depth = RUNS[name]
    rng = random.Random(35)
    g = random_graph(rng, VERTICES, 0.06)
    result = setup(g, mode=mode, budget=budget, rng=rng)
    host, _, client = deploy_inprocess(result, rng=rng)
    positions = (result.controller or result.client).positions
    assert positions.chain_depth == chain_depth
    pairs = random.Random(36)
    for _ in range(QUERIES):
        client.query_path(pairs.randrange(VERTICES), pairs.randrange(VERTICES))
    lines = "".join(
        f"{rec.msg_type},{'' if rec.tree_id is None else rec.tree_id},{'' if rec.leaf is None else rec.leaf},"
        f"{rec.byte_count}\n"
        for rec in host.trace.records
    )
    return {"records": len(host.trace.records), "sha256": hashlib.sha256(lines.encode()).hexdigest()}


@pytest.mark.parametrize("name", list(RUNS))
def test_seeded_run_reproduces_the_recorded_trace(name):
    assert record_run(name) == json.loads(FIXTURE.read_text())[name]


if __name__ == "__main__":
    print(json.dumps({name: record_run(name) for name in RUNS}, indent=2))
