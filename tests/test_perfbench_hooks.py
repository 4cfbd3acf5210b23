"""The benchmark's span tracer (perfbench/spans.py) patches obge functions
and methods by name from outside the package.  Installing it here makes a
renamed or moved function fail tier-1, not only the benchmark's traced
runs."""

import importlib.util
import random
from pathlib import Path

from obge import protocol
from obge.server import deploy_inprocess

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(four_vertex_directed):
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
        rng = random.Random(1)
        result = protocol.setup(four_vertex_directed, mode="trivial", rng=rng)
        _, _, client = deploy_inprocess(result, rng=rng)
        assert client.query_path(0, 3) == [0, 2, 3]
    finally:
        tracer.uninstall()
    names = {span[1] for span in tracer.spans}
    assert {"protocol.setup", "recursive.build", "protocol.query", "recursive.get_and_remap", "oram.access.data"} <= names
    assert tracer.leaf["crypto.prf"][0] > 0
    for owner, attr, original in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner.__name__}.{attr} not restored"
