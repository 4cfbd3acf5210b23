"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import re
import shutil
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import pytest  # noqa: E402

import workloads  # noqa: E402
from obge import protocol, storage  # noqa: E402

# same code paths as the real workloads; over 24 vertices the 4 KiB budget
# gives the enhanced workloads a position-map chain of depth 1
TINY = {name: replace(w, vertices=24, setup_reps=2) for name, w in workloads.WORKLOADS.items()}


def _run(capsys, name, trace=0, seed=3, seconds=0.2):
    rc = workloads.main(
        ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        catalog=TINY,
    )
    out = capsys.readouterr().out
    return rc, out, json.loads(out.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(TINY))
def test_workload_prints_every_end_to_end_metric(capsys, name):
    before = threading.active_count()
    rc, out, result = _run(capsys, name)
    assert rc == 0
    assert result["correct"] and result["failed"] == 0
    timed = int(re.search(r"timed_queries=(\d+)", out).group(1))
    assert timed >= workloads.COUNT_QUERIES
    assert result["attempted"] == workloads.WARMUP_QUERIES + timed
    assert set(result["metrics"]) == set(workloads.END_TO_END)
    for metric, unit in workloads.END_TO_END.items():
        assert result["metrics"][metric]["unit"] == unit
        assert result["metrics"][metric]["value"] > 0
        assert re.search(rf"^{re.escape(metric)}\s+\S+\s+{re.escape(unit)}\s+n=\d+$", out, re.M), metric
    assert re.search(r"^error_rate\s+0\.000000\s+ratio\s+n=\d+$", out, re.M)
    assert "# rounds_histogram:" in out and "# cryptography:" in out
    assert threading.active_count() == before


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_reports_every_layer_metric(capsys, name):
    rc, out, result = _run(capsys, name, trace=1)
    assert rc == 0 and result["correct"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(workloads.PER_LAYER)
    enhanced = TINY[name].mode == protocol.MODE_ENHANCED
    depth = 1 if enhanced else 0
    rounds = metrics["protocol.rounds_per_query"]
    assert metrics["recursive.chain_depth"] == depth
    assert metrics["oram.access_calls.data"] == rounds
    assert metrics["oram.access_calls.pm"] == pytest.approx(depth * rounds)
    assert metrics["storage.read_path_calls"] == pytest.approx((1 + depth) * rounds)
    assert metrics["crypto.prf_calls"] > 0 and metrics["graph.entries"] > 0
    assert metrics["oram.access_self_s"] > 0 and metrics["protocol.query_self_s"] > 0
    assert (workloads.WORK_DIR / f"spans-{name}-seed3.csv").is_file()


def test_exact_counts_repeat_with_the_same_seed(capsys):
    exact_e2e = ["wire_bytes_per_query", "stored_bytes_per_entry"]
    exact_layer = ["protocol.rounds_per_query", "storage.read_path_calls", "storage.bytes_read",
                   "crypto.encrypt_calls", "wire.frame_bytes"]
    for trace, keys in [(0, exact_e2e), (1, exact_layer)]:
        runs = [_run(capsys, "enhanced-rpm-tcp", trace=trace, seconds=0.1)[2]["metrics"] for _ in range(2)]
        assert [runs[0][k] for k in keys] == [runs[1][k] for k in keys]


def test_corrupted_answer_counts_in_error_rate(capsys, monkeypatch):
    real_reveal = protocol.reveal
    calls = []

    def corrupt_fifth(resp, source, dest, k1):
        calls.append(None)
        path = real_reveal(resp, source, dest, k1)
        return ["corrupt"] if len(calls) == 5 else path

    monkeypatch.setattr(protocol, "reveal", corrupt_fifth)
    rc, out, result = _run(capsys, "trivial-tcp")
    assert rc != 0
    assert result["correct"] is False and result["failed"] == 1
    rate = 1 / result["attempted"]
    assert re.search(rf"^error_rate\s+{rate:.6f}\s+ratio\s+n={result['attempted']}$", out, re.M)
    assert "differs from oracle" in out


def test_dropped_trace_record_counts_in_error_rate(capsys, monkeypatch):
    real_append = storage.AccessTrace.append
    calls = []

    def drop_hundredth(self, *args):
        calls.append(None)
        if len(calls) != 100:
            real_append(self, *args)

    monkeypatch.setattr(storage.AccessTrace, "append", drop_hundredth)
    rc, out, result = _run(capsys, "enhanced-rpm-tcp")
    assert rc != 0 and result["failed"] == 1
    assert "path records, expected" in out or "trace not framed" in out


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trivial-tcp", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
