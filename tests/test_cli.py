"""End-to-end CLI flows against a live daemon in a scratch directory."""

import os
import random
import re
import signal
import socket
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from obge.cli import main
from obge.exceptions import StashOverflowError
from obge.gkt import GktScheme, save_token_log
from obge.graph import load_graph
from obge.protocol import STATE_VERSION
from obge.server import Daemon, build_server
from conftest import serve_config

SRC = str(Path(__file__).resolve().parents[1] / "src")
GRAPH_TSV = "0\t1\n1\t2\n2\t3\n0\t2\n"


@pytest.fixture
def graph_file(tmp_path):
    p = tmp_path / "graph.tsv"
    p.write_text(GRAPH_TSV)
    return p


def run_setup(tmp_path, graph_file, *extra):
    out = tmp_path / "deploy"
    rc = main(["setup", str(graph_file), "--out", str(out), *extra])
    assert rc == 0
    return out


def make_daemon(directory, seed):
    """An unstarted daemon over directory's files, as obge serve DIR would
    run it, on a free port and with a seeded generator."""
    cfg = serve_config(directory)
    return Daemon(build_server(cfg, rng=random.Random(seed)), cfg)


def spawn_serve(directory, cwd=None):
    """Run obge serve DIR on a free port in a child process; return it and
    the port it logged at start."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "obge.cli", "serve", str(directory), "--listen", "127.0.0.1:0"],
        cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    said = []
    for line in proc.stderr:
        started = re.search(r"serving \w+ mode on 127\.0\.0\.1:(\d+)$", line.strip())
        if started:
            return proc, int(started.group(1))
        said.append(line)
    proc.wait()
    proc.stderr.close()
    raise AssertionError(f"daemon never came up: {''.join(said)}")


def stop_serve(proc):
    """SIGTERM, as an operator stops the daemon; it must exit 0."""
    try:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=15) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()


@pytest.fixture
def daemon(tmp_path, graph_file):
    out = run_setup(tmp_path, graph_file)
    d = make_daemon(out, 1)
    d.start()
    yield out, d
    d.shutdown()


class TestSetupCommand:
    def test_writes_artifacts(self, tmp_path, graph_file):
        # one state file for the trivial client: keys and engine state
        out = run_setup(tmp_path, graph_file)
        assert sorted(os.listdir(out)) == ["keys.bin", "tree_000.bin"]

    def test_enhanced_writes_controller(self, tmp_path, graph_file):
        out = run_setup(tmp_path, graph_file, "--mode", "enhanced")
        assert sorted(os.listdir(out)) == ["controller.bin", "keys.bin", "tree_000.bin"]

    @pytest.mark.parametrize(
        "mode, line",
        [
            ("trivial", "data depth 6; top 6 level(s) cached by the client, host path 1 bucket (124 bytes)"),
            ("enhanced", "data depth 6; top 0 level(s) cached by the controller, host path 7 buckets (868 bytes)"),
        ],
        ids=["trivial", "enhanced"],
    )
    def test_summary_reports_the_cache(self, tmp_path, capsys, mode, line):
        # a 15-vertex chain: 105 entries among the 225 blocks, one an
        # ordered pair, of a depth-6 tree of 124-byte buckets (a count byte
        # and five 19-byte blocks, a 1-byte leaf each); the trivial client
        # leaves the host its leaf level alone, one bucket a path
        chain = tmp_path / "chain.tsv"
        chain.write_text("".join(f"{i}\t{i + 1}\n" for i in range(14)))
        run_setup(tmp_path, chain, "--mode", mode)
        assert line in capsys.readouterr().out

    def test_enhanced_summary_reports_the_map(self, tmp_path, capsys):
        # the 30-vertex chain at a 256-byte budget: the 256 data leaves take
        # 1-byte entries, and the shape rule picks 184-byte level payloads,
        # one level of 5 blocks in a one-leaf tree, so a map round moves 1
        # bucket of 1 + 5 * 200 + 28 bytes each way: 200-byte blocks of
        # token and payload, with no leaf byte
        chain = tmp_path / "chain.tsv"
        chain.write_text(CHAIN_30_TSV)
        run_setup(tmp_path, chain, "--mode", "enhanced", "--budget", "256")
        assert capsys.readouterr().out.splitlines()[1:] == [
            "position map: chain depth 1",
            "position map: 184-byte level payloads, 1 host bucket and 1029 host bytes per round",
        ]

    def test_bad_graph_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("3\t3\n")
        assert main(["setup", str(bad), "--out", str(tmp_path / "x")]) == 1

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["setup", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--listen", ":0"]], ids=["seed", "listen"])
    def test_removed_flags_are_unknown_arguments(self, tmp_path, graph_file, capsys, flag):
        # --seed drew every initial leaf from random.Random(seed), so anyone
        # with the seed knew them; --listen only fed a config file, which
        # obge serve DIR --listen replaced
        out = tmp_path / "deploy"
        assert main(["setup", str(graph_file), "--out", str(out), *flag]) == 1
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, options",
        [("setup", {"--mode", "--Z", "--out", "--budget", "--undirected"}), ("serve", {"--listen"})],
    )
    def test_commands_take_deployment_settings_alone(self, capsys, command, options):
        assert main([command, "--help"]) == 0
        assert set(re.findall(r"--\w+", capsys.readouterr().out)) == options | {"--help"}

    @pytest.mark.parametrize("case", ["setup-out-is-a-file", "setup-graph-is-a-directory", "audit-trace-is-a-directory"])
    def test_os_error_is_a_usage_error(self, tmp_path, graph_file, capsys, case):
        # each once printed a traceback: only FileNotFoundError was mapped
        # to exit 1
        if case == "setup-out-is-a-file":
            path = tmp_path / "taken"
            path.write_text("")
            argv = ["setup", str(graph_file), "--out", str(path)]
        elif case == "setup-graph-is-a-directory":
            path = tmp_path
            argv = ["setup", str(path), "--out", str(tmp_path / "d")]
        else:
            path = tmp_path
            argv = ["audit", "--trace", str(path), "--queries", str(tmp_path / "q.csv"), "--trees", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "extra",
        [["--Z", "256"], ["--mode", "enhanced", "--budget", "15"]],
        ids=["Z-256", "budget-below-16"],
    )
    def test_widths_past_the_file_fields_are_usage_errors(self, tmp_path, extra):
        # tree files store Z in one byte, and a level block's payload is at
        # least 16 bytes, so a budget below that has no map shape; both are
        # refused before any file is written
        chain = tmp_path / "chain.tsv"
        chain.write_text("".join(f"{i}\t{i + 1}\n" for i in range(99)))
        out = tmp_path / "deploy"
        assert main(["setup", str(chain), "--out", str(out), *extra]) == 1
        assert not out.exists() or not any(out.iterdir())


    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--budget", "-5"], "budget must be in [1, 2^64) bytes, got -5"),
            (["--mode", "enhanced", "--budget", str(1 << 64)], f"budget must be in [1, 2^64) bytes, got {1 << 64}"),
            (["--budget", "4096"], "a budget applies to enhanced mode only; the trivial client keeps the whole map"),
        ],
        ids=["trivial-budget-negative", "budget-past-64-bits", "budget-in-trivial-mode"],
    )
    def test_values_past_the_state_file_fields_are_usage_errors(self, tmp_path, capsys, extra, message):
        # state files store the budget in 64 bits; a value outside them, or
        # a budget in trivial mode, is refused before the deployment
        # directory exists, not by the state writer after the trees
        chain = tmp_path / "chain.tsv"
        chain.write_text("".join(f"{i}\t{i + 1}\n" for i in range(9)))
        out = tmp_path / "deploy"
        assert main(["setup", str(chain), "--out", str(out), *extra]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_vertex_count_past_the_address_width_is_usage_error(self, tmp_path, capsys):
        # blocks store a hop as a 2-byte vertex id: vertex 65,536 makes
        # 65,537 vertices, one past the limit
        graph = tmp_path / "wide.tsv"
        graph.write_text("0\t65536\n")
        out = tmp_path / "deploy"
        assert main(["setup", str(graph), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: 65537 vertices exceed 65536: blocks store vertex ids in 2 bytes"
        ]
        assert not out.exists()


class TestQueryCommand:
    def test_prints_path(self, daemon, capsys):
        out, d = daemon
        rc = main(["query", "0", "3", "--keys", str(out / "keys.bin"),
                   "--addr", f"127.0.0.1:{d.port}"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0 2 3"

    def test_state_persists_between_invocations(self, daemon, capsys):
        # each query remaps blocks, so keys.bin is replaced after each one
        out, d = daemon
        keys = out / "keys.bin"
        for _ in range(3):
            before = keys.stat().st_ino
            rc = main(["query", "0", "3", "--keys", str(keys), "--addr", f"127.0.0.1:{d.port}"])
            assert rc == 0
            assert capsys.readouterr().out.strip() == "0 2 3"
            assert keys.stat().st_ino != before

    def test_out_of_range_vertex_usage_error(self, daemon, capsys):
        out, d = daemon
        rc = main(["query", "0", "99", "--keys", str(out / "keys.bin"),
                   "--addr", f"127.0.0.1:{d.port}"])
        assert rc == 1

    def test_truncated_keyfile_is_protocol_error(self, daemon, capsys):
        out, d = daemon
        keys = out / "keys.bin"
        keys.write_bytes(keys.read_bytes()[:15])  # inside the parameter block
        rc = main(["query", "0", "3", "--keys", str(keys), "--addr", f"127.0.0.1:{d.port}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "truncated" in err and "Traceback" not in err

    def test_truncated_client_state_is_protocol_error(self, daemon, capsys):
        # cut inside the engine state that follows the keys
        out, d = daemon
        keys = out / "keys.bin"
        keys.write_bytes(keys.read_bytes()[:-5])
        rc = main(["query", "0", "3", "--keys", str(keys), "--addr", f"127.0.0.1:{d.port}"])
        assert rc == 2
        assert "truncated" in capsys.readouterr().err

    def test_top_entry_past_the_tree_is_protocol_error(self, daemon, capsys):
        # the flat map's entry for (0, 3), the fourth of 16 one-byte cells
        # that follow the 4-byte prefix, the 13-byte parameter block and
        # the two keys k2 kprf, set past the data tree's 4 leaves: refused
        # on load, not an IndexError mid-query
        out, d = daemon
        keys = out / "keys.bin"
        raw = keys.read_bytes()
        at = 4 + 13 + 2 * 16 + 3
        keys.write_bytes(raw[:at] + b"\x04" + raw[at + 1 :])
        rc = main(["query", "0", "3", "--keys", str(keys), "--addr", f"127.0.0.1:{d.port}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{keys}: top entry 3 is leaf 4, but its tree has 4 leaves" in err and "Traceback" not in err

    def test_old_layout_client_state_is_protocol_error(self, daemon, capsys):
        # the token-keyed layout: entry count, (token, leaf) pairs, stash count
        out, d = daemon
        old = struct.pack(">I", 1) + b"\x11" * 16 + struct.pack(">QI", 3, 0)
        (out / "keys.bin").write_bytes(old)
        rc = main(["query", "0", "3", "--keys", str(out / "keys.bin"),
                   "--addr", f"127.0.0.1:{d.port}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad magic" in err and "Traceback" not in err

    def test_controller_file_as_keys_is_protocol_error(self, tmp_path, graph_file, capsys):
        out = run_setup(tmp_path, graph_file, "--mode", "enhanced")
        capsys.readouterr()
        rc = main(["query", "0", "3", "--keys", str(out / "controller.bin"), "--addr", "127.0.0.1:1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "holds controller state" in err and "Traceback" not in err

    def test_no_daemon_is_protocol_error(self, tmp_path, graph_file, capsys):
        # a freshly closed port: the connection is refused
        out = run_setup(tmp_path, graph_file)
        capsys.readouterr()
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        keys = out / "keys.bin"
        before = keys.read_bytes()
        rc = main(["query", "0", "3", "--keys", str(keys), "--addr", f"127.0.0.1:{port}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"127.0.0.1:{port}" in err and "Traceback" not in err
        assert keys.read_bytes() == before

    def test_no_path_reported(self, daemon, capsys):
        out, d = daemon
        rc = main(["query", "3", "0", "--keys", str(out / "keys.bin"),
                   "--addr", f"127.0.0.1:{d.port}"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == ""
        assert "no path" in captured.err

    @pytest.mark.parametrize(
        "case, rc, message",
        [("stash-overflow", 3, "server error 3: tree 0: 129 held blocks, limit 128"),
         ("no-controller", 1, "server error 1: no controller deployed on this server")],
        ids=["stash-overflow", "no-controller"],
    )
    def test_server_error_code_sets_the_exit_code(self, tmp_path, graph_file, capsys, monkeypatch, case, rc, message):
        # an error frame reaches obge query as the exception of its code: a
        # controller's stash overflow exits 3 (capacity), and an enhanced
        # client at a server with no controller exits 1 (usage), where both
        # once exited 2 as protocol errors
        enhanced = run_setup(tmp_path, graph_file, "--mode", "enhanced")
        served = enhanced if case == "stash-overflow" else run_setup(tmp_path / "trivial", graph_file)
        d = make_daemon(served, 2)
        if case == "stash-overflow":
            def overflow(*args):
                raise StashOverflowError("tree 0: 129 held blocks, limit 128")

            monkeypatch.setattr(d.server.controller.state.oram, "access", overflow)
        d.start()
        capsys.readouterr()
        try:
            assert main(["query", "0", "3", "--keys", str(enhanced / "keys.bin"), "--addr", f"127.0.0.1:{d.port}"]) == rc
        finally:
            d.shutdown()
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_enhanced_roundtrip(self, tmp_path, graph_file, capsys):
        out = run_setup(tmp_path, graph_file, "--mode", "enhanced")
        capsys.readouterr()
        d = make_daemon(out, 2)
        d.start()
        try:
            rc = main(["query", "0", "3", "--keys", str(out / "keys.bin"),
                       "--addr", f"127.0.0.1:{d.port}"])
            assert rc == 0
            assert capsys.readouterr().out.strip() == "0 2 3"
        finally:
            d.shutdown()


class TestAuditCommand:
    def test_audit_live_trace(self, tmp_path, graph_file, capsys):
        out = run_setup(tmp_path, graph_file)
        d = make_daemon(out, 3)
        d.start()
        try:
            for _ in range(20):
                rc = main(["query", "0", "3", "--keys", str(out / "keys.bin"),
                           "--addr", f"127.0.0.1:{d.port}"])
                assert rc == 0
        finally:
            d.shutdown()
        qlog = tmp_path / "queries.csv"
        qlog.write_text("u,v,path_len\n" + "0,3,2\n" * 20)
        capsys.readouterr()
        rc = main(["audit", "--trace", str(out / "trace.csv"), "--queries", str(qlog),
                   "--trees", str(out), "--out", str(tmp_path / "report.csv")])
        assert rc == 0
        assert "query shape against the tree headers: PASS" in capsys.readouterr().out
        assert (tmp_path / "report.csv").exists()

    def test_wrong_trees_fail_the_shape(self, tmp_path, graph_file, capsys):
        # the trace of a trivial deployment, whose host path is the one
        # 124-byte leaf bucket, against the trees of an enhanced one, whose
        # host keeps every level of its data tree
        trivial = run_setup(tmp_path, graph_file)
        enhanced = tmp_path / "enhanced"
        assert main(["setup", str(graph_file), "--out", str(enhanced), "--mode", "enhanced"]) == 0
        d = make_daemon(trivial, 3)
        d.start()
        try:
            assert main(["query", "0", "3", "--keys", str(trivial / "keys.bin"), "--addr", f"127.0.0.1:{d.port}"]) == 0
        finally:
            d.shutdown()
        qlog = tmp_path / "queries.csv"
        qlog.write_text("u,v,path_len\n0,3,2\n")
        capsys.readouterr()
        rc = main(["audit", "--trace", str(trivial / "trace.csv"), "--queries", str(qlog), "--trees", str(enhanced)])
        assert rc == 2
        assert "query 0 (0,3), record 0: 124 bytes, tree 0 paths are " in capsys.readouterr().out

    def test_no_tree_files_is_protocol_error(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("timestamp,msg_type,tree_id,leaf,byte_count\n")
        qlog = tmp_path / "queries.csv"
        qlog.write_text("u,v,path_len\n")
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["audit", "--trace", str(trace), "--queries", str(qlog), "--trees", str(empty)]) == 2

    def test_misnamed_tree_file_is_protocol_error(self, tmp_path, capsys):
        # tree 0 of a 6-vertex chain in tree_000.bin and tree 0 of a
        # 12-vertex chain (depth 5) misnamed tree_005.bin: the audit used
        # the last file's geometry for tree 0 without a word
        for n in (6, 12):
            chain = tmp_path / f"chain{n}.tsv"
            chain.write_text("".join(f"{i}\t{i + 1}\n" for i in range(n - 1)))
            assert main(["setup", str(chain), "--out", str(tmp_path / f"d{n}")]) == 0
        trees = tmp_path / "d6"
        (tmp_path / "d12" / "tree_000.bin").rename(trees / "tree_005.bin")
        trace = tmp_path / "trace.csv"
        trace.write_text("timestamp,msg_type,tree_id,leaf,byte_count\n")
        qlog = tmp_path / "queries.csv"
        qlog.write_text("u,v,path_len\n")
        capsys.readouterr()
        assert main(["audit", "--trace", str(trace), "--queries", str(qlog), "--trees", str(trees)]) == 2
        assert capsys.readouterr().err.strip() == (
            f"error: tree file {trees / 'tree_005.bin'} holds tree 0, which belongs in {trees / 'tree_000.bin'}"
        )


class TestAttackCommand:
    def test_recovers_unique_chain(self, tmp_path, capsys):
        chain = tmp_path / "chain.tsv"
        chain.write_text("0\t1\n1\t2\n2\t3\n")
        with open(chain) as f:
            g = load_graph(f, directed=True)
        scheme = GktScheme(g)
        _, seq = scheme.query(0, 3)
        log = tmp_path / "tokens.jsonl"
        save_token_log(log, [seq], truths=[(0, 3)])
        rc = main(["attack", "--graph", str(chain), "--trace", str(log)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(0,3)" in out
        assert "exactly recovered: 1/1" in out


class TestDeploymentDirectory:
    def test_serves_from_any_working_directory(self, tmp_path, graph_file, monkeypatch, capsys):
        # obge serve DIR takes its paths from DIR alone: a relative DIR
        # served from another working directory, after a move, flushes its
        # trees and trace into DIR and leaves nothing where it runs
        monkeypatch.chdir(tmp_path)
        assert main(["setup", str(graph_file), "--out", "d"]) == 0
        (tmp_path / "d").rename(tmp_path / "moved")
        moved = tmp_path / "moved"
        original_tree = (moved / "tree_000.bin").read_bytes()
        (tmp_path / "elsewhere").mkdir()
        proc, port = spawn_serve("../moved", cwd=tmp_path / "elsewhere")
        try:
            assert main(["query", "0", "3", "--keys", str(moved / "keys.bin"), "--addr", f"127.0.0.1:{port}"]) == 0
        finally:
            stop_serve(proc)
        assert capsys.readouterr().out.splitlines()[-1] == "0 2 3"
        assert (moved / "tree_000.bin").read_bytes() != original_tree
        assert (moved / "trace.csv").stat().st_size > 0
        assert os.listdir(tmp_path / "elsewhere") == []

    @pytest.mark.parametrize("address", ["127.0.0.1", "127.0.0.1:http", "127.0.0.1:70000"])
    def test_bad_address_is_a_usage_error(self, tmp_path, graph_file, capsys, address):
        # one parser for query --addr and serve --listen: each names the
        # address, where one without a port once failed with "invalid
        # literal for int()"; serve checks it before it loads a tree, so a
        # directory with no trees gets the same error
        good = run_setup(tmp_path, graph_file)
        keys = (good / "keys.bin").read_bytes()
        assert main(["query", "0", "3", "--keys", str(good / "keys.bin"), "--addr", address]) == 1
        assert (good / "keys.bin").read_bytes() == keys
        assert main(["serve", str(good), "--listen", address]) == 1
        assert main(["serve", str(tmp_path / "absent"), "--listen", address]) == 1
        err = capsys.readouterr().err
        assert err.count(f"error: address {address!r} is not host:port") == 3 and "Traceback" not in err

    def test_missing_directory_is_a_usage_error(self, tmp_path, capsys):
        # a mistyped DIR exited 2, "protocol or integrity failure", with
        # "no tree files under" it; a directory without trees still does
        absent = tmp_path / "absent"
        assert main(["serve", str(absent), "--listen", "127.0.0.1:0"]) == 1
        assert capsys.readouterr().err == f"error: {str(absent)!r} is not a directory\n"
        assert main(["serve", str(tmp_path), "--listen", "127.0.0.1:0"]) == 2
        assert capsys.readouterr().err == f"error: no tree files under {str(tmp_path)!r}\n"

    def test_enhanced_setup_without_controller_is_refused(self, tmp_path, graph_file, capsys):
        # the files decide the mode: enhanced trees with controller.bin moved
        # aside are refused at start, naming the file, and the port is
        # never bound
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        out = run_setup(tmp_path, graph_file, "--mode", "enhanced")
        (out / "controller.bin").rename(tmp_path / "controller.bin")
        capsys.readouterr()
        assert main(["serve", str(out), "--listen", f"127.0.0.1:{port}"]) == 2
        err = capsys.readouterr().err
        assert f"an enhanced deployment needs {out / 'controller.bin'}" in err and "Traceback" not in err
        with socket.socket() as s:
            s.bind(("127.0.0.1", port))

    @pytest.mark.parametrize(
        "first, again, chain_depths",
        [(["--mode", "enhanced", "--budget", "256"], [], [1]),
         (["--mode", "enhanced", "--budget", "32"], ["--mode", "enhanced", "--budget", "256"], [2, 1, 1])],
        ids=["enhanced-then-trivial", "chain-depth-2-then-1"],
    )
    def test_setup_again_leaves_no_file_of_the_old_deployment(self, tmp_path, capsys, first, again, chain_depths):
        # setup into the directory of another deployment leaves what a
        # fresh directory would hold: no controller.bin under a trivial
        # setup, and no tree of a deeper chain under a shallower one.  Left
        # behind, each made the daemon refuse to start
        graph = tmp_path / "chain.tsv"
        graph.write_text(CHAIN_30_TSV)
        out, fresh = tmp_path / "d", tmp_path / "fresh"
        for directory, extra in ((out, first), (out, again), (fresh, again)):
            assert main(["setup", str(graph), "--out", str(directory), *extra]) == 0
        chains = [line for line in capsys.readouterr().out.splitlines() if line.startswith("position map: chain")]
        assert chains == [f"position map: chain depth {depth}" for depth in chain_depths]
        assert sorted(os.listdir(out)) == sorted(os.listdir(fresh))
        d = make_daemon(out, 1)
        d.start()
        try:
            assert main(["query", "3", "9", "--keys", str(out / "keys.bin"), "--addr", f"127.0.0.1:{d.port}"]) == 0
        finally:
            d.shutdown()
        assert capsys.readouterr().out.splitlines()[-1] == "3 4 5 6 7 8 9"

    def test_setup_removes_an_older_server_cfg(self, tmp_path, graph_file):
        # older releases wrote server.cfg beside the trees; setup again
        # leaves what a fresh directory holds
        out = tmp_path / "deploy"
        out.mkdir()
        (out / "server.cfg").write_text("tree_path = .\nlisten_addr = 127.0.0.1:7399\ntrace_path = trace.csv\n")
        run_setup(tmp_path, graph_file)
        assert sorted(os.listdir(out)) == ["keys.bin", "tree_000.bin"]

    def test_port_in_use_is_a_usage_error(self, tmp_path, graph_file, capsys):
        # a port another socket listens on: the refusal names the address
        out = run_setup(tmp_path, graph_file)
        capsys.readouterr()
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            assert main(["serve", str(out), "--listen", f"127.0.0.1:{port}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot bind 127.0.0.1:{port}: ") and "Traceback" not in err


CHAIN_30_TSV = "".join(f"{i}\t{i + 1}\n" for i in range(29))


class TestServeSignals:
    @pytest.mark.parametrize(
        "graph, extra, first",
        [
            (GRAPH_TSV, [], ("0", "3", "0 2 3")),
            (CHAIN_30_TSV, ["--mode", "enhanced", "--budget", "128"], ("0", "29", " ".join(map(str, range(30))))),
        ],
        ids=["trivial", "enhanced-chain"],
    )
    def test_sigterm_flushes_state(self, tmp_path, capsys, graph, extra, first):
        """kill -TERM: the daemon exits cleanly, flushes the updated tree
        and trace, and a restarted server answers from the flushed state.
        The enhanced case runs a 30-vertex chain whose controller keeps a
        one-level map chain and a narrow top, which the flush rewrites in
        controller.bin; the 4-vertex graph stays flat at any budget of
        128 bytes or more.  Its first query, (0, 29), remaps all 15 top
        cells, each to one of 4 leaves, so the flushed file differs from
        the one setup wrote but for a chance of 4^-15."""
        from obge.protocol import ControllerState, load_state

        graph_file = tmp_path / "graph.tsv"
        graph_file.write_text(graph)
        out = run_setup(tmp_path, graph_file, *extra)
        controller = out / "controller.bin"
        if extra:
            assert load_state(controller, ControllerState).positions.chain_depth == 1
            original_controller = controller.read_bytes()
        original_tree = (out / "tree_000.bin").read_bytes()
        capsys.readouterr()

        proc, port = spawn_serve(out)
        try:
            u, v, path = first
            rc = main(["query", u, v, "--keys", str(out / "keys.bin"), "--addr", f"127.0.0.1:{port}"])
            assert rc == 0 and capsys.readouterr().out.strip() == path
        finally:
            stop_serve(proc)

        flushed = (out / "tree_000.bin").read_bytes()
        assert flushed != original_tree  # the query's write-backs were persisted
        if extra:  # and the controller's remapped top and stashes
            assert controller.read_bytes() != original_controller
        assert (out / "trace.csv").stat().st_size > 0
        # restart from the flushed state and query again
        d = make_daemon(out, 8)
        d.start()
        try:
            rc = main(["query", "1", "3", "--keys", str(out / "keys.bin"),
                       "--addr", f"127.0.0.1:{d.port}"])
            assert rc == 0 and capsys.readouterr().out.strip() == "1 2 3"
        finally:
            d.shutdown()


def test_importing_the_cli_leaves_scipy_unloaded():
    # obge query and the daemon start import the CLI; they should not pay for scipy
    code = "import sys, obge.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_loading_state_files_leaves_numpy_unloaded():
    # the engines check a loaded file without numpy, so obge query and the
    # daemon start do not pay for its import
    data = Path(__file__).parent / "data" / f"state_v{STATE_VERSION}"
    code = (
        "import sys; from obge.protocol import ControllerState, TrivialState, load_state; "
        f"load_state({str(data / 'trivial-keys.bin')!r}, TrivialState); "
        f"load_state({str(data / 'controller.bin')!r}, ControllerState); "
        "print('numpy' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_obge_runs_without_numpy_or_scipy(tmp_path):
    # the runtime needs cryptography alone: with numpy and scipy made
    # unimportable, every obge module imports, both state files load and an
    # in-process trace passes obge audit
    data = Path(__file__).parent / "data" / f"state_v{STATE_VERSION}"
    code = f"""
import importlib, pkgutil, random, sys
sys.modules["numpy"] = sys.modules["scipy"] = None
import obge
for mod in pkgutil.iter_modules(obge.__path__):
    importlib.import_module(f"obge.{{mod.name}}")
from obge.audit import QueryTruth, save_query_log
from obge.cli import main
from obge.graph import Graph
from obge.protocol import ControllerState, TrivialState, load_state, setup
from obge.server import deploy_inprocess
load_state({str(data / 'trivial-keys.bin')!r}, TrivialState)
load_state({str(data / 'controller.bin')!r}, ControllerState)
g = Graph(6, directed=True)
for u, v in [(0, 1), (1, 2), (3, 4), (4, 5)]:
    g.add_edge(u, v)
rng = random.Random(2)
host, _, client = deploy_inprocess(setup(g, rng=rng), rng=rng)
pairs = [(0, 2), (3, 5)] * 20
for u, v in pairs:
    client.query(u, v)
host.trace.save({str(tmp_path / 'trace.csv')!r})
save_query_log({str(tmp_path / 'queries.csv')!r}, [QueryTruth(u, v, 2) for u, v in pairs])
host.trees[0].save({str(tmp_path / 'tree_000.bin')!r})
assert main(["audit", "--trace", {str(tmp_path / 'trace.csv')!r}, "--queries", {str(tmp_path / 'queries.csv')!r},
             "--trees", {str(tmp_path)!r}]) == 0
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert "equal-length indistinguishability: PASS" in out.stdout
