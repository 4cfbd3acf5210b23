import logging
import random
import re
import sys
import threading
from pathlib import Path

import pytest

from obge import wire
from obge.audit import QueryTruth, audit_trace
from obge.blocks import TreeParams
from obge.crypto import Cipher, ciphertext_width
from obge.cli import main
from obge.exceptions import ConfigError, ObgeError, ProtocolError
from obge.graph import Graph, PathOracle
from obge.oram import oram_init
from obge.protocol import (
    EnhancedClient,
    TrivialClient,
    TrivialState,
    load_state,
    save_state,
    setup,
)
from obge.server import (
    Daemon,
    RemoteStore,
    ServerConfig,
    TcpConnection,
    build_server,
    deploy_inprocess,
    enclave_transport,
    load_config,
    parse_address,
    save_config,
    tree_files,
)
from obge.storage import StorageHost, TreeStorage
from conftest import chain_graph, decode_frame, read_one_frame


def make_deployment(mode="trivial", n=6, seed=4):
    g = Graph(n, directed=True)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    rng = random.Random(seed)
    result = setup(g, mode=mode, rng=rng)
    host, server, client = deploy_inprocess(result, rng=rng)
    return g, result, host, server, client


def deploy_to(directory, result):
    """Write a setup result's files into directory, as obge setup does, and
    return a config that serves them."""
    directory.mkdir(exist_ok=True)
    for tree in result.trees:
        tree.save(directory / f"tree_{tree.tree_id:03d}.bin")
    save_state(directory / "keys.bin", result.client)
    if result.controller is not None:
        save_state(directory / "controller.bin", result.controller)
    return ServerConfig(tree_path=str(directory), listen_addr="127.0.0.1:0", trace_path=str(directory / "trace.csv"))


def enhanced_chain(n):
    """An enhanced setup of an n-vertex chain at a 48-byte budget: a
    one-level map chain for 12 vertices (32-byte level payloads) and 15
    (48-byte ones), two levels for 24."""
    return setup(chain_graph(n), mode="enhanced", budget=48, rng=random.Random(n))


class TestDispatch:
    def test_read_path_shape(self):
        # a 15-vertex chain: the client caches the depth-6 data tree's top
        # 6 levels, so the host's path is level 6, the leaf bucket
        _, result, host, server, _ = make_deployment(n=15)
        params = host.trees[0].params
        assert params.cached == params.depth == 6
        resp = server.dispatch(wire.Access(read=(0, 0)))
        assert isinstance(resp, wire.PathData)
        assert params.bucket_width == ciphertext_width(1 + params.bucket_size * params.block_width)
        assert len(resp.buckets) == (params.depth + 1 - params.cached) * params.bucket_width

    def test_access_writes_then_reads(self):
        # one frame carries a write-back and the next read; the host applies
        # and records them in that order, as two separate requests would be
        _, _, host, server, _ = make_deployment()
        w = host.trees[0].params.path_width
        path = server.dispatch(wire.Access(read=(0, 1))).buckets
        resp = server.dispatch(wire.Access(write=(0, 1, path), read=(0, 0)))
        assert isinstance(resp, wire.PathData) and len(resp.buckets) == w
        assert server.dispatch(wire.Access(write=(0, 0, resp.buckets))) == wire.PathData(b"")
        assert server.dispatch(wire.Access()) == wire.PathData(b"")
        assert [(r.msg_type, r.tree_id, r.leaf, r.byte_count) for r in host.trace.records] == [
            ("ReadPath", 0, 1, w), ("WritePath", 0, 1, w), ("ReadPath", 0, 0, w), ("WritePath", 0, 0, w),
        ]

    def test_unknown_msg_type_keeps_connection(self):
        _, _, _, server, _ = make_deployment()
        resp = decode_frame(server.handle_raw(0xFE, b""))
        assert isinstance(resp, wire.Error)
        # the dispatcher is still usable afterwards
        ok = decode_frame(server.handle_raw(*read_one_frame(wire.encode(wire.Access(read=(0, 0))))))
        assert isinstance(ok, wire.PathData)

    def test_type_0x07_frame_cannot_replace_a_tree(self, tmp_path):
        # 0x07 once uploaded a whole tree file; it is no longer a message type
        _, _, host, server, _ = make_deployment()
        _, other, _, _, _ = make_deployment(seed=5)
        other.trees[0].save(tmp_path / "tree.bin")
        blob = (tmp_path / "tree.bin").read_bytes()
        frame = bytearray(wire.encode(wire.EnclaveRequest(blob)))  # opaque payload
        frame[3] = 0x07
        trees = {tid: bytes(t.buckets) for tid, t in host.trees.items()}
        resp = decode_frame(server.handle_raw(*read_one_frame(bytes(frame))))
        assert isinstance(resp, wire.Error) and resp.code == wire.ERR_PROTOCOL
        assert {tid: bytes(t.buckets) for tid, t in host.trees.items()} == trees

    def test_unknown_tree_adds_no_lock(self):
        host = StorageHost([])
        for op in (lambda: host.read_path(5, 0), lambda: host.write_path(9, 0, b"")):
            with pytest.raises(ProtocolError, match="unknown tree id"):
                op()
        assert host.trees == {} and len(host.trace) == 0

    def test_leaf_out_of_range_is_protocol_error(self):
        _, _, _, server, _ = make_deployment()
        resp = decode_frame(server.handle_raw(*read_one_frame(wire.encode(wire.Access(read=(0, 2**40))))))
        assert isinstance(resp, wire.Error) and resp.code == wire.ERR_PROTOCOL

    def test_enhanced_dispatch_refuses_access(self):
        # in process as over TCP: with a controller deployed, a raw Access
        # neither writes nor reads
        _, _, host, server, _ = make_deployment(mode="enhanced")
        tree = host.trees[0]
        before = bytes(tree.buckets)
        resp = server.dispatch(wire.Access(write=(0, 0, bytes(tree.params.path_width)), read=(0, 1)))
        assert isinstance(resp, wire.Error) and resp.code == wire.ERR_USAGE
        assert "reserved to the controller" in resp.detail
        assert bytes(tree.buckets) == before and len(host.trace) == 0

    def test_enclave_request_without_controller(self):
        _, _, _, server, _ = make_deployment(mode="trivial")
        resp = server.dispatch(wire.EnclaveRequest(b"x" * 42))
        assert isinstance(resp, wire.Error)
        with pytest.raises(ConfigError, match="no controller"):
            server.enclave(b"x" * 42)
        assert len(server.host.trace) == 0


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = ServerConfig(
            tree_path=str(tmp_path),
            listen_addr="127.0.0.1:9911",
            trace_path=str(tmp_path / "t.csv"),
        )
        save_config(tmp_path / "server.cfg", cfg)
        loaded = load_config(tmp_path / "server.cfg")
        assert loaded == cfg

    def test_relative_paths_are_read_from_the_files_directory(self, tmp_path, monkeypatch):
        (tmp_path / "d").mkdir()
        save_config(tmp_path / "d" / "server.cfg", ServerConfig(tree_path=".", trace_path="trace.csv"))
        monkeypatch.chdir(tmp_path)
        loaded = load_config("d/server.cfg")
        assert (loaded.tree_path, loaded.trace_path) == ("d", str(Path("d") / "trace.csv"))

    @pytest.mark.parametrize(
        "text, address",
        [("127.0.0.1:7399", ("127.0.0.1", 7399)), (":0", ("127.0.0.1", 0)), ("localhost:65535", ("localhost", 65535))],
    )
    def test_address(self, text, address):
        assert parse_address(text) == address

    @pytest.mark.parametrize("text", ["127.0.0.1", "127.0.0.1:", "host:port", "host:65536", "host:-1", "host:٣"])
    def test_bad_address_is_a_config_error(self, text):
        # an address without a port once failed as "invalid literal for int()"
        with pytest.raises(ConfigError, match=f"address {text!r} is not host:port"):
            parse_address(text)

    def test_unknown_key_rejected(self, tmp_path):
        (tmp_path / "bad.cfg").write_text("nonsense = 1\n")
        with pytest.raises(ProtocolError):
            load_config(tmp_path / "bad.cfg")

    @pytest.mark.parametrize("mode", ["trivial", "enhanced", "enhnced"])
    def test_mode_line_is_an_unknown_key(self, tmp_path, capsys, mode):
        # the files decide the mode; a mode line, right or misspelt, is refused
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"tree_path = {tmp_path}\nmode = {mode}\n")
        with pytest.raises(ProtocolError, match="config line 2: unknown key 'mode'"):
            load_config(cfg)
        assert main(["serve", "--config", str(cfg)]) == 2
        assert "config line 2: unknown key 'mode'" in capsys.readouterr().err

    def test_missing_trees_rejected(self, tmp_path):
        save_config(tmp_path / "server.cfg", ServerConfig(tree_path=str(tmp_path)))
        with pytest.raises(ProtocolError):
            build_server(load_config(tmp_path / "server.cfg"))

    @pytest.mark.parametrize(
        "donor, name, match",
        [
            (15, "tree_000.bin", "tree file .*tree_000.bin: tree 0 has geometry"),
            (15, "tree_001.bin", "tree file .*tree_001.bin: tree 1 has geometry"),
            (24, "tree_002.bin", r"describes trees \[0, 1\] \(1 \+ chain depth 1\), .* hold trees \[0, 1, 2\]"),
        ],
        ids=["data-tree", "map-level", "extra-level"],
    )
    def test_tree_file_from_another_setup_is_refused(self, tmp_path, donor, name, match):
        # an enhanced deployment of a 12-vertex chain (a depth-5 data tree
        # and one map level, 32 entries a block) with a tree file of
        # another setup swapped or added in: the start is refused, naming
        # the file, where once every query failed.  A 15-vertex chain's map
        # level has 48-byte payloads; a 24-vertex chain's map has two levels
        cfg = deploy_to(tmp_path / "ours", enhanced_chain(12))
        build_server(cfg)
        deploy_to(tmp_path / "theirs", enhanced_chain(donor))
        (tmp_path / "ours" / name).write_bytes((tmp_path / "theirs" / name).read_bytes())
        with pytest.raises(ProtocolError, match=match):
            build_server(cfg)

    @pytest.mark.parametrize(
        "case, match",
        [
            ("enhanced-chain-without-controller", r"with no .*controller\.bin, .* must hold a trivial deployment's "
             r"tree 0 alone, but its tree files hold trees \[0, 1\]"),
            ("enhanced-flat-without-controller", r"tree file .*tree_000\.bin: tree 0 caches 0 of its 6 levels, "
             r"where a trivial deployment caches 5; an enhanced deployment needs .*controller\.bin"),
            ("trivial-with-enhanced-tree-0", r"tree 0 caches 0 of its 6 levels, where a trivial deployment caches 5"),
            ("trivial-with-extra-tree", r"tree 0 alone, but its tree files hold trees \[0, 1\]"),
            ("trivial-for-two-host-levels", r"tree 0 caches 4 of its 6 levels, where a trivial deployment caches 5; "
             r"set the deployment up again"),
        ],
    )
    def test_mode_comes_from_the_files(self, tmp_path, case, match):
        # a 12-vertex chain gets a depth-5 data tree, of which a trivial
        # client caches 5 levels and a controller none.  Without
        # controller.bin only a trivial deployment's tree 0 is served: an
        # enhanced deployment whose controller.bin is missing, and a trivial
        # one with another setup's tree swapped or added in, are refused
        # at start, where once a mode setting decided and any trees served.
        # A trivial tree 0 that caches 4, as when the host stored two
        # levels, is refused as set up by an older release
        trivial = setup(chain_graph(12), mode="trivial", rng=random.Random(1))
        if case == "enhanced-chain-without-controller":
            cfg = deploy_to(tmp_path / "d", enhanced_chain(12))
        elif case == "enhanced-flat-without-controller":
            cfg = deploy_to(tmp_path / "d", setup(chain_graph(12), mode="enhanced", rng=random.Random(1)))
        elif case == "trivial-for-two-host-levels":
            cfg = deploy_to(tmp_path / "d", trivial)
            tp = trivial.trees[0].params
            old = TreeParams(tp.depth, tp.bucket_size, tp.payload_width, tp.cached - 1)
            oram_init(b"", old, Cipher(trivial.keys.k2), random.Random(1))[1].save(tmp_path / "d" / "tree_000.bin")
        else:
            cfg = deploy_to(tmp_path / "d", trivial)
            build_server(cfg)
            deploy_to(tmp_path / "e", enhanced_chain(12))
            name = "tree_000.bin" if case == "trivial-with-enhanced-tree-0" else "tree_001.bin"
            (tmp_path / "d" / name).write_bytes((tmp_path / "e" / name).read_bytes())
        (tmp_path / "d" / "controller.bin").unlink(missing_ok=True)
        with pytest.raises(ProtocolError, match=match):
            build_server(cfg)

    @pytest.mark.parametrize("case", ["trivial-renamed", "enhanced-swapped"])
    def test_tree_file_named_for_another_id_is_refused(self, tmp_path, case):
        # a trivial directory whose only file, tree_005.bin, held tree 0
        # once started, and its final flush wrote tree_000.bin beside it,
        # so the next start was refused.  Swapped enhanced tree files are
        # refused by name as well, before their geometry is compared
        d = tmp_path / "d"
        if case == "trivial-renamed":
            cfg = deploy_to(d, setup(chain_graph(12), mode="trivial", rng=random.Random(1)))
            (d / "tree_000.bin").rename(d / "tree_005.bin")
            bad, held = d / "tree_005.bin", 0
        else:
            cfg = deploy_to(d, enhanced_chain(12))
            (d / "tree_000.bin").rename(d / "swap")
            (d / "tree_001.bin").rename(d / "tree_000.bin")
            (d / "swap").rename(d / "tree_001.bin")
            bad, held = d / "tree_000.bin", 1
        home = d / f"tree_{held:03d}.bin"
        with pytest.raises(ProtocolError, match=re.escape(f"tree file {bad} holds tree {held}, which belongs in {home}")):
            build_server(cfg)

    @pytest.mark.parametrize("n", [1, 2])
    def test_depth_one_enhanced_trees_serve_as_trivial(self, tmp_path, n):
        # at depth 0 or 1 both deployments cache no level, so an enhanced
        # tree without controller.bin is a trivial deployment's, and an
        # enhanced client gets the named "no controller" error
        result = setup(Graph(n, directed=True), mode="enhanced", rng=random.Random(1))
        assert result.trees[0].params.depth <= 1
        cfg = deploy_to(tmp_path, result)
        (tmp_path / "controller.bin").unlink()
        server = build_server(cfg)
        assert server.controller is None
        with pytest.raises(ConfigError, match="no controller deployed"):
            EnhancedClient(result.client, server.enclave).query_path(0, 0)


class TestDaemon:
    def _spin_up(self, tmp_path, mode="trivial"):
        g, result, host, _, _ = make_deployment(mode=mode)
        cfg = deploy_to(tmp_path, result)
        server = build_server(cfg, rng=random.Random(7))
        daemon = Daemon(server, cfg)
        daemon.start()
        return g, result, cfg, daemon

    def test_tcp_query_and_durability(self, tmp_path):
        g, result, cfg, daemon = self._spin_up(tmp_path)
        try:
            conn = TcpConnection(("127.0.0.1", daemon.port))
            client = TrivialClient(result.client, RemoteStore(conn), rng=random.Random(3))
            assert client.query_path(0, 5) == [0, 1, 2, 3, 4, 5]
            assert client.query_path(5, 0) is None
            conn.close()
        finally:
            daemon.shutdown()
        # flushed files must load back to the exact last quiescent state
        reloaded = TreeStorage.load(tmp_path / "tree_000.bin")
        assert (tmp_path / "trace.csv").exists()
        server2 = build_server(cfg)
        assert server2.host.trees[0].buckets == reloaded.buckets

    def test_tcp_enhanced_query(self, tmp_path):
        from obge.protocol import EnhancedClient
        from obge.server import enclave_transport

        g, result, cfg, daemon = self._spin_up(tmp_path, mode="enhanced")
        try:
            conn = TcpConnection(("127.0.0.1", daemon.port))
            client = EnhancedClient(result.client, enclave_transport(conn))
            assert client.query_path(0, 3) == [0, 1, 2, 3]
            assert client.query_path(2, 2) == []
            conn.close()
        finally:
            daemon.shutdown()

    def test_start_and_flush_are_logged(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="obge.server")
        g, result, cfg, daemon = self._spin_up(tmp_path)
        daemon.shutdown()
        p = result.trees[0].params
        messages = [r.getMessage() for r in caplog.records if r.name == "obge.server"]
        assert messages[0] == f"serving trivial mode on 127.0.0.1:{daemon.port}"
        assert p.depth + 1 - p.cached == 1
        assert messages[1] == f"tree 0: depth {p.depth}, {p.cached} cached levels, host path 1 bucket ({p.path_width} bytes)"
        assert messages[2] == f"flushed {tmp_path / 'tree_000.bin'}, {tmp_path / 'trace.csv'}"
        assert len(messages) == 3

    def test_logged_mode_is_the_one_served(self, tmp_path, caplog):
        # a daemon over an in-process enhanced deployment serves, and so
        # logs, enhanced mode: the controller decides, not the config
        caplog.set_level(logging.INFO, logger="obge.server")
        _, _, _, server, _ = make_deployment(mode="enhanced")
        daemon = Daemon(server, ServerConfig(tree_path=str(tmp_path), listen_addr="127.0.0.1:0"))
        daemon.start()
        daemon.shutdown()
        messages = [r.getMessage() for r in caplog.records if r.name == "obge.server"]
        assert messages[0] == f"serving enhanced mode on 127.0.0.1:{daemon.port}"

    def test_garbage_bytes_get_error_frame(self, tmp_path, caplog):
        import socket

        g, result, cfg, daemon = self._spin_up(tmp_path)
        try:
            s = socket.create_connection(("127.0.0.1", daemon.port), timeout=10)
            s.sendall(b"GARBAGE-NOT-A-FRAME" + b"\x00" * 20)
            data = b""
            while chunk := s.recv(4096):  # read to EOF
                data += chunk
            s.close()
            # one error frame instead of dying, then the server closes the
            # stream rather than parse the rest of the garbage as headers
            stream = _Reader(data)
            resp = wire.decode_payload(*wire.read_frame(stream))
            assert isinstance(resp, wire.Error) and resp.code == wire.ERR_PROTOCOL
            assert wire.read_frame(stream) is None
        finally:
            daemon.shutdown()
        warnings = [r for r in caplog.records if r.name == "obge.server" and r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "malformed frame" in warnings[0].getMessage()

    def test_oversized_frame_is_refused_before_its_payload(self, tmp_path):
        import socket
        import struct

        g, result, cfg, daemon = self._spin_up(tmp_path)
        try:
            s = socket.create_connection(("127.0.0.1", daemon.port), timeout=10)
            # a header alone, declaring one byte past the cap: the server must
            # answer without waiting for a payload that never comes
            header = struct.pack(">2sBBI", wire.MAGIC, wire.VERSION, wire.MSG_ACCESS, wire.MAX_PAYLOAD + 1)
            s.sendall(header)
            data = b""
            while chunk := s.recv(4096):  # read to EOF
                data += chunk
            s.close()
            stream = _Reader(data)
            resp = wire.decode_payload(*wire.read_frame(stream))
            assert isinstance(resp, wire.Error) and resp.code == wire.ERR_PROTOCOL
            assert "exceeds" in resp.detail
            assert wire.read_frame(stream) is None
        finally:
            daemon.shutdown()

    def test_previous_wire_version_is_refused_by_version(self, tmp_path):
        # a wire-version-2 client's first frame, an enclave request under
        # the session key with no direction label: the daemon names the
        # version, not an authentication failure, and the controller
        # touches no path
        import socket
        import struct

        from obge.crypto import encode_pair

        g, result, cfg, daemon = self._spin_up(tmp_path, mode="enhanced")
        try:
            before = len(daemon.server.host.trace)
            ct = Cipher(result.client.session_key).encrypt(encode_pair(0, 5))
            s = socket.create_connection(("127.0.0.1", daemon.port), timeout=10)
            s.sendall(struct.pack(">2sBBI", wire.MAGIC, 2, wire.MSG_ENCLAVE_REQUEST, len(ct)) + ct)
            data = b""
            while chunk := s.recv(4096):  # read to EOF
                data += chunk
            s.close()
            resp = wire.decode_payload(*wire.read_frame(_Reader(data)))
            assert isinstance(resp, wire.Error) and resp.code == wire.ERR_PROTOCOL
            assert resp.detail == "unsupported version 2"
            assert len(daemon.server.host.trace) == before
        finally:
            daemon.shutdown()

    @pytest.mark.parametrize("mode", ["trivial", "enhanced"])
    def test_tcp_path_access_only_without_controller(self, tmp_path, mode):
        g, result, cfg, daemon = self._spin_up(tmp_path, mode=mode)
        try:
            conn = TcpConnection(("127.0.0.1", daemon.port))
            store = RemoteStore(conn)
            host = daemon.server.host
            tree = host.trees[0]
            before = bytes(tree.buckets)
            if mode == "trivial":
                path = store.read_path(0, 0)
                store.write_path(0, 0, path)
                store.flush()
                assert len(path) == tree.params.path_width
                assert [r.msg_type for r in host.trace.records] == ["ReadPath", "WritePath"]
            else:
                # a write is refused when it is sent: on flush, or with the next read
                def write_then_flush():
                    store.write_path(0, 0, bytes(tree.params.path_width))
                    store.flush()

                for op in (write_then_flush, lambda: store.read_path(0, 0)):
                    with pytest.raises(ConfigError, match=f"server error {wire.ERR_USAGE}:"):
                        op()
                    assert store.pending is None
                assert bytes(tree.buckets) == before
                assert [r.msg_type for r in host.trace.records] == []
            conn.close()
        finally:
            daemon.shutdown()

    def test_enhanced_server_refuses_raw_write_and_read(self, tmp_path):
        import socket

        g, result, cfg, daemon = self._spin_up(tmp_path, mode="enhanced")
        try:
            host = daemon.server.host
            tree = host.trees[0]
            before = bytes(tree.buckets)
            access = wire.Access(write=(0, 0, bytes(tree.params.path_width)), read=(0, 1))
            with socket.create_connection(("127.0.0.1", daemon.port), timeout=10) as s:
                s.sendall(wire.encode(access))
                with s.makefile("rb") as rfile:
                    resp = wire.decode_payload(*wire.read_frame(rfile))
            assert isinstance(resp, wire.Error) and resp.code == wire.ERR_USAGE
            assert bytes(tree.buckets) == before
            assert len(host.trace) == 0
        finally:
            daemon.shutdown()

    def test_tcp_and_inprocess_deployments_agree(self, tmp_path):
        # over TCP each round's write-back rides with the next round's read
        # and the query flushes the last one before it returns
        g, result, cfg, daemon = self._spin_up(tmp_path)
        try:
            # the same setup in process: trees and keys from the files the
            # daemon loaded, and the same leaf sampler seed
            host = StorageHost(TreeStorage.load(f) for f in tree_files(tmp_path))
            local = TrivialClient(load_state(tmp_path / "keys.bin", TrivialState), host, rng=random.Random(3))
            conn = TcpConnection(("127.0.0.1", daemon.port))
            store = RemoteStore(conn)
            remote = TrivialClient(result.client, store, rng=random.Random(3))
            tcp_trace = daemon.server.host.trace.records
            pairs = random.Random(11)
            for _ in range(40):
                u, v = pairs.randrange(6), pairs.randrange(6)
                assert remote.query_path(u, v) == local.query_path(u, v)
                assert store.pending is None
                # every record of the query is on the host when it returns
                assert len(tcp_trace) == len(host.trace.records)
            conn.close()
        finally:
            daemon.shutdown()

        def shape(records):
            return [(r.msg_type, r.tree_id, r.leaf, r.byte_count) for r in records]

        assert shape(tcp_trace) == shape(host.trace.records)

    @pytest.mark.parametrize("pair", [(0, 5), (5, 0)], ids=["six-rounds", "one-round"])
    def test_refused_write_fails_its_query(self, tmp_path, monkeypatch, pair):
        # the first write is refused: with the second round's read, or, in
        # a one-round query, by the flush
        g, result, cfg, daemon = self._spin_up(tmp_path)
        try:
            host = daemon.server.host

            def refuse(tree_id, leaf, data):
                raise ProtocolError("storage refuses writes")

            monkeypatch.setattr(host, "write_path", refuse)
            conn = TcpConnection(("127.0.0.1", daemon.port))
            store = RemoteStore(conn)
            client = TrivialClient(result.client, store, rng=random.Random(3))
            with pytest.raises(ProtocolError, match=f"server error {wire.ERR_PROTOCOL}: storage refuses writes"):
                client.query_path(*pair)
            assert store.pending is None
            assert [r.msg_type for r in host.trace.records] == ["ReadPath"]
            conn.close()
        finally:
            daemon.shutdown()

    def test_shutdown_waits_for_the_query_in_hand(self, tmp_path, monkeypatch):
        # an enhanced 12-vertex chain with a one-level map.  The first query
        # is held in its second path read, the data tree's, after it has
        # remapped its top cell and written the map level back.  Shutdown
        # must wait for the query, so the files it flushes agree with each
        # other: a server started from them answers every pair
        g = chain_graph(12)
        result = enhanced_chain(12)
        cfg = deploy_to(tmp_path, result)
        daemon = Daemon(build_server(cfg, rng=random.Random(7)), cfg)
        host = daemon.server.host
        reads, held, release = [], threading.Event(), threading.Event()
        read_path = host.read_path

        def read_and_hold(tree_id, leaf):
            reads.append(tree_id)
            if len(reads) == 2:
                held.set()
                release.wait(timeout=30)
            return read_path(tree_id, leaf)

        monkeypatch.setattr(host, "read_path", read_and_hold)
        daemon.start()
        answers = []
        conn = TcpConnection(("127.0.0.1", daemon.port))
        client = EnhancedClient(result.client, enclave_transport(conn))
        querier = threading.Thread(target=lambda: answers.append(client.query_path(0, 11)))
        stopper = threading.Thread(target=daemon.shutdown)
        try:
            querier.start()
            assert held.wait(timeout=30)
            stopper.start()
            daemon._thread.join(timeout=10)  # the accept loop is done; the flush comes next
            stopper.join(timeout=1)
            assert stopper.is_alive(), "shutdown flushed while a query was applied"
        finally:
            release.set()
            querier.join(timeout=30)
            if stopper.ident is None:
                stopper.start()
            stopper.join(timeout=30)
            conn.close()
        assert not querier.is_alive() and not stopper.is_alive()
        assert reads[:2] == [1, 0] and answers == [list(range(12))]
        oracle = PathOracle(g)
        again = EnhancedClient(result.client, build_server(cfg, rng=random.Random(8)).enclave)
        assert [again.query_path(u, v) for u in range(12) for v in range(12)] == [
            oracle.path(u, v) for u in range(12) for v in range(12)
        ]

    @pytest.mark.parametrize("mode", ["trivial", "enhanced"])
    def test_request_after_the_final_flush_is_refused(self, tmp_path, mode):
        # a connection left open across shutdown: its next request is
        # answered with an error frame and applies nothing, in memory or
        # in the flushed files
        g, result, cfg, daemon = self._spin_up(tmp_path, mode=mode)
        host = daemon.server.host
        conn = TcpConnection(("127.0.0.1", daemon.port))
        try:
            if mode == "trivial":
                path = RemoteStore(conn).read_path(0, 0)
                late = lambda: conn.request(wire.Access(write=(0, 0, path), read=(0, 1)))  # noqa: E731
            else:
                client = EnhancedClient(result.client, enclave_transport(conn))
                assert client.query_path(0, 5) == [0, 1, 2, 3, 4, 5]
                late = lambda: client.query_path(0, 5)  # noqa: E731
            daemon.shutdown()
            files = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
            buckets, records = bytes(host.trees[0].buckets), len(host.trace)
            with pytest.raises(ProtocolError, match=f"server error {wire.ERR_PROTOCOL}: the server has shut down"):
                late()
            assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == files
            assert bytes(host.trees[0].buckets) == buckets and len(host.trace) == records
        finally:
            conn.close()

    def test_bind_failure_is_clean_error(self, tmp_path):
        g, result, cfg, daemon = self._spin_up(tmp_path)
        try:
            cfg2 = ServerConfig(tree_path=cfg.tree_path, listen_addr=f"127.0.0.1:{daemon.port}")
            with pytest.raises(ObgeError, match="bind"):
                Daemon(build_server(cfg2), cfg2)
        finally:
            daemon.shutdown()


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self, n: int) -> bytes:
        out = self.data[self.pos : self.pos + n]
        self.pos += len(out)
        return out


def test_concurrent_accesses_apply_whole():
    # four threads of 300 write-and-read Access frames through dispatch, as
    # a daemon's handler threads would send them: thread t writes leaf 2t
    # and reads leaf 2t+1, so each WritePath record must be followed at
    # once by its own frame's ReadPath, with no other request between
    _, _, host, server, _ = make_deployment(n=15)
    width = host.trees[0].params.path_width
    errors = []

    def run(t):
        try:
            for _ in range(300):
                resp = server.dispatch(wire.Access(write=(0, 2 * t, bytes(width)), read=(0, 2 * t + 1)))
                assert isinstance(resp, wire.PathData) and len(resp.buckets) == width
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so frames overlap
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    records = [(r.msg_type, r.leaf) for r in host.trace.records]
    assert len(records) == 2 * 4 * 300
    for write, read in zip(records[::2], records[1::2]):
        assert write[0] == "WritePath" and read == ("ReadPath", write[1] + 1), "a frame applied in parts"


def test_concurrent_enhanced_queries_frame_their_own_records():
    # three threads of 100 queries on one controller: each query's path
    # records fall between its own EnclaveRequest and EnclaveResponse, so
    # at most one request is open at a time and the whole trace audits.
    # Every query is (0, 3), so the query log is the same in any order
    rng = random.Random(11)
    result = setup(chain_graph(30), mode="enhanced", rng=rng)
    host, _, client = deploy_inprocess(result, rng=rng)
    errors = []

    def run():
        try:
            for _ in range(100):
                assert client.query_path(0, 3) == [0, 1, 2, 3]
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so queries overlap
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    open_requests = most_open = 0
    for r in host.trace.records:
        if r.msg_type == "EnclaveRequest":
            open_requests += 1
        elif r.msg_type == "EnclaveResponse":
            open_requests -= 1
        else:
            assert open_requests == 1, "path record outside its query's request and response"
        most_open = max(most_open, open_requests)
    assert most_open == 1 and open_requests == 0
    trees = {t: tree.params for t, tree in host.trees.items()}
    report = audit_trace(host.trace, [QueryTruth(0, 3, 3)] * 300, trees)
    assert report.shape_ok, report.shape_fault
