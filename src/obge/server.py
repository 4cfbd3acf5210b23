"""Server daemon, transports, and deployment wiring.

The server owns the bucket storage (and, in the enhanced deployment, the
trust-boundary controller).  All interaction happens through wire messages
handed to ``ObgeServer.dispatch``.  TCP peers reach it through
``handle_raw``, which decodes their frames and, on an enhanced server,
refuses path reads and writes, so only the controller touches storage.
In-process peers -- the controller's own path traffic and clients deployed
in the same process -- use ``InProcessConnection``, which hands message
objects to ``dispatch`` without encoding frames.  The storage host records
the same widths either way, so traces match what a TCP peer would cause.
``RemoteStore`` turns either connection into the path store an engine
reads and writes through.
"""

from __future__ import annotations

import random
import socket
import socketserver
import threading
from dataclasses import dataclass
from pathlib import Path

from . import wire
from .exceptions import CapacityError, IntegrityError, ObgeError, ProtocolError
from .protocol import (
    EnclaveController,
    EnhancedClient,
    SetupResult,
    TrivialClient,
    load_controller,
    MODE_ENHANCED,
)
from .storage import StorageHost, TreeStorage


class ObgeServer:
    """Message dispatcher over one storage host."""

    def __init__(self, host: StorageHost, controller: EnclaveController | None = None):
        self.host = host
        self.controller = controller
        self._ctrl_lock = threading.Lock()

    def dispatch(self, msg: wire.Message) -> wire.Message:
        try:
            if isinstance(msg, wire.ReadPath):
                return wire.PathData(self.host.read_path(msg.tree_id, msg.leaf))
            if isinstance(msg, wire.WritePath):
                self.host.write_path(msg.tree_id, msg.leaf, msg.buckets)
                return wire.Ack()
            if isinstance(msg, wire.EnclaveRequest):
                if self.controller is None:
                    return wire.Error(wire.ERR_USAGE, "no controller deployed on this server")
                self.host.trace.append("EnclaveRequest", None, None, len(msg.ct))
                with self._ctrl_lock:  # controller state admits one query at a time
                    ct = self.controller.handle_request(msg.ct)
                self.host.trace.append("EnclaveResponse", None, None, len(ct))
                return wire.EnclaveResponse(ct)
        except (ProtocolError, IntegrityError, IndexError) as exc:
            return wire.Error(wire.ERR_PROTOCOL, str(exc))
        except CapacityError as exc:
            return wire.Error(wire.ERR_CAPACITY, str(exc))
        return wire.Error(wire.ERR_PROTOCOL, f"unsupported message {type(msg).__name__}")

    def handle_raw(self, mt: int, payload: bytes) -> bytes:
        """Answer one frame from a TCP peer.  With a controller deployed,
        only the controller may read or write paths."""
        try:
            msg = wire.decode_payload(mt, payload)
        except ProtocolError as exc:
            return wire.encode(wire.Error(wire.ERR_PROTOCOL, str(exc)))
        if self.controller is not None and isinstance(msg, (wire.ReadPath, wire.WritePath)):
            return wire.encode(
                wire.Error(wire.ERR_USAGE, "path access is reserved to the controller on this server")
            )
        return wire.encode(self.dispatch(msg))


def _reply(resp: wire.Message) -> wire.Message:
    if isinstance(resp, wire.Error):
        raise ProtocolError(f"server error {resp.code}: {resp.detail}")
    return resp


class InProcessConnection:
    """Connection to a server in the same process: message objects go
    straight to ``dispatch``, with no frame encoding."""

    def __init__(self, server: ObgeServer):
        self.server = server

    def request(self, msg: wire.Message) -> wire.Message:
        return _reply(self.server.dispatch(msg))

    def close(self) -> None:
        pass


class TcpConnection:
    """Client end of the TCP transport."""

    def __init__(self, address: tuple[str, int], timeout: float = 30.0):
        self.sock = socket.create_connection(address, timeout=timeout)
        self._rfile = self.sock.makefile("rb")

    def request(self, msg: wire.Message) -> wire.Message:
        self.sock.sendall(wire.encode(msg))
        got = wire.read_frame(self._rfile)
        if got is None:
            raise ProtocolError("connection closed by server")
        return _reply(wire.decode_payload(*got))

    def close(self) -> None:
        self._rfile.close()
        self.sock.close()


class RemoteStore:
    """Path store over a connection with ``request``: in-process or TCP."""

    def __init__(self, conn):
        self.conn = conn

    def read_path(self, tree_id: int, leaf: int) -> bytes:
        resp = self.conn.request(wire.ReadPath(tree_id, leaf))
        if not isinstance(resp, wire.PathData):
            raise ProtocolError(f"expected PathData, got {type(resp).__name__}")
        return resp.buckets

    def write_path(self, tree_id: int, leaf: int, data: bytes) -> None:
        resp = self.conn.request(wire.WritePath(tree_id, leaf, data))
        if not isinstance(resp, wire.Ack):
            raise ProtocolError(f"expected Ack, got {type(resp).__name__}")


def enclave_transport(conn):
    """Request/response closure the EnhancedClient drives."""

    def send(ct: bytes) -> bytes:
        resp = conn.request(wire.EnclaveRequest(ct))
        if not isinstance(resp, wire.EnclaveResponse):
            raise ProtocolError(f"expected EnclaveResponse, got {type(resp).__name__}")
        return resp.ct

    return send


def deploy_inprocess(
    result: SetupResult, rng: random.Random | None = None
) -> tuple[StorageHost, ObgeServer, TrivialClient | EnhancedClient]:
    """Wire a setup result into an in-process server and a ready client."""
    host = StorageHost()
    for tree in result.trees:
        host.add_tree(tree)
    server = ObgeServer(host)
    conn = InProcessConnection(server)
    if result.controller is not None:
        server.controller = EnclaveController(result.controller, RemoteStore(conn), rng=rng)
        client = EnhancedClient(result.client, enclave_transport(conn))
    else:
        client = TrivialClient(result.client, RemoteStore(conn), rng=rng)
    return host, server, client


# ---------------------------------------------------------------------------
# daemon

@dataclass
class ServerConfig:
    mode: str = "trivial"
    tree_path: str = "."
    listen_addr: str = "127.0.0.1:7399"
    trace_path: str | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, _, port = self.listen_addr.rpartition(":")
        return host or "127.0.0.1", int(port)


def load_config(path: str | Path) -> ServerConfig:
    cfg = ServerConfig()
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ProtocolError(f"config line {line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "mode":
            cfg.mode = value
        elif key == "tree_path":
            cfg.tree_path = value
        elif key == "listen_addr":
            cfg.listen_addr = value
        elif key == "trace_path":
            cfg.trace_path = value
        else:
            raise ProtocolError(f"config line {line_no}: unknown key {key!r}")
    return cfg


def save_config(path: str | Path, cfg: ServerConfig) -> None:
    lines = [
        f"mode = {cfg.mode}",
        f"tree_path = {cfg.tree_path}",
        f"listen_addr = {cfg.listen_addr}",
    ]
    if cfg.trace_path:
        lines.append(f"trace_path = {cfg.trace_path}")
    Path(path).write_text("\n".join(lines) + "\n")


def tree_files(directory: str | Path) -> list[Path]:
    return sorted(Path(directory).glob("tree_*.bin"))


def build_server(cfg: ServerConfig, rng: random.Random | None = None) -> ObgeServer:
    """Load persisted trees (and controller state) into a dispatcher."""
    host = StorageHost()
    files = tree_files(cfg.tree_path)
    if not files:
        raise ProtocolError(f"no tree files under {cfg.tree_path!r}")
    for f in files:
        host.add_tree(TreeStorage.load(f))
    server = ObgeServer(host)
    if cfg.mode == MODE_ENHANCED:
        state_path = Path(cfg.tree_path) / "controller.bin"
        if not state_path.exists():
            raise ProtocolError(f"enhanced mode needs {state_path}")
        state = load_controller(state_path)
        server.controller = EnclaveController(state, RemoteStore(InProcessConnection(server)), rng=rng)
    return server


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        rfile = self.request.makefile("rb")
        try:
            while True:
                try:
                    got = wire.read_frame(rfile)
                except ProtocolError as exc:
                    # the frame boundary is lost: answer once, then close
                    self.request.sendall(wire.encode(wire.Error(wire.ERR_PROTOCOL, str(exc))))
                    return
                if got is None:
                    return
                self.request.sendall(self.server.obge.handle_raw(*got))
        except (ConnectionError, OSError):
            return
        finally:
            rfile.close()


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class Daemon:
    """TCP front end; flushes storage, controller, and trace on shutdown."""

    def __init__(self, server: ObgeServer, cfg: ServerConfig):
        self.server = server
        self.cfg = cfg
        try:
            self.tcp = _ThreadingServer(cfg.address, _Handler)
        except OSError as exc:
            raise ObgeError(f"cannot bind {cfg.listen_addr}: {exc}")
        self.tcp.obge = server
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.tcp.server_address[1]

    def start(self) -> None:
        self._thread = threading.Thread(target=self.tcp.serve_forever, daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        self.tcp.serve_forever()

    def shutdown(self) -> None:
        self.tcp.shutdown()
        self.tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.flush()

    def flush(self) -> None:
        out = Path(self.cfg.tree_path)
        for tree_id, tree in self.server.host.trees.items():
            tree.save(out / f"tree_{tree_id:03d}.bin")
        if self.server.controller is not None:
            from .protocol import save_controller

            save_controller(out / "controller.bin", self.server.controller.state)
        if self.cfg.trace_path:
            self.server.host.trace.save(self.cfg.trace_path)
