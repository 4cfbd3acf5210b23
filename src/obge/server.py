"""Server daemon, transports, and deployment wiring.

The server owns the bucket storage (and, in the enhanced deployment, the
trust-boundary controller).  TCP peers send wire frames to ``handle_raw``,
which decodes them and hands the message to ``dispatch``.  ``dispatch``
refuses ``Access`` on an enhanced server, so only the controller touches
storage, and otherwise applies an ``Access``'s write and then its read.
``RemoteStore`` turns a ``TcpConnection`` into the path store a remote
trivial client's engine reads and writes through, and ``enclave_transport``
into an enhanced client's request/response channel.

The server has one lock.  An ``Access`` (its write and its read together),
an enclave query and the daemon's final flush each run whole under it, so
no request interleaves with another, the flushed files hold no part of a
request, and no request is applied after them: a late one gets an error.

A deployment directory decides its own mode: it is enhanced exactly when
``controller.bin`` is there (``build_server``).  A ``ServerConfig`` names
only where the files are, where the trace goes and the listen address;
``obge serve DIR`` builds one for DIR.

A path store has three methods: ``read_path``, ``write_path`` and
``flush``.  ``RemoteStore`` holds each write back and sends it in the
``Access`` frame of the next read, so an ORAM round is one round trip;
``flush`` sends a held write on its own, and the query engine calls it
before every query returns, on success or error, so that the server has
every write of a query once the query is over.  A write the server refuses
therefore surfaces from the next read or the flush, from the same query.
The host applies and records each write before the read it travels with,
so its trace is the one two separate requests would leave.

Engines inside the server process -- the controller, and clients deployed
in the same process -- are handed the ``StorageHost`` itself, which has the
same three methods (its ``flush`` has nothing to do); an in-process
enhanced client calls ``ObgeServer.enclave``.  Their errors arrive as the
named exceptions.  A TCP peer gets an error frame instead, and
``TcpConnection`` raises its code's exception: ``ConfigError`` for a usage
error, ``CapacityError`` for a capacity one, such as a stash overflow, and
``ProtocolError`` otherwise.  The storage host records
every path access, so traces are the same whichever way it is reached.

The daemon logs to the ``obge.server`` logger: its start (address, the
mode it serves, enhanced exactly when a controller is deployed, and each
tree's id, depth, cached levels and host path width), each flush
(the files written) and each malformed frame answered with an error frame.
Nothing is logged per request, and nothing the host does not already see.
"""

from __future__ import annotations

import logging
import random
import socket
import socketserver
import threading
from dataclasses import dataclass
from pathlib import Path

from . import wire
from .exceptions import CapacityError, ConfigError, IntegrityError, ProtocolError
from .protocol import (
    DATA_TREE_ID,
    MODE_ENHANCED,
    MODE_TRIVIAL,
    ControllerState,
    EnclaveController,
    EnhancedClient,
    SetupResult,
    TrivialClient,
    load_state,
    save_state,
)
from .storage import StorageHost, TreeStorage, check_tree_file, tree_file, tree_files

log = logging.getLogger(__name__)

# seconds a TCP client waits to connect, and then for each answer
SOCKET_TIMEOUT = 30.0
# seconds between a started daemon's checks for shutdown, so stopping it
# waits at most this long
POLL_INTERVAL = 0.05
# the exception a TCP client raises for an error frame of each code
_ERROR_OF_CODE = {wire.ERR_USAGE: ConfigError, wire.ERR_CAPACITY: CapacityError}


class ObgeServer:
    """Message dispatcher over one storage host and, in the enhanced
    deployment, its controller.  ``lock`` serializes every request that
    touches them and the daemon's final flush, which sets ``closed``: from
    then on every request is refused."""

    def __init__(self, host: StorageHost, controller: EnclaveController | None = None):
        self.host = host
        self.controller = controller
        self.lock = threading.Lock()
        self.closed = False

    def dispatch(self, msg: wire.Message) -> wire.Message:
        """Answer one message.  With a controller deployed, only the
        controller may read or write paths: every Access is refused."""
        try:
            if isinstance(msg, wire.Access):
                if self.controller is not None:
                    return wire.Error(wire.ERR_USAGE, "path access is reserved to the controller on this server")
                with self.lock:
                    self._check_open()
                    if msg.write is not None:
                        self.host.write_path(*msg.write)
                    return wire.PathData(b"" if msg.read is None else self.host.read_path(*msg.read))
            if isinstance(msg, wire.EnclaveRequest):
                if self.controller is None:
                    return wire.Error(wire.ERR_USAGE, "no controller deployed on this server")
                return wire.EnclaveResponse(self.enclave(msg.ct))
        except (ProtocolError, IntegrityError, IndexError) as exc:
            return wire.Error(wire.ERR_PROTOCOL, str(exc))
        except CapacityError as exc:
            return wire.Error(wire.ERR_CAPACITY, str(exc))
        return wire.Error(wire.ERR_PROTOCOL, f"unsupported message {type(msg).__name__}")

    def enclave(self, ct: bytes) -> bytes:
        """Hand one session-encrypted query to the controller and return its
        session-encrypted answer; the host sees both widths."""
        if self.controller is None:
            raise ConfigError("no controller deployed on this server")
        # controller state admits one query at a time, and the trace frames
        # each query's path records with its own request and response
        with self.lock:
            self._check_open()
            self.host.trace.append("EnclaveRequest", None, None, len(ct))
            out = self.controller.handle_request(ct)
            self.host.trace.append("EnclaveResponse", None, None, len(out))
        return out

    def _check_open(self) -> None:
        """Called under the lock: nothing is applied after the final flush."""
        if self.closed:
            raise ProtocolError("the server has shut down and applies no more requests")

    def handle_raw(self, mt: int, payload: bytes) -> bytes:
        """Answer one frame from a TCP peer."""
        try:
            msg = wire.decode_payload(mt, payload)
        except ProtocolError as exc:
            log.warning("answered a malformed frame with an error: %s", exc)
            return wire.encode(wire.Error(wire.ERR_PROTOCOL, str(exc)))
        return wire.encode(self.dispatch(msg))


class TcpConnection:
    """Client end of the TCP transport.  Socket failures, from connecting
    or mid-request, surface as ProtocolError naming the server address, and
    an error frame as the exception of its code."""

    def __init__(self, address: tuple[str, int]):
        self.peer = f"{address[0]}:{address[1]}"
        try:
            self.sock = socket.create_connection(address, timeout=SOCKET_TIMEOUT)
        except OSError as exc:
            raise ProtocolError(f"cannot connect to {self.peer}: {exc}") from exc
        self._rfile = self.sock.makefile("rb")

    def request(self, msg: wire.Message) -> wire.Message:
        try:
            self.sock.sendall(wire.encode(msg))
            got = wire.read_frame(self._rfile)
        except OSError as exc:
            raise ProtocolError(f"connection to {self.peer} failed: {exc}") from exc
        if got is None:
            raise ProtocolError(f"connection closed by server {self.peer}")
        resp = wire.decode_payload(*got)
        if isinstance(resp, wire.Error):
            raise _ERROR_OF_CODE.get(resp.code, ProtocolError)(f"server error {resp.code}: {resp.detail}")
        return resp

    def close(self) -> None:
        self._rfile.close()
        self.sock.close()


class RemoteStore:
    """Path store over a connection with ``request``.  A write waits in
    ``pending`` and goes in the frame of the next read, or alone on flush;
    it leaves ``pending`` when its frame is sent, whatever the answer."""

    def __init__(self, conn):
        self.conn = conn
        self.pending: tuple[int, int, bytes] | None = None

    def read_path(self, tree_id: int, leaf: int) -> bytes:
        return self._access((tree_id, leaf))

    def write_path(self, tree_id: int, leaf: int, data: bytes) -> None:
        self.flush()
        self.pending = (tree_id, leaf, data)

    def flush(self) -> None:
        if self.pending is not None and self._access(None):
            raise ProtocolError("server answered a lone write with path data")

    def _access(self, read: tuple[int, int] | None) -> bytes:
        write, self.pending = self.pending, None
        resp = self.conn.request(wire.Access(write, read))
        if not isinstance(resp, wire.PathData):
            raise ProtocolError(f"expected PathData, got {type(resp).__name__}")
        return resp.buckets


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
    host = StorageHost(result.trees)
    if result.controller is None:
        return host, ObgeServer(host), TrivialClient(result.client, host, rng=rng)
    server = ObgeServer(host, EnclaveController(result.controller, host, rng=rng))
    return host, server, EnhancedClient(result.client, server.enclave)


# ---------------------------------------------------------------------------
# daemon

def parse_address(text: str) -> tuple[str, int]:
    """``host:port`` as (host, port), an empty host standing for
    127.0.0.1; anything else is a ConfigError naming the address."""
    host, sep, port = text.rpartition(":")
    if not (sep and port.isascii() and port.isdigit() and int(port) <= 65535):
        raise ConfigError(f"address {text!r} is not host:port with a port from 0 to 65535")
    return host or "127.0.0.1", int(port)


@dataclass
class ServerConfig:
    tree_path: str = "."
    listen_addr: str = "127.0.0.1:7399"
    trace_path: str | None = None

    @property
    def address(self) -> tuple[str, int]:
        return parse_address(self.listen_addr)


def build_server(cfg: ServerConfig, rng: random.Random | None = None) -> ObgeServer:
    """Load a deployment's trees, and its controller if it has one, into a
    dispatcher.  The files decide the mode.  With controller.bin in the
    tree directory the server is enhanced, and every tree file must hold
    the geometry controller.bin derives for its tree id, one file per tree.
    Without it the directory must be a trivial deployment's: tree 0 alone,
    caching every level but the leaves, k = L; a tree 0 that caches other
    levels is an enhanced one whose controller.bin is missing, or one an
    older release set up for more host levels.
    Anything else, such as enhanced trees whose controller.bin is missing,
    a foreign or extra tree file, or a file not named for the tree id in
    its header (``tree_file``; the final flush would write that tree beside
    it), is refused with a ProtocolError.  Only at depth 0 do both
    deployments cache no level (a trivial client caches every level but
    the leaves), so an enhanced directory without controller.bin is served
    as trivial there, and an enhanced client then gets the "no controller
    deployed" error."""
    files = tree_files(cfg.tree_path)
    if not files:
        raise ProtocolError(f"no tree files under {cfg.tree_path!r}")
    trees = [TreeStorage.load(f) for f in files]
    for f, tree in zip(files, trees):
        check_tree_file(f, cfg.tree_path, tree.tree_id)
    ids = sorted(tree.tree_id for tree in trees)
    host = StorageHost(trees)
    state_path = Path(cfg.tree_path) / "controller.bin"
    if not state_path.exists():
        if ids != [DATA_TREE_ID]:
            raise ProtocolError(
                f"with no {state_path}, {cfg.tree_path!r} must hold a trivial deployment's tree 0 alone, "
                f"but its tree files hold trees {ids}"
            )
        p = trees[0].params
        if p.cached != p.depth:
            # a controller caches no level; a trivial tree that caches some
            # was written for another host level count, by an older release
            hint = f"an enhanced deployment needs {state_path}" if p.cached == 0 else "set the deployment up again"
            raise ProtocolError(
                f"tree file {files[0]}: tree 0 caches {p.cached} of its {p.depth + 1} levels, where a trivial "
                f"deployment caches {p.depth}; {hint}"
            )
        return ObgeServer(host)
    state = load_state(state_path, ControllerState)
    expected = {engine.tree_id: engine.params for engine in (state.oram, *state.positions.levels)}
    if ids != sorted(expected):
        raise ProtocolError(
            f"{state_path} describes trees {sorted(expected)} (1 + chain depth {state.positions.chain_depth}), "
            f"but the tree files under {cfg.tree_path!r} hold trees {ids}"
        )
    for f, tree in zip(files, trees):
        if expected[tree.tree_id] != tree.params:
            raise ProtocolError(
                f"tree file {f}: tree {tree.tree_id} has geometry {tree.params}, but {state_path} "
                f"derives {expected[tree.tree_id]}; set the deployment up again"
            )
    return ObgeServer(host, EnclaveController(state, host, rng=rng))


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        rfile = self.request.makefile("rb")
        try:
            while True:
                try:
                    got = wire.read_frame(rfile)
                except ProtocolError as exc:
                    # the frame boundary is lost: answer once, then close
                    log.warning("answered a malformed frame from %s with an error and closed: %s",
                                self.client_address[0], exc)
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
            raise ConfigError(f"cannot bind {cfg.listen_addr}: {exc}") from exc
        self.tcp.obge = server
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.tcp.server_address[1]

    def start(self) -> None:
        self._log_start()
        self._thread = threading.Thread(target=self.tcp.serve_forever, args=(POLL_INTERVAL,), daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        self._log_start()
        self.tcp.serve_forever()

    def _log_start(self) -> None:
        host, port = self.tcp.server_address[:2]
        mode = MODE_TRIVIAL if self.server.controller is None else MODE_ENHANCED
        log.info("serving %s mode on %s:%d", mode, host, port)
        for tree_id, tree in sorted(self.server.host.trees.items()):
            p = tree.params
            log.info(
                "tree %d: depth %d, %d cached levels, host path %d bucket%s (%d bytes)",
                tree_id, p.depth, p.cached, p.host_levels, "s" * (p.host_levels != 1), p.path_width,
            )

    def shutdown(self) -> None:
        self.tcp.shutdown()
        self.tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.flush()

    def flush(self) -> None:
        """The final flush: under the server's lock, once the request in
        hand is done, write the trees, controller.bin and the trace, and
        close the server, so no later request is applied.  Handler threads
        are daemon threads that shutdown does not join, so the lock, not
        the join, is what keeps a request out of the files."""
        out = Path(self.cfg.tree_path)
        written = []
        with self.server.lock:
            self.server.closed = True
            for tree_id, tree in self.server.host.trees.items():
                written.append(tree_file(out, tree_id))
                tree.save(written[-1])
            if self.server.controller is not None:
                written.append(out / "controller.bin")
                save_state(written[-1], self.server.controller.state)
            if self.cfg.trace_path:
                written.append(Path(self.cfg.trace_path))
                self.server.host.trace.save(written[-1])
        log.info("flushed %s", ", ".join(map(str, written)))
