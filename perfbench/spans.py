"""Span tracer installed from outside the program, around obge's public
functions.

Every wrapped call at a layer boundary records a span: name, start, end,
parent span and query id.  High-frequency leaf calls (AEAD encrypt and
decrypt, the PRF, block pack and unpack, frame encode and decode) have no
children, so they are kept as per-name aggregates (calls, seconds, bytes)
instead of spans; their time is still charged to the enclosing span, so
self times stay exact.

Self time of a span is its duration minus the time its child spans and leaf
calls cover.  Children are found on a per-thread stack; the daemon's
handler thread runs spans whose parent is the client request in flight,
because the benchmark is a closed loop with one client.  Spans stay in
memory and are written out with ``write_csv`` when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
from time import perf_counter

from obge import blocks, crypto, oram, protocol, recursive, server, storage, wire

# (span id, name, start, end, parent id, query id, self seconds)
Span = tuple[int, str, float, float, int, int, float]

NO_PARENT = -1
SETUP_QUERY = -1


class Tracer:
    """Collects spans and leaf aggregates while installed.

    Installation patches module and class attributes in place; ``uninstall``
    restores the originals.  Only one Tracer may be installed at a time.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.leaf: dict[str, list] = {}  # name -> [calls, seconds, bytes]
        self.query_id = SETUP_QUERY
        self.stash_peak = 0
        self.entries = 0
        self.chain_depth = 0
        self._inflight = NO_PARENT  # client request span the daemon serves
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # wrappers

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, name_of=None, note=None, sets_inflight=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            frame = [sid, 0.0]  # id, seconds covered by children
            stack.append(frame)
            if sets_inflight:
                tracer._inflight = sid
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if sets_inflight:
                    tracer._inflight = NO_PARENT
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                    parent_id = parent[0]
                else:
                    parent_id = tracer._inflight
                span_name = name if name_of is None else name_of(args)
                tracer.spans.append((sid, span_name, t0, t1, parent_id, tracer.query_id, dur - frame[1]))
            if note is not None:
                note(args, out)
            return out

        return wrapper

    def _leaf(self, name, fn, size_of=None):
        tracer = self
        agg = self.leaf.setdefault(name, [0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dur = perf_counter() - t0
            stack = tracer._stack()
            if stack:
                stack[-1][1] += dur
            # no lock: in a closed loop the client and daemon threads never
            # run wrapped code at the same time
            agg[0] += 1
            agg[1] += dur
            if size_of is not None:
                agg[2] += size_of(args, out)
            return out

        return wrapper

    def _patch(self, owner, attr: str, wrapper_of) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(getattr(owner, attr)))

    # ------------------------------------------------------------------
    # notes taken after a call returns

    def _note_access(self, args, out) -> None:
        peak = args[0].max_stash_seen
        if peak > self.stash_peak:
            self.stash_peak = peak

    def _note_spdx(self, args, out) -> None:
        self.entries = len(out)

    def _note_rpm(self, args, out) -> None:
        self.chain_depth = out[0].chain_depth

    # ------------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        s, leaf = self._span, self._leaf
        out_len = lambda args, out: len(out)  # noqa: E731
        # functions imported by value are patched at their use sites
        self._patch(protocol, "setup", lambda f: s("protocol.setup", f))
        self._patch(protocol, "build_blocks", lambda f: s("protocol.build_blocks", f))
        self._patch(protocol, "compute_spdx", lambda f: s("graph.spdx", f, note=self._note_spdx))
        self._patch(protocol, "prf_eval", lambda f: leaf("crypto.prf", f))
        self._patch(protocol, "oram_init", lambda f: s("oram.init", f))
        self._patch(recursive, "oram_init", lambda f: s("oram.init", f))
        self._patch(protocol, "rpm_build", lambda f: s("recursive.build", f, note=self._note_rpm))
        self._patch(oram, "unpack_block", lambda f: leaf("blocks.unpack", f))
        # class attributes are patched where they are defined
        self._patch(crypto.Cipher, "encrypt", lambda f: leaf("crypto.encrypt", f))
        self._patch(crypto.Cipher, "decrypt", lambda f: leaf("crypto.decrypt", f))
        self._patch(blocks.Block, "pack", lambda f: leaf("blocks.pack", f))
        self._patch(
            oram.PathOram,
            "access",
            lambda f: s(
                "oram.access",
                f,
                name_of=lambda a: "oram.access.data" if a[0].tree_id == protocol.DATA_TREE_ID else "oram.access.pm",
                note=self._note_access,
            ),
        )
        self._patch(storage.TreeStorage, "read_path", lambda f: s("storage.read_path", f))
        self._patch(storage.TreeStorage, "write_path", lambda f: s("storage.write_path", f))
        self._patch(recursive.RecursivePM, "get_and_remap", lambda f: s("recursive.get_and_remap", f))
        self._patch(server.ObgeServer, "dispatch", lambda f: s("server.dispatch", f))
        self._patch(server.ObgeServer, "handle_raw", lambda f: s("server.handle", f))
        self._patch(server.TcpConnection, "request", lambda f: s("transport.request", f, sets_inflight=True))
        self._patch(wire, "encode", lambda f: leaf("wire.encode", f, size_of=out_len))
        self._patch(wire, "decode_payload", lambda f: leaf("wire.decode", f))
        self._patch(protocol.TrivialClient, "query_path", lambda f: s("protocol.query", f))
        self._patch(protocol.EnhancedClient, "query_path", lambda f: s("protocol.query", f))
        self._patch(protocol.EnclaveController, "handle_request", lambda f: s("protocol.query", f))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def leaf_snapshot(self) -> dict[str, tuple[int, float, int]]:
        return {name: tuple(agg) for name, agg in self.leaf.items()}

    def reset_leaf(self) -> None:
        for agg in self.leaf.values():
            agg[:] = [0, 0.0, 0]

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("id,name,start,end,parent,query,self_s\n")
            for sid, name, t0, t1, parent, query, self_s in self.spans:
                f.write(f"{sid},{name},{t0:.9f},{t1:.9f},{parent},{query},{self_s:.9f}\n")
