"""Baseline scheme: the next-hop dictionary behind a plain encrypted
dictionary, accessed directly with deterministic tokens.

This is the construction the oblivious scheme improves on.  Every query
walks its token chain in place, so the server sees the exact token
sequence: repeated queries repeat it (query pattern), and queries sharing
a destination share suffixes (path intersection pattern).  ``obge attack
GRAPH`` queries every connected pair through ``GktScheme`` and hands the
sequences to ``attack.QueryRecovery``.

Each entry keeps the baseline's own payload, the next hop (w, v) encrypted
under a key k1 that only this scheme has, and ``GktScheme.reveal``
decrypts it; the oblivious scheme's blocks carry the hop's 2-byte vertex
id alone.
"""

from __future__ import annotations

import os

from .crypto import KEY_BYTES, Cipher, Prf, decode_pair, encode_pair, pair_block, prf_eval
from .exceptions import IntegrityError
from .graph import Graph, compute_spdx


class GktScheme:
    """The baseline over one graph, under fresh keys: the token PRF runs
    under its own kprf, and k1 encrypts each entry's next hop."""

    def __init__(self, g: Graph):
        self.prf = Prf(os.urandom(KEY_BYTES))
        self.k1 = Cipher(os.urandom(KEY_BYTES))
        self.vertex_count = g.vertex_count
        # what the host stores: token -> (next token, encrypted next hop)
        self.entries: dict[bytes, tuple[bytes, bytes]] = {}
        for (u, v), w in compute_spdx(g).items():
            tk = prf_eval(self.prf, pair_block(u, v))
            self.entries[tk] = (
                prf_eval(self.prf, pair_block(w, v)),
                self.k1.encrypt(encode_pair(w, v)),
            )

    def query(self, u: int, v: int) -> tuple[list[bytes], list[bytes]]:
        """Chase the chain; returns (encrypted path, observed token
        sequence).  The sequence ends with the token of the final missing
        probe, so its length is path length + 1."""
        if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
            raise IndexError(f"vertex pair ({u},{v}) out of range")
        resp: list[bytes] = []
        seq: list[bytes] = []
        tk = prf_eval(self.prf, pair_block(u, v))
        while True:
            seq.append(tk)
            hit = self.entries.get(tk)
            if hit is None:
                break
            tk, ct = hit
            resp.append(ct)
        return resp, seq

    def reveal(self, resp: list[bytes], source: int, dest: int) -> list[int] | None:
        """Decrypt an encrypted path into its vertex list; an empty one is
        the empty path when source == dest and "no path" (None) otherwise."""
        if not resp:
            return [] if source == dest else None
        hops = [decode_pair(self.k1.decrypt(ct)) for ct in resp]
        if hops[-1] != (dest, dest):
            raise IntegrityError("response does not terminate at the queried destination")
        return [source] + [w for w, _ in hops]

