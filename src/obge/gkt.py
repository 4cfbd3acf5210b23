"""Baseline scheme: the next-hop dictionary behind a plain encrypted
dictionary, accessed directly with deterministic tokens.

This is the construction the oblivious scheme improves on.  Every query
walks its token chain in place, so the server sees the exact token
sequence: repeated queries repeat it (query pattern), and queries sharing
a destination share suffixes (path intersection pattern).  The attack
module consumes these sequences.

Each entry keeps the baseline's own payload, the next hop (w, v) encrypted
under a key k1 that only this scheme has, and ``GktScheme.reveal``
decrypts it; the oblivious scheme's blocks carry the hop's 2-byte vertex
id alone.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .crypto import KEY_BYTES, Cipher, Prf, decode_pair, encode_pair, pair_block, prf_eval
from .exceptions import IntegrityError, ProtocolError
from .graph import Graph, compute_spdx


@dataclass
class GktEncryptedDict:
    """Token-indexed encrypted next-hop entries plus the per-query access
    log an honest-but-curious host would keep."""

    entries: dict[bytes, tuple[bytes, bytes]]
    access_log: list[list[bytes]] = field(default_factory=list)


class GktScheme:
    """The baseline over one graph, under fresh keys: the token PRF runs
    under its own kprf, and k1 encrypts each entry's next hop."""

    def __init__(self, g: Graph):
        self.prf = Prf(os.urandom(KEY_BYTES))
        self.k1 = Cipher(os.urandom(KEY_BYTES))
        self.vertex_count = g.vertex_count
        entries: dict[bytes, tuple[bytes, bytes]] = {}
        for (u, v), w in compute_spdx(g).items():
            tk = prf_eval(self.prf, pair_block(u, v))
            entries[tk] = (
                prf_eval(self.prf, pair_block(w, v)),
                self.k1.encrypt(encode_pair(w, v)),
            )
        self.server = GktEncryptedDict(entries)

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
            hit = self.server.entries.get(tk)
            if hit is None:
                break
            tk, ct = hit
            resp.append(ct)
        self.server.access_log.append(seq)
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


def save_token_log(path: str | Path, sequences: list[list[bytes]], truths: list[tuple[int, int]] | None = None) -> None:
    """One JSON line per observed query: hex token sequence, optionally the
    ground-truth pair for accuracy scoring."""
    with open(path, "w") as f:
        for i, seq in enumerate(sequences):
            rec: dict = {"tokens": [t.hex() for t in seq]}
            if truths is not None:
                rec["query"] = list(truths[i])
            f.write(json.dumps(rec) + "\n")


def load_token_log(path: str | Path) -> tuple[list[list[bytes]], list[tuple[int, int]] | None]:
    """A log saved by ``save_token_log``; a malformed line raises
    ProtocolError naming the file and the line."""
    sequences: list[list[bytes]] = []
    truths: list[tuple[int, int]] = []
    have_truth = True
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                tokens, query = rec["tokens"], rec.get("query")
                if not isinstance(tokens, list) or query is not None and not (
                    isinstance(query, list) and len(query) == 2 and all(type(x) is int for x in query)
                ):
                    raise TypeError
                sequences.append([bytes.fromhex(t) for t in tokens])
            except (ValueError, KeyError, TypeError):
                raise ProtocolError(
                    f'{path}, line {lineno}: expected {{"tokens": [hex, ...]}} and optionally "query": [u, v], '
                    f"got {line!r}"
                ) from None
            if query is not None:
                truths.append(tuple(query))
            else:
                have_truth = False
    return sequences, truths if have_truth and truths else None
