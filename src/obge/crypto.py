"""Keyed PRF, randomized authenticated encryption, and key generation.

Every key is KEY_BYTES = 16 bytes: the scheme's Setup runs at one security
parameter, lambda = 128.  The scheme's keys are two: k2 encrypts ORAM
buckets and kprf keys the token PRF.  The paper's third key, k1, encrypted
each next hop as a block payload; blocks now name the hop by its vertex
id alone, which the engine holding the tree reads in the clear anyway, so
nothing is left to encrypt (see ``protocol``).  Only the plain baseline,
``gkt``, still encrypts its payloads under a k1 of its own.

The token PRF is AES-128 under kprf: a pair's token is the encryption of
one 16-byte block, ``pair_block(u, v)``, its 8-byte encoding followed by 8
zero bytes.  ``Prf`` keeps one keyed AES-ECB context, and ``prf_eval``
encrypts any number of whole blocks in one call, one token per block, so
setup derives a source row's tokens at once.  Building a context costs
some thirty one-block calls, so each party builds one and keeps it: setup,
each query engine and the baseline.  AES is a pseudorandom permutation;
as a PRF over q distinct inputs it is off by at most q^2 / 2^129 (PRP/PRF
switching), and tokens are only ever compared for equality.

Symmetric encryption is AES-GCM under a fresh nonce, stored as nonce ||
ciphertext || tag: CT_OVERHEAD bytes wider than the plaintext.  Nothing is
padded, because every caller encrypts plaintexts whose width public
parameters fix.  An optional associated-data string is authenticated
alongside the ciphertext but not stored in it: decryption succeeds only
when the caller presents the same string, which is how ORAM buckets are
bound to their tree and node.

A run of ciphertexts, such as the buckets of one ORAM path, is sealed and
opened in one call: ``Cipher.seal_path`` draws the run's nonces, 12
uniform bytes a plaintext, from one ``os.urandom`` call and concatenates
the ciphertexts in the layout above; ``Cipher.open_path`` opens such a run
and, on a failed tag, names the ciphertext in ``IntegrityError.index``.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Sequence
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers import Cipher as _BlockCipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .exceptions import IntegrityError

KEY_BYTES = 16
TOKEN_BYTES = 16
NONCE_BYTES = 12
TAG_BYTES = 16

# fixed per-ciphertext overhead beyond the plaintext
CT_OVERHEAD = NONCE_BYTES + TAG_BYTES

_AUTH_FAILED = "authentication failed: wrong key, wrong associated data or tampered ciphertext"


@dataclass(frozen=True)
class KeySet:
    """Independent keys: k2 encrypts ORAM buckets, kprf keys the token
    PRF."""

    k2: bytes
    kprf: bytes


def keygen() -> KeySet:
    return KeySet(k2=os.urandom(KEY_BYTES), kprf=os.urandom(KEY_BYTES))


class Prf:
    """The token PRF under one key: a kept AES-128 ECB context."""

    def __init__(self, kprf: bytes):
        self._ecb = _BlockCipher(algorithms.AES(kprf), modes.ECB()).encryptor()


def prf_eval(prf: Prf, blocks: bytes | bytearray) -> bytes:
    """The 16-byte tokens of the 16-byte blocks packed end to end, in the
    same order.  Empty input, or input that is not whole blocks, raises
    ValueError: the context would hold a partial block over to the next
    call."""
    if not blocks or len(blocks) % TOKEN_BYTES:
        raise ValueError(f"PRF input of {len(blocks)} bytes is not one or more whole {TOKEN_BYTES}-byte blocks")
    return prf._ecb.update(blocks)


PAIR_BLOCK = struct.Struct(">II8x")


def encode_pair(u: int, v: int) -> bytes:
    """Injective fixed-width encoding of a vertex pair: 4-byte big-endian
    u followed by 4-byte big-endian v."""
    return struct.pack(">II", u, v)


def pair_block(u: int, v: int) -> bytes:
    """The PRF input for a pair: ``encode_pair(u, v)`` and 8 zero bytes."""
    return PAIR_BLOCK.pack(u, v)


def decode_pair(raw: bytes) -> tuple[int, int]:
    return struct.unpack(">II", raw)


def ciphertext_width(plaintext_width: int) -> int:
    return plaintext_width + CT_OVERHEAD


class Cipher:
    """AES-GCM wrapper bound to one key; reused across calls so the AEAD
    object is constructed once."""

    def __init__(self, key: bytes):
        self._aead = AESGCM(key)

    def encrypt(self, plaintext: bytes, ad: bytes | None = None) -> bytes:
        nonce = os.urandom(NONCE_BYTES)
        return nonce + self._aead.encrypt(nonce, plaintext, ad)

    def decrypt(self, ct: bytes, ad: bytes | None = None) -> bytes:
        if len(ct) < CT_OVERHEAD:
            raise IntegrityError("ciphertext too short")
        try:
            return self._aead.decrypt(ct[:NONCE_BYTES], ct[NONCE_BYTES:], ad)
        except InvalidTag:
            raise IntegrityError(_AUTH_FAILED) from None

    def seal_path(self, plains: Sequence[bytes], ads: Sequence[bytes]) -> bytes:
        """The encryptions of plains, each under its own entry of ads and a
        nonce of its own, concatenated in order: what ``encrypt`` would
        return for each, with every nonce drawn in one call for random
        bytes.  Plaintexts and associated data of unequal counts raise
        ValueError."""
        if len(plains) != len(ads):
            raise ValueError(f"{len(plains)} plaintexts under {len(ads)} associated data strings")
        encrypt = self._aead.encrypt
        nonces = os.urandom(NONCE_BYTES * len(plains))
        out = []
        at = 0
        for plain, ad in zip(plains, ads):
            nonce = nonces[at : at + NONCE_BYTES]
            at += NONCE_BYTES
            out += nonce, encrypt(nonce, plain, ad)
        return b"".join(out)

    def open_path(self, data: bytes, width: int, ads: Sequence[bytes]) -> list[bytes]:
        """The plaintexts of the len(ads) ciphertexts of width bytes each
        that data holds end to end, each opened under its own entry of ads.
        Data that is not that many whole ciphertexts raises IntegrityError;
        so does a ciphertext that fails authentication, with its position
        in ``index``."""
        if width < CT_OVERHEAD or len(data) != width * len(ads):
            raise IntegrityError(f"{len(data)} bytes are not {len(ads)} ciphertexts of {width} bytes")
        decrypt = self._aead.decrypt
        plains: list[bytes] = []
        at = 0
        try:
            for ad in ads:
                mid = at + NONCE_BYTES
                at += width
                plains.append(decrypt(data[mid - NONCE_BYTES : mid], data[mid:at], ad))
        except InvalidTag:
            raise IntegrityError(_AUTH_FAILED, index=len(plains)) from None
        return plains
