"""Keyed PRF, randomized authenticated encryption, and key generation.

Every key is KEY_BYTES = 16 bytes: the scheme's Setup runs at one security
parameter, lambda = 128.  The scheme's keys are two: k2 encrypts ORAM
buckets and kprf keys the token PRF.  The paper's third key, k1, encrypted
each next hop as a block payload; blocks now name the hop by its address
alone, which the engine holding the tree reads in the clear anyway, so no
payload is left to encrypt (see ``protocol``).  Only the plain baseline,
``gkt``, still encrypts its payloads under a k1 of its own.
Tokens are 16-byte HMAC-SHA256 outputs.
Symmetric encryption is AES-GCM under a fresh nonce, stored as nonce ||
ciphertext || tag: CT_OVERHEAD bytes wider than the plaintext.  Nothing is
padded, because every caller encrypts plaintexts whose width public
parameters fix.  An optional associated-data string is authenticated
alongside the ciphertext but not stored in it: decryption succeeds only
when the caller presents the same string, which is how ORAM buckets are
bound to their tree and node.
"""

from __future__ import annotations

import hmac
import hashlib
import os
import struct
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .exceptions import IntegrityError

KEY_BYTES = 16
TOKEN_BYTES = 16
NONCE_BYTES = 12
TAG_BYTES = 16

# fixed per-ciphertext overhead beyond the plaintext
CT_OVERHEAD = NONCE_BYTES + TAG_BYTES


@dataclass(frozen=True)
class KeySet:
    """Independent keys: k2 encrypts ORAM buckets, kprf keys the token
    PRF."""

    k2: bytes
    kprf: bytes


def keygen() -> KeySet:
    return KeySet(k2=os.urandom(KEY_BYTES), kprf=os.urandom(KEY_BYTES))


def prf_eval(kprf: bytes, message: bytes) -> bytes:
    """Deterministic 16-byte token for (key, message)."""
    if not message:
        raise ValueError("PRF message must be non-empty")
    return hmac.new(kprf, message, hashlib.sha256).digest()[:TOKEN_BYTES]


def encode_pair(u: int, v: int) -> bytes:
    """Injective fixed-width encoding of a vertex pair: 4-byte big-endian
    u followed by 4-byte big-endian v."""
    return struct.pack(">II", u, v)


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
            raise IntegrityError(
                "authentication failed: wrong key, wrong associated data or tampered ciphertext"
            )
