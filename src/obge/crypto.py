"""Keyed PRF, randomized authenticated encryption, and key generation.

Tokens are 16-byte HMAC-SHA256 outputs.  Symmetric encryption is AES-GCM
over a length-prefixed, zero-padded plaintext so that ciphertext width is a
function of the padding target only, never of the plaintext content.  An
optional associated-data string is authenticated alongside the ciphertext
but not stored in it: decryption succeeds only when the caller presents the
same string, which is how ORAM buckets are bound to their tree and node.
"""

from __future__ import annotations

import hmac
import hashlib
import os
import struct
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .exceptions import ConfigError, IntegrityError

TOKEN_BYTES = 16
NONCE_BYTES = 12
TAG_BYTES = 16
LEN_PREFIX = 2

# fixed per-ciphertext overhead beyond the padded plaintext
CT_OVERHEAD = NONCE_BYTES + LEN_PREFIX + TAG_BYTES
# widest plaintext the length prefix can describe
MAX_PLAINTEXT = (1 << (8 * LEN_PREFIX)) - 1


@dataclass(frozen=True)
class KeySet:
    """Independent keys: k1 encrypts path payloads, k2 encrypts ORAM
    blocks, kprf keys the token PRF."""

    k1: bytes
    k2: bytes
    kprf: bytes

    @property
    def lambda_bits(self) -> int:
        return len(self.k1) * 8


def keygen(lambda_bits: int = 128) -> KeySet:
    if lambda_bits not in (128, 256):
        raise ConfigError(f"unsupported security parameter {lambda_bits}, expected 128 or 256")
    n = lambda_bits // 8
    return KeySet(k1=os.urandom(n), k2=os.urandom(n), kprf=os.urandom(n))


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


def ciphertext_width(pad_to: int) -> int:
    return pad_to + CT_OVERHEAD


_LEN_PREFIXES = [n.to_bytes(LEN_PREFIX, "big") for n in range(4096)]


class Cipher:
    """AES-GCM wrapper bound to one key; reused across calls so the AEAD
    object is constructed once."""

    def __init__(self, key: bytes):
        self._aead = AESGCM(key)

    def encrypt(self, plaintext: bytes, pad_to: int, ad: bytes | None = None) -> bytes:
        n = len(plaintext)
        if n > pad_to:
            raise ValueError(f"plaintext of {n} bytes exceeds pad width {pad_to}")
        prefix = _LEN_PREFIXES[n] if n < 4096 else n.to_bytes(LEN_PREFIX, "big")
        if n == pad_to:  # hot path: block serializations arrive full width
            padded = prefix + plaintext
        else:
            padded = prefix + plaintext + b"\x00" * (pad_to - n)
        nonce = os.urandom(NONCE_BYTES)
        return nonce + self._aead.encrypt(nonce, padded, ad)

    def decrypt(self, ct: bytes, ad: bytes | None = None) -> bytes:
        if len(ct) < NONCE_BYTES + LEN_PREFIX + TAG_BYTES:
            raise IntegrityError("ciphertext too short")
        try:
            padded = self._aead.decrypt(ct[:NONCE_BYTES], ct[NONCE_BYTES:], ad)
        except InvalidTag:
            raise IntegrityError(
                "authentication failed: wrong key, wrong associated data or tampered ciphertext"
            )
        n = int.from_bytes(padded[:LEN_PREFIX], "big")
        rest = len(padded) - LEN_PREFIX
        if n > rest:
            raise IntegrityError("corrupt length prefix")
        if n == rest:
            return padded[LEN_PREFIX:]
        return padded[LEN_PREFIX : LEN_PREFIX + n]


def ske_encrypt(key: bytes, plaintext: bytes, pad_to: int) -> bytes:
    return Cipher(key).encrypt(plaintext, pad_to)


def ske_decrypt(key: bytes, ct: bytes) -> bytes:
    return Cipher(key).decrypt(ct)
