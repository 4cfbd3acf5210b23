import os

import pytest
from hypothesis import given, settings, strategies as st

from obge.crypto import (
    CT_OVERHEAD,
    KEY_BYTES,
    Cipher,
    Prf,
    ciphertext_width,
    decode_pair,
    encode_pair,
    keygen,
    pair_block,
    prf_eval,
)
from obge.exceptions import IntegrityError


class TestKeygen:
    def test_widths(self):
        ks = keygen()
        assert len(ks.k2) == len(ks.kprf) == KEY_BYTES == 16

    def test_fresh_keys_differ(self):
        a, b = keygen(), keygen()
        assert a.k2 != b.k2 and a.kprf != b.kprf


class TestPrf:
    def test_deterministic(self):
        k = os.urandom(16)
        assert prf_eval(Prf(k), pair_block(0, 3)) == prf_eval(Prf(k), pair_block(0, 3))

    def test_order_matters(self):
        prf = Prf(os.urandom(16))
        assert prf_eval(prf, pair_block(0, 3)) != prf_eval(prf, pair_block(3, 0))

    def test_empty_message_rejected(self):
        with pytest.raises(ValueError, match="whole 16-byte blocks"):
            prf_eval(Prf(os.urandom(16)), b"")

    @pytest.mark.parametrize("size", [1, 8, 15, 17, 31])
    def test_partial_blocks_rejected(self, size):
        # a kept context would carry a partial block over to the next call;
        # refused, it gives the next call the token a fresh context gives
        k = os.urandom(16)
        prf = Prf(k)
        with pytest.raises(ValueError, match="whole 16-byte blocks"):
            prf_eval(prf, bytes(size))
        assert prf_eval(prf, pair_block(0, 3)) == prf_eval(Prf(k), pair_block(0, 3))

    def test_known_answer(self):
        # FIPS-197 appendix C.1: AES-128 under key 00 01 .. 0f
        prf = Prf(bytes(range(16)))
        assert prf_eval(prf, bytes.fromhex("00112233445566778899aabbccddeeff")).hex() == (
            "69c4e0d86a7b0430d8cdb78070b4c55a"
        )

    def test_one_call_gives_each_blocks_token_in_order(self):
        prf = Prf(os.urandom(16))
        pairs = [(0, 3), (3, 0), (7, 7), (2**32 - 1, 5)]
        tokens = prf_eval(prf, b"".join(pair_block(u, v) for u, v in pairs))
        assert [tokens[i * 16 : (i + 1) * 16] for i in range(len(pairs))] == [
            prf_eval(prf, pair_block(u, v)) for u, v in pairs
        ]

    def test_pair_block_is_the_pair_encoding_padded_with_zeros(self):
        assert pair_block(0x01020304, 0x0A0B0C0D) == encode_pair(0x01020304, 0x0A0B0C0D) + bytes(8)

    def test_million_pairs_collision_free(self):
        """Birthday check: 10^6 distinct pair encodings map to 10^6
        distinct 16-byte tokens."""
        tokens = prf_eval(Prf(os.urandom(16)), b"".join(pair_block(u, v) for u in range(1000) for v in range(1000)))
        assert len({tokens[at : at + 16] for at in range(0, len(tokens), 16)}) == 1_000_000


class TestPairEncoding:
    @settings(max_examples=100)
    @given(u=st.integers(0, 2**32 - 1), v=st.integers(0, 2**32 - 1))
    def test_round_trip(self, u, v):
        assert decode_pair(encode_pair(u, v)) == (u, v)

    def test_fixed_width(self):
        assert len(encode_pair(0, 0)) == len(encode_pair(2**32 - 1, 7)) == 8


class TestSke:
    def test_round_trip(self):
        c = Cipher(os.urandom(16))
        for size in (0, 1, 17, 64):
            m = os.urandom(size)
            assert c.decrypt(c.encrypt(m)) == m

    def test_randomized(self):
        c = Cipher(os.urandom(16))
        a = c.encrypt(b"hello")
        b = c.encrypt(b"hello")
        assert a != b and len(a) == len(b)

    def test_wrong_key_fails(self):
        ct = Cipher(os.urandom(16)).encrypt(b"m")
        with pytest.raises(IntegrityError):
            Cipher(os.urandom(16)).decrypt(ct)

    def test_tamper_fails(self):
        c = Cipher(os.urandom(16))
        ct = bytearray(c.encrypt(b"m" * 12))
        ct[20] ^= 1
        with pytest.raises(IntegrityError):
            c.decrypt(bytes(ct))

    def test_width_is_plaintext_width_plus_overhead(self):
        """Exhaustive over plaintext lengths 0..64; anything shorter than
        nonce plus tag is not a ciphertext."""
        c = Cipher(os.urandom(16))
        assert CT_OVERHEAD == 28
        for n in range(65):
            assert len(c.encrypt(b"a" * n)) == n + 28 == ciphertext_width(n)
        for n in range(28):
            with pytest.raises(IntegrityError):
                c.decrypt(os.urandom(n))

    @settings(max_examples=50)
    @given(data=st.binary(max_size=64), ad=st.binary(max_size=9))
    def test_round_trip_fuzz(self, data, ad):
        c = Cipher(b"\x07" * 16)
        assert c.decrypt(c.encrypt(data, ad), ad) == data
