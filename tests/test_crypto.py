import os

import pytest
from hypothesis import given, settings, strategies as st

from obge import crypto
from obge.blocks import bucket_ad
from obge.crypto import (
    CT_OVERHEAD,
    KEY_BYTES,
    NONCE_BYTES,
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


class TestPathSeal:
    """A run of ciphertexts sealed and opened in one call, as an ORAM path's
    buckets are: each is what ``encrypt`` makes, nonce || ciphertext || tag
    under its own associated data."""

    @staticmethod
    def run(count, width=33):
        plains = [os.urandom(width) for _ in range(count)]
        ads = [bucket_ad(1, node) for node in range(count)]
        return plains, ads

    def test_round_trip_over_runs_of_1_to_20(self):
        c = Cipher(os.urandom(16))
        for count in range(1, 21):
            plains, ads = self.run(count, width=count)
            sealed = c.seal_path(plains, ads)
            width = ciphertext_width(count)
            assert len(sealed) == count * width
            assert c.open_path(sealed, width, ads) == plains
            # each ciphertext is one encrypt would make, under its own ad
            for i, ad in enumerate(ads):
                assert c.decrypt(sealed[i * width : (i + 1) * width], ad) == plains[i]

    def test_nonces_of_a_thousand_paths_are_pairwise_distinct(self):
        c = Cipher(os.urandom(16))
        plains, ads = self.run(5)
        width = ciphertext_width(33)
        nonces = []
        for _ in range(1000):
            sealed = c.seal_path(plains, ads)
            nonces += [sealed[at : at + NONCE_BYTES] for at in range(0, len(sealed), width)]
        assert len(nonces) == 5000 and len(set(nonces)) == 5000

    def test_nonces_come_from_one_call_for_random_bytes(self, monkeypatch):
        # every ciphertext of a run opens with its own 12 bytes of one
        # os.urandom draw, in order
        drawn = []

        def urandom(n):
            drawn.append(bytes(range(n)))
            return drawn[-1]

        c = Cipher(os.urandom(16))
        plains, ads = self.run(7)
        monkeypatch.setattr(crypto.os, "urandom", urandom)
        sealed = c.seal_path(plains, ads)
        monkeypatch.undo()
        width = ciphertext_width(33)
        assert [len(d) for d in drawn] == [7 * NONCE_BYTES]
        assert [sealed[at : at + NONCE_BYTES] for at in range(0, len(sealed), width)] == [
            drawn[0][i : i + NONCE_BYTES] for i in range(0, 7 * NONCE_BYTES, NONCE_BYTES)
        ]

    @pytest.mark.parametrize("fault", ["flipped", "wrong-ad"])
    def test_a_failed_ciphertext_is_named_by_its_index(self, fault):
        c = Cipher(os.urandom(16))
        plains, ads = self.run(6)
        width = ciphertext_width(33)
        sealed = c.seal_path(plains, ads)
        for i in range(6):
            data, opened_ads = bytearray(sealed), list(ads)
            if fault == "flipped":
                data[i * width + 20] ^= 1
            else:
                opened_ads[i] = bucket_ad(2, i)
            with pytest.raises(IntegrityError, match="authentication failed") as exc:
                c.open_path(bytes(data), width, opened_ads)
            assert exc.value.index == i

    def test_input_that_is_not_whole_ciphertexts_is_refused(self):
        c = Cipher(os.urandom(16))
        plains, ads = self.run(3)
        width = ciphertext_width(33)
        sealed = c.seal_path(plains, ads)
        for data, w, opened_ads in [
            (sealed[:-1], width, ads),
            (sealed + b"\0", width, ads),
            (sealed, width, ads[:2]),
            (sealed[: CT_OVERHEAD - 1] * 3, CT_OVERHEAD - 1, ads),
        ]:
            with pytest.raises(IntegrityError, match="are not") as exc:
                c.open_path(data, w, opened_ads)
            assert exc.value.index is None

    def test_unequal_counts_are_refused(self):
        plains, ads = self.run(3)
        with pytest.raises(ValueError):
            Cipher(os.urandom(16)).seal_path(plains, ads[:2])
