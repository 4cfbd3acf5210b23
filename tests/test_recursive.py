import random

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from obge.blocks import ABSENT
from obge.crypto import Cipher, keygen
from obge.exceptions import ConfigError
from obge.recursive import map_shape, rpm_build
from obge.storage import StorageHost


def build_rpm(assignments, address_space, data_leaves, chi, budget, rng, Z=5):
    keys = keygen(128)
    k2 = Cipher(keys.k2)
    rpm, trees = rpm_build(
        assignments.items(), address_space, data_leaves, chi=chi, budget=budget,
        bucket_size=Z, cipher=k2, rng=rng,
    )
    host = StorageHost()
    for t in trees:
        host.add_tree(t)
    rpm.attach(host, rng)
    return rpm, host


class TestBuild:
    def test_chain_shape_4096_chi64_1kb(self, rng):
        assignments = {a: rng.randrange(256) for a in range(0, 4096, 2)}
        rpm, _ = build_rpm(assignments, 4096, 256, chi=64, budget=1024, rng=rng)
        assert rpm.chain_depth == 1
        assert map_shape(4096, 64, 1024, 5) == ([(64, rpm.levels[0].params)], 64)
        assert len(rpm.top) == 64
        assert len(rpm.top) * 8 <= 1024

    def test_flat_when_budget_covers_map(self, rng):
        assignments = {a: rng.randrange(64) for a in range(100)}
        rpm, _ = build_rpm(assignments, 256, 64, chi=64, budget=256 * 8, rng=rng)
        assert rpm.chain_depth == 0

    def test_chi_one_rejected(self, rng):
        with pytest.raises(ConfigError):
            build_rpm({}, 64, 8, chi=1, budget=1024, rng=rng)

    def test_budget_below_one_packed_block_rejected(self, rng):
        with pytest.raises(ConfigError):
            build_rpm({0: 1}, 4096, 8, chi=64, budget=100, rng=rng)

    def test_deep_chain_still_correct(self, rng):
        assignments = {a: rng.randrange(32) for a in range(512)}
        rpm, _ = build_rpm(assignments, 512, 32, chi=4, budget=64, rng=rng)
        assert rpm.chain_depth >= 2
        shadow = dict(assignments)
        for _ in range(400):
            a = rng.randrange(512)
            old, new = rpm.get_and_remap(a)
            assert old == shadow.get(a, ABSENT)
            if a in shadow:
                shadow[a] = new


class TestAccess:
    def test_remap_bookkeeping(self, rng):
        assignments = {7: 3}
        rpm, _ = build_rpm(assignments, 64, 16, chi=8, budget=64, rng=rng)
        old1, new1 = rpm.get_and_remap(7)
        assert old1 == 3
        old2, new2 = rpm.get_and_remap(7)
        assert old2 == new1

    def test_absent_address_stays_absent(self, rng):
        rpm, _ = build_rpm({1: 5}, 64, 16, chi=8, budget=64, rng=rng)
        for _ in range(5):
            old, new = rpm.get_and_remap(9)
            assert old == ABSENT
            assert 0 <= new < 16

    def test_absent_still_touches_every_level(self, rng):
        rpm, host = build_rpm({1: 5}, 64, 16, chi=8, budget=64, rng=rng)
        depth = rpm.chain_depth
        before = len(host.trace)
        rpm.get_and_remap(9)
        reads = [r for r in host.trace.records[before:] if r.msg_type == "ReadPath"]
        assert len(reads) == depth

    def test_out_of_range(self, rng):
        rpm, _ = build_rpm({}, 16, 8, chi=8, budget=8 * 8, rng=rng)
        with pytest.raises(IndexError):
            rpm.get_and_remap(16)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), chi=st.integers(2, 16), ops=st.integers(1, 60))
def test_shadow_map_equivalence(seed, chi, ops):
    """Any access sequence returns exactly the leaves a flat shadow map
    tracking the same remaps would."""
    rng = random.Random(seed)
    space = rng.choice([64, 128, 300])
    data_leaves = 32
    assignments = {a: rng.randrange(data_leaves) for a in range(space) if rng.random() < 0.6}
    budget = max(chi * 8, space * 8 // rng.choice([4, 8, 16]))
    rpm, _ = build_rpm(assignments, space, data_leaves, chi=chi, budget=budget, rng=rng)
    shadow = dict(assignments)
    for _ in range(ops):
        a = rng.randrange(space)
        old, new = rpm.get_and_remap(a)
        assert old == shadow.get(a, ABSENT)
        if a in shadow:
            shadow[a] = new


def test_budget_compliance_under_load(rng):
    space = 4096
    assignments = {a: rng.randrange(128) for a in range(space)}
    budget = space * 8 // 16
    rpm, _ = build_rpm(assignments, space, 128, chi=64, budget=budget, rng=rng)
    assert rpm.chain_depth >= 1
    slack = max(lvl.params.block_width for lvl in rpm.levels)
    for _ in range(500):
        rpm.get_and_remap(rng.randrange(space))
        assert rpm.resident_bytes() <= budget + slack

def test_per_level_uniform_leaves(rng):
    space = 1024
    assignments = {a: rng.randrange(64) for a in range(space)}
    rpm, host = build_rpm(assignments, space, 64, chi=16, budget=256, rng=rng)
    assert rpm.chain_depth >= 1
    for _ in range(3000):
        rpm.get_and_remap(rng.randrange(space))
    for lvl in rpm.levels:
        if lvl.params.leaves < 2:
            continue
        leaves = [
            r.leaf
            for r in host.trace.records
            if r.msg_type == "ReadPath" and r.tree_id == lvl.tree_id
        ]
        counts = [0] * lvl.params.leaves
        for leaf in leaves:
            counts[leaf] += 1
        assert stats.chisquare(counts).pvalue >= 0.01
