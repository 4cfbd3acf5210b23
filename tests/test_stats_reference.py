"""The audit's two chi-square tests, leaf uniformity and two-sample, and the
tail they share, written with the standard library, against scipy.stats as
the reference."""

import random

import numpy as np
import pytest
from scipy import stats

from obge.audit import _chi2_sf, bin_leaves, two_sample_pvalue, uniformity_pvalue

# scipy's smallest reading that a relative bound is held to
FLOOR = 1e-300


def relative_error(got: float, ref: float) -> float:
    return abs(got - ref) / ref


def test_chi2_tail_matches_scipy():
    # df 1 to 63: the uniformity and two-sample tests bin into at most 64
    # cells, so no verdict uses a larger df
    xs = np.geomspace(0.01, 200, 60)
    worst = max(
        relative_error(_chi2_sf(x, df), ref)
        for df in range(1, 64)
        for x, ref in zip(xs, stats.chi2.sf(xs, df))
        if ref >= FLOOR
    )
    assert worst <= 1e-12
    assert _chi2_sf(0.0, 5) == 1.0


def _leaf_samples(rng):
    """A seeded pair of leaf samples and their leaf space, some confined to
    two leaves so that the two-sample table has df = 1."""
    leaf_space = 2 ** rng.randint(1, 10)
    span = rng.choice([leaf_space, max(1, leaf_space // 2), 2, 1])
    a = [rng.randrange(span) for _ in range(rng.randint(1, 400))]
    b = [rng.randrange(rng.choice([span, leaf_space])) for _ in range(rng.randint(1, 400))]
    return a, b, leaf_space


def test_audit_pvalues_match_scipy():
    rng = random.Random(0x5C1)
    worst_uniform = worst_two_sample = 0.0
    yates = 0
    for _ in range(1500):
        a, b, leaf_space = _leaf_samples(rng)
        ref = stats.chisquare(bin_leaves(a, leaf_space)).pvalue
        if ref >= FLOOR:
            worst_uniform = max(worst_uniform, relative_error(uniformity_pvalue(a, leaf_space), ref))
        table = np.array([bin_leaves(a, leaf_space), bin_leaves(b, leaf_space)])
        table = table[:, table.sum(axis=0) > 0]
        if table.shape[1] < 2:
            assert two_sample_pvalue(a, b, leaf_space) == 1.0
            continue
        res = stats.chi2_contingency(table)
        yates += res.dof == 1
        if res.pvalue >= FLOOR:
            worst_two_sample = max(worst_two_sample, relative_error(two_sample_pvalue(a, b, leaf_space), res.pvalue))
    assert yates >= 100
    assert worst_uniform <= 1e-12
    assert worst_two_sample <= 1e-12


def test_yates_correction_at_one_df():
    # without the correction the statistic is 6 and p reads 0.014
    assert two_sample_pvalue([0, 0, 0], [1, 1, 1], 2) == pytest.approx(0.10247043485974942, rel=1e-12)


def test_empty_sample_is_refused():
    with pytest.raises(ValueError, match="two-sample test needs two non-empty samples, got 0 and 3 leaves"):
        two_sample_pvalue([], [1, 2, 3], 32)

