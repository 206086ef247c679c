import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optforge.problems.basic import BASIC_FUNCTIONS, BASIC_NAMES

from reference_impls import REF_BASIC

ALL_NAMES = sorted(BASIC_FUNCTIONS)


def test_catalog_contents():
    assert len(BASIC_FUNCTIONS) == 12
    assert set(BASIC_NAMES) == set(REF_BASIC)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_matches_scalar_reference(name):
    bf = BASIC_FUNCTIONS[name]
    # crc32, not hash(): str hashes are salted per process
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    lo, hi = bf.domain
    for d in (1, 2, 3, 7, 15):
        z = rng.uniform(lo, hi, size=(20, d))
        got = bf(z)
        want = np.array([REF_BASIC[name](list(row)) for row in z])
        assert got.shape == (20,)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("scale, d", [(10.0, 10), (100.0, 30), (1000.0, 50)])
def test_weierstrass_matches_exact_reference_at_composition_scales(scale, d):
    # composition boxes put weierstrass's z far outside [-0.5, 0.5], where
    # the phases 3^k (z + 0.5) reach 1e13 cycles
    rng = np.random.default_rng(d)
    z = np.clip(rng.normal(0.0, scale / 2, size=(8, d)), -scale, scale)
    got = BASIC_FUNCTIONS["weierstrass"](z)
    want = np.array([REF_BASIC["weierstrass"](list(row)) for row in z])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("d", [1, 5, 50])
def test_weierstrass_is_exactly_zero_at_optimum(d):
    assert BASIC_FUNCTIONS["weierstrass"](np.zeros((1, d)))[0] == 0.0


def test_weierstrass_non_finite_rows_stay_nan():
    z = np.array([[np.nan, 0.1], [np.inf, 0.0], [0.2, 0.3]])
    with np.errstate(invalid="ignore"):
        got = BASIC_FUNCTIONS["weierstrass"](z)
    assert np.isnan(got[:2]).all() and np.isfinite(got[2])
    # at d = 50 a block holds 31 rows: rows 70 and 95 sit in later blocks
    z = np.random.default_rng(5).uniform(-0.5, 0.5, size=(100, 50))
    z[70, 3], z[95, 49] = np.nan, -np.inf
    with np.errstate(invalid="ignore"):
        got = BASIC_FUNCTIONS["weierstrass"](z)
    assert np.flatnonzero(np.isnan(got)).tolist() == [70, 95]
    assert np.isfinite(np.delete(got, [70, 95])).all()


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (1, 50), (22, 45),
                                   (200, 50)])
def test_katsuura_equals_one_expression_form(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    z = rng.uniform(-100.0, 100.0, size=shape)
    d = shape[1]
    pow2 = 2.0 ** np.arange(1, 33, dtype=float)
    t = z[..., :, None] * pow2
    s = np.sum(np.abs(t - np.round(t)) / pow2, axis=-1)
    i = np.arange(1, d + 1, dtype=float)
    want = ((10.0 / d**2) * np.prod((1.0 + i * s) ** (10.0 / d**1.2), axis=-1)
            - 10.0 / d**2)
    assert np.array_equal(BASIC_FUNCTIONS["katsuura"](z), want)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_value_at_optimum(name):
    bf = BASIC_FUNCTIONS[name]
    for d in (2, 5, 11):
        x_opt = np.full((1, d), bf.x_opt)
        val = float(bf(x_opt)[0])
        assert abs(val - bf.f_opt) < 1e-7, (name, d, val)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_optimum_is_interior(name):
    bf = BASIC_FUNCTIONS[name]
    lo, hi = bf.domain
    assert lo < bf.x_opt < hi


@pytest.mark.parametrize("name", ALL_NAMES)
def test_no_lower_value_nearby(name):
    # a crude local check: random perturbations never beat the optimum
    bf = BASIC_FUNCTIONS[name]
    rng = np.random.default_rng(99)
    for d in (2, 6):
        x = np.full((200, d), bf.x_opt) + rng.uniform(-0.05, 0.05, (200, d))
        vals = bf(x)
        assert np.all(vals >= bf.f_opt - 1e-9), name


@pytest.mark.parametrize("name", ALL_NAMES)
def test_batch_consistency(name):
    # evaluating a stacked batch equals evaluating rows one by one; katsuura
    # and weierstrass split the larger shapes into several row blocks, with
    # a remainder block (of one row for katsuura at (137, 30))
    bf = BASIC_FUNCTIONS[name]
    rng = np.random.default_rng(3)
    lo, hi = bf.domain
    for shape in [(16, 5), (1, 50), (137, 30), (200, 50), (400, 7)]:
        z = rng.uniform(lo, hi, size=shape)
        whole = bf(z)
        single = np.array([float(bf(row[None])[0]) for row in z])
        np.testing.assert_array_equal(whole, single)


def test_tags_cover_axes():
    union = set()
    for bf in BASIC_FUNCTIONS.values():
        union |= bf.tags
    for tag in ("unimodal", "multimodal", "separable", "nonseparable"):
        assert tag in union


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(ALL_NAMES), st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_finite_on_domain(name, d, seed):
    bf = BASIC_FUNCTIONS[name]
    rng = np.random.default_rng(seed)
    lo, hi = bf.domain
    z = rng.uniform(lo, hi, size=(8, d))
    vals = bf(z)
    assert np.all(np.isfinite(vals))
