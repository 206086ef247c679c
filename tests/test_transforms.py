import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optforge.problems.transforms import ORTHO_TOL, TransformSpec, make_rotation


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=50),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_rotation_orthogonal(d, seed):
    m = make_rotation(d, np.random.default_rng(seed))
    err = np.max(np.abs(m.T @ m - np.eye(d)))
    assert err <= ORTHO_TOL
    assert abs(abs(np.linalg.det(m)) - 1.0) <= 1e-9


def test_rotation_deterministic():
    a = make_rotation(7, np.random.default_rng(123))
    b = make_rotation(7, np.random.default_rng(123))
    np.testing.assert_array_equal(a, b)
    c = make_rotation(7, np.random.default_rng(124))
    assert not np.array_equal(a, c)


def test_rotation_from_generator_advances_stream():
    rng = np.random.Generator(np.random.PCG64(5))
    a = make_rotation(4, rng)
    b = make_rotation(4, rng)
    assert not np.array_equal(a, b)


def test_rotation_bad_dim():
    with pytest.raises(ValueError):
        make_rotation(0, np.random.default_rng(1))


def test_spec_validates_orthogonality():
    bad = np.eye(3)
    bad[0, 0] = 2.0
    with pytest.raises(ValueError):
        TransformSpec(bad, np.zeros(3))


def test_spec_validates_shapes():
    with pytest.raises(ValueError):
        TransformSpec(np.eye(3), np.zeros(4))
    with pytest.raises(ValueError):
        TransformSpec(np.ones((2, 3)), np.zeros(2))


def test_spec_arrays_read_only():
    t = TransformSpec(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        t.rotation[0, 0] = 5.0
    with pytest.raises(ValueError):
        t.shift[0] = 1.0


def test_spec_dimension():
    assert TransformSpec(np.eye(4), np.zeros(4)).d == 4


def test_apply_matches_formula():
    rng = np.random.default_rng(11)
    rot = make_rotation(5, np.random.default_rng(3))
    shift = rng.uniform(-2, 2, 5)
    t = TransformSpec(rot, shift)
    x = rng.uniform(-5, 5, (10, 5))
    got = t.apply(x)
    want = np.array([(row - shift) @ rot for row in x])
    # batched and row-wise matmuls may use different BLAS kernels
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("d", [2, 5, 7, 30, 120])
@pytest.mark.blas_threads
def test_apply_rows_do_not_depend_on_the_batch(d):
    # vecmat on unit-stride rows: a row's bits are the same alone, in any
    # batch and at any position, also when the batch is column-major, as
    # a hybrid segment x[:, seg] is
    rng = np.random.default_rng(d)
    t = TransformSpec(make_rotation(d, np.random.default_rng(3)),
                      rng.uniform(-2, 2, d))
    x = rng.uniform(-100, 100, (257, d))
    single = np.concatenate([t.apply(row[None]) for row in x])
    order = rng.permutation(len(x))
    assert np.array_equal(t.apply(x), single)
    assert np.array_equal(t.apply(x[order]), single[order])
    assert np.array_equal(t.apply(np.asfortranarray(x)), single)
    wide = rng.uniform(-100, 100, (257, d + 3))
    segment = np.arange(1, d + 1)
    assert np.array_equal(t.apply(wide[:, segment]),
                          np.concatenate([t.apply(row[None, segment])
                                          for row in wide]))


def test_apply_identity_is_noop():
    t = TransformSpec(np.eye(3), np.zeros(3))
    x = np.random.default_rng(0).uniform(-1, 1, (4, 3))
    np.testing.assert_array_equal(t.apply(x), x)


def test_apply_preserves_norm_when_unshifted():
    rot = make_rotation(6, np.random.default_rng(21))
    t = TransformSpec(rot, np.zeros(6))
    x = np.random.default_rng(2).uniform(-3, 3, (20, 6))
    np.testing.assert_allclose(
        np.linalg.norm(t.apply(x), axis=1), np.linalg.norm(x, axis=1),
        rtol=1e-12,
    )
