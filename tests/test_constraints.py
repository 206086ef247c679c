import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optforge.problems.constraints import (CONSTRAINT_TEMPLATES, EPS_EQ,
                                           ConstraintSpec, constraint_values,
                                           draw_constraint)
from optforge.problems.instance import violation_of


def _box(d, half=5.0):
    return np.array([[-half, half]] * d)


def test_template_catalog():
    assert set(CONSTRAINT_TEMPLATES) == {
        "linear", "ball", "cumsum_zero", "chain_zero", "product", "sinusoid",
    }


def test_equality_flags():
    rng = np.random.default_rng(0)
    kinds = {k: draw_constraint(k, _box(3), rng).is_equality
             for k in CONSTRAINT_TEMPLATES}
    assert kinds == {
        "linear": False, "ball": False, "sinusoid": False,
        "cumsum_zero": True, "chain_zero": True, "product": True,
    }


@pytest.mark.parametrize("kind", ["linear", "ball", "sinusoid"])
def test_inequalities_feasible_at_center(kind):
    rng = np.random.default_rng(7)
    for _ in range(20):
        spec = draw_constraint(kind, _box(4), rng)
        v = float(constraint_values(spec, spec.center[None])[0])
        assert v <= 0.0, (kind, v)


@pytest.mark.parametrize("kind", ["cumsum_zero", "chain_zero"])
def test_zero_style_equalities_satisfied_at_center(kind):
    rng = np.random.default_rng(8)
    spec = draw_constraint(kind, _box(5), rng)
    v = float(constraint_values(spec, spec.center[None])[0])
    assert abs(v) <= EPS_EQ


def test_linear_values():
    spec = ConstraintSpec("linear", center=np.zeros(2),
                          params={"a": [1.0, 2.0], "b": 0.5})
    x = np.array([[1.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(constraint_values(spec, x), [2.5, -0.5])


def test_ball_values():
    spec = ConstraintSpec("ball", center=np.array([1.0, 0.0]),
                          params={"radius": 2.0})
    x = np.array([[1.0, 0.0], [1.0, 3.0]])
    np.testing.assert_allclose(constraint_values(spec, x), [-4.0, 5.0])


def test_cumsum_zero_values():
    spec = ConstraintSpec("cumsum_zero", center=np.zeros(3))
    x = np.array([[1.0, -1.0, 2.0]])
    # partial sums 1, 0, 2 -> squares sum to 5
    np.testing.assert_allclose(constraint_values(spec, x), [5.0])


def test_chain_zero_values():
    spec = ConstraintSpec("chain_zero", center=np.zeros(3))
    x = np.array([[2.0, 4.0, 16.0]])
    np.testing.assert_allclose(constraint_values(spec, x), [0.0])
    x2 = np.array([[2.0, 3.0, 9.0]])
    np.testing.assert_allclose(constraint_values(spec, x2), [1.0])


def test_product_values():
    spec = ConstraintSpec("product", center=np.zeros(3), params={"c": 0.5})
    x = np.array([[1.0, 2.0, 3.0]])
    np.testing.assert_allclose(constraint_values(spec, x), [5.5])


def test_sinusoid_values():
    spec = ConstraintSpec("sinusoid", center=np.zeros(2), params={"b": 1.0})
    x = np.array([[math.pi / 2, math.pi / 2]])
    np.testing.assert_allclose(constraint_values(spec, x), [1.0], atol=1e-12)


@pytest.mark.parametrize("kind", CONSTRAINT_TEMPLATES)
@pytest.mark.blas_threads
def test_values_on_a_batch_equal_one_row_calls(kind):
    rng = np.random.default_rng(11)
    for n, d in [(1, 3), (37, 8), (200, 50)]:
        spec = draw_constraint(kind, _box(d), rng)
        x = rng.uniform(-5.0, 5.0, (n, d))
        single = np.concatenate([constraint_values(spec, row[None])
                                 for row in x])
        assert np.array_equal(constraint_values(spec, x), single)
        order = rng.permutation(n)
        assert np.array_equal(constraint_values(spec, x[order]),
                              single[order])


def test_violation_aggregates_and_eps():
    ineq = ConstraintSpec("ball", center=np.zeros(2), params={"radius": 1.0})
    eq = ConstraintSpec("product", center=np.zeros(2), params={"c": 0.0})
    # point inside the ball with tiny product: both satisfied
    x = np.array([[1e-3, 1e-3]])
    assert violation_of([ineq, eq], x)[0] == 0.0
    # outside the ball: violation is the positive g value
    x2 = np.array([[2.0, 0.0]])
    np.testing.assert_allclose(violation_of([ineq], x2), [3.0])
    # equality violation is |h| - eps
    eq2 = ConstraintSpec("product", center=np.zeros(1), params={"c": 1.0})
    x3 = np.array([[0.0]])
    np.testing.assert_allclose(violation_of([eq2], x3.reshape(1, 1)),
                               [1.0 - EPS_EQ])


def test_spec_validation():
    with pytest.raises(ValueError):
        ConstraintSpec("nope", center=np.zeros(2))
    with pytest.raises(ValueError):
        ConstraintSpec("linear", center=np.zeros(2), params={"a": [1.0]})
    with pytest.raises(ValueError):
        ConstraintSpec("linear", center=np.zeros(2),
                       params={"a": [1.0, 1.0], "b": -0.5})
    with pytest.raises(ValueError):
        ConstraintSpec("ball", center=np.zeros(2), params={"radius": 0.0})


# one valid parameter dict per template
_PARAMS = {"linear": {"a": [1.0, -1.0], "b": 0.5}, "ball": {"radius": 1.0},
           "cumsum_zero": {}, "chain_zero": {}, "product": {"c": 0.5},
           "sinusoid": {"b": 1.0}}


@pytest.mark.parametrize("kind", CONSTRAINT_TEMPLATES)
def test_spec_accepts_its_parameters(kind):
    spec = ConstraintSpec(kind, center=np.zeros(2), params=_PARAMS[kind])
    assert np.isfinite(constraint_values(spec, np.ones((1, 2)))).all()


@pytest.mark.parametrize("kind,name", [(k, n) for k in CONSTRAINT_TEMPLATES
                                       for n in _PARAMS[k]])
def test_spec_rejects_missing_parameter(kind, name):
    params = {n: v for n, v in _PARAMS[kind].items() if n != name}
    with pytest.raises(ValueError, match="takes parameters"):
        ConstraintSpec(kind, center=np.zeros(2), params=params)


@pytest.mark.parametrize("kind", CONSTRAINT_TEMPLATES)
def test_spec_rejects_unknown_parameter(kind):
    params = {**_PARAMS[kind], "junk": 1}
    with pytest.raises(ValueError, match="junk"):
        ConstraintSpec(kind, center=np.zeros(2), params=params)


def test_spec_rejects_linear_weights_of_wrong_length():
    with pytest.raises(ValueError, match="length d"):
        ConstraintSpec("linear", center=np.zeros(3), params=_PARAMS["linear"])


def test_center_read_only():
    spec = ConstraintSpec("ball", center=np.zeros(2), params={"radius": 1.0})
    with pytest.raises(ValueError):
        spec.center[0] = 3.0


def test_draw_deterministic():
    a = draw_constraint("linear", _box(4), np.random.default_rng(5))
    b = draw_constraint("linear", _box(4), np.random.default_rng(5))
    np.testing.assert_array_equal(a.center, b.center)
    assert a.params == b.params


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CONSTRAINT_TEMPLATES),
       st.integers(min_value=2, max_value=12),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_draw_center_in_middle_half(kind, d, seed):
    bounds = _box(d, half=10.0)
    spec = draw_constraint(kind, bounds, np.random.default_rng(seed))
    assert np.all(spec.center >= 0.5 * bounds[:, 0])
    assert np.all(spec.center <= 0.5 * bounds[:, 1])
    assert spec.d == d


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CONSTRAINT_TEMPLATES),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_violation_nonnegative(kind, seed):
    rng = np.random.default_rng(seed)
    spec = draw_constraint(kind, _box(4), rng)
    x = rng.uniform(-5, 5, (32, 4))
    v = violation_of([spec], x)
    assert np.all(v >= 0.0)
