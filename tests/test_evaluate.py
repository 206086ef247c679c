"""evaluate_batch against a copy of its plain component loop.

Each instance evaluates from a plan built once (raw functions, segment
index arrays, the linear constraint's weights as an array).  The bits
must be those of the loop that looks everything up per call.
"""

import pickle

import numpy as np
import pytest

from optforge.problems import basic
from optforge.problems.basic import BASIC_FUNCTIONS
from optforge.problems.constraints import CONSTRAINT_TEMPLATES, EPS_EQ
from optforge.problems.instance import (PARADIGMS, evaluate_batch,
                                        instance_from_dict, instance_to_dict)
from optforge.problems.synthesis import synthesize_instance


def _loop_constraint_values(spec, x):
    y = x - spec.center
    kind = spec.kind
    if kind == "linear":
        a = np.asarray(spec.params["a"], dtype=float)
        return y @ a - spec.params["b"]
    if kind == "ball":
        return np.sum(y**2, axis=-1) - spec.params["radius"] ** 2
    if kind == "cumsum_zero":
        return np.sum(np.cumsum(y, axis=-1) ** 2, axis=-1)
    if kind == "chain_zero":
        return np.sum((y[..., :-1] ** 2 - y[..., 1:]) ** 2, axis=-1)
    if kind == "product":
        return np.prod(y, axis=-1) - spec.params["c"]
    assert kind == "sinusoid"
    return np.sum(np.sin(y), axis=-1) - spec.params["b"]


def _loop_evaluate_batch(instance, x):
    f = np.zeros(x.shape[0])
    for comp in instance.components:
        fn = BASIC_FUNCTIONS[comp.basic]
        if comp.segment is not None:
            f += fn(comp.transform.apply(x[:, comp.segment]))
        else:
            f += comp.weight * fn(comp.transform.apply(x))
    viol = np.zeros(x.shape[0])
    for spec in instance.constraints:
        v = _loop_constraint_values(spec, x)
        if spec.is_equality:
            viol += np.maximum(0.0, np.abs(v) - EPS_EQ)
        else:
            viol += np.maximum(0.0, v)
    return f, viol


def _instances():
    """An unconstrained instance per paradigm, and per paradigm and
    constraint kind a constrained one that holds that kind."""
    want = {(p, None) for p in PARADIGMS}
    want |= {(p, kind) for p in PARADIGMS for kind in CONSTRAINT_TEMPLATES}
    found = {}
    for seed in range(400):
        d = (3, 7, 12, 30)[seed % 4]
        k = 1 if seed % 3 == 0 else 1 + seed % 4
        inst = synthesize_instance(d, k, constrained=seed % 5 != 0, seed=seed)
        kinds = [c.kind for c in inst.constraints] or [None]
        for kind in kinds:
            found.setdefault((inst.paradigm, kind), inst)
        if want <= set(found):
            return [found[key] for key in sorted(want, key=str)]
    raise RuntimeError(f"no instance for {want - set(found)}")


INSTANCES = _instances()


@pytest.mark.parametrize("inst", INSTANCES,
                         ids=[f"{i.paradigm}-d{i.d}-"
                              + "+".join(c.kind for c in i.constraints)
                              for i in INSTANCES])
@pytest.mark.parametrize("n", [1, 7, 64])
def test_evaluate_batch_matches_component_loop(inst, n):
    rng = np.random.default_rng(n * 1000 + inst.d)
    lo, hi = inst.bounds[:, 0], inst.bounds[:, 1]
    # a little outside the box as well, where optimizers' raw points go
    x = rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), (n, inst.d))
    f, viol = evaluate_batch(inst, x)
    want_f, want_viol = _loop_evaluate_batch(inst, x)
    assert f.tobytes() == want_f.tobytes()
    assert viol.tobytes() == want_viol.tobytes()


def test_evaluation_plan_survives_round_trips():
    for inst in INSTANCES:
        x = np.random.default_rng(inst.d).uniform(
            inst.bounds[:, 0], inst.bounds[:, 1], (7, inst.d))
        want = evaluate_batch(inst, x)
        for copy in (instance_from_dict(instance_to_dict(inst)),
                     pickle.loads(pickle.dumps(inst))):
            got = evaluate_batch(copy, x)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()


# the forms these functions had before they took np.rint and per-d index
# arrays built once
def _griewank(z):
    i = np.arange(1, z.shape[-1] + 1, dtype=float)
    return (1.0 + np.sum(z**2, axis=-1) / 4000.0
            - np.prod(np.cos(z / np.sqrt(i)), axis=-1))


def _katsuura(z):
    d = z.shape[-1]
    t = z[..., :, None] * basic._K_POW2
    t -= np.round(t)
    np.abs(t, out=t)
    t /= basic._K_POW2
    s = np.sum(t, axis=-1)
    i = np.arange(1, d + 1, dtype=float)
    prod = np.prod((1.0 + i * s) ** (10.0 / d**1.2), axis=-1)
    return (10.0 / d**2) * prod - 10.0 / d**2


def _weierstrass(z):
    d = z.shape[-1]
    u = z + 0.5
    u -= np.round(u)
    q = np.round(u * basic._W_QUANTUM).astype(np.int64)
    terms = (q[..., :, None] * basic._W_4BK) * basic._W_RAD_PER_UNIT
    np.cos(terms, out=terms)
    terms *= basic._W_AK
    inner = np.sum(terms, axis=-1)
    inner += 0.0 * u
    return np.sum(inner, axis=-1) - d * basic._W_CONST


@pytest.mark.parametrize("name, old", [("griewank", _griewank),
                                       ("katsuura", _katsuura),
                                       ("weierstrass", _weierstrass)])
@pytest.mark.parametrize("d", [1, 2, 7, 30])
def test_basic_function_matches_its_old_form(name, old, d):
    rng = np.random.default_rng(d)
    z = rng.uniform(-600.0, 600.0, (64, d))
    z[:8] = np.round(z[:8]) + 0.5  # halves, where rounding ties
    z[8:16] *= 1e-6
    z[16] = np.nan
    with np.errstate(invalid="ignore"):  # weierstrass casts the NaN row
        got, want = BASIC_FUNCTIONS[name].fn(z), old(z)
        assert got[:1].tobytes() == old(z[:1]).tobytes()
    assert got.tobytes() == want.tobytes()
