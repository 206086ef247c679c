import os
import re
import warnings

import numpy as np
import pytest

import optforge.optimizers.base as base
from optforge.optimizers import annealing, gsa, lbfgsb
from optforge.optimizers.base import (BudgetExhausted, ObjectiveTracker,
                                      get_optimizer, rule_argmin, rule_key,
                                      rule_le, run, uniform_init)
from optforge.optimizers.grids import GRIDS
from optforge.problems.instance import ProblemInstance, evaluate_batch
from optforge.problems.synthesis import synthesize_instance
from optforge.problems.transforms import TransformSpec, make_rotation
from optforge.problems.instance import ComponentSpec

from reference_impls import ref_de_best1, ref_record_batch, ref_tracker_state


def shifted_sphere(d, seed):
    rng = np.random.default_rng(seed)
    rot = make_rotation(d, np.random.default_rng(seed))
    shift = rng.uniform(-50.0, 50.0, d)
    comp = ComponentSpec(basic="sphere", weight=1.0,
                         transform=TransformSpec(rot, shift))
    return ProblemInstance(d=d, bounds=[[-100.0, 100.0]] * d,
                            paradigm="single", components=[comp], seed=seed)

ALL_OPTIMIZERS = sorted(GRIDS)

# one small, cheap config per optimizer, drawn from its grid
SMALL_CONFIGS = {
    "samr_ga": {"NP": 10, "sigma_init": 0.5, "sigma_meta": 2.0,
                "sigma_best_limit": 0.001},
    "vanilla_de": {"NP": 10, "F": 0.5, "Cr": 0.9, "mutation": "best1",
                   "bound": "clip"},
    "deap_de": {"NP": 10, "F": 0.5, "Cr": 0.5},
    "vanilla_pso": {"NP": 10, "phi_1": 2.0, "phi_2": 2.0},
    "sep_cma_es": {"n_individuals": 10, "c_c": 1.0, "sigma": 0.3},
    "bipop_cma_es": {"NP": 10, "elite_ratio": 0.5, "min_num_gens": 10,
                     "popsize_multiplier": 2},
    "simulated_annealing": {"NP": 10, "sigma_init": 0.3, "sigma_limit": 0.05,
                            "temp_decay": 0.99, "boltzmann_const": 1.0},
    "dual_annealing": {"initial_temp": 5230.0, "visit": 2.62,
                       "restart_temp_ratio": 2.0e-5},
    "nsa": {"sigma": 0.3, "schedule": "linear", "n_samples": 10, "rt": 0.99},
    "random_search": {},
}


@pytest.fixture(scope="module")
def sphere_instance():
    # unconstrained composition around a shifted-rotated sphere-ish mix
    return synthesize_instance(d=4, k=1, constrained=False, seed=20)


@pytest.fixture(scope="module")
def constrained_instance():
    for seed in range(50):
        inst = synthesize_instance(d=4, k=1, constrained=True, seed=seed)
        if all(not c.is_equality for c in inst.constraints):
            return inst
    raise RuntimeError("no inequality-only instance found")


# ---------------------------------------------------------------------------
# feasibility rule


def test_rule_key_ordering():
    feasible_good = rule_key(1.0, 0.0)
    feasible_bad = rule_key(5.0, 0.0)
    infeasible_small = rule_key(-10.0, 0.1)
    infeasible_large = rule_key(-50.0, 2.0)
    assert feasible_good < feasible_bad < infeasible_small < infeasible_large


def test_rule_argmin_prefers_feasible():
    f = np.array([5.0, -2.0, 1.0])
    v = np.array([0.0, 3.0, 0.0])
    assert rule_argmin(f, v) == 2
    # all infeasible: smallest violation wins, objective tie-breaks
    v2 = np.array([2.0, 1.0, 1.0])
    f2 = np.array([0.0, 9.0, 3.0])
    assert rule_argmin(f2, v2) == 2


def test_rule_le_matrix():
    assert rule_le(1.0, 0.0, 2.0, 0.0)
    assert rule_le(2.0, 0.0, 2.0, 0.0)
    assert not rule_le(3.0, 0.0, 2.0, 0.0)
    assert rule_le(99.0, 0.0, -99.0, 0.5)
    assert rule_le(99.0, 0.1, -99.0, 0.5)
    assert not rule_le(99.0, 0.5, -99.0, 0.1)


def test_rule_le_ranks_nan_objective_last():
    nan = float("nan")
    assert rule_le([1.0], [0.0], [nan], [0.0]).tolist() == [True]
    assert rule_le([nan], [0.0], [1.0], [0.0]).tolist() == [False]
    assert rule_le([nan], [0.0], [nan], [0.0]).tolist() == [True]
    # violation still decides before the objective
    assert rule_le([nan], [0.0], [1.0], [0.5]).tolist() == [True]
    assert rule_le([1.0], [0.5], [nan], [0.0]).tolist() == [False]


# ---------------------------------------------------------------------------
# tracker


def test_tracker_budget_and_partial(sphere_instance):
    t = ObjectiveTracker(sphere_instance, fe_budget=10)
    x = np.zeros((6, sphere_instance.d))
    f, v = t.batch(x)
    assert len(f) == 6 and t.fe_used == 6
    # a 7-row batch: its second row beats the first call's rows, and its
    # last row, which does not fit, beats them all
    rng = np.random.default_rng(0)
    pool = rng.uniform(-100, 100, (1000, sphere_instance.d))
    order = np.argsort(evaluate_batch(sphere_instance, pool)[0])
    y = rng.uniform(-50, 50, (7, sphere_instance.d))
    y[1], y[-1] = pool[order[1]], pool[order[0]]
    fy = evaluate_batch(sphere_instance, y[:4])[0]
    assert np.argmin(fy) == 1 and fy[1] < f.min()
    assert evaluate_batch(sphere_instance, y[-1:])[0][0] < fy[1]
    with pytest.raises(BudgetExhausted):
        t.batch(y)
    assert t.fe_used == 10
    # the truncated call recorded its 4-row prefix and nothing after it
    assert t.best_x.tolist() == y[1].tolist()
    assert (t.best_f, t.best_violation) == (float(fy[1]), 0.0)
    assert t.trace[-1] == (8, float(fy[1]), 0.0)
    with pytest.raises(BudgetExhausted):
        t.batch(np.zeros((1, sphere_instance.d)))


def test_tracker_trace_monotone(sphere_instance):
    rng = np.random.default_rng(7)
    t = ObjectiveTracker(sphere_instance, fe_budget=200)
    for _ in range(10):
        t.batch(rng.uniform(-50, 50, (20, sphere_instance.d)))
    fes = [e[0] for e in t.trace]
    assert fes == sorted(fes)
    keys = [rule_key(e[1], e[2]) for e in t.trace]
    assert all(keys[i + 1] < keys[i] for i in range(len(keys) - 1))
    assert t.trace[-1][1] == t.best_f


def test_tracker_one_row_batches_match_generic_bookkeeping(
        constrained_instance):
    # one-row batches skip rule_argmin; the f0 anchor, best point and
    # trace must come out as the batch-generic bookkeeping gives them
    inst = constrained_instance
    # the first four rows are infeasible and the fifth feasible; about
    # half of all rows are infeasible
    xs = np.random.default_rng(2).uniform(inst.bounds[:, 0],
                                          inst.bounds[:, 1], (80, inst.d))
    t = ObjectiveTracker(inst, fe_budget=80)
    want = ref_tracker_state()
    for x in xs:
        f, v = t.batch(x[None])
        ref_record_batch(want, [x.tolist()], [float(f[0])], [float(v[0])])
    assert t.fe_used == want["fe"] == 80
    assert t.trace[0][2] > 0.0 and t.best_violation == 0.0
    assert (t.f0, t.f0_violation) == (want["f0"], want["f0_viol"])
    assert (t.best_f, t.best_violation) == (want["best_f"], want["best_viol"])
    assert t.best_x.tolist() == want["best_x"]
    assert t.trace == want["trace"]


_NAN = float("nan")


@pytest.mark.parametrize("batches", [
    # unconstrained, tied minima within and across batches
    [([3.0, 1.0, 2.0, 1.0], [0.0] * 4), ([1.0, 0.5, 0.5, 7.0], [0.0] * 4),
     ([0.5, 0.5, 0.5, 0.5], [0.0] * 4), ([9.0, 0.25, 0.25], [0.0] * 3)],
    # an unconstrained NaN objective in a batch's first row
    [([2.0, 2.0, 3.0], [0.0] * 3), ([_NAN, 1.0, 0.0], [0.0] * 3),
     ([-1.0, -2.0], [0.0] * 2)],
    # a NaN violation takes the feasibility rule's path
    [([5.0, 4.0, 6.0], [_NAN, 0.0, 0.0]), ([0.0, 1.0], [0.5, _NAN]),
     ([3.0, 3.0, 2.0], [0.0, 0.0, 0.0])],
])
def test_tracker_argmin_fast_path_matches_reference(batches, sphere_instance,
                                                     monkeypatch):
    # batches whose violations are all 0 take f.argmin() in place of
    # rule_argmin; the bookkeeping must come out as the reference gives it
    queue = [(np.array(f), np.array(v)) for f, v in batches]
    monkeypatch.setattr(base, "evaluate_batch", lambda inst, x: queue.pop(0))
    t = ObjectiveTracker(sphere_instance, fe_budget=100)
    want = ref_tracker_state()
    fe = 0
    for f, v in batches:
        xs = np.arange(fe, fe + len(f), dtype=float)[:, None].repeat(
            sphere_instance.d, axis=1)
        fe += len(f)
        t.batch(xs)
        ref_record_batch(want, xs.tolist(), f, v)
    assert t.fe_used == want["fe"]
    np.testing.assert_equal((t.f0, t.f0_violation),
                            (want["f0"], want["f0_viol"]))
    np.testing.assert_equal((t.best_f, t.best_violation),
                            (want["best_f"], want["best_viol"]))
    assert t.best_x.tolist() == want["best_x"]
    np.testing.assert_equal(t.trace, want["trace"])


@pytest.mark.parametrize("f, v", [
    ([1.0, _NAN, 0.5], [0.0] * 3),      # NaN objective after the first row
    ([_NAN, _NAN, 1.0], [0.0] * 3),
    ([1.0, 0.5, 0.5], [0.0, _NAN, 0.0]),
    ([1.0, 0.5, 0.25], [0.0, 0.0, 1e-300]),
    ([3.0, 1.0, 1.0, 2.0], [0.0] * 4),  # tied minima
    ([3.0, 1.0, 2.0], [0.5, 0.0, 0.0]),
])
def test_tracker_best_row_is_rule_argmin(f, v):
    f, v = np.array(f), np.array(v)
    assert ObjectiveTracker._best_row(f, v) == rule_argmin(f, v)
    assert ObjectiveTracker._best_row(f[:1], v[:1]) == rule_argmin(f[:1], v[:1])


@pytest.mark.parametrize("f, v, want", [
    ([_NAN, 1.0, 0.0], [0.0] * 3, 2),
    ([_NAN, _NAN, 1.0], [0.0] * 3, 2),
    ([3.0, _NAN, 3.0], [0.0] * 3, 0),
    ([_NAN, 1.0, 0.0], [0.5, 0.5, 1.0], 1),
    ([_NAN, 9.0], [0.0, 0.5], 0),       # feasibility comes first
    ([_NAN, _NAN], [0.0, 0.0], 0),
])
def test_rule_argmin_ranks_nan_objective_last(f, v, want):
    assert rule_argmin(f, v) == want
    assert ObjectiveTracker._best_row(np.array(f), np.array(v)) == want
    assert rule_key(1e308, 0.0) < rule_key(_NAN, 0.0)
    assert not rule_key(_NAN, 0.0) < rule_key(_NAN, 0.0)


def _fed_tracker(instance, batches, monkeypatch):
    # a tracker whose evaluations return the given (f, violation) batches
    queue = [(np.array(f), np.array(v)) for f, v in batches]
    monkeypatch.setattr(base, "evaluate_batch", lambda inst, x: queue.pop(0))
    t = ObjectiveTracker(instance, fe_budget=100)
    for f, _ in batches:
        t.batch(np.zeros((len(f), instance.d)))
    return t


def test_tracker_records_best_of_batch_with_nan_objective(sphere_instance,
                                                          monkeypatch):
    t = _fed_tracker(sphere_instance, [([2.0, 3.0], [0.0, 0.0]),
                                       ([_NAN, 1.0, 0.0], [0.0] * 3)],
                     monkeypatch)
    assert (t.best_f, t.best_violation) == (0.0, 0.0)
    assert t.trace == [(1, 2.0, 0.0), (5, 0.0, 0.0)]


@pytest.mark.parametrize("batches, f0", [
    # a first batch of NaN objectives fixes f0 all the same
    ([([_NAN, _NAN], [0.0, 0.0]), ([4.0], [0.0]), ([_NAN], [0.0]),
      ([5.0, 3.0], [0.0, 0.0])], (_NAN, 0.0)),
    # the feasibility rule picks within the first batch
    ([([1.0, 7.0, 6.0], [0.5, 0.0, 0.0]), ([4.0], [0.0]), ([_NAN], [0.0]),
      ([5.0, 3.0], [0.0, 0.0])], (6.0, 0.0)),
], ids=["nan-first-batch", "feasibility-rule"])
def test_tracker_f0_is_the_first_batchs_rule_best(batches, f0,
                                                  sphere_instance,
                                                  monkeypatch):
    t = _fed_tracker(sphere_instance, batches, monkeypatch)
    # no later batch moves f0, not even one that improves on it
    np.testing.assert_equal((t.f0, t.f0_violation), f0)
    assert t.trace[-1] == (sum(len(f) for f, _ in batches), 3.0, 0.0)


# ---------------------------------------------------------------------------
# run protocol, all optimizers


def test_registry_has_full_pool():
    for optimizer in GRIDS:
        assert callable(get_optimizer(optimizer))


def test_register_rejects_a_name_without_a_grid():
    with pytest.raises(ValueError) as err:
        base.register("no_such_optimizer")
    assert "no_such_optimizer" in str(err.value)
    with pytest.raises(KeyError):
        get_optimizer("no_such_optimizer")


def test_register_takes_only_a_generator_function():
    def plain(tracker, config, rng):
        tracker.batch(uniform_init(rng, tracker.bounds, 1))

    with pytest.raises(TypeError) as err:
        base.register("random_search")(plain)
    assert "plain" in str(err.value)
    assert get_optimizer("random_search") is not plain


@pytest.mark.parametrize("optimizer", ALL_OPTIMIZERS)
def test_run_ok_and_budget(optimizer, sphere_instance, run_trackers):
    res = run(optimizer, SMALL_CONFIGS[optimizer], sphere_instance,
              fe_budget=300, seed=11)
    assert res.status == "ok", res.message
    assert 0 < res.fe_used <= 300
    assert res.f0 is not None
    assert res.best_f <= res.f0
    (t,) = run_trackers
    assert t.best_x.shape == (sphere_instance.d,)
    lo, hi = sphere_instance.bounds[:, 0], sphere_instance.bounds[:, 1]
    assert np.all(t.best_x >= lo - 1e-12)
    assert np.all(t.best_x <= hi + 1e-12)


@pytest.mark.parametrize("optimizer", ALL_OPTIMIZERS)
def test_run_deterministic(optimizer, sphere_instance, run_trackers):
    a = run(optimizer, SMALL_CONFIGS[optimizer], sphere_instance, 250, seed=3)
    b = run(optimizer, SMALL_CONFIGS[optimizer], sphere_instance, 250, seed=3)
    assert a == b
    ta, tb = run_trackers
    assert ta.best_x.tolist() == tb.best_x.tolist()


@pytest.mark.parametrize("optimizer",
                         [o for o in ALL_OPTIMIZERS if o != "random_search"])
def test_run_seed_sensitivity(optimizer, sphere_instance, run_trackers):
    a = run(optimizer, SMALL_CONFIGS[optimizer], sphere_instance, 250, seed=3)
    b = run(optimizer, SMALL_CONFIGS[optimizer], sphere_instance, 250, seed=4)
    assert a.status == b.status == "ok"
    ta, tb = run_trackers
    assert a.best_f != b.best_f or ta.best_x.tolist() != tb.best_x.tolist()


@pytest.mark.parametrize("optimizer", ALL_OPTIMIZERS)
def test_run_trace_well_formed(optimizer, sphere_instance):
    res = run(optimizer, SMALL_CONFIGS[optimizer], sphere_instance, 300, seed=9)
    fes = [e[0] for e in res.trace]
    assert fes == sorted(fes)
    assert all(1 <= fe <= res.fe_used for fe in fes)
    assert res.trace[-1][1] == res.best_f


@pytest.mark.parametrize("kind", ["unconstrained", "constrained"])
@pytest.mark.parametrize("optimizer", ALL_OPTIMIZERS)
def test_f0_is_the_rule_best_of_the_first_ask(optimizer, kind,
                                              sphere_instance,
                                              constrained_instance):
    inst = {"unconstrained": sphere_instance,
            "constrained": constrained_instance}[kind]
    config = SMALL_CONFIGS[optimizer]
    res = run(optimizer, config, inst, fe_budget=300, seed=6)
    steps = get_optimizer(optimizer)(ObjectiveTracker(inst, 300), config,
                                     np.random.Generator(np.random.PCG64(6)))
    f, viol = evaluate_batch(inst, next(steps))
    steps.close()
    j = rule_argmin(f, viol)
    assert res.status == "ok", res.message
    assert (res.f0, res.f0_violation) == (float(f[j]), float(viol[j]))


def test_random_search_evaluates_one_uniform_draw(sphere_instance,
                                                  monkeypatch):
    rows = []

    def logged_evaluate_batch(instance, x):
        rows.extend(x.tolist())
        return evaluate_batch(instance, x)

    monkeypatch.setattr(base, "evaluate_batch", logged_evaluate_batch)
    res = run("random_search", {}, sphere_instance, fe_budget=131, seed=8)
    want = uniform_init(np.random.Generator(np.random.PCG64(8)),
                        sphere_instance.bounds, 131)
    assert res.fe_used == 131
    assert rows == want.tolist()
    assert res.f0 == float(evaluate_batch(sphere_instance, want[:1])[0][0])


def test_budget_smaller_than_init_sample_fails(sphere_instance):
    cfg = dict(SMALL_CONFIGS["deap_de"], NP=200)
    res = run("deap_de", cfg, sphere_instance, fe_budget=50, seed=0)
    assert res.status == "failed"
    assert res.fe_used == 0
    assert "initial sample" in res.message


def test_budget_never_exceeded_even_when_tight(sphere_instance):
    for optimizer in ALL_OPTIMIZERS:
        cfg = SMALL_CONFIGS[optimizer]
        res = run(optimizer, cfg, sphere_instance, fe_budget=23, seed=5)
        assert res.fe_used <= 23, optimizer


@pytest.mark.parametrize("optimizer", ALL_OPTIMIZERS)
def test_constrained_runs_finish(optimizer, constrained_instance):
    res = run(optimizer, SMALL_CONFIGS[optimizer], constrained_instance,
              fe_budget=300, seed=2)
    assert res.status == "ok", res.message
    assert res.best_violation is not None


def test_unknown_optimizer_rejected(sphere_instance):
    with pytest.raises(KeyError):
        run("nope", {}, sphere_instance, 100, seed=0)


def test_off_grid_config_rejected(sphere_instance):
    with pytest.raises(ValueError):
        run("deap_de", {"NP": 10, "F": 0.2, "Cr": 0.1}, sphere_instance,
            100, seed=0)


def test_crashing_optimizer_marks_failed(sphere_instance, monkeypatch):
    def boom(tracker, config, rng):
        raise RuntimeError("synthetic crash")
        yield

    monkeypatch.setitem(base._REGISTRY, "random_search", boom)
    res = run("random_search", {}, sphere_instance, 100, seed=0)
    assert res.status == "failed"
    assert "synthetic crash" in res.message


# ---------------------------------------------------------------------------
# DE engine against the scalar-loop reference


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_vanilla_de_matches_reference(seed, run_trackers):
    inst = synthesize_instance(d=3, k=2, constrained=False, seed=40 + seed)
    cfg = {"NP": 10, "F": 0.5, "Cr": 0.9, "mutation": "best1", "bound": "clip"}
    got = run("vanilla_de", cfg, inst, fe_budget=137, seed=seed)
    want = ref_de_best1(inst, np_=10, f_weight=0.5, cr=0.9, fe_budget=137,
                        seed=seed)
    assert got.status == "ok"
    assert got.fe_used == want["fe"] == 137
    assert got.f0 == pytest.approx(want["f0"], rel=1e-12)
    assert got.best_f == pytest.approx(want["best_f"], rel=1e-12)
    (t,) = run_trackers
    np.testing.assert_allclose(t.best_x, want["best_x"], rtol=1e-12)
    assert len(got.trace) == len(want["trace"])
    for (fe_a, f_a, v_a), (fe_b, f_b, v_b) in zip(got.trace, want["trace"]):
        assert fe_a == fe_b
        assert f_a == pytest.approx(f_b, rel=1e-12)


def test_vanilla_de_constrained_matches_reference():
    inst = synthesize_instance(d=3, k=1, constrained=True, seed=44)
    cfg = {"NP": 10, "F": 0.5, "Cr": 0.5, "mutation": "best1", "bound": "clip"}
    got = run("vanilla_de", cfg, inst, fe_budget=90, seed=7)
    want = ref_de_best1(inst, np_=10, f_weight=0.5, cr=0.5, fe_budget=90,
                        seed=7)
    assert got.best_f == pytest.approx(want["best_f"], rel=1e-12)
    assert got.best_violation == pytest.approx(want["best_viol"], abs=1e-12)


# ---------------------------------------------------------------------------
# dual_annealing: batched finite-difference gradients


class _RowByRowTracker(ObjectiveTracker):
    """Tracker that records evaluations one row at a time, as one-row
    calls record them, and logs every evaluated point."""

    def __init__(self, *args):
        super().__init__(*args)
        self.points = []

    def tell(self, x, f, violation):
        self.points += x.tolist()
        for i in range(len(x)):
            super().tell(x[i:i + 1], f[i:i + 1], violation[i:i + 1])


def _stepped(fn):
    """``fn``, a plain function that evaluates through its tracker, as
    the generator function the run protocol takes: it runs whole at the
    first step."""
    def steps(tracker, config, rng):
        fn(tracker, config, rng)
        return
        yield

    return steps


def _plain_scipy_dual_annealing(tracker, config, rng):
    # scipy's own default local search, one objective call per point
    from scipy.optimize import dual_annealing as scipy_dual_annealing

    x0 = uniform_init(rng, tracker.bounds, 1)[0]
    sp_seed = int(rng.integers(0, 2**31 - 1))

    def penalized(x):
        f, viol = tracker.batch(np.asarray(x, dtype=float)[None])
        return float(f[0] + base.PENALTY_COEFF * viol[0])

    scipy_dual_annealing(
        penalized,
        bounds=[(float(lo), float(hi)) for lo, hi in tracker.bounds],
        maxfun=tracker.remaining, maxiter=10**6, seed=sp_seed, x0=x0,
        initial_temp=config["initial_temp"], visit=config["visit"],
        restart_temp_ratio=config["restart_temp_ratio"],
    )


def _logged_run(monkeypatch, optimizer, instance, fe_budget, seed):
    trackers = []

    def make_tracker(*args):
        trackers.append(_RowByRowTracker(*args))
        return trackers[-1]

    monkeypatch.setattr(base, "ObjectiveTracker", make_tracker)
    res = run(optimizer, SMALL_CONFIGS[optimizer], instance, fe_budget, seed)
    return res, trackers[0].points


# on both instances a local search stops at L-BFGS-B's maxiter
@pytest.mark.parametrize("constrained, k, seed", [(False, 2, 20),
                                                  (True, 1, 105)])
@pytest.mark.blas_threads
def test_dual_annealing_only_batches_scipy_default_local_search(
        constrained, k, seed, monkeypatch):
    inst = synthesize_instance(d=5, k=k, constrained=constrained, seed=seed)
    got, got_points = _logged_run(monkeypatch, "dual_annealing", inst,
                                  3000, seed=4)
    monkeypatch.setitem(base._REGISTRY, "dual_annealing",
                        _stepped(_plain_scipy_dual_annealing))
    want, want_points = _logged_run(monkeypatch, "dual_annealing", inst,
                                    3000, seed=4)
    assert want.status == "ok" and want.fe_used == 3000
    assert got_points == want_points
    assert got == want


def _against_plain_scipy(monkeypatch, inst, fe_budget, seed):
    """``dual_annealing`` and plain scipy on ``inst``: both results, both
    lists of evaluated points, and the messages of plain scipy's local
    searches."""
    import scipy.optimize._dual_annealing as scipy_da

    messages = []

    def logged_minimize(*args, **kwargs):
        res = scipy_minimize(*args, **kwargs)
        messages.append(res.message)
        return res

    scipy_minimize = scipy_da.minimize
    got, got_points = _logged_run(monkeypatch, "dual_annealing", inst,
                                  fe_budget, seed)
    monkeypatch.setattr(scipy_da, "minimize", logged_minimize)
    monkeypatch.setitem(base._REGISTRY, "dual_annealing",
                        _stepped(_plain_scipy_dual_annealing))
    want, want_points = _logged_run(monkeypatch, "dual_annealing", inst,
                                    fe_budget, seed)
    return got, want, got_points, want_points, messages


def _sphere_in_box(bounds, shift, seed=0):
    # an unrotated sphere; a shift beyond a bound puts its box optimum
    # on that bound
    d = len(bounds)
    comp = ComponentSpec(basic="sphere", weight=1.0,
                         transform=TransformSpec(np.eye(d), np.array(shift)))
    return ProblemInstance(d=d, bounds=bounds, paradigm="single",
                            components=[comp], seed=seed)


_TOP = 2.0**27 - 2.0**-26  # the largest x with x + 1e-8 != x


@pytest.mark.parametrize("bounds, shift, steps_back", [
    # local searches that end on the upper bound of the first coordinate,
    # where the step is -1e-8
    ([[-100.0, 100.0]] * 4, [150.0, -30.0, 20.0, 7.0], True),
    # the widest box scipy steps in by 1e-8: x + 1e-8 != x at both ends
    ([[-2.0**27, _TOP]] * 2, [2.0**28, 5.0], False),
    # the narrowest: every x has more than 1e-8 of room on one side
    ([[0.0, np.nextafter(2e-8, 1.0)], [-5.0, 5.0]], [1.0, 1.0], True),
])
@pytest.mark.blas_threads
def test_dual_annealing_gradient_equals_scipy_finite_differences(
        bounds, shift, steps_back, monkeypatch):
    inst = _sphere_in_box(bounds, shift)
    got, want, got_points, want_points, _ = _against_plain_scipy(
        monkeypatch, inst, 600, seed=2)
    assert want.status == "ok" and want.fe_used == 600
    assert got_points == want_points
    assert got == want
    hi = bounds[0][1]
    assert any(p[0] == hi - 1e-8 for p in got_points) == steps_back


def test_dual_annealing_local_search_stops_at_scipy_maxfun(monkeypatch):
    # d = 50: L-BFGS-B's maxfun of 15000 binds after 294 gradient steps
    d = 50
    comp = ComponentSpec(basic="rosenbrock", weight=1.0,
                         transform=TransformSpec(np.eye(d),
                                                 np.full(d, 10.0)))
    inst = ProblemInstance(d=d, bounds=[[-100.0, 100.0]] * d,
                            paradigm="single", components=[comp], seed=0)
    got, want, got_points, want_points, messages = _against_plain_scipy(
        monkeypatch, inst, 16500, seed=0)
    assert "TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT" in messages[0]
    assert want.status == "ok" and want.fe_used == 16500
    assert got_points == want_points
    assert got == want


@pytest.mark.parametrize("bounds", [
    [[-1.0, 2.0**27]] * 2,                    # 2**27 + 1e-8 == 2**27
    [[-2.0**27 - 2.0**-25, 1.0]] * 2,         # the next float below -2**27
    [[0.0, 1.5e-8], [-5.0, 5.0]],             # scipy steps by 0.75e-8 here
    [[-5.0, 5.0], [1.0, 1.0 + 1e-8]],
    [[-5.0, 5.0], [0.0, 2e-8]],
])
def test_dual_annealing_rejects_boxes_scipy_steps_in_otherwise(bounds,
                                                              monkeypatch):
    inst = _sphere_in_box(bounds, [0.0, 0.0])
    # the port the bench runs, then the scipy call answers ship
    for fn in (get_optimizer("dual_annealing"),
               _stepped(annealing.dual_annealing)):
        monkeypatch.setitem(base._REGISTRY, "dual_annealing", fn)
        res = run("dual_annealing", SMALL_CONFIGS["dual_annealing"], inst,
                  300, seed=0)
        assert res.status == "failed" and res.fe_used == 0
        assert "steps of 1e-8" in res.message
    other = run("random_search", {}, inst, 300, seed=0)
    assert other.status == "ok" and other.fe_used == 300


def test_dual_annealing_batches_gradients_within_budget(monkeypatch):
    inst = synthesize_instance(d=10, k=2, constrained=False, seed=3)
    cfg = SMALL_CONFIGS["dual_annealing"]
    calls = []

    def logged_evaluate_batch(instance, x):
        f, viol = evaluate_batch(instance, x)
        calls.append((len(x), f, viol))
        return f, viol

    monkeypatch.setattr(base, "evaluate_batch", logged_evaluate_batch)

    def checked_run(fe_budget):
        calls.clear()
        with warnings.catch_warnings():
            # a scipy warning, such as one for an unknown solver option,
            # fails the run
            warnings.simplefilter("error")
            res = run("dual_annealing", cfg, inst, fe_budget, seed=1)
        assert res.status == "ok", res.message
        assert res.fe_used == fe_budget
        assert sum(n for n, _, _ in calls) == fe_budget
        return res

    full = checked_run(1500)
    assert len(calls) < full.fe_used
    assert max(n for n, _, _ in calls) == inst.d

    # end the budget on the third row of a gradient batch, at a row
    # that improves on every earlier one
    rows = [(n, i, rule_key(float(f[i]), float(viol[i])))
            for n, f, viol in calls for i in range(n)]
    cut = next(fe + 1 for fe, (n, i, key) in enumerate(rows)
               if n == inst.d and i == 2
               and key < min(k for _, _, k in rows[:fe]))

    res = checked_run(cut)
    assert calls[-1][0] == 3  # the fitting prefix of a 10-point gradient
    assert rule_key(res.best_f, res.best_violation) == rows[cut - 1][2]
    assert res.trace[-1] == (cut, res.best_f, res.best_violation)


# ---------------------------------------------------------------------------
# dual_annealing: the bench port against the scipy call answers ship


class _BatchLogTracker(ObjectiveTracker):
    """Tracker that logs the rows of every batch it records."""

    def __init__(self, *args):
        super().__init__(*args)
        self.batches = []

    def tell(self, x, f, violation):
        self.batches.append(x.tolist())
        super().tell(x, f, violation)


def _port_and_scipy_call(monkeypatch, inst, config, fe_budget, seed,
                         tracker_cls=_BatchLogTracker):
    """The registered port and the scipy call on ``inst``: both results
    and both lists of evaluated batches."""
    out = []
    for fn in (get_optimizer("dual_annealing"),
               _stepped(annealing.dual_annealing)):
        trackers = []

        def make_tracker(*args):
            trackers.append(tracker_cls(*args))
            return trackers[-1]

        monkeypatch.setattr(base, "ObjectiveTracker", make_tracker)
        monkeypatch.setitem(base._REGISTRY, "dual_annealing", fn)
        out.append((run("dual_annealing", config, inst, fe_budget, seed),
                    trackers[0].batches))
    return out


def _instance_of(paradigm, constrained, d=5):
    k = 1 if paradigm == "single" else 2
    for seed in range(100):
        inst = synthesize_instance(d=d, k=k, constrained=constrained,
                                   seed=seed)
        if inst.paradigm == paradigm:
            return inst
    raise RuntimeError(f"no {paradigm} instance found")


def test_dual_annealing_answer_is_the_scipy_call():
    assert get_optimizer("dual_annealing") is not annealing.dual_annealing
    assert base.get_answer("dual_annealing") is annealing.dual_annealing
    assert base.get_answer("vanilla_de") is get_optimizer("vanilla_de")


# a high restart ratio re-anneals within the budget, from a fresh draw
@pytest.mark.parametrize("config", [
    {"initial_temp": 5230.0, "visit": 1.62, "restart_temp_ratio": 2.0e-1},
    {"initial_temp": 523.0, "visit": 2.62, "restart_temp_ratio": 2.0e-3},
    {"initial_temp": 50000.0, "visit": 3.62, "restart_temp_ratio": 2.0e-5},
])
@pytest.mark.parametrize("constrained", [False, True])
@pytest.mark.parametrize("paradigm", ["single", "composition", "hybrid"])
def test_dual_annealing_port_equals_scipy_call(paradigm, constrained, config,
                                               monkeypatch):
    inst = _instance_of(paradigm, constrained)
    (got, got_batches), (want, want_batches) = _port_and_scipy_call(
        monkeypatch, inst, config, 1200, seed=3)
    assert want.status == "ok" and want.fe_used == 1200
    assert got_batches == want_batches
    assert got == want


@pytest.mark.parametrize("paradigm", ["single", "hybrid"])
def test_dual_annealing_port_equals_scipy_call_after_stagnation(
        paradigm, monkeypatch):
    # d = 2 and 6000 evaluations: 1000 chains without a new best, then
    # local searches from the chain minimum every d chains
    inst = _instance_of(paradigm, False, d=2)
    (got, got_batches), (want, want_batches) = _port_and_scipy_call(
        monkeypatch, inst, SMALL_CONFIGS["dual_annealing"], 6000, seed=3)
    assert want.status == "ok" and want.fe_used == 6000
    assert got_batches == want_batches
    assert got == want


class _NonFiniteStartTracker(_BatchLogTracker):
    """Objective ``bad`` on the first three evaluations: written, once
    they are recorded, into the values the run is sent."""

    bad = np.inf

    def tell(self, x, f, violation):
        fe_before = self.fe_used
        super().tell(x, f, violation)
        f[:max(0, 3 - fe_before)] = self.bad


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_dual_annealing_port_redraws_a_non_finite_start_as_scipy(
        bad, monkeypatch):
    # scipy redraws the start point while its energy is not finite, and
    # keeps the first energy as the best so far
    monkeypatch.setattr(_NonFiniteStartTracker, "bad", bad)
    inst = _instance_of("single", False)
    (got, got_batches), (want, want_batches) = _port_and_scipy_call(
        monkeypatch, inst, SMALL_CONFIGS["dual_annealing"], 600, seed=1,
        tracker_cls=_NonFiniteStartTracker)
    assert want.status == "ok" and want.fe_used == 600
    assert got_batches == want_batches
    assert got == want


def test_gammaln_table_is_scipy_gammaln():
    from scipy.special import gammaln

    assert sorted(gsa._GAMMALN_D1) == sorted(GRIDS["dual_annealing"]["visit"])
    for visit, value in gsa._GAMMALN_D1.items():
        assert value == gammaln(2.0 - (1.0 / (visit - 1.0) - 0.5))


@pytest.mark.blas_threads
def test_lockstep_runs_equal_solo_runs_when_some_fail(monkeypatch):
    # the port fails before its first evaluation at visit 3.62 and after
    # 30 asks at visit 1.62; the other chains run to the budget
    port = get_optimizer("dual_annealing")

    def flaky(tracker, config, rng):
        if config["visit"] == 3.62:
            raise ValueError("no start")
        steps = port(tracker, config, rng)
        value = None
        for step in range(10**9):
            if config["visit"] == 1.62 and step == 30:
                raise ArithmeticError("mid-run")
            try:
                ask = steps.send(value)
            except StopIteration:
                return
            value = yield ask

    monkeypatch.setitem(base._REGISTRY, "dual_annealing", flaky)
    inst = _instance_of("composition", True)
    tasks = [("dual_annealing", {**SMALL_CONFIGS["dual_annealing"],
                                 "visit": visit}, seed)
             for visit in (1.62, 2.62, 3.62) for seed in (1, 2)]
    tasks.append(("random_search", {}, 1))
    lockstep = base.Lockstep(inst, 400, tasks)
    together = [run(*task[:2], inst, 400, task[2], lockstep=lockstep)
                for task in tasks]
    assert together == [run(*task[:2], inst, 400, task[2]) for task in tasks]
    assert [(r.status, r.fe_used > 0, r.message) for r in together] == [
        ("failed", True, "ArithmeticError: mid-run")] * 2 + [
        ("ok", True, "")] * 2 + [
        ("failed", False, "ValueError: no start")] * 2 + [("ok", True, "")]
    assert [r.fe_used for r in together[2:4]] == [400, 400]


def test_malformed_ask_fails_only_its_own_run(sphere_instance, monkeypatch):
    d = sphere_instance.d

    def flat_after_one_batch(tracker, config, rng):
        yield uniform_init(rng, tracker.bounds, 2)
        yield np.zeros(tracker.d)

    def no_rows(tracker, config, rng):
        yield np.zeros((0, tracker.d))

    def extra_column(tracker, config, rng):
        yield np.zeros((2, tracker.d + 1))

    for name, fn in [("nsa", flat_after_one_batch),
                     ("simulated_annealing", no_rows),
                     ("samr_ga", extra_column)]:
        monkeypatch.setitem(base._REGISTRY, name, fn)
    tasks = [("nsa", SMALL_CONFIGS["nsa"], 1), ("random_search", {}, 1),
             ("simulated_annealing", SMALL_CONFIGS["simulated_annealing"], 1),
             ("samr_ga", SMALL_CONFIGS["samr_ga"], 1)]
    lockstep = base.Lockstep(sphere_instance, 300, tasks)
    together = [run(*task[:2], sphere_instance, 300, task[2],
                    lockstep=lockstep) for task in tasks]
    assert [(r.status, r.fe_used, r.message) for r in together[::2]] == [
        ("failed", 2, f"ValueError: expected shape (n, {d}), got ({d},)"),
        ("failed", 0, f"ValueError: expected shape (n, {d}), got (0, {d})")]
    assert (together[3].status, together[3].message) == (
        "failed", f"ValueError: expected shape (n, {d}), got (2, {d + 1})")
    assert together[1].status == "ok" and together[1].fe_used == 300
    assert together == [run(*task[:2], sphere_instance, 300, task[2])
                        for task in tasks]


@pytest.mark.parametrize("taken, refused", [
    ([], 1),
    ([0], 0),
    ([0, 1], 1),
], ids=["out-of-order", "twice", "past-the-last-group"])
def test_lockstep_hands_out_runs_only_in_order(taken, refused,
                                               sphere_instance):
    tasks = [("random_search", {}, 1),
             ("vanilla_de", SMALL_CONFIGS["vanilla_de"], 2)]
    lockstep = base.Lockstep(sphere_instance, 50, tasks)
    for i in taken:
        assert lockstep.take(*tasks[i]).result() == run(
            *tasks[i][:2], sphere_instance, 50, tasks[i][2])
    optimizer, config, seed = tasks[refused]
    with pytest.raises(ValueError, match=re.escape(
            f"{optimizer} with config {config} and seed {seed}")):
        lockstep.take(optimizer, config, seed)


# ---------------------------------------------------------------------------
# L-BFGS-B through setulb


_SETULB_SIGNATURE = ("setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,"
                     "isave,dsave,maxls,ln_task)")


def test_lbfgsb_loads_scipy_setulb_by_path(tmp_path):
    import scipy.optimize._lbfgsb as scipy_lbfgsb

    setulb = lbfgsb._setulb()
    assert setulb.__self__.__file__ == scipy_lbfgsb.__file__
    assert setulb.__doc__ == _SETULB_SIGNATURE
    loaded = lbfgsb.load_lbfgsb(os.path.dirname(scipy_lbfgsb.__file__))
    assert loaded.__file__ == scipy_lbfgsb.__file__
    with pytest.raises(ImportError):
        lbfgsb.load_lbfgsb(str(tmp_path))


def _asked(x):
    # a minimize_lbfgsb objective that yields x and returns what it is sent
    return (yield x)


def _answered(search, fun_and_grad):
    """Run a ``minimize_lbfgsb(_asked, ...)`` search, sending
    ``fun_and_grad(x)`` for each x it yields; its ``(x, f)``."""
    try:
        x = next(search)
        while True:
            x = search.send(fun_and_grad(x))
    except StopIteration as stop:
        return stop.value


def _rosenbrock_and_grad(x):
    f = float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1.0 - x[:-1])
    g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
    return f, g


# converges; stops at maxiter; stops at maxfun; ends on a bound
@pytest.mark.parametrize("lower, maxiter, maxfun", [
    (-2.0, 1000, 15000), (-2.0, 7, 15000), (-2.0, 1000, 9), (1.2, 1000, 15000),
])
def test_minimize_lbfgsb_equals_scipy_minimize(lower, maxiter, maxfun):
    from scipy.optimize import minimize

    d = 4
    lo, hi = np.full(d, lower), np.full(d, 2.0)
    x0 = np.linspace(1.3, 1.9, d)
    logs = ([], [])

    def logged(log):
        def fun_and_grad(x):
            log.append(x.tolist())
            return _rosenbrock_and_grad(x)
        return fun_and_grad

    x, f = _answered(lbfgsb.minimize_lbfgsb(_asked, x0, lo, hi, maxiter,
                                            maxfun), logged(logs[0]))
    fg = logged(logs[1])
    res = minimize(lambda x: fg(x)[0], x0, method="L-BFGS-B",
                   jac=lambda x: _rosenbrock_and_grad(x)[1],
                   bounds=list(zip(lo, hi)),
                   options={"maxiter": maxiter, "maxfun": maxfun})
    assert logs[0] == logs[1]
    assert x.tolist() == res.x.tolist() and f == res.fun
    assert x0.tolist() == np.linspace(1.3, 1.9, d).tolist()


@pytest.mark.blas_threads
def test_minimize_lbfgsb_searches_interleave():
    # setulb keeps a search's state in the arrays passed to it (wa, iwa,
    # task, lsave, isave, dsave), so searches stepped alternately
    # evaluate the points and end where each ends alone
    d = 4
    hi = np.full(d, 2.0)
    starts = [(np.full(d, -2.0), np.linspace(1.3, 1.9, d), 1000),
              (np.full(d, -1.0), np.linspace(-0.9, 1.7, d), 1000),
              (np.full(d, -2.0), np.linspace(1.9, -1.3, d), 6)]

    def search(lo, x0, maxiter):
        return lbfgsb.minimize_lbfgsb(_asked, x0, lo, hi, maxiter, 15000)

    alone = []
    for start in starts:
        log = []

        def fun_and_grad(x):
            log.append(x.tolist())
            return _rosenbrock_and_grad(x)

        alone.append((_answered(search(*start), fun_and_grad), log))

    searches = [search(*start) for start in starts]
    asks = [next(s) for s in searches]
    logs = [[] for _ in starts]
    ends = [None for _ in starts]
    while any(end is None for end in ends):
        for i, s in enumerate(searches):
            if ends[i] is None:
                logs[i].append(asks[i].tolist())
                try:
                    asks[i] = s.send(_rosenbrock_and_grad(asks[i]))
                except StopIteration as stop:
                    ends[i] = stop.value
    assert len({len(log) for log in logs}) == len(starts)
    for ((x_alone, f_alone), log_alone), (x, f), log in zip(alone, ends,
                                                           logs):
        assert log == log_alone
        assert x.tolist() == x_alone.tolist() and f == f_alone


# ---------------------------------------------------------------------------
# convergence sanity


def test_de_descends_on_sphere():
    inst = shifted_sphere(d=5, seed=20)
    cfg = {"NP": 20, "F": 0.5, "Cr": 0.9, "mutation": "best1", "bound": "clip"}
    res = run("vanilla_de", cfg, inst, fe_budget=4000, seed=1)
    assert res.best_f < 0.05 * res.f0


def test_cma_descends_on_sphere():
    inst = shifted_sphere(d=5, seed=20)
    res = run("sep_cma_es", SMALL_CONFIGS["sep_cma_es"], inst,
              fe_budget=4000, seed=1)
    assert res.best_f < 0.05 * res.f0
