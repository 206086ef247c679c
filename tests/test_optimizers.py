import numpy as np
import pytest

import optforge.optimizers.base as base
from optforge.optimizers.base import (BudgetExhausted, ObjectiveTracker,
                                      optimizer_ids, rule_argmin, rule_key,
                                      rule_le, run)
from optforge.optimizers.grids import GRIDS
from optforge.problems.instance import evaluate_batch, make_instance
from optforge.problems.synthesis import synthesize_instance
from optforge.problems.transforms import TransformSpec, make_rotation
from optforge.problems.instance import ComponentSpec

from reference_impls import ref_de_best1


def shifted_sphere(d, seed):
    rng = np.random.default_rng(seed)
    rot = make_rotation(d, seed)
    shift = rng.uniform(-50.0, 50.0, d)
    comp = ComponentSpec(basic="sphere", weight=1.0,
                         transform=TransformSpec(rot, shift))
    return make_instance(d=d, bounds=[[-100.0, 100.0]] * d,
                         paradigm="single", components=[comp], seed=seed)

ALL_OPTIMIZERS = sorted(GRIDS)

# one small, cheap config per optimizer, drawn from its grid
SMALL_CONFIGS = {
    "samr_ga": {"NP": 10, "elite_ratio": 0.0, "sigma_init": 0.5,
                "sigma_meta": 2.0, "sigma_best_limit": 0.001},
    "vanilla_de": {"NP": 10, "F": 0.5, "Cr": 0.9, "mutation": "best1",
                   "bound": "clip"},
    "deap_de": {"NP": 10, "F": 0.5, "Cr": 0.5},
    "vanilla_pso": {"NP": 10, "phi_1": 2.0, "phi_2": 2.0},
    "sep_cma_es": {"n_individuals": 10, "c_c": 1.0, "sigma": 0.3},
    "bipop_cma_es": {"NP": 10, "elite_ratio": 0.5, "sigma_init": 1.0,
                     "mean_decay": 0.0, "min_num_gens": 10,
                     "popsize_multiplier": 2},
    "simulated_annealing": {"NP": 10, "sigma_init": 0.3, "sigma_decay": 1.0,
                            "sigma_limit": 0.05, "temp_init": 1.0,
                            "temp_limit": 0.1, "temp_decay": 0.99,
                            "boltzmann_const": 1.0},
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


# ---------------------------------------------------------------------------
# tracker


def test_tracker_budget_and_partial(sphere_instance):
    t = ObjectiveTracker(sphere_instance, fe_budget=10, n_init=4)
    x = np.zeros((6, sphere_instance.d))
    f, v = t.batch(x)
    assert len(f) == 6 and t.fe_used == 6
    with pytest.raises(BudgetExhausted):
        t.batch(np.ones((7, sphere_instance.d)))
    assert t.fe_used == 10
    assert len(t.last_partial[0]) == 4
    with pytest.raises(BudgetExhausted):
        t.batch(np.zeros((1, sphere_instance.d)))


def test_tracker_f0_is_first_n_init_only(sphere_instance):
    rng = np.random.default_rng(5)
    xs = rng.uniform(-10, 10, (8, sphere_instance.d))
    # n_init = 3: f0 must ignore everything after the third evaluation
    t = ObjectiveTracker(sphere_instance, fe_budget=50, n_init=3)
    t.batch(xs)
    t.batch(rng.uniform(-10, 10, (5, sphere_instance.d)))
    f3, v3 = evaluate_batch(sphere_instance, xs[:3])
    j = rule_argmin(f3, v3)
    assert t.f0 == float(f3[j])


def test_tracker_f0_straddling_batches(sphere_instance):
    rng = np.random.default_rng(6)
    t = ObjectiveTracker(sphere_instance, fe_budget=50, n_init=5)
    a = rng.uniform(-5, 5, (2, sphere_instance.d))
    b = rng.uniform(-5, 5, (6, sphere_instance.d))
    fa, va = t.batch(a)
    assert t.f0 is None  # initial sample not finished yet
    fb, vb = t.batch(b)
    f5 = np.concatenate([fa, fb[:3]])
    v5 = np.concatenate([va, vb[:3]])
    j = rule_argmin(f5, v5)
    assert t.f0 == float(f5[j])


def test_tracker_trace_monotone(sphere_instance):
    rng = np.random.default_rng(7)
    t = ObjectiveTracker(sphere_instance, fe_budget=200, n_init=10)
    for _ in range(10):
        t.batch(rng.uniform(-50, 50, (20, sphere_instance.d)))
    fes = [e[0] for e in t.trace]
    assert fes == sorted(fes)
    keys = [rule_key(e[1], e[2]) for e in t.trace]
    assert all(keys[i + 1] < keys[i] for i in range(len(keys) - 1))
    assert t.trace[-1][1] == t.best_f


def test_tracker_rejects_bad_n_init(sphere_instance):
    with pytest.raises(ValueError):
        ObjectiveTracker(sphere_instance, fe_budget=10, n_init=0)


# ---------------------------------------------------------------------------
# run protocol, all optimizers


def test_registry_has_full_pool():
    assert set(optimizer_ids()) == set(ALL_OPTIMIZERS)


@pytest.mark.parametrize("optimizer", ALL_OPTIMIZERS)
def test_run_ok_and_budget(optimizer, sphere_instance):
    res = run(optimizer, SMALL_CONFIGS[optimizer], sphere_instance,
              fe_budget=300, seed=11)
    assert res.status == "ok", res.message
    assert 0 < res.fe_used <= 300
    assert res.f0 is not None
    assert res.best_f <= res.f0
    assert len(res.best_x) == sphere_instance.d
    lo, hi = sphere_instance.bounds[:, 0], sphere_instance.bounds[:, 1]
    assert np.all(np.asarray(res.best_x) >= lo - 1e-12)
    assert np.all(np.asarray(res.best_x) <= hi + 1e-12)


@pytest.mark.parametrize("optimizer", ALL_OPTIMIZERS)
def test_run_deterministic(optimizer, sphere_instance):
    a = run(optimizer, SMALL_CONFIGS[optimizer], sphere_instance, 250, seed=3)
    b = run(optimizer, SMALL_CONFIGS[optimizer], sphere_instance, 250, seed=3)
    assert a.best_f == b.best_f
    assert a.best_x == b.best_x
    assert a.fe_used == b.fe_used
    assert a.trace == b.trace


@pytest.mark.parametrize("optimizer",
                         [o for o in ALL_OPTIMIZERS if o != "random_search"])
def test_run_seed_sensitivity(optimizer, sphere_instance):
    a = run(optimizer, SMALL_CONFIGS[optimizer], sphere_instance, 250, seed=3)
    b = run(optimizer, SMALL_CONFIGS[optimizer], sphere_instance, 250, seed=4)
    assert a.status == b.status == "ok"
    assert a.best_f != b.best_f or a.best_x != b.best_x


@pytest.mark.parametrize("optimizer", ALL_OPTIMIZERS)
def test_run_trace_well_formed(optimizer, sphere_instance):
    res = run(optimizer, SMALL_CONFIGS[optimizer], sphere_instance, 300, seed=9)
    fes = [e[0] for e in res.trace]
    assert fes == sorted(fes)
    assert all(1 <= fe <= res.fe_used for fe in fes)
    assert res.trace[-1][1] == res.best_f


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

    monkeypatch.setitem(base._REGISTRY, "random_search",
                        (boom, base._REGISTRY["random_search"][1]))
    res = run("random_search", {}, sphere_instance, 100, seed=0)
    assert res.status == "failed"
    assert "synthetic crash" in res.message


# ---------------------------------------------------------------------------
# DE engine against the scalar-loop reference


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_vanilla_de_matches_reference(seed):
    inst = synthesize_instance(d=3, k=2, constrained=False, seed=40 + seed)
    cfg = {"NP": 10, "F": 0.5, "Cr": 0.9, "mutation": "best1", "bound": "clip"}
    got = run("vanilla_de", cfg, inst, fe_budget=137, seed=seed)
    want = ref_de_best1(inst, np_=10, f_weight=0.5, cr=0.9, fe_budget=137,
                        seed=seed)
    assert got.status == "ok"
    assert got.fe_used == want["fe"] == 137
    assert got.f0 == pytest.approx(want["f0"], rel=1e-12)
    assert got.best_f == pytest.approx(want["best_f"], rel=1e-12)
    np.testing.assert_allclose(got.best_x, want["best_x"], rtol=1e-12)
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
