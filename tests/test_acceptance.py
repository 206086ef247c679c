"""Acceptance gate: the quantitative guarantees this toolchain commits to.

Each test covers one numbered criterion and prints a single
``criterion NN (...): PASS|FAIL`` line (visible with ``pytest -s``;
under ``pytest -v`` the test name itself is the per-criterion line).
Criteria with runtime budgets assert them via a monotonic clock.
"""

import functools
import json
import time

import numpy as np
import pytest

from optforge.bench import benchmark_instance
from optforge.cli import main
from optforge.dataset import (InstructionPair, SamplingPlan,
                              batch_contrastive_loss, sampling_weights)
from optforge.metrics import (EvalOutcome, RepairRecord, error_rate,
                              optimization_performance, recovery_cost)
from optforge.optimizers.base import run
from optforge.optimizers.grids import enumerate_configs, grid_size
from optforge.problems.basic import BASIC_FUNCTIONS, BASIC_NAMES
from optforge.problems.instance import (ComponentSpec, ProblemInstance,
                                        evaluate_batch)
from optforge.problems.synthesis import synthesize_instance
from optforge.problems.transforms import TransformSpec, make_rotation
from optforge.seeding import derive_seed

from reference_impls import ref_score_runs


def criterion(number, title):
    """Emit the one-line verdict for a numbered acceptance criterion."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d} ({title}): FAIL")
                raise
            print(f"criterion {number:02d} ({title}): PASS")

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# 1. a K=1 weighted sum with an identity transform is the bare function


@criterion(1, "composition degeneracy")
def test_criterion_01_composition_degeneracy():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for i in range(20):
        name = BASIC_NAMES[i % len(BASIC_NAMES)]
        d = 2 + i % 9
        lo, hi = BASIC_FUNCTIONS[name].domain
        identity = TransformSpec(np.eye(d), np.zeros(d))
        inst = ProblemInstance(
            d=d, bounds=[[lo, hi]] * d, paradigm="composition",
            components=[ComponentSpec(basic=name, weight=1.0,
                                      transform=identity)],
            seed=i,
        )
        xs = rng.uniform(lo, hi, (1000, d))
        f_inst, _ = evaluate_batch(inst, xs)
        f_bare = BASIC_FUNCTIONS[name](xs)
        np.testing.assert_allclose(f_inst, f_bare, rtol=1e-12, atol=0.0)
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# 2. hybrid instances partition the coordinates and sum their segments


@criterion(2, "hybrid partition and sum")
def test_criterion_02_hybrid_partition_sum():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    found = 0
    seed = 0
    while found < 50:
        inst = synthesize_instance(d=4 + seed % 7, k=2 + seed % 3,
                                   constrained=False, seed=seed)
        seed += 1
        if inst.paradigm != "hybrid":
            continue
        found += 1
        covered = sorted(i for c in inst.components for i in c.segment)
        assert covered == list(range(inst.d))
        xs = rng.uniform(inst.bounds[:, 0], inst.bounds[:, 1], (100, inst.d))
        f_inst, _ = evaluate_batch(inst, xs)
        total = np.zeros(len(xs))
        for comp in inst.components:
            z = ((xs[:, comp.segment] - comp.transform.shift)
                 @ comp.transform.rotation)
            total += BASIC_FUNCTIONS[comp.basic](z)
        np.testing.assert_allclose(f_inst, total, rtol=1e-12, atol=0.0)
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# 3. rotations are orthogonal to 1e-9


@criterion(3, "rotation orthogonality")
def test_criterion_03_rotation_orthogonality():
    dims = [2 + i % 49 for i in range(100)]
    for i, d in enumerate(dims):
        m = make_rotation(d, np.random.default_rng(i))
        err = np.max(np.abs(m.T @ m - np.eye(d)))
        assert err <= 1e-9, f"rotation {i} (d={d}): {err}"


# ---------------------------------------------------------------------------
# 4. hyperparameter grids have the documented sizes


@criterion(4, "grid cardinalities")
def test_criterion_04_grid_counts():
    assert grid_size("deap_de") == 125
    assert grid_size("vanilla_de") == 1080


# ---------------------------------------------------------------------------
# 5. the benchmark's winner equals an independent reference loop's winner


@criterion(5, "benchmark oracle equivalence")
def test_criterion_05_benchmark_winner_equivalence():
    start = time.monotonic()
    pool = ("random_search", "vanilla_de")
    cap, runs, master = 4, 3, 77
    matches = 0
    for i in range(20):
        inst = synthesize_instance(d=2 + i % 4, k=1 + i % 2,
                                   constrained=False, seed=500 + i,
                                   fe_budget=250)
        entry, _ = benchmark_instance(inst, pool=pool, cap=cap, runs=runs,
                                      seed=master)
        replay = []
        for optimizer in pool:
            for config_index, config in enumerate_configs(optimizer, cap=cap,
                                                          seed=master):
                per_run = [
                    run(optimizer, config, inst, inst.fe_budget,
                        derive_seed(master, inst.id, optimizer, config_index,
                                    r))
                    for r in range(runs)
                ]
                replay.append((optimizer, config_index, per_run))
        ref = ref_score_runs(replay, constrained=False)
        assert ref is not None
        if (entry.best_optimizer, entry.best_config_index) == ref[:2]:
            matches += 1
    assert matches == 20
    assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# 6. stock configurations solve shifted-rotated spheres nearly completely


def _sphere_suite():
    out = []
    for i in range(10):
        d = 10
        rng = np.random.default_rng(2000 + i)
        comp = ComponentSpec(
            basic="sphere", weight=1.0,
            transform=TransformSpec(make_rotation(d, np.random.default_rng(2000 + i)),
                                    rng.uniform(-50.0, 50.0, d)),
        )
        out.append(ProblemInstance(d=d, bounds=[[-100.0, 100.0]] * d,
                                    paradigm="single", components=[comp],
                                    fe_budget=20000, seed=2000 + i))
    return out


def _mean_descent(optimizer, config, suite, master):
    descents = []
    for inst in suite:
        for r in range(5):
            res = run(optimizer, config, inst, inst.fe_budget,
                      derive_seed(master, inst.id, optimizer, 0, r))
            assert res.status == "ok"
            descents.append((res.f0 - res.best_f) / res.f0)
    return float(np.mean(descents))


@criterion(6, "optimizer efficacy on spheres")
def test_criterion_06_optimizer_efficacy():
    start = time.monotonic()
    suite = _sphere_suite()
    de = {"NP": 50, "F": 0.5, "Cr": 0.9, "mutation": "best1",
          "bound": "clip"}
    d_de = _mean_descent("vanilla_de", de, suite, master=6)
    assert d_de >= 0.999, f"vanilla_de mean descent {d_de}"
    bipop = {"NP": 20, "elite_ratio": 0.5, "min_num_gens": 30,
             "popsize_multiplier": 2}
    d_bipop = _mean_descent("bipop_cma_es", bipop, suite, master=6)
    assert d_bipop >= 0.99, f"bipop_cma_es mean descent {d_bipop}"
    assert time.monotonic() - start < 300.0


# ---------------------------------------------------------------------------
# 7. inverse-frequency sampling weights


def _weighted_pairs():
    pairs = []
    for i in range(100):
        pairs.append(InstructionPair("q", "a", f"big{i:03d}", "s", "big"))
    for i in range(10):
        pairs.append(InstructionPair("q", "a", f"mid{i:03d}", "s", "mid"))
    pairs.append(InstructionPair("q", "a", "small000", "s", "small"))
    return pairs


@criterion(7, "per-pair sampling probabilities")
def test_criterion_07_sampling_probabilities():
    pairs = _weighted_pairs()
    w = sampling_weights([p.label for p in pairs])
    assert float(w[0]) == 1.0 / 300.0
    assert float(w[100]) == 1.0 / 30.0
    assert float(w[110]) == 1.0 / 3.0
    assert abs(float(w.sum()) - 1.0) <= 1e-12
    plan = SamplingPlan.build(pairs)
    rng = np.random.default_rng(7)
    drawn = plan.draw_batch(100_000, rng)
    for label in ("big", "mid", "small"):
        freq = sum(1 for p in drawn if p.label == label) / len(drawn)
        assert abs(freq - 1.0 / 3.0) / (1.0 / 3.0) <= 0.03, (label, freq)


# ---------------------------------------------------------------------------
# 8. contrastive loss reference table (margin 0.3)


@criterion(8, "contrastive loss table")
def test_criterion_08_contrastive_loss_table():
    e1 = [1.0, 0.0]
    e2 = [0.0, 1.0]
    anti = [-1.0, 0.0]

    def pair(u, v, same_label):
        # a two-row batch scores exactly one pair
        return batch_contrastive_loss([u, v],
                                      ["a", "a" if same_label else "b"])

    assert abs(pair(e1, e1, True) - 0.0) <= 1e-12
    assert abs(pair(e1, e1, False) - 0.3) <= 1e-12
    assert abs(pair(e1, e2, False) - 0.0) <= 1e-12
    assert abs(pair(e1, anti, True) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# 9. metrics on a hand-built fixture


@criterion(9, "metrics fixture values")
def test_criterion_09_metrics_fixture():
    outcomes = []
    for p in range(4):
        for r in range(5):
            if r == 0:
                outcomes.append(EvalOutcome(f"p{p}", r, failed=True))
            else:
                outcomes.append(EvalOutcome(f"p{p}", r, failed=False,
                                            f0=10.0, f_best=5.0, f_star=0.0))
    assert error_rate(outcomes, n_problems=4, n_runs=5) == 0.2

    ten = "\n".join(f"line {i}" for i in range(10))
    one = ten.replace("line 4", "patched")
    three = ten
    for i in (2, 5, 8):
        three = three.replace(f"line {i}", f"patched {i}")
    repairs = [RepairRecord("p0", ten, one), RepairRecord("p1", ten, three)]
    assert recovery_cost(repairs) == 0.2

    descent_run = EvalOutcome("p0", 0, failed=False, f0=100.0, f_best=1.0,
                              f_star=0.0)
    assert optimization_performance([descent_run]) == 0.99


# ---------------------------------------------------------------------------
# 10. the full pipeline is byte-deterministic, including under parallelism


@criterion(10, "pipeline byte determinism")
def test_criterion_10_pipeline_determinism(tmp_path):
    start = time.monotonic()
    config = {
        "n_unconstrained": 60,
        "n_constrained": 60,
        "d_min": 2,
        "d_max": 8,
        "k_min": 1,
        "k_max": 3,
        "fe_budget": 300,
        "runs": 2,
        "config_cap": 8,
        "seed": 42,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    def run_pipeline(tag, jobs):
        d = tmp_path / tag
        d.mkdir()
        inst = d / "instances.jsonl"
        knw = d / "knowledge.jsonl"
        rec = d / "records.jsonl"
        prs = d / "pairs.jsonl"
        assert main(["synth", "--config", str(cfg_path),
                     "--out", str(inst)]) == 0
        assert main(["bench", "--config", str(cfg_path),
                     "--instances", str(inst), "--out", str(knw),
                     "--records", str(rec), "--jobs", str(jobs)]) == 0
        assert main(["build", "--config", str(cfg_path),
                     "--instances", str(inst), "--knowledge", str(knw),
                     "--out", str(prs)]) == 0
        return (inst.read_bytes(), knw.read_bytes(), prs.read_bytes(),
                rec.read_bytes())

    first = run_pipeline("one", jobs=1)
    second = run_pipeline("two", jobs=1)
    parallel = run_pipeline("par", jobs=8)
    assert first[0] == second[0] == parallel[0]
    assert first[1] == second[1] == parallel[1]
    assert first[2] == second[2] == parallel[2]
    assert first[3] == second[3] == parallel[3]
    assert time.monotonic() - start < 900.0


# ---------------------------------------------------------------------------
# 11. homogeneous batches collapse onto one problem; iid follows the weights


@criterion(11, "homogeneous batching")
def test_criterion_11_homogeneous_batching():
    pairs = []
    labels = (["a"] * 20) + (["b"] * 4) + (["c"] * 1)
    for i, label in enumerate(labels):
        for style in ("s1", "s2", "s3", "s4"):
            pairs.append(InstructionPair(
                q=f"q{i}", a=f"a{i}", instance_id=f"inst{i:03d}",
                style=style, label=label))
    plan = SamplingPlan.build(pairs)
    rng = np.random.default_rng(11)
    shared = 0
    for _ in range(10_000):
        batch = plan.draw_batch(4, rng, homogeneous=True)
        if len({p.instance_id for p in batch}) == 1:
            shared += 1
    assert shared == 10_000

    counts = {"a": 0, "b": 0, "c": 0}
    total = 0
    for _ in range(10_000):
        for p in plan.draw_batch(4, rng, homogeneous=False):
            counts[p.label] += 1
            total += 1
    for label, n in counts.items():
        freq = n / total
        assert abs(freq - 1.0 / 3.0) / (1.0 / 3.0) <= 0.03, (label, freq)
