"""Benchmark labelling: per-run scores, reference optimum, winner
selection, degenerate handling and the knowledge serialization."""

import ctypes
import dataclasses
import json
import math

import numpy as np
import pytest

import optforge.bench as bench
from optforge.bench import (BenchmarkRecord, KnowledgeEntry, _run_eval,
                            benchmark_instance, benchmark_set, load_knowledge,
                            save_knowledge, save_records)
import optforge.optimizers.base as base
from optforge.optimizers.base import RunResult, run
from optforge.optimizers.grids import enumerate_configs
from optforge.problems.instance import (ComponentSpec, ProblemInstance,
                                        evaluate_batch)
from optforge.problems.synthesis import synthesize_instance
from optforge.problems.transforms import TransformSpec
from optforge.seeding import derive_seed

from reference_impls import ref_score_runs


def _res(status="ok", best_f=1.0, best_violation=0.0, f0=100.0,
         f0_violation=0.0):
    return RunResult(seed=0, status=status, best_f=best_f,
                     best_violation=best_violation, f0=f0,
                     f0_violation=f0_violation, fe_used=10)


# ---------------------------------------------------------------------------
# per-run score


def test_run_eval_failed_is_zero():
    assert _run_eval(_res(status="failed"), f_star=0.0) == 0.0


def test_run_eval_no_reference_is_zero():
    assert _run_eval(_res(), f_star=None) == 0.0


def test_run_eval_plain_descent():
    # (100 - 1) / (100 - 0)
    v = _run_eval(_res(best_f=1.0, f0=100.0), f_star=0.0)
    assert v == pytest.approx(0.99, abs=0.0)


def test_run_eval_clamped_to_unit_interval():
    # overshoot below the pooled optimum still caps at 1
    assert _run_eval(_res(best_f=-5.0), f_star=0.0) == 1.0
    # a run that went uphill floors at 0
    assert _run_eval(_res(best_f=200.0), f_star=0.0) == 0.0


def test_run_eval_start_equals_optimum():
    assert _run_eval(_res(best_f=7.0, f0=7.0), f_star=7.0) == 1.0


def test_run_eval_constrained_ended_infeasible():
    r = _res(best_f=0.5, best_violation=0.2)
    assert _run_eval(r, f_star=0.0) == 0.0


def test_run_eval_constrained_recovered_feasibility():
    r = _res(best_f=50.0, best_violation=0.0, f0=10.0, f0_violation=3.0)
    assert _run_eval(r, f_star=0.0) == 1.0


# ---------------------------------------------------------------------------
# reference optimum


def _bench_stubbed(monkeypatch, results):
    """``benchmark_instance`` on one config whose runs return ``results``."""
    inst = synthesize_instance(d=2, k=1, constrained=False, seed=1,
                               fe_budget=100)
    given = iter(results)
    monkeypatch.setattr(bench, "run", lambda *args, **kwargs: next(given))
    return benchmark_instance(inst, pool=("random_search",), cap=None,
                              runs=len(results), seed=0)


def test_reference_optimum_ignores_failed_and_infeasible(monkeypatch):
    entry, _ = _bench_stubbed(monkeypatch, [
        _res(status="failed", best_f=-99.0),
        _res(best_f=3.0, best_violation=0.5),
        _res(best_f=5.0),
        _res(best_f=4.0),
    ])
    assert entry.f_star == 4.0
    assert not entry.degenerate


@pytest.mark.parametrize("result", [_res(status="failed"),
                                    _res(best_violation=1.0)])
def test_reference_optimum_none_when_nothing_usable(monkeypatch, result):
    entry, records = _bench_stubbed(monkeypatch, [result])
    assert entry.f_star is None
    assert entry.degenerate
    assert [r.mean_eval for r in records] == [0.0]


# ---------------------------------------------------------------------------
# benchmark_instance against an independent scorer


POOL = ("random_search", "vanilla_de")


def _replay_runs(instance, pool, cap, runs, seed):
    """Re-run the exact grid with the engine's per-task seeds."""
    out = []
    for optimizer in pool:
        for config_index, config in enumerate_configs(optimizer, cap=cap,
                                                      seed=seed):
            per_run = [
                run(optimizer, config, instance, instance.fe_budget,
                    derive_seed(seed, instance.id, optimizer, config_index, r))
                for r in range(runs)
            ]
            out.append((optimizer, config_index, per_run))
    return out


@pytest.mark.parametrize("seed", [0, 7])
def test_winner_matches_reference_scorer(seed):
    inst = synthesize_instance(d=3, k=1, constrained=False, seed=seed,
                               fe_budget=300)
    entry, records = benchmark_instance(inst, pool=POOL, cap=4, runs=3,
                                        seed=11)
    ref = ref_score_runs(_replay_runs(inst, POOL, 4, 3, 11),
                         constrained=False)
    assert ref is not None
    opt, idx, f_star, mean_evals = ref
    assert entry.best_optimizer == opt
    assert entry.best_config_index == idx
    assert entry.f_star == f_star
    assert entry.mean_eval == pytest.approx(mean_evals[(opt, idx)], abs=1e-15)
    for rec in records:
        assert rec.mean_eval == pytest.approx(
            mean_evals[(rec.optimizer, rec.config_index)], abs=1e-15)


# both cases have runs that started infeasible and ended feasible, and
# the equality one also has runs that ended infeasible
@pytest.mark.parametrize("seed, equality", [(3, False), (0, True)])
def test_winner_matches_reference_scorer_constrained(seed, equality):
    inst = synthesize_instance(d=2, k=1, constrained=True, seed=seed,
                               fe_budget=300)
    assert any(c.is_equality for c in inst.constraints) == equality
    entry, records = benchmark_instance(inst, pool=POOL, cap=4, runs=2, seed=5)
    runs = [r for rec in records for r in rec.per_run]
    assert any(r.status == "ok" and r.best_violation == 0.0 < r.f0_violation
               for r in runs)
    assert any(r.status == "ok" and r.best_violation > 0.0
               for r in runs) == equality
    ref = ref_score_runs(_replay_runs(inst, POOL, 4, 2, 5), constrained=True)
    assert ref is not None
    opt, idx, f_star, mean_evals = ref
    assert entry.best_optimizer == opt
    assert entry.best_config_index == idx
    assert entry.f_star == f_star
    assert [(rec.optimizer, rec.config_index) for rec in records] == list(
        mean_evals)
    for rec in records:
        assert rec.mean_eval == pytest.approx(
            mean_evals[(rec.optimizer, rec.config_index)], abs=1e-15)


def test_benchmark_instance_deterministic():
    inst = synthesize_instance(d=3, k=2, constrained=False, seed=4,
                               fe_budget=200)
    a, ra = benchmark_instance(inst, pool=POOL, cap=3, runs=2, seed=9)
    b, rb = benchmark_instance(inst, pool=POOL, cap=3, runs=2, seed=9)
    assert a == b
    assert [r.mean_eval for r in ra] == [r.mean_eval for r in rb]
    assert all(x.per_run[0].best_f == y.per_run[0].best_f
               for x, y in zip(ra, rb))


def test_benchmark_instance_record_layout():
    inst = synthesize_instance(d=2, k=1, constrained=False, seed=1,
                               fe_budget=150)
    entry, records = benchmark_instance(inst, pool=POOL, cap=3, runs=2, seed=0)
    # random_search has a single empty config; vanilla_de capped at 3
    assert len(records) == 1 + 3
    for rec in records:
        assert rec.instance_id == inst.id
        assert len(rec.per_run) == 2
        assert 0.0 <= rec.mean_eval <= 1.0
    assert not entry.degenerate
    assert entry.f_star is not None


def test_benchmark_instance_validates_args():
    inst = synthesize_instance(d=2, k=1, constrained=False, seed=1,
                               fe_budget=100)
    with pytest.raises(ValueError):
        benchmark_instance(inst, pool=(), cap=2, runs=1)
    with pytest.raises(ValueError):
        benchmark_instance(inst, pool=POOL, cap=2, runs=0)
    with pytest.raises(ValueError):
        benchmark_instance(inst, pool=("random_serch",), cap=2, runs=1)
    with pytest.raises(ValueError):
        benchmark_instance(inst, pool=POOL, cap=0, runs=1)
    with pytest.raises(ValueError, match="more than once"):
        benchmark_instance(inst, pool=("random_search", "random_search"),
                           cap=2, runs=1)


def test_degenerate_when_budget_below_every_init_sample():
    # vanilla_de's smallest population is 10; a 3-evaluation budget
    # fails every run, so there is no reference optimum
    inst = synthesize_instance(d=2, k=1, constrained=False, seed=3,
                               fe_budget=3)
    entry, records = benchmark_instance(inst, pool=("vanilla_de",), cap=2,
                                        runs=2, seed=0)
    assert entry.degenerate
    assert entry.best_optimizer == "random_search"
    assert entry.best_config == {}
    assert entry.best_config_index == 0
    assert entry.f_star is None
    assert entry.mean_eval == 0.0
    assert all(r.mean_eval == 0.0 for r in records)


# ---------------------------------------------------------------------------
# benchmark_set


def _tiny_set(n=4, fe=150):
    return [synthesize_instance(d=2, k=1, constrained=False, seed=s,
                                fe_budget=fe) for s in range(n)]


def test_benchmark_set_preserves_order_and_ids():
    instances = _tiny_set()
    outcomes = list(benchmark_set(instances, pool=POOL, cap=2, runs=2,
                                  master_seed=0))
    assert [e.instance_id for e, _, _ in outcomes] == [i.id for i in instances]
    assert [err for _, _, err in outcomes] == [None] * 4
    for inst, (_, records, _) in zip(instances, outcomes):
        assert records and {r.instance_id for r in records} == {inst.id}


def test_benchmark_set_parallel_equals_serial():
    instances = _tiny_set()
    serial = list(benchmark_set(instances, pool=POOL, cap=2, runs=2,
                                master_seed=0))
    parallel = list(benchmark_set(instances, pool=POOL, cap=2, runs=2,
                                  master_seed=0, parallelism=2))
    assert serial == parallel


@pytest.mark.parametrize("parallelism, n, workers", [(8, 2, 2), (2, 3, 2),
                                                      (4, 1, None)])
def test_benchmark_set_starts_no_more_workers_than_instances(
        parallelism, n, workers, monkeypatch):
    started = []

    class StubExecutor:
        # records max_workers and runs the tasks in this process
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)

        def map(self, fn, tasks):
            return map(fn, tasks)

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr(bench, "ProcessPoolExecutor", StubExecutor)
    instances = _tiny_set(n=n)
    outcomes = list(benchmark_set(instances, pool=("random_search",), cap=1,
                                  runs=1, master_seed=0,
                                  parallelism=parallelism))
    assert len(outcomes) == n
    assert started == ([] if workers is None else [workers])


@pytest.mark.parametrize("env, limited", [
    ({}, True), ({"OPENBLAS_NUM_THREADS": "1"}, False),
    ({"OMP_NUM_THREADS": "2"}, False)])
def test_benchmark_set_gives_each_worker_its_share_of_blas_threads(
        env, limited, monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 5)
    made = []

    class StubExecutor:
        # records its arguments and runs the tasks in this process
        def __init__(self, **kwargs):
            made.append(kwargs)

        def map(self, fn, tasks):
            return map(fn, tasks)

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr(bench, "ProcessPoolExecutor", StubExecutor)
    list(benchmark_set(_tiny_set(n=3), pool=("random_search",), cap=1,
                       runs=1, master_seed=0, parallelism=2))
    (kwargs,) = made
    assert kwargs["mp_context"].get_start_method() == "fork"
    assert kwargs["initargs"] == (2,)
    assert kwargs["initializer"] is (bench._limit_blas_threads if limited
                                     else None)


def test_limit_blas_threads_sets_the_openblas_pool():
    from numpy._core import _multiarray_umath

    lib = ctypes.CDLL(_multiarray_umath.__file__)
    get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if get_threads is None:
        pytest.skip("numpy is not linked to its bundled OpenBLAS")
    before = get_threads()
    try:
        bench._limit_blas_threads(1)
        assert get_threads() == 1
    finally:
        bench._limit_blas_threads(before)
    assert get_threads() == before


def test_benchmark_set_records_per_instance():
    instances = _tiny_set(n=2)
    outcomes = list(benchmark_set(instances, pool=POOL, cap=2, runs=1,
                                  master_seed=0))
    for inst, (_, records, _) in zip(instances, outcomes):
        assert {r.instance_id for r in records} == {inst.id}
        # one random_search config + two capped vanilla_de configs
        assert len(records) == 1 + 2


def test_benchmark_set_yields_each_instance_before_the_next_runs(
        monkeypatch):
    instances = _tiny_set(n=2)
    ran_on = []
    real_run = bench.run

    def spy(optimizer, config, instance, *args, **kwargs):
        ran_on.append(instance.id)
        return real_run(optimizer, config, instance, *args, **kwargs)

    monkeypatch.setattr(bench, "run", spy)
    outcomes = benchmark_set(instances, pool=POOL, cap=2, runs=1,
                             master_seed=0)
    entry, _, _ = next(outcomes)
    assert entry.instance_id == instances[0].id
    assert ran_on and set(ran_on) == {instances[0].id}
    next(outcomes)
    assert ran_on[-1] == instances[1].id


def test_benchmark_set_survives_crashing_instance(monkeypatch, capsys):
    instances = _tiny_set(n=3)
    bad_id = instances[1].id
    real_run = bench.run

    def exploding_run(optimizer, config, instance, *args, **kwargs):
        if instance.id == bad_id:
            raise RuntimeError("boom")
        return real_run(optimizer, config, instance, *args, **kwargs)

    monkeypatch.setattr(bench, "run", exploding_run)
    outcomes = list(benchmark_set(instances, pool=POOL, cap=2, runs=1,
                                  master_seed=0))
    entries = [e for e, _, _ in outcomes]
    failures = [err for _, _, err in outcomes if err is not None]
    assert len(entries) == 3
    assert entries[1].degenerate
    assert not entries[0].degenerate and not entries[2].degenerate
    assert [len(recs) for _, recs, _ in outcomes] == [3, 0, 3]
    assert len(failures) == 1 and bad_id in failures[0]
    assert "boom" in failures[0]
    assert failures[0] in capsys.readouterr().err


# ---------------------------------------------------------------------------
# serialization


def test_knowledge_round_trip(tmp_path):
    entries = [
        KnowledgeEntry("abc", "vanilla_de", {"NP": 10, "F": 0.5, "Cr": 0.9,
                                             "mutation": "best1",
                                             "bound": "clip"},
                       17, -12.5, 0.875),
        KnowledgeEntry("def", "random_search", {}, 0, None, 0.0,
                       degenerate=True),
    ]
    path = tmp_path / "knowledge.jsonl"
    save_knowledge(entries, path)
    loaded = load_knowledge(path)
    assert loaded == entries
    # degenerate reference optimum survives as JSON null
    assert loaded[1].f_star is None


def test_knowledge_file_is_sorted_jsonl(tmp_path):
    path = tmp_path / "knowledge.jsonl"
    save_knowledge([KnowledgeEntry("abc", "nsa", {"sigma": 0.3}, 2, 1.0,
                                   0.5)], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert list(obj) == sorted(obj)


def test_load_knowledge_names_line_of_missing_field(tmp_path):
    good = dataclasses.asdict(KnowledgeEntry("abc", "nsa", {"sigma": 0.3}, 2,
                                             1.0, 0.5))
    bad = {k: v for k, v in good.items() if k != "mean_eval"}
    path = tmp_path / "knowledge.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ValueError) as err:
        load_knowledge(path)
    assert f"{path}:2:" in str(err.value)
    assert "mean_eval" in str(err.value)


def test_load_knowledge_rejects_second_entry_for_an_instance(tmp_path):
    first = KnowledgeEntry("abc", "nsa", {"sigma": 0.3}, 2, 1.0, 0.5)
    other = KnowledgeEntry("def", "nsa", {"sigma": 0.3}, 2, 1.0, 0.5)
    second = KnowledgeEntry("abc", "random_search", {}, 0, 2.0, 0.25)
    path = tmp_path / "knowledge.jsonl"
    save_knowledge([first, other, second], path)
    with pytest.raises(ValueError) as err:
        load_knowledge(path)
    assert f"{path}:3:" in str(err.value)
    assert "abc" in str(err.value)


def test_save_records_schema(tmp_path):
    # a line is a BenchmarkRecord and each per_run entry a RunResult, key
    # for field, so a reader rebuilds the runs with RunResult(**run)
    inst = synthesize_instance(d=2, k=1, constrained=True, seed=1,
                               fe_budget=120)
    _, records = benchmark_instance(inst, pool=("random_search", "deap_de"),
                                    cap=3, runs=2, seed=0)
    assert {r.status for rec in records for r in rec.per_run} == {"ok",
                                                                  "failed"}
    path = tmp_path / "records.jsonl"
    save_records(records, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    record_fields = {f.name for f in dataclasses.fields(BenchmarkRecord)}
    run_fields = {f.name for f in dataclasses.fields(RunResult)}
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        assert set(row) == record_fields
        assert len(row["per_run"]) == len(rec.per_run)
        for entry, want in zip(row["per_run"], rec.per_run):
            assert set(entry) == run_fields
            trace = [tuple(t) for t in entry["trace"]]
            assert RunResult(**{**entry, "trace": trace}) == want
        assert BenchmarkRecord(**{**row, "per_run": rec.per_run}) == rec


# ---------------------------------------------------------------------------
# every optimizer in lockstep groups


def _narrow_box_instance():
    # x + 1e-8 == x at the upper bound: dual_annealing fails every run
    # before its first evaluation, the other optimizers run
    comp = ComponentSpec(basic="sphere", weight=1.0,
                         transform=TransformSpec(np.eye(2), np.zeros(2)))
    return ProblemInstance(d=2, bounds=[[-1.0, 2.0**27]] * 2,
                           paradigm="single", components=[comp],
                           fe_budget=333)


# optimizers whose every ask after the first has one size: a budget that
# no ask size divides cuts their last ask
_CONSTANT_ASKS = {"vanilla_de", "deap_de", "vanilla_pso", "sep_cma_es",
                  "simulated_annealing", "nsa", "random_search"}


# 333 is no multiple of any population size, of NP - 1, nor of 64
@pytest.mark.parametrize("instance, group_elements", [
    (synthesize_instance(d=3, k=2, constrained=False, seed=3,
                         fe_budget=333), None),
    (synthesize_instance(d=4, k=1, constrained=True, seed=8,
                         fe_budget=333), None),
    (synthesize_instance(d=3, k=2, constrained=False, seed=3,
                         fe_budget=333), 120),
    (_narrow_box_instance(), None),
], ids=["cut-mid-ask", "constrained", "small-groups",
        "fail-before-first-evaluation"])
def test_lockstep_runs_equal_solo_runs(instance, group_elements,
                                       monkeypatch):
    if group_elements is not None:
        monkeypatch.setattr(base, "_GROUP_ELEMENTS", group_elements)
    calls, groups = [], []
    real_drive = base._drive

    def logged_evaluate_batch(inst, x):
        calls.append(len(x))
        return evaluate_batch(inst, x)

    def logged_drive(chains):
        groups.append(len(chains))
        real_drive(chains)

    monkeypatch.setattr(base, "evaluate_batch", logged_evaluate_batch)
    monkeypatch.setattr(base, "_drive", logged_drive)
    _, records = benchmark_instance(instance, cap=2, runs=2, seed=11)
    runs = [r for rec in records for r in rec.per_run]
    assert sum(calls) == sum(r.fe_used for r in runs)
    assert sum(groups) == len(runs)
    assert len(groups) >= (3 if group_elements else 1)
    bench_calls, solo_calls = len(calls), 0

    cut = set()
    for rec in records:
        for r, got in enumerate(rec.per_run):
            calls.clear()
            seed = derive_seed(11, instance.id, rec.optimizer,
                               rec.config_index, r)
            assert got == run(rec.optimizer, rec.config, instance,
                              instance.fe_budget, seed)
            solo_calls += len(calls)
            if calls and calls[-1] < max(calls):
                cut.add(rec.optimizer)
    assert cut >= _CONSTANT_ASKS
    statuses = {rec.optimizer: {r.status for r in rec.per_run}
                for rec in records}
    if instance.d == 2:
        assert statuses.pop("dual_annealing") == {"failed"}
    assert all(s == {"ok"} for s in statuses.values()), statuses
    # the runs of a group share their evaluate_batch calls
    assert bench_calls * 2 < solo_calls


def test_lockstep_starts_no_group_before_the_one_before_ends(monkeypatch):
    bound = 120
    monkeypatch.setattr(base, "_GROUP_ELEMENTS", bound)
    groups = []
    real_drive = base._drive

    class CheckedChain(base._Chain):
        def __init__(self, optimizer, config, *args):
            assert all(c.ask is None for group in groups for c in group)
            super().__init__(optimizer, config, *args)
            self.elements = base._n_init(optimizer, config) * instance.d

    def logged_drive(chains):
        groups.append(chains)
        real_drive(chains)

    monkeypatch.setattr(base, "_Chain", CheckedChain)
    monkeypatch.setattr(base, "_drive", logged_drive)
    instance = synthesize_instance(d=3, k=2, constrained=False, seed=3,
                                   fe_budget=333)
    _, records = benchmark_instance(instance, cap=2, runs=2, seed=11)
    assert sum(map(len, groups)) == sum(len(rec.per_run) for rec in records)
    assert len(groups) >= 3
    for group in groups:
        assert (len(group) == 1
                or sum(c.elements for c in group) <= bound)
    # each group closed only because its next run would not fit
    for group, after in zip(groups, groups[1:]):
        assert sum(c.elements for c in group) + after[0].elements > bound
