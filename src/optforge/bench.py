"""Grid-search benchmarking: label every instance with its best
configured optimizer.

Scoring is two-pass.  Pass 1 executes ``runs`` independent runs per
(optimizer, config) and records raw results.  Pass 2 fixes the
instance's reference optimum ``f_star`` as the best objective any ok
run found (feasible runs only on constrained instances), then scores
each run with the normalized descent

    eval = clamp_0^1 ((f0 - best_f) / (f0 - f_star))

where failed runs score 0, a run whose start already equals the
optimum scores 1, and on constrained instances a run that started
infeasible but ended feasible scores 1 (it realized the whole usable
improvement).  The winner is the argmax of mean eval with ties broken
lexicographically on (optimizer id, config index).

Per-task seeds derive from (master seed, instance id, optimizer,
config index, run index), so results are independent of scheduling and
parallelism.
"""

import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass

from .artifacts import read_jsonl, write_jsonl
from .metrics import normalized_descent
from .optimizers.base import run
from .optimizers.grids import DEFAULT_CONFIG_CAP, enumerate_configs
from .seeding import derive_seed

__all__ = [
    "BenchmarkRecord",
    "KnowledgeEntry",
    "benchmark_instance",
    "benchmark_set",
    "save_knowledge",
    "load_knowledge",
    "save_records",
]

log = logging.getLogger("optforge.bench")

DEFAULT_POOL = (
    "vanilla_de",
    "deap_de",
    "vanilla_pso",
    "samr_ga",
    "sep_cma_es",
    "bipop_cma_es",
    "simulated_annealing",
    "dual_annealing",
    "nsa",
    "random_search",
)


@dataclass
class BenchmarkRecord:
    instance_id: str
    optimizer: str
    config_index: int
    config: dict
    per_run: list  # RunResult list, length = runs
    mean_eval: float


@dataclass
class KnowledgeEntry:
    instance_id: str
    best_optimizer: str
    best_config: dict
    best_config_index: int
    f_star: float  # None on degenerate entries
    mean_eval: float
    degenerate: bool = False


def _degenerate_entry(instance_id):
    """The entry for an instance with no usable winner."""
    return KnowledgeEntry(
        instance_id=instance_id, best_optimizer="random_search",
        best_config={}, best_config_index=0, f_star=None,
        mean_eval=0.0, degenerate=True,
    )


def _feasible_best(results):
    """Reference optimum: best ok (and feasible, if constrained) best_f."""
    best = None
    for r in results:
        if r.status != "ok":
            continue
        if r.best_violation is not None and r.best_violation > 0.0:
            continue
        if best is None or r.best_f < best:
            best = r.best_f
    return best


def _run_eval(result, f_star, constrained):
    if result.status != "ok" or f_star is None:
        return 0.0
    if constrained and result.best_violation > 0.0:
        return 0.0
    if constrained and result.f0_violation > 0.0:
        # started infeasible, ended feasible: full usable descent
        return 1.0
    return normalized_descent(result.f0, result.best_f, f_star)


def benchmark_instance(instance, pool=DEFAULT_POOL, cap=DEFAULT_CONFIG_CAP,
                       runs=5, seed=0, keep_records=True):
    """Benchmark one instance over the pool's (capped) config grids.

    Returns ``(KnowledgeEntry, records)`` where ``records`` is a
    :class:`BenchmarkRecord` per (optimizer, config), or None when
    ``keep_records`` is false.
    """
    if not pool:
        raise ValueError("optimizer pool must not be empty")
    if runs < 1:
        raise ValueError("runs must be >= 1")

    all_results = []  # (optimizer, config_index, config, [RunResult])
    for optimizer in pool:
        for config_index, config in enumerate_configs(optimizer, cap=cap,
                                                      seed=seed):
            per_run = [
                run(optimizer, config, instance, instance.fe_budget,
                    derive_seed(seed, instance.id, optimizer, config_index, r))
                for r in range(runs)
            ]
            all_results.append((optimizer, config_index, config, per_run))

    flat = [r for _, _, _, rs in all_results for r in rs]
    f_star = _feasible_best(flat)
    constrained = instance.constrained

    records = []
    best_key = None
    best = None
    for optimizer, config_index, config, per_run in all_results:
        evals = [_run_eval(r, f_star, constrained) for r in per_run]
        mean_eval = sum(evals) / len(evals)
        records.append(BenchmarkRecord(
            instance_id=instance.id, optimizer=optimizer,
            config_index=config_index, config=config,
            per_run=per_run, mean_eval=mean_eval,
        ))
        key = (-mean_eval, optimizer, config_index)
        if best_key is None or key < best_key:
            best_key = key
            best = records[-1]

    if f_star is None:
        entry = _degenerate_entry(instance.id)
    else:
        entry = KnowledgeEntry(
            instance_id=instance.id, best_optimizer=best.optimizer,
            best_config=dict(best.config),
            best_config_index=best.config_index,
            f_star=f_star, mean_eval=best.mean_eval,
        )
    return entry, (records if keep_records else None)


def _bench_task(args):
    instance, pool, cap, runs, seed, keep_records = args
    try:
        return benchmark_instance(instance, pool, cap, runs, seed,
                                  keep_records), None
    except Exception as exc:  # noqa: BLE001 -- one bad instance must not kill the set
        return ((_degenerate_entry(instance.id), None),
                f"{instance.id}: {type(exc).__name__}: {exc}")


def benchmark_set(instances, pool=DEFAULT_POOL, cap=DEFAULT_CONFIG_CAP,
                  runs=5, master_seed=0, parallelism=1, keep_records=False):
    """Benchmark a whole set; deterministic in everything but wall time.

    Returns ``(entries, records, failures)``; ``records`` is None unless
    ``keep_records``; failures lists per-instance error strings (those
    entries are emitted degenerate rather than aborting the set).
    """
    tasks = [(inst, tuple(pool), cap, runs, master_seed, keep_records)
             for inst in instances]
    parallel = parallelism > 1 and len(tasks) > 1
    outcomes = []
    with (ProcessPoolExecutor(max_workers=parallelism) if parallel
          else nullcontext()) as pool_ex:
        mapped = (pool_ex.map if parallel else map)(_bench_task, tasks)
        for i, out in enumerate(mapped, start=1):
            outcomes.append(out)
            if i % 10 == 0:
                log.info("benchmarked %d/%d instances", i, len(tasks))

    entries = []
    records = [] if keep_records else None
    failures = []
    for (entry, recs), err in outcomes:
        entries.append(entry)
        if keep_records and recs is not None:
            records.extend(recs)
        if err is not None:
            failures.append(err)
            print(f"bench: degenerate instance ({err})", file=sys.stderr)
    return entries, records, failures


# ---------------------------------------------------------------------------
# serialization

def save_knowledge(entries, path):
    write_jsonl(path, map(asdict, entries))


def load_knowledge(path):
    return read_jsonl(path, lambda obj: KnowledgeEntry(**obj))


def save_records(records, path):
    """Audit sidecar: every (optimizer, config) with its raw runs."""
    write_jsonl(path, ({
        "instance_id": rec.instance_id,
        "optimizer": rec.optimizer,
        "config_index": rec.config_index,
        "config": rec.config,
        "mean_eval": rec.mean_eval,
        "per_run": [
            {
                "status": r.status, "seed": r.seed,
                "best_f": r.best_f, "best_violation": r.best_violation,
                "f0": r.f0, "f0_violation": r.f0_violation,
                "fe_used": r.fe_used,
                "trace": [[fe, f, v] for fe, f, v in r.trace],
                "message": r.message,
            }
            for r in rec.per_run
        ],
    } for rec in records))
