"""Grid-search benchmarking: label every instance with its best
configured optimizer.

Every (optimizer, config) of the grid runs ``runs`` times.  Then the
instance's reference optimum ``f_star`` is the best objective of any ok
run that ended feasible, and each run scores the normalized descent

    eval = clamp_0^1 ((f0 - best_f) / (f0 - f_star))

where a failed run or one that ended infeasible scores 0, a run whose
start already equals the optimum scores 1, and a run that started
infeasible but ended feasible scores 1 (it realized the whole usable
improvement).  The rule is the same on both kinds of instance:
unconstrained runs carry violation 0, so they are always feasible.  The
winner is the argmax of mean eval with ties broken lexicographically on
(optimizer id, config index).

Per-task seeds derive from (master seed, instance id, optimizer,
config index, run index), so results are independent of scheduling and
parallelism.  The runs of one instance, every optimizer, config and run
in grid order, are driven in lockstep groups of bounded size by a
:class:`~optforge.optimizers.base.Lockstep`, which evaluates all the
asks of a group's step in one call and hands the runs out in that
order; each run ends as it would alone.

An instance that raises fails the whole set: the exception propagates,
with a note naming the instance, and :func:`save_outcomes` moves neither
output into place.  So a degenerate entry has one cause: no ok run
ended feasible.
"""

import ctypes
import logging
import multiprocessing
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from operator import attrgetter

from .artifacts import read_jsonl_once, write_jsonl_split
from .metrics import normalized_descent
from .optimizers.base import Lockstep, run
from .optimizers.grids import DEFAULT_CONFIG_CAP, GRIDS, enumerate_configs
from .seeding import derive_seed

__all__ = [
    "BenchmarkRecord",
    "KnowledgeEntry",
    "benchmark_instance",
    "benchmark_set",
    "load_knowledge",
    "save_outcomes",
    "winner_counts",
]

log = logging.getLogger("optforge.bench")

# every optimizer with a grid, in grid order, which ``records.jsonl`` follows
DEFAULT_POOL = tuple(GRIDS)


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


def _run_eval(result, f_star):
    if result.status != "ok" or f_star is None:
        return 0.0
    if result.best_violation > 0.0:
        return 0.0
    if result.f0_violation > 0.0:
        # started infeasible, ended feasible: full usable descent
        return 1.0
    return normalized_descent(result.f0, result.best_f, f_star)


def _grid(pool, cap, runs, seed):
    """The ``(optimizer, config_index, config)`` list every instance
    runs, in pool order.  Raises for a pool, cap or run count with which
    no instance could get a label, and for a pool that names an
    optimizer twice; a ``cap`` of None is the full grid.
    """
    if not pool:
        raise ValueError("optimizer pool must not be empty")
    unknown = [o for o in pool if o not in GRIDS]
    if unknown:
        raise ValueError(f"unknown optimizers in pool: {unknown}")
    repeated = [o for o, n in Counter(pool).items() if n > 1]
    if repeated:
        raise ValueError(f"optimizers named more than once in pool: "
                         f"{repeated}")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if cap is not None and cap < 1:
        raise ValueError(f"config cap must be >= 1 or None, got {cap}")
    return [(optimizer, config_index, config) for optimizer in pool
            for config_index, config in enumerate_configs(optimizer, cap=cap,
                                                          seed=seed)]


def benchmark_instance(instance, pool=DEFAULT_POOL, cap=DEFAULT_CONFIG_CAP,
                       runs=5, seed=0):
    """Benchmark one instance over the pool's (capped) config grids.

    Returns ``(KnowledgeEntry, records)`` with one
    :class:`BenchmarkRecord` per (optimizer, config), in grid order.
    """
    grid = _grid(pool, cap, runs, seed)
    tasks = [[(optimizer, config,
               derive_seed(seed, instance.id, optimizer, config_index, r))
              for r in range(runs)]
             for optimizer, config_index, config in grid]
    lockstep = Lockstep(instance, instance.fe_budget,
                        [task for per_run in tasks for task in per_run])
    per_config = [
        [run(optimizer, config, instance, instance.fe_budget, run_seed,
             lockstep=lockstep)
         for optimizer, config, run_seed in per_run]
        for per_run in tasks
    ]
    f_star = min((r.best_f for per_run in per_config for r in per_run
                  if r.status == "ok" and not r.best_violation > 0.0),
                 default=None)
    records = [
        BenchmarkRecord(
            instance_id=instance.id, optimizer=optimizer,
            config_index=config_index, config=config, per_run=per_run,
            mean_eval=sum(_run_eval(r, f_star) for r in per_run)
            / len(per_run),
        )
        for (optimizer, config_index, config), per_run in zip(grid, per_config)
    ]
    if f_star is None:
        return _degenerate_entry(instance.id), records
    best = min(records, key=lambda rec: (-rec.mean_eval, rec.optimizer,
                                         rec.config_index))
    return KnowledgeEntry(
        instance_id=instance.id, best_optimizer=best.optimizer,
        best_config=dict(best.config), best_config_index=best.config_index,
        f_star=f_star, mean_eval=best.mean_eval,
    ), records


def _limit_blas_threads(n):
    """Give this process's OpenBLAS ``n`` threads.  numpy's bundled
    OpenBLAS reads its thread variables once, when it loads, so a forked
    worker can only set them through this call; without the symbol it
    does nothing."""
    from numpy._core import _multiarray_umath

    lib = ctypes.CDLL(_multiarray_umath.__file__)
    set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if set_threads is not None:
        set_threads(n)


def _start_worker(task, blas_threads):
    """Keep ``task``, which the fork copied, for :func:`_call_task`;
    give OpenBLAS ``blas_threads`` unless it is None."""
    global _task
    _task = task
    if blas_threads is not None:
        _limit_blas_threads(blas_threads)


def _call_task(i):
    return _task(i)


def benchmark_set(instances, pool=DEFAULT_POOL, cap=DEFAULT_CONFIG_CAP,
                  runs=5, master_seed=0, parallelism=1):
    """Benchmark a whole set; deterministic in everything but wall time.

    Yields ``(entry, records)`` per instance, in input order, as each
    instance finishes (under ``parallelism`` > 1, once the instances
    before it have finished too).  An instance that raises ends the
    set: its exception propagates, with a note naming the instance.  A
    set that ends early, by a raise or by the consumer closing it, stops
    its workers at once.  A pool, cap or run count that no instance
    could work with raises ``ValueError`` before any instance runs.

    Workers are forked, and each gets ``cpu_count // workers`` OpenBLAS
    threads (at least 1), so that their thread pools do not contend,
    unless ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set.
    """
    _grid(pool, cap, runs, master_seed)
    instances = list(instances)
    task = partial(benchmark_instance, pool=pool, cap=cap, runs=runs,
                   seed=master_seed)
    parallel = parallelism > 1 and len(instances) > 1
    if parallel:
        workers = min(parallelism, len(instances))
        pinned = {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ)
        # forked workers start at the first submit, and the launching
        # process's wait4 counts their peak memory
        pool_ex = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker,
            initargs=(lambda i: task(instances[i]), None if pinned
                      else max(1, (os.cpu_count() or 1) // workers)))
    try:
        # a call carries an index, not its instance (about 100 KB at d =
        # 50), so that the calls left queued when the workers are
        # terminated fit the queue's pipe.  Not map: it cancels the rest
        # as it raises, which breaks Python 3.11's clean-up of the pool
        outcomes = ((f.result() for f in [pool_ex.submit(_call_task, i)
                                          for i in range(len(instances))])
                    if parallel else map(task, instances))
        for i, instance in enumerate(instances, start=1):
            try:
                outcome = next(outcomes)
            except Exception as exc:
                exc.add_note(f"while benchmarking instance {instance.id}")
                raise
            if i % 10 == 0:
                log.info("benchmarked %d/%d instances", i, len(instances))
            yield outcome
    except BaseException:
        if parallel:
            # calls already queued cannot be cancelled: terminate the
            # executor's own workers, as Python 3.14's terminate_workers()
            for proc in list(pool_ex._processes.values()):
                proc.terminate()
        raise
    finally:
        if parallel:
            pool_ex.shutdown()


def winner_counts(entries):
    """How many labels each optimizer won; degenerate entries have no
    winner and are not counted."""
    return Counter(e.best_optimizer for e in entries if not e.degenerate)


# ---------------------------------------------------------------------------
# serialization

def load_knowledge(path):
    """The file's entries, in order.  A second entry for one instance
    raises ``ValueError`` naming its line."""
    return read_jsonl_once(path, lambda obj: KnowledgeEntry(**obj),
                           attrgetter("instance_id"),
                           "second entry for instance")


def save_outcomes(outcomes, records_path, knowledge_path):
    """Write the ``(entry, records)`` pairs of :func:`benchmark_set` in
    one pass, as they arrive, and return the entries.

    Each record is a line of ``records_path``, the audit sidecar: its
    keys are the fields of :class:`BenchmarkRecord`, and each
    ``per_run`` entry's keys those of :class:`RunResult`.  Each entry is
    a line of ``knowledge_path``.  Neither file moves into place before
    both are written, so a failure leaves both as they were.
    """
    entries = []

    def rows():
        for entry, records in outcomes:
            for rec in records:
                yield 0, {**vars(rec),
                          "per_run": list(map(vars, rec.per_run))}
            entries.append(entry)
            yield 1, asdict(entry)

    write_jsonl_split([records_path, knowledge_path], rows())
    return entries
