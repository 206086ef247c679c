"""Shared optimizer infrastructure: budget tracking, constraint
handling, the run protocol and the optimizer registry.

Optimizers are generator functions ``fn(tracker, config, rng)``: each
yields the batch of points it wants evaluated next and is sent their
``(f, violation)``, and steps until its run is ended for it when the
budget is spent.  An optimizer without native constraint support asks
through :func:`penalized_ask`, which gives it ``f + 1e6 * violation``.
The tracker records every evaluation and maintains the running best
under the feasibility rule and the initial-sample objective ``f0``
used later for descent normalization.  A run's first ask is its
initial sample: nothing else states its size.  An optimizer reads
nothing of the instance but the tracker's ``bounds``, ``d``,
``fe_budget`` and ``fe_used``, and never calls the tracker's
``batch``, so its source runs unchanged as an answer program against
any runtime with the tracker's surface (see
:mod:`optforge.render.answers`).

Every run steps through one driver: a :class:`Lockstep` drives the
runs of one instance together, in groups of bounded size, one
:func:`evaluate_batch` call per step for every run of a group, and
:func:`run` drives a run alone as a group of one.  Each row of an
evaluation gets the same bits in any batch, so a run driven with others
ends exactly as it ends alone.

Comparison rule for constrained problems (also used unconstrained,
where every violation is 0): feasible beats infeasible, then smaller
violation, then smaller objective, where a NaN objective ranks below
every number.
"""

import inspect
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..problems.instance import evaluate_batch
from .grids import GRIDS, validate_config

__all__ = [
    "PENALTY_COEFF",
    "BudgetExhausted",
    "ObjectiveTracker",
    "RunResult",
    "Lockstep",
    "register",
    "get_optimizer",
    "get_answer",
    "run",
    "rule_key",
    "rule_argmin",
    "rule_le",
    "uniform_init",
    "BoxMap",
    "penalized_ask",
]

PENALTY_COEFF = 1.0e6

# a lockstep group closes once the rows x d of its runs' first asks
# reach this many elements
_GROUP_ELEMENTS = 2**13


class BudgetExhausted(Exception):
    """Raised by the tracker once the evaluation budget is spent."""


def rule_key(f, violation):
    """Sort key implementing the feasibility rule (smaller is better); a
    NaN objective ranks below every number (``f != f`` only for NaN)."""
    return (0 if violation <= 0.0 else 1, violation, f != f, f)


def rule_argmin(f, violation):
    """Index of the feasibility-rule best within a batch, the first of
    equals; a NaN objective ranks below every number."""
    return int(np.lexsort((f, np.maximum(violation, 0.0)))[0])


def rule_le(f_a, v_a, f_b, v_b):
    """Vectorized feasibility-rule comparison: a better-or-equal b; a
    NaN objective ranks below every number, as in :func:`rule_argmin`."""
    fa, va = np.asarray(f_a), np.asarray(v_a)
    fb, vb = np.asarray(f_b), np.asarray(v_b)
    ia = (va > 0.0).astype(int)
    ib = (vb > 0.0).astype(int)
    return (ia < ib) | (
        (ia == ib) & ((va < vb) | ((va == vb) & ((fa <= fb) | (fb != fb))))
    )


class ObjectiveTracker:
    """Budget-limited evaluation proxy around one problem instance.

    An answer program evaluates through :meth:`batch`; the run driver
    evaluates a group's asks in one call and counts each run's rows
    through :meth:`tell`, which :meth:`batch` calls too.  When a batch
    does not fit in the remaining budget, the fitting prefix is
    evaluated (and recorded) before :class:`BudgetExhausted` is raised.

    ``f0``/``f0_violation`` hold the rule-best point of the first batch
    recorded -- a run's first ask, the optimizer's own initial sample --
    which anchors descent scoring; later batches leave them unchanged.
    """

    def __init__(self, instance, fe_budget):
        self.instance = instance
        self.fe_budget = int(fe_budget)
        self.fe_used = 0
        self.best_f = np.inf
        self.best_x = None
        self.best_violation = np.inf
        self.f0 = None
        self.f0_violation = None
        self.trace = []  # (fe_used_at_improvement, f, violation)

    @property
    def remaining(self):
        return self.fe_budget - self.fe_used

    @property
    def bounds(self):
        """Read-only (d, 2) array of box bounds."""
        return self.instance.bounds

    @property
    def d(self):
        return self.instance.d

    @staticmethod
    def _best_row(f, viol):
        # rule_argmin with fast paths: 0 for one row (most of
        # dual_annealing's calls), and f.argmin() when every violation is
        # 0 and it picks no NaN, where the rule reduces to it; a NaN
        # violation is truthy and takes the rule.  They live here, not in
        # rule_argmin, because answer programs copy rule_argmin's source.
        if len(f) == 1:
            return 0
        if not viol.any():
            i = f.argmin()
            if f[i] == f[i]:
                return int(i)
        return rule_argmin(f, viol)

    def _record(self, x, f, viol, fe_before):
        i = self._best_row(f, viol)
        f_i, viol_i = float(f[i]), float(viol[i])
        if self.f0 is None:
            self.f0, self.f0_violation = f_i, viol_i
        if (self.best_x is None or rule_key(f_i, viol_i)
                < rule_key(self.best_f, self.best_violation)):
            self.best_f, self.best_violation = f_i, viol_i
            self.best_x = np.array(x[i])
            self.trace.append((fe_before + i + 1, f_i, viol_i))

    def batch(self, x):
        """Evaluate up to ``remaining`` rows of ``x``.

        Returns ``(f, violation)`` arrays of length ``len(x)``, or
        raises :class:`BudgetExhausted` (after recording the prefix
        that still fit).
        """
        remaining = self.fe_budget - self.fe_used
        if remaining <= 0:
            raise BudgetExhausted
        x = np.asarray(x, dtype=float)
        truncated = x.shape[0] > remaining
        if truncated:
            x = x[:remaining]
        f, viol = evaluate_batch(self.instance, x)
        self.tell(x, f, viol)
        if truncated:
            raise BudgetExhausted
        return f, viol

    def tell(self, x, f, violation):
        """Count and record rows of ``x`` evaluated elsewhere, which fit
        in the remaining budget."""
        fe_before = self.fe_used
        self.fe_used += x.shape[0]
        self._record(x, f, violation, fe_before)


def penalized_ask(x):
    """Ask for ``x`` and return its ``f + 1e6 * violation``, for
    optimizers without native constraint support:
    ``fit = yield from penalized_ask(x)``."""
    f, viol = yield x
    return f + PENALTY_COEFF * viol


@dataclass
class RunResult:
    """Outcome of one optimizer run on one instance.  Its fields are the
    keys of a ``per_run`` entry of ``records.jsonl``, which
    ``RunResult(**run)`` rebuilds.  ``trace`` holds ``(fe, f,
    violation)`` at each improvement of the best."""

    seed: int
    status: str  # "ok" | "failed"
    best_f: float = None
    best_violation: float = None
    f0: float = None
    f0_violation: float = None
    fe_used: int = 0
    trace: list = field(default_factory=list)
    message: str = ""


_REGISTRY = {}
_ANSWERS = {}


def register(name, answer=None):
    """Register an optimizer, a generator function, under its id in
    ``GRIDS``.  Its first ask is its initial sample, the batch that
    fixes ``f0``.

    ``answer`` is the function whose source answer programs ship, by
    default the registered one; another, which may be a plain function
    that calls the tracker, must run the same evaluations, which tests
    check.
    """
    if name not in GRIDS:
        raise ValueError(f"optimizer {name!r} has no grid in GRIDS")

    def deco(fn):
        if not inspect.isgeneratorfunction(fn):
            raise TypeError(f"optimizer {name!r}: {fn.__qualname__} is not "
                            f"a generator function")
        if name in _REGISTRY:
            raise ValueError(f"duplicate optimizer id {name!r}")
        _REGISTRY[name] = fn
        _ANSWERS[name] = answer or fn
        return fn

    return deco


def get_optimizer(name):
    """The function the benchmark runs for ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown optimizer {name!r}") from None


def get_answer(name):
    """The function whose source answer programs for ``name`` ship."""
    get_optimizer(name)
    return _ANSWERS[name]


def uniform_init(rng, bounds, n):
    """n points uniform in the box."""
    return rng.uniform(bounds[:, 0], bounds[:, 1], size=(n, bounds.shape[0]))


class BoxMap:
    """Affine map between the unit cube and an instance's box, for
    optimizers that operate in normalized coordinates."""

    def __init__(self, bounds):
        self.lo = bounds[:, 0]
        self.width = bounds[:, 1] - bounds[:, 0]

    def to_real(self, u):
        return self.lo + np.asarray(u) * self.width


class _Chain:
    """One run on its way to its :class:`RunResult`: started here, up to
    its first ask, and left for :func:`_drive` to step to its end.  A
    first ask larger than the budget fails the run before it spends an
    evaluation."""

    def __init__(self, instance, fe_budget, optimizer, config, seed):
        self.seed = seed
        self.status, self.message = "ok", ""
        self.tracker = ObjectiveTracker(instance, fe_budget)
        rng = np.random.Generator(np.random.PCG64(seed))
        self.steps = get_optimizer(optimizer)(self.tracker, config, rng)
        self.send(None)
        if self.ask is not None and len(self.ask) > self.tracker.fe_budget:
            self.status = "failed"
            self.message = (f"budget {fe_budget} < initial sample "
                            f"{len(self.ask)}")
            self.stop()

    def send(self, value):
        """Send ``value`` to the steps; ``ask`` becomes the points they
        want evaluated next, or None once the run has ended.  Budget
        exhaustion or the steps' own end ends the run ok; any other
        exception, or an ask that is not one or more rows of ``d``
        coordinates, fails it."""
        try:
            ask = np.asarray(self.steps.send(value), dtype=float)
            if ask.ndim != 2 or ask.shape[1] != self.tracker.d or not len(ask):
                raise ValueError(f"expected shape (n, {self.tracker.d}), "
                                 f"got {ask.shape}")
            self.ask = ask
            return
        except (BudgetExhausted, StopIteration):
            pass
        except Exception as exc:  # noqa: BLE001 -- any optimizer crash = failed run
            self.status, self.message = "failed", f"{type(exc).__name__}: {exc}"
        self.stop()

    def stop(self):
        """End the steps, with or without their ask answered: the run
        has ended."""
        self.steps.close()
        self.ask = None

    def result(self):
        """The run's outcome; a run that recorded no evaluation failed."""
        tracker = self.tracker
        if tracker.best_x is None:
            return RunResult(
                seed=self.seed, status="failed", fe_used=tracker.fe_used,
                message=self.message or "no evaluations recorded")
        return RunResult(
            seed=self.seed, status=self.status, best_f=tracker.best_f,
            best_violation=tracker.best_violation, f0=tracker.f0,
            f0_violation=tracker.f0_violation, fe_used=tracker.fe_used,
            trace=tracker.trace, message=self.message,
        )


def _drive(chains):
    """Step ``chains``, runs on one instance, to their ends.

    Each step evaluates the rows of every chain's ask that fit in that
    chain's budget in one :func:`evaluate_batch` call, counts them
    through the chain's :meth:`ObjectiveTracker.tell` and sends the
    chain their values; a chain whose ask did not fit whole ends there,
    as :meth:`ObjectiveTracker.batch` ends it.
    """
    live = [c for c in chains if c.ask is not None]
    while live:
        fits = []
        for chain in live:
            if chain.tracker.remaining > 0:
                fits.append((chain, chain.ask[:chain.tracker.remaining]))
            else:
                chain.stop()
        if fits:
            f, viol = evaluate_batch(live[0].tracker.instance,
                                     np.concatenate([x for _, x in fits]))
        start = 0
        for chain, x in fits:
            end = start + len(x)
            value = f[start:end], viol[start:end]
            chain.tracker.tell(x, *value)
            if len(x) < len(chain.ask):
                chain.stop()
            else:
                chain.send(value)
            start = end
        live = [c for c in live if c.ask is not None]


class Lockstep:
    """The runs ``tasks``, ``(optimizer, config, seed)`` triples on one
    instance and budget, driven together in groups and handed out in
    their order.

    Once every run of a group has been taken, the next :meth:`take`
    starts the next runs in their order, up to their first asks, and
    closes the group once the rows x ``d`` of those asks reach
    ``_GROUP_ELEMENTS`` (a run that has ended by then counts 0) or the
    runs run out, so that the points in flight stay bounded at any grid
    size.  It then drives the group's runs to their ends, so that their
    evaluations are made in one :func:`evaluate_batch` call per step
    rather than one per run and step.  An unknown optimizer or an
    off-grid config raises here, before any run starts.
    """

    def __init__(self, instance, fe_budget, tasks):
        self._instance, self._fe_budget = instance, fe_budget
        # the tasks not yet started, and (task, driven chain) not yet taken
        self._tasks = deque((o, c, s) for o, c, s in tasks)
        self._held = deque()
        for optimizer, config, _ in self._tasks:
            get_optimizer(optimizer)
            validate_config(optimizer, config)

    def take(self, optimizer, config, seed):
        """The next run, driven to its end; raises ``ValueError`` unless
        it is the run of ``optimizer`` with ``config`` and ``seed``."""
        if not self._held and self._tasks:
            size = 0
            while self._tasks and size < _GROUP_ELEMENTS:
                task = self._tasks.popleft()
                chain = _Chain(self._instance, self._fe_budget, *task)
                if chain.ask is not None:
                    size += chain.ask.size
                self._held.append((task, chain))
            _drive([chain for _, chain in self._held])
        if not self._held or self._held[0][0] != (optimizer, config, seed):
            raise ValueError(f"the run of {optimizer} with config {config} "
                             f"and seed {seed} is not the next run held")
        return self._held.popleft()[1]


def run(optimizer, config, instance, fe_budget, seed, lockstep=None):
    """Execute one run and package the outcome.

    Any exception out of the optimizer (other than budget exhaustion)
    marks the run ``failed``; a budget smaller than its first ask, the
    optimizer's initial sample, fails it without spending evaluations.
    The run is the next one ``lockstep`` holds, which ends as it would
    alone; without a lockstep it is driven alone.
    """
    if lockstep is None:
        lockstep = Lockstep(instance, fe_budget, [(optimizer, config, seed)])
    return lockstep.take(optimizer, config, seed).result()
