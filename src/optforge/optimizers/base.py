"""Shared optimizer infrastructure: budget tracking, constraint
handling, the run protocol and the optimizer registry.

Optimizers are functions ``fn(tracker, config, rng)`` that loop until
the tracker raises :class:`BudgetExhausted`; the tracker records every
evaluation, maintains the running best under the feasibility rule and
the initial-sample objective ``f0`` used later for descent
normalization.  An optimizer sees nothing of the instance but the
tracker's ``bounds`` and ``d``, so its source runs unchanged as an
answer program against any runtime with the tracker's surface (see
:mod:`optforge.render.answers`).

An optimizer may instead be *stepped*: a generator function that
yields each batch of points it wants evaluated and is sent their
``(f, violation)``, and never calls the tracker's evaluation methods.
A :class:`Lockstep` drives the stepped runs of one instance together,
one :func:`evaluate_batch` call per step for all of them.  Each row of
an evaluation gets the same bits in any batch, so a run driven with
others ends exactly as it ends alone.

Comparison rule for constrained problems (also used unconstrained,
where every violation is 0): feasible beats infeasible, then smaller
violation, then smaller objective, where a NaN objective ranks below
every number.
"""

import inspect
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
]

PENALTY_COEFF = 1.0e6


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

    All evaluations go through :meth:`batch`.  When a batch does not fit
    in the remaining budget, the fitting prefix is evaluated (and
    recorded) before :class:`BudgetExhausted` is raised.

    ``f0``/``f0_violation`` hold the rule-best point among the first
    ``n_init`` evaluations seen so far -- the optimizer's own initial
    sample -- which anchors descent scoring; later evaluations leave
    them unchanged.
    """

    def __init__(self, instance, fe_budget, n_init):
        if n_init < 1:
            raise ValueError("n_init must be >= 1")
        self.instance = instance
        self.fe_budget = int(fe_budget)
        self.n_init = int(n_init)
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
        # f0 anchor: rule-best over exactly the first n_init evaluations,
        # even when a batch straddles that boundary
        if fe_before < self.n_init:
            k = min(len(f), self.n_init - fe_before)
            j = self._best_row(f[:k], viol[:k])
            if self.f0 is None or (rule_key(float(f[j]), float(viol[j]))
                                   < rule_key(self.f0, self.f0_violation)):
                self.f0, self.f0_violation = float(f[j]), float(viol[j])

        i = self._best_row(f, viol)
        key = rule_key(float(f[i]), float(viol[i]))
        if self.best_x is None or key < rule_key(self.best_f, self.best_violation):
            self.best_f = float(f[i])
            self.best_x = np.array(x[i])
            self.best_violation = float(viol[i])
            self.trace.append((fe_before + i + 1, self.best_f, self.best_violation))

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

    def penalized(self, x):
        """Single-point evaluation as ``f + 1e6 * violation`` (for
        optimizers without native constraint support)."""
        f, viol = self.batch(np.asarray(x, dtype=float)[None])
        return float(f[0] + PENALTY_COEFF * viol[0])

    def penalized_batch(self, x):
        f, viol = self.batch(x)
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


def register(name, n_init, answer=None):
    """Register an optimizer under its id in ``GRIDS``.

    ``n_init`` maps a config dict to the size of the optimizer's
    initial sample (how many evaluations fix ``f0``).  ``answer`` is the
    function whose source answer programs ship, by default the
    registered one; another must run the same evaluations, which tests
    check.
    """
    if name not in GRIDS:
        raise ValueError(f"optimizer {name!r} has no grid in GRIDS")

    def deco(fn):
        if name in _REGISTRY:
            raise ValueError(f"duplicate optimizer id {name!r}")
        _REGISTRY[name] = (fn, n_init)
        _ANSWERS[name] = answer or fn
        return fn

    return deco


def _registered(name):
    """``(fn, n_init)`` registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown optimizer {name!r}") from None


def get_optimizer(name):
    """The function the benchmark runs for ``name``."""
    return _registered(name)[0]


def get_answer(name):
    """The function whose source answer programs for ``name`` ship."""
    _registered(name)
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
    """One run on its way to its :class:`RunResult`.  A stepped run is
    started here and left for :func:`_drive`; any other runs to its end
    here."""

    def __init__(self, optimizer, config, instance, fe_budget, seed):
        fn, n_init_of = _registered(optimizer)
        validate_config(optimizer, config)
        self.seed = seed
        self.status, self.message = "ok", ""
        self.steps = self.ask = None
        n_init = int(n_init_of(config))
        if fe_budget < n_init:
            # fails upfront without spending evaluations
            self.tracker = None
            self.status = "failed"
            self.message = f"budget {fe_budget} < initial sample {n_init}"
            return
        self.tracker = ObjectiveTracker(instance, fe_budget, n_init)
        rng = np.random.Generator(np.random.PCG64(seed))
        if inspect.isgeneratorfunction(fn):
            self.steps = fn(self.tracker, config, rng)
            self.send(None)
        else:
            self._guard(fn, self.tracker, config, rng)

    def _guard(self, step, *args):
        """``step(*args)``; budget exhaustion ends the run ok, any other
        exception fails it.  Returns the step's value, or None once the
        run has ended."""
        try:
            return step(*args)
        except BudgetExhausted:
            pass
        except Exception as exc:  # noqa: BLE001 -- any optimizer crash = failed run
            self.status, self.message = "failed", f"{type(exc).__name__}: {exc}"
        return None

    def send(self, value):
        """Send ``value`` to the steps; ``ask`` becomes the points they
        want evaluated next, or None once they have ended."""
        self.ask = self._guard(self.steps.send, value)
        if self.ask is not None:
            self.ask = np.asarray(self.ask, dtype=float)

    def stop(self):
        """End the steps before their ask is answered: the budget ran
        out, or evaluating it failed."""
        self.steps.close()
        self.ask = None

    def result(self):
        """The run's outcome; a run that recorded no evaluation failed."""
        tracker = self.tracker
        if tracker is None or tracker.best_x is None:
            return RunResult(
                seed=self.seed, status="failed",
                fe_used=0 if tracker is None else tracker.fe_used,
                message=self.message or "no evaluations recorded")
        return RunResult(
            seed=self.seed, status=self.status, best_f=tracker.best_f,
            best_violation=tracker.best_violation, f0=tracker.f0,
            f0_violation=tracker.f0_violation, fe_used=tracker.fe_used,
            trace=tracker.trace, message=self.message,
        )


def _drive(chains):
    """Step ``chains``, stepped runs on one instance, to their ends.

    Each step evaluates the rows of every chain's ask that fit in that
    chain's budget in one :func:`evaluate_batch` call, and hands each
    chain its rows' values; a chain whose ask did not fit whole ends
    there, as :meth:`ObjectiveTracker.batch` ends it.  A chain left alone
    evaluates through its tracker's ``batch``, as a run of an optimizer
    that is not stepped does, so a solo run sees the tracker it is given.
    """
    live = [c for c in chains if c.ask is not None]
    while live:
        if len(live) == 1:
            (chain,) = live
            value = chain._guard(chain.tracker.batch, chain.ask)
            if value is None:
                chain.stop()
            else:
                chain.send(value)
        else:
            fits = []
            for chain in live:
                if chain.tracker.remaining > 0:
                    fits.append((chain, chain.ask[:chain.tracker.remaining]))
                else:
                    chain.stop()
            if fits:
                f, viol = evaluate_batch(
                    live[0].tracker.instance,
                    np.concatenate([x for _, x in fits]))
            start = 0
            for chain, x in fits:
                end = start + len(x)
                chain.tracker.tell(x, f[start:end], viol[start:end])
                if len(x) < len(chain.ask):
                    chain.stop()
                else:
                    chain.send((f[start:end], viol[start:end]))
                start = end
        live = [c for c in live if c.ask is not None]


class Lockstep:
    """The stepped runs among ``tasks``, ``(optimizer, config, seed)``
    triples on one instance and budget, driven together.

    The first :meth:`take` drives every run held to its end, so that its
    evaluations are made in one :func:`evaluate_batch` call per step
    rather than one per run and step.  A task whose optimizer is not
    stepped is not held.
    """

    def __init__(self, instance, fe_budget, tasks):
        self._chains = {}
        for optimizer, config, seed in tasks:
            if inspect.isgeneratorfunction(_registered(optimizer)[0]):
                key = self._key(optimizer, config, seed)
                if key in self._chains:
                    raise ValueError(f"two runs of {optimizer} with config "
                                     f"{config} and seed {seed}")
                self._chains[key] = _Chain(optimizer, config, instance,
                                           fe_budget, seed)
        self._driven = False

    @staticmethod
    def _key(optimizer, config, seed):
        return optimizer, tuple(sorted(config.items())), seed

    def take(self, optimizer, config, seed):
        """The chain held for this run, run to its end, or None when none
        is held."""
        chain = self._chains.pop(self._key(optimizer, config, seed), None)
        if chain is not None and not self._driven:
            _drive([chain, *self._chains.values()])
            self._driven = True
        return chain


def run(optimizer, config, instance, fe_budget, seed, lockstep=None):
    """Execute one run and package the outcome.

    Any exception out of the optimizer (other than budget exhaustion)
    marks the run ``failed``; a budget smaller than the optimizer's
    initial sample fails upfront without spending evaluations.  A
    :class:`Lockstep` that holds this run gives its result from the runs
    it drove together; a stepped run it does not hold is driven alone,
    with the same result.
    """
    chain = lockstep.take(optimizer, config, seed) if lockstep else None
    if chain is None:
        chain = _Chain(optimizer, config, instance, fe_budget, seed)
        _drive([chain])
    return chain.result()
