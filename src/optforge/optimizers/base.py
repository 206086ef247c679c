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

Comparison rule for constrained problems (also used unconstrained,
where every violation is 0): feasible beats infeasible, then smaller
violation, then smaller objective, where a NaN objective ranks below
every number.
"""

from dataclasses import dataclass, field

import numpy as np

from ..problems.instance import evaluate_batch
from .grids import GRIDS, validate_config

__all__ = [
    "PENALTY_COEFF",
    "BudgetExhausted",
    "ObjectiveTracker",
    "RunResult",
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
        fe_before = self.fe_used
        f, viol = evaluate_batch(self.instance, x)
        self.fe_used += x.shape[0]
        self._record(x, f, viol, fe_before)
        if truncated:
            raise BudgetExhausted
        return f, viol

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


def run(optimizer, config, instance, fe_budget, seed):
    """Execute one run and package the outcome.

    Any exception out of the optimizer (other than budget exhaustion)
    marks the run ``failed``; a budget smaller than the optimizer's
    initial sample fails upfront without spending evaluations.
    """
    fn, n_init_of = _registered(optimizer)
    validate_config(optimizer, config)

    n_init = int(n_init_of(config))
    if fe_budget < n_init:
        return RunResult(
            seed=seed, status="failed", fe_used=0,
            message=f"budget {fe_budget} < initial sample {n_init}",
        )

    tracker = ObjectiveTracker(instance, fe_budget, n_init)
    rng = np.random.Generator(np.random.PCG64(seed))
    status, message = "ok", ""
    try:
        fn(tracker, config, rng)
    except BudgetExhausted:
        pass
    except Exception as exc:  # noqa: BLE001 -- any optimizer crash = failed run
        status, message = "failed", f"{type(exc).__name__}: {exc}"

    if tracker.best_x is None:
        message = message or "no evaluations recorded"
        return RunResult(seed=seed, status="failed", fe_used=tracker.fe_used,
                         message=message)
    return RunResult(
        seed=seed, status=status, best_f=tracker.best_f,
        best_violation=tracker.best_violation, f0=tracker.f0,
        f0_violation=tracker.f0_violation, fe_used=tracker.fe_used,
        trace=tracker.trace, message=message,
    )
