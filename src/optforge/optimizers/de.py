"""Differential evolution engine.

One engine serves two registry entries:

* ``vanilla_de`` searches mutation strategy and bound handling along
  with NP/F/Cr;
* ``deap_de`` is the classic DE/rand/1/bin with clipping, so only
  NP/F/Cr are tuned.

Per generation the RNG is consumed in a frozen order: donor index
permutations, crossover mask, forced crossover column, then (for the
``rand`` bound mode) the repair draws.  Selection uses the feasibility
rule with ties going to the trial, as in canonical DE.
"""

import numpy as np

from .base import register, rule_argmin, rule_le, uniform_init

__all__ = []

_N_DONORS = 5  # max indices any strategy needs; always drawn for stream stability


def _donor_indices(rng, n):
    """(n, 5) distinct indices, row i never containing i."""
    u = rng.random((n, n))
    u[np.arange(n), np.arange(n)] = np.inf
    return np.argsort(u, axis=1)[:, :_N_DONORS]


def _mutate(strategy, pop, best, idx, f):
    a = pop[idx[:, 0]]
    b = pop[idx[:, 1]]
    c = pop[idx[:, 2]]
    d = pop[idx[:, 3]]
    e = pop[idx[:, 4]]
    if strategy == "rand1":
        return a + f * (b - c)
    if strategy == "rand2":
        return a + f * (b - c) + f * (d - e)
    if strategy == "best1":
        return best + f * (a - b)
    if strategy == "best2":
        return best + f * (a - b) + f * (c - d)
    if strategy == "current2rand":
        return pop + f * (a - pop) + f * (b - c)
    if strategy == "current2best":
        return pop + f * (best - pop) + f * (a - b)
    if strategy == "rand2best2":
        return a + f * (best - a) + f * (b - c) + f * (d - e)
    raise ValueError(f"unknown mutation strategy {strategy!r}")


def _repair(mode, trial, lo, hi, rng):
    if mode == "clip":
        return np.clip(trial, lo, hi)
    width = hi - lo
    if mode == "periodic":
        return lo + np.mod(trial - lo, width)
    if mode == "reflect":
        t = np.mod(trial - lo, 2.0 * width)
        return lo + np.where(t > width, 2.0 * width - t, t)
    if mode == "rand":
        # draw unconditionally so the stream length never depends on data
        fresh = rng.uniform(lo, hi, trial.shape)
        return np.where((trial < lo) | (trial > hi), fresh, trial)
    raise ValueError(f"unknown bound handling {mode!r}")


def _de_loop(tracker, rng, np_, f, cr, strategy, bound):
    lo = tracker.bounds[:, 0]
    hi = tracker.bounds[:, 1]
    d = tracker.d
    pop = uniform_init(rng, tracker.bounds, np_)
    fit, viol = yield pop
    while True:
        best = pop[rule_argmin(fit, viol)]
        idx = _donor_indices(rng, np_)
        donor = _mutate(strategy, pop, best, idx, f)
        cross = rng.random((np_, d)) < cr
        jrand = rng.integers(0, d, np_)
        cross[np.arange(np_), jrand] = True
        trial = np.where(cross, donor, pop)
        trial = _repair(bound, trial, lo, hi, rng)
        tfit, tviol = yield trial
        accept = rule_le(tfit, tviol, fit, viol)
        pop = np.where(accept[:, None], trial, pop)
        fit = np.where(accept, tfit, fit)
        viol = np.where(accept, tviol, viol)


@register("vanilla_de", n_init=lambda cfg: cfg["NP"])
def vanilla_de(tracker, config, rng):
    yield from _de_loop(tracker, rng, config["NP"], config["F"],
                        config["Cr"], config["mutation"], config["bound"])


@register("deap_de", n_init=lambda cfg: cfg["NP"])
def deap_de(tracker, config, rng):
    yield from _de_loop(tracker, rng, config["NP"], config["F"],
                        config["Cr"], "rand1", "clip")
