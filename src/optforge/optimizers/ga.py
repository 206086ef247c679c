"""Genetic algorithm with self-adaptive per-individual mutation scale.

Works in the unit cube (points are mapped affinely into the instance
box for evaluation).  Each individual carries its own mutation scale;
children multiply the parent scale by ``sigma_meta`` raised to a
U(-1, 1) exponent, clipped to ``[sigma_best_limit, 1]``.  Every child
descends from the best individual (the first of equals), which
survives unchanged and is not re-evaluated, so only children consume
budget.  Ranking uses the penalized objective.
"""

import numpy as np

from .base import BoxMap, penalized_ask, register

__all__ = []


@register("samr_ga", n_init=lambda cfg: cfg["NP"])
def samr_ga(tracker, config, rng):
    np_ = config["NP"]
    sigma_meta = config["sigma_meta"]
    sigma_floor = config["sigma_best_limit"]
    box = BoxMap(tracker.bounds)
    d = tracker.d

    pop = rng.random((np_, d))
    sigma = np.full(np_, float(config["sigma_init"]))
    fit = yield from penalized_ask(box.to_real(pop))
    n_child = np_ - 1

    while True:
        best = np.argsort(fit, kind="stable")[:1]
        meta = sigma_meta ** rng.uniform(-1.0, 1.0, n_child)
        child_sigma = np.clip(sigma[best] * meta, sigma_floor, 1.0)
        child = pop[best] + child_sigma[:, None] * rng.standard_normal((n_child, d))
        child = np.clip(child, 0.0, 1.0)

        child_fit = yield from penalized_ask(box.to_real(child))
        pop = np.concatenate([pop[best], child])
        sigma = np.concatenate([sigma[best], child_sigma])
        fit = np.concatenate([fit[best], child_fit])
