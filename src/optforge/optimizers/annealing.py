"""Annealing-based optimizers.

* ``simulated_annealing`` -- population-proposal SA in the unit cube:
  each generation draws NP Gaussian proposals around the current point,
  takes the best, and accepts by the Metropolis rule on the penalized
  objective with temperature T and Boltzmann constant k.  Both the
  proposal scale and the temperature decay geometrically with floors.
* ``nsa`` -- batch-sampling annealing with a scheduled proposal scale:
  the scale shrinks along a linear or quadratic schedule over the level
  index while the temperature follows T0 * rt^level.
* ``dual_annealing`` -- delegates to scipy's implementation
  (generalized visiting distribution + local search); the tracker
  enforces the evaluation budget and records every call.  The local
  search is scipy's default L-BFGS-B, except that each finite-difference
  gradient is evaluated as one batch of d points.

Acceptance tests in all three compare penalized objectives, so
constrained instances are handled by penalty rather than by the
feasibility rule (these samplers keep a single scalar incumbent).
RNG draw order per generation is frozen: proposal Gaussians first,
then one acceptance uniform (drawn unconditionally).
"""

import numpy as np

from .base import BoxMap, register, uniform_init

__all__ = []

_NSA_SIGMA_FLOOR = 1.0e-3


def _metropolis_accept(delta, temp, boltzmann, u):
    if delta <= 0.0:
        return True
    return u < np.exp(-delta / (boltzmann * temp))


@register("simulated_annealing", n_init=lambda cfg: cfg["NP"])
def simulated_annealing(tracker, config, rng):
    np_ = config["NP"]
    sigma = config["sigma_init"]
    temp = config["temp_init"]
    box = BoxMap(tracker.bounds)
    d = tracker.d

    start = rng.random((np_, d))
    fit = tracker.penalized_batch(box.to_real(start))
    i = int(np.argmin(fit))
    cur, cur_f = start[i], float(fit[i])

    while True:
        prop = np.clip(cur + sigma * rng.standard_normal((np_, d)), 0.0, 1.0)
        u = rng.random()
        fit = tracker.penalized_batch(box.to_real(prop))
        i = int(np.argmin(fit))
        if _metropolis_accept(float(fit[i]) - cur_f, temp,
                              config["boltzmann_const"], u):
            cur, cur_f = prop[i], float(fit[i])
        sigma = max(sigma * config["sigma_decay"], config["sigma_limit"])
        temp = max(temp * config["temp_decay"], config["temp_limit"])


@register("nsa", n_init=lambda cfg: cfg["n_samples"])
def nsa(tracker, config, rng):
    n = config["n_samples"]
    sigma0 = config["sigma"]
    rt = config["rt"]
    schedule = config["schedule"]
    box = BoxMap(tracker.bounds)
    d = tracker.d
    n_levels = max(1, tracker.fe_budget // n)

    start = rng.random((n, d))
    fit = tracker.penalized_batch(box.to_real(start))
    i = int(np.argmin(fit))
    cur, cur_f = start[i], float(fit[i])

    level = 0
    while True:
        frac = min(1.0, level / n_levels)
        factor = (1.0 - frac) if schedule == "linear" else (1.0 - frac) ** 2
        sigma = max(sigma0 * factor, sigma0 * _NSA_SIGMA_FLOOR)
        temp = rt**level

        prop = np.clip(cur + sigma * rng.standard_normal((n, d)), 0.0, 1.0)
        u = rng.random()
        fit = tracker.penalized_batch(box.to_real(prop))
        i = int(np.argmin(fit))
        if _metropolis_accept(float(fit[i]) - cur_f, temp, 1.0, u):
            cur, cur_f = prop[i], float(fit[i])
        level += 1


@register("dual_annealing", n_init=lambda cfg: 1)
def dual_annealing(tracker, config, rng):
    # imported on first use: scipy.optimize is slow to import
    from scipy.optimize import dual_annealing as _scipy_dual_annealing

    bounds = [(float(lo), float(hi)) for lo, hi in tracker.bounds]
    x0 = uniform_init(rng, tracker.bounds, 1)[0]
    sp_seed = int(rng.integers(0, 2**31 - 1))

    def gradient_map(fun, points):
        # L-BFGS-B maps its objective over the d forward-difference
        # points of one gradient; evaluate them as one tracker batch
        return tracker.penalized_batch(np.array(list(points)))

    # scipy's default local search, written out because passing
    # minimizer_kwargs drops it, plus the batched gradient map
    local_search = {
        "method": "L-BFGS-B",
        "bounds": bounds,
        "options": {"maxiter": min(max(6 * tracker.d, 100), 1000),
                    "workers": gradient_map},
    }
    _scipy_dual_annealing(
        tracker.penalized,
        bounds=bounds,
        maxfun=tracker.remaining,
        maxiter=10**6,
        seed=sp_seed,
        x0=x0,
        initial_temp=config["initial_temp"],
        visit=config["visit"],
        restart_temp_ratio=config["restart_temp_ratio"],
        minimizer_kwargs=local_search,
    )
