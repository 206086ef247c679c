"""Covariance matrix adaptation evolution strategies.

Two registry entries, both operating in the unit cube with clip repair
and penalized-objective ranking:

* ``sep_cma_es`` -- diagonal-covariance CMA-ES.  Keeping only the
  coordinate variances costs O(d) per update and allows the classic
  separable speed-up: the covariance learning rates are multiplied by
  (d + 2)/3.  The grid's ``c_c`` multiplies the base cumulation rate
  4/(d + 4), capped at 1.
* ``bipop_cma_es`` -- full-covariance CMA-ES wrapped in the two-regime
  restart schedule: after a run stops, the next restart is "large"
  (population grown by ``popsize_multiplier`` per large restart, full
  initial step size) or "small" (interpolated population, shrunk step
  size), whichever regime has consumed fewer evaluations so far.
  ``elite_ratio`` sets the parent count mu = max(1, floor(lambda *
  elite_ratio)); ``min_num_gens`` is the minimum generation count
  before a stall can stop a run.  The full initial step size is 1.0,
  the width of the unit cube.

Runs stop on stall, step-size collapse, or ill-conditioned covariance;
the surrounding restart loops only ever exit via budget exhaustion.
"""

import math

import numpy as np

from .base import BoxMap, penalized_ask, register

__all__ = []

_SIGMA_COLLAPSE = 1.0e-11
_COND_LIMIT = 1.0e14
_STALL_TOL = 1.0e-12


def _selection_weights(mu):
    w = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    w = w / w.sum()
    return w, 1.0 / np.sum(w**2)


def _chi_n(d):
    return math.sqrt(d) * (1.0 - 1.0 / (4.0 * d) + 1.0 / (21.0 * d * d))


@register("sep_cma_es", n_init=lambda cfg: cfg["n_individuals"])
def sep_cma_es(tracker, config, rng):
    lam = config["n_individuals"]
    d = tracker.d
    box = BoxMap(tracker.bounds)
    mu = lam // 2
    w, mu_eff = _selection_weights(mu)

    c_sigma = (mu_eff + 2.0) / (d + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (d + 1.0)) - 1.0) + c_sigma
    c_c = min(1.0, config["c_c"] * 4.0 / (d + 4.0))
    boost = (d + 2.0) / 3.0
    c_1 = min(1.0, boost * 2.0 / ((d + 1.3) ** 2 + mu_eff))
    c_mu = min(1.0 - c_1,
               boost * 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((d + 2.0) ** 2 + mu_eff))
    chi = _chi_n(d)

    while True:  # restart on collapse; leaves via BudgetExhausted
        m = rng.random(d)
        sigma = float(config["sigma"])
        c_diag = np.ones(d)
        p_s = np.zeros(d)
        p_c = np.zeros(d)
        gen = 0
        while True:
            s = np.sqrt(c_diag)
            z = rng.standard_normal((lam, d))
            y = z * s
            x = m + sigma * y
            fit = yield from penalized_ask(box.to_real(np.clip(x, 0.0, 1.0)))
            gen += 1
            sel = np.argsort(fit, kind="stable")[:mu]
            y_w = w @ y[sel]
            z_w = w @ z[sel]
            m = m + sigma * y_w

            p_s = (1.0 - c_sigma) * p_s + math.sqrt(
                c_sigma * (2.0 - c_sigma) * mu_eff) * z_w
            ps_norm = float(np.linalg.norm(p_s))
            hsig = ps_norm / math.sqrt(
                1.0 - (1.0 - c_sigma) ** (2 * gen)) < (1.4 + 2.0 / (d + 1.0)) * chi
            p_c = (1.0 - c_c) * p_c + hsig * math.sqrt(
                c_c * (2.0 - c_c) * mu_eff) * y_w
            c_diag = (
                (1.0 - c_1 - c_mu) * c_diag
                + c_1 * (p_c**2 + (1.0 - hsig) * c_c * (2.0 - c_c) * c_diag)
                + c_mu * (w @ (y[sel] ** 2))
            )
            c_diag = np.maximum(c_diag, 1.0e-20)
            sigma *= math.exp(min(1.0, (c_sigma / d_sigma) * (ps_norm / chi - 1.0)))

            if (sigma * math.sqrt(float(c_diag.max())) < _SIGMA_COLLAPSE
                    or sigma > 1.0e8
                    or not np.all(np.isfinite(m))):
                break  # restart


def _cma_full_run(box, d, lam, sigma, mu, min_gens, rng):
    """One full-covariance CMA run; returns on a stop condition."""
    w, mu_eff = _selection_weights(mu)
    c_sigma = (mu_eff + 2.0) / (d + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (d + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / d) / (d + 4.0 + 2.0 * mu_eff / d)
    c_1 = 2.0 / ((d + 1.3) ** 2 + mu_eff)
    c_mu = min(1.0 - c_1,
               2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((d + 2.0) ** 2 + mu_eff))
    chi = _chi_n(d)
    stall_limit = 10 + math.ceil(30.0 * d / lam)

    m = rng.random(d)
    cov = np.eye(d)
    p_s = np.zeros(d)
    p_c = np.zeros(d)
    gen = 0
    best = math.inf
    stall = 0
    while True:
        cov = (cov + cov.T) / 2.0
        eigval, eigvec = np.linalg.eigh(cov)
        eigval = np.clip(eigval, 1.0e-20, None)
        if eigval[-1] / eigval[0] > _COND_LIMIT:
            return
        if sigma * math.sqrt(float(eigval[-1])) < _SIGMA_COLLAPSE:
            return
        s = np.sqrt(eigval)
        sample_mat = eigvec * s  # columns scaled: A z ~ N(0, C)

        z = rng.standard_normal((lam, d))
        y = z @ sample_mat.T
        x = m + sigma * y
        fit = yield from penalized_ask(box.to_real(np.clip(x, 0.0, 1.0)))
        gen += 1
        order = np.argsort(fit, kind="stable")
        sel = order[:mu]
        y_w = w @ y[sel]
        m = m + sigma * y_w

        inv_sqrt_yw = eigvec @ ((eigvec.T @ y_w) / s)
        p_s = (1.0 - c_sigma) * p_s + math.sqrt(
            c_sigma * (2.0 - c_sigma) * mu_eff) * inv_sqrt_yw
        ps_norm = float(np.linalg.norm(p_s))
        hsig = ps_norm / math.sqrt(
            1.0 - (1.0 - c_sigma) ** (2 * gen)) < (1.4 + 2.0 / (d + 1.0)) * chi
        p_c = (1.0 - c_c) * p_c + hsig * math.sqrt(
            c_c * (2.0 - c_c) * mu_eff) * y_w

        rank1 = np.outer(p_c, p_c)
        rank_mu = (y[sel].T * w) @ y[sel]
        cov = (
            (1.0 - c_1 - c_mu) * cov
            + c_1 * (rank1 + (1.0 - hsig) * c_c * (2.0 - c_c) * cov)
            + c_mu * rank_mu
        )
        sigma *= math.exp(min(1.0, (c_sigma / d_sigma) * (ps_norm / chi - 1.0)))

        gen_best = float(fit[order[0]])
        if gen_best < best - _STALL_TOL * max(1.0, abs(best)):
            best = gen_best
            stall = 0
        else:
            stall += 1
        if gen >= min_gens and stall >= stall_limit:
            return
        if not (np.all(np.isfinite(m)) and math.isfinite(sigma)):
            return


@register("bipop_cma_es", n_init=lambda cfg: cfg["NP"])
def bipop_cma_es(tracker, config, rng):
    lam0 = config["NP"]
    ratio = config["elite_ratio"]
    min_gens = config["min_num_gens"]
    mult = config["popsize_multiplier"]
    d = tracker.d
    box = BoxMap(tracker.bounds)

    n_large = -1  # the first run is large, at lam0
    b_large = 0
    b_small = 0
    while True:  # leaves via BudgetExhausted
        if b_large <= b_small:
            n_large += 1
            lam_large = lam0 * mult**n_large
            lam, sigma, is_large = lam_large, 1.0, True
        else:
            u = float(rng.uniform())
            lam = max(2, int(lam0 * (lam_large / lam0) ** (u * u)))
            sigma = 10.0 ** (-2.0 * u)
            is_large = False
        mu = max(1, int(lam * ratio))
        fe_before = tracker.fe_used
        yield from _cma_full_run(box, d, lam, sigma, mu, min_gens, rng)
        spent = tracker.fe_used - fe_before
        if is_large:
            b_large += spent
        else:
            b_small += spent
