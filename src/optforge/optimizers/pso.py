"""Particle swarm optimization with global-best topology.

Constriction-style constant inertia w = 0.7298 (Clerc's constriction
value, a documented fixed internal -- the grid only tunes swarm size
and the two acceleration coefficients).  Velocities are clamped to half
the box width per dimension; positions are clipped to the box and a
clipped coordinate has its velocity zeroed.
"""

import numpy as np

from .base import register, rule_argmin, rule_le, uniform_init

__all__ = []

_INERTIA = 0.7298


@register("vanilla_pso", n_init=lambda cfg: cfg["NP"])
def vanilla_pso(tracker, config, rng):
    np_ = config["NP"]
    phi_1 = config["phi_1"]
    phi_2 = config["phi_2"]
    lo = tracker.bounds[:, 0]
    hi = tracker.bounds[:, 1]
    vmax = 0.5 * (hi - lo)

    pos = uniform_init(rng, tracker.bounds, np_)
    vel = rng.uniform(-vmax, vmax, pos.shape)
    fit, viol = yield pos

    pbest = pos.copy()
    pfit = fit.copy()
    pviol = viol.copy()

    while True:
        g = rule_argmin(pfit, pviol)
        r1 = rng.random(pos.shape)
        r2 = rng.random(pos.shape)
        vel = (
            _INERTIA * vel
            + phi_1 * r1 * (pbest - pos)
            + phi_2 * r2 * (pbest[g] - pos)
        )
        vel = np.clip(vel, -vmax, vmax)
        pos = pos + vel
        clipped = (pos < lo) | (pos > hi)
        pos = np.clip(pos, lo, hi)
        vel = np.where(clipped, 0.0, vel)

        fit, viol = yield pos
        better = rule_le(fit, viol, pfit, pviol)
        pbest = np.where(better[:, None], pos, pbest)
        pfit = np.where(better, fit, pfit)
        pviol = np.where(better, viol, pviol)
