"""The ``dual_annealing`` the benchmark runs: a port of scipy's loop.

:func:`optforge.optimizers.annealing.dual_annealing` calls scipy's
``dual_annealing``; answer programs ship that short call.  Importing
``scipy.optimize`` costs every bench process about half a second and
40 MB, so the bench runs this port of the parts of scipy 1.17.1's
``scipy/optimize/_dual_annealing.py`` that call uses instead:
``VisitingDistribution``, ``EnergyState``, ``StrategyChain`` and
``LocalSearchWrapper``, the outer temperature loop and the
``nfev``/``maxfun`` accounting.  The local search is
:func:`~optforge.optimizers.lbfgsb.minimize_lbfgsb` with the scipy
call's gradient and options.  The port is a generator: it yields each
batch of points it wants evaluated and is sent their ``(f,
violation)``, so that the bench can evaluate the asks of many runs on
one instance in one call (see :class:`~optforge.optimizers.base.Lockstep`).
The port draws from a ``numpy.random.RandomState`` in scipy's order
and does scipy's floating point operations on arrays of the same
shapes, so it evaluates the points the scipy call evaluates, in the
same order; tests hold the two to that.  Two changes keep the bits
and save time: the visit scale that depends on the temperature alone
is computed once per chain, not once per visit, and a one-coordinate
visit wraps into the box on Python floats, where scipy uses numpy
scalars.

What the call never reaches is left out: a callback, ``no_local_search``
and the local search scipy starts by chance, which needs
``K < 90 d`` while ``K`` stays 100 d.  No array is changed in place
once another name holds it, so none of scipy's defensive copies is
needed.
"""

import math

import numpy as np

from .annealing import _FD_STEP
from .base import PENALTY_COEFF, uniform_init
from .lbfgsb import minimize_lbfgsb

__all__ = []

_MAXITER = 10**6  # the scipy call's outer iteration cap
_ACCEPT = -5.0  # scipy's default acceptance parameter
_TAIL_LIMIT = 1.0e8
_MIN_VISIT_BOUND = 1.0e-10
_MAX_REINIT_COUNT = 1000

# scipy.special.gammaln(2 - (1 / (visit - 1) - 0.5)) for every grid
# value of visit; math.lgamma differs in the last bits
_GAMMALN_D1 = {
    1.62: float.fromhex("0x1.386fbc9485990p-4"),
    2.62: float.fromhex("-0x1.70f23f9f9b200p-5"),
    3.62: float.fromhex("0x1.bde5cd820c453p-5"),
}


class _VisitingDistribution:
    """scipy's distorted Cauchy-Lorentz visiting distribution."""

    def __init__(self, lower, upper, visit, rs):
        self.visit = visit
        self.rs = rs
        self.lower = lower
        self.bound_range = upper - lower
        factor2 = np.exp((4.0 - visit) * np.log(visit - 1.0))
        factor3 = np.exp((2.0 - visit) * np.log(2.0) / (visit - 1.0))
        self.factor4_p = np.sqrt(np.pi) * factor2 / (factor3 * (3.0 - visit))
        factor5 = 1.0 / (visit - 1.0) - 0.5
        self.factor6 = np.pi * (1.0 - factor5) / np.sin(
            np.pi * (1.0 - factor5)) / np.exp(_GAMMALN_D1[visit])

    def scale(self, temperature):
        """scipy's sigmax factor at ``temperature``, which it computes
        again for every visit."""
        q = self.visit
        factor1 = np.exp(np.log(temperature) / (q - 1.0))
        factor4 = self.factor4_p * factor1
        return np.exp(-(q - 1.0) * np.log(self.factor6 / factor4) / (3.0 - q))

    def visit_fn(self, scale, dim):
        q = self.visit
        x, y = self.rs.normal(size=(dim, 2)).T
        x *= scale
        den = np.exp((q - 1.0) * np.log(np.fabs(y)) / (3.0 - q))
        return x / den

    def visiting(self, x, step, scale):
        """All coordinates moved for the first d steps of a chain, then
        coordinate ``step - d`` alone, wrapped back into the box."""
        dim = x.size
        if step < dim:
            visits = self.visit_fn(scale, dim)
            upper_sample, lower_sample = self.rs.uniform(size=2)
            visits[visits > _TAIL_LIMIT] = _TAIL_LIMIT * upper_sample
            visits[visits < -_TAIL_LIMIT] = -_TAIL_LIMIT * lower_sample
            x_visit = visits + x
            a = x_visit - self.lower
            b = np.fmod(a, self.bound_range) + self.bound_range
            x_visit = np.fmod(b, self.bound_range) + self.lower
            near_lower = np.fabs(x_visit - self.lower) < _MIN_VISIT_BOUND
            x_visit[near_lower] += _MIN_VISIT_BOUND
            return x_visit
        visit = float(self.visit_fn(scale, 1)[0])
        if visit > _TAIL_LIMIT:
            visit = _TAIL_LIMIT * self.rs.uniform()
        elif visit < -_TAIL_LIMIT:
            visit = -_TAIL_LIMIT * self.rs.uniform()
        # scipy's numpy scalar steps on floats: +, -, fmod and abs are
        # exact or correctly rounded either way
        i = step - dim
        lo, width = float(self.lower[i]), float(self.bound_range[i])
        a = (visit + float(x[i])) - lo
        b = math.fmod(a, width) + width
        xi = math.fmod(b, width) + lo
        if abs(xi - lo) < _MIN_VISIT_BOUND:
            xi += _MIN_VISIT_BOUND
        x_visit = x.copy()
        x_visit[i] = xi
        return x_visit


class _Annealer:
    """scipy's ``EnergyState``, ``StrategyChain``, ``LocalSearchWrapper``
    and objective counter in one object.  Every method that evaluates is
    a generator that yields the points and is sent their ``(f,
    violation)``; each step returns True where scipy's returns a stop
    message."""

    def __init__(self, bounds, maxfun, config, rs):
        self.config = config
        self.rs = rs
        self.lower = np.ascontiguousarray(bounds[:, 0])
        self.upper = np.ascontiguousarray(bounds[:, 1])
        d = len(bounds)
        self.ls_maxiter = min(max(6 * d, 100), 1000)
        self.ls_maxfun = 15000 // (d + 1)
        self.nfev = 0
        self.maxfun = maxfun
        self.ebest = self.xbest = None
        self.visiting = _VisitingDistribution(self.lower, self.upper,
                                              config["visit"], rs)
        self.not_improved_idx = 0
        self.not_improved_max_idx = 1000
        self.temperature_step = 0
        self.improved = False

    def fun(self, x):
        """The penalized objective at the point ``x``."""
        self.nfev += 1
        f, viol = yield x[None]
        return float(f[0] + PENALTY_COEFF * viol[0])

    def fun_and_grad(self, x):
        # the scipy call's gradient: steps of 1e-8, negated where
        # x + 1e-8 passes the upper bound, the d points as one batch
        f = yield from self.fun(x)
        x_step = x + np.where(x + _FD_STEP > self.upper, -_FD_STEP, _FD_STEP)
        points = np.repeat(x[None], x.size, axis=0)
        np.fill_diagonal(points, x_step)
        f_step, viol = yield points
        return f, (f_step + PENALTY_COEFF * viol - f) / (x_step - x)

    def reset(self, x0=None):
        """Start at ``x0``, or at a uniform draw; redraw while the
        energy there is not finite."""
        location = (self.rs.uniform(self.lower, self.upper,
                                    size=len(self.lower))
                    if x0 is None else x0)
        for reinit in range(_MAX_REINIT_COUNT + 1):
            energy = yield from self.fun(location)
            finite = np.isfinite(energy)
            if not finite:
                if reinit == _MAX_REINIT_COUNT:
                    raise ValueError(
                        "Stopping algorithm because function create NaN or "
                        "(+/-) infinity values even with trying new random "
                        "parameters")
                location = self.rs.uniform(self.lower, self.upper,
                                           size=self.lower.size)
            if self.ebest is None:
                # as in scipy: the first energy, with the location drawn
                # after it when that energy is not finite
                self.ebest, self.xbest = energy, location
            if finite:
                break
        self.current_energy, self.current_location = energy, location

    def chain(self, step, temperature):
        """One strategy chain of 2 d visits at ``temperature``."""
        self.temperature_step = temperature / float(step + 1)
        self.not_improved_idx += 1
        self.improved = step == 0
        scale = self.visiting.scale(temperature)
        for j in range(self.current_location.size * 2):
            x_visit = self.visiting.visiting(self.current_location, j, scale)
            e = yield from self.fun(x_visit)
            if e < self.current_energy:
                self.current_energy, self.current_location = e, x_visit
                if e < self.ebest:
                    self.ebest, self.xbest = e, x_visit
                    self.improved = True
                    self.not_improved_idx = 0
            else:
                self.accept_reject(j, e, x_visit)
            if self.nfev >= self.maxfun:
                return True
        return False

    def accept_reject(self, j, e, x_visit):
        r = self.rs.uniform()
        pqv_temp = 1.0 - ((1.0 - _ACCEPT) * (e - self.current_energy)
                          / self.temperature_step)
        if pqv_temp <= 0.:
            pqv = 0.
        else:
            pqv = np.exp(np.log(pqv_temp) / (1. - _ACCEPT))
        if r <= pqv:
            self.current_energy, self.current_location = e, x_visit
            self.xmin = x_visit
        if self.not_improved_idx >= self.not_improved_max_idx:
            if j == 0 or self.current_energy < self.emin:
                self.emin = self.current_energy
                self.xmin = self.current_location

    def local_search(self):
        """The local searches after a chain: from the best point if the
        chain improved on it, and from the chain's minimum after too
        long without improvement."""
        if self.improved:
            e, x = yield from self.minimize(self.xbest, self.ebest)
            if e < self.ebest:
                self.not_improved_idx = 0
                self.ebest, self.xbest = e, x
                self.current_energy, self.current_location = e, x
            if self.nfev >= self.maxfun:
                return True
        if self.not_improved_idx >= self.not_improved_max_idx:
            e, x = yield from self.minimize(self.xmin, self.emin)
            self.xmin, self.emin = x, e
            self.not_improved_idx = 0
            self.not_improved_max_idx = self.current_location.size
            if e < self.ebest:
                self.ebest, self.xbest = e, x
                self.current_energy, self.current_location = e, x
            if self.nfev >= self.maxfun:
                return True
        return False

    def minimize(self, x, e):
        """L-BFGS-B from ``x``; its end point if valid and better than
        ``e``, else ``(e, x)``."""
        x_ls, f_ls = yield from minimize_lbfgsb(
            self.fun_and_grad, x, self.lower, self.upper, self.ls_maxiter,
            self.ls_maxfun)
        if (np.all(np.isfinite(x_ls)) and np.isfinite(f_ls)
                and np.all(x_ls >= self.lower) and np.all(x_ls <= self.upper)
                and f_ls < e):
            return f_ls, x_ls
        return e, x

    def run(self, x0):
        """scipy's outer loop from ``x0``: chains at falling
        temperatures, each followed by its local searches, re-annealing
        from a fresh draw once the temperature falls below the restart
        temperature."""
        yield from self.reset(x0)
        self.emin = self.current_energy
        self.xmin = self.current_location
        initial_temp = self.config["initial_temp"]
        visit = self.config["visit"]
        temperature_restart = initial_temp * self.config["restart_temp_ratio"]
        t1 = np.exp((visit - 1) * np.log(2.0)) - 1.0
        iteration = 0
        while True:
            for i in range(_MAXITER):
                s = float(i) + 2.0
                t2 = np.exp((visit - 1) * np.log(s)) - 1.0
                temperature = initial_temp * t1 / t2
                if iteration >= _MAXITER:
                    return
                if temperature < temperature_restart:
                    yield from self.reset()
                    break
                if ((yield from self.chain(i, temperature))
                        or (yield from self.local_search())):
                    return
                iteration += 1


def dual_annealing_port(tracker, config, rng):
    """Run ``dual_annealing`` as the scipy call does: a generator that
    yields the points to evaluate and is sent their ``(f, violation)``."""
    # the scipy call's box check and draws, in its order
    hi = tracker.bounds[:, 1]
    if (np.any(hi - tracker.bounds[:, 0] <= 2 * _FD_STEP)
            or np.any((tracker.bounds + _FD_STEP) - tracker.bounds == 0)):
        raise ValueError("box too narrow or too far from 0 for steps of 1e-8")
    x0 = uniform_init(rng, tracker.bounds, 1)[0]
    rs = np.random.RandomState(int(rng.integers(0, 2**31 - 1)))
    yield from _Annealer(tracker.bounds, tracker.remaining, config,
                         rs).run(x0)
