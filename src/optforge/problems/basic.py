"""Library of basic test functions for synthetic problem construction.

Each function is vectorized over rows: it maps an ``(n, d)`` array of
points to an ``(n,)`` array of values.  All functions attain their
global minimum value 0 at ``x = x_opt * ones(d)`` on the canonical
domain ``[lo, hi]^d`` (Schwefel up to a small numerical constant).

Weierstrass reduces each phase ``3^k (z_i + 0.5)`` modulo one cycle
exactly, in int64 arithmetic, before taking its cosine.  On composition
boxes these phases reach 1e13 cycles; as plain floats they keep few
bits of their fraction, and ``cos`` of them is several times slower
than on a reduced argument.

Katsuura and Weierstrass hold one float per (row, coordinate, term),
with 32 and 21 terms: up to 2.6 MB per temporary for 200 rows at
d = 50, the size of a large population.  So both run over consecutive
row blocks whose temporaries hold at most ``_BLOCK_ELEMENTS``
elements, and their memory stays bounded at any batch size.  Every
step in them is elementwise or reduces along the last axis, so a row's
value does not depend on which rows share its block: blocked values
are bit-identical to whole-batch ones.

The registry :data:`BASIC_FUNCTIONS` indexes functions by name; the
ordered tuple :data:`BASIC_NAMES` fixes the integer ids used when
sampling functions during synthesis.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["BASIC_FUNCTIONS", "BASIC_NAMES"]


@lru_cache(maxsize=None)
def _index(d):
    """Read-only ``[1., 2., ..., d]``, built once per dimension."""
    i = np.arange(1, d + 1, dtype=float)
    i.setflags(write=False)
    return i


@lru_cache(maxsize=None)
def _sqrt_index(d):
    """Read-only ``sqrt([1., 2., ..., d])``, built once per dimension."""
    r = np.sqrt(_index(d))
    r.setflags(write=False)
    return r


def sphere(z):
    """Sum of squares.

    f(z) = sum_i z_i^2
    """
    z = np.asarray(z, dtype=float)
    return (z**2).sum(axis=-1)


def rastrigin(z):
    """Highly multimodal with a regular grid of local minima.

    f(z) = sum_i (z_i^2 - 10 cos(2 pi z_i) + 10)
    """
    z = np.asarray(z, dtype=float)
    return (z**2 - 10.0 * np.cos(2.0 * np.pi * z) + 10.0).sum(axis=-1)


def ackley(z):
    """Nearly flat outer region with a central funnel.

    f(z) = -20 exp(-0.2 sqrt(mean(z^2))) - exp(mean(cos(2 pi z))) + 20 + e
    """
    z = np.asarray(z, dtype=float)
    d = z.shape[-1]
    a = -20.0 * np.exp(-0.2 * np.sqrt((z**2).sum(axis=-1) / d))
    b = -np.exp(np.cos(2.0 * np.pi * z).sum(axis=-1) / d)
    return a + b + 20.0 + np.e


def rosenbrock(z):
    """Curved narrow valley; optimum at all-ones.

    f(z) = sum_{i<d} (100 (z_{i+1} - z_i^2)^2 + (1 - z_i)^2)

    For d = 1 the sum is empty and the function is identically 0.
    """
    z = np.asarray(z, dtype=float)
    a = z[..., :-1]
    b = z[..., 1:]
    return (100.0 * (b - a**2) ** 2 + (1.0 - a) ** 2).sum(axis=-1)


def griewank(z):
    """Many widespread local minima on a quadratic bowl.

    f(z) = 1 + sum_i z_i^2 / 4000 - prod_i cos(z_i / sqrt(i))
    """
    z = np.asarray(z, dtype=float)
    return (
        1.0
        + (z**2).sum(axis=-1) / 4000.0
        - np.cos(z / _sqrt_index(z.shape[-1])).prod(axis=-1)
    )


_SCHWEFEL_C = 418.9828872724339
_SCHWEFEL_X = 420.9687474737558


def schwefel(z):
    """Deceptive landscape whose optimum sits far from the origin.

    f(z) = 418.9828872724339 d - sum_i z_i sin(sqrt(|z_i|))

    Minimum at z_i = 420.9687474737558 (value 0 up to ~1e-12 per dim).
    """
    z = np.asarray(z, dtype=float)
    d = z.shape[-1]
    return _SCHWEFEL_C * d - (z * np.sin(np.sqrt(np.abs(z)))).sum(axis=-1)


def bent_cigar(z):
    """Smooth ridge: one sensitive direction, the rest scaled by 1e6.

    f(z) = z_1^2 + 1e6 sum_{i>1} z_i^2
    """
    z = np.asarray(z, dtype=float)
    return z[..., 0] ** 2 + 1.0e6 * (z[..., 1:] ** 2).sum(axis=-1)


def levy(z):
    """Multimodal with sinusoidal ripples; optimum at all-ones.

    With w_i = 1 + (z_i - 1)/4:
    f(z) = sin^2(pi w_1)
           + sum_{i<d} (w_i - 1)^2 (1 + 10 sin^2(pi w_i + 1))
           + (w_d - 1)^2 (1 + sin^2(2 pi w_d))
    """
    z = np.asarray(z, dtype=float)
    w = 1.0 + (z - 1.0) / 4.0
    head = np.sin(np.pi * w[..., 0]) ** 2
    mid = (
        (w[..., :-1] - 1.0) ** 2
        * (1.0 + 10.0 * np.sin(np.pi * w[..., :-1] + 1.0) ** 2)
    ).sum(axis=-1)
    tail = (w[..., -1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * w[..., -1]) ** 2)
    return head + mid + tail


# largest (rows, d, terms) temporary of a blocked kernel: 256 KiB of float64
_BLOCK_ELEMENTS = 2**15


def _in_row_blocks(rows_fn, z, terms):
    """``rows_fn`` over consecutive row blocks of ``z``, each with
    ``rows * d * terms`` at most ``_BLOCK_ELEMENTS`` (one row at least);
    a batch that fits is one block."""
    z = np.asarray(z, dtype=float)
    n, d = z.shape
    rows = max(1, _BLOCK_ELEMENTS // (d * terms))
    if n <= rows:
        return rows_fn(z)
    out = np.empty(n)
    for start in range(0, n, rows):
        out[start:start + rows] = rows_fn(z[start:start + rows])
    return out


_K_POW2 = 2.0 ** np.arange(1, 33)


def katsuura(z):
    """Rugged fractal-like surface, non-separable product form.

    f(z) = (10 / d^2) prod_i (1 + i sum_{j=1}^{32} |2^j z_i - round(2^j z_i)| / 2^j)^(10 / d^1.2)
           - 10 / d^2
    """
    return _in_row_blocks(_katsuura_rows, z, _K_POW2.size)


def _katsuura_rows(z):
    d = z.shape[-1]
    # (..., d, 32) grid of |2^j z - round(2^j z)| / 2^j, built in place
    t = z[..., :, None] * _K_POW2
    t -= np.rint(t)
    np.abs(t, out=t)
    t /= _K_POW2
    s = t.sum(axis=-1)
    prod = ((1.0 + _index(d) * s) ** (10.0 / d**1.2)).prod(axis=-1)
    return (10.0 / d**2) * prod - 10.0 / d**2


def happycat(z):
    """Ridge between sphere-like and linear terms; optimum at all-minus-ones.

    f(z) = |sum(z^2) - d|^(1/4) + (0.5 sum(z^2) + sum(z)) / d + 0.5
    """
    z = np.asarray(z, dtype=float)
    d = z.shape[-1]
    r2 = (z**2).sum(axis=-1)
    return (
        np.abs(r2 - d) ** 0.25 + (0.5 * r2 + z.sum(axis=-1)) / d + 0.5
    )


def discus(z):
    """Smooth ridge, transposed sensitivity of the cigar.

    f(z) = 1e6 z_1^2 + sum_{i>1} z_i^2
    """
    z = np.asarray(z, dtype=float)
    return 1.0e6 * z[..., 0] ** 2 + (z[..., 1:] ** 2).sum(axis=-1)


_W_KMAX = 20
_W_AK = 0.5 ** np.arange(_W_KMAX + 1, dtype=float)
# 4 b^k: with phases quantized to 2^-62 cycle, the int64 product q 4 b^k
# wraps mod 2^64 to the phase mod one cycle in 2^-64 cycle units, centered
_W_4BK = 4 * 3 ** np.arange(_W_KMAX + 1, dtype=np.int64)
_W_QUANTUM = 2.0**62
_W_RAD_PER_UNIT = 2.0 * np.pi / 2.0**64
# the constant term: cos(pi b^k) = -1 for odd b
_W_CONST = -np.sum(_W_AK)


def weierstrass(z):
    """Continuous everywhere, differentiable nowhere.

    With a = 0.5, b = 3, kmax = 20:
    f(z) = sum_i sum_k a^k cos(2 pi b^k (z_i + 0.5))
           - d sum_k a^k cos(pi b^k)

    The phases b^k (z_i + 0.5) reach 1e13 cycles on the composition
    boxes, where a float phase keeps few bits of its fraction and
    ``cos`` is slow.  Each phase is reduced modulo one cycle exactly
    instead.  With y = z_i + 0.5, u = y - round(y) is exact, and
    q = round(u 2^62) is u in units of 2^-62 cycle (exact unless
    |u| < 2^-10).  The int64 product q 4 b^k wraps mod 2^64, which
    leaves b^k u mod 1 in units of 2^-64 cycle, in [-2^63, 2^63); so
    ``cos`` only sees arguments in [-pi, pi).  Since cos(pi b^k) = -1,
    the constant term is -d sum_k a^k, and f(0) is exactly 0.
    """
    return _in_row_blocks(_weierstrass_rows, z, _W_4BK.size)


def _weierstrass_rows(z):
    d = z.shape[-1]
    u = z + 0.5
    u -= np.rint(u)
    q = np.rint(u * _W_QUANTUM).astype(np.int64)
    terms = (q[..., :, None] * _W_4BK) * _W_RAD_PER_UNIT
    np.cos(terms, out=terms)
    terms *= _W_AK
    inner = terms.sum(axis=-1)
    # the int64 cast turns NaN (from NaN or inf z) into some phase;
    # adding 0 u keeps those rows NaN, as cos alone would
    inner += 0.0 * u
    return inner.sum(axis=-1) - d * _W_CONST


@dataclass(frozen=True)
class BasicFunction:
    """A basic test function plus the metadata synthesis needs.

    Attributes
    ----------
    name : str
        Registry key.
    fn : callable
        Vectorized evaluator mapping ``(n, d) -> (n,)``.
    domain : tuple of float
        Canonical per-dimension bounds ``(lo, hi)``.
    x_opt : float
        Coordinate of the global minimizer (same in every dimension),
        where every function here takes its minimum value 0.
    """

    name: str
    fn: callable
    domain: tuple
    x_opt: float

    def __call__(self, z):
        return self.fn(z)


def _bf(name, fn, lo, hi, x_opt):
    return BasicFunction(name, fn, (float(lo), float(hi)), float(x_opt))


BASIC_FUNCTIONS = {
    b.name: b
    for b in [
        _bf("sphere", sphere, -100, 100, 0.0),
        _bf("rastrigin", rastrigin, -5.12, 5.12, 0.0),
        _bf("ackley", ackley, -32.768, 32.768, 0.0),
        _bf("rosenbrock", rosenbrock, -30, 30, 1.0),
        _bf("griewank", griewank, -600, 600, 0.0),
        _bf("schwefel", schwefel, -500, 500, _SCHWEFEL_X),
        _bf("bent_cigar", bent_cigar, -100, 100, 0.0),
        _bf("levy", levy, -10, 10, 1.0),
        _bf("katsuura", katsuura, -100, 100, 0.0),
        _bf("happycat", happycat, -2, 2, -1.0),
        _bf("discus", discus, -100, 100, 0.0),
        _bf("weierstrass", weierstrass, -0.5, 0.5, 0.0),
    ]
}

# fixed ordering: integer function ids drawn during synthesis index this
BASIC_NAMES = tuple(BASIC_FUNCTIONS)
