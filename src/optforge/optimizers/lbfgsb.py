"""L-BFGS-B through scipy's compiled ``setulb``, without ``scipy.optimize``.

:func:`minimize_lbfgsb` is the loop of scipy 1.17.1's
``_minimize_lbfgsb`` (``scipy/optimize/_lbfgsb_py.py``) with its default
options and finite bounds on every coordinate, together with the part of
``ScalarFunction`` that loop relies on: one evaluation at the start
point when the search starts, and a new evaluation only at a point that
differs from the last one evaluated.  It evaluates the points scipy's
``minimize(method="L-BFGS-B", jac=...)`` would, in the same order, and
ends on the same x and f.  It is a generator, so that many searches can
wait on one batched evaluation: ``setulb`` keeps all of a search's
state in the arrays passed to it, so searches may be stepped in any
interleaving.

``setulb`` lives in the extension module ``scipy.optimize._lbfgsb``.
Importing it by name runs ``scipy/optimize/__init__.py``, which costs
about half a second and 40 MB, so it is loaded from its file in the
installed scipy package instead, on first use.  No other scipy module
loads.  ``setulb`` is private to scipy; a test pins its signature.
"""

import functools
import importlib.machinery
import importlib.util
import os

import numpy as np

__all__ = ["load_lbfgsb", "minimize_lbfgsb"]

_MODULE = "scipy.optimize._lbfgsb"

# _minimize_lbfgsb's defaults: maxcor, ftol / eps, gtol and maxls
_M = 10
_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_PGTOL = 1.0e-5
_MAXLS = 20


def load_lbfgsb(optimize_dir):
    """The ``_lbfgsb`` extension module in ``optimize_dir``, loaded from
    its file.  Raises ``ImportError`` when the directory holds none."""
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(optimize_dir, "_lbfgsb" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(_MODULE, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(_MODULE, loader))
            loader.exec_module(module)
            return module
    raise ImportError(f"no compiled _lbfgsb module in {optimize_dir}")


@functools.cache
def _setulb():
    # find_spec locates a top-level package without importing it
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed")
    return load_lbfgsb(
        os.path.join(spec.submodule_search_locations[0], "optimize")).setulb


def minimize_lbfgsb(fun_and_grad, x0, lower, upper, maxiter, maxfun):
    """Minimize from ``x0`` in the box ``[lower, upper]`` (contiguous
    float arrays).

    A generator: ``fun_and_grad(x)`` is a generator too, whose return
    value is ``(f, g)`` at x, and the search yields what it yields and
    is sent what it is sent.  Stops where scipy stops: on convergence,
    after ``maxiter`` iterations, or at the end of the iteration in
    which more than ``maxfun`` points were evaluated.  Returns the final
    ``(x, f)``.
    """
    setulb = _setulb()
    n = x0.size
    x = np.clip(x0, lower, upper)
    x_f = x.copy()  # the point last evaluated
    f_x, g_x = yield from fun_and_grad(x_f)
    nfev = 1

    nbd = np.full(n, 2, np.int32)  # both bounds finite
    f = np.array(0.0)
    g = np.zeros(n)
    wa = np.zeros(2 * _M * n + 5 * n + 11 * _M * _M + 8 * _M)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29)
    n_iterations = 0
    while True:
        g = g.astype(np.float64)  # setulb gets a copy, as in scipy
        setulb(_M, x, lower, upper, nbd, f, g, _FACTR, _PGTOL, wa, iwa,
               task, lsave, isave, dsave, _MAXLS, ln_task)
        if task[0] == 3:  # wants f and g at x
            if not np.array_equal(x, x_f):
                x_f = x.copy()
                f_x, g_x = yield from fun_and_grad(x_f)
                nfev += 1
            f, g = f_x, g_x
        elif task[0] == 1:  # a new iteration
            n_iterations += 1
            if n_iterations >= maxiter:
                task[:] = 5, 504
            elif nfev > maxfun:
                task[:] = 5, 502
        else:
            return x, f
