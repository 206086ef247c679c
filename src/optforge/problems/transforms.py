"""Rotation/shift transforms applied to basic functions.

A component evaluates its basic function at ``z = M^T (x - o)`` where
``M`` is orthogonal and ``o`` is the shift (new optimum location in the
component's coordinates).  Identity transforms are stored explicitly so
serialization stays uniform.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["TransformSpec", "make_rotation", "ORTHO_TOL"]

ORTHO_TOL = 1.0e-9


def make_rotation(d, rng):
    """Random orthogonal ``(d, d)`` matrix, uniform w.r.t. Haar measure.

    QR-decomposes a standard Gaussian matrix drawn from ``rng`` and
    fixes the signs so the diagonal of R is positive, which makes the
    distribution Haar and the result independent of LAPACK sign
    conventions.  ``np.random.default_rng(seed)`` gives a seeded matrix.

    Parameters
    ----------
    d : int
        Dimension, >= 1.
    rng : numpy.random.Generator
        The generator to draw from, in place.

    Returns
    -------
    ndarray of shape (d, d)
    """
    if d < 1:
        raise ValueError(f"rotation dimension must be >= 1, got {d}")
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    return q


@dataclass(frozen=True)
class TransformSpec:
    """Orthogonal rotation plus shift for one component.

    ``rotation`` is (d, d) with ``max|M^T M - I| <= 1e-9`` and
    ``|det M| = 1`` to the same tolerance; ``shift`` is (d,).
    Both arrays are stored read-only.
    """

    rotation: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        rot = np.array(self.rotation, dtype=float)
        sh = np.array(self.shift, dtype=float)
        if rot.ndim != 2 or rot.shape[0] != rot.shape[1]:
            raise ValueError(f"rotation must be square, got shape {rot.shape}")
        d = rot.shape[0]
        if sh.shape != (d,):
            raise ValueError(
                f"shift shape {sh.shape} does not match rotation dim {d}"
            )
        err = np.max(np.abs(rot.T @ rot - np.eye(d)))
        if err > ORTHO_TOL:
            raise ValueError(f"rotation is not orthogonal: max|M^T M - I| = {err:.3g}")
        det = abs(np.linalg.det(rot))
        if abs(det - 1.0) > ORTHO_TOL:
            raise ValueError(f"rotation determinant |det| = {det:.12g} != 1")
        rot.setflags(write=False)
        sh.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "shift", sh)

    @property
    def d(self):
        return self.rotation.shape[0]

    def apply(self, x):
        """Map points into component coordinates: ``z = M^T (x - o)``.

        Each row is a product of its own (``vecmat``) on a unit-stride
        row, so its bits do not depend on the other rows of the batch, as
        a matrix product's may.  A hybrid segment ``x[:, seg]`` comes in
        column-major, where a row's stride would be the batch size."""
        return np.vecmat(np.subtract(x, self.shift, order="C"),
                         self.rotation)
