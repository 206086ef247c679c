"""Constraint templates attached to constrained problem instances.

All templates operate on centered coordinates ``y = x - center``.
Inequalities follow the ``g(x) <= 0`` convention; equalities ``h(x) = 0``
count as satisfied when ``|h(x)| <= EPS_EQ``.  The per-point violation
is ``sum(max(0, g_i)) + sum(max(0, |h_j| - EPS_EQ))``.

Every inequality template is feasible at its center by construction;
the equality templates ``cumsum_zero`` and ``chain_zero`` are satisfied
there too, while ``product`` (prod(y) = c) defines a thin manifold away
from the center.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EPS_EQ",
    "CONSTRAINT_TEMPLATES",
    "ConstraintSpec",
    "constraint_values",
    "draw_constraint",
]

EPS_EQ = 1.0e-4

# each template: whether it is an equality, and its parameter names, the
# last of which is the scalar offset it subtracts (``ball`` its square)
_TEMPLATES = {
    "linear": (False, ("a", "b")),
    "ball": (False, ("radius",)),
    "cumsum_zero": (True, ()),
    "chain_zero": (True, ()),
    "product": (True, ("c",)),
    "sinusoid": (False, ("b",)),
}

# draw order for sampling templates without replacement
CONSTRAINT_TEMPLATES = tuple(_TEMPLATES)


@dataclass(frozen=True)
class ConstraintSpec:
    """One constraint: a template name, a center shift and parameters.

    ``params`` holds pure-python scalars/lists so the spec serializes
    verbatim, under exactly the template's parameter names; ``linear``'s
    weights are also kept as an array, built once.
    """

    kind: str
    center: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _TEMPLATES:
            raise ValueError(f"unknown constraint template {self.kind!r}")
        names = _TEMPLATES[self.kind][1]
        if set(self.params) != set(names):
            raise ValueError(
                f"{self.kind} constraint takes parameters {list(names)}, "
                f"got {sorted(self.params)}")
        c = np.array(self.center, dtype=float)
        if c.ndim != 1:
            raise ValueError("constraint center must be 1-d")
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        if self.kind == "linear":
            a = self.params["a"]
            if len(a) != c.shape[0]:
                raise ValueError("linear constraint needs weights 'a' of length d")
            if self.params["b"] < 0.0:
                raise ValueError("linear constraint offset 'b' must be >= 0")
            w = np.array(a, dtype=float)
            w.setflags(write=False)
            object.__setattr__(self, "_weights", w)
        if self.kind == "ball" and self.params["radius"] <= 0.0:
            raise ValueError("ball constraint needs radius > 0")

    @property
    def is_equality(self):
        return _TEMPLATES[self.kind][0]

    @property
    def offset(self):
        """The template's offset parameter, or None for a template
        without one."""
        names = _TEMPLATES[self.kind][1]
        return self.params[names[-1]] if names else None

    @property
    def d(self):
        return self.center.shape[0]


def constraint_values(spec, x):
    """Evaluate one constraint at a batch of points.

    Parameters
    ----------
    spec : ConstraintSpec
    x : ndarray of shape (n, d)

    Returns
    -------
    ndarray of shape (n,)
        ``g(x)`` for inequalities (satisfied when <= 0) or ``h(x)`` for
        equalities (satisfied when ``|h| <= EPS_EQ``).
    """
    x = np.asarray(x, dtype=float)
    y = x - spec.center
    kind = spec.kind
    if kind == "linear":
        # a dot product per row: the bits of a row do not depend on the batch
        return np.vecdot(y, spec._weights) - spec.params["b"]
    if kind == "ball":
        r = spec.params["radius"]
        return (y**2).sum(axis=-1) - r**2
    if kind == "cumsum_zero":
        return (np.add.accumulate(y, axis=-1) ** 2).sum(axis=-1)
    if kind == "chain_zero":
        return ((y[..., :-1] ** 2 - y[..., 1:]) ** 2).sum(axis=-1)
    if kind == "product":
        return y.prod(axis=-1) - spec.params["c"]
    if kind == "sinusoid":
        return np.sin(y).sum(axis=-1) - spec.params["b"]
    raise ValueError(f"unknown constraint template {kind!r}")  # pragma: no cover


def draw_constraint(kind, bounds, rng):
    """Sample one constraint of the given template inside a box.

    The center is drawn from the middle half of the box
    (``U(0.5 lo, 0.5 hi)`` per dimension); template parameters follow in
    a fixed order so the stream is reproducible.
    """
    bounds = np.asarray(bounds, dtype=float)
    d = bounds.shape[0]
    lo, hi = bounds[:, 0], bounds[:, 1]
    center = rng.uniform(0.5 * lo, 0.5 * hi)
    params = {}
    if kind == "linear":
        params["a"] = [float(v) for v in rng.uniform(-1.0, 1.0, d)]
        params["b"] = float(rng.uniform(0.0, 1.0))
    elif kind == "ball":
        half = np.min((hi - lo) / 2.0)
        params["radius"] = float(rng.uniform(0.25, 0.75) * half)
    elif kind == "product":
        params["c"] = float(rng.uniform(-1.0, 1.0))
    elif kind == "sinusoid":
        params["b"] = float(rng.uniform(0.0, d))
    return ConstraintSpec(kind=kind, center=center, params=params)
