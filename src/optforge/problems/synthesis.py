"""Random generation of problem instances.

All randomness for one instance comes from a single seeded stream with
a frozen draw order (paradigm, function ids, weights/partition,
per-component rotation + shift, constraints), so an instance is fully
reproducible from ``(d, k, constrained, seed, fe_budget)`` alone.
:func:`synthesize_set` derives per-instance seeds from a master seed,
which keeps corpora stable when the set size changes.
"""

import numpy as np

from ..seeding import derive_seed, rng_for
from .basic import BASIC_FUNCTIONS, BASIC_NAMES
from .constraints import CONSTRAINT_TEMPLATES, draw_constraint
from .instance import ComponentSpec, ProblemInstance
from .transforms import TransformSpec, make_rotation

__all__ = ["synthesize_instance", "synthesize_set"]

# shift optima into the inner 80% of the box, as in shifted test suites
_SHIFT_FRACTION = 0.8


def _draw_transform(rng, bounds):
    """Rotation then shift for one component (order matters)."""
    d = bounds.shape[0]
    rot = make_rotation(d, rng)
    shift = rng.uniform(_SHIFT_FRACTION * bounds[:, 0],
                        _SHIFT_FRACTION * bounds[:, 1])
    return TransformSpec(rot, shift)


def synthesize_instance(d, k, constrained, seed, fe_budget=40000):
    """Generate one problem instance.

    Parameters
    ----------
    d : int
        Dimension, >= 1 (and >= k).
    k : int
        Number of basic-function components.
    constrained : bool
        Attach 1-3 randomly parameterized constraints.
    seed : int
        Seed of the instance's private stream.
    fe_budget : int
        Evaluation budget recorded on the instance.

    Returns
    -------
    ProblemInstance
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > d:
        raise ValueError(f"k = {k} components do not fit in d = {d} dimensions")
    rng = np.random.Generator(np.random.PCG64(seed))

    if k == 1:
        paradigm = "single"
    else:
        paradigm = "composition" if rng.integers(0, 2) == 0 else "hybrid"
    fn_ids = rng.integers(0, len(BASIC_NAMES), size=k)
    names = [BASIC_NAMES[i] for i in fn_ids]
    domains = [BASIC_FUNCTIONS[n].domain for n in names]

    components = []
    if paradigm == "hybrid":
        # every coordinate keeps the domain of the component that owns it
        perm = rng.permutation(d)
        cuts = np.sort(rng.choice(d - 1, size=k - 1, replace=False) + 1)
        segments = [np.sort(part) for part in np.split(perm, cuts)]
        bounds = np.empty((d, 2))
        for seg, (lo, hi) in zip(segments, domains):
            bounds[seg] = (lo, hi)
        for name, seg in zip(names, segments):
            tf = _draw_transform(rng, bounds[seg])
            components.append(
                ComponentSpec(basic=name, segment=tuple(int(i) for i in seg),
                              transform=tf)
            )
    else:
        # shared box: widest of the component domains
        lo = min(dom[0] for dom in domains)
        hi = max(dom[1] for dom in domains)
        bounds = np.tile([lo, hi], (d, 1)).astype(float)
        if paradigm == "single":
            weights = np.ones(1)
        else:
            weights = rng.uniform(0.0, 1.0, k)
        for name, w in zip(names, weights):
            tf = _draw_transform(rng, bounds)
            components.append(
                ComponentSpec(basic=name, weight=float(w), transform=tf)
            )

    constraints = []
    if constrained:
        n = int(rng.integers(1, 4))
        kind_ids = rng.choice(len(CONSTRAINT_TEMPLATES), size=n, replace=False)
        for kid in kind_ids:
            constraints.append(
                draw_constraint(CONSTRAINT_TEMPLATES[kid], bounds, rng)
            )

    return ProblemInstance(
        d=d, bounds=bounds, paradigm=paradigm, components=components,
        constraints=constraints, fe_budget=fe_budget, seed=seed,
    )


def synthesize_set(n_unconstrained, n_constrained, d_range=(2, 50),
                   k_range=(1, 5), master_seed=0, fe_budget=40000):
    """Generate a corpus: unconstrained instances first, then constrained.

    Per-instance shapes (d, k) and seeds come from independent derived
    streams keyed by the instance index, so instance i is identical no
    matter how many instances surround it.
    """
    for name, n in (("n_unconstrained", n_unconstrained),
                    ("n_constrained", n_constrained)):
        if n < 0:
            raise ValueError(f"{name} must be >= 0, got {n}")
    d_lo, d_hi = d_range
    k_lo, k_hi = k_range
    if d_lo < 1 or d_lo > d_hi:
        raise ValueError(f"bad d_range {d_range}")
    if k_lo < 1 or k_lo > k_hi:
        raise ValueError(f"bad k_range {k_range}")
    if k_lo > d_lo:
        raise ValueError("k_range minimum exceeds d_range minimum")

    instances = []
    total = n_unconstrained + n_constrained
    for i in range(total):
        rng_p = rng_for(master_seed, "params", i)
        d = int(rng_p.integers(d_lo, d_hi + 1))
        k = int(rng_p.integers(k_lo, min(k_hi, d) + 1))
        inst_seed = derive_seed(master_seed, "inst", i)
        instances.append(
            synthesize_instance(d, k, constrained=(i >= n_unconstrained),
                                seed=inst_seed, fe_budget=fe_budget)
        )
    ids = [inst.id for inst in instances]
    if len(set(ids)) != len(ids):
        raise RuntimeError("instance id collision in synthesized set")
    return instances
