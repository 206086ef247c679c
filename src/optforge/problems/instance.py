"""Problem instance model: components, evaluation and serialization.

An instance combines K basic functions under one of three paradigms:

* ``single``      -- K = 1, the basic function itself (weight 1.0),
* ``composition`` -- weighted sum ``f(x) = sum_i w_i f_i(M_i^T (x - o_i))``
  over the full dimension,
* ``hybrid``      -- ``f(x) = sum_i f_i(.)`` where component i sees only
  its segment of coordinates; the segments partition ``{0, .., d-1}``
  (stored 0-based).

Instances are frozen and hashable by content: the ``id`` is the first
12 hex digits of the SHA-256 of the canonical JSON payload without the
id field, so equal specs get equal ids regardless of construction
order.
"""

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .basic import BASIC_FUNCTIONS
from .constraints import ConstraintSpec, EPS_EQ, constraint_values
from .transforms import TransformSpec

__all__ = [
    "ComponentSpec",
    "Evaluation",
    "ProblemInstance",
    "PARADIGMS",
    "make_instance",
    "evaluate",
    "evaluate_batch",
    "violation_of",
    "instance_to_dict",
    "instance_from_dict",
    "save_instances",
    "load_instances",
]

PARADIGMS = ("single", "composition", "hybrid")


@dataclass(frozen=True)
class ComponentSpec:
    """One basic function inside an instance.

    Exactly one of ``weight``/``segment`` is set: ``weight`` for
    single/composition components, ``segment`` (0-based coordinate
    indices, ascending) for hybrid components.
    """

    basic: str
    transform: TransformSpec
    weight: float = None
    segment: tuple = None

    def __post_init__(self):
        if self.basic not in BASIC_FUNCTIONS:
            raise ValueError(f"unknown basic function {self.basic!r}")
        if (self.weight is None) == (self.segment is None):
            raise ValueError("component needs exactly one of weight/segment")
        if self.segment is not None:
            seg = tuple(int(i) for i in self.segment)
            if not seg:
                raise ValueError("hybrid segment must be non-empty")
            if list(seg) != sorted(set(seg)):
                raise ValueError("segment indices must be ascending and unique")
            if self.transform.d != len(seg):
                raise ValueError(
                    f"transform dim {self.transform.d} != segment size {len(seg)}"
                )
            object.__setattr__(self, "segment", seg)
        else:
            object.__setattr__(self, "weight", float(self.weight))


@dataclass(frozen=True)
class Evaluation:
    """Full evaluation of one point: objective, raw constraint values
    and the aggregate violation (0 when feasible)."""

    f: float
    g: tuple = ()
    h: tuple = ()
    violation: float = 0.0

    @property
    def feasible(self):
        return self.violation == 0.0


@dataclass(frozen=True)
class ProblemInstance:
    id: str
    d: int
    bounds: np.ndarray
    paradigm: str
    components: tuple
    constraints: tuple = ()
    fe_budget: int = 40000
    seed: int = 0

    def __post_init__(self):
        if self.paradigm not in PARADIGMS:
            raise ValueError(f"unknown paradigm {self.paradigm!r}")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        b = np.array(self.bounds, dtype=float)
        if b.shape != (self.d, 2):
            raise ValueError(f"bounds shape {b.shape} != ({self.d}, 2)")
        if not np.all(b[:, 0] < b[:, 1]):
            raise ValueError("bounds must satisfy lo < hi in every dimension")
        b.setflags(write=False)
        object.__setattr__(self, "bounds", b)
        comps = tuple(self.components)
        if not comps:
            raise ValueError("instance needs at least one component")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.fe_budget < 1:
            raise ValueError("fe_budget must be positive")

        if self.paradigm == "hybrid":
            covered = []
            for c in comps:
                if c.segment is None:
                    raise ValueError("hybrid components need segments")
                covered.extend(c.segment)
            if sorted(covered) != list(range(self.d)):
                raise ValueError("hybrid segments must partition the coordinates")
        else:
            if self.paradigm == "single" and len(comps) != 1:
                raise ValueError("single paradigm requires exactly one component")
            for c in comps:
                if c.weight is None:
                    raise ValueError(f"{self.paradigm} components need weights")
                if c.transform.d != self.d:
                    raise ValueError(
                        f"component transform dim {c.transform.d} != instance dim {self.d}"
                    )
        for c in self.constraints:
            if c.d != self.d:
                raise ValueError("constraint dimension mismatch")

    @property
    def k(self):
        return len(self.components)

    @property
    def constrained(self):
        return bool(self.constraints)


def _objective_batch(instance, x):
    total = np.zeros(x.shape[0])
    for comp in instance.components:
        fn = BASIC_FUNCTIONS[comp.basic]
        if comp.segment is not None:
            z = comp.transform.apply(x[:, comp.segment])
            total += fn(z)
        else:
            z = comp.transform.apply(x)
            total += comp.weight * fn(z)
    return total


def evaluate_batch(instance, x):
    """Evaluate a batch of points.

    Parameters
    ----------
    instance : ProblemInstance
    x : ndarray of shape (n, d)

    Returns
    -------
    f : ndarray of shape (n,)
    violation : ndarray of shape (n,)
        Aggregate constraint violation, all zeros for unconstrained
        instances.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != instance.d:
        raise ValueError(f"expected shape (n, {instance.d}), got {x.shape}")
    return _objective_batch(instance, x), violation_of(instance.constraints, x)


def violation_of(specs, x):
    """Total constraint violation per point, 0 where feasible:
    ``sum(max(0, g_i)) + sum(max(0, |h_j| - EPS_EQ))``."""
    x = np.asarray(x, dtype=float)
    total = np.zeros(x.shape[:-1])
    for spec in specs:
        v = constraint_values(spec, x)
        if spec.is_equality:
            total += np.maximum(0.0, np.abs(v) - EPS_EQ)
        else:
            total += np.maximum(0.0, v)
    return total


def evaluate(instance, x):
    """Evaluate a single point, keeping raw per-constraint values."""
    x = np.asarray(x, dtype=float)
    if x.shape != (instance.d,):
        raise ValueError(f"expected shape ({instance.d},), got {x.shape}")
    f, viol = evaluate_batch(instance, x[None])
    values = [(spec.is_equality, float(constraint_values(spec, x[None])[0]))
              for spec in instance.constraints]
    return Evaluation(f=float(f[0]),
                      g=tuple(v for eq, v in values if not eq),
                      h=tuple(v for eq, v in values if eq),
                      violation=float(viol[0]))


# ---------------------------------------------------------------------------
# serialization

def _component_to_dict(comp):
    return {
        "basic": comp.basic,
        "weight": comp.weight,
        "segment": list(comp.segment) if comp.segment is not None else None,
        "rotation": comp.transform.rotation.tolist(),
        "shift": comp.transform.shift.tolist(),
    }


def _component_from_dict(d):
    return ComponentSpec(
        basic=d["basic"],
        weight=d["weight"],
        segment=tuple(d["segment"]) if d["segment"] is not None else None,
        transform=TransformSpec(np.array(d["rotation"]), np.array(d["shift"])),
    )


def _payload(d, bounds, paradigm, components, constraints, fe_budget, seed):
    return {
        "d": int(d),
        "bounds": np.asarray(bounds, dtype=float).tolist(),
        "paradigm": paradigm,
        "components": [_component_to_dict(c) for c in components],
        "constraints": [
            {"kind": c.kind, "center": c.center.tolist(), "params": c.params}
            for c in constraints
        ],
        "fe_budget": int(fe_budget),
        "seed": int(seed),
    }


def compute_id(payload):
    """Content hash of an id-less payload dict (12 hex digits)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def make_instance(d, bounds, paradigm, components, constraints=(),
                  fe_budget=40000, seed=0):
    """Build an instance, deriving its content-hash id."""
    payload = _payload(d, bounds, paradigm, components, constraints,
                       fe_budget, seed)
    return ProblemInstance(
        id=compute_id(payload),
        d=int(d),
        bounds=np.asarray(bounds, dtype=float),
        paradigm=paradigm,
        components=tuple(components),
        constraints=tuple(constraints),
        fe_budget=int(fe_budget),
        seed=int(seed),
    )


def instance_to_dict(instance):
    out = _payload(
        instance.d, instance.bounds, instance.paradigm, instance.components,
        instance.constraints, instance.fe_budget, instance.seed,
    )
    out["id"] = instance.id
    return out


def instance_from_dict(d):
    inst = ProblemInstance(
        id=d["id"],
        d=d["d"],
        bounds=np.array(d["bounds"], dtype=float),
        paradigm=d["paradigm"],
        components=tuple(_component_from_dict(c) for c in d["components"]),
        constraints=tuple(
            ConstraintSpec(kind=c["kind"], center=np.array(c["center"]),
                           params=c["params"])
            for c in d["constraints"]
        ),
        fe_budget=d["fe_budget"],
        seed=d["seed"],
    )
    expect = compute_id({k: v for k, v in instance_to_dict(inst).items()
                         if k != "id"})
    if inst.id != expect:
        raise ValueError(
            f"instance id {inst.id} does not match content hash {expect}"
        )
    return inst


def save_instances(instances, path):
    """Write instances as JSON lines with sorted keys (byte-stable)."""
    with open(path, "w") as fh:
        for inst in instances:
            fh.write(json.dumps(instance_to_dict(inst), sort_keys=True))
            fh.write("\n")


def load_instances(path):
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(instance_from_dict(json.loads(line)))
    return out
