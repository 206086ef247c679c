"""Problem instance model: components, evaluation and serialization.

An instance combines K basic functions under one of three paradigms:

* ``single``      -- K = 1, the basic function itself (weight 1.0),
* ``composition`` -- weighted sum ``f(x) = sum_i w_i f_i(M_i^T (x - o_i))``
  over the full dimension,
* ``hybrid``      -- ``f(x) = sum_i f_i(.)`` where component i sees only
  its segment of coordinates; the segments partition ``{0, .., d-1}``
  (stored 0-based).

Instances are frozen and named by content: the ``id`` is the first 12
hex digits of the SHA-256 of the canonical JSON payload without the id
field, so equal specs get equal ids regardless of construction order.
The constructor derives the id, or checks the one it is given.
"""

import hashlib
import json
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ..artifacts import read_jsonl_once, write_jsonl
from .basic import BASIC_FUNCTIONS
from .constraints import ConstraintSpec, EPS_EQ, constraint_values
from .transforms import TransformSpec

__all__ = [
    "ComponentSpec",
    "ProblemInstance",
    "PARADIGMS",
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
class ProblemInstance:
    """An instance; ``id`` is derived from the content when not given,
    and a given ``id`` that does not match the content raises."""

    d: int
    bounds: np.ndarray
    paradigm: str
    components: tuple
    constraints: tuple = ()
    fe_budget: int = 40000
    seed: int = 0
    id: str = None

    def __post_init__(self):
        for name in ("d", "fe_budget", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
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
        # evaluation plan, built once: (raw function, segment index array
        # or None, transform, weight) per component
        object.__setattr__(self, "_plan", tuple(
            (BASIC_FUNCTIONS[c.basic].fn,
             None if c.segment is None else np.array(c.segment, dtype=np.intp),
             c.transform.apply, c.weight)
            for c in comps))
        blob = json.dumps(_payload(self), sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
        if self.id is None:
            object.__setattr__(self, "id", digest)
        elif self.id != digest:
            raise ValueError(
                f"instance id {self.id} does not match content hash {digest}")

    @property
    def k(self):
        return len(self.components)

    @property
    def constrained(self):
        return bool(self.constraints)


def _objective_batch(instance, x):
    total = np.zeros(x.shape[0])
    for fn, segment, transform, weight in instance._plan:
        if segment is not None:
            total += fn(transform(x[:, segment]))
        else:
            total += weight * fn(transform(x))
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
        # called through this module's binding, which profilers wrap;
        # its result is a fresh array, so it is clipped in place
        v = np.asarray(constraint_values(spec, x))
        if spec.is_equality:
            np.abs(v, out=v)
            v -= EPS_EQ
        total += np.maximum(0.0, v, out=v)
    return total


# ---------------------------------------------------------------------------
# serialization

def _payload(instance):
    """The instance as a JSON-ready dict, without its id."""
    return {
        "d": instance.d,
        "bounds": instance.bounds.tolist(),
        "paradigm": instance.paradigm,
        "components": [
            {"basic": c.basic, "weight": c.weight,
             "segment": None if c.segment is None else list(c.segment),
             "rotation": c.transform.rotation.tolist(),
             "shift": c.transform.shift.tolist()}
            for c in instance.components
        ],
        "constraints": [
            {"kind": c.kind, "center": c.center.tolist(), "params": c.params}
            for c in instance.constraints
        ],
        "fe_budget": instance.fe_budget,
        "seed": instance.seed,
    }


def instance_to_dict(instance):
    return {**_payload(instance), "id": instance.id}


def instance_from_dict(obj):
    """Inverse of :func:`instance_to_dict`; a missing or unknown field at
    any level raises, and so does an id that does not match the content."""
    return ProblemInstance(**{
        **obj,
        "id": obj["id"],
        "components": tuple(
            ComponentSpec(transform=TransformSpec(c.pop("rotation"),
                                                  c.pop("shift")), **c)
            for c in map(dict, obj["components"])),
        "constraints": tuple(ConstraintSpec(**c) for c in obj["constraints"]),
    })


def save_instances(instances, path):
    """Write instances as JSON lines with sorted keys (byte-stable)."""
    write_jsonl(path, map(instance_to_dict, instances))


def load_instances(path):
    """The file's instances, in order.  A second line with one id raises
    ``ValueError`` naming its line."""
    return read_jsonl_once(path, instance_from_dict, attrgetter("id"),
                           "second instance")
