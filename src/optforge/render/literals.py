"""Numeric literals of one instance, formatted once for every style.

All six writing styles embed the same rotation matrices, shifts,
constraint centers and linear ``a`` vectors.  A :class:`LiteralTable`
formats each of those numbers once, with ``repr`` over ``.tolist()``
(the shortest string that round-trips the float64), and keeps the
Python row bodies (``"a, b, c"``) and the TeX row bodies (the same
strings by :func:`tex_literal`'s rule) for the renderers to reuse.

A table belongs to one instance and lives as long as its caller keeps
it: ``build_instruction_set`` makes one per instance and passes it to
that instance's six renderings.  Its parts are formatted on first use,
so the first style rendered carries the cost.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["LiteralTable", "tex_literal"]


def tex_literal(r):
    """TeX form of a float ``repr``: scientific notation becomes
    ``m \\times 10^{k}``, anything else is kept as is."""
    if "e" in r or "E" in r:
        mantissa, exp = r.lower().split("e")
        return rf"{mantissa} \times 10^{{{int(exp)}}}"
    return r


def _bodies(values, tex_sep):
    """(Python body, TeX body) of one row of float64 values."""
    strs = list(map(repr, values))
    py = ", ".join(strs)
    tex = tex_sep.join(strs)
    if "e" in tex or "E" in tex:
        tex = tex_sep.join(map(tex_literal, strs))
    return py, tex


@dataclass(frozen=True)
class ComponentLiterals:
    """Transform data of one component.

    ``rotation_py``/``rotation_tex`` hold one body per matrix row and
    are empty when the rotation is the identity; ``shift_py`` and
    ``shift_tex`` are empty when the shift is zero.
    """

    has_rotation: bool
    has_shift: bool
    rotation_py: tuple
    rotation_tex: tuple
    shift_py: str
    shift_tex: str


@dataclass(frozen=True)
class ConstraintLiterals:
    """Center and, for ``linear``, the ``a`` vector of one constraint."""

    center_py: str
    center_tex: str
    a_py: str
    a_tex: str


def _component_literals(comp):
    tf = comp.transform
    has_rotation = not np.array_equal(tf.rotation, np.eye(tf.d))
    has_shift = bool(tf.shift.any())
    rot_py = rot_tex = ()
    shift_py = shift_tex = ""
    if has_rotation:
        rows = [_bodies(row, " & ") for row in tf.rotation.tolist()]
        rot_py = tuple(py for py, _ in rows)
        rot_tex = tuple(tex for _, tex in rows)
    if has_shift:
        shift_py, shift_tex = _bodies(tf.shift.tolist(), ", ")
    return ComponentLiterals(has_rotation, has_shift, rot_py, rot_tex,
                             shift_py, shift_tex)


def _constraint_literals(spec):
    center_py, center_tex = _bodies(spec.center.tolist(), ", ")
    a_py = a_tex = ""
    if spec.kind == "linear":
        a = np.asarray(spec.params["a"], dtype=float).tolist()
        a_py, a_tex = _bodies(a, ", ")
    return ConstraintLiterals(center_py, center_tex, a_py, a_tex)


class LiteralTable:
    """Per-instance table of formatted numeric data, shared by styles."""

    def __init__(self, instance):
        self.instance = instance

    @cached_property
    def components(self):
        """One :class:`ComponentLiterals` per component, in order."""
        return tuple(_component_literals(c) for c in self.instance.components)

    @cached_property
    def constraints(self):
        """One :class:`ConstraintLiterals` per constraint, in order."""
        return tuple(_constraint_literals(s) for s in self.instance.constraints)
