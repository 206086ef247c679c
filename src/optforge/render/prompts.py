"""Prompt assembly: one natural-language task document per instance.

Every prompt follows the same section order regardless of style --
role header, problem statement, objective block, constraint block (when
present), search-space line, evaluation budget, output instruction --
so downstream consumers can rely on the layout while the objective
block varies across the six writing styles.

The numeric data (rotations, shifts, constraint vectors) is formatted
once per instance, in a :class:`~.literals.LiteralTable`, and shared by
every style rendered with that table.  Each function here takes an
optional ``table``; without one it builds a table for the instance.
"""

from dataclasses import dataclass

import numpy as np

from ..problems.constraints import EPS_EQ
from .literals import LiteralTable
from .py_code import render_python_constraints, render_python_objective
from .styles import PY_STYLES, WritingStyle
from .tex_code import render_tex_constraints, render_tex_objective

__all__ = ["PromptDoc", "render_objective", "render_constraints", "render_prompt"]

_ROLE = "You are an expert in numerical optimization."
_TASK = "Minimize the objective function defined in the following block."
_OUTPUT = (
    "Reply with a single complete Python program that searches for the "
    "minimizer and reports the best solution found."
)


@dataclass(frozen=True)
class PromptDoc:
    """A rendered prompt and the style it was written in."""

    text: str
    style: str


def _table_for(instance, table):
    if table is None:
        return LiteralTable(instance)
    if table.instance is not instance:
        raise ValueError("the literal table belongs to another instance")
    return table


def render_objective(instance, style, table=None):
    """Objective block text in the requested style (no fences)."""
    style = WritingStyle.parse(style)
    table = _table_for(instance, table)
    if style in PY_STYLES:
        return render_python_objective(instance, style, table)
    return render_tex_objective(instance, style, table)


def render_constraints(instance, style, table=None):
    """Constraint block text, empty for unconstrained instances."""
    style = WritingStyle.parse(style)
    table = _table_for(instance, table)
    if style in PY_STYLES:
        return render_python_constraints(instance, style, table)
    return render_tex_constraints(instance, style, table)


def _fence(text, tag):
    return f"```{tag}\n{text.rstrip()}\n```"


def _bounds_line(instance):
    b = instance.bounds
    lo, hi = b[:, 0], b[:, 1]
    if np.all(lo == lo[0]) and np.all(hi == hi[0]):
        box = (f"{float(lo[0])!r} <= x_i <= {float(hi[0])!r} "
               "for every coordinate")
        return (f"The search space is {instance.d}-dimensional with "
                f"{box}.")
    per = ", ".join(f"x_{i + 1} in [{float(a)!r}, {float(b)!r}]"
                    for i, (a, b) in enumerate(zip(lo, hi)))
    return (f"The search space is {instance.d}-dimensional with "
            f"per-coordinate bounds {per}.")


def render_prompt(instance, style, table=None):
    """Assemble the full prompt document for one instance and style.

    Pass the same ``table`` (a :class:`~.literals.LiteralTable` of this
    instance) to every style of one instance to format its numbers once.
    """
    style = WritingStyle.parse(style)
    table = _table_for(instance, table)
    tag = "python" if style in PY_STYLES else "latex"
    sections = [_ROLE, _TASK,
                _fence(render_objective(instance, style, table), tag)]
    if instance.constrained:
        con = render_constraints(instance, style, table)
        sections.append(
            "The solution must satisfy the following constraints "
            f"(inequalities g(x) <= 0; equalities |h(x)| <= {EPS_EQ!r}):"
        )
        sections.append(_fence(con, tag))
    sections.append(_bounds_line(instance))
    sections.append(
        f"You may use at most {instance.fe_budget} objective function "
        "evaluations."
    )
    sections.append(_OUTPUT)
    text = "\n\n".join(sections) + "\n"
    return PromptDoc(text=text, style=style.value)
