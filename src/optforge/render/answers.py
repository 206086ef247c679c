"""Answer programs: runnable solver code for a labelled instance.

The answer for an entry is the source of the optimizer the benchmark
ran, taken with :func:`inspect.getsource`: the registered function
(without its ``@register`` line) plus every module-level helper,
class and constant it reaches, then a short driver that runs it with
the winning configuration.  The optimizer is a generator, and the
driver is one fixed loop that evaluates each ask through the runtime::

    steps = vanilla_de(problem, CONFIG, np.random.default_rng(0))
    try:
        x = next(steps)
        while True:
            x = steps.send(problem.batch(x))
    except (BudgetExhausted, StopIteration):
        pass

``dual_annealing``'s answer is instead a plain function that calls
scipy with an objective that evaluates through ``batch`` and adds
``1e6 * violation`` itself, and its driver calls it once.  Comments
and docstrings are left out, so that an answer is code alone; every
other line keeps its layout, and the one comment
left is the program's header line.  The pairing
``prompt -> answer`` is a pure function of ``(optimizer, config)``, and
executing the answer against an
:class:`~optforge.optimizers.base.ObjectiveTracker` repeats the bench run of
that configuration at seed 0 evaluation for evaluation.

The programs target a small documented runtime namespace, which is the
tracker's own surface::

    from opt_runtime import BudgetExhausted, load_problem

    problem = load_problem()   # the task the prompt describes
    problem.d                  # int, search-space dimension
    problem.bounds             # ndarray (d, 2), box bounds per coordinate
    problem.fe_budget          # int, max objective evaluations
    problem.fe_used            # int, evaluations spent so far
    problem.remaining          # int, fe_budget - fe_used
    problem.batch(x)           # (n, d) -> (f, violation), each (n,)

``batch`` evaluates the prefix of ``x`` that still fits in the budget
and then raises ``BudgetExhausted``; the driver catches it.  The
runtime keeps the best point under the feasibility rule (feasible
first, then smaller violation, then smaller objective), so the program
reports nothing itself.
"""

import ast
import dis
import functools
import inspect
import io
import linecache
import tokenize
import types

from ..optimizers.base import get_answer
from ..optimizers.grids import validate_config

__all__ = ["DegenerateEntryError", "emit_answer"]


class DegenerateEntryError(ValueError):
    """Raised when asked to emit an answer for an instance whose
    benchmark produced no usable winner."""


def _code_tree(code):
    """``code`` and the code objects nested in it, depth first."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_tree(const)


def _loaded_globals(code):
    """Global names ``code`` and its nested code objects load, in order."""
    names = []
    for sub in _code_tree(code):
        for ins in dis.get_instructions(sub):
            if ins.opname == "LOAD_GLOBAL" and ins.argval not in names:
                names.append(ins.argval)
    return names


def _strip_prose(source):
    """``source`` without its comments and docstring statements; a line
    that held only those goes, and so do blank lines right after a
    docstring.  Every other line keeps its layout."""
    drop = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            drop.update(range(doc.lineno, doc.end_lineno + 1))
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    comment_at = {tok.start[0]: tok.start[1] for tok in tokens
                  if tok.type == tokenize.COMMENT}
    kept = []
    for row, line in enumerate(source.splitlines(), start=1):
        if row in drop or (not line.strip() and row - 1 in drop):
            drop.add(row)
            continue
        if row in comment_at:
            line = line[:comment_at[row]].rstrip()
            if not line:
                continue
        kept.append(line)
    return "\n".join(kept)


@functools.lru_cache(maxsize=None)
def _compiled_code(filename, text):
    """Every code object ``text`` compiles to, nested ones included."""
    return set(_code_tree(compile(text, filename, "exec", dont_inherit=True)))


def _definition_source(obj):
    """Source of a module-level function or class, decorators, comments
    and docstrings dropped.  Raises ``ValueError`` unless the file still
    compiles to the loaded code, the code the bench ran."""
    lines = inspect.getsource(obj).splitlines()  # refreshes linecache
    filename = inspect.getsourcefile(obj)
    loaded = ({f.__code__ for f in vars(obj).values() if inspect.isfunction(f)}
              if inspect.isclass(obj) else {obj.__code__})
    if not loaded <= _compiled_code(filename,
                                    "".join(linecache.getlines(filename))):
        raise ValueError(f"{obj.__qualname__}: {filename} changed since import")
    start = next(i for i, line in enumerate(lines)
                 if line.startswith(("def ", "class ")))
    return _strip_prose("\n".join(lines[start:]))


@functools.lru_cache(maxsize=None)
def _optimizer_source(name):
    """Self-contained source of a registered optimizer: its imports,
    the constants it reads, then every function and class it reaches,
    dependencies before their users and the optimizer itself last."""
    imports, constants, defs = {"import numpy as np"}, [], []
    bound = {}

    def visit(obj):
        funcs = ([v for v in vars(obj).values() if inspect.isfunction(v)]
                 if inspect.isclass(obj) else [obj])
        for func in funcs:
            for gname in _loaded_globals(func.__code__):
                if gname not in func.__globals__:
                    continue  # a builtin
                value = func.__globals__[gname]
                if gname in bound:
                    if bound[gname] is not value:
                        raise ValueError(f"{name}: two globals named {gname!r}")
                    continue
                bound[gname] = value
                if isinstance(value, types.ModuleType):
                    imports.add(f"import {value.__name__}"
                                if gname == value.__name__
                                else f"import {value.__name__} as {gname}")
                elif inspect.isfunction(value) or inspect.isclass(value):
                    visit(value)
                else:
                    constants.append(f"{gname} = {value!r}")
        defs.append(_definition_source(obj))

    fn = get_answer(name)
    bound[fn.__name__] = fn
    visit(fn)
    head = ("\n".join(sorted(imports))
            + "\n\nfrom opt_runtime import BudgetExhausted, load_problem")
    if constants:
        head += "\n\n" + "\n".join(constants)
    return "\n\n\n".join([head, *defs]) + "\n"


def emit_answer(entry):
    """The answer program's text for one knowledge-base entry.

    Raises :class:`DegenerateEntryError` when the entry carries no
    usable winner (all optimizers failed on the instance), ``KeyError``
    for an unregistered optimizer, and ``ValueError`` for an off-grid config.
    """
    if getattr(entry, "degenerate", False):
        raise DegenerateEntryError(
            f"instance {entry.instance_id}: benchmark found no usable winner"
        )
    optimizer = entry.best_optimizer
    config = dict(entry.best_config or {})
    fn = get_answer(optimizer)
    validate_config(optimizer, config)
    call = f"{fn.__name__}(problem, CONFIG, np.random.default_rng(0))"
    if inspect.isgeneratorfunction(fn):
        driver = (f"steps = {call}\n"
                  "try:\n"
                  "    x = next(steps)\n"
                  "    while True:\n"
                  "        x = steps.send(problem.batch(x))\n"
                  "except (BudgetExhausted, StopIteration):\n")
    else:
        driver = f"try:\n    {call}\nexcept BudgetExhausted:\n"
    code = (
        f"# {optimizer} with the configuration the benchmark chose.\n"
        + _optimizer_source(optimizer)
        + f"\n\nCONFIG = {dict(sorted(config.items()))!r}\n\n"
        "problem = load_problem()\n"
        + driver + "    pass\n"
    )
    return code
