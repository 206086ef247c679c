"""Python renderings of problem instances.

Three styles, all executable and numerically faithful to the instance's
own evaluator (the test suite compiles rendered blocks and compares):

* loop     -- pure python + ``math``, per-dimension accumulation loops;
* vector   -- numpy expressions inside one ``objective``;
* modular  -- numpy helpers, one small function per basic function.

Each basic function and each constraint kind is written once per
notation, as template lines in a table: the numpy table serves both
vector bodies and modular helpers, and loops have their own table.

Data (rotation matrices, shifts, segments, constraint parameters) is
embedded as literals with full round-trip precision.  Identity parts of
a transform are omitted rather than multiplied out.  Segment indices
appear 0-based, matching Python indexing.  The matrix and vector
literals come from the instance's :class:`~.literals.LiteralTable`,
which formats each number once and shares it with the other styles.
"""

from .styles import PY_STYLES, WritingStyle

__all__ = ["render_python_objective", "render_python_constraints"]


def _num(v):
    return repr(float(v))


def _py_vector_literal(name, vals, numpy_style):
    if numpy_style:
        return f"{name} = np.array([{vals}])"
    return f"{name} = [{vals}]"


def _py_matrix_literal(name, row_bodies, numpy_style):
    body = "\n".join(f"    [{row}]," for row in row_bodies)
    if numpy_style:
        return f"{name} = np.array([\n{body}\n])"
    return f"{name} = [\n{body}\n]"


def _py_index_literal(name, values, numpy_style):
    vals = ", ".join(str(int(v)) for v in values)
    return _py_vector_literal(name, vals, numpy_style)


# ---------------------------------------------------------------------------
# basic-function formulas, one table per notation: template lines that
# assign {f} from {z}.  Aux names carry the component tag {c} to stay
# collision-free; the modular helpers fill {c} with "" and return the
# right-hand side of the last line.

_NUMPY = {
    "sphere": ["{f} = np.sum({z} ** 2)"],
    "rastrigin": [
        "{f} = np.sum({z} ** 2 - 10.0 * np.cos(2.0 * np.pi * {z}) + 10.0)",
    ],
    "ackley": [
        "a{c} = -20.0 * np.exp(-0.2 * np.sqrt(np.mean({z} ** 2)))",
        "b{c} = -np.exp(np.mean(np.cos(2.0 * np.pi * {z})))",
        "{f} = a{c} + b{c} + 20.0 + np.e",
    ],
    "rosenbrock": [
        "{f} = np.sum(100.0 * ({z}[1:] - {z}[:-1] ** 2) ** 2"
        " + (1.0 - {z}[:-1]) ** 2)",
    ],
    "griewank": [
        "idx{c} = np.arange(1, {z}.size + 1)",
        "{f} = 1.0 + np.sum({z} ** 2) / 4000.0"
        " - np.prod(np.cos({z} / np.sqrt(idx{c})))",
    ],
    "schwefel": [
        "{f} = 418.9828872724339 * {z}.size"
        " - np.sum({z} * np.sin(np.sqrt(np.abs({z}))))",
    ],
    "bent_cigar": ["{f} = {z}[0] ** 2 + 1e6 * np.sum({z}[1:] ** 2)"],
    "levy": [
        "w{c} = 1.0 + ({z} - 1.0) / 4.0",
        "head{c} = np.sin(np.pi * w{c}[0]) ** 2",
        "mid{c} = np.sum((w{c}[:-1] - 1.0) ** 2"
        " * (1.0 + 10.0 * np.sin(np.pi * w{c}[:-1] + 1.0) ** 2))",
        "tail{c} = (w{c}[-1] - 1.0) ** 2"
        " * (1.0 + np.sin(2.0 * np.pi * w{c}[-1]) ** 2)",
        "{f} = head{c} + mid{c} + tail{c}",
    ],
    "katsuura": [
        "pow2{c} = 2.0 ** np.arange(1, 33)",
        "frac{c} = np.sum(np.abs({z}[:, None] * pow2{c}"
        " - np.round({z}[:, None] * pow2{c})) / pow2{c}, axis=1)",
        "prod{c} = np.prod((1.0 + np.arange(1, {z}.size + 1) * frac{c})"
        " ** (10.0 / {z}.size ** 1.2))",
        "{f} = 10.0 / {z}.size ** 2 * prod{c} - 10.0 / {z}.size ** 2",
    ],
    "happycat": [
        "r{c} = np.sum({z} ** 2)",
        "{f} = np.abs(r{c} - {z}.size) ** 0.25"
        " + (0.5 * r{c} + np.sum({z})) / {z}.size + 0.5",
    ],
    "discus": ["{f} = 1e6 * {z}[0] ** 2 + np.sum({z}[1:] ** 2)"],
    "weierstrass": [
        "k{c} = np.arange(21)",
        "inner{c} = np.sum(0.5 ** k{c}"
        " * np.cos(2.0 * np.pi * 3.0 ** k{c} * ({z}[:, None] + 0.5)))",
        "const{c} = np.sum(0.5 ** k{c} * np.cos(np.pi * 3.0 ** k{c}))",
        "{f} = inner{c} - {z}.size * const{c}",
    ],
}

_LOOP = {
    "sphere": [
        "{f} = 0.0",
        "for v in {z}:",
        "    {f} += v * v",
    ],
    "rastrigin": [
        "{f} = 0.0",
        "for v in {z}:",
        "    {f} += v * v - 10.0 * math.cos(2.0 * math.pi * v) + 10.0",
    ],
    "ackley": [
        "sq{c} = 0.0",
        "cs{c} = 0.0",
        "for v in {z}:",
        "    sq{c} += v * v",
        "    cs{c} += math.cos(2.0 * math.pi * v)",
        "n{c} = len({z})",
        "{f} = (-20.0 * math.exp(-0.2 * math.sqrt(sq{c} / n{c}))"
        " - math.exp(cs{c} / n{c}) + 20.0 + math.e)",
    ],
    "rosenbrock": [
        "{f} = 0.0",
        "for i in range(len({z}) - 1):",
        "    {f} += (100.0 * ({z}[i + 1] - {z}[i] ** 2) ** 2"
        " + (1.0 - {z}[i]) ** 2)",
    ],
    "griewank": [
        "sq{c} = 0.0",
        "pr{c} = 1.0",
        "for i, v in enumerate({z}):",
        "    sq{c} += v * v",
        "    pr{c} *= math.cos(v / math.sqrt(i + 1.0))",
        "{f} = 1.0 + sq{c} / 4000.0 - pr{c}",
    ],
    "schwefel": [
        "{f} = 418.9828872724339 * len({z})",
        "for v in {z}:",
        "    {f} -= v * math.sin(math.sqrt(abs(v)))",
    ],
    "bent_cigar": [
        "{f} = {z}[0] ** 2",
        "for v in {z}[1:]:",
        "    {f} += 1e6 * v * v",
    ],
    "levy": [
        "w{c} = [1.0 + (v - 1.0) / 4.0 for v in {z}]",
        "{f} = math.sin(math.pi * w{c}[0]) ** 2",
        "for i in range(len(w{c}) - 1):",
        "    {f} += ((w{c}[i] - 1.0) ** 2"
        " * (1.0 + 10.0 * math.sin(math.pi * w{c}[i] + 1.0) ** 2))",
        "{f} += ((w{c}[-1] - 1.0) ** 2"
        " * (1.0 + math.sin(2.0 * math.pi * w{c}[-1]) ** 2))",
    ],
    "katsuura": [
        "n{c} = len({z})",
        "pr{c} = 1.0",
        "for i, v in enumerate({z}):",
        "    s = 0.0",
        "    for j in range(1, 33):",
        "        t = 2.0 ** j * v",
        "        s += abs(t - round(t)) / 2.0 ** j",
        "    pr{c} *= (1.0 + (i + 1.0) * s) ** (10.0 / n{c} ** 1.2)",
        "{f} = 10.0 / n{c} ** 2 * pr{c} - 10.0 / n{c} ** 2",
    ],
    "happycat": [
        "sq{c} = 0.0",
        "sm{c} = 0.0",
        "for v in {z}:",
        "    sq{c} += v * v",
        "    sm{c} += v",
        "n{c} = len({z})",
        "{f} = (abs(sq{c} - n{c}) ** 0.25"
        " + (0.5 * sq{c} + sm{c}) / n{c} + 0.5)",
    ],
    "discus": [
        "{f} = 1e6 * {z}[0] ** 2",
        "for v in {z}[1:]:",
        "    {f} += v * v",
    ],
    "weierstrass": [
        "const{c} = 0.0",
        "for k in range(21):",
        "    const{c} += 0.5 ** k * math.cos(math.pi * 3.0 ** k)",
        "{f} = 0.0",
        "for v in {z}:",
        "    for k in range(21):",
        "        {f} += 0.5 ** k * math.cos(2.0 * math.pi * 3.0 ** k * (v + 0.5))",
        "{f} -= len({z}) * const{c}",
    ],
}


def _fill(lines, **fields):
    return [ln.format(**fields) for ln in lines]


def _modular_def(name):
    """Helper ``name(z)`` built from the numpy formula."""
    *aux, last = _fill(_NUMPY[name], z="z", f="f", c="")
    body = aux + ["return " + last.partition(" = ")[2]]
    return "\n".join([f"def {name}(z):"] + [f"    {ln}" for ln in body])


_ROTATE_SHIFT_DEF = (
    "def rotate_shift(x, m, o):\n"
    "    return (np.asarray(x, dtype=float) - np.asarray(o))"
    " @ np.asarray(m)"
)


def _transform_lines_vector(comp, lit, c, modular):
    """Lines producing z{c} from x (vector/modular family)."""
    has_rot, has_shift = lit.has_rotation, lit.has_shift
    xs = f"x[s{c}]" if comp.segment is not None else "x"
    if modular and has_rot and has_shift:
        return [f"z{c} = rotate_shift({xs}, M{c}, o{c})"]
    if has_rot and has_shift:
        return [f"z{c} = ({xs} - o{c}) @ M{c}"]
    if has_rot:
        return [f"z{c} = {xs} @ M{c}"]
    if has_shift:
        return [f"z{c} = {xs} - o{c}"]
    return [f"z{c} = {xs}"]


def _transform_lines_loop(comp, lit, c):
    has_rot, has_shift = lit.has_rotation, lit.has_shift
    dc = comp.transform.d
    if comp.segment is not None:
        pre = [f"x{c} = [x[i] for i in s{c}]"]
        xs = f"x{c}"
    else:
        pre = []
        xs = "x"
    if has_rot:
        sub = f"({xs}[j] - o{c}[j])" if has_shift else f"{xs}[j]"
        return pre + [
            f"z{c} = [0.0] * {dc}",
            f"for i in range({dc}):",
            "    acc = 0.0",
            f"    for j in range({dc}):",
            f"        acc += M{c}[j][i] * {sub}",
            f"    z{c}[i] = acc",
        ]
    if has_shift:
        return pre + [f"z{c} = [{xs}[j] - o{c}[j] for j in range({dc})]"]
    return pre + [f"z{c} = {xs}"]


def _component_data(comps, numpy_style):
    lines = []
    for c, (comp, lit) in enumerate(comps, start=1):
        if comp.segment is not None:
            lines.append(_py_index_literal(f"s{c}", comp.segment, numpy_style))
        if lit.has_rotation:
            lines.append(_py_matrix_literal(f"M{c}", lit.rotation_py,
                                            numpy_style))
        if lit.has_shift:
            lines.append(_py_vector_literal(f"o{c}", lit.shift_py, numpy_style))
    return lines


def _combine_expr(instance, term_of):
    parts = []
    for c, comp in enumerate(instance.components, start=1):
        t = term_of(c, comp)
        if comp.segment is None and comp.weight != 1.0:
            t = f"{_num(comp.weight)} * {t}"
        parts.append(t)
    return " + ".join(parts)


def render_python_objective(instance, style, table):
    """Self-contained block defining ``objective(x)`` in the given style.

    ``table`` is the instance's :class:`~.literals.LiteralTable`.
    """
    style = WritingStyle.parse(style)
    if style not in PY_STYLES:
        raise ValueError(f"{style.value} is not a Python style")
    loop = style == WritingStyle.PY_LOOP
    modular = style == WritingStyle.PY_MODULAR
    comps = list(zip(instance.components, table.components))
    formulas = _LOOP if loop else _NUMPY
    body = [] if loop else ["x = np.asarray(x, dtype=float)"]
    for c, (comp, lit) in enumerate(comps, start=1):
        body += (_transform_lines_loop(comp, lit, c) if loop
                 else _transform_lines_vector(comp, lit, c, modular))
        if not modular:
            body += _fill(formulas[comp.basic], z=f"z{c}", f=f"f{c}", c=c)
    ret = _combine_expr(instance, lambda c, comp: (
        f"{comp.basic}(z{c})" if modular else f"f{c}"))

    lines = ["import math" if loop else "import numpy as np", ""]
    data = _component_data(comps, numpy_style=not loop)
    if data:
        lines += data + [""]
    if modular:
        lines += [""]
        if any(lit.has_rotation and lit.has_shift for lit in table.components):
            lines += [_ROTATE_SHIFT_DEF, ""]
        # each helper once, in first-use order
        for name in dict.fromkeys(comp.basic for comp in instance.components):
            lines += [_modular_def(name), ""]
    lines += ["", "def objective(x):"]
    lines += [f"    {ln}" for ln in body]
    lines += [f"    return {ret}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# constraints

# constraint bodies, one table per notation: {i} is the constraint
# index, {d} its dimension and {p} its offset parameter

_CON_NUMPY = {
    "linear": "float(y @ con{i}_a - {p})",
    "ball": "float(np.sum(y ** 2) - {p} ** 2)",
    "cumsum_zero": "float(np.sum(np.cumsum(y) ** 2))",
    "chain_zero": "float(np.sum((y[:-1] ** 2 - y[1:]) ** 2))",
    "product": "float(np.prod(y) - {p})",
    "sinusoid": "float(np.sum(np.sin(y)) - {p})",
}

_CON_LOOP = {
    "linear": [
        "    total = -{p}",
        "    for j in range({d}):",
        "        total += con{i}_a[j] * (x[j] - con{i}_c[j])",
        "    return total",
    ],
    "ball": [
        "    total = 0.0",
        "    for j in range({d}):",
        "        total += (x[j] - con{i}_c[j]) ** 2",
        "    return total - {p} ** 2",
    ],
    "cumsum_zero": [
        "    total = 0.0",
        "    acc = 0.0",
        "    for j in range({d}):",
        "        acc += x[j] - con{i}_c[j]",
        "        total += acc ** 2",
        "    return total",
    ],
    "chain_zero": [
        "    y = [x[j] - con{i}_c[j] for j in range({d})]",
        "    total = 0.0",
        "    for j in range({d} - 1):",
        "        total += (y[j] ** 2 - y[j + 1]) ** 2",
        "    return total",
    ],
    "product": [
        "    prod = 1.0",
        "    for j in range({d}):",
        "        prod *= x[j] - con{i}_c[j]",
        "    return prod - {p}",
    ],
    "sinusoid": [
        "    total = 0.0",
        "    for j in range({d}):",
        "        total += math.sin(x[j] - con{i}_c[j])",
        "    return total - {p}",
    ],
}


def render_python_constraints(instance, style, table):
    """Block defining g*/h* functions for the instance's constraints.

    Returns an empty string for unconstrained instances.  Inequalities
    are satisfied when ``g(x) <= 0``; equalities when ``|h(x)|`` is
    within the instance tolerance.  ``table`` is the instance's
    :class:`~.literals.LiteralTable`.
    """
    style = WritingStyle.parse(style)
    if not instance.constraints:
        return ""
    loop = style == WritingStyle.PY_LOOP
    data = []
    defs = []
    n_g = 0
    n_h = 0
    for i, (spec, lit) in enumerate(zip(instance.constraints,
                                        table.constraints), start=1):
        data.append(_py_vector_literal(f"con{i}_c", lit.center_py,
                                       numpy_style=not loop))
        if spec.kind == "linear":
            data.append(_py_vector_literal(f"con{i}_a", lit.a_py,
                                           numpy_style=not loop))
        if spec.is_equality:
            n_h += 1
            fname = f"h{n_h}"
        else:
            n_g += 1
            fname = f"g{n_g}"
        if loop:
            body = _CON_LOOP[spec.kind]
        else:
            body = ["    y = np.asarray(x, dtype=float) - con{i}_c",
                    "    return " + _CON_NUMPY[spec.kind]]
        p = "" if spec.offset is None else _num(spec.offset)
        defs.append("\n".join([f"def {fname}(x):"]
                              + _fill(body, i=i, d=spec.d, p=p)))
    head = "import math" if loop else "import numpy as np"
    blocks = [head, ""] + data + [""] + [d + "\n" for d in defs]
    return "\n".join(blocks)
