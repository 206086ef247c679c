"""Python renderings of problem instances.

Three styles, all executable and numerically faithful to the instance's
own evaluator (the test suite compiles rendered blocks and compares):

* loop     -- pure python + ``math``, per-dimension accumulation loops;
* vector   -- numpy expressions inside one ``objective``;
* modular  -- numpy helpers, one small function per basic function.

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
# vectorized bodies: lines assigning {f} from {z} (aux names carry the
# component tag to stay collision-free)

def _vec_sphere(z, f, c):
    return [f"{f} = np.sum({z} ** 2)"]


def _vec_rastrigin(z, f, c):
    return [f"{f} = np.sum({z} ** 2 - 10.0 * np.cos(2.0 * np.pi * {z}) + 10.0)"]


def _vec_ackley(z, f, c):
    return [
        f"{f} = (-20.0 * np.exp(-0.2 * np.sqrt(np.mean({z} ** 2)))"
        f" - np.exp(np.mean(np.cos(2.0 * np.pi * {z}))) + 20.0 + np.e)"
    ]


def _vec_rosenbrock(z, f, c):
    return [
        f"{f} = np.sum(100.0 * ({z}[1:] - {z}[:-1] ** 2) ** 2"
        f" + (1.0 - {z}[:-1]) ** 2)"
    ]


def _vec_griewank(z, f, c):
    return [
        f"idx{c} = np.arange(1, {z}.size + 1)",
        f"{f} = 1.0 + np.sum({z} ** 2) / 4000.0"
        f" - np.prod(np.cos({z} / np.sqrt(idx{c})))",
    ]


def _vec_schwefel(z, f, c):
    return [
        f"{f} = 418.9828872724339 * {z}.size"
        f" - np.sum({z} * np.sin(np.sqrt(np.abs({z}))))"
    ]


def _vec_bent_cigar(z, f, c):
    return [f"{f} = {z}[0] ** 2 + 1e6 * np.sum({z}[1:] ** 2)"]


def _vec_levy(z, f, c):
    return [
        f"w{c} = 1.0 + ({z} - 1.0) / 4.0",
        f"{f} = (np.sin(np.pi * w{c}[0]) ** 2"
        f" + np.sum((w{c}[:-1] - 1.0) ** 2"
        f" * (1.0 + 10.0 * np.sin(np.pi * w{c}[:-1] + 1.0) ** 2))"
        f" + (w{c}[-1] - 1.0) ** 2"
        f" * (1.0 + np.sin(2.0 * np.pi * w{c}[-1]) ** 2))",
    ]


def _vec_katsuura(z, f, c):
    return [
        f"pow2{c} = 2.0 ** np.arange(1, 33)",
        f"frac{c} = np.sum(np.abs({z}[:, None] * pow2{c}"
        f" - np.round({z}[:, None] * pow2{c})) / pow2{c}, axis=1)",
        f"{f} = (10.0 / {z}.size ** 2"
        f" * np.prod((1.0 + np.arange(1, {z}.size + 1) * frac{c})"
        f" ** (10.0 / {z}.size ** 1.2)) - 10.0 / {z}.size ** 2)",
    ]


def _vec_happycat(z, f, c):
    return [
        f"r{c} = np.sum({z} ** 2)",
        f"{f} = (np.abs(r{c} - {z}.size) ** 0.25"
        f" + (0.5 * r{c} + np.sum({z})) / {z}.size + 0.5)",
    ]


def _vec_discus(z, f, c):
    return [f"{f} = 1e6 * {z}[0] ** 2 + np.sum({z}[1:] ** 2)"]


def _vec_weierstrass(z, f, c):
    return [
        f"k{c} = np.arange(21)",
        f"{f} = (np.sum(0.5 ** k{c}"
        f" * np.cos(2.0 * np.pi * 3.0 ** k{c} * ({z}[:, None] + 0.5)))"
        f" - {z}.size * np.sum(0.5 ** k{c} * np.cos(np.pi * 3.0 ** k{c})))",
    ]


_VECTOR_BODIES = {
    "sphere": _vec_sphere,
    "rastrigin": _vec_rastrigin,
    "ackley": _vec_ackley,
    "rosenbrock": _vec_rosenbrock,
    "griewank": _vec_griewank,
    "schwefel": _vec_schwefel,
    "bent_cigar": _vec_bent_cigar,
    "levy": _vec_levy,
    "katsuura": _vec_katsuura,
    "happycat": _vec_happycat,
    "discus": _vec_discus,
    "weierstrass": _vec_weierstrass,
}


# ---------------------------------------------------------------------------
# loop bodies: pure python + math

def _loop_sphere(z, f, c):
    return [
        f"{f} = 0.0",
        f"for v in {z}:",
        f"    {f} += v * v",
    ]


def _loop_rastrigin(z, f, c):
    return [
        f"{f} = 0.0",
        f"for v in {z}:",
        f"    {f} += v * v - 10.0 * math.cos(2.0 * math.pi * v) + 10.0",
    ]


def _loop_ackley(z, f, c):
    return [
        f"sq{c} = 0.0",
        f"cs{c} = 0.0",
        f"for v in {z}:",
        f"    sq{c} += v * v",
        f"    cs{c} += math.cos(2.0 * math.pi * v)",
        f"n{c} = len({z})",
        f"{f} = (-20.0 * math.exp(-0.2 * math.sqrt(sq{c} / n{c}))"
        f" - math.exp(cs{c} / n{c}) + 20.0 + math.e)",
    ]


def _loop_rosenbrock(z, f, c):
    return [
        f"{f} = 0.0",
        f"for i in range(len({z}) - 1):",
        f"    {f} += (100.0 * ({z}[i + 1] - {z}[i] ** 2) ** 2"
        f" + (1.0 - {z}[i]) ** 2)",
    ]


def _loop_griewank(z, f, c):
    return [
        f"sq{c} = 0.0",
        f"pr{c} = 1.0",
        f"for i, v in enumerate({z}):",
        f"    sq{c} += v * v",
        f"    pr{c} *= math.cos(v / math.sqrt(i + 1.0))",
        f"{f} = 1.0 + sq{c} / 4000.0 - pr{c}",
    ]


def _loop_schwefel(z, f, c):
    return [
        f"{f} = 418.9828872724339 * len({z})",
        f"for v in {z}:",
        f"    {f} -= v * math.sin(math.sqrt(abs(v)))",
    ]


def _loop_bent_cigar(z, f, c):
    return [
        f"{f} = {z}[0] ** 2",
        f"for v in {z}[1:]:",
        f"    {f} += 1e6 * v * v",
    ]


def _loop_levy(z, f, c):
    return [
        f"w{c} = [1.0 + (v - 1.0) / 4.0 for v in {z}]",
        f"{f} = math.sin(math.pi * w{c}[0]) ** 2",
        f"for i in range(len(w{c}) - 1):",
        f"    {f} += ((w{c}[i] - 1.0) ** 2"
        f" * (1.0 + 10.0 * math.sin(math.pi * w{c}[i] + 1.0) ** 2))",
        f"{f} += ((w{c}[-1] - 1.0) ** 2"
        f" * (1.0 + math.sin(2.0 * math.pi * w{c}[-1]) ** 2))",
    ]


def _loop_katsuura(z, f, c):
    return [
        f"n{c} = len({z})",
        f"pr{c} = 1.0",
        f"for i, v in enumerate({z}):",
        f"    s = 0.0",
        f"    for j in range(1, 33):",
        f"        t = 2.0 ** j * v",
        f"        s += abs(t - round(t)) / 2.0 ** j",
        f"    pr{c} *= (1.0 + (i + 1.0) * s) ** (10.0 / n{c} ** 1.2)",
        f"{f} = 10.0 / n{c} ** 2 * pr{c} - 10.0 / n{c} ** 2",
    ]


def _loop_happycat(z, f, c):
    return [
        f"sq{c} = 0.0",
        f"sm{c} = 0.0",
        f"for v in {z}:",
        f"    sq{c} += v * v",
        f"    sm{c} += v",
        f"n{c} = len({z})",
        f"{f} = (abs(sq{c} - n{c}) ** 0.25"
        f" + (0.5 * sq{c} + sm{c}) / n{c} + 0.5)",
    ]


def _loop_discus(z, f, c):
    return [
        f"{f} = 1e6 * {z}[0] ** 2",
        f"for v in {z}[1:]:",
        f"    {f} += v * v",
    ]


def _loop_weierstrass(z, f, c):
    return [
        f"const{c} = 0.0",
        f"for k in range(21):",
        f"    const{c} += 0.5 ** k * math.cos(math.pi * 3.0 ** k)",
        f"{f} = 0.0",
        f"for v in {z}:",
        f"    for k in range(21):",
        f"        {f} += 0.5 ** k * math.cos(2.0 * math.pi * 3.0 ** k * (v + 0.5))",
        f"{f} -= len({z}) * const{c}",
    ]


_LOOP_BODIES = {
    "sphere": _loop_sphere,
    "rastrigin": _loop_rastrigin,
    "ackley": _loop_ackley,
    "rosenbrock": _loop_rosenbrock,
    "griewank": _loop_griewank,
    "schwefel": _loop_schwefel,
    "bent_cigar": _loop_bent_cigar,
    "levy": _loop_levy,
    "katsuura": _loop_katsuura,
    "happycat": _loop_happycat,
    "discus": _loop_discus,
    "weierstrass": _loop_weierstrass,
}


# ---------------------------------------------------------------------------
# modular helper definitions (vectorized, shared across components)

_MODULAR_DEFS = {
    "sphere": "def sphere(z):\n    return np.sum(z ** 2)",
    "rastrigin": (
        "def rastrigin(z):\n"
        "    return np.sum(z ** 2 - 10.0 * np.cos(2.0 * np.pi * z) + 10.0)"
    ),
    "ackley": (
        "def ackley(z):\n"
        "    a = -20.0 * np.exp(-0.2 * np.sqrt(np.mean(z ** 2)))\n"
        "    b = -np.exp(np.mean(np.cos(2.0 * np.pi * z)))\n"
        "    return a + b + 20.0 + np.e"
    ),
    "rosenbrock": (
        "def rosenbrock(z):\n"
        "    return np.sum(100.0 * (z[1:] - z[:-1] ** 2) ** 2"
        " + (1.0 - z[:-1]) ** 2)"
    ),
    "griewank": (
        "def griewank(z):\n"
        "    idx = np.arange(1, z.size + 1)\n"
        "    return 1.0 + np.sum(z ** 2) / 4000.0"
        " - np.prod(np.cos(z / np.sqrt(idx)))"
    ),
    "schwefel": (
        "def schwefel(z):\n"
        "    return 418.9828872724339 * z.size"
        " - np.sum(z * np.sin(np.sqrt(np.abs(z))))"
    ),
    "bent_cigar": (
        "def bent_cigar(z):\n"
        "    return z[0] ** 2 + 1e6 * np.sum(z[1:] ** 2)"
    ),
    "levy": (
        "def levy(z):\n"
        "    w = 1.0 + (z - 1.0) / 4.0\n"
        "    head = np.sin(np.pi * w[0]) ** 2\n"
        "    mid = np.sum((w[:-1] - 1.0) ** 2"
        " * (1.0 + 10.0 * np.sin(np.pi * w[:-1] + 1.0) ** 2))\n"
        "    tail = (w[-1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * w[-1]) ** 2)\n"
        "    return head + mid + tail"
    ),
    "katsuura": (
        "def katsuura(z):\n"
        "    pow2 = 2.0 ** np.arange(1, 33)\n"
        "    frac = np.sum(np.abs(z[:, None] * pow2"
        " - np.round(z[:, None] * pow2)) / pow2, axis=1)\n"
        "    prod = np.prod((1.0 + np.arange(1, z.size + 1) * frac)"
        " ** (10.0 / z.size ** 1.2))\n"
        "    return 10.0 / z.size ** 2 * prod - 10.0 / z.size ** 2"
    ),
    "happycat": (
        "def happycat(z):\n"
        "    r = np.sum(z ** 2)\n"
        "    return np.abs(r - z.size) ** 0.25"
        " + (0.5 * r + np.sum(z)) / z.size + 0.5"
    ),
    "discus": (
        "def discus(z):\n"
        "    return 1e6 * z[0] ** 2 + np.sum(z[1:] ** 2)"
    ),
    "weierstrass": (
        "def weierstrass(z):\n"
        "    k = np.arange(21)\n"
        "    inner = np.sum(0.5 ** k"
        " * np.cos(2.0 * np.pi * 3.0 ** k * (z[:, None] + 0.5)))\n"
        "    const = np.sum(0.5 ** k * np.cos(np.pi * 3.0 ** k))\n"
        "    return inner - z.size * const"
    ),
}


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
    kernels = _LOOP_BODIES if loop else _VECTOR_BODIES
    body = [] if loop else ["x = np.asarray(x, dtype=float)"]
    for c, (comp, lit) in enumerate(comps, start=1):
        body += (_transform_lines_loop(comp, lit, c) if loop
                 else _transform_lines_vector(comp, lit, c, modular))
        if not modular:
            body += kernels[comp.basic](f"z{c}", f"f{c}", c)
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
            lines += [_MODULAR_DEFS[name], ""]
    lines += ["", "def objective(x):"]
    lines += [f"    {ln}" for ln in body]
    lines += [f"    return {ret}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# constraints

def _constraint_expr_vector(spec, i):
    if spec.kind == "linear":
        return f"float(y @ con{i}_a - {_num(spec.params['b'])})"
    if spec.kind == "ball":
        return f"float(np.sum(y ** 2) - {_num(spec.params['radius'])} ** 2)"
    if spec.kind == "cumsum_zero":
        return "float(np.sum(np.cumsum(y) ** 2))"
    if spec.kind == "chain_zero":
        return "float(np.sum((y[:-1] ** 2 - y[1:]) ** 2))"
    if spec.kind == "product":
        return f"float(np.prod(y) - {_num(spec.params['c'])})"
    if spec.kind == "sinusoid":
        return f"float(np.sum(np.sin(y)) - {_num(spec.params['b'])})"
    raise ValueError(spec.kind)


def _constraint_lines_loop(spec, i):
    d = spec.d
    y = f"[x[j] - con{i}_c[j] for j in range({d})]"
    if spec.kind == "linear":
        return [
            f"    total = -{_num(spec.params['b'])}",
            f"    for j in range({d}):",
            f"        total += con{i}_a[j] * (x[j] - con{i}_c[j])",
            "    return total",
        ]
    if spec.kind == "ball":
        return [
            "    total = 0.0",
            f"    for j in range({d}):",
            f"        total += (x[j] - con{i}_c[j]) ** 2",
            f"    return total - {_num(spec.params['radius'])} ** 2",
        ]
    if spec.kind == "cumsum_zero":
        return [
            "    total = 0.0",
            "    acc = 0.0",
            f"    for j in range({d}):",
            f"        acc += x[j] - con{i}_c[j]",
            "        total += acc ** 2",
            "    return total",
        ]
    if spec.kind == "chain_zero":
        return [
            f"    y = {y}",
            "    total = 0.0",
            f"    for j in range({d} - 1):",
            "        total += (y[j] ** 2 - y[j + 1]) ** 2",
            "    return total",
        ]
    if spec.kind == "product":
        return [
            "    prod = 1.0",
            f"    for j in range({d}):",
            f"        prod *= x[j] - con{i}_c[j]",
            f"    return prod - {_num(spec.params['c'])}",
        ]
    if spec.kind == "sinusoid":
        return [
            "    total = 0.0",
            f"    for j in range({d}):",
            f"        total += math.sin(x[j] - con{i}_c[j])",
            f"    return total - {_num(spec.params['b'])}",
        ]
    raise ValueError(spec.kind)


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
            defs.append("\n".join([f"def {fname}(x):"]
                                  + _constraint_lines_loop(spec, i)))
        else:
            expr = _constraint_expr_vector(spec, i)
            defs.append(
                f"def {fname}(x):\n"
                f"    y = np.asarray(x, dtype=float) - con{i}_c\n"
                f"    return {expr}"
            )
    head = "import math" if loop else "import numpy as np"
    blocks = [head, ""] + data + [""] + [d + "\n" for d in defs]
    return "\n".join(blocks)
