"""LaTeX renderings of problem instances.

The canonical style writes every basic function in its textbook form
with concrete dimensions and embedded numeric data.  The commuted style
permutes every commutative +/- term list, at any nesting depth the term
splitter can see; the instance's seed fixes the order, so each instance
has one commuted rendering.  The factored style uses algebraically
equivalent rewritings with shared constants hoisted.

The splitter that powers commutation is exposed
(:func:`split_signed_terms`, :func:`normalize_terms`) so tests can
check that two renderings carry the same multiset of summands: the
normal form recursively sorts all commutable term lists, making it
order-invariant.  Each formula is tokenized once, into backslash
commands and single characters, and split and rewritten on that token
list at every bracket depth.  Absolute values use ``\\lvert``/``\\rvert``
(and norms ``\\lVert``/``\\rVert``) so bracket depth is unambiguous.
Subscript/superscript groups are copied verbatim -- index arithmetic
and exponents are never rearranged.  Matrix and vector data come from
the instance's :class:`~.literals.LiteralTable`, which formats each
number once and shares it with the other styles.
"""

import re

from ..seeding import rng_for
from .literals import tex_literal
from .styles import WritingStyle

__all__ = [
    "tex_num",
    "split_signed_terms",
    "join_signed_terms",
    "permute_terms",
    "normalize_terms",
    "render_tex_objective",
    "render_tex_constraints",
]


def tex_num(v):
    """Full-precision literal; scientific notation becomes x 10^{k}."""
    return tex_literal(repr(float(v)))


# ---------------------------------------------------------------------------
# signed-term machinery

# a token is a backslash command or a single character
_TOKEN = re.compile(r"\\[A-Za-z]+|.", re.S)
# bracket depth change of each bracket token
_DEPTH = {"(": 1, "[": 1, "{": 1, "\\lvert": 1, "\\lVert": 1,
          ")": -1, "]": -1, "}": -1, "\\rvert": -1, "\\rVert": -1}


def _split(toks):
    """Top-level signed terms of a token list as ``(sign, tokens)``,
    split at + and - outside every bracket, blank ends dropped."""
    terms, cur, sign, depth = [], [], 1, 0
    for t in toks:
        if depth == 0 and t in ("+", "-"):
            if cur:
                terms.append((sign, cur))
                cur = []
            sign = 1 if t == "+" else -1
        elif cur or not t.isspace():
            depth += _DEPTH.get(t, 0)
            cur.append(t)
    if cur:
        terms.append((sign, cur))
    for _, body in terms:
        while body[-1].isspace():
            body.pop()
    return terms


def split_signed_terms(s):
    """Split a formula into top-level signed terms.

    Returns a list of ``(sign, text)`` with sign +1/-1; splitting
    happens only at bracket depth 0, where ``( ) [ ] { }`` and the
    lvert/rvert pairs all count as brackets.
    """
    return [(sign, "".join(body)) for sign, body in _split(_TOKEN.findall(s))]


def join_signed_terms(terms):
    out = []
    for k, (sign, text) in enumerate(terms):
        if k == 0:
            out.append(("-" if sign < 0 else "") + text)
        else:
            out.append(("- " if sign < 0 else "+ ") + text)
    return " ".join(out)


def _rewrite(toks, order):
    """Rewrite a token list bottom-up: the bracket groups inside each
    term first, then the term list itself through ``order``."""
    terms = [(sign, _rewrite_groups(body, order))
             for sign, body in _split(toks)]
    if not terms:
        return "".join(toks)
    return join_signed_terms(order(terms) if len(terms) > 1 else terms)


def _rewrite_groups(toks, order):
    """Rewrite the inside of every top-level bracket group, except groups
    attached to _ or ^ (indices and exponents), which stay verbatim."""
    out = []
    i, n = 0, len(toks)
    while i < n:
        t = toks[i]
        i += 1
        if _DEPTH.get(t) != 1:
            out.append(t)
            continue
        start, depth = i, 1
        while i < n and depth:
            depth += _DEPTH.get(toks[i], 0)
            i += 1
        # an unclosed group runs to the end of the list
        closed = depth == 0
        inner, closer = toks[start:i - closed], toks[i - 1] if closed else ""
        if start > 1 and toks[start - 2] in ("_", "^"):
            body = "".join(inner)
        else:
            body = _rewrite(inner, order)
            if t.startswith("\\"):
                # keep command delimiters from gluing onto the body
                body = f" {body} "
        out.append(t + body + closer)
    return "".join(out)


def permute_terms(s, rng):
    """Seeded recursive permutation of all commutable term lists."""

    def order(terms):
        return [terms[k] for k in rng.permutation(len(terms))]

    return _rewrite(_TOKEN.findall(s), order)


def normalize_terms(s):
    """Order-invariant normal form: recursively sorts term lists, so
    any two commutations of the same formula normalize identically."""
    return _rewrite(_TOKEN.findall(s), sorted)


# ---------------------------------------------------------------------------
# basic-function formulas (@Z@/@W@/@D@ placeholders)

_CANONICAL = {
    "sphere": [(1, r"\sum_{i=1}^{@D@} @Z@_{i}^{2}")],
    "rastrigin": [(1, r"\sum_{i=1}^{@D@} ( @Z@_{i}^{2}"
                     r" - 10\cos(2\pi @Z@_{i}) + 10 )")],
    "ackley": [
        (-1, r"20 e^{-0.2\sqrt{\frac{1}{@D@}\sum_{i=1}^{@D@} @Z@_{i}^{2}}}"),
        (-1, r"e^{\frac{1}{@D@}\sum_{i=1}^{@D@}\cos(2\pi @Z@_{i})}"),
        (1, "20"),
        (1, "e"),
    ],
    "rosenbrock": [(1, r"\sum_{i=1}^{@D@-1} ( 100(@Z@_{i+1} - @Z@_{i}^{2})^{2}"
                      r" + (1 - @Z@_{i})^{2} )")],
    "griewank": [
        (1, "1"),
        (1, r"\frac{1}{4000}\sum_{i=1}^{@D@} @Z@_{i}^{2}"),
        (-1, r"\prod_{i=1}^{@D@}\cos(\frac{@Z@_{i}}{\sqrt{i}})"),
    ],
    "schwefel": [
        (1, r"418.9828872724339 \cdot @D@"),
        (-1, r"\sum_{i=1}^{@D@} @Z@_{i}\sin(\sqrt{\lvert @Z@_{i} \rvert})"),
    ],
    "bent_cigar": [
        (1, r"@Z@_{1}^{2}"),
        (1, r"10^{6}\sum_{i=2}^{@D@} @Z@_{i}^{2}"),
    ],
    "levy": [
        (1, r"\sin^{2}(\pi @W@_{1})"),
        (1, r"\sum_{i=1}^{@D@-1} ( (@W@_{i}-1)^{2}"
            r"(1 + 10\sin^{2}(\pi @W@_{i} + 1)) )"),
        (1, r"(@W@_{@D@}-1)^{2}(1 + \sin^{2}(2\pi @W@_{@D@}))"),
    ],
    "katsuura": [
        (1, r"\frac{10}{@D@^{2}}\prod_{i=1}^{@D@} (1 + i\sum_{j=1}^{32}"
            r"\frac{\lvert 2^{j} @Z@_{i} - \mathrm{round}(2^{j} @Z@_{i}) \rvert}"
            r"{2^{j}})^{\frac{10}{@D@^{1.2}}}"),
        (-1, r"\frac{10}{@D@^{2}}"),
    ],
    "happycat": [
        (1, r"\lvert \sum_{i=1}^{@D@} @Z@_{i}^{2} - @D@ \rvert^{1/4}"),
        (1, r"\frac{1}{@D@}(\frac{1}{2}\sum_{i=1}^{@D@} @Z@_{i}^{2}"
            r" + \sum_{i=1}^{@D@} @Z@_{i})"),
        (1, r"\frac{1}{2}"),
    ],
    "discus": [
        (1, r"10^{6} @Z@_{1}^{2}"),
        (1, r"\sum_{i=2}^{@D@} @Z@_{i}^{2}"),
    ],
    "weierstrass": [
        (1, r"\sum_{i=1}^{@D@}\sum_{k=0}^{20} ( 0.5^{k}"
            r"\cos(2\pi \cdot 3^{k}(@Z@_{i} + 0.5)) )"),
        (-1, r"@D@\sum_{k=0}^{20} ( 0.5^{k}\cos(\pi \cdot 3^{k}) )"),
    ],
}

_FACTORED = {
    "sphere": [(1, r"\lVert @Z@ \rVert^{2}")],
    "rastrigin": [
        (1, r"10 \cdot @D@"),
        (1, r"\sum_{i=1}^{@D@} @Z@_{i}^{2}"),
        (-1, r"10\sum_{i=1}^{@D@}\cos(2\pi @Z@_{i})"),
    ],
    "ackley": [
        (1, r"20(1 - e^{-0.2\sqrt{\frac{1}{@D@}\sum_{i=1}^{@D@} @Z@_{i}^{2}}})"),
        (1, "e"),
        (-1, r"e^{\frac{1}{@D@}\sum_{i=1}^{@D@}\cos(2\pi @Z@_{i})}"),
    ],
    "rosenbrock": [
        (1, r"100\sum_{i=1}^{@D@-1} (@Z@_{i+1} - @Z@_{i}^{2})^{2}"),
        (1, r"\sum_{i=1}^{@D@-1} (1 - @Z@_{i})^{2}"),
    ],
    "griewank": [
        (1, r"\frac{4000 + \sum_{i=1}^{@D@} @Z@_{i}^{2}}{4000}"),
        (-1, r"\prod_{i=1}^{@D@}\cos(\frac{@Z@_{i}}{\sqrt{i}})"),
    ],
    "schwefel": [(1, r"\sum_{i=1}^{@D@} ( 418.9828872724339"
                    r" - @Z@_{i}\sin(\sqrt{\lvert @Z@_{i} \rvert}) )")],
    "bent_cigar": [
        (1, r"10^{6}\sum_{i=1}^{@D@} @Z@_{i}^{2}"),
        (-1, r"(10^{6} - 1) @Z@_{1}^{2}"),
    ],
    "levy": [
        (1, r"\sin^{2}(\pi @W@_{1})"),
        (1, r"\sum_{i=1}^{@D@-1} (@W@_{i}-1)^{2}"),
        (1, r"10\sum_{i=1}^{@D@-1} ( (@W@_{i}-1)^{2}\sin^{2}(\pi @W@_{i} + 1) )"),
        (1, r"(@W@_{@D@}-1)^{2}"),
        (1, r"(@W@_{@D@}-1)^{2}\sin^{2}(2\pi @W@_{@D@})"),
    ],
    "katsuura": [(1, r"\frac{10}{@D@^{2}} ( \prod_{i=1}^{@D@} (1 + i"
                    r"\sum_{j=1}^{32}\frac{\lvert 2^{j} @Z@_{i}"
                    r" - \mathrm{round}(2^{j} @Z@_{i}) \rvert}{2^{j}})"
                    r"^{\frac{10}{@D@^{1.2}}} - 1 )")],
    "happycat": [
        (1, r"\lvert \lVert @Z@ \rVert^{2} - @D@ \rvert^{1/4}"),
        (1, r"\frac{\lVert @Z@ \rVert^{2}}{2 \cdot @D@}"),
        (1, r"\frac{1}{@D@}\sum_{i=1}^{@D@} @Z@_{i}"),
        (1, r"\frac{1}{2}"),
    ],
    "discus": [
        (1, r"\sum_{i=1}^{@D@} @Z@_{i}^{2}"),
        (1, r"(10^{6} - 1) @Z@_{1}^{2}"),
    ],
    "weierstrass": [(1, r"\sum_{k=0}^{20} ( 0.5^{k} ( \sum_{i=1}^{@D@}"
                       r"\cos(2\pi \cdot 3^{k}(@Z@_{i} + 0.5))"
                       r" - @D@\cos(\pi \cdot 3^{k}) ) )")],
}


def _fill(text, d, **symbols):
    """Put the dimension in ``@D@``/``@D@-1`` and each symbol in its
    ``@NAME@`` placeholder."""
    text = text.replace("@D@-1", str(d - 1)).replace("@D@", str(d))
    for name, value in symbols.items():
        text = text.replace(f"@{name}@", value)
    return text


def _tex_matrix(name, row_bodies):
    body = " \\\\\n".join(row_bodies)
    return f"{name} = \\begin{{pmatrix}}\n{body}\n\\end{{pmatrix}}"


def _component_data_tex(comp, lit, c, k_total):
    z = "z" if k_total == 1 else f"z^{{({c})}}"
    w = "w" if k_total == 1 else f"w^{{({c})}}"
    has_rot, has_shift = lit.has_rotation, lit.has_shift
    lines = []
    if comp.segment is not None:
        xsym = f"x^{{({c})}}"
        idx = ", ".join(f"x_{{{i + 1}}}" for i in comp.segment)
        lines.append(f"{xsym} = ({idx})")
    else:
        xsym = "x"
    msym = f"M_{{{c}}}"
    osym = "o" if k_total == 1 else f"o^{{({c})}}"
    if has_rot and has_shift:
        lines.insert(0, f"{z} = {msym}^{{\\top}}({xsym} - {osym})")
    elif has_rot:
        lines.insert(0, f"{z} = {msym}^{{\\top}} {xsym}")
    elif has_shift:
        lines.insert(0, f"{z} = {xsym} - {osym}")
    else:
        lines.insert(0, f"{z} = {xsym}")
    if has_rot:
        lines.append(_tex_matrix(msym, lit.rotation_tex))
    if has_shift:
        lines.append(f"{osym} = ({lit.shift_tex})")
    if comp.basic == "levy":
        lines.append(f"{w}_{{i}} = 1 + \\frac{{{z}_{{i}} - 1}}{{4}}")
    return lines


def _term_order(instance):
    """The commuted style's generator: fixed by the instance's seed, so
    every rendering of one instance commutes its terms the same way."""
    return rng_for("prompt", instance.seed, WritingStyle.TEX_COMMUTED.value)


def render_tex_objective(instance, style, table):
    """Objective block: the f(x) formula plus the data lines defining
    every symbol it uses.  ``table`` is the instance's
    :class:`~.literals.LiteralTable`."""
    style = WritingStyle.parse(style)
    forms = _FACTORED if style == WritingStyle.TEX_FACTORED else _CANONICAL
    k_total = instance.k
    terms = []
    data = []
    for c, (comp, lit) in enumerate(zip(instance.components,
                                        table.components), start=1):
        z = "z" if k_total == 1 else f"z^{{({c})}}"
        w = "w" if k_total == 1 else f"w^{{({c})}}"
        dc = len(comp.segment) if comp.segment is not None else instance.d
        sub = [(sign, _fill(t, dc, Z=z, W=w)) for sign, t in forms[comp.basic]]
        if comp.segment is None and comp.weight != 1.0:
            terms.append((1, f"{tex_num(comp.weight)} ( {join_signed_terms(sub)} )"))
        else:
            terms.extend(sub)
        data.extend(_component_data_tex(comp, lit, c, k_total))
    formula = join_signed_terms(terms)
    if style == WritingStyle.TEX_COMMUTED:
        formula = permute_terms(formula, _term_order(instance))
    lines = [f"f(x) = {formula}"]
    if data:
        lines.append(r"\text{where}")
        lines.extend(data)
    return "\n".join(lines) + "\n"


_CON_TEX = {
    "linear": r"\sum_{i=1}^{@D@} a^{(@J@)}_{i} @Y@_{i}",
    "ball": r"\sum_{i=1}^{@D@} (@Y@_{i})^{2}",
    "cumsum_zero": r"\sum_{i=1}^{@D@} (\sum_{k=1}^{i} @Y@_{k})^{2}",
    "chain_zero": r"\sum_{i=1}^{@D@-1} (@Y@_{i}^{2} - @Y@_{i+1})^{2}",
    "product": r"\prod_{i=1}^{@D@} @Y@_{i}",
    "sinusoid": r"\sum_{i=1}^{@D@} \sin(@Y@_{i})",
}


def render_tex_constraints(instance, style, table):
    """Constraint block: one relation per constraint plus data lines.
    ``table`` is the instance's :class:`~.literals.LiteralTable`."""
    style = WritingStyle.parse(style)
    if not instance.constraints:
        return ""
    rng = _term_order(instance) if style == WritingStyle.TEX_COMMUTED else None
    lines = []
    data = []
    n_g = 0
    n_h = 0
    for j, (spec, lit) in enumerate(zip(instance.constraints,
                                        table.constraints), start=1):
        y = f"y^{{({j})}}"
        terms = [(1, _fill(_CON_TEX[spec.kind], spec.d, Y=y, J=str(j)))]
        offset = spec.offset
        if spec.kind == "ball":
            terms.append((-1, f"{tex_num(offset)}^{{2}}"))
        elif offset is not None and offset != 0.0:
            terms.append((-1 if offset > 0 else 1, tex_num(abs(offset))))
        lhs = join_signed_terms(terms)
        if rng is not None:
            lhs = permute_terms(lhs, rng)
        if spec.is_equality:
            n_h += 1
            lines.append(f"h_{{{n_h}}}(x) = {lhs} = 0")
        else:
            n_g += 1
            lines.append(f"g_{{{n_g}}}(x) = {lhs} \\le 0")
        data.append(f"{y} = x - c^{{({j})}}")
        data.append(f"c^{{({j})}} = ({lit.center_tex})")
        if spec.kind == "linear":
            data.append(f"a^{{({j})}} = ({lit.a_tex})")
    return "\n".join(lines + [r"\text{where}"] + data) + "\n"
