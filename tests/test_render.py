"""Rendering: executable fidelity of the Python styles, term-order
invariance of the LaTeX styles, prompt assembly and answer programs."""

import ast
import io
import sys
import tokenize
import types
from types import SimpleNamespace

import numpy as np
import pytest

import optforge.optimizers.base as base
from optforge.bench import KnowledgeEntry
from optforge.optimizers.base import (BudgetExhausted, ObjectiveTracker,
                                      get_optimizer, run)
from optforge.optimizers.grids import GRIDS, config_at, enumerate_configs
from optforge.problems.basic import BASIC_FUNCTIONS, BASIC_NAMES
from optforge.problems.constraints import (CONSTRAINT_TEMPLATES, EPS_EQ,
                                           ConstraintSpec, constraint_values)
from optforge.problems.instance import (ComponentSpec, ProblemInstance,
                                        evaluate_batch)
from optforge.problems.synthesis import synthesize_instance
from optforge.problems.transforms import TransformSpec, make_rotation
from optforge.render import answers
from optforge.render.answers import DegenerateEntryError, emit_answer
from optforge.render.literals import LiteralTable
from optforge.render.prompts import (render_constraints, render_objective,
                                     render_prompt)
from optforge.render.styles import PY_STYLES, TEX_STYLES, WritingStyle
from optforge.render.tex_code import (join_signed_terms, normalize_terms,
                                      permute_terms, split_signed_terms,
                                      tex_num)
from reference_impls import (ref_normalize_terms, ref_permute_terms,
                             ref_split_signed_terms)


def _sweep(n, constrained_every=3):
    """Deterministic mix of paradigms/dimensions for fidelity checks."""
    out = []
    for i in range(n):
        d = 2 + (i * 5) % 9
        k = 1 + i % 3
        out.append(synthesize_instance(
            d=d, k=min(k, d), constrained=(i % constrained_every == 0),
            seed=1000 + i, fe_budget=500))
    return out


def _exec_block(text):
    ns = {}
    exec(compile(text, "<rendered>", "exec"), ns)
    return ns


# ---------------------------------------------------------------------------
# python styles evaluate to the true objective


def _assert_objective_matches(inst, style, rng):
    ns = _exec_block(render_objective(inst, style))
    xs = rng.uniform(inst.bounds[:, 0], inst.bounds[:, 1], (5, inst.d))
    f_true, _ = evaluate_batch(inst, xs)
    for x, want in zip(xs, f_true):
        got = float(ns["objective"](list(map(float, x))))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("style", PY_STYLES, ids=lambda s: s.value)
def test_python_objective_matches_engine(style):
    rng = np.random.default_rng(0)
    for inst in _sweep(9):
        _assert_objective_matches(inst, style, rng)


@pytest.mark.parametrize("basic", BASIC_NAMES)
@pytest.mark.parametrize("style", PY_STYLES, ids=lambda s: s.value)
def test_python_objective_matches_engine_per_basic(style, basic):
    """Each basic function's formula, rotated and shifted, at d 4."""
    d = 4
    lo, hi = BASIC_FUNCTIONS[basic].domain
    rng = np.random.default_rng(BASIC_NAMES.index(basic))
    tf = TransformSpec(make_rotation(d, np.random.default_rng(7)),
                       rng.uniform(lo / 2, hi / 2, d))
    inst = ProblemInstance(d=d, bounds=[[lo, hi]] * d, paradigm="single",
                           components=[ComponentSpec(basic, tf, weight=1.0)])
    _assert_objective_matches(inst, style, rng)


@pytest.mark.parametrize("style", PY_STYLES, ids=lambda s: s.value)
def test_python_constraints_match_engine(style):
    rng = np.random.default_rng(1)
    checked = 0
    for inst in _sweep(9, constrained_every=1):
        text = render_constraints(inst, style)
        assert text != ""
        ns = _exec_block(text)
        xs = rng.uniform(inst.bounds[:, 0], inst.bounds[:, 1], (3, inst.d))
        for x in xs:
            n_g = n_h = 0
            for spec in inst.constraints:
                want = float(constraint_values(spec, x[None])[0])
                if spec.is_equality:
                    n_h += 1
                    got = float(ns[f"h{n_h}"](list(map(float, x))))
                else:
                    n_g += 1
                    got = float(ns[f"g{n_g}"](list(map(float, x))))
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
                checked += 1
    assert checked > 0


def test_python_constraints_empty_for_unconstrained():
    inst = synthesize_instance(d=3, k=1, constrained=False, seed=2)
    for style in PY_STYLES:
        assert render_constraints(inst, style) == ""


def test_python_styles_differ_textually():
    inst = synthesize_instance(d=4, k=2, constrained=False, seed=3)
    texts = {s: render_objective(inst, s) for s in PY_STYLES}
    assert len(set(texts.values())) == 3
    assert "import math" in texts[WritingStyle.PY_LOOP]
    assert "import numpy as np" in texts[WritingStyle.PY_VECTOR]
    assert "def objective(x):" in texts[WritingStyle.PY_MODULAR]


# ---------------------------------------------------------------------------
# latex styles


def _expr_norm(line):
    """Key for one display line: head symbol plus order-normalized rhs."""
    for tail in (r" \le 0", " = 0"):
        if line.endswith(tail):
            line = line[: -len(tail)]
            break
    head, sep, expr = line.partition(" = ")
    assert sep, f"unexpected differing line: {line!r}"
    return head, normalize_terms(expr)


def _assert_same_up_to_term_order(a_text, b_text):
    a_lines, b_lines = a_text.splitlines(), b_text.splitlines()
    assert len(a_lines) == len(b_lines)
    for la, lb in zip(a_lines, b_lines):
        if la != lb:
            assert _expr_norm(la) == _expr_norm(lb)


def test_tex_commuted_is_reordering_of_canonical():
    for i in range(12):
        inst = synthesize_instance(d=2 + i % 7, k=1 + i % 3,
                                   constrained=(i % 4 == 0), seed=300 + i)
        canonical = render_objective(inst, WritingStyle.TEX_CANONICAL)
        commuted = render_objective(inst, WritingStyle.TEX_COMMUTED)
        _assert_same_up_to_term_order(canonical, commuted)


def test_tex_commuted_actually_commutes_something():
    hits = 0
    for i in range(20):
        inst = synthesize_instance(d=5, k=2, constrained=False, seed=600 + i)
        a = render_objective(inst, WritingStyle.TEX_CANONICAL)
        b = render_objective(inst, WritingStyle.TEX_COMMUTED)
        if a != b:
            hits += 1
    # single-term bodies cannot move, but most multi-component sums can
    assert hits >= 10


def test_tex_commuted_deterministic_in_seed():
    inst = synthesize_instance(d=6, k=3, constrained=False, seed=44)
    a = render_objective(inst, WritingStyle.TEX_COMMUTED)
    b = render_objective(inst, WritingStyle.TEX_COMMUTED)
    assert a == b


def test_tex_factored_same_components_other_constants():
    diffs = 0
    for seed in range(10):
        inst = synthesize_instance(d=4, k=2, constrained=False,
                                   seed=200 + seed)
        canonical = render_objective(inst, WritingStyle.TEX_CANONICAL)
        factored = render_objective(inst, WritingStyle.TEX_FACTORED)
        assert "\\text{where}" in canonical
        assert "\\text{where}" in factored
        assert "z^{(1)}" in factored and "z^{(2)}" in factored
        if factored != canonical:
            diffs += 1
    # most basics have a genuinely different factored form
    assert diffs >= 5


def test_tex_constraints_cover_all_specs():
    for seed in range(30):
        inst = synthesize_instance(d=4, k=1, constrained=True, seed=seed)
        text = render_constraints(inst, WritingStyle.TEX_CANONICAL)
        n_g = sum(0 if c.is_equality else 1 for c in inst.constraints)
        n_h = sum(1 if c.is_equality else 0 for c in inst.constraints)
        for j in range(1, n_g + 1):
            assert f"g_{{{j}}}" in text
        for j in range(1, n_h + 1):
            assert f"h_{{{j}}}" in text
        assert f"g_{{{n_g + 1}}}" not in text
        assert f"h_{{{n_h + 1}}}" not in text


def test_tex_constraint_commuted_normalizes_back():
    for seed in range(20):
        inst = synthesize_instance(d=3, k=1, constrained=True, seed=seed)
        a = render_constraints(inst, WritingStyle.TEX_CANONICAL)
        b = render_constraints(inst, WritingStyle.TEX_COMMUTED)
        _assert_same_up_to_term_order(a, b)


# ---------------------------------------------------------------------------
# term machinery units


def test_split_terms_top_level_only():
    assert split_signed_terms("a + b - c") == [(1, "a"), (1, "b"), (-1, "c")]
    assert split_signed_terms("e^{a+b} - c") == [(1, "e^{a+b}"), (-1, "c")]
    assert split_signed_terms("-x + y") == [(-1, "x"), (1, "y")]
    assert split_signed_terms("(a - b) + c") == [(1, "(a - b)"), (1, "c")]


def test_split_respects_bracket_like_delimiters():
    s = r"\lvert a - b \rvert + c"
    assert split_signed_terms(s) == [(1, r"\lvert a - b \rvert"), (1, "c")]


def test_join_round_trips_split():
    for s in ("a + b - c", "-u + v", "x", r"e^{-a} - 2 + \cos(t)"):
        terms = split_signed_terms(s)
        assert split_signed_terms(join_signed_terms(terms)) == terms


def test_normalize_is_idempotent_and_order_free():
    a = "b + a - c"
    b = "a - c + b"
    na, nb = normalize_terms(a), normalize_terms(b)
    assert na == nb
    assert normalize_terms(na) == na


def test_normalize_keeps_subscript_expressions_verbatim():
    s = "x_{i+1} + a"
    out = normalize_terms(s)
    assert "x_{i+1}" in out


def test_tex_num_forms():
    assert tex_num(3.0) == "3.0"
    assert tex_num(-2.5) == "-2.5"
    assert tex_num(1e-05) == r"1 \times 10^{-5}"
    assert tex_num(2.5e17) == r"2.5 \times 10^{17}"


def test_permute_terms_is_a_permutation():
    s = "a + b - c + d"
    rng = np.random.default_rng(3)
    out = permute_terms(s, rng)
    assert sorted(split_signed_terms(out)) == sorted(split_signed_terms(s))


def _lhs(line):
    """The formula of one display line: after the head, before ``= 0``
    or ``\\le 0``."""
    return line.partition(" = ")[2].rsplit(" ", 2)[0]


def _formula_corpus():
    """Every objective and constraint formula of a seeded corpus, in the
    canonical, factored and commuted styles, plus hand-written edge
    cases (leading and doubled signs, blank input, bare backslashes)."""
    formulas = ["a + b - c", "-x + y", "a + - b", "  ", "", r"\, a - \;b",
                "x_{i+1} + a^{b-c}{d - e}", r"\lvert b - a \rvert^{2} - c"]
    basics, kinds, weighted = set(), set(), False
    for i in range(40):
        d = 2 + i % 7
        inst = synthesize_instance(d=d, k=min(1 + i % 4, d),
                                   constrained=i % 2 == 0, seed=900 + i)
        basics.update(c.basic for c in inst.components)
        kinds.update(c.kind for c in inst.constraints)
        weighted |= any(c.segment is None and c.weight != 1.0
                        for c in inst.components)
        for style in TEX_STYLES:
            formulas.append(render_objective(inst, style).partition(" = ")[2]
                            .split("\n")[0])
            block = render_constraints(inst, style)
            formulas.extend(_lhs(line) for line in block.splitlines()
                            if line.startswith(("g_", "h_")))
    assert basics == set(BASIC_NAMES)
    assert kinds == set(CONSTRAINT_TEMPLATES)
    assert weighted
    return formulas


def test_term_machinery_matches_reference():
    """The token-list splitter and rewriter give the character-loop
    reference's results on every formula the renderer writes."""
    for s in _formula_corpus():
        assert split_signed_terms(s) == ref_split_signed_terms(s)
        assert normalize_terms(s) == ref_normalize_terms(s)
        for seed in range(3):
            got = permute_terms(s, np.random.default_rng(seed))
            assert got == ref_permute_terms(s, np.random.default_rng(seed))


def test_unclosed_group_keeps_every_token():
    assert normalize_terms("(b + a") == "(a + b"


# ---------------------------------------------------------------------------
# prompt assembly


def _first_constrained(seed0=0):
    for seed in range(seed0, seed0 + 50):
        inst = synthesize_instance(d=3, k=1, constrained=True, seed=seed)
        if inst.constraints:
            return inst
    raise AssertionError("no constrained instance found")


@pytest.mark.parametrize("style", list(WritingStyle), ids=lambda s: s.value)
def test_prompt_sections_in_order(style):
    inst = synthesize_instance(d=3, k=2, constrained=False, seed=5,
                               fe_budget=1234)
    doc = render_prompt(inst, style)
    text = doc.text
    anchors = [
        "You are an expert in numerical optimization.",
        "Minimize the objective function defined in the following block.",
        "```",
        "The search space is 3-dimensional",
        "You may use at most 1234 objective function evaluations.",
        "Reply with a single complete Python program",
    ]
    pos = -1
    for anchor in anchors:
        nxt = text.find(anchor)
        assert nxt > pos, f"missing or misplaced: {anchor}"
        pos = nxt
    tag = "python" if style in PY_STYLES else "latex"
    assert f"```{tag}\n" in text
    assert text.endswith("\n")
    assert doc.style == style.value


def test_prompt_constrained_includes_tolerance_and_second_fence():
    inst = _first_constrained()
    doc = render_prompt(inst, WritingStyle.PY_VECTOR)
    assert "must satisfy the following constraints" in doc.text
    assert f"|h(x)| <= {EPS_EQ!r}" in doc.text
    assert doc.text.count("```python\n") == 2


def test_prompt_unconstrained_has_single_fence():
    inst = synthesize_instance(d=4, k=1, constrained=False, seed=8)
    doc = render_prompt(inst, WritingStyle.PY_LOOP)
    assert doc.text.count("```python\n") == 1
    assert "constraint" not in doc.text.lower()


def test_prompt_bounds_are_plain_floats():
    inst = synthesize_instance(d=3, k=1, constrained=False, seed=9)
    doc = render_prompt(inst, WritingStyle.PY_LOOP)
    assert "np.float64" not in doc.text


def test_prompt_deterministic():
    inst = synthesize_instance(d=5, k=2, constrained=False, seed=10)
    for style in WritingStyle:
        assert render_prompt(inst, style).text == render_prompt(inst, style).text


def test_prompt_rejects_unknown_style():
    inst = synthesize_instance(d=3, k=1, constrained=False, seed=11)
    with pytest.raises(ValueError):
        render_prompt(inst, "markdown")


# ---------------------------------------------------------------------------
# the per-instance literal table


_ODD = [1e-05, 2.5e17, -0.0, 0.1]  # scientific notation and a signed zero


def _tiny_turn(eps):
    """Rotation by a small angle: entries print in scientific notation."""
    c, s = np.cos(eps), np.sin(eps)
    return np.array([[c, -s], [s, c]])


def _literal_instances():
    """Hand-made instances covering every kind of embedded data."""
    quarter = np.array([[-0.0, -1.0], [1.0, 0.0]])
    rotation = make_rotation(4, np.random.default_rng(1))
    comp = ProblemInstance(
        d=4, bounds=[[-5.0, 5.0]] * 4, paradigm="composition",
        components=[
            ComponentSpec("rastrigin", TransformSpec(rotation, np.array(_ODD)),
                          weight=0.5),
            ComponentSpec("levy", TransformSpec(np.eye(4), np.array(_ODD[::-1])),
                          weight=1.0),
        ],
        constraints=[
            ConstraintSpec("linear", _ODD, {"a": [1e-05, -0.0, 0.5, 2.5e17],
                                            "b": 0.25}),
            ConstraintSpec("ball", [0.5, -0.0, 1e-05, 0.0], {"radius": 1e-05}),
            ConstraintSpec("cumsum_zero", [2.5e17, 0.0, 0.0, -1.5], {}),
            ConstraintSpec("chain_zero", [-0.0] * 4, {}),
            ConstraintSpec("product", [0.1, 0.2, 0.3, 1e-05], {"c": -0.5}),
            ConstraintSpec("sinusoid", [0.0, 0.0, 0.0, 2.5e17], {"b": 1.0}),
        ],
        fe_budget=900, seed=4)
    hybrid = ProblemInstance(
        d=6, bounds=[[-1.0, 1.0]] * 5 + [[-2.0, 3.0]], paradigm="hybrid",
        components=[
            ComponentSpec("sphere", TransformSpec(_tiny_turn(1e-05),
                                                  np.array([-0.0, 1e-05])),
                          segment=(0, 2)),
            ComponentSpec("katsuura", TransformSpec(np.eye(1), np.array([0.3])),
                          segment=(1,)),
            ComponentSpec("griewank", TransformSpec(quarter, np.zeros(2)),
                          segment=(3, 4)),
            ComponentSpec("ackley", TransformSpec(np.eye(1), np.zeros(1)),
                          segment=(5,)),
        ],
        constraints=[ConstraintSpec("linear", [0.0] * 6,
                                    {"a": [1.0, -0.0, 1e-05, 0.5, 2.0, 3.0],
                                     "b": 0.0})],
        fe_budget=700, seed=5)
    return [comp, hybrid] + _sweep(9, constrained_every=2)


def _per_element_table(inst):
    """The table as the old per-element formatters made it:
    ``repr(float(v))`` over numpy elements and ``tex_num`` per element."""

    def py(values):
        return ", ".join(repr(float(v)) for v in values)

    def tex(values, sep=", "):
        return sep.join(tex_num(v) for v in values)

    comps = []
    for comp in inst.components:
        tf = comp.transform
        rot = tf.rotation if not np.array_equal(tf.rotation, np.eye(tf.d)) else []
        comps.append(SimpleNamespace(
            has_rotation=len(rot) > 0, has_shift=bool(tf.shift.any()),
            rotation_py=[py(row) for row in rot],
            rotation_tex=[tex(row, " & ") for row in rot],
            shift_py=py(tf.shift), shift_tex=tex(tf.shift)))
    cons = [SimpleNamespace(center_py=py(spec.center), center_tex=tex(spec.center),
                            a_py=py(spec.params.get("a", [])),
                            a_tex=tex(spec.params.get("a", [])))
            for spec in inst.constraints]
    return SimpleNamespace(instance=inst, components=comps, constraints=cons)


@pytest.mark.parametrize("style", list(WritingStyle), ids=lambda s: s.value)
def test_literal_table_matches_per_element_formatting(style):
    for inst in _literal_instances():
        want = render_prompt(inst, style, table=_per_element_table(inst)).text
        assert render_prompt(inst, style).text == want
        assert render_prompt(inst, style, table=LiteralTable(inst)).text == want


def test_literal_instances_reach_every_data_form():
    comp, hybrid = _literal_instances()[:2]
    assert {s.kind for s in comp.constraints} == {
        "linear", "ball", "cumsum_zero", "chain_zero", "product", "sinusoid"}
    py = render_prompt(comp, WritingStyle.PY_VECTOR).text
    tex = render_prompt(comp, WritingStyle.TEX_CANONICAL).text
    assert "o2 = np.array([0.1, -0.0, 2.5e+17, 1e-05])" in py
    assert "con1_a = np.array([1e-05, -0.0, 0.5, 2.5e+17])" in py
    assert r"o^{(1)} = (1 \times 10^{-5}, 2.5 \times 10^{17}, -0.0, 0.1)" in tex
    assert r"a^{(1)} = (1 \times 10^{-5}, -0.0, 0.5, 2.5 \times 10^{17})" in tex
    assert "M2" not in py  # identity rotation with a shift
    loop = render_prompt(hybrid, WritingStyle.PY_LOOP).text
    assert "M1 = [\n    [0.99999999995, " in loop
    assert "s1 = [0, 2]" in loop and "o3" not in loop and "M4" not in loop
    assert r"\times 10^{-6}" in render_prompt(hybrid, WritingStyle.TEX_FACTORED).text
    assert "-0.0 & -1.0" in render_prompt(hybrid, WritingStyle.TEX_COMMUTED).text


def test_literal_table_of_another_instance_is_rejected():
    a, b = _sweep(2)
    with pytest.raises(ValueError):
        render_prompt(a, WritingStyle.PY_LOOP, table=LiteralTable(b))


# ---------------------------------------------------------------------------
# answer programs


def _entry(optimizer, config, degenerate=False):
    return KnowledgeEntry(instance_id="deadbeef0123", best_optimizer=optimizer,
                          best_config=config, best_config_index=0,
                          f_star=0.0, mean_eval=1.0, degenerate=degenerate)


@pytest.mark.parametrize("optimizer", sorted(GRIDS))
def test_answer_compiles_for_grid_config(optimizer):
    _, config = enumerate_configs(optimizer, cap=1)[0]
    code = emit_answer(_entry(optimizer, config))
    compile(code, "<answer>", "exec")
    assert "from opt_runtime import BudgetExhausted, load_problem" in code
    for value in config.values():
        assert repr(value) in code


def test_answer_templates_cover_pool():
    for optimizer in GRIDS:
        assert callable(get_optimizer(optimizer))
        assert f"def {optimizer}(tracker, config, rng):" in emit_answer(
            _entry(optimizer, config_at(optimizer, 0)))


def _without_docstrings(tree):
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and ast.get_docstring(node, clean=False) is not None):
            node.body = node.body[1:] or [ast.Pass()]
    return tree


@pytest.fixture
def unstripped_answers(monkeypatch):
    """Answers emitted with every comment and docstring kept."""
    answers._optimizer_source.cache_clear()
    monkeypatch.setattr(answers, "_strip_prose", lambda source: source)
    try:
        return {o: emit_answer(_entry(o, config_at(o, 0)))
                for o in GRIDS}
    finally:
        monkeypatch.undo()
        answers._optimizer_source.cache_clear()


def test_answers_are_code_without_prose(unstripped_answers):
    for optimizer, full in unstripped_answers.items():
        code = emit_answer(_entry(optimizer, config_at(optimizer, 0)))
        compile(code, "<answer>", "exec")
        tree = ast.parse(code)
        assert ast.dump(tree) == ast.dump(_without_docstrings(ast.parse(full)))
        assert all(ast.get_docstring(node, clean=False) is None
                   for node in ast.walk(tree) if isinstance(
                       node, (ast.FunctionDef, ast.ClassDef)))
        comments = [tok.string for tok in tokenize.generate_tokens(
            io.StringIO(code).readline) if tok.type == tokenize.COMMENT]
        assert comments == [code.splitlines()[0]]
        assert code.splitlines()[0].startswith(f"# {optimizer} ")
        # the unstripped source had prose to strip: comments or docstrings
        assert len(full.splitlines()) > len(code.splitlines())


def test_strip_prose_keeps_layout():
    source = (
        'def f(a,  # the first\n'
        '      b):\n'
        '    """Doc.\n'
        '\n'
        '    More."""\n'
        '\n'
        '    # a note\n'
        '    s = "# not a comment"  # a comment\n'
        '    return (a +\n'
        '            b)  # sum\n'
    )
    assert answers._strip_prose(source) == (
        'def f(a,\n'
        '      b):\n'
        '    s = "# not a comment"\n'
        '    return (a +\n'
        '            b)'
    )


def test_answer_degenerate_entry_raises():
    with pytest.raises(DegenerateEntryError):
        emit_answer(_entry("random_search", {}, degenerate=True))


def test_answer_unknown_optimizer_raises():
    with pytest.raises(KeyError):
        emit_answer(_entry("gradient_descent", {}))


def test_answer_rejects_config_off_the_grid():
    # a knowledge entry written while bipop_cma_es still had mean_decay
    stale = dict(config_at("bipop_cma_es", 0), mean_decay=0.0)
    with pytest.raises(ValueError, match="mean_decay"):
        emit_answer(_entry("bipop_cma_es", stale))


def test_definition_source_rejects_changed_file(tmp_path, monkeypatch):
    path = tmp_path / "stale_source_mod.py"
    path.write_text(
        "import numpy as np\n\n\n"
        "class Box:\n"
        "    def scale(self, u):\n"
        "        return np.asarray(u) * 2.0\n\n\n"
        "def step(x):\n"
        "    return np.sqrt(x) + 1.0\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "stale_source_mod", raising=False)
    import stale_source_mod as mod

    assert answers._definition_source(mod.step) == (
        "def step(x):\n    return np.sqrt(x) + 1.0")
    assert answers._definition_source(mod.Box).startswith("class Box:")

    # same lines, another constant in Box (and another file size, which
    # is what tells linecache to reread the file)
    path.write_text(path.read_text().replace("* 2.0", "* 2.25"))
    with pytest.raises(ValueError, match="Box"):
        answers._definition_source(mod.Box)
    assert answers._definition_source(mod.step).startswith("def step(x):")
    # lines shift: the recorded line of step now holds other code
    path.write_text("import math\n\n\n" + path.read_text())
    with pytest.raises(ValueError, match="step"):
        answers._definition_source(mod.step)
    monkeypatch.delitem(sys.modules, "stale_source_mod")


def _small_config(optimizer):
    """Smallest population, middle value of every other parameter."""
    return {name: values[0] if name in ("NP", "n_individuals", "n_samples")
            else values[len(values) // 2]
            for name, values in GRIDS[optimizer].items()}


_ANSWER_INSTANCES = {
    "unconstrained": synthesize_instance(d=4, k=2, constrained=False, seed=30),
    "constrained": synthesize_instance(d=3, k=1, constrained=True, seed=31),
}


@pytest.mark.parametrize("kind", sorted(_ANSWER_INSTANCES))
@pytest.mark.parametrize("optimizer", sorted(GRIDS))
def test_answer_reproduces_bench_run(optimizer, kind, monkeypatch,
                                     run_trackers):
    """The shipped program is the benchmarked one: executed alone against
    a tracker-backed runtime, it spends the same evaluations and ends on
    the same best point as the bench run at seed 0."""
    instance = _ANSWER_INSTANCES[kind]
    assert instance.constrained == (kind == "constrained")
    config = _small_config(optimizer)
    budget = 400
    code = emit_answer(_entry(optimizer, config))
    imported = set()
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert not any(m.split(".")[0] == "optforge" for m in imported), imported

    tracker = ObjectiveTracker(instance, budget)
    runtime = types.ModuleType("opt_runtime")
    runtime.load_problem = lambda: tracker
    runtime.BudgetExhausted = BudgetExhausted
    monkeypatch.setitem(sys.modules, "opt_runtime", runtime)
    exec(compile(code, "<answer>", "exec"), {"__name__": "__main__"})

    bench = run(optimizer, config, instance, budget, seed=0)
    assert bench.status == "ok", bench.message
    assert tracker.fe_used == bench.fe_used
    assert tracker.best_f == bench.best_f
    assert tracker.best_violation == bench.best_violation
    assert tracker.trace == bench.trace
    assert (tracker.f0, tracker.f0_violation) == (bench.f0, bench.f0_violation)
    (bench_tracker,) = run_trackers
    assert tracker.best_x.tolist() == bench_tracker.best_x.tolist()
