import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optforge.problems.basic import BASIC_FUNCTIONS
from optforge.problems.instance import (ProblemInstance, evaluate_batch,
                                        instance_from_dict, instance_to_dict,
                                        load_instances, save_instances)
from optforge.problems.synthesis import synthesize_instance, synthesize_set

from reference_impls import ref_instance_value


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=20),
       st.integers(min_value=1, max_value=5),
       st.booleans(),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_instance_well_formed(d, k, constrained, seed):
    k = min(k, d)
    inst = synthesize_instance(d=d, k=k, constrained=constrained, seed=seed)
    assert inst.d == d
    assert inst.k == k
    assert inst.constrained == constrained
    assert (inst.paradigm == "single") == (k == 1)
    assert inst.bounds.shape == (d, 2)
    assert np.all(inst.bounds[:, 0] < inst.bounds[:, 1])
    if constrained:
        assert 1 <= len(inst.constraints) <= 3
    else:
        assert inst.constraints == ()
    if inst.paradigm == "hybrid":
        covered = sorted(i for c in inst.components for i in c.segment)
        assert covered == list(range(d))
    else:
        assert all(c.weight is not None for c in inst.components)
        if inst.paradigm == "composition":
            assert all(0.0 <= c.weight <= 1.0 for c in inst.components)


def test_single_weight_is_one():
    inst = synthesize_instance(d=5, k=1, constrained=False, seed=3)
    assert inst.paradigm == "single"
    assert inst.components[0].weight == 1.0


def test_deterministic_by_seed():
    a = synthesize_instance(d=6, k=3, constrained=True, seed=77)
    b = synthesize_instance(d=6, k=3, constrained=True, seed=77)
    assert a.id == b.id
    assert instance_to_dict(a) == instance_to_dict(b)
    c = synthesize_instance(d=6, k=3, constrained=True, seed=78)
    assert a.id != c.id


def test_value_matches_scalar_recomposition():
    rng = np.random.default_rng(1)
    for seed in range(25):
        d = int(rng.integers(2, 10))
        k = int(rng.integers(1, min(5, d) + 1))
        inst = synthesize_instance(d=d, k=k, constrained=False, seed=seed)
        x = rng.uniform(inst.bounds[:, 0], inst.bounds[:, 1], (6, d))
        f, _ = evaluate_batch(inst, x)
        want = np.array([ref_instance_value(inst, list(row)) for row in x])
        np.testing.assert_allclose(f, want, rtol=1e-10, atol=1e-10)


def test_composition_is_linear_in_weights():
    inst = synthesize_instance(d=4, k=3, constrained=False, seed=101)
    if inst.paradigm != "composition":
        inst = synthesize_instance(d=4, k=3, constrained=False, seed=104)
    assert inst.paradigm == "composition"
    rng = np.random.default_rng(0)
    x = rng.uniform(inst.bounds[:, 0], inst.bounds[:, 1], (8, 4))
    f, _ = evaluate_batch(inst, x)
    total = np.zeros(8)
    for comp in inst.components:
        z = comp.transform.apply(x)
        total += comp.weight * BASIC_FUNCTIONS[comp.basic](z)
    np.testing.assert_allclose(f, total, rtol=1e-12)


def test_shift_moves_the_minimum():
    # single sphere: transform puts the optimum at the shift point
    for seed in range(40):
        inst = synthesize_instance(d=3, k=1, constrained=False, seed=seed)
        if inst.components[0].basic == "sphere":
            shift = inst.components[0].transform.shift
            assert abs(evaluate_batch(inst, shift[None])[0][0]) < 1e-18
            break
    else:
        pytest.skip("no sphere instance among the probed seeds")


def test_shift_inside_bounds():
    for seed in range(20):
        inst = synthesize_instance(d=5, k=2, constrained=False, seed=seed)
        for comp in inst.components:
            lo = inst.bounds[:, 0] if comp.segment is None else \
                inst.bounds[list(comp.segment), 0]
            hi = inst.bounds[:, 1] if comp.segment is None else \
                inst.bounds[list(comp.segment), 1]
            assert np.all(comp.transform.shift >= lo)
            assert np.all(comp.transform.shift <= hi)


def test_k_larger_than_d_rejected():
    with pytest.raises(ValueError):
        synthesize_instance(d=2, k=3, constrained=False, seed=0)


def test_fe_budget_propagates():
    inst = synthesize_instance(d=3, k=1, constrained=False, seed=5,
                               fe_budget=1234)
    assert inst.fe_budget == 1234


def test_set_layout_and_determinism():
    a = synthesize_set(4, 3, d_range=(2, 6), k_range=(1, 3), master_seed=9,
                       fe_budget=500)
    b = synthesize_set(4, 3, d_range=(2, 6), k_range=(1, 3), master_seed=9,
                       fe_budget=500)
    assert [i.id for i in a] == [i.id for i in b]
    assert len(a) == 7
    assert [i.constrained for i in a] == [False] * 4 + [True] * 3
    assert len({i.id for i in a}) == 7


def test_set_prefix_stability():
    # instance i does not depend on how many instances follow it
    small = synthesize_set(3, 0, d_range=(2, 6), k_range=(1, 3), master_seed=4)
    large = synthesize_set(5, 0, d_range=(2, 6), k_range=(1, 3), master_seed=4)
    assert [i.id for i in small] == [i.id for i in large[:3]]


def test_set_validates_ranges():
    with pytest.raises(ValueError):
        synthesize_set(1, 0, d_range=(5, 2))
    with pytest.raises(ValueError):
        synthesize_set(1, 0, d_range=(2, 4), k_range=(3, 5))


def test_serialization_round_trip(tmp_path):
    insts = synthesize_set(3, 2, d_range=(2, 6), k_range=(1, 3), master_seed=2)
    path = tmp_path / "instances.jsonl"
    save_instances(insts, path)
    back = load_instances(path)
    assert [i.id for i in back] == [i.id for i in insts]
    x = np.random.default_rng(0).uniform(-1, 1, (4, insts[0].d))
    f_a, v_a = evaluate_batch(insts[0], x)
    f_b, v_b = evaluate_batch(back[0], x)
    np.testing.assert_array_equal(f_a, f_b)
    np.testing.assert_array_equal(v_a, v_b)


def test_serialization_byte_stable(tmp_path):
    insts = synthesize_set(2, 1, d_range=(2, 5), k_range=(1, 2), master_seed=8)
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    save_instances(insts, p1)
    save_instances(insts, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_instances_names_line_of_missing_field(tmp_path):
    insts = synthesize_set(2, 0, d_range=(2, 3), k_range=(1, 1), master_seed=4)
    rows = [instance_to_dict(i) for i in insts]
    del rows[1]["bounds"]
    path = tmp_path / "instances.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(ValueError) as err:
        load_instances(path)
    assert f"{path}:2:" in str(err.value)
    assert "bounds" in str(err.value)


def test_load_instances_rejects_second_line_for_an_instance(tmp_path):
    insts = synthesize_set(2, 0, d_range=(2, 3), k_range=(1, 1), master_seed=4)
    path = tmp_path / "instances.jsonl"
    save_instances([*insts, insts[0]], path)
    with pytest.raises(ValueError) as err:
        load_instances(path)
    assert f"{path}:3: second instance {insts[0].id}" in str(err.value)


def test_tampered_id_rejected(tmp_path):
    inst = synthesize_instance(d=3, k=1, constrained=False, seed=1)
    d = instance_to_dict(inst)
    d["id"] = "0" * 12
    with pytest.raises(ValueError):
        instance_from_dict(d)


@pytest.mark.parametrize("where", ["top", "component", "constraint"])
def test_load_instances_rejects_unknown_field(tmp_path, where):
    insts = [synthesize_instance(d=3, k=2, constrained=True, seed=s)
             for s in (1, 2)]
    rows = [instance_to_dict(i) for i in insts]
    target = {"top": rows[1], "component": rows[1]["components"][0],
              "constraint": rows[1]["constraints"][0]}[where]
    target["junk"] = 1
    path = tmp_path / "instances.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(ValueError) as err:
        load_instances(path)
    assert f"{path}:2:" in str(err.value)
    assert "junk" in str(err.value)


def test_load_instances_names_line_of_constraint_without_parameter(tmp_path):
    insts = [synthesize_instance(d=3, k=1, constrained=True, seed=s)
             for s in (1, 2)]
    rows = [instance_to_dict(i) for i in insts]
    con = next(c for c in rows[1]["constraints"] if c["params"])
    con["params"].popitem()
    path = tmp_path / "instances.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(ValueError) as err:
        load_instances(path)
    assert f"{path}:2:" in str(err.value)
    assert "takes parameters" in str(err.value)


def _content(inst):
    return {k: v for k, v in vars(inst).items() if k not in ("id", "_plan")}


def test_constructor_derives_the_synthesized_id():
    inst = synthesize_instance(d=4, k=2, constrained=True, seed=5)
    assert ProblemInstance(**_content(inst)).id == inst.id


def test_constructor_rejects_wrong_id():
    inst = synthesize_instance(d=4, k=2, constrained=True, seed=5)
    with pytest.raises(ValueError, match="does not match"):
        ProblemInstance(**_content(inst), id="0" * 12)


def test_paradigm_mix_present():
    insts = synthesize_set(30, 0, d_range=(2, 10), k_range=(1, 4),
                           master_seed=123)
    paradigms = {i.paradigm for i in insts}
    assert paradigms == {"single", "composition", "hybrid"}
