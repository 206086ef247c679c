"""Instruction-pair assembly, the instance-level split, label-balanced
sampling and the contrastive objective."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optforge.dataset as dataset
from optforge.bench import KnowledgeEntry
from optforge.dataset import (InstructionPair, SamplingPlan,
                              batch_contrastive_loss, build_instruction_set,
                              load_pairs, sampling_weights, save_pairs,
                              split_pairs)
from optforge.optimizers.grids import enumerate_configs
from optforge.problems.synthesis import synthesize_instance
from optforge.render import PY_STYLES, TEX_STYLES, LiteralTable, WritingStyle
from optforge.render.prompts import render_prompt

from reference_impls import ref_batch_contrastive_loss


def _instances(n, seed0=0):
    return [synthesize_instance(d=3, k=1, constrained=False, seed=seed0 + i,
                                fe_budget=500) for i in range(n)]


def _entry_for(inst, optimizer="vanilla_de", degenerate=False):
    if degenerate:
        return KnowledgeEntry(inst.id, "random_search", {}, 0, None, 0.0,
                              degenerate=True)
    _, config = enumerate_configs(optimizer, cap=1)[0]
    return KnowledgeEntry(inst.id, optimizer, config, 0, 1.0, 0.9)


# ---------------------------------------------------------------------------
# build_instruction_set


def _build(*args, **kwargs):
    pairs, skipped = build_instruction_set(*args, **kwargs)
    return list(pairs), skipped


def test_build_crosses_instances_with_styles():
    instances = _instances(3)
    knowledge = [_entry_for(i) for i in instances]
    pairs, skipped = _build(instances, knowledge)
    assert skipped == []
    assert len(pairs) == 3 * 6
    seen = {(p.instance_id, p.style) for p in pairs}
    assert len(seen) == 18
    for p in pairs:
        assert p.label == "vanilla_de"
        assert "You are an expert in numerical optimization." in p.q
        assert "from opt_runtime import BudgetExhausted, load_problem" in p.a


def test_build_accepts_entry_sequence_and_style_subset():
    instances = _instances(2)
    entries = [_entry_for(i, "nsa") for i in instances]
    pairs, _ = _build(instances, entries, styles=["py_loop", "tex_canonical"])
    assert len(pairs) == 4
    assert {p.style for p in pairs} == {"py_loop", "tex_canonical"}
    assert {p.label for p in pairs} == {"nsa"}


def test_build_prompt_matches_direct_render():
    instances = _instances(1, seed0=50)
    knowledge = [_entry_for(instances[0])]
    pairs, _ = _build(instances, knowledge, styles=["tex_commuted"])
    doc = render_prompt(instances[0], WritingStyle.TEX_COMMUTED)
    assert pairs[0].q == doc.text


def _mixed_instances():
    return [synthesize_instance(d=2 + 3 * i, k=1 + i % 3,
                                constrained=i % 2 == 1, seed=70 + i,
                                fe_budget=500) for i in range(5)]


def test_build_pairs_match_unshared_renders():
    instances = _mixed_instances()
    knowledge = [_entry_for(i, degenerate=i is instances[3])
                 for i in instances]
    pairs, skipped = _build(instances, knowledge)
    kept = [i for i in instances if i is not instances[3]]
    assert skipped == [instances[3].id]
    assert len(pairs) == 6 * len(kept)
    want = [(inst.id, style.value,
             render_prompt(inst, style).text)
            for inst in kept for style in WritingStyle]
    assert [(p.instance_id, p.style, p.q) for p in pairs] == want


def test_shared_table_text_does_not_depend_on_style_order():
    for inst in _mixed_instances():
        fresh = {s: render_prompt(inst, s).text for s in WritingStyle}
        for order in (TEX_STYLES + PY_STYLES, PY_STYLES + TEX_STYLES):
            table = LiteralTable(inst)
            for s in order:
                doc = render_prompt(inst, s, table=table)
                assert doc.text == fresh[s]


def test_build_missing_knowledge_lists_ids():
    instances = _instances(2)
    knowledge = [_entry_for(instances[0])]
    with pytest.raises(ValueError) as err:
        build_instruction_set(instances, knowledge)
    assert instances[1].id in str(err.value)


def test_build_degenerate_skip_drops_all_styles():
    instances = _instances(3)
    knowledge = [_entry_for(i, degenerate=i is instances[2])
                 for i in instances]
    pairs, skipped = _build(instances, knowledge)
    assert skipped == [instances[2].id]
    assert len(pairs) == 2 * 6
    assert instances[2].id not in {p.instance_id for p in pairs}


def test_build_deterministic():
    instances = _instances(2, seed0=9)
    knowledge = [_entry_for(i) for i in instances]
    a, _ = _build(instances, knowledge)
    b, _ = _build(instances, knowledge)
    assert a == b


def test_build_renders_one_instance_at_a_time(monkeypatch):
    instances = _instances(3)
    knowledge = [_entry_for(i) for i in instances]
    rendered = []
    real_render = dataset.render_prompt

    def spy(inst, style, **kwargs):
        rendered.append(inst.id)
        return real_render(inst, style, **kwargs)

    monkeypatch.setattr(dataset, "render_prompt", spy)
    pairs, _ = build_instruction_set(instances, knowledge)
    assert rendered == []
    assert next(pairs).instance_id == instances[0].id
    assert 1 <= len(rendered) <= len(WritingStyle)
    assert set(rendered) == {instances[0].id}


# ---------------------------------------------------------------------------
# split


def _pairs(n_instances, styles=("s1", "s2", "s3")):
    out = []
    for i in range(n_instances):
        for s in styles:
            out.append(InstructionPair(q=f"q{i}", a=f"a{i}",
                                       instance_id=f"id{i:03d}", style=s,
                                       label="l"))
    return out


def _ids(n_instances, copies=3):
    """Instance ids as a pairs file lists them: one per pair."""
    return [f"id{i:03d}" for i in range(n_instances) for _ in range(copies)]


def test_split_picks_whole_instances():
    ids = _ids(20)
    test_ids = split_pairs(ids, test_fraction=0.25, seed=1)
    assert len(test_ids) == 5
    assert test_ids <= set(ids)


def test_split_fraction_rounding_and_edges():
    ids = _ids(10)
    assert len(split_pairs(ids, test_fraction=0.1)) == 1
    assert split_pairs(ids, test_fraction=0.0) == set()
    assert split_pairs(iter(ids), test_fraction=1.0) == set(ids)


def test_split_deterministic_and_seed_sensitive():
    ids = _ids(30)
    a = split_pairs(ids, 0.2, seed=4)
    b = split_pairs(reversed(ids), 0.2, seed=4)
    c = split_pairs(ids, 0.2, seed=5)
    assert a == b
    assert a != c


def test_split_rejects_bad_fraction():
    with pytest.raises(ValueError):
        split_pairs(_ids(2), test_fraction=1.5)


# ---------------------------------------------------------------------------
# serialization


def test_pairs_round_trip_and_byte_stability(tmp_path):
    pairs = _pairs(3)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_pairs(pairs, p1)
    save_pairs(pairs, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert list(load_pairs(p1)) == pairs
    obj = json.loads(p1.read_text().splitlines()[0])
    assert list(obj) == sorted(obj)


def test_load_pairs_reports_line_of_missing_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = {"q": "q", "a": "a", "instance_id": "i", "style": "s",
            "label": "l"}
    bad = {"q": "q", "a": "a", "instance_id": "i", "style": "s"}
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ValueError) as err:
        list(load_pairs(path))
    assert ":2:" in str(err.value)
    assert "label" in str(err.value)


def test_load_pairs_rejects_unknown_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    row = {"q": "q", "a": "a", "instance_id": "i", "style": "s",
           "label": "l", "score": 1.0}
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(ValueError) as err:
        list(load_pairs(path))
    assert ":1:" in str(err.value)
    assert "score" in str(err.value)


def test_failed_save_keeps_the_old_file(tmp_path):
    # the second row cannot be serialized; the target keeps its old
    # bytes and no temp file is left beside it
    path = tmp_path / "pairs.jsonl"
    save_pairs(_pairs(1), path)
    before = path.read_bytes()
    bad = _pairs(2)
    bad[1] = InstructionPair(q="q", a={1}, instance_id="id", style="s",
                             label="l")
    with pytest.raises(TypeError):
        save_pairs(bad, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["pairs.jsonl"]


def test_save_pairs_sends_each_pair_to_its_side(tmp_path):
    pairs = _pairs(4)
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    counts = save_pairs(pairs, train, test,
                        side=lambda p: p.instance_id == "id002")
    assert counts == [9, 3]
    assert list(load_pairs(test)) == pairs[6:9]
    assert list(load_pairs(train)) == pairs[:6] + pairs[9:]


def test_failed_two_sided_save_keeps_both_old_files(tmp_path):
    paths = [tmp_path / "test.jsonl", tmp_path / "train.jsonl"]
    for path in paths:
        save_pairs(_pairs(1), path)
    before = [path.read_bytes() for path in paths]
    bad = _pairs(3)
    bad[-1] = InstructionPair(q="q", a={1}, instance_id="id002", style="s",
                              label="l")
    with pytest.raises(TypeError):
        save_pairs(bad, *paths, side=lambda p: p.instance_id == "id001")
    assert [path.read_bytes() for path in paths] == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "test.jsonl", "train.jsonl"]


def test_load_pairs_skips_blank_lines(tmp_path):
    path = tmp_path / "pairs.jsonl"
    save_pairs(_pairs(1), path)
    path.write_text(path.read_text() + "\n\n")
    assert len(list(load_pairs(path))) == 3


# ---------------------------------------------------------------------------
# sampling weights


def test_weights_inverse_label_frequency():
    w = sampling_weights(["big"] * 100 + ["mid"] * 10 + ["small"])
    assert w[0] == pytest.approx(1.0 / 300.0, abs=1e-18)
    assert w[100] == pytest.approx(1.0 / 30.0, abs=1e-18)
    assert w[110] == pytest.approx(1.0 / 3.0, abs=1e-18)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_weights_uniform_when_single_label():
    w = sampling_weights(["l"] * 12)
    assert np.allclose(w, 1.0 / 12)


def test_weights_empty_rejected():
    with pytest.raises(ValueError):
        sampling_weights([])


@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_weights_always_normalized(labels):
    w = sampling_weights(labels)
    assert math.isclose(float(w.sum()), 1.0, abs_tol=1e-9)
    assert (w > 0).all()
    # equal mass per label class
    for lab in set(labels):
        mass = sum(float(wi) for wi, l in zip(w, labels) if l == lab)
        assert math.isclose(mass, 1.0 / len(set(labels)), abs_tol=1e-9)


# ---------------------------------------------------------------------------
# batch drawing


def _mixed_pairs():
    out = []
    for i in range(6):
        for s in ("s1", "s2", "s3", "s4"):
            out.append(InstructionPair(
                q=f"q{i}{s}", a=f"a{i}", instance_id=f"id{i}", style=s,
                label="l1" if i < 4 else "l2"))
    return out


def test_homogeneous_batches_share_one_instance():
    plan = SamplingPlan.build(_mixed_pairs())
    rng = np.random.default_rng(0)
    for _ in range(50):
        batch = plan.draw_batch(4, rng, homogeneous=True)
        assert len({p.instance_id for p in batch}) == 1


def test_homogeneous_batch_larger_than_styles_uses_replacement():
    plan = SamplingPlan.build(_mixed_pairs())
    rng = np.random.default_rng(1)
    batch = plan.draw_batch(9, rng, homogeneous=True)
    assert len(batch) == 9
    assert len({p.instance_id for p in batch}) == 1


def test_iid_batches_follow_label_weights():
    plan = SamplingPlan.build(_mixed_pairs())
    rng = np.random.default_rng(2)
    counts = {"l1": 0, "l2": 0}
    n = 20000
    for p in plan.draw_batch(n, rng):
        counts[p.label] += 1
    # both labels carry mass 1/2 despite the 4:2 instance imbalance
    assert abs(counts["l1"] / n - 0.5) < 0.02
    assert abs(counts["l2"] / n - 0.5) < 0.02


def test_draw_batch_rejects_empty():
    plan = SamplingPlan.build(_mixed_pairs())
    with pytest.raises(ValueError):
        plan.draw_batch(0, np.random.default_rng(0))


def test_draw_batch_deterministic_under_same_rng_state():
    plan = SamplingPlan.build(_mixed_pairs())
    a = plan.draw_batch(6, np.random.default_rng(9), homogeneous=True)
    b = plan.draw_batch(6, np.random.default_rng(9), homogeneous=True)
    assert a == b


def test_homogeneous_draws_match_index_rebuilt_per_call():
    # the plan builds its per-instance index once; draws must equal those
    # from an index rebuilt on every call, for the same generator stream
    pairs = _mixed_pairs()
    plan = SamplingPlan.build(pairs)
    rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
    for n in (1, 3, 4, 9, 2, 5):
        got = plan.draw_batch(n, rng_a, homogeneous=True)
        by_instance = {}
        for i, p in enumerate(pairs):
            by_instance.setdefault(p.instance_id, []).append(i)
        ids = sorted(by_instance)
        mass = np.array([plan.weights[by_instance[k]].sum() for k in ids])
        members = by_instance[ids[int(rng_b.choice(len(ids),
                                                   p=mass / mass.sum()))]]
        w = plan.weights[members]
        idx = rng_b.choice(members, size=n, replace=n > len(members),
                           p=w / w.sum())
        assert got == [pairs[i] for i in idx]


# ---------------------------------------------------------------------------
# contrastive objective


def _pair_loss(u, v, same_label):
    """A two-row batch is exactly one pair: same labels score its cosine
    distance G, different labels the push term."""
    return batch_contrastive_loss([u, v], ["a", "a" if same_label else "b"])


def test_cosine_distance_reference_points():
    assert _pair_loss([1, 0], [1, 0], True) == 0.0
    assert _pair_loss([1, 0], [0, 1], True) == pytest.approx(0.5, abs=1e-15)
    assert _pair_loss([1, 0], [-1, 0], True) == pytest.approx(1.0, abs=1e-15)
    assert _pair_loss([2, 0], [5, 0], True) == 0.0  # scale-invariant
    # the cosine of this row with itself rounds to 1 + 2e-16: G stays in
    # [0, 1]
    assert _pair_loss([1.3, 0.4], [1.3, 0.4], True) == 0.0
    assert _pair_loss([1.3, 0.4], [-1.3, -0.4], True) == 1.0


def test_cosine_distance_rejects_zero_vector():
    with pytest.raises(ValueError):
        _pair_loss([0, 0], [1, 0], True)


def test_contrastive_loss_pulls_and_pushes():
    # same label: loss equals the distance itself
    assert _pair_loss([1, 0], [1, 0], True) == 0.0
    assert _pair_loss([1, 0], [-1, 0], True) == pytest.approx(1.0)
    # different label inside the margin: pushed by the shortfall
    assert _pair_loss([1, 0], [1, 0], False) == pytest.approx(0.3)
    # different label beyond the margin: no gradient
    assert _pair_loss([1, 0], [0, 1], False) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("same_label", [True, False])
def test_batch_loss_rejects_non_finite_rows(bad, same_label):
    # max(-1.0, nan) is -1.0, so clamping alone scores a NaN row as
    # antipodal
    with pytest.raises(ValueError, match="finite"):
        _pair_loss([bad, 0.0], [1.0, 0.0], same_label)
    with pytest.raises(ValueError, match="finite"):
        batch_contrastive_loss([[1.0, 0.0], [0.0, 1.0], [1.0, bad]],
                               ["a", "b", "a"])


def test_batch_loss_averages_all_unordered_pairs():
    z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    labels = ["a", "a", "b"]
    # pairs: (0,1) same -> 0; (0,2) diff -> max(0, .3-.5)=0; (1,2) diff -> 0
    assert batch_contrastive_loss(z, labels) == pytest.approx(0.0)
    z2 = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
    labels2 = ["a", "a", "b"]
    # (0,1) same -> 1; (0,2) diff -> 0.3; (1,2) diff -> max(0,.3-1)=0
    assert batch_contrastive_loss(z2, labels2) \
        == pytest.approx((1.0 + 0.3 + 0.0) / 3.0)


def test_batch_loss_degenerate_sizes():
    assert batch_contrastive_loss(np.ones((1, 3)), ["a"]) == 0.0
    assert batch_contrastive_loss(np.empty((0, 3)), []) == 0.0
    # under two rows there is no pair, so the row checks do not run
    assert batch_contrastive_loss(np.zeros((1, 3)), ["a"]) == 0.0
    assert batch_contrastive_loss([[np.nan, 0.0]], ["a"]) == 0.0


def test_batch_loss_shape_mismatch():
    with pytest.raises(ValueError):
        batch_contrastive_loss(np.ones((2, 3)), ["a"])


@given(st.integers(2, 6), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_batch_loss_bounded(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 4))
    labels = [str(rng.integers(0, 2)) for _ in range(n)]
    val = batch_contrastive_loss(z, labels)
    assert 0.0 <= val <= 1.0


@given(st.integers(2, 8), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_batch_loss_matches_reference(n, d, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, d))
    for k in range(1, n):
        # some rows repeat or negate an earlier row at another scale
        kind = rng.integers(0, 3)
        if kind:
            src = rng.integers(0, k)
            sign = 1.0 if kind == 1 else -1.0
            z[k] = sign * rng.uniform(0.5, 2.0) * z[src]
    labels = [str(v) for v in rng.integers(0, 3, size=n)]
    assert abs(batch_contrastive_loss(z, labels)
               - ref_batch_contrastive_loss(z, labels)) <= 1e-12
