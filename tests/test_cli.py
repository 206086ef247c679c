"""Command-line pipeline: each stage end to end on a desk-sized corpus,
config handling and output resumability."""

import ast
import copy
import dataclasses
import importlib
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import optforge.bench as bench
import optforge.dataset as dataset
from optforge.bench import load_knowledge
from optforge.cli import PipelineConfig, build_parser, main
from optforge.dataset import InstructionPair, load_pairs, save_pairs
from optforge.problems.instance import load_instances
from optforge.render import WritingStyle

from reference_impls import ref_split_pairs


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    cfg = {
        "n_unconstrained": 4,
        "n_constrained": 2,
        "d_min": 2,
        "d_max": 4,
        "k_min": 1,
        "k_max": 2,
        "fe_budget": 200,
        "runs": 2,
        "config_cap": 2,
        "pool": ["random_search", "vanilla_de"],
        "test_fraction": 0.25,
        "seed": 3,
    }
    path.write_text(json.dumps(cfg))
    return str(path)


OUTPUTS = ("instances", "knowledge", "records", "pairs", "train", "test")


def _run_pipeline(paths, *flags):
    """synth -> bench -> build -> split into ``paths``."""
    common = ["--config", paths["config"], *flags]
    assert main(["synth", *common, "--out", paths["instances"]]) == 0
    assert main(["bench", *common, "--instances", paths["instances"],
                 "--out", paths["knowledge"],
                 "--records", paths["records"]]) == 0
    assert main(["build", *common, "--instances", paths["instances"],
                 "--knowledge", paths["knowledge"],
                 "--out", paths["pairs"]]) == 0
    assert main(["split", *common, "--pairs", paths["pairs"],
                 "--train-out", paths["train"],
                 "--test-out", paths["test"]]) == 0


@pytest.fixture(scope="module")
def pipeline(tiny_config, tmp_path_factory):
    """Run the pipeline once; reuse the artifacts."""
    d = tmp_path_factory.mktemp("pipe")
    paths = {name: str(d / f"{name}.jsonl") for name in OUTPUTS}
    paths["config"] = tiny_config
    _run_pipeline(paths)
    return paths


# ---------------------------------------------------------------------------
# config


def test_config_round_trip(tmp_path):
    cfg = PipelineConfig(n_unconstrained=7, seed=9)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    loaded = PipelineConfig.from_json(path)
    assert loaded == cfg


def test_config_rejects_unknown_fields(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_unconstrained": 2, "n_problems": 9}))
    with pytest.raises(ValueError) as err:
        PipelineConfig.from_json(path)
    assert "n_problems" in str(err.value)


def test_config_defaults_are_full_scale():
    cfg = PipelineConfig()
    assert cfg.n_unconstrained == 80
    assert cfg.n_constrained == 20
    assert (cfg.d_min, cfg.d_max) == (2, 50)
    assert (cfg.k_min, cfg.k_max) == (1, 5)
    assert cfg.fe_budget == 40000
    assert cfg.runs == 5
    assert cfg.config_cap == 64
    assert len(cfg.pool) == 10
    assert len(cfg.styles) == 6


# ---------------------------------------------------------------------------
# pipeline stages


def test_synth_output(pipeline):
    instances = load_instances(pipeline["instances"])
    assert len(instances) == 6
    assert sum(1 for i in instances if i.constrained) == 2
    assert all(2 <= i.d <= 4 for i in instances)
    assert all(i.fe_budget == 200 for i in instances)


def test_synth_seed_flag_overrides_config(pipeline, tmp_path):
    out = tmp_path / "other.jsonl"
    assert main(["synth", "--config", pipeline["config"], "--seed", "99",
                 "--out", str(out)]) == 0
    other = load_instances(out)
    base = load_instances(pipeline["instances"])
    assert [i.id for i in other] != [i.id for i in base]


def test_bench_output(pipeline):
    entries = load_knowledge(pipeline["knowledge"])
    instances = load_instances(pipeline["instances"])
    assert [e.instance_id for e in entries] == [i.id for i in instances]
    for e in entries:
        if not e.degenerate:
            assert e.best_optimizer in ("random_search", "vanilla_de")
            assert e.f_star is not None


def test_bench_records_sidecar(pipeline):
    rows = [json.loads(l) for l in open(pipeline["records"])]
    # 6 instances x (1 random_search + 2 capped vanilla_de) configs
    assert len(rows) == 6 * 3


def test_bench_winner_lines_count_only_labelled_entries(pipeline, tmp_path,
                                                        capsys):
    out = tmp_path / "knowledge.jsonl"
    assert main(["bench", "--config", pipeline["config"],
                 "--instances", pipeline["instances"], "--out", str(out),
                 "--records", str(tmp_path / "records.jsonl")]) == 0
    winners = {line.split()[1]: int(line.split()[2])
               for line in capsys.readouterr().out.splitlines()
               if line.startswith("  winner ")}
    entries = load_knowledge(out)
    assert any(e.degenerate for e in entries)
    assert sum(winners.values()) == sum(not e.degenerate for e in entries)
    assert out.read_bytes() == open(pipeline["knowledge"], "rb").read()


def test_bench_parallel_matches_serial(pipeline, tmp_path):
    out, records = tmp_path / "knowledge.jsonl", tmp_path / "records.jsonl"
    assert main(["bench", "--config", pipeline["config"],
                 "--instances", pipeline["instances"],
                 "--out", str(out), "--records", str(records),
                 "--jobs", "3"]) == 0
    assert out.read_bytes() == open(pipeline["knowledge"], "rb").read()
    assert records.read_bytes() == open(pipeline["records"], "rb").read()


@pytest.mark.parametrize("override, flags, error", [
    ({"pool": ["random_serch"]}, [], ValueError),
    ({"runs": 0}, [], ValueError),
    ({"config_cap": 0}, [], ValueError),
    ({}, ["--jobs", "0"], SystemExit),
    ({"pool": ["random_search", "random_search"]}, [], ValueError),
])
def test_bench_input_that_cannot_work_fails_before_any_run(
        pipeline, tmp_path, monkeypatch, capsys, override, flags, error):
    cfg = json.loads(Path(pipeline["config"]).read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**cfg, **override}))
    calls = []
    real_run = bench.run

    def counting_run(*args, **kwargs):
        calls.append(args[0])
        return real_run(*args, **kwargs)

    monkeypatch.setattr(bench, "run", counting_run)
    with pytest.raises(error) as err:
        main(["bench", "--config", str(config),
              "--instances", pipeline["instances"],
              "--out", str(tmp_path / "knowledge.jsonl"),
              "--records", str(tmp_path / "records.jsonl"), *flags])
    if error is SystemExit:
        assert err.value.code == 2
        assert "--jobs" in capsys.readouterr().err
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("stage", ["bench", "build"])
def test_repeated_instance_fails_before_any_output(pipeline, tmp_path, stage):
    lines = Path(pipeline["instances"]).read_text().splitlines(keepends=True)
    instances = tmp_path / "instances.jsonl"
    instances.write_text("".join([*lines, lines[0]]))
    flags = {"bench": ["--records", str(tmp_path / "records.jsonl")],
             "build": ["--knowledge", pipeline["knowledge"]]}[stage]
    with pytest.raises(ValueError) as err:
        main([stage, "--config", pipeline["config"],
              "--instances", str(instances),
              "--out", str(tmp_path / "out.jsonl"), *flags])
    assert f"{instances}:{len(lines) + 1}: second instance" in str(err.value)
    assert [p.name for p in tmp_path.iterdir()] == ["instances.jsonl"]


def test_build_output(pipeline):
    pairs = list(load_pairs(pipeline["pairs"]))
    entries = {e.instance_id: e for e in
               load_knowledge(pipeline["knowledge"])}
    usable = [iid for iid, e in entries.items() if not e.degenerate]
    assert len(pairs) == 6 * len(usable)
    for p in pairs:
        assert p.label == entries[p.instance_id].best_optimizer
        assert "```" in p.q
        assert "opt_runtime" in p.a


@pytest.mark.parametrize("styles", [[], ["py_loop", "py_loop"],
                                    ["PY_LOOP", "tex_canonical", "py_loop"]],
                         ids=["empty", "repeated", "repeated-after-parse"])
def test_build_rejects_empty_or_repeated_styles(pipeline, tmp_path, styles):
    cfg = json.loads(Path(pipeline["config"]).read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**cfg, "styles": styles}))
    with pytest.raises(ValueError) as err:
        main(["build", "--config", str(config),
              "--instances", pipeline["instances"],
              "--knowledge", pipeline["knowledge"],
              "--out", str(tmp_path / "pairs.jsonl")])
    assert "style" in str(err.value)
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_build_reports_prompt_chars(pipeline, tmp_path, capsys):
    out = tmp_path / "pairs.jsonl"
    assert main(["build", "--config", pipeline["config"],
                 "--instances", pipeline["instances"],
                 "--knowledge", pipeline["knowledge"],
                 "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    chars = [len(p.q) for p in load_pairs(str(out))]
    assert lines[0] == f"wrote {len(chars)} instruction pairs to {out}"
    assert lines[1] == (f"  prompt chars: p50 {statistics.median_low(chars)}, "
                        f"max {max(chars)}")
    assert out.read_bytes() == open(pipeline["pairs"], "rb").read()


def test_split_output(pipeline):
    pairs = list(load_pairs(pipeline["pairs"]))
    train = list(load_pairs(pipeline["train"]))
    test = list(load_pairs(pipeline["test"]))
    assert len(train) + len(test) == len(pairs)
    assert not ({p.instance_id for p in train}
                & {p.instance_id for p in test})
    n_ids = len({p.instance_id for p in pairs})
    assert len({p.instance_id for p in test}) == round(0.25 * n_ids)


def test_plan_output(pipeline, tmp_path):
    out = tmp_path / "plan.json"
    assert main(["plan", "--pairs", pipeline["pairs"],
                 "--out", str(out)]) == 0
    plan = json.loads(out.read_text())
    assert plan["n_pairs"] == len(list(load_pairs(pipeline["pairs"])))
    assert plan["weights_sum"] == pytest.approx(1.0, abs=1e-12)
    assert sum(plan["label_counts"].values()) == plan["n_pairs"]
    for lab, count in plan["label_counts"].items():
        want = 1.0 / (plan["n_labels"] * count)
        assert plan["rho_per_pair_by_label"][lab] == pytest.approx(want)


def test_plan_on_empty_pairs_exits_with_message(pipeline, tmp_path):
    # test_fraction 1.0 sends every instance to the test side
    cfg = json.loads(Path(pipeline["config"]).read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**cfg, "test_fraction": 1.0}))
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    assert main(["split", "--config", str(config), "--pairs",
                 pipeline["pairs"], "--train-out", str(train),
                 "--test-out", str(test)]) == 0
    assert train.read_bytes() == b""
    out = tmp_path / "plan.json"
    with pytest.raises(SystemExit) as err:
        main(["plan", "--config", str(config), "--pairs", str(train),
              "--out", str(out)])
    assert err.value.code == f"{train}: no pairs to weight"
    assert not out.exists()


def test_render_prints_prompt(pipeline, capsys):
    assert main(["render", "--instances", pipeline["instances"],
                 "--style", "tex_canonical"]) == 0
    out = capsys.readouterr().out
    assert "You are an expert in numerical optimization." in out
    assert "```latex" in out


def test_render_with_answer(pipeline, capsys):
    instances = load_instances(pipeline["instances"])
    entries = {e.instance_id: e for e in
               load_knowledge(pipeline["knowledge"])}
    inst = next(i for i in instances if not entries[i.id].degenerate)
    assert main(["render", "--instances", pipeline["instances"],
                 "--id", inst.id, "--knowledge", pipeline["knowledge"]]) == 0
    out = capsys.readouterr().out
    assert f"answer ({entries[inst.id].best_optimizer})" in out
    assert "opt_runtime" in out


def test_render_degenerate_instance_exits_with_message(pipeline, tmp_path):
    entries = load_knowledge(pipeline["knowledge"])
    entries[0] = bench._degenerate_entry(entries[0].instance_id)
    knowledge = tmp_path / "knowledge.jsonl"
    bench.save_knowledge(entries, knowledge)
    out = tmp_path / "render.txt"
    with pytest.raises(SystemExit) as err:
        main(["render", "--instances", pipeline["instances"],
              "--id", entries[0].instance_id, "--knowledge", str(knowledge),
              "--out", str(out)])
    assert isinstance(err.value.code, str)
    assert entries[0].instance_id in err.value.code
    assert "no usable winner" in err.value.code
    assert not out.exists()


def test_render_unknown_id_exits(pipeline):
    with pytest.raises(SystemExit):
        main(["render", "--instances", pipeline["instances"],
              "--id", "nope"])


def test_render_on_empty_instances_exits_with_message(tmp_path):
    empty, out = tmp_path / "instances.jsonl", tmp_path / "render.txt"
    empty.write_text("")
    with pytest.raises(SystemExit) as err:
        main(["render", "--instances", str(empty), "--out", str(out)])
    assert err.value.code == f"{empty}: no instances to render"
    assert not out.exists()


# ---------------------------------------------------------------------------
# resumability


# each stage's input flags, and its output flags by dest
_PROTOCOL_CASES = {
    "synth": ([], ["out"]),
    "bench": (["--instances"], ["out", "records"]),
    "build": (["--instances", "--knowledge"], ["out"]),
    "split": (["--pairs"], ["train_out", "test_out"]),
    "plan": (["--pairs"], ["out"]),
    "metrics": (["--results"], ["out"]),
    "render": (["--instances"], ["out"]),
}


def _stage_parsers():
    return build_parser()._subparsers._group_actions[0].choices


def test_protocol_cases_cover_every_stage():
    assert set(_PROTOCOL_CASES) == set(_stage_parsers())


@pytest.mark.parametrize("stage", sorted(_PROTOCOL_CASES))
def test_stage_noop_when_every_output_exists(tmp_path, capsys, stage):
    inputs, outputs = _PROTOCOL_CASES[stage]
    sub = _stage_parsers()[stage]
    assert sub.get_default("outputs") == tuple(outputs)
    assert set(outputs) <= {a.dest for a in sub._actions}
    declared = set(sub.get_default("inputs"))
    assert {flag[2:] for flag in inputs} <= declared
    assert declared <= {a.dest for a in sub._actions}
    argv = [stage]
    for flag in inputs:
        argv += [flag, str(tmp_path / f"missing{flag[2:]}")]
    for dest in outputs:
        path = tmp_path / dest
        path.write_text(f"kept {dest}")
        argv += ["--" + dest.replace("_", "-"), str(path)]
    assert main(argv) == 0
    assert "nothing to do" in capsys.readouterr().out
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {
        dest: f"kept {dest}" for dest in outputs}


@pytest.mark.parametrize("exists", [False, True], ids=["absent", "present"])
@pytest.mark.parametrize("stage, flags", [
    ("split", ["--pairs", "{pairs}", "--train-out", "same.jsonl",
               "--test-out", "{tmp}/same.jsonl"]),
    ("bench", ["--instances", "{instances}", "--out", "same.jsonl",
               "--records", "{tmp}/./same.jsonl"]),
], ids=["split", "bench"])
def test_one_file_named_for_two_outputs_is_rejected(
        pipeline, tmp_path, monkeypatch, stage, flags, exists):
    monkeypatch.chdir(tmp_path)
    if exists:
        (tmp_path / "same.jsonl").write_text("kept")
    argv = [stage, "--config", pipeline["config"], *(
        f.format(tmp=tmp_path, **pipeline) for f in flags)]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == (f"{flags[2]} and {flags[4]} name one file: "
                              f"{argv[-1]}")
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == (
        {"same.jsonl": "kept"} if exists else {})


@pytest.mark.parametrize("force", [False, True], ids=["resume", "force"])
@pytest.mark.parametrize("stage, flags, output, source", [
    ("plan", ["--pairs", "{train}", "--out", "{train}"], "--out", "--pairs"),
    ("build", ["--instances", "{instances}", "--knowledge", "{knowledge}",
               "--out", "{tmp}/./knowledge.jsonl"], "--out", "--knowledge"),
    ("split", ["--pairs", "{pairs}", "--train-out", "pairs.jsonl",
               "--test-out", "{tmp}/test.jsonl"], "--train-out", "--pairs"),
    ("bench", ["--instances", "{instances}", "--out", "{tmp}/k.jsonl",
               "--records", "{instances}"], "--records", "--instances"),
    ("synth", ["--out", "{config}"], "--out", "--config"),
], ids=["plan", "build", "split", "bench", "synth"])
def test_output_naming_an_input_is_rejected(pipeline, tmp_path, monkeypatch,
                                           stage, flags, output, source,
                                           force):
    # each input is a copy in tmp_path, whose bytes must stay as they are
    monkeypatch.chdir(tmp_path)
    copies = {}
    for name in ("config", "instances", "knowledge", "pairs", "train"):
        copies[name] = str(tmp_path / os.path.basename(pipeline[name]))
        shutil.copyfile(pipeline[name], copies[name])
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    argv = [stage, "--config", copies["config"],
            *(f.format(tmp=tmp_path, **copies) for f in flags)]
    argv += ["--force"] * force
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == (f"{output} would write over the input "
                              f"{source}: {argv[argv.index(output) + 1]}")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_force_rebuilds(pipeline, capsys):
    before = open(pipeline["instances"], "rb").read()
    assert main(["synth", "--config", pipeline["config"],
                 "--out", pipeline["instances"], "--force"]) == 0
    out = capsys.readouterr().out
    assert "nothing to do" not in out
    # deterministic: a forced rerun writes identical bytes
    assert open(pipeline["instances"], "rb").read() == before


def test_forced_rerun_rewrites_same_bytes_without_temp_files(pipeline):
    before = {k: Path(pipeline[k]).read_bytes() for k in OUTPUTS}
    _run_pipeline(pipeline, "--force")
    assert {k: Path(pipeline[k]).read_bytes() for k in OUTPUTS} == before
    assert not list(Path(pipeline["pairs"]).parent.glob("*.tmp"))


def test_render_out_is_written_through_a_temp_file(pipeline, tmp_path,
                                                   monkeypatch):
    out = tmp_path / "prompt.txt"
    out.write_text("stale")
    moves = []
    real_replace = os.replace

    def spy(src, dst):
        moves.append((str(src), str(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    assert main(["render", "--instances", pipeline["instances"],
                 "--out", str(out), "--force"]) == 0
    assert moves == [(f"{out}.tmp", str(out))]
    assert out.read_text().startswith("You are an expert")
    assert not list(tmp_path.glob("*.tmp"))


def test_split_noop_only_when_both_outputs_exist(pipeline, tmp_path, capsys):
    train = tmp_path / "train.jsonl"
    test = tmp_path / "test.jsonl"
    train.write_text("")
    assert main(["split", "--config", pipeline["config"],
                 "--pairs", pipeline["pairs"],
                 "--train-out", str(train), "--test-out", str(test)]) == 0
    assert "nothing to do" not in capsys.readouterr().out
    assert test.exists()


# ---------------------------------------------------------------------------
# streaming stages


def _shuffled_pairs_file(path, seed, n_instances=12):
    """A pairs file whose lines are shuffled, so that the pairs of one
    instance are not next to each other."""
    pairs = [InstructionPair(q=f"q{i}-{s.value}", a=f"a{i}",
                             instance_id=f"{(7919 * i) % 1000:03d}",
                             style=s.value, label=f"l{i % 3}")
             for i in range(n_instances) for s in WritingStyle]
    order = np.random.default_rng(seed).permutation(len(pairs))
    pairs = [pairs[k] for k in order]
    save_pairs(pairs, path)
    return pairs


def _jsonl_bytes(pairs):
    return "".join(json.dumps(dataclasses.asdict(p), sort_keys=True) + "\n"
                   for p in pairs).encode()


@pytest.mark.parametrize("seed", [0, 5, 17])
@pytest.mark.parametrize("fraction", [0.0, 0.1, 0.5, 1.0])
def test_two_pass_split_matches_the_list_split(tmp_path, fraction, seed):
    pairs = _shuffled_pairs_file(tmp_path / "pairs.jsonl", seed)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"test_fraction": fraction, "seed": seed}))
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    assert main(["split", "--config", str(config),
                 "--pairs", str(tmp_path / "pairs.jsonl"),
                 "--train-out", str(train), "--test-out", str(test)]) == 0
    want_train, want_test = ref_split_pairs(pairs, test_fraction=fraction,
                                            seed=seed)
    assert train.read_bytes() == _jsonl_bytes(want_train)
    assert test.read_bytes() == _jsonl_bytes(want_test)


def test_bench_interrupted_midway_keeps_the_old_outputs(pipeline, tmp_path,
                                                        monkeypatch):
    out, records = tmp_path / "knowledge.jsonl", tmp_path / "records.jsonl"
    argv = ["bench", "--config", pipeline["config"],
            "--instances", pipeline["instances"],
            "--out", str(out), "--records", str(records)]
    assert main(argv) == 0
    before = {path: path.read_bytes() for path in (out, records)}
    second = load_instances(pipeline["instances"])[1].id
    real_run = bench.run

    def interrupted_run(optimizer, config, instance, *args, **kwargs):
        if instance.id == second:
            raise KeyboardInterrupt
        return real_run(optimizer, config, instance, *args, **kwargs)

    monkeypatch.setattr(bench, "run", interrupted_run)
    with pytest.raises(KeyboardInterrupt):
        main([*argv, "--force"])
    assert {path: path.read_bytes() for path in before} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "knowledge.jsonl", "records.jsonl"]


def test_build_interrupted_midway_keeps_the_old_pairs(pipeline, tmp_path,
                                                      monkeypatch):
    out = tmp_path / "pairs.jsonl"
    argv = ["build", "--config", pipeline["config"],
            "--instances", pipeline["instances"],
            "--knowledge", pipeline["knowledge"], "--out", str(out)]
    assert main(argv) == 0
    before = out.read_bytes()
    # the second labelled instance: the first one's pairs are written
    # by the time it renders
    labelled = [e.instance_id for e in load_knowledge(pipeline["knowledge"])
                if not e.degenerate]
    second = labelled[1]
    real_render = dataset.render_prompt

    def interrupted_render(inst, style, **kwargs):
        if inst.id == second:
            raise KeyboardInterrupt
        return real_render(inst, style, **kwargs)

    monkeypatch.setattr(dataset, "render_prompt", interrupted_render)
    with pytest.raises(KeyboardInterrupt):
        main([*argv, "--force"])
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["pairs.jsonl"]


@pytest.mark.parametrize("flag", ["--strict", "--fallback"])
def test_build_has_no_degenerate_policy_flags(pipeline, tmp_path, capsys,
                                              flag):
    out = tmp_path / "pairs.jsonl"
    with pytest.raises(SystemExit) as err:
        main(["build", "--config", pipeline["config"], flag,
              "--instances", pipeline["instances"],
              "--knowledge", pipeline["knowledge"], "--out", str(out)])
    assert err.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def _readme_commands():
    """The ``optforge ...`` commands of the README's pipeline walkthrough,
    each as an argv without the program name."""
    text = (REPO / "README.md").read_text()
    start = text.index("## Pipeline walkthrough")
    section = text[start:text.index("\n## ", start + 1)]
    lines = section.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("optforge ")]


def test_readme_walkthrough_commands_parse():
    commands = _readme_commands()
    parser = build_parser()
    assert {argv[0] for argv in commands} == set(
        parser._subparsers._group_actions[0].choices)
    for argv in commands:
        parser.parse_args(argv)


def test_every_traced_binding_records_a_span(tmp_path, monkeypatch):
    # perfbench times the layers through the bindings its tracer
    # patches; a stage that bypasses one would read 0 there
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    tracing = importlib.import_module("tracing")

    class RecordingTracer(tracing.Tracer):
        def __init__(self):
            super().__init__()
            self.names = []

        def patch(self, owner, attr, name, info=None):
            self.names.append(name)
            super().patch(owner, attr, name, info)

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "n_unconstrained": 1, "n_constrained": 1, "d_min": 2, "d_max": 3,
        "k_min": 1, "k_max": 2, "fe_budget": 100, "runs": 2,
        "config_cap": 2,
        "pool": ["random_search", "vanilla_de", "dual_annealing"],
        "test_fraction": 0.0, "seed": 3}))
    results = tmp_path / "results.json"
    results.write_text(json.dumps(_results_payload()))
    paths = {name: str(tmp_path / f"{name}.jsonl")
             for name in ("instances", "knowledge", "records", "pairs",
                          "train", "test")}
    common = ["--config", str(config)]
    tracer = RecordingTracer()
    tracing.install(tracer)
    try:
        assert main(["synth", *common, "--out", paths["instances"]]) == 0
        assert main(["bench", *common, "--instances", paths["instances"],
                     "--out", paths["knowledge"],
                     "--records", paths["records"]]) == 0
        assert main(["build", *common, "--instances", paths["instances"],
                     "--knowledge", paths["knowledge"],
                     "--out", paths["pairs"]]) == 0
        assert list(dataset.load_pairs(paths["pairs"]))
        assert main(["split", *common, "--pairs", paths["pairs"],
                     "--train-out", paths["train"],
                     "--test-out", paths["test"]]) == 0
        assert main(["plan", *common, "--pairs", paths["train"],
                     "--out", str(tmp_path / "plan.json")]) == 0
        assert main(["metrics", *common, "--results", str(results),
                     "--out", str(tmp_path / "report.json")]) == 0
        plan = dataset.SamplingPlan.build(dataset.load_pairs(paths["train"]))
        batch = plan.draw_batch(2, np.random.default_rng(0))
        dataset.batch_contrastive_loss(np.eye(2), [p.label for p in batch])
    finally:
        tracer.restore()
    assert tracer.names
    spanned = {span[0] for span in tracer.spans}
    # every bench run, alone or in a lockstep group, evaluates through
    # evaluate_batch and counts through ObjectiveTracker.tell; only
    # answer programs call ObjectiveTracker.batch
    assert [name for name in tracer.names if name not in spanned
            and name != "optimizers.tracker.batch"] == []
    # the lockstep runs still make one run span each, and evaluate
    # through the traced binding exactly the rows they use
    with open(paths["records"]) as fh:
        records = [json.loads(line) for line in fh]
    # two configs x two runs of dual_annealing on each of two instances
    assert [len(rec["per_run"]) for rec in records
            if rec["optimizer"] == "dual_annealing"] == [2] * 4
    runs = [run for rec in records for run in rec["per_run"]]
    assert sum(1 for span in tracer.spans
               if span[0] == "optimizers.run") == len(runs)
    rows = sum(span[4][0] for span in tracer.spans
               if span[0] == "problems.evaluate_batch")
    assert rows == sum(run["fe_used"] for run in runs)


# ---------------------------------------------------------------------------
# metrics command


def _results_payload():
    outcomes = []
    for p in range(4):
        for r in range(5):
            failed = r == 0
            o = {"problem_id": f"p{p}", "run": r, "failed": failed}
            if not failed:
                o.update(f0=100.0, f_best=1.0, f_star=0.0)
            outcomes.append(o)
    return {
        "systems": {
            "demo": {
                "outcomes": outcomes,
                "repairs": [
                    {"problem_id": "p0",
                     "original": "\n".join(f"l{i}" for i in range(10)),
                     "repaired": "\n".join(
                         "x" if i == 3 else f"l{i}" for i in range(10))},
                ],
                "answers": ["x = 1", "print(x)"],
                "n_problems": 4,
                "n_runs": 5,
            }
        }
    }


def test_metrics_table_and_report(tmp_path, capsys):
    results = tmp_path / "results.json"
    results.write_text(json.dumps(_results_payload()))
    report = tmp_path / "report.json"
    assert main(["metrics", "--results", str(results),
                 "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "Err." in out and "Rec." in out
    assert "Perf." in out and "Comp." in out
    assert "0.200" in out  # 4 failures / 20 runs
    assert "0.100" in out  # one line of ten repaired
    data = json.loads(report.read_text())
    assert data["demo"]["error_rate"] == pytest.approx(0.2)
    assert data["demo"]["performance"] == pytest.approx(0.8 * 0.99)
    assert data["demo"]["overhead"] == pytest.approx(3.5)


def test_metrics_on_zero_outcomes_fails_with_message(tmp_path):
    payload = _results_payload()
    payload["systems"]["demo"].update(n_problems=0, outcomes=[])
    results, report = tmp_path / "results.json", tmp_path / "report.json"
    results.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as err:
        main(["metrics", "--results", str(results), "--out", str(report)])
    assert "cannot rate errors over 0 problems x 5 runs" in str(err.value)
    assert not report.exists()


@pytest.mark.parametrize("change, reason", [
    ({"n_problems": 0, "outcomes": []},
     "cannot rate errors over 0 problems x 5 runs"),
    ({"n_runs": 4}, "4 problems x 4 runs = 16 outcomes, got 20"),
], ids=["zero-problems", "outcome-count"])
def test_metrics_error_names_the_system_and_file(tmp_path, change, reason):
    payload = _results_payload()
    payload["systems"]["other"] = copy.deepcopy(payload["systems"]["demo"])
    payload["systems"]["demo"].update(change)
    results, report = tmp_path / "results.json", tmp_path / "report.json"
    results.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as err:
        main(["metrics", "--results", str(results), "--out", str(report)])
    assert str(err.value).startswith(f"{results}: system 'demo': ")
    assert reason in str(err.value)
    assert not report.exists()


def test_metrics_rejects_malformed_results(tmp_path):
    results = tmp_path / "results.json"
    payload = _results_payload()
    del payload["systems"]["demo"]["outcomes"][0]["run"]
    results.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as err:
        main(["metrics", "--results", str(results)])
    assert "outcome 0" in str(err.value)
    results.write_text(json.dumps({"systems": {}}))
    with pytest.raises(ValueError):
        main(["metrics", "--results", str(results)])


@pytest.mark.parametrize("entry, index", [("outcomes", 3), ("repairs", 0)])
def test_metrics_rejects_unknown_field(tmp_path, entry, index):
    results = tmp_path / "results.json"
    payload = _results_payload()
    payload["systems"]["demo"][entry][index]["note"] = "x"
    results.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as err:
        main(["metrics", "--results", str(results)])
    assert f"{entry[:-1]} {index}" in str(err.value)
    assert "note" in str(err.value)


@pytest.mark.parametrize("text", ["[]", "{not json", '{"runs": 1}'],
                         ids=["list", "invalid-json", "no-systems"])
def test_metrics_rejects_malformed_file(tmp_path, text):
    results = tmp_path / "results.json"
    results.write_text(text)
    with pytest.raises(ValueError) as err:
        main(["metrics", "--results", str(results)])
    assert str(results) in str(err.value)


# ---------------------------------------------------------------------------
# demo script

REPO = Path(__file__).resolve().parents[1]


def test_run_pipeline_script_writes_every_artifact(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_pipeline.py"),
         "--out-dir", str(tmp_path), "--seed", "7"],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    ).stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "instances.jsonl", "knowledge.jsonl", "pairs.jsonl",
        "plan.json", "records.jsonl", "test.jsonl", "train.jsonl"]
    assert "batch contrastive loss on random embeddings: " in out


# ---------------------------------------------------------------------------
# parser


def test_missing_subcommand_is_an_error(capsys):
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["synth"])  # --out is required
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["bench", "--instances", "i.jsonl", "--out", "k.jsonl"])
    assert err.value.code == 2
    assert "--records" in capsys.readouterr().err


_STAGE_ARGS = {
    "build": ["--instances", "i.jsonl", "--knowledge", "k.jsonl",
              "--out", "p.jsonl"],
    "plan": ["--pairs", "p.jsonl", "--out", "plan.json"],
    "metrics": ["--results", "r.json"],
    "render": ["--instances", "i.jsonl"],
}


@pytest.mark.parametrize("stage", sorted(_STAGE_ARGS))
def test_seed_is_a_usage_error_where_nothing_reads_it(stage, capsys):
    with pytest.raises(SystemExit) as err:
        main([stage, *_STAGE_ARGS[stage], "--seed", "1"])
    assert err.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_cli_import_does_not_load_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, optforge.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout
    assert out.strip() == "[]"


def test_bench_runs_dual_annealing_without_scipy_optimize(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "n_unconstrained": 1, "n_constrained": 0, "d_min": 3, "d_max": 3,
        "k_min": 1, "k_max": 1, "fe_budget": 300, "runs": 1,
        "config_cap": 1, "pool": ["dual_annealing"], "seed": 5,
    }))
    paths = {name: str(tmp_path / f"{name}.jsonl")
             for name in ("instances", "knowledge", "records")}
    assert main(["synth", "--config", str(cfg),
                 "--out", paths["instances"]]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    argv = ["bench", "--config", str(cfg), "--instances", paths["instances"],
            "--out", paths["knowledge"], "--records", paths["records"]]
    code = ("import sys; from optforge.cli import main; "
            f"assert main({argv!r}) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout
    loaded = ast.literal_eval(out.splitlines()[-1])
    assert "scipy.optimize" not in loaded and "scipy.special" not in loaded
    [entry] = load_knowledge(paths["knowledge"])
    assert entry.best_optimizer == "dual_annealing" and not entry.degenerate
    [record] = [json.loads(line) for line in open(paths["records"])]
    assert [r["fe_used"] for r in record["per_run"]] == [300]
