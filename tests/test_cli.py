"""Command-line pipeline: each stage end to end on a desk-sized corpus,
config handling and output resumability."""

import dataclasses
import json
import statistics
from pathlib import Path

import pytest

from optforge.bench import load_knowledge
from optforge.cli import PipelineConfig, main
from optforge.dataset import load_pairs
from optforge.problems.instance import load_instances


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


OUTPUTS = ("instances", "knowledge", "pairs", "train", "test")


def _run_pipeline(paths, *flags):
    """synth -> bench -> build -> split into ``paths``."""
    common = ["--config", paths["config"], *flags]
    assert main(["synth", *common, "--out", paths["instances"]]) == 0
    assert main(["bench", *common, "--instances", paths["instances"],
                 "--out", paths["knowledge"]]) == 0
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


def test_bench_records_sidecar(pipeline, tmp_path):
    out = tmp_path / "knowledge.jsonl"
    records = tmp_path / "records.jsonl"
    assert main(["bench", "--config", pipeline["config"],
                 "--instances", pipeline["instances"],
                 "--out", str(out), "--records", str(records)]) == 0
    rows = [json.loads(l) for l in records.read_text().splitlines()]
    # 6 instances x (1 random_search + 2 capped vanilla_de) configs
    assert len(rows) == 6 * 3
    assert out.read_text() == open(pipeline["knowledge"]).read()


def test_bench_parallel_matches_serial(pipeline, tmp_path):
    out = tmp_path / "knowledge_jobs.jsonl"
    assert main(["bench", "--config", pipeline["config"],
                 "--instances", pipeline["instances"],
                 "--out", str(out), "--jobs", "3"]) == 0
    assert out.read_bytes() == open(pipeline["knowledge"], "rb").read()


def test_build_output(pipeline):
    pairs = load_pairs(pipeline["pairs"])
    entries = {e.instance_id: e for e in
               load_knowledge(pipeline["knowledge"])}
    usable = [iid for iid, e in entries.items() if not e.degenerate]
    assert len(pairs) == 6 * len(usable)
    for p in pairs:
        assert p.label == entries[p.instance_id].best_optimizer
        assert "```" in p.q
        assert "opt_runtime" in p.a


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
    pairs = load_pairs(pipeline["pairs"])
    train = load_pairs(pipeline["train"])
    test = load_pairs(pipeline["test"])
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
    assert plan["n_pairs"] == len(load_pairs(pipeline["pairs"]))
    assert plan["weights_sum"] == pytest.approx(1.0, abs=1e-12)
    assert sum(plan["label_counts"].values()) == plan["n_pairs"]
    for lab, count in plan["label_counts"].items():
        want = 1.0 / (plan["n_labels"] * count)
        assert plan["rho_per_pair_by_label"][lab] == pytest.approx(want)


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


def test_render_unknown_id_exits(pipeline):
    with pytest.raises(SystemExit):
        main(["render", "--instances", pipeline["instances"],
              "--id", "nope"])


# ---------------------------------------------------------------------------
# resumability


def test_synth_noop_when_output_exists(pipeline, capsys):
    before = open(pipeline["instances"], "rb").read()
    assert main(["synth", "--config", pipeline["config"],
                 "--out", pipeline["instances"]]) == 0
    assert "nothing to do" in capsys.readouterr().out
    assert open(pipeline["instances"], "rb").read() == before


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


# ---------------------------------------------------------------------------
# parser


def test_missing_subcommand_is_an_error(capsys):
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["synth"])  # --out is required
    capsys.readouterr()
