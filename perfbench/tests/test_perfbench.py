"""Smoke tests of the benchmark itself (tiny sizes).

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import spec  # noqa: E402
import stages  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    p = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert p.returncode == 0, p.stdout[-3000:] + p.stderr[-3000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = spec.PER_LAYER if trace else spec.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, v in result["metrics"].items():
        assert v["unit"] == expected[name][0], name
        assert isinstance(v["value"], (int, float)), name
        if not trace:
            assert v["value"] > 0, name


def test_benchmark_json_is_generated_from_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == \
        spec.benchmark_json()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run_bench("--workload", "label-small", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert not p.stdout.strip()


@pytest.fixture(scope="module", params=list(spec.WORKLOADS))
def smoke_pass(request, tmp_path_factory):
    wl = W.make(request.param, seed=5, smoke=True)
    d = tmp_path_factory.mktemp(request.param)
    W.prepare(wl, d)
    stages.run_pass(wl, d, "process", src=ROOT / "src")
    return wl, d


def _corrupt_copy(src, dst, name, edit):
    shutil.copytree(src, dst)
    path = dst / name
    path.write_text(edit(path.read_text()))
    return dst


def test_intact_outputs_pass_and_corrupted_ones_trip(smoke_pass, tmp_path):
    wl, d = smoke_pass
    errors, _ = checks.check(d, wl)
    assert errors == []

    if wl.name.startswith("label-"):
        def shift_mean_eval(text):
            lines = text.splitlines()
            e = json.loads(lines[0])
            e["mean_eval"] = e["mean_eval"] * 0.5 + 0.25
            return "\n".join([json.dumps(e, sort_keys=True)] + lines[1:]) + "\n"

        cases = [(W.KNOWLEDGE, shift_mean_eval),
                 (W.KNOWLEDGE, lambda t: "".join(t.splitlines(True)[:-1]))]
    else:
        cases = [(W.PAIRS, lambda t: "".join(t.splitlines(True)[1:])),
                 (W.REPORT, _bump_error_rate)]
    for i, (name, edit) in enumerate(cases):
        bad = _corrupt_copy(d, tmp_path / f"bad{i}", name, edit)
        errors, _ = checks.check(bad, wl)
        assert errors, f"corrupted {name} passed the checks"
        assert checks.same_digests(checks.digests(d, wl.artifacts),
                                   checks.digests(bad, wl.artifacts), "x")


def _bump_error_rate(text):
    doc = json.loads(text)
    for report in doc.values():
        report["error_rate"] += 0.125
    return json.dumps(doc)


def test_self_time_subtracts_direct_children():
    tr = tracing.Tracer()
    inner = tr.span("inner", lambda: time.sleep(0.01))
    outer = tr.span("outer", lambda: (inner(), inner(), time.sleep(0.01)))
    outer()
    agg = tracing.aggregate(tr.spans)
    assert agg["outer"]["calls"] == 1 and agg["inner"]["calls"] == 2
    assert agg["outer"]["self_s"] == pytest.approx(
        agg["outer"]["total_s"] - agg["inner"]["total_s"])
    assert agg["outer"]["self_s"] >= 0.01
