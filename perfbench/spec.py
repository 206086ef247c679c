"""What the benchmark measures: workloads, end-to-end metrics and
per-layer metrics, with the end-to-end metric and workload each layer
metric is expected to move.

``BENCHMARK.json`` at the repository root is generated from this
module and must stay equal to it (the smoke tests check this):

    python3 perfbench/spec.py --write

``--mapping`` prints the layer-metric table of perfbench/README.md.
"""

import json
import sys
from pathlib import Path

POOL = (
    "vanilla_de", "deap_de", "vanilla_pso", "samr_ga", "sep_cma_es",
    "bipop_cma_es", "simulated_annealing", "dual_annealing", "nsa",
    "random_search",
)
STYLES = ("py_loop", "py_vector", "py_modular",
          "tex_canonical", "tex_commuted", "tex_factored")
STAGES = ("synth", "bench", "build", "split", "plan", "metrics")
PARADIGMS = ("single", "composition", "hybrid")

RUN_SECONDS = 30
COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

WORKLOADS = {
    "label-small": (
        "serial bench over many d 2-8 instances at a few hundred FEs: "
        "per-call overhead (one-row dual_annealing calls, tracker) "
        "dominates, so tracker fast paths and lockstep batching show here"
    ),
    "label-wide": (
        "bench --jobs 2 over a few d 30-50 composition/hybrid instances: "
        "per-row kernel cost and uneven instance times dominate, so "
        "kernels and work balance across --jobs show here"
    ),
    "dataset-build": (
        "synth, build, split, plan, metrics and pair sampling over a "
        "d 2-50 corpus with no bench: write- and render-heavy, and bench "
        "or optimizer changes should move nothing here"
    ),
}

# name -> (unit, better, bound, description)
END_TO_END = {
    "wall_s": ("s", "lower", 0.25,
               "median wall time of one closed-loop pass over the "
               "workload's timed stages"),
    "instances_per_s": ("1/s", "higher", 0.25,
                        "instances carried through one pass per second "
                        "of wall_s"),
    "peak_rss_mb": ("MB", "lower", 0.2,
                    "largest peak resident memory of any stage process "
                    "(workers included), median over passes"),
    "setup_s": ("s", "lower", 0.25,
                "median of repeated set-ups: program import probe plus "
                "input generation from the seed"),
}

_LS, _LW, _DB = "label-small", "label-wide", "dataset-build"


def _layer_metrics():
    """name -> (unit, better, end-to-end metric it moves, workloads)."""
    m = {}

    def add(name, unit, better, moves, *workloads):
        m[name] = (unit, better, moves, workloads)

    # problems
    add("problems.evaluate_batch.calls", "count", "lower", "wall_s", _LS)
    add("problems.evaluate_batch.rows", "count", "lower", "wall_s", _LS)
    add("problems.evaluate_batch.rows_per_call", "rows", "higher",
        "wall_s", _LS)
    add("problems.evaluate_batch.self_s", "s", "lower", "wall_s", _LS)
    add("problems.evaluate_batch.us_per_row", "us", "lower",
        "instances_per_s", _LW)
    for p in PARADIGMS:
        # label-wide has no single-function instances
        add(f"problems.evaluate_batch.us_per_row.{p}", "us", "lower",
            "instances_per_s", _LS if p == "single" else _LW)
    add("problems.constraint_values.self_s", "s", "lower", "wall_s", _LS)
    for fn in ("synthesize_set", "save_instances", "load_instances"):
        add(f"problems.{fn}.s", "s", "lower", "wall_s", _DB)
    add("problems.instances_bytes", "bytes", "lower", "wall_s", _DB)

    # optimizers
    add("optimizers.run.calls", "count", "lower", "wall_s", _LS, _LW)
    add("optimizers.run.failed", "count", "lower", "wall_s", _LS, _LW)
    add("optimizers.run.fe_used", "count", "higher", "wall_s", _LS, _LW)
    add("optimizers.failed_run_share", "ratio", "lower", "wall_s", _LS, _LW)
    add("optimizers.budget_use", "ratio", "higher", "wall_s", _LS, _LW)
    add("optimizers.tracker.overhead_us_per_call", "us", "lower",
        "wall_s", _LS)
    for opt in POOL:
        favoured = (_LS,) if opt == "dual_annealing" else (_LS, _LW)
        add(f"optimizers.{opt}.self_s", "s", "lower", "wall_s", *favoured)
        add(f"optimizers.{opt}.us_per_fe", "us", "lower",
            "instances_per_s", *favoured)

    # bench
    add("bench.self_s", "s", "lower", "wall_s", _LS)
    add("bench.instance_s.p50", "s", "lower", "wall_s", _LW)
    add("bench.instance_s.max", "s", "lower", "wall_s", _LW)
    add("bench.instance_s.max_share", "ratio", "lower", "wall_s", _LW)
    add("bench.winner_ties", "count", "lower", "wall_s", _LS, _LW)
    add("bench.degenerate", "count", "lower", "instances_per_s", _LS, _LW)
    add("bench.degenerate_share", "ratio", "lower", "instances_per_s",
        _LS, _LW)
    add("bench.fe_per_s", "1/s", "higher", "instances_per_s", _LS, _LW)

    # render
    for s in STYLES:
        add(f"render.render_prompt.ms_per_call.{s}", "ms", "lower",
            "wall_s", _DB)
    add("render.prompt_chars.p50", "chars", "lower", "wall_s", _DB)
    add("render.prompt_chars.max", "chars", "lower", "peak_rss_mb", _DB)
    add("render.emit_answer.us_per_call", "us", "lower", "wall_s", _DB)

    # dataset
    add("dataset.build_instruction_set.self_s", "s", "lower", "wall_s", _DB)
    for fn in ("save_pairs", "load_pairs", "split_pairs"):
        add(f"dataset.{fn}.s", "s", "lower", "wall_s", _DB)
    add("dataset.pairs_bytes", "bytes", "lower", "peak_rss_mb", _DB)
    add("dataset.pairs_per_s", "1/s", "higher", "wall_s", _DB)
    for mode in ("homogeneous", "iid"):
        add(f"dataset.draw_batch.us_per_call.{mode}", "us", "lower",
            "wall_s", _DB)
    add("dataset.batch_contrastive_loss.us_per_call", "us", "lower",
        "wall_s", _DB)
    add("dataset.sample_batches_per_s", "1/s", "higher", "wall_s", _DB)

    # metrics
    add("metrics.compute_report.s", "s", "lower", "wall_s", _DB)
    add("metrics.recovery_cost.s", "s", "lower", "wall_s", _DB)

    # cli: stage process wall time, and what of it is not layer time
    for st in STAGES:
        on = (_LS, _LW) if st == "bench" else (_DB,)
        add(f"cli.{st}.s", "s", "lower", "wall_s", *on)
        add(f"cli.{st}.overhead_s", "s", "lower", "wall_s", *on)

    # the tracer's own cost: traced minus untraced in-process time
    add("trace.overhead_s", "s", "lower", "wall_s", _LS, _LW, _DB)
    add("trace.overhead_share", "ratio", "lower", "wall_s", _LS, _LW, _DB)
    return m


PER_LAYER = _layer_metrics()


def benchmark_json():
    """The BENCHMARK.json document (exactly the contract's keys)."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound, _) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, (u, b, _, _) in PER_LAYER.items()
        ],
    }


def render_json():
    return json.dumps(benchmark_json(), indent=2) + "\n"


def render_mapping():
    """Markdown table: layer metric -> end-to-end metric -> workloads."""
    rows = ["| layer metric | unit | moves | on |", "|---|---|---|---|"]
    for n, (u, _, moves, on) in PER_LAYER.items():
        rows.append(f"| `{n}` | {u} | `{moves}` | {', '.join(on)} |")
    return "\n".join(rows) + "\n"


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if sys.argv[1:] == ["--write"]:
        target.write_text(render_json())
        print(f"wrote {target}")
    elif sys.argv[1:] == ["--mapping"]:
        sys.stdout.write(render_mapping())
    else:
        sys.stdout.write(render_json())
