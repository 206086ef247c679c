"""In-memory span tracer for the serial, in-process traced run.

The tracer wraps public functions at the bindings their callers use
(``optforge.bench.run``, ``optforge.optimizers.base.evaluate_batch``,
``ObjectiveTracker.batch``, ...).  Each call records one span
``[name, start, end, parent, info]``; ``info`` holds what the layer
metrics need from the call (rows, paradigm, optimizer id, style, ...).
Spans stay in memory until :meth:`Tracer.write` at the end of the run.

Self time is a span's duration minus the time its direct child spans
cover.  The run is serial, so children never overlap and that cover is
the sum of their durations.
"""

import gzip
import json
import statistics
import time
from collections import defaultdict

import spec

_NAME, _T0, _T1, _PARENT, _INFO = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def span(self, name, fn, info=None):
        """Wrap ``fn`` so that every call records a span.

        ``info(args, kwargs, result)`` extracts per-call details; it runs
        after the timed interval closes.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[_T0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_T1] = clock()
                stack.pop()
            if info is not None:
                rec[_INFO] = info(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr, name, info=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, info))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(json.dumps(s))
                fh.write("\n")


def install(tracer):
    """Patch every traced binding; undo with ``tracer.restore()``."""
    import optforge.bench as bench
    import optforge.cli as cli
    import optforge.dataset as dataset
    import optforge.metrics as metrics
    import optforge.optimizers.base as base
    import optforge.problems.instance as instance

    def rows_info(args, kwargs, result):
        return (len(args[1]), args[0].paradigm)

    def run_info(args, kwargs, result):
        return (args[0], result.status, result.fe_used)

    def style_info(args, kwargs, result):
        return (result.style, len(result.text))

    def draw_info(args, kwargs, result):
        return "homogeneous" if kwargs.get("homogeneous") else "iid"

    p = tracer.patch
    # problems
    p(base, "evaluate_batch", "problems.evaluate_batch", rows_info)
    p(instance, "constraint_values", "problems.constraint_values")
    p(cli, "synthesize_set", "problems.synthesize_set")
    p(cli, "save_instances", "problems.save_instances")
    p(cli, "load_instances", "problems.load_instances")
    # optimizers
    p(base.ObjectiveTracker, "batch", "optimizers.tracker.batch")
    p(bench, "run", "optimizers.run", run_info)
    # bench
    p(bench, "benchmark_instance", "bench.benchmark_instance")
    # render
    p(dataset, "render_prompt", "render.render_prompt", style_info)
    p(dataset, "emit_answer", "render.emit_answer")
    # dataset
    p(cli, "build_instruction_set", "dataset.build_instruction_set")
    p(cli, "save_pairs", "dataset.save_pairs")
    p(cli, "load_pairs", "dataset.load_pairs")
    p(cli, "split_pairs", "dataset.split_pairs")
    p(dataset.SamplingPlan, "draw_batch", "dataset.draw_batch", draw_info)
    p(dataset, "batch_contrastive_loss", "dataset.batch_contrastive_loss")
    # metrics
    p(cli, "compute_report", "metrics.compute_report")
    p(metrics, "recovery_cost", "metrics.recovery_cost")


def aggregate(spans):
    """Per-name totals: calls, inclusive time, self time, and the spans.

    Returns ``{name: {"calls", "total_s", "self_s", "items"}}`` where
    ``items`` lists ``(duration, self_duration, info)`` per call.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[_PARENT] >= 0:
            child_time[s[_PARENT]] += s[_T1] - s[_T0]
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                               "items": []})
    for i, s in enumerate(spans):
        dur = s[_T1] - s[_T0]
        own = dur - child_time[i]
        a = out[s[_NAME]]
        a["calls"] += 1
        a["total_s"] += dur
        a["self_s"] += own
        a["items"].append((dur, own, s[_INFO]))
    return out


def layer_metrics(agg):
    """Turn aggregated spans into the layer metrics the spans can give.

    Metrics whose layer saw no calls are 0.
    """
    def get(name):
        return agg.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                              "items": []})

    def per(total, count, scale=1.0):
        return total / count * scale if count else 0.0

    m = {}
    ev = get("problems.evaluate_batch")
    rows = sum(info[0] for _, _, info in ev["items"])
    m["problems.evaluate_batch.calls"] = ev["calls"]
    m["problems.evaluate_batch.rows"] = rows
    m["problems.evaluate_batch.rows_per_call"] = per(rows, ev["calls"])
    m["problems.evaluate_batch.self_s"] = ev["self_s"]
    m["problems.evaluate_batch.us_per_row"] = per(ev["total_s"], rows, 1e6)
    for p in spec.PARADIGMS:
        t = sum(d for d, _, info in ev["items"] if info[1] == p)
        r = sum(info[0] for _, _, info in ev["items"] if info[1] == p)
        m[f"problems.evaluate_batch.us_per_row.{p}"] = per(t, r, 1e6)
    m["problems.constraint_values.self_s"] = \
        get("problems.constraint_values")["self_s"]
    for fn in ("synthesize_set", "save_instances", "load_instances"):
        m[f"problems.{fn}.s"] = get(f"problems.{fn}")["total_s"]

    runs = get("optimizers.run")
    fe_used = sum(info[2] for _, _, info in runs["items"])
    failed = sum(1 for _, _, info in runs["items"] if info[1] != "ok")
    m["optimizers.run.calls"] = runs["calls"]
    m["optimizers.run.failed"] = failed
    m["optimizers.run.fe_used"] = fe_used
    m["optimizers.failed_run_share"] = per(failed, runs["calls"])
    batch = get("optimizers.tracker.batch")
    m["optimizers.tracker.overhead_us_per_call"] = \
        per(batch["self_s"], batch["calls"], 1e6)
    for opt in spec.POOL:
        mine = [(d, own, info[2]) for d, own, info in runs["items"]
                if info[0] == opt]
        m[f"optimizers.{opt}.self_s"] = sum(own for _, own, _ in mine)
        m[f"optimizers.{opt}.us_per_fe"] = per(
            sum(d for d, _, _ in mine), sum(fe for _, _, fe in mine), 1e6)

    inst = get("bench.benchmark_instance")
    times = [d for d, _, _ in inst["items"]]
    m["bench.self_s"] = inst["self_s"]
    m["bench.instance_s.p50"] = statistics.median(times) if times else 0.0
    m["bench.instance_s.max"] = max(times, default=0.0)
    m["bench.instance_s.max_share"] = per(max(times, default=0.0),
                                          sum(times))

    rp = get("render.render_prompt")
    for s in spec.STYLES:
        t = [d for d, _, info in rp["items"] if info[0] == s]
        m[f"render.render_prompt.ms_per_call.{s}"] = per(sum(t), len(t), 1e3)
    chars = [info[1] for _, _, info in rp["items"]]
    m["render.prompt_chars.p50"] = statistics.median(chars) if chars else 0
    m["render.prompt_chars.max"] = max(chars, default=0)
    ea = get("render.emit_answer")
    m["render.emit_answer.us_per_call"] = per(ea["total_s"], ea["calls"], 1e6)

    m["dataset.build_instruction_set.self_s"] = \
        get("dataset.build_instruction_set")["self_s"]
    for fn in ("save_pairs", "load_pairs", "split_pairs"):
        m[f"dataset.{fn}.s"] = get(f"dataset.{fn}")["total_s"]
    db = get("dataset.draw_batch")
    for mode in ("homogeneous", "iid"):
        t = [d for d, _, info in db["items"] if info == mode]
        m[f"dataset.draw_batch.us_per_call.{mode}"] = \
            per(sum(t), len(t), 1e6)
    loss = get("dataset.batch_contrastive_loss")
    m["dataset.batch_contrastive_loss.us_per_call"] = \
        per(loss["total_s"], loss["calls"], 1e6)

    m["metrics.compute_report.s"] = get("metrics.compute_report")["total_s"]
    m["metrics.recovery_cost.s"] = get("metrics.recovery_cost")["total_s"]
    return m
