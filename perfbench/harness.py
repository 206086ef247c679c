"""Orchestration: set-up, the timed closed loop (``--trace 0``) and the
traced run (``--trace 1``), and the result line.

Timed loop: one ``optforge`` process per stage, stages one after
another, passes one after another (a closed loop with one client),
until ``--seconds`` have elapsed and at least two passes ran.  Every
pass reruns the same inputs, so the artifacts of all passes must be
byte-identical.

Traced run: one pass of stage processes (for stage wall times, peak
memory and the ``--jobs`` invariance check), then one untraced and one
traced serial pass through ``optforge.cli.main`` in this process.  The
difference between the last two is the tracing overhead.
"""

import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import spec
import stages
import tracing
import workloads as W

SETUP_REPS = 3
MAX_PASSES = 25
RUN_LIMIT_S = 160.0  # stop starting passes past this, whatever --seconds says

EXACT_COUNTS = (
    "problems.evaluate_batch.calls", "problems.evaluate_batch.rows",
    "optimizers.run.calls", "optimizers.run.failed", "optimizers.run.fe_used",
    "bench.winner_ties", "bench.degenerate",
)


class Run:
    """State of one benchmark invocation."""

    def __init__(self, root, name, seed, smoke):
        self.src = root / "src"
        self.wl = W.make(name, seed, smoke)
        self.smoke = smoke
        self.base = root / ".perfbench_work"
        self.work = self.base / f"{name}-{seed}-{os.getpid()}"
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self.t_start = time.perf_counter()

    # -- set-up -----------------------------------------------------------

    def setup(self, reps):
        """Import probe of the program plus input generation, ``reps``
        times; returns the median seconds.  Inputs land in work/inputs."""
        times = []
        inputs = self.work / "inputs"
        env = stages.stage_env(self.src)
        for _ in range(reps):
            shutil.rmtree(inputs, ignore_errors=True)
            inputs.mkdir(parents=True)
            t0 = time.perf_counter()
            stages.run_process([sys.executable, "-c", "import optforge.cli"],
                               self.work, env, self.work / "probe.log")
            W.prepare(self.wl, inputs)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def fresh_dir(self, tag):
        d = self.work / tag
        shutil.rmtree(d, ignore_errors=True)
        shutil.copytree(self.work / "inputs", d)
        return d

    # -- passes -----------------------------------------------------------

    def one_pass(self, tag, mode, reference=None):
        """Run one pass; on success return ``(result, dir, digests)``.

        A pass fails when a stage fails, when its outputs fail the checks
        (``reference`` is None) or when its digests differ from
        ``reference``.
        """
        d = self.fresh_dir(tag)
        self.attempted += 1
        try:
            res = stages.run_pass(self.wl, d, mode, src=self.src)
        except stages.StageError as exc:
            self.errors.append(f"{tag}: {exc}")
            self.failed += 1
            return None, d, None
        try:
            dg = checks.digests(d, self.wl.artifacts)
            if reference is None:
                errs, res.stats = checks.check(d, self.wl)
            else:
                errs = checks.same_digests(reference, dg, tag)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            dg, errs = None, [f"{tag}: unreadable outputs: {exc!r}"]
        if errs:
            self.errors.extend(errs)
            self.failed += 1
        return res, d, dg

    def timed_loop(self, seconds):
        passes = []
        reference = None
        t_loop = time.perf_counter()
        while len(passes) < MAX_PASSES:
            t0 = time.perf_counter()
            res, _, dg = self.one_pass("pass", "process", reference)
            if res is None or dg is None:
                break
            reference = reference or dg
            passes.append(res)
            now = time.perf_counter()
            if len(passes) >= 2 and (
                    now + (now - t0) > t_loop + seconds
                    or now - self.t_start > RUN_LIMIT_S):
                break
        return passes, reference

    # -- stored digests and counts ----------------------------------------

    def _store_path(self):
        """One record per program source and generated inputs."""
        h = hashlib.sha256()
        for p in sorted((self.src / "optforge").rglob("*.py")):
            h.update(p.relative_to(self.src).as_posix().encode())
            h.update(p.read_bytes())
        for p in sorted((self.work / "inputs").iterdir()):
            h.update(p.name.encode())
            h.update(p.read_bytes())
        return self.base / "store" / f"{self.wl.name}-{h.hexdigest()[:24]}.json"

    def compare_stored(self, digests=None, counts=None):
        """Digests and exact counts must repeat across invocations with
        the same seed and program; the first invocation records them."""
        path = self._store_path()
        stored = json.loads(path.read_text()) if path.exists() else {}
        for kind, now in (("digests", digests), ("counts", counts)):
            if now is None:
                continue
            before = stored.get(kind)
            if before is None:
                stored[kind] = now
            elif before != now:
                diff = sorted(k for k in now if before.get(k) != now[k])
                self.errors.append(f"{kind} differ from an earlier run of "
                                   f"this seed: {', '.join(diff)}")
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(stored, sort_keys=True))
        os.replace(tmp, path)

    # -- the two modes ----------------------------------------------------

    def end_to_end(self, seconds):
        setup_s = self.setup(SETUP_REPS)
        passes, reference = self.timed_loop(seconds)
        if reference is not None:
            self.compare_stored(digests=reference)
        if not passes:
            return {}, {}
        wall = statistics.median(p.wall_s for p in passes)
        metrics = {
            "wall_s": wall,
            "instances_per_s": self.wl.n_instances / wall,
            "peak_rss_mb": statistics.median(max(p.rss_mb.values())
                                             for p in passes),
            "setup_s": setup_s,
        }
        detail = {"passes": [{"stage_s": p.stage_s, "rss_mb": p.rss_mb}
                             for p in passes]}
        return metrics, detail

    def traced(self):
        self.setup(1)
        cli, cli_dir, reference = self.one_pass("cli", "process")
        if cli is None or reference is None:
            return {}, {}
        self.compare_stored(digests=reference)
        plain, _, _ = self.one_pass("plain", "inprocess", reference)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced, _, _ = self.one_pass("traced", "inprocess", reference)
        finally:
            tracer.restore()
        if plain is None or traced is None:
            return {}, {}

        agg = tracing.aggregate(tracer.spans)
        m = tracing.layer_metrics(agg)
        self._label_counts(m, cli)
        for st in spec.STAGES:
            m[f"cli.{st}.s"] = cli.stage_s.get(st, 0.0)
            m[f"cli.{st}.overhead_s"] = (cli.stage_s[st] - cli.main_s[st]
                                         if st in cli.stage_s else 0.0)
        pairs = cli_dir / W.PAIRS
        m["problems.instances_bytes"] = (cli_dir / W.INSTANCES).stat().st_size
        m["dataset.pairs_bytes"] = pairs.stat().st_size if pairs.exists() else 0
        m["dataset.pairs_per_s"] = (cli.stats["pairs"] / cli.stage_s["build"]
                                    if "build" in cli.stage_s else 0.0)
        m["dataset.sample_batches_per_s"] = (
            self.wl.sizes["batches"] / plain.sampling_loop_s
            if plain.sampling_loop_s else 0.0)
        m["trace.overhead_s"] = traced.wall_s - plain.wall_s
        m["trace.overhead_share"] = m["trace.overhead_s"] / plain.wall_s
        self.compare_stored(counts={k: m[k] for k in EXACT_COUNTS})
        missing = set(spec.PER_LAYER) - set(m)
        if missing:
            self.errors.append(f"layer metrics not computed: {sorted(missing)}")

        out = self.base / "results"
        out.mkdir(parents=True, exist_ok=True)
        tracer.write(out / f"{self.wl.name}-{self.wl.seed}.spans.jsonl.gz")
        detail = {"cli_stage_s": cli.stage_s, "cli_main_s": cli.main_s,
                  "cli_rss_mb": cli.rss_mb,
                  "inprocess_stage_s": plain.stage_s,
                  "traced_stage_s": traced.stage_s,
                  "spans": len(tracer.spans)}
        return {k: m[k] for k in spec.PER_LAYER}, detail

    def _label_counts(self, m, cli):
        """Exact counts from the records, cross-checked against the
        traced counts; 0 where the workload runs no bench."""
        stats = cli.stats
        if not self.wl.name.startswith("label-"):
            m["bench.winner_ties"] = m["bench.degenerate"] = 0
            m["bench.degenerate_share"] = m["bench.fe_per_s"] = 0.0
            m["optimizers.budget_use"] = 0.0
            return
        for traced_key, rec_key in (("optimizers.run.calls", "runs"),
                                    ("optimizers.run.failed", "failed"),
                                    ("optimizers.run.fe_used", "fe_used"),
                                    ("problems.evaluate_batch.rows", "fe_used")):
            if m[traced_key] != stats[rec_key]:
                self.errors.append(f"{traced_key} = {m[traced_key]}, records "
                                   f"give {stats[rec_key]}")
        m["bench.winner_ties"] = stats["winner_ties"]
        m["bench.degenerate"] = stats["degenerate"]
        m["bench.degenerate_share"] = stats["degenerate"] / self.wl.n_instances
        m["bench.fe_per_s"] = stats["fe_used"] / cli.stage_s["bench"]
        m["optimizers.budget_use"] = stats["fe_used"] / (
            stats["runs"] * self.wl.sizes["budget"])

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def execute(root, name, seed, seconds, trace, smoke=False):
    """Run the benchmark; return ``(result_line_dict, report)``."""
    import optforge.cli  # noqa: F401 -- warm imports before set-up timing

    run = Run(root, name, seed, smoke)
    try:
        run.work.mkdir(parents=True, exist_ok=True)
        if trace:
            metrics, detail = run.traced()
        else:
            metrics, detail = run.end_to_end(seconds)
    finally:
        run.cleanup()
    units = {n: v[0] for n, v in
             (spec.PER_LAYER if trace else spec.END_TO_END).items()}
    result = {
        "correct": not run.errors and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in units if n in metrics},
    }
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "smoke": smoke,
              "machine": stages.machine_facts(), "sizes": run.wl.sizes,
              "errors": run.errors, "detail": detail, "result": result}
    out = run.base / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}-{seed}-trace{trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True, default=str))
    return result, report


def main(argv=None):
    import argparse

    ap = argparse.ArgumentParser(description="optforge benchmark")
    ap.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "optforge" / "cli.py").is_file():
        print(f"perfbench: no optforge sources under {root / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    result, report = execute(root, args.workload, args.seed, args.seconds,
                             args.trace, args.smoke)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("machine " + json.dumps(report["machine"], sort_keys=True))
    for err in report["errors"]:
        print(f"CHECK FAILED: {err}")
    for name, v in result["metrics"].items():
        print(f"  {name:<48} {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1
