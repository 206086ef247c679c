"""Running one pass of a workload: stage processes for the timed loop,
``optforge.cli.main`` calls for the in-process runs, and the machine
facts recorded next to every result."""

import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as W

# Pinned for every stage process and for the benchmark's own process
# (before numpy loads), so serial and --jobs runs use the same BLAS
# threading.  The program itself pins them only in its --jobs worker
# initializer.
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

STAGE_TIMEOUT_S = 150.0

# A stage process is the console-script entry point (``optforge.cli.main``)
# plus a note of how long ``main`` itself ran, so that the rest of the
# process wall time (interpreter start, imports, exit) can be reported.
STAGE_ENTRY = """\
import json, sys, time
from optforge.cli import main
t0 = time.perf_counter()
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump({"main_s": time.perf_counter() - t0}, fh)
sys.exit(code)
"""
LAUNCHER = Path(__file__).resolve().parent / "launch.py"


class StageError(RuntimeError):
    pass


def stage_env(src):
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    env.pop("OPT_FORGE_LOG", None)
    return env


def run_process(argv, cwd, env, log_path, timeout=STAGE_TIMEOUT_S):
    """Run one process to completion through ``launch.py``; return
    ``(wall_s, peak_rss_mb)`` as the launcher measured them."""
    usage_path = log_path.with_suffix(".usage.json")
    usage_path.unlink(missing_ok=True)
    launcher = [sys.executable, "-I", "-S", str(LAUNCHER), str(usage_path),
                str(timeout), *argv]
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(launcher, cwd=cwd, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout + 30.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    tail = log_path.read_text(errors="replace")[-2000:]
    if proc.returncode != 0 or not usage_path.exists():
        raise StageError(f"launcher for {argv[4:5]} failed:\n{tail}")
    usage = json.loads(usage_path.read_text())
    if usage["returncode"] != 0:
        raise StageError(f"{argv[4:5]} exited {usage['returncode']}:\n{tail}")
    return usage["wall_s"], usage["peak_rss_mb"]


@dataclass
class PassResult:
    stage_s: dict = field(default_factory=dict)
    rss_mb: dict = field(default_factory=dict)
    main_s: dict = field(default_factory=dict)  # optforge.cli.main time
    sampling_loop_s: float = 0.0
    stats: dict = field(default_factory=dict)  # from the output checks

    @property
    def wall_s(self):
        return sum(self.stage_s.values())


def run_pass(wl, workdir, mode, src=None):
    """Execute every step of ``wl`` in ``workdir``.

    ``mode`` is ``"process"`` (one CLI process per stage, the workload's
    own flags) or ``"inprocess"`` (``optforge.cli.main`` in this
    process, serial: the tracer sees only this process).
    """
    res = PassResult()
    env = stage_env(src) if mode == "process" else None
    for step in wl.steps:
        if isinstance(step, W.Harness):
            step.fn(workdir, wl)
        elif isinstance(step, W.Sampling):
            t0 = time.perf_counter()
            res.sampling_loop_s = W.sample(workdir, wl)
            res.stage_s[step.name] = time.perf_counter() - t0
        elif mode == "process":
            main_json = workdir / f"{step.name}.main.json"
            argv = [sys.executable, "-c", STAGE_ENTRY, str(main_json),
                    *step.argv]
            wall, rss = run_process(argv, workdir, env,
                                    workdir / f"{step.name}.log")
            res.stage_s[step.name] = wall
            res.rss_mb[step.name] = rss
            res.main_s[step.name] = json.loads(main_json.read_text())["main_s"]
        else:
            res.stage_s[step.name] = _in_process(step, workdir)
    return res


def _in_process(step, workdir):
    import optforge.cli as cli

    argv = list(step.argv)
    if "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = "1"
    cwd = os.getcwd()
    out = io.StringIO()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    if code != 0:
        raise StageError(f"{step.name} returned {code}: {out.getvalue()}")
    return wall


def machine_facts():
    import numpy
    import scipy

    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(numpy),
        "stage_env": dict(BLAS_ENV),
    }
    return facts


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_version(numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 -- older numpy has no dict mode
        return "unknown"
