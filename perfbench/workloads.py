"""The three workloads: how their inputs are made from the seed, and
which steps one pass runs.

A pass is a list of steps.  ``Stage`` steps are ``optforge`` CLI
subcommands, run as their own process in the timed loop (or through
``optforge.cli.main`` in the in-process runs).  ``Harness`` steps are
the benchmark's own untimed work between stages: it writes the
knowledge file and the eval-results file for ``dataset-build``.
``Sampling`` is the timed in-process sampling phase.

Every input is a function of the seed alone: instance shapes are fixed
per workload and only their content is drawn, so that seeds differ in
what is computed, not in how much.
"""

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

import spec

KNOWLEDGE = "knowledge.jsonl"
RECORDS = "records.jsonl"
INSTANCES = "instances.jsonl"
CONFIG = "config.json"
PAIRS = "pairs.jsonl"
TRAIN = "train.jsonl"
TEST = "test.jsonl"
PLAN = "plan.json"
EVAL = "eval_results.json"
REPORT = "report.json"
SAMPLES = "samples.json"

EVAL_RUNS = 3
DEGENERATE_EVERY = 10  # dataset-build: every 10th knowledge entry


def seed_for(*parts):
    """64-bit seed from the benchmark's own hash, independent of the
    program's seeding code."""
    blob = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


@dataclass(frozen=True)
class Stage:
    name: str
    argv: tuple


@dataclass(frozen=True)
class Harness:
    name: str
    fn: object  # fn(workdir, workload)


@dataclass(frozen=True)
class Sampling:
    name: str = "sampling"


@dataclass
class Workload:
    name: str
    seed: int
    sizes: dict
    n_instances: int = 0
    artifacts: tuple = ()
    steps: list = field(default_factory=list)

    def config(self):
        """The pipeline config JSON the stages read."""
        s = self.sizes
        if self.name == "dataset-build":
            return {"seed": self.seed, "fe_budget": s["budget"],
                    "n_unconstrained": s["n_unconstrained"],
                    "n_constrained": s["n_constrained"],
                    "d_min": s["d"][0], "d_max": s["d"][1],
                    "k_min": s["k"][0], "k_max": s["k"][1]}
        return {"seed": self.seed, "runs": s["runs"],
                "config_cap": s["cap"], "fe_budget": s["budget"]}


# ---------------------------------------------------------------------------
# sizes

FULL = {
    "label-small": {"n": 21, "budget": 300, "cap": 4, "runs": 2, "jobs": 1},
    "label-wide": {
        # (d, k, paradigm, constrained, (#weierstrass, #katsuura))
        "shapes": [(30, 3, "composition", True, (1, 0)),
                   (50, 5, "hybrid", False, (0, 1)),
                   (40, 4, "composition", False, (1, 0)),
                   (35, 3, "hybrid", False, (0, 0)),
                   (45, 5, "composition", False, (0, 1)),
                   (50, 4, "hybrid", False, (0, 0))],
        "budget": 2000, "cap": 2, "runs": 2, "jobs": 2,
    },
    "dataset-build": {"n_unconstrained": 120, "n_constrained": 30,
                      "d": (2, 50), "k": (1, 5), "budget": 40000,
                      "batches": 400, "batch_size": 16, "embed_dim": 32},
}

SMOKE = {
    "label-small": {"n": 2, "budget": 200, "cap": 1, "runs": 1, "jobs": 1},
    "label-wide": {
        "shapes": [(30, 3, "composition", True, (1, 0)),
                   (30, 3, "hybrid", False, (0, 0))],
        "budget": 300, "cap": 1, "runs": 1, "jobs": 2,
    },
    "dataset-build": {"n_unconstrained": 8, "n_constrained": 2,
                      "d": (2, 10), "k": (1, 3), "budget": 1000,
                      "batches": 10, "batch_size": 8, "embed_dim": 8},
}


# ---------------------------------------------------------------------------
# inputs

# basic functions that cost 5-50x the others per row; label-wide fixes
# how many of them each slot holds so that seeds differ in content, not
# in kernel cost
COSTLY = ("weierstrass", "katsuura")


def _label_shapes(name, sizes):
    """Slots ``(d, k, paradigm, constrained, costly_counts)``; None
    leaves that property to the seed."""
    if name == "label-wide":
        return list(sizes["shapes"])
    # d 2-8 against k 1-3 (k <= d), constrained on every other slot
    out = []
    for i in range(sizes["n"]):
        d = 2 + i % 7
        k = min(d, 1 + (i // 7) % 3)
        out.append((d, k, None, i % 2 == 1, None))
    return out


def _fits(inst, paradigm, costly):
    if paradigm is not None and inst.paradigm != paradigm:
        return False
    names = [c.basic for c in inst.components]
    return costly is None or tuple(names.count(n) for n in COSTLY) == costly


def _label_instances(name, seed, sizes):
    from optforge.problems.synthesis import synthesize_instance

    instances = []
    for i, (d, k, paradigm, constrained, costly) in enumerate(
            _label_shapes(name, sizes)):
        # a slot takes the first seed of its sequence that fits its shape
        for attempt in range(1000):
            inst = synthesize_instance(
                d, k, constrained, seed_for(name, seed, i, attempt),
                fe_budget=sizes["budget"])
            if _fits(inst, paradigm, costly):
                break
        else:
            raise RuntimeError(f"{name}: no instance fits slot {i}")
        instances.append(inst)
    return instances


def prepare(wl, workdir):
    """Write the workload's inputs into ``workdir`` (set-up)."""
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / CONFIG).write_text(json.dumps(wl.config(), sort_keys=True))
    if wl.name.startswith("label-"):
        from optforge.problems.instance import save_instances

        save_instances(_label_instances(wl.name, wl.seed, wl.sizes),
                       workdir / INSTANCES)


def write_knowledge(workdir, wl):
    """dataset-build: one knowledge entry per synthesized instance, with
    a seeded winner and ``config_at`` grid index in place of a bench."""
    from optforge.optimizers.grids import config_at, grid_size

    rng = np.random.Generator(np.random.PCG64(seed_for(wl.name, wl.seed, "k")))
    lines = []
    with open(workdir / INSTANCES) as fh:
        ids = [json.loads(line)["id"] for line in fh if line.strip()]
    for i, inst_id in enumerate(ids):
        entry = {"instance_id": inst_id, "best_optimizer": "random_search",
                 "best_config": {}, "best_config_index": 0, "f_star": None,
                 "mean_eval": 0.0, "degenerate": True}
        if i % DEGENERATE_EVERY != DEGENERATE_EVERY - 1:
            opt = spec.POOL[int(rng.integers(len(spec.POOL)))]
            idx = int(rng.integers(grid_size(opt)))
            entry.update(best_optimizer=opt, best_config=config_at(opt, idx),
                         best_config_index=idx,
                         f_star=float(rng.normal()),
                         mean_eval=float(rng.uniform(0.5, 1.0)),
                         degenerate=False)
        lines.append(json.dumps(entry, sort_keys=True))
    (workdir / KNOWLEDGE).write_text("\n".join(lines) + "\n")


def write_eval_results(workdir, wl):
    """dataset-build: eval results for the test split's answers --
    seeded outcomes, a seeded repair of every answer, and the answers."""
    answers = {}
    with open(workdir / TEST) as fh:
        for line in fh:
            if line.strip():
                p = json.loads(line)
                answers.setdefault(p["instance_id"], p["a"])
    ids = sorted(answers)
    rng = np.random.Generator(np.random.PCG64(seed_for(wl.name, wl.seed, "e")))
    outcomes, repairs = [], []
    for pid in ids:
        for r in range(EVAL_RUNS):
            if rng.random() < 0.1:
                outcomes.append({"problem_id": pid, "run": r, "failed": True})
                continue
            f_star = float(rng.normal())
            f0 = f_star + 1e-3 + float(rng.exponential(10.0))
            f_best = f_star + (f0 - f_star) * float(rng.random())
            outcomes.append({"problem_id": pid, "run": r, "failed": False,
                             "f0": f0, "f_best": f_best, "f_star": f_star})
        lines = answers[pid].splitlines()
        for j in rng.choice(len(lines), size=min(len(lines), 4),
                            replace=False):
            lines[j] = "pass  # repaired" if rng.random() < 0.5 else ""
        repairs.append({"problem_id": pid, "original": answers[pid],
                        "repaired": "\n".join(lines) + "\n"})
    doc = {"systems": {"optforge": {
        "outcomes": outcomes, "repairs": repairs,
        "answers": [answers[pid] for pid in ids],
        "n_problems": len(ids), "n_runs": EVAL_RUNS}}}
    (workdir / EVAL).write_text(json.dumps(doc, sort_keys=True))


def sample(workdir, wl):
    """The sampling phase: alternate homogeneous and iid batches drawn
    from ``SamplingPlan`` and score each with ``batch_contrastive_loss``
    on seeded random embeddings.

    Returns the seconds the batch loop took.  The batches (instance ids
    and losses) go to ``samples.json`` for the checks.
    """
    import optforge.dataset as dataset

    s = wl.sizes
    plan = dataset.SamplingPlan.build(dataset.load_pairs(str(workdir / TRAIN)))
    rng = np.random.Generator(np.random.PCG64(seed_for(wl.name, wl.seed, "s")))
    emb = np.random.Generator(np.random.PCG64(seed_for(wl.name, wl.seed, "z")))
    batches = []
    t0 = time.perf_counter()
    for b in range(s["batches"]):
        homogeneous = b % 2 == 0
        batch = plan.draw_batch(s["batch_size"], rng, homogeneous=homogeneous)
        z = emb.standard_normal((len(batch), s["embed_dim"]))
        loss = dataset.batch_contrastive_loss(z, [p.label for p in batch])
        batches.append({"homogeneous": homogeneous, "loss": loss,
                        "instances": [p.instance_id for p in batch]})
    loop_s = time.perf_counter() - t0
    (workdir / SAMPLES).write_text(json.dumps(batches, sort_keys=True))
    return loop_s


# ---------------------------------------------------------------------------

def make(name, seed, smoke=False):
    if name not in spec.WORKLOADS:
        raise KeyError(name)
    sizes = (SMOKE if smoke else FULL)[name]
    wl = Workload(name=name, seed=seed, sizes=sizes)
    if name.startswith("label-"):
        wl.n_instances = len(_label_shapes(name, sizes))
        wl.artifacts = (KNOWLEDGE, RECORDS)
        wl.steps = [Stage("bench", (
            "bench", "--config", CONFIG, "--instances", INSTANCES,
            "--out", KNOWLEDGE, "--records", RECORDS,
            "--jobs", str(sizes["jobs"]), "--force"))]
    else:
        wl.n_instances = sizes["n_unconstrained"] + sizes["n_constrained"]
        wl.artifacts = (INSTANCES, KNOWLEDGE, PAIRS, TRAIN, TEST, PLAN,
                        EVAL, REPORT, SAMPLES)
        wl.steps = [
            Stage("synth", ("synth", "--config", CONFIG, "--out", INSTANCES,
                            "--force")),
            Harness("knowledge", write_knowledge),
            Stage("build", ("build", "--config", CONFIG, "--instances",
                            INSTANCES, "--knowledge", KNOWLEDGE, "--out",
                            PAIRS, "--force")),
            Stage("split", ("split", "--config", CONFIG, "--pairs", PAIRS,
                            "--train-out", TRAIN, "--test-out", TEST,
                            "--force")),
            Stage("plan", ("plan", "--config", CONFIG, "--pairs", TRAIN,
                           "--out", PLAN, "--force")),
            Harness("eval_results", write_eval_results),
            Stage("metrics", ("metrics", "--config", CONFIG, "--results",
                              EVAL, "--out", REPORT, "--force")),
            Sampling(),
        ]
    return wl
