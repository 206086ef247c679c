"""Command-line pipeline: synthesize, benchmark, build, split, plan,
metrics, render.

Every subcommand shares the same conventions, which :func:`main`
applies before the stage runs: ``--config`` loads a JSON
:class:`PipelineConfig` (flags override fields), and ``--force``
overwrites outputs (without it, a command whose outputs all exist is a
no-op so pipelines are resumable).  Each subparser names its output
flags in ``outputs`` and its input flags in ``inputs``; two outputs
naming one file, or an output naming an input (``--config`` too), is an
error.  A stage writes all of its outputs and returns 0, or fails and
writes none of them; bench's error names the instance that raised.  The
three stages that draw random numbers (synth, bench, split) take
``--seed``, which overrides the config seed.  The ``OPT_FORGE_LOG``
environment variable sets the log level.
"""

import argparse
import contextlib
import json
import logging
import os
from collections import Counter
from dataclasses import asdict, dataclass, field, fields

from .artifacts import reading, write_json, write_text
from .bench import (DEFAULT_POOL, benchmark_set, load_knowledge,
                    save_outcomes, winner_counts)
from .dataset import (build_instruction_set, load_pairs, sampling_weights,
                      save_pairs, split_pairs)
from .metrics import (EvalOutcome, MetricsReport, RepairRecord,
                      compute_report, format_table)
from .problems.instance import load_instances, save_instances
from .problems.synthesis import synthesize_set
from .render.answers import DegenerateEntryError, emit_answer
from .render.prompts import render_prompt
from .render.styles import WritingStyle

log = logging.getLogger("optforge.cli")

__all__ = ["PipelineConfig", "main"]


# a field's annotation -> the types its JSON value may have, and their name
_FIELD_TYPES = {int: (int, "an integer"),
                int | None: (int | None, "an integer or null"),
                float: ((int, float), "a number"),
                list: (list, "a list of strings")}


@dataclass
class PipelineConfig:
    """Everything the pipeline needs, JSON round-trippable."""

    n_unconstrained: int = 80
    n_constrained: int = 20
    d_min: int = 2
    d_max: int = 50
    k_min: int = 1
    k_max: int = 5
    fe_budget: int = 40000
    runs: int = 5
    config_cap: int | None = 64
    pool: list = field(default_factory=lambda: list(DEFAULT_POOL))
    styles: list = field(default_factory=lambda: [s.value for s in WritingStyle])
    test_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        # a JSON value of the wrong type fails here, named, and not deep
        # inside a stage; a bool is no number
        for f in fields(self):
            value = getattr(self, f.name)
            types, name = _FIELD_TYPES[f.type]
            if (not isinstance(value, types) or isinstance(value, bool)
                    or (f.type is list
                        and not all(isinstance(v, str) for v in value))):
                raise ValueError(f"{f.name} must be {name}, got {value!r}")

    @classmethod
    def from_json(cls, path):
        with open(path) as fh, reading(path):
            return cls(**json.load(fh))


def _load_config(args):
    cfg = (PipelineConfig.from_json(args.config) if args.config
           else PipelineConfig())
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


def _flag(dest):
    return "--" + dest.replace("_", "-")


def _outputs_exist(args):
    """Resumability: skip work when every output is already a regular
    file on disk; an output that names a directory fails at its write.

    Two outputs named by one file are an error, not a no-op: the second
    write would replace the first, and a later run would take the
    survivor as done.  So is an output that names one of the stage's
    inputs: the stage would write over what it reads.
    """
    inputs = {os.path.realpath(getattr(args, i)): i
              for i in ("config", *args.inputs) if getattr(args, i)}
    outputs = {o: getattr(args, o) for o in args.outputs if getattr(args, o)}
    seen = {}
    for o, path in outputs.items():
        real = os.path.realpath(path)
        if real in inputs:
            raise SystemExit(f"{_flag(o)} would write over the input "
                             f"{_flag(inputs[real])}: {path}")
        first = seen.setdefault(real, o)
        if first != o:
            raise SystemExit(f"{_flag(first)} and {_flag(o)} name one file: "
                             f"{path}")
    if not outputs or args.force:
        return False
    if all(os.path.isfile(p) for p in outputs.values()):
        print("outputs exist, nothing to do (use --force to rebuild): "
              + ", ".join(outputs.values()))
        return True
    return False


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args, cfg):
    instances = synthesize_set(
        cfg.n_unconstrained, cfg.n_constrained,
        d_range=(cfg.d_min, cfg.d_max), k_range=(cfg.k_min, cfg.k_max),
        master_seed=cfg.seed, fe_budget=cfg.fe_budget,
    )
    save_instances(instances, args.out)
    print(f"wrote {len(instances)} instances to {args.out}")
    return 0


def cmd_bench(args, cfg):
    instances = load_instances(args.instances)
    # closed on a failed write, so that --jobs workers stop early
    with contextlib.closing(benchmark_set(
            instances, pool=tuple(cfg.pool), cap=cfg.config_cap,
            runs=cfg.runs, master_seed=cfg.seed,
            parallelism=args.jobs)) as outcomes:
        entries = save_outcomes(outcomes, args.records, args.out)
    histogram = winner_counts(entries)
    print(f"wrote {len(entries)} knowledge entries to {args.out}")
    for name in sorted(histogram):
        print(f"  winner {name:<20} {histogram[name]}")
    n_deg = sum(1 for e in entries if e.degenerate)
    if n_deg:
        print(f"  degenerate entries: {n_deg}")
    return 0


def cmd_build(args, cfg):
    instances = load_instances(args.instances)
    knowledge = load_knowledge(args.knowledge)
    pairs, skipped = build_instruction_set(instances, knowledge,
                                           styles=cfg.styles)
    chars = []

    def noted(pairs):
        for p in pairs:
            chars.append(len(p.q))
            yield p

    save_pairs(noted(pairs), args.out)
    print(f"wrote {len(chars)} instruction pairs to {args.out}")
    if chars:
        chars.sort()
        print(f"  prompt chars: p50 {chars[(len(chars) - 1) // 2]}, "
              f"max {chars[-1]}")
    if skipped:
        print(f"  skipped degenerate instances: {len(skipped)} "
              f"({', '.join(skipped)})")
    return 0


def cmd_split(args, cfg):
    # two passes over the pairs file: the ids pick the test side, then
    # each pair goes to its side
    test_ids = split_pairs((p.instance_id for p in load_pairs(args.pairs)),
                           test_fraction=cfg.test_fraction, seed=cfg.seed)
    n_train, n_test = save_pairs(
        load_pairs(args.pairs), args.train_out, args.test_out,
        side=lambda p: p.instance_id in test_ids)
    print(f"split {n_train + n_test} pairs into {n_train} train / "
          f"{n_test} test (instance-level)")
    return 0


def cmd_plan(args, cfg):
    labels = [p.label for p in load_pairs(args.pairs)]
    if not labels:
        raise SystemExit(f"{args.pairs}: no pairs to weight")
    weights = sampling_weights(labels)
    label_counts = Counter(labels)
    write_json(args.out, {
        "n_pairs": len(labels),
        "n_labels": len(label_counts),
        "label_counts": label_counts,
        "rho_per_pair_by_label": dict(zip(labels, weights.tolist())),
        "weights_sum": float(weights.sum()),
    })
    print(f"wrote sampling plan for {len(labels)} pairs to {args.out}")
    return 0


def _parse_eval_file(path):
    """Read the metrics input, naming the entry of any malformed record."""
    with open(path) as fh, reading(path):
        systems = json.load(fh)["systems"]
    if not isinstance(systems, dict) or not systems:
        raise ValueError(f"{path}: expected a non-empty 'systems' mapping")
    parsed = {}
    for name, block in systems.items():
        with reading(f"{path}: system {name!r}"):
            outcomes = []
            for i, o in enumerate(block["outcomes"]):
                with reading(f"outcome {i}"):
                    outcomes.append(EvalOutcome(**o))
            repairs = []
            for i, r in enumerate(block.get("repairs", [])):
                with reading(f"repair {i}"):
                    repairs.append(RepairRecord(**r))
            parsed[name] = (outcomes, repairs, block["answers"],
                            block["n_problems"], block["n_runs"])
    return parsed


def cmd_metrics(args, cfg):
    systems = _parse_eval_file(args.results)
    reports = {}
    for name, parts in systems.items():
        with reading(f"{args.results}: system {name!r}"):
            reports[name] = compute_report(*parts)
    print(format_table(reports))
    if args.out:
        write_json(args.out,
                   {name: asdict(r) for name, r in reports.items()})
        print(f"wrote metrics report to {args.out}")
    return 0


def cmd_render(args, cfg):
    instances = load_instances(args.instances)
    if not instances:
        raise SystemExit(f"{args.instances}: no instances to render")
    if args.id:
        matches = [i for i in instances if i.id == args.id]
        if not matches:
            raise SystemExit(f"no instance with id {args.id}")
        inst = matches[0]
    else:
        inst = instances[0]
    style = WritingStyle.parse(args.style)
    doc = render_prompt(inst, style)
    out = doc.text
    if args.knowledge:
        entry = next((e for e in load_knowledge(args.knowledge)
                      if e.instance_id == inst.id), None)
        if entry is None:
            raise SystemExit(f"no knowledge entry for instance {inst.id}")
        try:
            answer = emit_answer(entry)
        except DegenerateEntryError as exc:
            raise SystemExit(f"no answer to print: {exc}") from None
        out += ("\n" + "=" * 30 + f" answer ({entry.best_optimizer}) "
                + "=" * 30 + "\n\n" + answer)
    if args.out:
        write_text(args.out, out)
        print(f"wrote rendering to {args.out}")
    else:
        print(out, end="")
    return 0


# ---------------------------------------------------------------------------

def _add_common(sub, out_required=True, out_help="output path",
                seeded=False):
    sub.add_argument("--config", help="pipeline config JSON")
    if seeded:
        sub.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
    sub.add_argument("--force", action="store_true",
                     help="overwrite existing outputs")
    if out_required is not None:
        sub.add_argument("--out", required=out_required, help=out_help)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="optforge",
        description="Synthesize optimization problems, benchmark an "
                    "optimizer pool, and assemble instruction datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a problem corpus")
    _add_common(p, out_help="instances JSONL path", seeded=True)
    p.set_defaults(fn=cmd_synth, inputs=(), outputs=("out",))

    p = sub.add_parser("bench", help="benchmark instances against the pool")
    _add_common(p, out_help="knowledge JSONL path", seeded=True)
    p.add_argument("--instances", required=True, help="instances JSONL")
    p.add_argument("--records", required=True,
                   help="per-config audit JSONL")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel worker processes")
    p.set_defaults(fn=cmd_bench, inputs=("instances",),
                   outputs=("out", "records"))

    p = sub.add_parser("build", help="render instruction pairs")
    _add_common(p, out_help="pairs JSONL path")
    p.add_argument("--instances", required=True, help="instances JSONL")
    p.add_argument("--knowledge", required=True, help="knowledge JSONL")
    p.set_defaults(fn=cmd_build, inputs=("instances", "knowledge"),
                   outputs=("out",))

    p = sub.add_parser("split", help="instance-level train/test split")
    _add_common(p, out_required=None, seeded=True)
    p.add_argument("--pairs", required=True, help="pairs JSONL")
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)
    p.set_defaults(fn=cmd_split, inputs=("pairs",),
                   outputs=("train_out", "test_out"))

    p = sub.add_parser("plan", help="summarize pair sampling weights")
    _add_common(p, out_help="plan JSON path")
    p.add_argument("--pairs", required=True, help="pairs JSONL")
    p.set_defaults(fn=cmd_plan, inputs=("pairs",), outputs=("out",))

    p = sub.add_parser("metrics", help="score evaluation results")
    _add_common(p, out_required=False, out_help="report JSON path")
    p.add_argument("--results", required=True,
                   help="evaluation results JSON (systems mapping)")
    p.set_defaults(fn=cmd_metrics, inputs=("results",), outputs=("out",))

    p = sub.add_parser("render", help="print one instance's prompt")
    _add_common(p, out_required=False, out_help="write instead of printing")
    p.add_argument("--instances", required=True, help="instances JSONL")
    p.add_argument("--id", default=None, help="instance id (default: first)")
    p.add_argument("--style", default="py_vector",
                   help="writing style (default: py_vector)")
    p.add_argument("--knowledge", default=None,
                   help="knowledge JSONL; also print the paired answer")
    p.set_defaults(fn=cmd_render, inputs=("instances", "knowledge"),
                   outputs=("out",))

    return parser


def main(argv=None):
    logging.basicConfig(
        level=os.environ.get("OPT_FORGE_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    cfg = _load_config(args)
    if _outputs_exist(args):
        return 0
    return args.fn(args, cfg)


if __name__ == "__main__":
    raise SystemExit(main())
