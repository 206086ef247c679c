#!/usr/bin/env python3
"""Desk-scale end-to-end demo of the dataset factory.

Runs the real ``optforge`` stages on a small config: synth, bench with
trimmed budgets, build in all six writing styles, an instance-level
split and the sampling plan.  Then it exercises the sampling and
contrastive pieces, which no stage runs.  Everything is seeded, so two
runs print the same numbers.

Usage:
    python3 scripts/run_pipeline.py [--out-dir DIR] [--seed N]
"""

import argparse
import json
import tempfile
from pathlib import Path

import numpy as np

from optforge import SamplingPlan, batch_contrastive_loss, load_pairs
from optforge.cli import main as optforge

CONFIG = {
    "n_unconstrained": 8, "n_constrained": 4, "d_min": 2, "d_max": 8,
    "k_min": 1, "k_max": 3, "fe_budget": 400, "runs": 2, "config_cap": 4,
    "test_fraction": 0.25,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default=None,
                    help="where to write artifacts (default: temp dir)")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    out = Path(args.out_dir or tempfile.mkdtemp(prefix="optforge_demo_"))
    out.mkdir(parents=True, exist_ok=True)
    print(f"writing artifacts under {out}")
    config = out / "config.json"
    config.write_text(json.dumps({**CONFIG, "seed": args.seed}))
    instances, knowledge, records, pairs, train, test, plan_json = (
        str(out / name) for name in (
            "instances.jsonl", "knowledge.jsonl", "records.jsonl",
            "pairs.jsonl", "train.jsonl", "test.jsonl", "plan.json"))

    for argv in (
        ["synth", "--out", instances],
        ["bench", "--instances", instances, "--out", knowledge,
         "--records", records, "--jobs", "4"],
        ["build", "--instances", instances, "--knowledge", knowledge,
         "--out", pairs],
        ["split", "--pairs", pairs, "--train-out", train, "--test-out", test],
        ["plan", "--pairs", train, "--out", plan_json],
    ):
        optforge([*argv, "--config", str(config), "--force"])

    plan = SamplingPlan.build(load_pairs(train))
    rng = np.random.default_rng(args.seed)
    batch = plan.draw_batch(6, rng, homogeneous=True)
    assert len({p.instance_id for p in batch}) == 1
    print(f"homogeneous batch of 6 drawn from instance "
          f"{batch[0].instance_id} (styles: "
          f"{sorted({p.style for p in batch})})")

    # stand-in embeddings: iid normal rows, one per pair; the batch holds
    # one label, so only the pull term of the loss acts
    labels = [p.label for p in batch]
    z = rng.standard_normal((len(batch), 8))
    print(f"batch contrastive loss on random embeddings: "
          f"{batch_contrastive_loss(z, labels):.4f}")


if __name__ == "__main__":
    main()
