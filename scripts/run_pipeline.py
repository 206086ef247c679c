#!/usr/bin/env python3
"""Desk-scale end-to-end demo of the dataset factory.

Synthesizes a small corpus, benchmarks it with trimmed budgets,
renders instruction pairs in all six writing styles, splits them at
the instance level, and exercises the sampling + contrastive pieces.
Everything is seeded, so two runs print the same numbers.

Usage:
    python3 scripts/run_pipeline.py [--out-dir DIR] [--seed N]
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from optforge import (SamplingPlan, batch_contrastive_loss, benchmark_set,
                      build_instruction_set, save_instances, save_pairs,
                      split_pairs, synthesize_set)
from optforge.bench import save_knowledge, winner_counts


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default=None,
                    help="where to write artifacts (default: temp dir)")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    out = Path(args.out_dir or tempfile.mkdtemp(prefix="optforge_demo_"))
    out.mkdir(parents=True, exist_ok=True)
    print(f"writing artifacts under {out}")

    instances = synthesize_set(
        n_unconstrained=8, n_constrained=4, d_range=(2, 8), k_range=(1, 3),
        master_seed=args.seed, fe_budget=400,
    )
    save_instances(instances, out / "instances.jsonl")
    by_paradigm = {}
    for inst in instances:
        by_paradigm[inst.paradigm] = by_paradigm.get(inst.paradigm, 0) + 1
    print(f"synthesized {len(instances)} instances: {by_paradigm}")

    outcomes = list(benchmark_set(
        instances, cap=4, runs=2, master_seed=args.seed, parallelism=4,
    ))
    entries = [entry for entry, _, _ in outcomes]
    failures = [error for _, _, error in outcomes if error is not None]
    save_knowledge(entries, out / "knowledge.jsonl")
    winners = winner_counts(entries)
    print(f"benchmark winners: {dict(sorted(winners.items()))} "
          f"({len(entries) - winners.total()} degenerate)")
    if failures:
        print(f"benchmark failures: {failures}")

    pairs, skipped = build_instruction_set(instances, entries)
    pairs = list(pairs)
    save_pairs(pairs, out / "pairs.jsonl")
    print(f"built {len(pairs)} instruction pairs "
          f"({len(skipped)} degenerate instances skipped)")

    test_ids = split_pairs((p.instance_id for p in pairs),
                           test_fraction=0.25, seed=args.seed)
    train = [p for p in pairs if p.instance_id not in test_ids]
    test = [p for p in pairs if p.instance_id in test_ids]
    overlap = {p.instance_id for p in train} & {p.instance_id for p in test}
    print(f"split: {len(train)} train / {len(test)} test, "
          f"instance overlap = {len(overlap)}")

    plan = SamplingPlan.build(train)
    rng = np.random.default_rng(args.seed)
    batch = plan.draw_batch(6, rng, homogeneous=True)
    assert len({p.instance_id for p in batch}) == 1
    print(f"homogeneous batch of 6 drawn from instance "
          f"{batch[0].instance_id} (styles: "
          f"{sorted({p.style for p in batch})})")

    # toy embeddings: same-label pairs nearby, others spread out
    labels = [p.label for p in batch]
    z = rng.standard_normal((len(batch), 8))
    print(f"batch contrastive loss on random embeddings: "
          f"{batch_contrastive_loss(z, labels):.4f}")


if __name__ == "__main__":
    main()
