"""Instruction-pair dataset: assembly, splitting, sampling and the
contrastive objective.

A labelled instance times a writing style gives one (prompt, answer)
pair.  Pair sampling weights equalize label mass first and pairs within
a label second:

    rho(q, a) = 1 / (N_a * N_{q,a})

with ``N_a`` the number of distinct labels present and ``N_{q,a}`` the
number of pairs carrying this pair's label, so the weights sum to one
and rare-winner optimizers are not drowned out.  Batches are either
drawn iid from rho, or homogeneous: all pairs share one instance (same
underlying problem, different writing styles), the regime the
contrastive objective is meant for.

The contrastive pieces use cosine distance ``G = (1 - cos)/2`` in
[0, 1]: same-label pairs are pulled together (loss G), different-label
pairs pushed apart up to a margin (loss ``max(0, margin - G)``), and a
batch scores the mean over all unordered pairs.
"""

import logging
from collections import Counter
from dataclasses import asdict, dataclass, replace

import numpy as np

from .artifacts import read_jsonl, write_jsonl_split
from .render.answers import DegenerateEntryError, emit_answer
from .render.literals import LiteralTable
from .render.prompts import render_prompt
from .render.styles import WritingStyle
from .seeding import rng_for

__all__ = [
    "InstructionPair",
    "build_instruction_set",
    "split_pairs",
    "save_pairs",
    "load_pairs",
    "sampling_weights",
    "SamplingPlan",
    "cosine_distance",
    "contrastive_loss",
    "batch_contrastive_loss",
    "DEFAULT_MARGIN",
]

log = logging.getLogger("optforge.dataset")

DEFAULT_MARGIN = 0.3


@dataclass(frozen=True)
class InstructionPair:
    """One training example: prompt text, answer program, provenance."""

    q: str
    a: str
    instance_id: str
    style: str
    label: str


def build_instruction_set(instances, knowledge, styles=None,
                          on_degenerate="skip"):
    """Cross every instance with every style against its benchmark label.

    Parameters
    ----------
    instances : sequence of ProblemInstance
    knowledge : mapping instance_id -> KnowledgeEntry, or a sequence of
        entries
    styles : styles to render (default: all six)
    on_degenerate : "skip" (drop with a warning), "error" (raise listing
        offenders), or "fallback" (label degenerate instances
        random_search and emit its answer anyway)

    Returns
    -------
    (pairs, skipped) : an iterator of InstructionPair, each rendered as
        it is drawn, instance by instance; the list of skipped instance
        ids.  Missing entries and ``"error"`` raise here, before
        anything renders.
    """
    if on_degenerate not in ("skip", "error", "fallback"):
        raise ValueError(f"unknown degenerate policy {on_degenerate!r}")
    if not isinstance(knowledge, dict):
        knowledge = {e.instance_id: e for e in knowledge}
    styles = [WritingStyle.parse(s) for s in (styles or list(WritingStyle))]

    missing = [inst.id for inst in instances if inst.id not in knowledge]
    if missing:
        raise ValueError(
            "no benchmark entry for instance(s): " + ", ".join(sorted(missing))
        )
    degenerates = [inst.id for inst in instances
                   if knowledge[inst.id].degenerate]
    if degenerates and on_degenerate == "error":
        raise DegenerateEntryError(
            "degenerate benchmark entries for instance(s): "
            + ", ".join(sorted(degenerates))
        )
    skipped = degenerates if on_degenerate == "skip" else []
    for inst_id in skipped:
        log.warning("skipping degenerate instance %s", inst_id)

    def pairs():
        for inst in instances:
            entry = knowledge[inst.id]
            if entry.degenerate:
                if on_degenerate == "skip":
                    continue
                # fallback: the degenerate entry already names random_search
                entry = replace(entry, degenerate=False)
            answer = emit_answer(entry)
            table = LiteralTable(inst)
            for style in styles:
                doc = render_prompt(inst, style, table=table)
                yield InstructionPair(
                    q=doc.text, a=answer.code_text, instance_id=inst.id,
                    style=style.value, label=answer.optimizer,
                )

    return pairs(), skipped


def split_pairs(instance_ids, test_fraction=0.1, seed=0):
    """Pick the test side of an instance-level train/test split.

    ``instance_ids`` may repeat (one per pair, say); the result is the
    set of ids whose pairs go to test.  Sending all pairs of one
    instance to the same side means no test problem ever appears in
    training under a different writing style.
    """
    if not 0.0 <= test_fraction <= 1.0:
        raise ValueError("test_fraction must be in [0, 1]")
    ids = sorted(set(instance_ids))
    rng = rng_for(seed, "split")
    rng.shuffle(ids)
    n_test = int(round(test_fraction * len(ids)))
    return set(ids[:n_test])


def save_pairs(pairs, *paths, side=None):
    """JSON lines, sorted keys -- byte-stable for identical inputs.

    With more than one path, ``side(pair)`` is the index of the path a
    pair goes to, and one pass over ``pairs`` writes them all.  Returns
    the pair count of each path.
    """
    return write_jsonl_split(paths, ((side(p) if side else 0, asdict(p))
                                     for p in pairs))


def load_pairs(path):
    """Yield the file's pairs, in order."""
    return read_jsonl(path, lambda obj: InstructionPair(**obj))


# ---------------------------------------------------------------------------
# sampling

def sampling_weights(labels):
    """Per-pair probabilities rho = 1 / (N_a * N_{q,a}), given the list
    of the pairs' labels; sums to 1."""
    if not labels:
        raise ValueError("cannot weight an empty pair list")
    counts = Counter(labels)
    n_labels = len(counts)
    return np.array([1.0 / (n_labels * counts[lab]) for lab in labels])


@dataclass
class SamplingPlan:
    """Frozen sampling state for one pair list.

    ``groups`` holds one ``(indices, probabilities)`` pair per instance,
    in instance-id order: the indices of its pairs and their rho shares
    within it.  ``group_p`` is each instance's share of the total rho
    mass.  Homogeneous draws read only these.
    """

    pairs: list
    weights: np.ndarray
    groups: list
    group_p: np.ndarray

    @classmethod
    def build(cls, pairs):
        pairs = list(pairs)
        weights = sampling_weights([p.label for p in pairs])
        by_instance = {}
        for i, p in enumerate(pairs):
            by_instance.setdefault(p.instance_id, []).append(i)
        groups, mass = [], []
        for k in sorted(by_instance):
            members = np.array(by_instance[k])
            w = weights[members]
            groups.append((members, w / w.sum()))
            mass.append(w.sum())
        mass = np.array(mass)
        return cls(pairs=pairs, weights=weights, groups=groups,
                   group_p=mass / mass.sum())

    def draw_batch(self, batch_size, rng, homogeneous=False):
        """Draw ``batch_size`` pairs.

        iid mode samples independently from rho.  Homogeneous mode
        first picks one instance (probability = its total rho mass),
        then fills the batch from that instance's pairs, with
        replacement once the styles run out.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not homogeneous:
            idx = rng.choice(len(self.pairs), size=batch_size, replace=True,
                             p=self.weights)
            return [self.pairs[i] for i in idx]
        members, p = self.groups[int(rng.choice(len(self.groups),
                                                p=self.group_p))]
        idx = rng.choice(members, size=batch_size,
                         replace=batch_size > len(members), p=p)
        return [self.pairs[i] for i in idx]


# ---------------------------------------------------------------------------
# contrastive objective

def cosine_distance(u, v):
    """G = (1 - cos(u, v)) / 2, in [0, 1]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine distance undefined for zero vectors")
    cos = float(np.dot(u, v) / (nu * nv))
    return (1.0 - min(1.0, max(-1.0, cos))) / 2.0


def contrastive_loss(z_i, z_j, same_label, margin=DEFAULT_MARGIN):
    """Pull same-label embeddings together, push others past a margin."""
    g = cosine_distance(z_i, z_j)
    if same_label:
        return g
    return max(0.0, margin - g)


def batch_contrastive_loss(z, labels, margin=DEFAULT_MARGIN):
    """Mean pairwise loss over all unordered pairs in a batch."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[0] != len(labels):
        raise ValueError("need one embedding row per label")
    n = z.shape[0]
    if n < 2:
        return 0.0
    total = 0.0
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += contrastive_loss(z[i], z[j], labels[i] == labels[j],
                                      margin)
            count += 1
    return total / count
