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

The contrastive objective scores a batch of embedding rows z_1..z_n
with labels a_1..a_n by the cosine distance
``G_ij = (1 - cos(z_i, z_j)) / 2`` in [0, 1].  A same-label pair costs
``G_ij`` (pull) and a different-label pair ``max(0, 0.3 - G_ij)``
(push), and the batch scores the mean over all pairs i < j.  A
homogeneous batch carries one label, so only the pull term acts there.
"""

import logging
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .artifacts import read_jsonl, write_jsonl_split
from .render.answers import emit_answer
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
    "batch_contrastive_loss",
]

log = logging.getLogger("optforge.dataset")

_MARGIN = 0.3  # cosine distance a different-label pair is pushed past


@dataclass(frozen=True)
class InstructionPair:
    """One training example: prompt text, answer program, provenance."""

    q: str
    a: str
    instance_id: str
    style: str
    label: str


def build_instruction_set(instances, knowledge, styles=None):
    """Cross every labelled instance with every style against its
    benchmark label.

    Parameters
    ----------
    instances : sequence of ProblemInstance
    knowledge : sequence of KnowledgeEntry, one per instance id, as
        :func:`optforge.bench.load_knowledge` returns it
    styles : styles to render, each once (default: all six)

    Returns
    -------
    (pairs, skipped) : an iterator of InstructionPair, each rendered as
        it is drawn, instance by instance; the ids of the degenerate
        instances, which get no pairs.  A missing entry, or a style
        list that is empty or names a style twice, raises here, before
        anything renders.
    """
    knowledge = {e.instance_id: e for e in knowledge}
    styles = [WritingStyle.parse(s)
              for s in (list(WritingStyle) if styles is None else styles)]
    if not styles:
        raise ValueError("style list must not be empty")
    repeated = [s.value for s, n in Counter(styles).items() if n > 1]
    if repeated:
        raise ValueError(f"styles named more than once: {repeated}")

    missing = [inst.id for inst in instances if inst.id not in knowledge]
    if missing:
        raise ValueError(
            "no benchmark entry for instance(s): " + ", ".join(sorted(missing))
        )
    skipped = [inst.id for inst in instances if knowledge[inst.id].degenerate]
    for inst_id in skipped:
        log.warning("skipping degenerate instance %s", inst_id)

    def pairs():
        for inst in instances:
            entry = knowledge[inst.id]
            if entry.degenerate:
                continue
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

def batch_contrastive_loss(z, labels):
    """Mean pull/push loss over all unordered pairs of rows in ``z``.

    ``z`` holds one embedding row per label.  Fewer than two rows score
    0.0; otherwise every row must be finite and non-zero.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[0] != len(labels):
        raise ValueError("need one embedding row per label")
    n = z.shape[0]
    if n < 2:
        return 0.0
    if not np.isfinite(z).all():
        raise ValueError("embedding rows must be finite")
    # scale each row by its largest entry's power of two, exactly, so
    # that the norm neither overflows nor underflows
    scale = np.abs(z).max(axis=1)
    if not scale.all():
        raise ValueError("cosine distance undefined for zero vectors")
    z = np.ldexp(z, -np.frexp(scale)[1][:, None])
    u = z / np.linalg.norm(z, axis=1)[:, None]
    g = (1.0 - np.clip(u @ u.T, -1.0, 1.0)) / 2.0
    ids = {}
    codes = np.array([ids.setdefault(lab, len(ids)) for lab in labels])
    loss = np.where(codes[:, None] == codes, g, np.maximum(0.0, _MARGIN - g))
    return float(np.triu(loss, 1).sum()) / (n * (n - 1) / 2)
