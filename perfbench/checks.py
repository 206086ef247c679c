"""Output checks.  Each returns a list of error strings (empty = pass).

The label checks re-score every instance from the ``--records`` audit
sidecar with an implementation of the scoring rule written here, not
imported from the program, and compare winner, ``mean_eval``,
``f_star`` and the degenerate flag with ``knowledge.jsonl``.  The
dataset checks recompute the split, plan and metrics report from the
files the benchmark itself wrote.
"""

import hashlib
import json
import math
import re
from collections import Counter, defaultdict

import spec
import workloads as W


def digests(workdir, names):
    out = {}
    for name in names:
        h = hashlib.sha256()
        with open(workdir / name, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        out[name] = h.hexdigest()
    return out


def same_digests(expected, got, what):
    return [f"{what}: {name} digest differs"
            for name in expected if got.get(name) != expected[name]]


def _jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


# ---------------------------------------------------------------------------
# label-* workloads

def _rescore(records):
    """Reference scoring of one instance's records.

    Returns ``(f_star, degenerate, ranked)`` where ``ranked`` is the
    list of ``((-mean_eval, optimizer, config_index), record)`` sorted
    best first.
    """
    runs = [r for rec in records for r in rec["per_run"]]
    ok = [r for r in runs if r["status"] == "ok"]
    feasible = [r["best_f"] for r in ok if r["best_violation"] <= 0.0]
    f_star = min(feasible) if feasible else None

    # violations are all 0 on unconstrained instances, so one rule
    # covers both kinds
    def score(r):
        if r["status"] != "ok" or f_star is None:
            return 0.0
        if r["best_violation"] > 0.0:
            return 0.0
        if r["f0_violation"] > 0.0:
            return 1.0
        if r["f0"] == f_star:
            return 1.0
        return min(1.0, max(0.0, (r["f0"] - r["best_f"])
                            / (r["f0"] - f_star)))

    ranked = []
    for rec in records:
        evals = [score(r) for r in rec["per_run"]]
        mean = sum(evals) / len(evals)
        ranked.append(((-mean, rec["optimizer"], rec["config_index"]), rec))
    ranked.sort(key=lambda kr: kr[0])
    return f_star, (f_star is None or not ok), ranked


def check_label(workdir, wl):
    """Knowledge against the records, re-scored.  Returns
    ``(errors, stats)``; stats carry exact counts for the layer report."""
    from optforge.optimizers.grids import config_at, grid_size

    errors = []
    instances = [i["id"] for i in _jsonl(workdir / W.INSTANCES)]
    knowledge = _jsonl(workdir / W.KNOWLEDGE)
    records = _jsonl(workdir / W.RECORDS)
    if [e["instance_id"] for e in knowledge] != instances:
        errors.append("knowledge: not exactly one entry per instance, "
                      "in instance order")
    by_inst = defaultdict(list)
    for rec in records:
        by_inst[rec["instance_id"]].append(rec)
    cap, runs = wl.sizes["cap"], wl.sizes["runs"]
    n_configs = sum(min(cap, grid_size(o)) for o in spec.POOL)
    stats = Counter()
    for entry in knowledge:
        iid = entry["instance_id"]
        recs = by_inst.get(iid, [])
        where = f"knowledge {iid}"
        if len(recs) != n_configs or any(len(r["per_run"]) != runs
                                         for r in recs):
            errors.append(f"{where}: expected {n_configs} configs x {runs} "
                          f"runs in the records")
            continue
        f_star, degenerate, ranked = _rescore(recs)
        (key, best) = ranked[0]
        stats["runs"] += n_configs * runs
        stats["failed"] += sum(r["status"] != "ok"
                               for rec in recs for r in rec["per_run"])
        stats["fe_used"] += sum(r["fe_used"]
                                for rec in recs for r in rec["per_run"])
        stats["degenerate"] += degenerate
        if entry["degenerate"] != degenerate:
            errors.append(f"{where}: degenerate flag {entry['degenerate']}, "
                          f"re-scoring gives {degenerate}")
            continue
        if degenerate:
            if (entry["best_optimizer"], entry["best_config"],
                    entry["best_config_index"], entry["f_star"],
                    entry["mean_eval"]) != ("random_search", {}, 0, None, 0.0):
                errors.append(f"{where}: degenerate entry carries a label")
            continue
        stats["winner_ties"] += len(ranked) > 1 and ranked[1][0][0] == key[0]
        if (entry["best_optimizer"], entry["best_config_index"]) != key[1:]:
            errors.append(f"{where}: winner {entry['best_optimizer']}"
                          f"#{entry['best_config_index']}, re-scoring gives "
                          f"{key[1]}#{key[2]}")
        if not _close(entry["mean_eval"], -key[0]):
            errors.append(f"{where}: mean_eval {entry['mean_eval']} != "
                          f"{-key[0]}")
        if entry["f_star"] != f_star:
            errors.append(f"{where}: f_star {entry['f_star']} != {f_star}")
        if entry["best_config"] != best["config"] or best["config"] != \
                json.loads(json.dumps(config_at(key[1], key[2]))):
            errors.append(f"{where}: best_config does not decode from "
                          f"{key[1]}#{key[2]}")
    return errors, stats


# ---------------------------------------------------------------------------
# dataset-build

_TOKEN = re.compile(r"\w+|[^\w\s]")


def _lcs(a, b):
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


def _expected_report(doc):
    out = {}
    for name, s in doc["systems"].items():
        outs = s["outcomes"]
        descent = []
        for o in outs:
            if o["failed"]:
                descent.append(0.0)
            elif o["f0"] == o["f_star"]:
                descent.append(1.0)
            else:
                descent.append(min(1.0, max(0.0, (o["f0"] - o["f_best"])
                                            / (o["f0"] - o["f_star"]))))
        rec = []
        for r in s["repairs"]:
            a, b = r["original"].splitlines(), r["repaired"].splitlines()
            rec.append(1.0 - _lcs(a, b) / max(len(a), len(b)))
        out[name] = {
            "error_rate": sum(o["failed"] for o in outs) / len(outs),
            "performance": sum(descent) / len(descent),
            "recovery_cost": sum(rec) / len(rec) if rec else 0.0,
            "overhead": sum(len(_TOKEN.findall(t)) for t in s["answers"])
            / len(s["answers"]),
            "n_problems": s["n_problems"], "n_runs": s["n_runs"],
        }
    return out


def check_dataset(workdir, wl):
    errors = []
    instances = _jsonl(workdir / W.INSTANCES)
    knowledge = {e["instance_id"]: e for e in _jsonl(workdir / W.KNOWLEDGE)}
    pairs = _jsonl(workdir / W.PAIRS)
    train = _jsonl(workdir / W.TRAIN)
    test = _jsonl(workdir / W.TEST)
    lo, hi = wl.sizes["d"]
    if len(instances) != wl.n_instances:
        errors.append(f"instances: {len(instances)} != {wl.n_instances}")
    if len({i["id"] for i in instances}) != len(instances):
        errors.append("instances: duplicate ids")
    if any(not lo <= i["d"] <= hi for i in instances):
        errors.append("instances: dimension outside the configured range")

    labelled = [i["id"] for i in instances
                if not knowledge[i["id"]]["degenerate"]]
    want = {(iid, s) for iid in labelled for s in spec.STYLES}
    got = [(p["instance_id"], p["style"]) for p in pairs]
    if len(got) != len(want) or set(got) != want:
        errors.append("pairs: not exactly one pair per labelled instance "
                      "and style")
    answers = defaultdict(set)
    for p in pairs:
        answers[p["instance_id"]].add(p["a"])
        if p["label"] != knowledge[p["instance_id"]]["best_optimizer"]:
            errors.append(f"pairs: {p['instance_id']} labelled {p['label']}")
            break
    if any(len(a) != 1 for a in answers.values()):
        errors.append("pairs: styles of one instance carry different answers")

    train_ids = {p["instance_id"] for p in train}
    test_ids = {p["instance_id"] for p in test}
    if train_ids & test_ids:
        errors.append("split: an instance lands on both sides")
    if sorted(json.dumps(p, sort_keys=True) for p in train + test) != \
            sorted(json.dumps(p, sort_keys=True) for p in pairs):
        errors.append("split: train + test is not the pair set")
    if len(test_ids) != round(0.1 * len(labelled)):
        errors.append(f"split: {len(test_ids)} test instances, expected "
                      f"{round(0.1 * len(labelled))}")

    plan = json.loads((workdir / W.PLAN).read_text())
    counts = Counter(p["label"] for p in train)
    if plan["n_pairs"] != len(train) or plan["label_counts"] != dict(counts):
        errors.append("plan: pair or label counts disagree with train")
    rho = {lab: 1.0 / (len(counts) * n) for lab, n in counts.items()}
    if set(plan["rho_per_pair_by_label"]) != set(rho) or not all(
            _close(plan["rho_per_pair_by_label"][k], v)
            for k, v in rho.items()):
        errors.append("plan: rho differs from 1 / (labels x pairs per label)")
    if not math.isclose(plan["weights_sum"], 1.0, rel_tol=1e-9):
        errors.append(f"plan: weights sum to {plan['weights_sum']}")

    expected = _expected_report(json.loads((workdir / W.EVAL).read_text()))
    report = json.loads((workdir / W.REPORT).read_text())
    for name, want_r in expected.items():
        got_r = report.get(name, {})
        for key, value in want_r.items():
            if key not in got_r or not math.isclose(got_r[key], value,
                                                    rel_tol=1e-9):
                errors.append(f"report: {name}.{key} = {got_r.get(key)}, "
                              f"expected {value}")

    batches = json.loads((workdir / W.SAMPLES).read_text())
    train_labels = {p["instance_id"]: p["label"] for p in train}
    for b in batches:
        if len(b["instances"]) != wl.sizes["batch_size"]:
            errors.append("sampling: short batch")
            break
        if b["homogeneous"] and len(set(b["instances"])) != 1:
            errors.append("sampling: homogeneous batch spans instances")
            break
        if any(i not in train_labels for i in b["instances"]):
            errors.append("sampling: batch draws a pair outside train")
            break
        if not 0.0 <= b["loss"] <= 1.0:
            errors.append(f"sampling: loss {b['loss']} outside [0, 1]")
            break
    return errors, Counter(pairs=len(pairs), labelled=len(labelled))


def check(workdir, wl):
    if wl.name.startswith("label-"):
        return check_label(workdir, wl)
    return check_dataset(workdir, wl)
