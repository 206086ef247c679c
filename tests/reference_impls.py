"""Independent reference implementations used as oracles.

Everything here is deliberately written in the plainest possible style
-- scalar loops, ``math`` instead of vectorized numpy -- so it shares
no code path with the package.  Where a reference must mirror an RNG
stream (the DE engine oracle), it draws through the same generator
calls but does all arithmetic and bookkeeping from scratch.
"""

import math
from fractions import Fraction

import numpy as np

from optforge.problems.instance import evaluate_batch
from optforge.seeding import rng_for

# ---------------------------------------------------------------------------
# scalar basic functions


def ref_sphere(z):
    return sum(v * v for v in z)


def ref_rastrigin(z):
    return sum(v * v - 10.0 * math.cos(2.0 * math.pi * v) + 10.0 for v in z)


def ref_ackley(z):
    d = len(z)
    s1 = sum(v * v for v in z) / d
    s2 = sum(math.cos(2.0 * math.pi * v) for v in z) / d
    return (-20.0 * math.exp(-0.2 * math.sqrt(s1)) - math.exp(s2)
            + 20.0 + math.e)


def ref_rosenbrock(z):
    total = 0.0
    for i in range(len(z) - 1):
        total += 100.0 * (z[i + 1] - z[i] ** 2) ** 2 + (1.0 - z[i]) ** 2
    return total


def ref_griewank(z):
    s = sum(v * v for v in z) / 4000.0
    p = 1.0
    for i, v in enumerate(z):
        p *= math.cos(v / math.sqrt(i + 1.0))
    return 1.0 + s - p


def ref_schwefel(z):
    d = len(z)
    s = sum(v * math.sin(math.sqrt(abs(v))) for v in z)
    return 418.9828872724339 * d - s


def ref_bent_cigar(z):
    return z[0] ** 2 + 1.0e6 * sum(v * v for v in z[1:])


def ref_levy(z):
    w = [1.0 + (v - 1.0) / 4.0 for v in z]
    total = math.sin(math.pi * w[0]) ** 2
    for i in range(len(z) - 1):
        total += (w[i] - 1.0) ** 2 * (
            1.0 + 10.0 * math.sin(math.pi * w[i] + 1.0) ** 2)
    total += (w[-1] - 1.0) ** 2 * (1.0 + math.sin(2.0 * math.pi * w[-1]) ** 2)
    return total


def ref_katsuura(z):
    d = len(z)
    prod = 1.0
    for i, v in enumerate(z):
        inner = 0.0
        for j in range(1, 33):
            t = (2.0 ** j) * v
            inner += abs(t - round(t)) / (2.0 ** j)
        prod *= (1.0 + (i + 1.0) * inner) ** (10.0 / d ** 1.2)
    return (10.0 / d ** 2) * prod - 10.0 / d ** 2


def ref_happycat(z):
    d = len(z)
    s2 = sum(v * v for v in z)
    s1 = sum(z)
    return (abs(s2 - d) ** 0.25 + (0.5 * s2 + s1) / d + 0.5)


def ref_discus(z):
    return 1.0e6 * z[0] ** 2 + sum(v * v for v in z[1:])


def ref_weierstrass(z):
    # each phase b^k (v + 0.5) is reduced modulo one cycle in exact rational
    # arithmetic, so math.cos never sees a phase whose fraction float
    # rounding has already lost; the float sum v + 0.5 is the kernel's
    # own input rounding and is kept
    d = len(z)
    a, b, kmax = 0.5, 3, 20

    def cos_cycles(phase):
        return math.cos(2.0 * math.pi * float(phase % 1))

    total = 0.0
    for v in z:
        y = Fraction(v + 0.5)
        for k in range(kmax + 1):
            total += a ** k * cos_cycles(b ** k * y)
    const = sum(a ** k * cos_cycles(Fraction(b ** k, 2))
                for k in range(kmax + 1))
    return total - d * const


REF_BASIC = {
    "sphere": ref_sphere,
    "rastrigin": ref_rastrigin,
    "ackley": ref_ackley,
    "rosenbrock": ref_rosenbrock,
    "griewank": ref_griewank,
    "schwefel": ref_schwefel,
    "bent_cigar": ref_bent_cigar,
    "levy": ref_levy,
    "katsuura": ref_katsuura,
    "happycat": ref_happycat,
    "discus": ref_discus,
    "weierstrass": ref_weierstrass,
}


# ---------------------------------------------------------------------------
# scalar instance evaluation (transforms + paradigm recomposition)


def ref_instance_value(instance, x):
    """Recompose one objective value with explicit per-component loops."""
    total = 0.0
    for comp in instance.components:
        if comp.segment is not None:
            sub = [x[i] for i in comp.segment]
        else:
            sub = list(x)
        rot = comp.transform.rotation
        shift = comp.transform.shift
        m = len(sub)
        shifted = [sub[i] - shift[i] for i in range(m)]
        # z = M^T (x - o), written out per coordinate
        z = [sum(rot[i][j] * shifted[i] for i in range(m))
             for j in range(m)]
        val = REF_BASIC[comp.basic](z)
        if comp.segment is None:
            val *= comp.weight
        total += val
    return total


# ---------------------------------------------------------------------------
# feasibility rule


def ref_rule_key(f, violation):
    """Feasibility-rule key; a NaN objective ranks below every number,
    and two NaN objectives rank equal."""
    nan = math.isnan(f)
    return (0 if violation <= 0.0 else 1, violation, nan, 0.0 if nan else f)


def ref_rule_best_index(fs, viols):
    best = 0
    for i in range(1, len(fs)):
        if ref_rule_key(fs[i], viols[i]) < ref_rule_key(fs[best], viols[best]):
            best = i
    return best


# ---------------------------------------------------------------------------
# tracker bookkeeping


def ref_tracker_state():
    return {
        "fe": 0, "best_f": None, "best_viol": None, "best_x": None,
        "f0": None, "f0_viol": None, "init_best": None, "trace": [],
    }


def ref_record_batch(state, n_init, xs, fs, viols):
    """Record one evaluated batch: FE count, the f0 anchor over the first
    ``n_init`` evaluations, the rule-best point and the improvement
    trace."""
    fe_before = state["fe"]
    state["fe"] += len(fs)
    if state["f0"] is None:
        k = min(len(fs), n_init - fe_before)
        if k > 0:
            j = ref_rule_best_index(fs[:k], viols[:k])
            cand = (fs[j], viols[j])
            if (state["init_best"] is None
                    or ref_rule_key(*cand) < ref_rule_key(*state["init_best"])):
                state["init_best"] = cand
        if state["fe"] >= n_init:
            state["f0"], state["f0_viol"] = state["init_best"]
    i = ref_rule_best_index(fs, viols)
    if (state["best_x"] is None
            or ref_rule_key(fs[i], viols[i])
            < ref_rule_key(state["best_f"], state["best_viol"])):
        state["best_f"] = fs[i]
        state["best_viol"] = viols[i]
        state["best_x"] = list(xs[i])
        state["trace"].append((fe_before + i + 1, fs[i], viols[i]))


# ---------------------------------------------------------------------------
# scalar-loop DE/best/1/bin with clip repair

def ref_de_best1(instance, np_, f_weight, cr, fe_budget, seed):
    """Mirror of the engine's vanilla_de(best1, clip) run.

    Draws through the identical generator calls but keeps all algorithm
    state, selection, budget accounting, the f0 anchor and the
    improvement trace in plain Python.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    lo = [float(v) for v in instance.bounds[:, 0]]
    hi = [float(v) for v in instance.bounds[:, 1]]
    d = instance.d

    state = ref_tracker_state()

    def eval_rows(rows):
        """Evaluate up to the remaining budget; returns (fs, viols, done)."""
        take = min(len(rows), fe_budget - state["fe"])
        if take == 0:
            # budget exactly exhausted at a batch boundary: nothing recorded
            return [], [], True
        fs, viols = [], []
        for r in rows[:take]:
            f, viol = evaluate_batch(instance, np.array(r)[None])
            fs.append(float(f[0]))
            viols.append(float(viol[0]))
        ref_record_batch(state, np_, rows[:take], fs, viols)
        return fs, viols, take < len(rows)

    pop_arr = rng.uniform(instance.bounds[:, 0], instance.bounds[:, 1],
                          size=(np_, d))
    pop = [list(map(float, row)) for row in pop_arr]
    fit, viol, done = eval_rows(pop)
    while not done:
        b = ref_rule_best_index(fit, viol)
        best = pop[b]
        u = rng.random((np_, np_))
        for i in range(np_):
            u[i, i] = np.inf
        idx = np.argsort(u, axis=1)[:, :5]
        cross = rng.random((np_, d)) < cr
        jrand = rng.integers(0, d, np_)
        trial = []
        for i in range(np_):
            a, bb = int(idx[i][0]), int(idx[i][1])
            row = []
            for j in range(d):
                donor = best[j] + f_weight * (pop[a][j] - pop[bb][j])
                if cross[i][j] or j == int(jrand[i]):
                    v = donor
                else:
                    v = pop[i][j]
                row.append(min(max(v, lo[j]), hi[j]))
            trial.append(row)
        tfit, tviol, done = eval_rows(trial)
        for i in range(len(tfit)):
            if ref_rule_key(tfit[i], tviol[i]) <= ref_rule_key(fit[i], viol[i]):
                pop[i] = trial[i]
                fit[i] = tfit[i]
                viol[i] = tviol[i]
    return state


# ---------------------------------------------------------------------------
# two-pass benchmark scoring


def ref_score_runs(results_by_config, constrained):
    """Independent re-implementation of the two-pass labelling.

    ``results_by_config`` is a list of
    ``(optimizer, config_index, per_run_results)``.  Returns
    ``(winner_optimizer, winner_config_index, f_star, mean_evals)``
    where mean_evals maps (optimizer, config_index) to the mean score,
    or ``None`` for a degenerate bench (nothing usable).
    """
    f_star = None
    any_ok = False
    for _, _, runs_ in results_by_config:
        for r in runs_:
            if r.status != "ok":
                continue
            any_ok = True
            if r.best_violation is not None and r.best_violation > 0.0:
                continue
            if f_star is None or r.best_f < f_star:
                f_star = r.best_f
    if f_star is None or not any_ok:
        return None

    def score(r):
        if r.status != "ok":
            return 0.0
        if constrained and r.best_violation > 0.0:
            return 0.0
        if constrained and r.f0_violation > 0.0:
            return 1.0
        if r.f0 == f_star:
            return 1.0
        val = (r.f0 - r.best_f) / (r.f0 - f_star)
        return min(1.0, max(0.0, val))

    mean_evals = {}
    for optimizer, config_index, runs_ in results_by_config:
        mean_evals[(optimizer, config_index)] = (
            sum(score(r) for r in runs_) / len(runs_)
        )
    winner = min(mean_evals,
                 key=lambda k: (-mean_evals[k], k[0], k[1]))
    return winner[0], winner[1], f_star, mean_evals


# ---------------------------------------------------------------------------
# signed-term machinery: the character-loop tokenizer that re-reads the
# text of every bracket group, kept as an oracle for the token-list one


_REF_OPEN = {"(", "[", "{", "\\lvert", "\\lVert"}
_REF_CLOSE = {")", "]", "}", "\\rvert", "\\rVert"}


def _ref_tokens(s):
    toks = []
    i = 0
    n = len(s)
    while i < n:
        if s[i] == "\\":
            j = i + 1
            while j < n and s[j].isalpha():
                j += 1
            toks.append(s[i:j] if j > i + 1 else s[i])
            i = j if j > i + 1 else i + 1
        else:
            toks.append(s[i])
            i += 1
    return toks


def _ref_delta(tok):
    if tok in _REF_OPEN:
        return 1
    if tok in _REF_CLOSE:
        return -1
    return 0


def _ref_split_token_list(toks):
    terms = []
    cur = []
    sign = 1
    depth = 0
    for t in toks:
        if depth == 0 and t in ("+", "-"):
            if not "".join(cur).strip():
                sign = 1 if t == "+" else -1
            else:
                terms.append((sign, "".join(cur).strip()))
                cur = []
                sign = 1 if t == "+" else -1
            continue
        depth += _ref_delta(t)
        cur.append(t)
    tail = "".join(cur).strip()
    if tail:
        terms.append((sign, tail))
    return terms


def ref_split_signed_terms(s):
    return _ref_split_token_list(_ref_tokens(s.strip()))


def _ref_join_signed_terms(terms):
    out = []
    for k, (sign, text) in enumerate(terms):
        if k == 0:
            out.append(("-" if sign < 0 else "") + text)
        else:
            out.append(("- " if sign < 0 else "+ ") + text)
    return " ".join(out)


def _ref_rewrite_groups(text, order_fn):
    toks = _ref_tokens(text)
    out = []
    i = 0
    prev_script = False
    while i < len(toks):
        t = toks[i]
        if t in _REF_OPEN:
            depth = 1
            j = i + 1
            while j < len(toks) and depth > 0:
                depth += _ref_delta(toks[j])
                j += 1
            inner = "".join(toks[i + 1:j - 1])
            closer = toks[j - 1] if depth == 0 else ""
            if prev_script:
                out.append(t + inner + closer)
            else:
                body = _ref_rewrite_expression(inner, order_fn)
                if t.startswith("\\"):
                    body = f" {body} "
                out.append(t + body + closer)
            prev_script = False
            i = j
        else:
            prev_script = t in ("_", "^")
            out.append(t)
            i += 1
    return "".join(out)


def _ref_rewrite_expression(s, order_fn):
    terms = _ref_split_token_list(_ref_tokens(s))
    if not terms:
        return s
    terms = [(sign, _ref_rewrite_groups(text, order_fn)) for sign, text in terms]
    if len(terms) > 1:
        terms = order_fn(terms)
    return _ref_join_signed_terms(terms)


def ref_permute_terms(s, rng):
    def order_fn(terms):
        return [terms[k] for k in rng.permutation(len(terms))]

    return _ref_rewrite_expression(s, order_fn)


def ref_normalize_terms(s):
    return _ref_rewrite_expression(s, sorted)


# ---------------------------------------------------------------------------
# instance-level split over an in-memory pair list


def ref_split_pairs(pairs, test_fraction=0.1, seed=0):
    """The list split: every pair in memory, both sides returned."""
    if not 0.0 <= test_fraction <= 1.0:
        raise ValueError("test_fraction must be in [0, 1]")
    ids = sorted({p.instance_id for p in pairs})
    rng = rng_for(seed, "split")
    rng.shuffle(ids)
    n_test = int(round(test_fraction * len(ids)))
    test_ids = set(ids[:n_test])
    train = [p for p in pairs if p.instance_id not in test_ids]
    test = [p for p in pairs if p.instance_id in test_ids]
    return train, test


# ---------------------------------------------------------------------------
# contrastive objective, one pair at a time


def ref_batch_contrastive_loss(z, labels):
    """Mean over pairs i < j of G (same label) or max(0, 0.3 - G)."""
    rows = [[float(v) for v in row] for row in z]
    total, count = 0.0, 0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            u, v = rows[i], rows[j]
            cos = (sum(a * b for a, b in zip(u, v))
                   / (math.sqrt(sum(a * a for a in u))
                      * math.sqrt(sum(b * b for b in v))))
            g = (1.0 - min(1.0, max(-1.0, cos))) / 2.0
            total += g if labels[i] == labels[j] else max(0.0, 0.3 - g)
            count += 1
    return total / count if count else 0.0
