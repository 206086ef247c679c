"""Evaluation metrics for generated optimizer programs.

Four views on a batch of solution attempts:

* error rate      -- fraction of runs that crashed or returned nothing,
* recovery cost   -- how much of a broken program had to be rewritten
                     to make it run, measured by a line-level diff,
* performance     -- normalized descent toward the reference optimum,
* overhead        -- answer length in tokens, a proxy for the cost of
                     executing/maintaining the generated code.

``format_table`` lines the four up per system under the compact
headers ``Err. / Rec. / Perf. / Comp.``.
"""

import re
import warnings
from dataclasses import dataclass

__all__ = [
    "EvalOutcome",
    "RepairRecord",
    "DataIntegrityError",
    "error_rate",
    "recovery_cost",
    "normalized_descent",
    "optimization_performance",
    "computational_overhead",
    "line_recovery_ratio",
    "MetricsReport",
    "compute_report",
    "format_table",
]


class DataIntegrityError(ValueError):
    """A metric input contradicts its own invariants (e.g. a starting
    objective below the reference optimum)."""


@dataclass(frozen=True)
class EvalOutcome:
    """One run of one generated program on one problem."""

    problem_id: str
    run: int
    failed: bool
    f0: float = None
    f_best: float = None
    f_star: float = None


@dataclass(frozen=True)
class RepairRecord:
    """A broken program next to its repaired version."""

    problem_id: str
    original: str
    repaired: str


def error_rate(outcomes, n_problems, n_runs):
    """Fraction of failed runs over the full (problems x runs) matrix."""
    outcomes = list(outcomes)
    expected = n_problems * n_runs
    if not expected:
        raise ValueError(f"cannot rate errors over {n_problems} problems x "
                         f"{n_runs} runs")
    if len(outcomes) != expected:
        raise ValueError(
            f"expected {n_problems} problems x {n_runs} runs = {expected} "
            f"outcomes, got {len(outcomes)}"
        )
    return sum(1 for o in outcomes if o.failed) / expected


def _lcs_length(a, b):
    """Longest common subsequence length over line lists."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


def line_recovery_ratio(original, repaired):
    """Fraction of the larger program not shared with the other side.

    0 means untouched, 1 means no line survived the repair.
    """
    a = original.splitlines()
    b = repaired.splitlines()
    if not a and not b:
        return 0.0
    return 1.0 - _lcs_length(a, b) / max(len(a), len(b))


def recovery_cost(records):
    """Mean repair ratio; an empty record list scores 0 with a warning."""
    records = list(records)
    if not records:
        warnings.warn("recovery cost over zero repair records is 0 by "
                      "convention", stacklevel=2)
        return 0.0
    return sum(line_recovery_ratio(r.original, r.repaired)
               for r in records) / len(records)


def normalized_descent(f0, f_best, f_star):
    """clamp_0^1((f0 - f_best) / (f0 - f_star)); 1 when f0 == f_star."""
    if f0 == f_star:
        return 1.0
    return min(1.0, max(0.0, (f0 - f_best) / (f0 - f_star)))


def _descent(outcome):
    if outcome.failed:
        return 0.0
    f0, fb, fs = outcome.f0, outcome.f_best, outcome.f_star
    if f0 is None or fb is None or fs is None:
        raise ValueError(
            f"outcome {outcome.problem_id}/run{outcome.run} succeeded but "
            "lacks f0/f_best/f_star"
        )
    if f0 < fs:
        raise DataIntegrityError(
            f"outcome {outcome.problem_id}/run{outcome.run}: starting value "
            f"{f0} below reference optimum {fs}"
        )
    return normalized_descent(f0, fb, fs)


def optimization_performance(outcomes):
    """Mean normalized descent (f0 - f_best) / (f0 - f_star) in [0, 1]."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("cannot average performance over zero outcomes")
    return sum(_descent(o) for o in outcomes) / len(outcomes)


_TOKEN = re.compile(r"\w+|[^\w\s]")


def computational_overhead(texts):
    """Mean token count per answer program."""
    texts = list(texts)
    if not texts:
        raise ValueError("cannot average overhead over zero programs")
    return sum(len(_TOKEN.findall(t)) for t in texts) / len(texts)


@dataclass(frozen=True)
class MetricsReport:
    """The four metrics for one evaluated system."""

    error_rate: float
    recovery_cost: float
    performance: float
    overhead: float
    n_problems: int = 0
    n_runs: int = 0


def compute_report(outcomes, repairs, answer_texts, n_problems, n_runs):
    """Bundle the four metrics for one system."""
    return MetricsReport(
        error_rate=error_rate(outcomes, n_problems, n_runs),
        recovery_cost=recovery_cost(repairs),
        performance=optimization_performance(outcomes),
        overhead=computational_overhead(answer_texts),
        n_problems=n_problems,
        n_runs=n_runs,
    )


def format_table(reports):
    """Aligned text table, one row per system.

    ``reports`` maps system name -> MetricsReport.
    """
    headers = ("system", "Err.", "Rec.", "Perf.", "Comp.")
    rows = [
        (name, f"{r.error_rate:.3f}", f"{r.recovery_cost:.3f}",
         f"{r.performance:.3f}", f"{r.overhead:.1f}")
        for name, r in reports.items()
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def fmt(row):
        cells = [row[0].ljust(widths[0])]
        cells += [row[i].rjust(widths[i]) for i in range(1, len(headers))]
        return "  ".join(cells)
    lines = [fmt(headers)]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
