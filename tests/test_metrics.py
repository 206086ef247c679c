"""Scoring generated-solver systems: error rate, repair cost,
normalized descent and token overhead."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optforge.artifacts import write_json
from optforge.metrics import (DataIntegrityError, EvalOutcome, MetricsReport,
                              RepairRecord, _lcs_length, compute_report,
                              computational_overhead, error_rate,
                              format_table, line_recovery_ratio,
                              optimization_performance, recovery_cost)


def _ok(pid="p", run=0, f0=100.0, fb=1.0, fs=0.0):
    return EvalOutcome(problem_id=pid, run=run, failed=False, f0=f0,
                       f_best=fb, f_star=fs)


def _failed(pid="p", run=0):
    return EvalOutcome(problem_id=pid, run=run, failed=True)


# ---------------------------------------------------------------------------
# error rate


def test_error_rate_counts_failures():
    outcomes = [_failed("a", r) if (r == 0 and p < 4) else _ok(f"p{p}", r)
                for p in range(4) for r in range(5)]
    assert error_rate(outcomes, n_problems=4, n_runs=5) == pytest.approx(0.2)


def test_error_rate_zero_and_one():
    assert error_rate([_ok()], 1, 1) == 0.0
    assert error_rate([_failed()], 1, 1) == 1.0


def test_error_rate_checks_cardinality():
    with pytest.raises(ValueError):
        error_rate([_ok()], n_problems=2, n_runs=3)


# ---------------------------------------------------------------------------
# recovery


def test_lcs_over_line_lists():
    assert _lcs_length(["a", "b", "c"], ["a", "c"]) == 2
    assert _lcs_length(["a"], ["b"]) == 0
    assert _lcs_length([], ["a"]) == 0
    assert _lcs_length(["x", "y"], ["x", "y"]) == 2


def test_line_recovery_ratio_cases():
    ten = "\n".join(f"line {i}" for i in range(10))
    one_changed = ten.replace("line 3", "patched 3")
    three_changed = ten
    for i in (1, 4, 7):
        three_changed = three_changed.replace(f"line {i}", f"patched {i}")
    assert line_recovery_ratio(ten, ten) == 0.0
    assert line_recovery_ratio(ten, one_changed) == pytest.approx(0.1)
    assert line_recovery_ratio(ten, three_changed) == pytest.approx(0.3)
    assert line_recovery_ratio("a\nb", "c\nd") == 1.0
    assert line_recovery_ratio("", "") == 0.0


def test_line_recovery_uses_larger_side():
    # 2 shared lines, repaired grew to 4 -> 1 - 2/4
    assert line_recovery_ratio("a\nb", "a\nb\nc\nd") == pytest.approx(0.5)


def test_recovery_cost_mean():
    ten = "\n".join(f"line {i}" for i in range(10))
    recs = [
        RepairRecord("p1", ten, ten.replace("line 3", "x")),
        RepairRecord("p2", ten, ten.replace("line 1", "x")
                     .replace("line 4", "y").replace("line 7", "z")),
    ]
    assert recovery_cost(recs) == pytest.approx(0.2)


def test_recovery_cost_empty_warns_and_scores_zero():
    with pytest.warns(UserWarning):
        assert recovery_cost([]) == 0.0


# ---------------------------------------------------------------------------
# descent


def test_performance_plain_value():
    assert optimization_performance([_ok(f0=100.0, fb=1.0, fs=0.0)]) \
        == pytest.approx(0.99, abs=0.0)


def test_performance_mean_with_failures():
    outs = [_ok(f0=10.0, fb=0.0, fs=0.0), _failed()]
    assert optimization_performance(outs) == pytest.approx(0.5)


def test_performance_clamps():
    assert optimization_performance([_ok(fb=-10.0, fs=0.0)]) == 1.0
    assert optimization_performance([_ok(fb=500.0)]) == 0.0


def test_performance_start_at_optimum():
    assert optimization_performance([_ok(f0=3.0, fb=3.0, fs=3.0)]) == 1.0


def test_performance_rejects_f0_below_reference():
    with pytest.raises(DataIntegrityError):
        optimization_performance([_ok(f0=-1.0, fb=-1.0, fs=0.0)])


def test_performance_rejects_incomplete_success():
    bad = EvalOutcome(problem_id="p", run=0, failed=False, f0=1.0)
    with pytest.raises(ValueError):
        optimization_performance([bad])
    with pytest.raises(ValueError):
        optimization_performance([])


@given(st.floats(0.1, 1e6), st.floats(-1e6, 1e6))
@settings(max_examples=60, deadline=None)
def test_performance_always_unit_interval(f0, fb):
    val = optimization_performance([_ok(f0=f0, fb=fb, fs=0.0)])
    assert 0.0 <= val <= 1.0


# ---------------------------------------------------------------------------
# overhead


def test_overhead_token_counts():
    # "x = 1" -> x, =, 1; "print(x)" -> print, (, x, )
    assert computational_overhead(["x = 1"]) == 3.0
    assert computational_overhead(["print(x)"]) == 4.0
    assert computational_overhead(["x = 1", "print(x)\nx += 2"]) \
        == pytest.approx((3 + 8) / 2)


def test_overhead_empty_rejected():
    with pytest.raises(ValueError):
        computational_overhead([])


# ---------------------------------------------------------------------------
# report assembly


def _small_report():
    outcomes = [
        _ok("p1", 0), _ok("p1", 1),
        _failed("p2", 0), _ok("p2", 1, f0=10.0, fb=5.0, fs=0.0),
    ]
    repairs = [RepairRecord("p2", "a\nb", "a\nc")]
    answers = ["x = 1", "y = 2"]
    return compute_report(outcomes, repairs, answers, n_problems=2, n_runs=2)


def test_compute_report_values():
    rep = _small_report()
    assert rep.error_rate == pytest.approx(0.25)
    assert rep.recovery_cost == pytest.approx(0.5)
    # descents: 0.99, 0.99, 0 (failed), 0.5
    assert rep.performance == pytest.approx((0.99 + 0.99 + 0.0 + 0.5) / 4)
    assert rep.overhead == 3.0
    assert rep.n_problems == 2 and rep.n_runs == 2


def test_report_round_trips_json(tmp_path):
    rep = _small_report()
    path = tmp_path / "report.json"
    write_json(path, dataclasses.asdict(rep))
    loaded = json.loads(path.read_text())
    assert MetricsReport(**loaded) == rep
    assert list(loaded) == sorted(loaded)


def test_format_table_layout():
    reports = {
        "baseline": MetricsReport(0.25, 0.333, 0.45, 5.5),
        "tuned": MetricsReport(0.0, 0.0, 0.987, 120.25),
    }
    table = format_table(reports)
    lines = table.splitlines()
    assert lines[0].split() == ["system", "Err.", "Rec.", "Perf.", "Comp."]
    assert set(lines[1]) <= {"-", " "}
    assert "baseline" in lines[2] and "0.250" in lines[2]
    assert "0.333" in lines[2] and "0.450" in lines[2] and "5.5" in lines[2]
    assert "tuned" in lines[3] and "0.987" in lines[3] and "120.2" in lines[3]
    # aligned columns: every row has the same width
    assert len({len(ln) for ln in lines}) == 1


def test_format_table_empty():
    table = format_table({})
    assert table.splitlines()[0].startswith("system")
