import json
import random

import pytest

from geoformal import eval_harness as eh
from geoformal.eval_harness import (
    EmptyReportError,
    EvaluationReport,
    MissingChoicesError,
    ProblemRow,
    SchemaError,
    Tolerance,
    adjusted_accuracy,
    build_report,
    metric_choice,
    metric_completion,
    metric_top_k,
    read_report,
    write_report,
)
from geoformal.solver import BeamOutcome, CandidateResult, ProblemRecord


TOL = Tolerance(abs=1e-2, rel=1e-3)


def outcome(values: list[float | None], gt: float, tol: Tolerance = TOL) -> BeamOutcome:
    """Build a BeamOutcome from candidate values (None = failed execution)."""
    candidates = []
    first_executed = first_correct = None
    for rank, value in enumerate(values):
        if value is None:
            candidates.append(CandidateResult("bad", False, error="failed"))
            continue
        candidates.append(CandidateResult("ok", True, value=value))
        if first_executed is None:
            first_executed = rank
        if first_correct is None and tol.passes(value, gt):
            first_correct = rank
    return BeamOutcome(tuple(candidates), first_executed, first_correct)


def problem(pid: str, answer: float, choices=None) -> ProblemRecord:
    return ProblemRecord(id=pid, numbers=[], answer=answer, choices=choices)


def four_choices(answer: float) -> list[float]:
    return [answer, answer + 5.0, answer + 10.0, answer + 15.0]


# ---------------------------------------------------------------------------
# Tolerance
# ---------------------------------------------------------------------------

def test_tolerance_rule_uses_looser_bound():
    tol = Tolerance(abs=1e-2, rel=1e-3)
    assert tol.passes(12.104, 12.1)          # abs bound
    assert tol.passes(1000.5, 1000.0)        # rel bound (1.0)
    assert not tol.passes(12.2, 12.1)


def test_tolerance_rejects_double_zero():
    with pytest.raises(ValueError):
        Tolerance(abs=0.0, rel=0.0)


# ---------------------------------------------------------------------------
# Top-k
# ---------------------------------------------------------------------------

def test_top1_all_correct_at_rank_zero():
    outs = [outcome([5.0], 5.0) for _ in range(4)]
    assert metric_top_k(outs, 1) == 1.0


def test_correct_only_at_rank_five():
    outs = [outcome([None] * 5 + [5.0], 5.0)]
    assert metric_top_k(outs, 1) == 0.0
    assert metric_top_k(outs, 10) == 1.0


def test_top_k_nondecreasing_in_k():
    rng = random.Random(1)
    for _ in range(50):
        outs = []
        for _ in range(20):
            values = [
                rng.choice([None, 5.0, 7.0]) for _ in range(rng.randint(1, 10))
            ]
            outs.append(outcome(values, 5.0))
        series = [metric_top_k(outs, k) for k in range(1, 11)]
        assert series == sorted(series)


# ---------------------------------------------------------------------------
# Completion
# ---------------------------------------------------------------------------

def test_completion_is_rank_zero_only():
    pairs = [(problem("p", 5.0), outcome([None, 5.0], 5.0))]
    assert metric_completion(pairs, TOL) == 0.0


def test_completion_within_printed_precision():
    pairs = [(problem("p", 12.1), outcome([12.104], 12.1))]
    assert metric_completion(pairs, TOL) == 1.0


def test_completion_empty_outcomes_error():
    with pytest.raises(EmptyReportError):
        metric_completion([], TOL)


# ---------------------------------------------------------------------------
# Choice
# ---------------------------------------------------------------------------

def test_choice_nearest_option_counts():
    p = problem("p", 40.0, [40.0, 60.0, 120.0, 140.0])
    assert metric_choice([(p, outcome([40.3], 40.0))]) == 1.0


def test_choice_unexecutable_counts_incorrect():
    p = problem("p", 40.0, [40.0, 60.0, 120.0, 140.0])
    assert metric_choice([(p, outcome([None, None], 40.0))]) == 0.0


def test_choice_requires_four_options():
    with pytest.raises(MissingChoicesError):
        metric_choice([(problem("p", 1.0, None), outcome([1.0], 1.0))])
    with pytest.raises(MissingChoicesError):
        metric_choice([(problem("p", 1.0, [1.0, 2.0]), outcome([1.0], 1.0))])


def test_choice_random_results_near_chance():
    rng = random.Random(2)
    pairs = []
    for i in range(600):
        answer = rng.uniform(10, 100)
        choices = four_choices(answer)
        rng.shuffle(choices)
        guess = rng.uniform(min(choices) - 3, max(choices) + 3)
        pairs.append((problem(f"p{i}", answer, choices), outcome([guess], answer)))
    assert abs(metric_choice(pairs) - 0.25) <= 0.06


# ---------------------------------------------------------------------------
# Adjusted accuracy
# ---------------------------------------------------------------------------

def test_adjusted_formula_fixture():
    pairs = []
    for i in range(10):
        answer = 5.0
        choices = four_choices(answer)
        if i < 6:      # correct at rank 0
            out = outcome([5.0], answer)
        elif i < 8:    # no candidate executes
            out = outcome([None, None], answer)
        else:          # executes but wrong
            out = outcome([9.0], answer)
        pairs.append((problem(f"p{i}", answer, choices), out))
    assert adjusted_accuracy(pairs) == pytest.approx(0.6 + 0.25 * 0.2, abs=0)


def test_adjusted_equals_raw_when_everything_executes():
    pairs = [
        (problem("a", 5.0, four_choices(5.0)), outcome([5.0], 5.0)),
        (problem("b", 5.0, four_choices(5.0)), outcome([9.0], 5.0)),
    ]
    outs = [o for _, o in pairs]
    assert adjusted_accuracy(pairs) == metric_top_k(outs, 1)


def test_adjusted_all_unexecutable_is_chance():
    pairs = [
        (problem(f"p{i}", 5.0, four_choices(5.0)), outcome([None], 5.0))
        for i in range(8)
    ]
    assert adjusted_accuracy(pairs) == 0.25


def test_adjusted_identity_exact_on_random_fixtures():
    rng = random.Random(3)
    for _ in range(30):
        pairs = []
        for i in range(40):
            answer = rng.uniform(1, 50)
            values = [
                rng.choice([None, answer, rng.uniform(1, 50)])
                for _ in range(rng.randint(1, 5))
            ]
            pairs.append(
                (problem(f"p{i}", answer, four_choices(answer)),
                 outcome(values, answer))
            )
        outs = [o for _, o in pairs]
        unexec = sum(1 for o in outs if o.rank_of_first_executed is None) / len(outs)
        assert adjusted_accuracy(pairs) == metric_top_k(outs, 1) + 0.25 * unexec


def test_adjusted_subtraction_identity_exact_on_dyadic_fixture():
    # 16 problems: 8 correct at rank 0, 4 unexecutable, 4 executed-but-wrong;
    # every fraction is dyadic so the subtraction is bitwise exact
    pairs = []
    for i in range(16):
        answer = 5.0
        if i < 8:
            out = outcome([5.0], answer)
        elif i < 12:
            out = outcome([None], answer)
        else:
            out = outcome([9.0], answer)
        pairs.append((problem(f"p{i}", answer, four_choices(answer)), out))
    outs = [o for _, o in pairs]
    assert adjusted_accuracy(pairs) - metric_top_k(outs, 1) == 0.25 * 0.25


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def make_pairs(rng: random.Random, n: int):
    pairs = []
    for i in range(n):
        answer = rng.uniform(1, 50)
        values = [
            rng.choice([None, answer, rng.uniform(1, 50)])
            for _ in range(rng.randint(1, 10))
        ]
        pairs.append(
            (problem(f"p{i}", answer, four_choices(answer)), outcome(values, answer))
        )
    return pairs


def test_report_invariants_on_random_fixtures():
    rng = random.Random(4)
    for _ in range(20):
        report = build_report(make_pairs(rng, 30), TOL)
        assert report.top1 <= report.top3 <= report.top10
        assert 0.0 <= report.completion <= 1.0
        assert report.adjusted_top1 >= report.top1


def test_metrics_permutation_invariant():
    rng = random.Random(5)
    pairs = make_pairs(rng, 25)
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    a = build_report(pairs, TOL)
    b = build_report(shuffled, TOL)
    assert (a.top1, a.top3, a.top10, a.completion, a.choice, a.adjusted_top1) == \
        (b.top1, b.top3, b.top10, b.completion, b.choice, b.adjusted_top1)


def test_report_roundtrip_small(tmp_path):
    report = build_report(make_pairs(random.Random(6), 10), TOL)
    path = tmp_path / "report.json"
    write_report(report, path)
    assert read_report(path) == report


def test_report_roundtrip_empty_rows(tmp_path):
    report = EvaluationReport(
        n_problems=0, top1=0.0, top3=0.0, top10=0.0,
        completion=0.0, choice=None, adjusted_top1=None, rows=[],
    )
    path = tmp_path / "empty.json"
    write_report(report, path)
    assert read_report(path) == report


def test_report_roundtrip_large_fuzzed(tmp_path):
    report = build_report(make_pairs(random.Random(7), 1000), TOL)
    path = tmp_path / "big.json"
    write_report(report, path)
    assert read_report(path) == report


def test_read_handwritten_v1_report(tmp_path):
    path = tmp_path / "hand.json"
    path.write_text("""
    {
      "schema": 1,
      "n_problems": 1,
      "metrics": {"top1": 1.0, "top3": 1.0, "top10": 1.0,
                  "completion": 1.0, "choice": null, "adjusted_top1": null},
      "rows": [{"id": "p0", "first_executed_rank": 0,
                "first_correct_rank": 0, "chosen_option": null,
                "correct_option": null}]
    }
    """)
    report = read_report(path)
    assert report.n_problems == 1
    assert report.rows[0].id == "p0"


def test_read_report_schema_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": 2}')
    with pytest.raises(SchemaError):
        read_report(path)
    path.write_text('{"schema": 1, "n_problems": 1}')
    with pytest.raises(SchemaError):
        read_report(path)
    path.write_text("not json")
    with pytest.raises(SchemaError):
        read_report(path)

    good = {"schema": 1, "n_problems": 1,
            "metrics": {"top1": 1.0, "top3": 1.0, "top10": 1.0, "completion": 1.0,
                        "choice": None, "adjusted_top1": None},
            "rows": [{"id": "p0", "first_executed_rank": 0, "first_correct_rank": 0,
                      "chosen_option": None, "correct_option": None}]}
    metrics, row = good["metrics"], good["rows"][0]
    label = f"report {path}"
    for payload, message in [
        ({**good, "metrics": {**metrics, "top1": "high"}},
         f"top1 in {label} must be a number, got 'high'"),
        ({**good, "metrics": {**metrics, "top3": float("nan")}},
         f"top3 in {label} must be a number, got nan"),
        ({**good, "rows": [{**row, "first_correct_rank": "zero"}]},
         f"first_correct_rank in rows[0] of {label} must be null or an integer, "
         "got 'zero'"),
        ({**good, "n_problems": "1"}, f"n_problems in {label} must be an integer, got '1'"),
        ({**good, "metrics": {**metrics, "top5": 1.0}},
         f"unknown field 'top5' in metrics of {label}"),
        ({**good, "rows": [{**row, "rank": 0}]}, f"unknown field 'rank' in rows[0] of {label}"),
        ({**good, "extra": 1}, f"unknown field 'extra' in {label}"),
        ({**good, "rows": None}, f"rows in {label} must be a list of objects, got None"),
        ([1], f"{label} must be a JSON object, got [1]"),
    ]:
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as caught:
            read_report(path)
        assert str(caught.value) == message


def test_candidates_roundtrip(tmp_path):
    path = tmp_path / "cands.jsonl"
    data = [("p0", ["g_equal 1.0", "garbage"]), ("p1", [])]
    eh.save_candidates(data, path)
    assert eh.load_candidates(path) == {"p0": ["g_equal 1.0", "garbage"], "p1": []}


def test_empty_report_errors():
    with pytest.raises(EmptyReportError):
        build_report([], TOL)
    with pytest.raises(EmptyReportError):
        metric_top_k([], 1)
