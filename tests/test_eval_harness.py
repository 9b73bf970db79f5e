import json
import random

import pytest

from geoformal import eval_harness as eh
from geoformal.eval_harness import (
    EmptyReportError,
    EvaluationReport,
    SchemaError,
    Tolerance,
    build_report,
    read_report,
    write_report,
)
from geoformal.solver import BeamOutcome, CandidateResult, ProblemRecord
from oracles import reference_metrics, reference_write_report


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


def pairs_of(outcomes: list[BeamOutcome]) -> list:
    return [(problem(f"p{i}", 5.0), o) for i, o in enumerate(outcomes)]


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
    assert build_report(pairs_of(outs), TOL).top1 == 1.0


def test_correct_only_at_rank_five():
    report = build_report(pairs_of([outcome([None] * 5 + [5.0], 5.0)]), TOL)
    assert (report.top1, report.top3, report.top10) == (0.0, 0.0, 1.0)


def test_top_k_nondecreasing_in_k():
    rng = random.Random(1)
    for _ in range(50):
        outs = []
        for _ in range(20):
            values = [
                rng.choice([None, 5.0, 7.0]) for _ in range(rng.randint(1, 10))
            ]
            outs.append(outcome(values, 5.0))
        report = build_report(pairs_of(outs), TOL)
        series = [report.top1, report.top3, report.top10]
        assert series == sorted(series)


def test_top1_within_printed_precision():
    pairs = [(problem("p", 12.1), outcome([12.104], 12.1))]
    assert build_report(pairs, TOL).top1 == 1.0


# ---------------------------------------------------------------------------
# Choice
# ---------------------------------------------------------------------------

def test_choice_nearest_option_counts():
    p = problem("p", 40.0, [40.0, 60.0, 120.0, 140.0])
    assert build_report([(p, outcome([40.3], 40.0))], TOL).choice == 1.0


def test_choice_unexecutable_counts_incorrect():
    p = problem("p", 40.0, [40.0, 60.0, 120.0, 140.0])
    assert build_report([(p, outcome([None, None], 40.0))], TOL).choice == 0.0


def test_choice_requires_four_options():
    full = (problem("q", 1.0, four_choices(1.0)), outcome([1.0], 1.0))
    for choices in (None, [1.0, 2.0]):
        report = build_report([full, (problem("p", 1.0, choices),
                                      outcome([1.0], 1.0))], TOL)
        assert (report.choice, report.adjusted_top1) == (None, None)
        assert [(r.chosen_option, r.correct_option) for r in report.rows] == \
            [(None, None)] * 2


def test_choice_random_results_near_chance():
    rng = random.Random(2)
    pairs = []
    for i in range(600):
        answer = rng.uniform(10, 100)
        choices = four_choices(answer)
        rng.shuffle(choices)
        guess = rng.uniform(min(choices) - 3, max(choices) + 3)
        pairs.append((problem(f"p{i}", answer, choices), outcome([guess], answer)))
    assert abs(build_report(pairs, TOL).choice - 0.25) <= 0.06


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
    assert build_report(pairs, TOL).adjusted_top1 == pytest.approx(0.6 + 0.25 * 0.2,
                                                                    abs=0)


def test_adjusted_equals_raw_when_everything_executes():
    pairs = [
        (problem("a", 5.0, four_choices(5.0)), outcome([5.0], 5.0)),
        (problem("b", 5.0, four_choices(5.0)), outcome([9.0], 5.0)),
    ]
    report = build_report(pairs, TOL)
    assert report.adjusted_top1 == report.top1


def test_adjusted_all_unexecutable_is_chance():
    pairs = [
        (problem(f"p{i}", 5.0, four_choices(5.0)), outcome([None], 5.0))
        for i in range(8)
    ]
    assert build_report(pairs, TOL).adjusted_top1 == 0.25


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
        report = build_report(pairs, TOL)
        assert report.adjusted_top1 == report.top1 + 0.25 * unexec


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
    report = build_report(pairs, TOL)
    assert report.adjusted_top1 - report.top1 == 0.25 * 0.25


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
        assert report.adjusted_top1 >= report.top1


def test_metrics_permutation_invariant():
    rng = random.Random(5)
    pairs = make_pairs(rng, 25)
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    a = build_report(pairs, TOL)
    b = build_report(shuffled, TOL)
    assert [getattr(a, name) for name in eh.METRICS] == \
        [getattr(b, name) for name in eh.METRICS]


def oracle_fixture(rng: random.Random) -> list:
    """Problems with four, fewer or no choices, and beams that are empty,
    never execute, or hold answers, near misses and wrong values."""
    four = rng.random() < 0.5
    pairs = []
    for i in range(rng.randint(1, 30)):
        answer = rng.uniform(1, 50)
        if four or rng.random() < 0.7:
            choices = four_choices(answer)
            rng.shuffle(choices)
        else:
            choices = rng.choice([None, [], [answer], [answer, answer + 1.0, 9.0]])
        kind = rng.random()
        if kind < 0.15:
            values = []
        elif kind < 0.3:
            values = [None] * rng.randint(1, 10)
        else:
            values = [rng.choice([None, answer, answer + 0.02, answer + 0.009,
                                  rng.uniform(1, 50)])
                      for _ in range(rng.randint(1, 12))]
        pairs.append((problem(f"p{i}", answer, choices), outcome(values, answer)))
    return pairs


def test_report_metrics_equal_the_reference_walks():
    rng = random.Random(8)
    for _ in range(1_200):
        pairs = oracle_fixture(rng)
        want = reference_metrics(pairs, TOL)
        report = build_report(pairs, TOL)
        assert {name: getattr(report, name) for name in eh.METRICS} == \
            {name: want[name] for name in eh.METRICS}
        assert want["rank0"] == report.top1


def test_report_roundtrip_small(tmp_path):
    report = build_report(make_pairs(random.Random(6), 10), TOL)
    path = tmp_path / "report.json"
    write_report(report, path)
    assert read_report(path) == report


def test_report_roundtrip_empty_rows(tmp_path):
    report = EvaluationReport(
        n_problems=0, top1=0.0, top3=0.0, top10=0.0,
        choice=None, adjusted_top1=None, rows=[],
    )
    path = tmp_path / "empty.json"
    write_report(report, path)
    assert read_report(path) == report


def test_report_roundtrip_large_fuzzed(tmp_path):
    report = build_report(make_pairs(random.Random(7), 1000), TOL)
    path = tmp_path / "big.json"
    write_report(report, path)
    assert read_report(path) == report


ROW_IDS = ('say "hi"', "back\\slash", "new\nline", "tab\tbed", "},", "{", "é∠θ",
           "},\n      {", "0", "123")


@pytest.mark.parametrize("n_rows", [0, 1, 2_000])
def test_report_bytes_equal_the_reference_writer(tmp_path, n_rows):
    """Rows are indented by hand around one C-encoder call; the file must be
    the whole-payload `json.dumps(indent=2)` byte for byte, whatever the ids
    and field values hold."""
    rng = random.Random(n_rows)
    path, want = tmp_path / "report.json", tmp_path / "want.json"
    for _ in range(20 if n_rows < 2_000 else 2):
        rows = [eh.ProblemRow(
            f"{rng.choice(ROW_IDS)}{i}" if rng.random() < 0.5 else rng.choice(ROW_IDS),
            *(rng.choice([None, 0, 9]) for _ in range(4)))
            for i in range(n_rows)]
        choice, adjusted = rng.choice([(None, None), (0.25, 0.3125), (0.0, 1.0)])
        report = EvaluationReport(n_problems=n_rows, top1=rng.random(), top3=0.5,
                                  top10=1.0, choice=choice, adjusted_top1=adjusted,
                                  rows=rows)
        write_report(report, path)
        reference_write_report(report, want)
        assert path.read_bytes() == want.read_bytes()
    assert (n_rows == 0) == ('"rows": []' in path.read_text(encoding="utf-8"))


def test_read_handwritten_v1_report(tmp_path):
    # schema 2 dropped a metric; a schema-1 file is refused by its schema
    report = {"n_problems": 1,
              "metrics": {"top1": 1.0, "top3": 1.0, "top10": 1.0,
                          "choice": None, "adjusted_top1": None},
              "rows": [{"id": "p0", "first_executed_rank": 0, "first_correct_rank": 0,
                        "chosen_option": None, "correct_option": None}]}
    path = tmp_path / "hand.json"
    path.write_text(json.dumps({"schema": 1, **report}))
    with pytest.raises(SchemaError, match=r"^unsupported report schema: 1$"):
        read_report(path)
    path.write_text(json.dumps({"schema": 2, **report}))
    back = read_report(path)
    assert back.n_problems == 1
    assert back.rows[0].id == "p0"


def test_read_report_schema_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": 3}')
    with pytest.raises(SchemaError):
        read_report(path)
    path.write_text('{"schema": 2, "n_problems": 1}')
    with pytest.raises(SchemaError):
        read_report(path)
    path.write_text("not json")
    with pytest.raises(SchemaError):
        read_report(path)

    good = {"schema": 2, "n_problems": 1,
            "metrics": {"top1": 1.0, "top3": 1.0, "top10": 1.0,
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
