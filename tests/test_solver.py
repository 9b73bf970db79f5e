import math
import random
from dataclasses import dataclass

import pytest

from geoformal import formal_lang as fl
from geoformal import solver
from geoformal import train as tr
from geoformal.solver import (
    DomainError,
    EmptyProgramError,
    ProblemRecord,
    UnboundNumRefError,
    UnknownConstantError,
    evaluate_beam,
    execute_program,
    operator_table,
    resolve_choice,
)

from oracles import (ORACLE_ARITY, bench_style_candidates, oracle_eval,
                     random_bytes_text, random_program_text, reference_evaluate_beam,
                     reference_execute_program, rel_close)


@dataclass
class Tol:
    abs: float = 1e-2

    def passes(self, pred, gt):
        return abs(pred - gt) <= self.abs


def run(text: str, numbers=()) -> float:
    return execute_program(fl.parse_program(text), numbers)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_registry_matches_oracle_table():
    table = {spec.name: spec.arity for spec in operator_table()}
    assert table == ORACLE_ARITY
    # every operator the parser accepts has semantics, in vocabulary order
    assert list(fl.OPERATOR_ARITIES) == [spec.name for spec in operator_table()]


def test_sum_executes_three_operands():
    assert run("Sum 1.0 2.0 3.5") == 6.5


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def test_pythagorean_triple():
    assert run("gougu_add 3.0 4.0") == 5.0


def test_var_chain():
    # sqrt(25 - 16) = 3, then |5 - 3| = 2
    assert run("gougu_minus 5.0 4.0 g_minus 5.0 V_0") == 2.0


def test_division_by_zero_is_domain_error():
    with pytest.raises(DomainError):
        run("g_divide 1.0 0.0")


def test_tangent_at_ninety_is_domain_error():
    with pytest.raises(DomainError):
        run("g_tan 90.0")


def test_unbound_numref():
    with pytest.raises(UnboundNumRefError):
        run("g_equal N_2", numbers=[1.0])


def test_empty_program_rejected():
    with pytest.raises(EmptyProgramError):
        execute_program(fl.SolutionProgram(), [])


def test_numbers_resolve_as_floats_and_are_only_read():
    numbers = [6, 8]
    value = execute_program(fl.parse_program("gougu_add N_0 N_1 g_double V_0"), numbers)
    assert value == 20.0 and type(value) is float
    assert numbers == [6, 8]
    with pytest.raises(DomainError) as info:
        run("g_divide N_0 N_1", [1, 0])
    assert info.value.operands == (1.0, 0.0)
    assert str(info.value) == "g_divide(1.0, 0.0): division by zero"


def test_constants():
    assert run("g_mul 2.0 C_PI") == 2.0 * math.pi


def test_determinism_bit_for_bit():
    # sin(41.7 deg) into V_0, then 7.3 / V_0
    text = "g_sin 41.7 g_divide 7.3 V_0"
    results = {run(text) for _ in range(5)}
    assert len(results) == 1


def test_angle_operators_take_degrees():
    assert run("g_sin 30.0") == pytest.approx(0.5, abs=1e-12)
    assert run("g_cos 60.0") == pytest.approx(0.5, abs=1e-12)
    assert run("g_tan 45.0") == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Oracle equivalence and algebraic properties
# ---------------------------------------------------------------------------

def test_interpreter_matches_recursive_oracle():
    rng = random.Random(42)
    checked = 0
    while checked < 1000:
        text = random_program_text(rng, max_groups=4, n_numbers=3)
        numbers = [round(rng.uniform(0.5, 20.0), 3) for _ in range(3)]
        try:
            got = run(text, numbers)
        except DomainError:
            continue
        assert rel_close(got, oracle_eval(text, numbers)), text
        checked += 1


def test_g_minus_symmetry():
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.uniform(0, 50), rng.uniform(0, 50)
        assert run(f"g_minus {a!r} {b!r}") == run(f"g_minus {b!r} {a!r}")


def test_gougu_inverse():
    rng = random.Random(8)
    for _ in range(200):
        a, b = rng.uniform(0.1, 20), rng.uniform(0.1, 20)
        hyp = run(f"gougu_add {a!r} {b!r}")
        back = run(f"gougu_minus {hyp!r} {b!r}")
        assert rel_close(back, a)


# ---------------------------------------------------------------------------
# Choice resolution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("result,expected", [
    (40.0, 0),
    (50.0, 0),   # tie between options 0 and 1 breaks to the lowest index
    (139.0, 3),
])
def test_resolve_choice(result, expected):
    assert resolve_choice(result, [40.0, 60.0, 120.0, 140.0]) == expected


def test_resolve_choice_empty_rejected():
    with pytest.raises(solver.SolverError):
        resolve_choice(1.0, [])


# ---------------------------------------------------------------------------
# Beam adjudication
# ---------------------------------------------------------------------------

def test_beam_invalid_then_correct():
    out = evaluate_beam(
        ["g_equal", "gougu_add 3.0 4.0"], [], 5.0, Tol()
    )
    assert out.rank_of_first_executed == 1
    assert out.rank_of_first_correct == 1
    assert not out.candidates[0].executed
    assert out.candidates[1].value == 5.0


def test_beam_all_invalid():
    out = evaluate_beam(["nosuch 1.0"] * 10, [], 5.0, Tol())
    assert out.rank_of_first_executed is None
    assert out.rank_of_first_correct is None
    assert len(out.candidates) == 10


def test_beam_wrong_then_correct():
    out = evaluate_beam(
        ["g_add 1.0 1.0", "gougu_add 3.0 4.0"], [], 5.0, Tol()
    )
    assert out.rank_of_first_executed == 0
    assert out.rank_of_first_correct == 1


def test_beam_tail_candidates_never_change_first_correct():
    rng = random.Random(9)
    for _ in range(100):
        cands = ["g_equal 1.0", "gougu_add 3.0 4.0"]
        out_short = evaluate_beam(cands, [], 5.0, Tol())
        extra = [random_program_text(rng) for _ in range(rng.randint(1, 4))]
        out_long = evaluate_beam(cands + extra, [], 5.0, Tol())
        assert out_long.rank_of_first_correct == out_short.rank_of_first_correct


def test_beam_candidates_get_fresh_bindings():
    # if V_ slots leaked across candidates, the second V_0 would resolve
    out = evaluate_beam(
        ["g_equal 1.0", "g_equal V_0"], [], 1.0, Tol()
    )
    assert out.candidates[0].executed
    assert not out.candidates[1].executed


@pytest.mark.parametrize("text, position", [
    ("g_equal N_" + "9" * 5000, 1),
    ("g_equal N_0 g_equal V_" + "9" * 5000, 3),
], ids=["N", "V"])
def test_beam_scores_an_oversized_index_as_failed(text, position):
    # int() refuses more than 4300 digits; that word is no operand
    out = evaluate_beam([text, "g_equal N_0"], [2.0], 2.0, Tol())
    assert not out.candidates[0].executed
    assert out.candidates[0].error.startswith(f"token {position}: expected operand, got ")
    assert out.rank_of_first_executed == out.rank_of_first_correct == 1


def outcome(run, *args):
    """What `run` returns, or its error's class and message."""
    try:
        return run(*args)
    except Exception as exc:  # hand-built programs raise TypeError and the like
        return type(exc), str(exc)


HAND_BUILT = [
    fl.SolutionProgram((fl.Operator("g_equal"), fl.Operator("g_equal"))),
    fl.SolutionProgram((fl.Operator("g_add"), fl.Literal(1.0))),
    fl.SolutionProgram((fl.Operator("g_equal"), fl.VarRef(0))),
    fl.SolutionProgram((fl.Operator("g_equal"), fl.ConstRef("E"))),
    fl.SolutionProgram((fl.Operator("g_nosuch"), fl.Literal(1.0))),
    fl.SolutionProgram((fl.Literal(1.0),)),
]


def test_beam_isolates_each_candidate_and_only_reads_the_numbers():
    numbers = [2.0, 3.0]
    # a hand-built program that reads V_0 without producing it; the parser
    # would refuse its text
    parsed = {"leak": fl.SolutionProgram((fl.Operator("g_equal"), fl.VarRef(0)))}
    out = evaluate_beam(
        ["g_equal N_1 g_divide V_0 0.0", "leak", "g_equal 7.0 g_add V_0 N_0"],
        numbers, 9.0, Tol(), parsed,
    )
    first, leak, last = out.candidates
    assert not first.executed  # fails at group 2, after writing its V_0 = 3.0
    assert first.error == "g_divide(3.0, 0.0): division by zero"
    assert not leak.executed
    assert leak.error == "V_0 resolved before it was produced"
    assert last.executed and last.value == 9.0  # its own V_0 = 7.0
    assert out.rank_of_first_executed == out.rank_of_first_correct == 2
    assert numbers == [2.0, 3.0]


def outcome(run, *args):
    """What `run` returns, or its error's class, message and, for a domain
    error, operands."""
    try:
        return run(*args)
    except Exception as exc:  # hand-built programs raise TypeError and the like
        return type(exc), str(exc), getattr(exc, "operands", None)


HAND_BUILT = [
    fl.SolutionProgram(),
    fl.SolutionProgram((fl.Operator("g_equal"), fl.Operator("g_equal"))),
    fl.SolutionProgram((fl.Operator("g_add"), fl.Literal(1.0))),
    fl.SolutionProgram((fl.Operator("g_equal"), fl.VarRef(0))),
    fl.SolutionProgram((fl.Operator("g_equal"), fl.ConstRef("E"))),
    fl.SolutionProgram((fl.Operator("g_nosuch"), fl.Literal(1.0))),
    fl.SolutionProgram((fl.Literal(1.0),)),
    fl.parse_program("g_mul 1e200 1e200"),
    fl.parse_program("g_equal N_0 g_half N_7"),
]


def reference_value(p, numbers):
    return reference_execute_program(p, numbers)[-1][2]


def test_interpreter_matches_reference_interpreter():
    rng = random.Random(505)
    programs = list(HAND_BUILT)
    while len(programs) < 1500:
        for text in bench_style_candidates(rng, n_numbers=3):
            try:
                programs.append(fl.parse_program(text))
            except fl.FormalLangError:
                pass
        programs.append(fl.parse_program(random_program_text(rng, n_numbers=3)))
    raised = set()
    for p in programs:
        numbers = [rng.choice((0.0, 1.0, 90.0, 3.5, 2, 0)) for _ in range(rng.randint(0, 3))]
        kept = list(numbers)
        got = outcome(execute_program, p, numbers)
        assert got == outcome(reference_value, p, numbers), (p, numbers)
        assert numbers == kept
        if type(got) is tuple:
            raised.add(got[0])
    assert raised >= {EmptyProgramError, UnboundNumRefError, UnknownConstantError,
                      DomainError, fl.FormalLangError, TypeError}


def test_beam_matches_reference_beam():
    rng = random.Random(606)
    for _ in range(300):
        n_numbers = rng.randint(0, 3)
        beam = bench_style_candidates(rng, n_numbers)
        beam += [random_bytes_text(rng, 20), random_program_text(rng, n_numbers=n_numbers)]
        numbers = [rng.choice((1.0, 3.0, 90.0)) for _ in range(n_numbers)]
        gt = rng.choice((1.0, 3.0, 180.0))
        assert evaluate_beam(beam, numbers, gt, Tol(1.0)) == \
            reference_evaluate_beam(beam, numbers, gt, Tol(1.0))


def test_results_are_immutable_and_one_parse_failure_is_shared():
    """The parse map hands the same failure result to every problem whose
    beam holds that text, so a result must refuse assignment."""
    beams = {"p0": ["g_add N_0", "g_equal N_0"], "p1": ["g_add N_0"]}
    problems = [ProblemRecord(id=f"p{i}", answer=1.0, numbers=[1.0]) for i in range(2)]
    (_, first), (_, second) = tr.adjudicate(problems, beams, 10, Tol())
    failed = first.candidates[0]
    assert failed is second.candidates[0] and not failed.executed
    assert first.candidates[1] == solver.CandidateResult("g_equal N_0", True, 1.0)
    for result, name in [(failed, "error"), (first.candidates[1], "value"),
                         (first, "rank_of_first_correct"), (second, "candidates")]:
        with pytest.raises(AttributeError):
            setattr(result, name, None)
    assert (first.rank_of_first_executed, first.rank_of_first_correct) == (1, 1)


# ---------------------------------------------------------------------------
# Problem records
# ---------------------------------------------------------------------------

def test_problem_record_roundtrip(tmp_path):
    rec = ProblemRecord(
        id="p0", numbers=[3.0, 4.0], answer=5.0,
        gt_program="gougu_add N_0 N_1", caption="Line A B",
        question_tokens=[5, 6], choices=[5.0, 2.5, 10.0, 6.1], diagram="d/p0.pgm",
    )
    path = tmp_path / "problems.jsonl"
    solver.save_problems([rec], path)
    (loaded,) = solver.load_problems(path)
    assert loaded == rec


def test_problem_record_ignores_unknown_fields(tmp_path):
    path = tmp_path / "problems.jsonl"
    path.write_text('{"id": 1, "numbers": [2], "answer": 4.0, "banana": true}\n')
    (rec,) = solver.load_problems(path)
    assert rec.id == "1"
    assert rec.numbers == [2.0]
    assert rec.choices is None
