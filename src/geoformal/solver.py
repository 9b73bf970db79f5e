"""Deterministic interpreter for solution programs.

Executes one operator group at a time, appending each result to the `V_` slots,
and adjudicates ranked beam candidates against a ground-truth answer.  The
operator registry is data-driven: a new operation needs its arity in
formal_lang.OPERATOR_ARITIES and an OperatorSpec here, nothing else.

Note `g_minus` is the absolute difference (geometric lengths and angles are
nonnegative) and the angle operators take degrees.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .formal_lang import (
    OPERATOR_ARITIES,
    ConstRef,
    FormalLangError,
    Literal,
    NumRef,
    Operator,
    ProgramToken,
    SolutionProgram,
    VarRef,
    parse_program,
)


class SolverError(ValueError):
    """Base class for execution errors."""


class DomainError(SolverError):
    def __init__(self, operator: str, operands: tuple[float, ...], reason: str):
        super().__init__(f"{operator}{operands}: {reason}")
        self.operator = operator
        self.operands = operands
        self.reason = reason


class UnboundNumRefError(SolverError):
    def __init__(self, index: int, available: int):
        super().__init__(f"N_{index} is unbound (problem has {available} number(s))")
        self.index = index
        self.available = available


class UnknownConstantError(SolverError):
    def __init__(self, name: str):
        super().__init__(f"unknown constant C_{name}")
        self.name = name


class EmptyProgramError(SolverError):
    def __init__(self):
        super().__init__("cannot execute an empty program")


# ---------------------------------------------------------------------------
# Operator registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorSpec:
    name: str
    fn: Callable[..., float]
    domain: Callable[..., bool] | None = None  # None: total on the reals
    domain_reason: str = ""

    @property
    def arity(self) -> int:
        return OPERATOR_ARITIES[self.name]


def _nonzero(b: float) -> bool:
    return b != 0.0


def _tan_defined(deg: float) -> bool:
    return abs(math.cos(math.radians(deg))) > 1e-12


_OPERATORS: tuple[OperatorSpec, ...] = (
    OperatorSpec("g_equal", lambda x: x),
    OperatorSpec("g_double", lambda x: 2.0 * x),
    OperatorSpec("g_half", lambda x: x / 2.0),
    OperatorSpec("g_add", lambda a, b: a + b),
    OperatorSpec("g_minus", lambda a, b: abs(a - b)),
    OperatorSpec("g_mul", lambda a, b: a * b),
    OperatorSpec(
        "g_divide", lambda a, b: a / b,
        domain=lambda a, b: _nonzero(b), domain_reason="division by zero",
    ),
    OperatorSpec("gougu_add", lambda a, b: math.sqrt(a * a + b * b)),
    OperatorSpec("gougu_minus", lambda a, b: math.sqrt(abs(a * a - b * b))),
    OperatorSpec("Sum", lambda a, b, c: a + b + c),
    OperatorSpec("PRK_Perim", lambda side, count: side * count),
    OperatorSpec("cal_circle_area", lambda r: math.pi * r * r),
    OperatorSpec("cal_circle_perimeter", lambda r: 2.0 * math.pi * r),
    OperatorSpec("g_sin", lambda deg: math.sin(math.radians(deg))),
    OperatorSpec("g_cos", lambda deg: math.cos(math.radians(deg))),
    OperatorSpec(
        "g_tan", lambda deg: math.tan(math.radians(deg)),
        domain=_tan_defined, domain_reason="tangent undefined at 90 degrees",
    ),
)

_REGISTRY: Mapping[str, OperatorSpec] = {spec.name: spec for spec in _OPERATORS}


def operator_table() -> list[OperatorSpec]:
    """The fixed operator registry, in declaration order."""
    return list(_OPERATORS)


def operator_arities() -> Mapping[str, int]:
    """Read-only name -> operand count, shared with the parser."""
    return OPERATOR_ARITIES


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

CONSTANTS: Mapping[str, float] = {"PI": math.pi}


@dataclass
class Bindings:
    """Problem-given numbers, grown result slots, and named constants."""

    n_values: list[float] = field(default_factory=list)
    v_values: list[float] = field(default_factory=list)
    constants: Mapping[str, float] = field(default_factory=lambda: dict(CONSTANTS))

    @classmethod
    def from_numbers(cls, numbers: Iterable[float]) -> "Bindings":
        return cls(n_values=[float(x) for x in numbers])

    def copy(self) -> "Bindings":
        return Bindings(list(self.n_values), list(self.v_values), dict(self.constants))


@dataclass(frozen=True)
class TraceStep:
    operator: str
    operands: tuple[float, ...]
    result: float


@dataclass(frozen=True)
class ExecutionTrace:
    steps: tuple[TraceStep, ...]

    @property
    def final(self) -> float:
        return self.steps[-1].result


def _resolve(tok: ProgramToken, b: Bindings) -> float:
    if isinstance(tok, Literal):
        return tok.value
    if isinstance(tok, NumRef):
        if tok.index >= len(b.n_values):
            raise UnboundNumRefError(tok.index, len(b.n_values))
        return b.n_values[tok.index]
    if isinstance(tok, VarRef):
        if tok.index >= len(b.v_values):
            # parse_program rejects this; guard against hand-built programs
            raise FormalLangError(f"V_{tok.index} resolved before it was produced")
        return b.v_values[tok.index]
    if isinstance(tok, ConstRef):
        if tok.name not in b.constants:
            raise UnknownConstantError(tok.name)
        return b.constants[tok.name]
    raise TypeError(f"operator in operand position: {tok!r}")


def execute_program(p: SolutionProgram, b: Bindings) -> ExecutionTrace:
    """Run every operator group in order, extending b.v_values by one per group."""
    if not p.tokens:
        raise EmptyProgramError()
    steps: list[TraceStep] = []
    for op, operand_toks in p.groups():
        spec = _REGISTRY[op.name]
        operands = tuple(_resolve(t, b) for t in operand_toks)
        if spec.domain is not None and not spec.domain(*operands):
            raise DomainError(op.name, operands, spec.domain_reason)
        result = float(spec.fn(*operands))
        if not math.isfinite(result):
            raise DomainError(op.name, operands, "non-finite result")
        b.v_values.append(result)
        steps.append(TraceStep(op.name, operands, result))
    return ExecutionTrace(tuple(steps))


def resolve_choice(result: float, choices: list[float]) -> int:
    """Index of the option nearest to result; ties break to the lowest index."""
    if not choices:
        raise SolverError("choices must be non-empty")
    best = 0
    best_gap = abs(result - choices[0])
    for k in range(1, len(choices)):
        gap = abs(result - choices[k])
        if gap < best_gap:
            best, best_gap = k, gap
    return best


# ---------------------------------------------------------------------------
# Beam adjudication
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CandidateResult:
    text: str
    executed: bool
    value: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class BeamOutcome:
    candidates: tuple[CandidateResult, ...]
    rank_of_first_executed: int | None
    rank_of_first_correct: int | None


def evaluate_beam(
    candidates: Iterable[str],
    b: Bindings,
    gt_answer: float,
    tol,
) -> BeamOutcome:
    """Parse and execute ranked candidate texts, each on a fresh copy of the
    bindings.

    A candidate that fails to parse or execute is recorded as Failed and never
    affects later candidates.  `tol` is anything with passes(pred, gt), e.g.
    eval_harness.Tolerance.
    """
    results: list[CandidateResult] = []
    first_executed: int | None = None
    first_correct: int | None = None
    for rank, text in enumerate(candidates):
        try:
            trace = execute_program(parse_program(text), b.copy())
        except (SolverError, FormalLangError) as exc:
            results.append(CandidateResult(text, False, error=str(exc)))
            continue
        results.append(CandidateResult(text, True, value=trace.final))
        if first_executed is None:
            first_executed = rank
        if first_correct is None and tol.passes(trace.final, gt_answer):
            first_correct = rank
    return BeamOutcome(tuple(results), first_executed, first_correct)


# ---------------------------------------------------------------------------
# Problem records (JSONL wire format)
# ---------------------------------------------------------------------------

@dataclass
class ProblemRecord:
    """One problem as carried on disk; unknown JSON fields are ignored."""

    id: str
    numbers: list[float]
    answer: float
    gt_program: str = ""
    caption: str = ""
    question_tokens: list[int] = field(default_factory=list)
    choices: list[float] | None = None
    diagram: str | None = None

    def to_json(self) -> dict:
        return self.__dict__.copy()

    @classmethod
    def from_json(cls, rec: dict) -> "ProblemRecord":
        def listed(name: str, default):
            value = rec.get(name, default)
            if value is not default and not isinstance(value, list):
                raise ValueError(f"problem {rec.get('id')!r}: {name} must be a JSON "
                                 f"list, got {value!r}")
            return value

        choices = listed("choices", None)
        return cls(
            id=str(rec["id"]),
            numbers=[float(x) for x in listed("numbers", [])],
            answer=float(rec["answer"]),
            gt_program=rec.get("gt_program", ""),
            caption=rec.get("caption", ""),
            question_tokens=[int(t) for t in listed("question_tokens", [])],
            choices=None if choices is None else [float(c) for c in choices],
            diagram=rec.get("diagram"),
        )


def load_problems(path: str | Path) -> list[ProblemRecord]:
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            records.append(ProblemRecord.from_json(json.loads(line)))
    return records


def save_problems(records: Iterable[ProblemRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json(), sort_keys=True, allow_nan=False) + "\n")
