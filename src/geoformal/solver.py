"""Deterministic interpreter for solution programs.

Runs a program for its value alone: one operator group at a time, each result
filling the next of the run's own `V_` slots, on the problem's numbers, which
it only reads; no per-step record is kept.  Adjudicates ranked beam candidates
against a ground-truth answer, every candidate on the same numbers.  The
operator registry is data-driven: a new operation needs its arity in
formal_lang.OPERATOR_ARITIES and an OperatorSpec here, nothing else.

Note `g_minus` is the absolute difference (geometric lengths and angles are
nonnegative) and the angle operators take degrees.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .formal_lang import (
    OPERATOR_ARITIES,
    ConstRef,
    FormalLangError,
    Literal,
    NumRef,
    Operator,
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


def operator_arities() -> Mapping[str, int]:
    """Read-only name -> operand count, shared with the parser."""
    return OPERATOR_ARITIES


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

CONSTANTS: Mapping[str, float] = {"PI": math.pi}


def execute_program(p: SolutionProgram, numbers: Sequence[float]) -> float:
    """The value of the last operator group, run in order on the problem's
    `numbers` (`N_i` is float(numbers[i])); each group's result fills the next
    of this call's own `V_` slots, and `numbers` is only read."""
    toks = p.tokens
    if not toks:
        raise EmptyProgramError()
    slots: list[float] = []
    i = 0
    while i < len(toks):
        op = toks[i]
        assert isinstance(op, Operator)
        spec = _REGISTRY[op.name]
        end = i + 1 + spec.arity
        operands = []
        for tok in toks[i + 1 : end]:
            kind = type(tok)
            if kind is Literal:
                operands.append(tok.value)
            elif kind is NumRef:
                if tok.index >= len(numbers):
                    raise UnboundNumRefError(tok.index, len(numbers))
                operands.append(float(numbers[tok.index]))
            elif kind is VarRef:
                if tok.index >= len(slots):
                    # parse_program rejects this; guard against hand-built programs
                    raise FormalLangError(f"V_{tok.index} resolved before it was produced")
                operands.append(slots[tok.index])
            elif kind is ConstRef:
                if tok.name not in CONSTANTS:
                    raise UnknownConstantError(tok.name)
                operands.append(CONSTANTS[tok.name])
            else:
                raise TypeError(f"operator in operand position: {tok!r}")
        if spec.domain is not None and not spec.domain(*operands):
            raise DomainError(op.name, tuple(operands), spec.domain_reason)
        result = float(spec.fn(*operands))
        if not math.isfinite(result):
            raise DomainError(op.name, tuple(operands), "non-finite result")
        slots.append(result)
        i = end
    return result


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

# Results are NamedTuples, not frozen dataclasses: as immutable (the parse map
# shares one failure result across problems) at about half the cost to build.
# Like any tuple, a result also equals a plain tuple of the same values.
class CandidateResult(NamedTuple):
    text: str
    executed: bool
    value: float | None = None
    error: str | None = None


class BeamOutcome(NamedTuple):
    candidates: tuple[CandidateResult, ...]
    rank_of_first_executed: int | None
    rank_of_first_correct: int | None


def evaluate_beam(
    candidates: Iterable[str],
    numbers: Sequence[float],
    gt_answer: float,
    tol,
    parsed: dict[str, SolutionProgram | CandidateResult] | None = None,
) -> BeamOutcome:
    """Parse ranked candidate texts and run each on the problem's `numbers`.

    A candidate that fails to parse or execute is recorded as Failed and never
    affects later candidates: each run has its own `V_` slots.  `tol` is
    anything with passes(pred, gt), e.g. eval_harness.Tolerance.  `parsed`
    maps each text seen to its program or its parse failure (both depend on
    the text alone) and is filled as texts come, so beams sharing it parse a
    text once; None is a fresh map.
    """
    parsed = {} if parsed is None else parsed
    results: list[CandidateResult] = []
    first_executed: int | None = None
    first_correct: int | None = None
    for rank, text in enumerate(candidates):
        program = parsed.get(text)
        if program is None:
            try:
                program = parse_program(text)
            except FormalLangError as exc:
                program = CandidateResult(text, False, None, str(exc))
            parsed[text] = program
        if type(program) is CandidateResult:
            results.append(program)
            continue
        try:
            value = execute_program(program, numbers)
        except (SolverError, FormalLangError) as exc:
            results.append(CandidateResult(text, False, None, str(exc)))
            continue
        results.append(CandidateResult(text, True, value))
        if first_executed is None:
            first_executed = rank
        if first_correct is None and tol.passes(value, gt_answer):
            first_correct = rank
    return BeamOutcome(tuple(results), first_executed, first_correct)


# ---------------------------------------------------------------------------
# Problem records (JSONL wire format)
# ---------------------------------------------------------------------------
# Every JSON record the CLI reads decodes through `json_fields`: problem and
# candidate lines, reports, config files and checkpoint snapshots.  The JSON
# value a field takes follows from its dataclass annotation alone.  Every
# JSONL line the package writes (problems, candidates, step logs, CLI
# summaries) is encoded by `json_line`: one encoder, built once, that runs in
# the C encoder because it has no `indent`.

class SchemaError(ValueError):
    """A JSON record of the wrong shape, or a field value of the wrong type."""


RecordId = str  # a JSON string, or an integer read as its string
json_line = json.JSONEncoder(sort_keys=True, allow_nan=False).encode
# A field rule maps a JSON value and the label of its record to the decoded
# value, or to _BAD for a value it refuses.  Types match exactly, so a boolean
# is never a number or a count.
_BAD = object()
_EXACT = {"int": int, "bool": bool, "str": str}  # `X | None` of these: one check


def _exact(kind: type):
    return lambda v, _: v if type(v) is kind else _BAD


def _number(v, _=None):
    """A finite number as a float; json.loads also reads NaN, Infinity and
    integers too large for a float."""
    if type(v) is float:
        return v if math.isfinite(v) else _BAD
    return float(v) if type(v) is int and abs(v) <= sys.float_info.max else _BAD


def _numbers(v, _=None):
    """A list of finite numbers as floats."""
    if type(v) is not list:
        return _BAD
    v = [x if type(x) is float and math.isfinite(x) else _number(x) for x in v]
    return _BAD if _BAD in v else v


def _items(kind: type):
    def items(v, _):
        if type(v) is not list:
            return _BAD
        for x in v:
            if type(x) is not kind:
                return _BAD
        return v
    return items


def _tuple(rule, size: int | None = None):
    def tupled(v, label):
        v = rule(v, label)
        return _BAD if v is _BAD or size not in (None, len(v)) else tuple(v)
    return tupled


_RULES = {
    "int": (_exact(int), "an integer"),
    "bool": (_exact(bool), "a boolean"),
    "str": (_exact(str), "a string"),
    "float": (_number, "a number"),
    "RecordId": (lambda v, _: v if type(v) is str else str(v) if type(v) is int else _BAD,
                 "a string or an integer"),
    "list[int]": (_items(int), "a list of integers"),
    "list[float]": (_numbers, "a list of numbers"),
    "list[str]": (_items(str), "a list of strings"),
    "tuple[int, ...]": (_tuple(_items(int)), "a list of integers"),
    "tuple[float, float, float]": (_tuple(_numbers, 3), "a list of three numbers"),
}


def _rule(cls: type, name: str, annotation):
    """The (rule, kind) of an annotation as its module spells it."""
    if annotation in _RULES:
        return _RULES[annotation]
    spelled = str(annotation)
    if spelled.endswith(" | None"):
        inner = spelled[:-len(" | None")]
        item, kind = _rule(cls, name, inner)
        if (exact := _EXACT.get(inner)) is not None:
            return (lambda v, _: v if v is None or type(v) is exact else _BAD), \
                f"null or {kind}"
        return (lambda v, label: None if v is None else item(v, label)), f"null or {kind}"
    record = vars(sys.modules[cls.__module__]).get(spelled[len("list["):-1])
    if spelled.startswith("list[") and is_dataclass(record):  # each item strict
        return (lambda v, label: _BAD if type(v) is not list else [
            json_record(record, f"{name}[{i}] of {label}", item)
            for i, item in enumerate(v)]), "a list of objects"
    raise TypeError(f"{cls.__name__}.{name}: no JSON rule for {spelled!r}")


@functools.cache
def field_rules(cls: type) -> dict:
    """Field name -> (rule, kind) of dataclass `cls`."""
    return {f.name: _rule(cls, f.name, f.type) for f in fields(cls)}


def json_object(label: str, rec, known=None) -> dict:
    """`rec` if it is a JSON object naming only `known` fields (any, if None)."""
    if type(rec) is not dict:
        raise SchemaError(f"{label} must be a JSON object, got {rec!r}")
    for name in () if known is None else rec:
        if name not in known:
            raise SchemaError(f"unknown field {name!r} in {label}")
    return rec


def json_fields(cls: type, label: str, rec, strict: bool = True) -> dict:
    """The fields of dataclass `cls` that JSON object `rec` gives, each checked
    and converted by its annotation's rule; a strict record rejects unknown
    fields, any other ignores them."""
    if type(rec) is not dict:
        raise SchemaError(f"{label} must be a JSON object, got {rec!r}")
    rules, out = field_rules(cls), {}
    for name, value in rec.items():
        rule = rules.get(name)
        if rule is None:
            if strict:
                raise SchemaError(f"unknown field {name!r} in {label}")
        elif (got := rule[0](value, label)) is not _BAD:
            out[name] = got
        else:
            raise SchemaError(f"{name} in {label} must be {rule[1]}, got {value!r}")
    return out


def json_record(cls: type, label: str, rec, strict: bool = True):
    """A `cls` built from JSON object `rec` by `json_fields`; every field
    without a default must be present."""
    given = json_fields(cls, label, rec, strict)
    try:
        return cls(**given)
    except TypeError:
        for f in fields(cls):
            if f.name not in given and f.default is MISSING and f.default_factory is MISSING:
                raise SchemaError(f"missing field {f.name!r} in {label}") from None
        raise


def load_records(path: str | Path, cls: type) -> list:
    """The records of a JSONL file, one `json_record` per non-blank line,
    ignoring unknown fields; no two may share an `id`."""
    records, where = {}, f" of {path}"
    for n, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        label = f"line {n}{where}"
        try:
            rec = json_record(cls, label, json.loads(line), strict=False)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{label} is not JSON: {exc}") from None
        if records.setdefault(rec.id, rec) is not rec:
            raise SchemaError(f"duplicate id {rec.id!r} in {label}")
    return list(records.values())


@dataclass
class ProblemRecord:
    """One line of a problems file.  Each field takes the JSON value its
    annotation names (`RecordId`: a string, or an integer read as its
    string); numbers must be finite and unknown fields are ignored."""

    id: RecordId
    answer: float
    numbers: list[float] = field(default_factory=list)
    gt_program: str = ""
    caption: str = ""
    question_tokens: list[int] = field(default_factory=list)
    choices: list[float] | None = None
    diagram: str | None = None


def problems_file(path: str | Path) -> Path:
    """`path`, or its problems.jsonl if `path` is a dataset directory."""
    path = Path(path)
    return path / "problems.jsonl" if path.is_dir() else path


def load_problems(path: str | Path) -> list[ProblemRecord]:
    """The problems of a problems file or of a dataset directory."""
    return load_records(problems_file(path), ProblemRecord)


def save_problems(records: Iterable[ProblemRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json_line(vars(rec)) + "\n")
