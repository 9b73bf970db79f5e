"""Metrics over beam adjudication outcomes and report serialization.

Top-k counts a problem when a correct candidate sits anywhere in the first k
ranks; Completion judges the rank-0 candidate only; Choice resolves the first
executable candidate's value to the nearest of four options; the adjusted
variant adds a quarter of the unexecutable fraction (chance on four options).
All metrics share one denominator: the full problem count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .solver import (BeamOutcome, ProblemRecord, RecordId, SchemaError, json_object,
                     json_record, load_records, resolve_choice)


class MissingChoicesError(ValueError):
    def __init__(self, problem_id: str):
        super().__init__(f"problem {problem_id} has no 4-option choices")


class EmptyReportError(ValueError):
    def __init__(self):
        super().__init__("no problems to evaluate")


@dataclass(frozen=True)
class Tolerance:
    """pass iff |pred - gt| <= max(abs, rel * |gt|)."""

    abs: float = 1e-2
    rel: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.abs) and math.isfinite(self.rel)) or \
                self.abs < 0 or self.rel < 0 or (self.abs == 0 and self.rel == 0):
            raise ValueError("tolerance needs finite abs >= 0 and rel >= 0, not both "
                             f"zero, got abs {self.abs} and rel {self.rel}")

    def passes(self, pred: float, gt: float) -> bool:
        return abs(pred - gt) <= max(self.abs, self.rel * abs(gt))


@dataclass(frozen=True)
class ProblemRow:
    id: RecordId
    first_executed_rank: int | None
    first_correct_rank: int | None
    chosen_option: int | None
    correct_option: int | None


@dataclass
class EvaluationReport:
    n_problems: int
    top1: float
    top3: float
    top10: float
    completion: float
    choice: float | None
    adjusted_top1: float | None
    rows: list[ProblemRow] = field(default_factory=list)


Pair = tuple[ProblemRecord, BeamOutcome]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def metric_top_k(outcomes: Sequence[BeamOutcome], k: int) -> float:
    if not outcomes:
        raise EmptyReportError()
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = sum(
        1 for o in outcomes
        if o.rank_of_first_correct is not None and o.rank_of_first_correct < k
    )
    return hits / len(outcomes)


def metric_completion(pairs: Sequence[Pair], tol: Tolerance) -> float:
    """Rank-0 candidate must execute and match the answer."""
    if not pairs:
        raise EmptyReportError()
    hits = 0
    for problem, outcome in pairs:
        if not outcome.candidates:
            continue
        first = outcome.candidates[0]
        if first.executed and tol.passes(first.value, problem.answer):
            hits += 1
    return hits / len(pairs)


def _correct_option(problem: ProblemRecord) -> int:
    return resolve_choice(problem.answer, problem.choices)


def _chosen_option(problem: ProblemRecord, outcome: BeamOutcome) -> int | None:
    """Option picked by the first executable candidate, if any."""
    if outcome.rank_of_first_executed is None:
        return None
    value = outcome.candidates[outcome.rank_of_first_executed].value
    return resolve_choice(value, problem.choices)


def _require_choices(pairs: Sequence[Pair]) -> None:
    for problem, _ in pairs:
        if problem.choices is None or len(problem.choices) != 4:
            raise MissingChoicesError(problem.id)


def metric_choice(pairs: Sequence[Pair]) -> float:
    """Problems whose first executable candidate resolves to the correct
    option; problems with no executable candidate count as incorrect."""
    if not pairs:
        raise EmptyReportError()
    _require_choices(pairs)
    hits = 0
    for problem, outcome in pairs:
        chosen = _chosen_option(problem, outcome)
        if chosen is not None and chosen == _correct_option(problem):
            hits += 1
    return hits / len(pairs)


def adjusted_accuracy(pairs: Sequence[Pair]) -> float:
    """Raw top-1 plus 0.25 x the fraction of problems with no executable
    candidate (chance level on four options)."""
    if not pairs:
        raise EmptyReportError()
    _require_choices(pairs)
    outcomes = [o for _, o in pairs]
    raw_top1 = metric_top_k(outcomes, 1)
    unexecutable = sum(
        1 for o in outcomes if o.rank_of_first_executed is None
    ) / len(outcomes)
    return raw_top1 + 0.25 * unexecutable


def build_report(pairs: Sequence[Pair], tol: Tolerance) -> EvaluationReport:
    if not pairs:
        raise EmptyReportError()
    outcomes = [o for _, o in pairs]
    has_choices = all(
        p.choices is not None and len(p.choices) == 4 for p, _ in pairs
    )
    rows = []
    for problem, outcome in pairs:
        chosen = correct = None
        if has_choices:
            chosen = _chosen_option(problem, outcome)
            correct = _correct_option(problem)
        rows.append(ProblemRow(
            id=problem.id,
            first_executed_rank=outcome.rank_of_first_executed,
            first_correct_rank=outcome.rank_of_first_correct,
            chosen_option=chosen,
            correct_option=correct,
        ))
    return EvaluationReport(
        n_problems=len(pairs),
        top1=metric_top_k(outcomes, 1),
        top3=metric_top_k(outcomes, 3),
        top10=metric_top_k(outcomes, 10),
        completion=metric_completion(pairs, tol),
        choice=metric_choice(pairs) if has_choices else None,
        adjusted_top1=adjusted_accuracy(pairs) if has_choices else None,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

METRICS = ("top1", "top3", "top10", "completion", "choice", "adjusted_top1")


def write_report(report: EvaluationReport, path: str | Path) -> None:
    payload = {
        "schema": 1,
        "n_problems": report.n_problems,
        "metrics": {name: getattr(report, name) for name in METRICS},
        "rows": [vars(row) for row in report.rows],
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )


def read_report(path: str | Path) -> EvaluationReport:
    """A report file; its metrics and rows decode as EvaluationReport fields,
    and every object rejects unknown fields."""
    label = f"report {path}"
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"unreadable {label}: {exc}") from exc
    if json_object(label, payload).get("schema") != 1:
        raise SchemaError(f"unsupported report schema: {payload.get('schema')!r}")
    json_object(label, payload, ("schema", "n_problems", "metrics", "rows"))
    metrics = json_object(f"metrics of {label}", payload.get("metrics"), METRICS)
    return json_record(EvaluationReport, label, {
        **metrics, "n_problems": payload.get("n_problems"), "rows": payload.get("rows")})


# ---------------------------------------------------------------------------
# Candidate files (decode output)
# ---------------------------------------------------------------------------

@dataclass
class CandidateLine:
    """One line of a candidates file: `id` as in ProblemRecord, `candidates`
    a list of program texts in rank order; unknown fields are ignored."""

    id: RecordId
    candidates: list[str]


def load_candidates(path: str | Path) -> dict[str, list[str]]:
    """JSONL of {"id": ..., "candidates": [program text, ...]} in rank order."""
    return {line.id: line.candidates for line in load_records(path, CandidateLine)}


def save_candidates(
    candidates: Iterable[tuple[str, list[str]]], path: str | Path
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for problem_id, texts in candidates:
            fh.write(json.dumps(
                {"id": problem_id, "candidates": texts}, sort_keys=True, allow_nan=False
            ) + "\n")
