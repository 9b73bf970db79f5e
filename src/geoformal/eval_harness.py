"""Metrics over beam adjudication outcomes and report serialization.

`build_report` turns each problem's outcome into one row and computes every
metric from those rows, over one denominator: the full problem count.
Top-k counts a problem when a correct candidate sits anywhere in the first k
ranks; `top1` is also the Completion accuracy of the PGPS9K protocol, which
judges the rank-0 candidate alone.  Choice resolves the first executable
candidate's value to the nearest of four options; the adjusted top-1 adds a
quarter of the unexecutable fraction (chance on four options).  Choice and
adjusted top-1 are null unless every problem has four options.

A report file is `json.dumps(indent=2)` text, but its rows are not encoded
with `indent`: any `indent` drops json to its pure-Python encoder, several
times slower than the C one on a report's rows, so `write_report` indents
the rows itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .solver import (BeamOutcome, ProblemRecord, RecordId, SchemaError, json_line,
                     json_object, json_record, load_records, resolve_choice)


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


@dataclass(frozen=True, slots=True)
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
    choice: float | None
    adjusted_top1: float | None
    rows: list[ProblemRow] = field(default_factory=list)


Pair = tuple[ProblemRecord, BeamOutcome]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def build_report(pairs: Sequence[Pair], tol: Tolerance) -> EvaluationReport:
    """One row per problem, then every metric from the rows.  `tol` is
    unused: `solver.evaluate_beam` has already judged every candidate."""
    if not pairs:
        raise EmptyReportError()
    has_choices = all(
        p.choices is not None and len(p.choices) == 4 for p, _ in pairs
    )
    rows = []
    for problem, outcome in pairs:
        chosen = correct = None
        if has_choices:
            correct = resolve_choice(problem.answer, problem.choices)
            if outcome.rank_of_first_executed is not None:
                value = outcome.candidates[outcome.rank_of_first_executed].value
                chosen = resolve_choice(value, problem.choices)
        rows.append(ProblemRow(
            id=problem.id,
            first_executed_rank=outcome.rank_of_first_executed,
            first_correct_rank=outcome.rank_of_first_correct,
            chosen_option=chosen,
            correct_option=correct,
        ))
    n = len(rows)
    top1, top3, top10 = (
        sum(r.first_correct_rank is not None and r.first_correct_rank < k
            for r in rows) / n
        for k in (1, 3, 10)
    )
    choice = adjusted = None
    if has_choices:
        choice = sum(r.chosen_option == r.correct_option for r in rows) / n
        unexecutable = sum(r.first_executed_rank is None for r in rows) / n
        adjusted = top1 + 0.25 * unexecutable
    return EvaluationReport(n_problems=n, top1=top1, top3=top3, top10=top10,
                            choice=choice, adjusted_top1=adjusted, rows=rows)


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

METRICS = ("top1", "top3", "top10", "choice", "adjusted_top1")
REPORT_SCHEMA = 2


_ROWS = json.JSONEncoder(sort_keys=True, allow_nan=False,
                         separators=(",\n      ", ": ")).encode


def write_report(report: EvaluationReport, path: str | Path) -> None:
    """The report's `json.dumps(indent=2, sort_keys=True)`, byte for byte.
    Its rows go through one C-encoder call whose item separator holds the
    indent of a row's fields, and rows share it.  No JSON string holds a raw
    newline and every row field is a scalar, so "},\n" ends a row and nothing
    else: re-indenting the rows there gives `indent=2`'s bytes."""
    text = json.dumps({
        "schema": REPORT_SCHEMA,
        "n_problems": report.n_problems,
        "metrics": {name: getattr(report, name) for name in METRICS},
        "rows": [],
    }, indent=2, sort_keys=True, allow_nan=False)
    if report.rows:
        rows = _ROWS([{
            "id": r.id, "first_executed_rank": r.first_executed_rank,
            "first_correct_rank": r.first_correct_rank,
            "chosen_option": r.chosen_option, "correct_option": r.correct_option,
        } for r in report.rows])
        rows = rows[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
        text = text.replace('"rows": []', f'"rows": [\n    {{\n      {rows}\n    }}\n  ]')
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_report(path: str | Path) -> EvaluationReport:
    """A report file; its metrics and rows decode as EvaluationReport fields,
    and every object rejects unknown fields."""
    label = f"report {path}"
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"unreadable {label}: {exc}") from exc
    if json_object(label, payload).get("schema") != REPORT_SCHEMA:
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
            fh.write(json_line({"id": problem_id, "candidates": texts}) + "\n")
