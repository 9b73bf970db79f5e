"""Formal caption and solution-program languages: grammar, parser, printer, vocab.

Caption grammar (line oriented, one relation per line):

    caption   = { relation LF }
    relation  = collinear | concyclic
    collinear = "Line" label label { label }          // points left to right
    concyclic = "\\odot" label "lieson" label { label } // center, then members clockwise
    label     = /[A-Z][A-Z0-9]{0,2}/

Program grammar (flat prefix token stream, whitespace separated):

    program = { group }
    group   = OPERATOR operand{arity(OPERATOR)}
    operand = literal | "N_" index | "V_" index | "C_" name
    literal = decimal number

Each group's result becomes the next `V_` slot, so `V_i` may only refer to a
group that appears earlier in the stream.  Canonical text uses single spaces,
and literals print as shortest round-trip decimals with a `.` always present.

Program tokens are immutable and shared between parses: every parse of `g_add`
yields the same `Operator` object, and each operand word is classified once by
a bounded private memo and then reused.  Compare tokens with `==`, never `is`.
The memo's bound is about 60 times the 17 distinct operand words in one round
of the `adjudicate` benchmark (2,000 problems of 10 candidates each).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class FormalLangError(ValueError):
    """Base class for caption/program language errors."""


class CaptionSyntaxError(FormalLangError):
    def __init__(self, message: str, line: int, column: int, expected: str):
        super().__init__(f"line {line}, col {column}: {message} (expected {expected})")
        self.line = line
        self.column = column
        self.expected = expected


class DuplicatePointError(FormalLangError):
    def __init__(self, label: str, line: int | None = None):
        where = f" at line {line}" if line is not None else ""
        super().__init__(f"duplicate point {label!r} within one relation{where}")
        self.label = label
        self.line = line


class ProgramSyntaxError(FormalLangError):
    def __init__(self, message: str, position: int):
        super().__init__(f"token {position}: {message}")
        self.position = position


class UnknownOperatorError(ProgramSyntaxError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown operator {name!r}", position)
        self.name = name


class ArityMismatchError(ProgramSyntaxError):
    def __init__(self, operator: str, expected: int, got: int, position: int):
        super().__init__(
            f"operator {operator!r} takes {expected} operand(s), got {got}", position
        )
        self.operator = operator
        self.expected = expected
        self.got = got


class ForwardReferenceError(ProgramSyntaxError):
    def __init__(self, index: int, available: int, position: int):
        super().__init__(
            f"V_{index} is not yet produced (only {available} result(s) so far)", position
        )
        self.index = index
        self.available = available


class OutOfVocabError(FormalLangError):
    def __init__(self, token: str):
        super().__init__(f"token {token!r} is not in the vocabulary")
        self.token = token


# ---------------------------------------------------------------------------
# Caption types
# ---------------------------------------------------------------------------

POINT_LABEL_RE = re.compile(r"[A-Z][A-Z0-9]{0,2}$")

COLLINEAR = "collinear"
CONCYCLIC = "concyclic"

_ODOT = "\\odot"
_LIESON = "lieson"


def is_point_label(name: str) -> bool:
    return bool(POINT_LABEL_RE.match(name))


@dataclass(frozen=True)
class Relation:
    """One caption relation: points on a line, or points on a circle with a center."""

    kind: str
    points: tuple[str, ...]
    center: str | None = None

    def __post_init__(self):
        if self.kind not in (COLLINEAR, CONCYCLIC):
            raise FormalLangError(f"unknown relation kind {self.kind!r}")
        if self.kind == COLLINEAR:
            if self.center is not None:
                raise FormalLangError("collinear relation must not have a center")
            if len(self.points) < 2:
                raise FormalLangError("collinear relation needs at least 2 points")
        else:
            if self.center is None:
                raise FormalLangError("concyclic relation needs a center")
            if len(self.points) < 1:
                raise FormalLangError("concyclic relation needs at least 1 point")
            if not is_point_label(self.center):
                raise FormalLangError(f"bad point label {self.center!r}")
        for p in self.points:
            if not is_point_label(p):
                raise FormalLangError(f"bad point label {p!r}")
        seen = set([self.center] if self.center else [])
        for p in self.points:
            if p in seen:
                raise DuplicatePointError(p)
            seen.add(p)


def collinear(*points: str) -> Relation:
    return Relation(COLLINEAR, tuple(points))


def concyclic(center: str, *points: str) -> Relation:
    return Relation(CONCYCLIC, tuple(points), center=center)


@dataclass(frozen=True)
class FormalCaption:
    relations: tuple[Relation, ...] = ()

    def __len__(self) -> int:
        return len(self.relations)


# ---------------------------------------------------------------------------
# Caption parse / format
# ---------------------------------------------------------------------------

_WORD_RE = re.compile(r"\S+")


def parse_caption(text: str) -> FormalCaption:
    """Parse newline-separated relation lines into a FormalCaption.

    Blank lines are skipped; relation order and point order are preserved.
    Raises CaptionSyntaxError with 1-based line/column on malformed input and
    DuplicatePointError when a relation repeats a point.
    """
    relations: list[Relation] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        words = [(m.group(0), m.start() + 1) for m in _WORD_RE.finditer(line)]
        if not words:
            continue
        head, head_col = words[0]
        if head == "Line":
            points = _parse_labels(words[1:], lineno, minimum=2, line_len=len(line))
            _check_distinct(points, None, lineno)
            relations.append(Relation(COLLINEAR, points))
        elif head in (_ODOT, "\\" + _ODOT):  # accept the doubled-backslash rendering
            if len(words) < 2:
                raise CaptionSyntaxError(
                    "missing circle center", lineno, len(line) + 1, "point label"
                )
            center, center_col = words[1]
            if not is_point_label(center):
                raise CaptionSyntaxError(
                    f"bad center label {center!r}", lineno, center_col, "point label"
                )
            if len(words) < 3 or words[2][0] != _LIESON:
                col = words[2][1] if len(words) > 2 else len(line) + 1
                raise CaptionSyntaxError("malformed concyclic relation", lineno, col, "'lieson'")
            points = _parse_labels(words[3:], lineno, minimum=1, line_len=len(line))
            _check_distinct(points, center, lineno)
            relations.append(Relation(CONCYCLIC, points, center=center))
        else:
            raise CaptionSyntaxError(
                f"unknown relation keyword {head!r}", lineno, head_col, "'Line' or '\\odot'"
            )
    return FormalCaption(tuple(relations))


def _parse_labels(
    words: list[tuple[str, int]], lineno: int, minimum: int, line_len: int
) -> tuple[str, ...]:
    labels = []
    for word, col in words:
        if not is_point_label(word):
            raise CaptionSyntaxError(
                f"bad point label {word!r}", lineno, col, "point label"
            )
        labels.append(word)
    if len(labels) < minimum:
        raise CaptionSyntaxError(
            f"need at least {minimum} point(s), got {len(labels)}",
            lineno, line_len + 1, "point label",
        )
    return tuple(labels)


def _check_distinct(points: tuple[str, ...], center: str | None, lineno: int) -> None:
    seen = set([center] if center else [])
    for p in points:
        if p in seen:
            raise DuplicatePointError(p, lineno)
        seen.add(p)


def format_relation(r: Relation) -> str:
    if r.kind == COLLINEAR:
        return "Line " + " ".join(r.points)
    return f"{_ODOT} {r.center} {_LIESON} " + " ".join(r.points)


def format_caption(c: FormalCaption) -> str:
    """Canonical caption text: one relation per line, no trailing newline."""
    return "\n".join(format_relation(r) for r in c.relations)


# ---------------------------------------------------------------------------
# Program tokens
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Operator:
    name: str


@dataclass(frozen=True)
class Literal:
    value: float


@dataclass(frozen=True)
class NumRef:
    index: int


@dataclass(frozen=True)
class VarRef:
    index: int


@dataclass(frozen=True)
class ConstRef:
    name: str


ProgramToken = Operator | Literal | NumRef | VarRef | ConstRef

# The program language's operators and their operand counts, in registry
# order (which fixes their vocabulary ids); solver.OperatorSpec gives each
# one its semantics.
OPERATOR_ARITIES: Mapping[str, int] = MappingProxyType({
    "g_equal": 1, "g_double": 1, "g_half": 1, "g_add": 2, "g_minus": 2,
    "g_mul": 2, "g_divide": 2, "gougu_add": 2, "gougu_minus": 2, "Sum": 3,
    "PRK_Perim": 2, "cal_circle_area": 1, "cal_circle_perimeter": 1,
    "g_sin": 1, "g_cos": 1, "g_tan": 1,
})

_DECIMAL = r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$"
_DECIMAL_RE = re.compile(_DECIMAL)
# One match classifies an operand word: group 1 holds an N_ index, group 2 a
# V_ index, group 3 a constant's name; a match with none of them is a decimal.
_OPERAND_RE = re.compile(r"N_(\d+)$|V_(\d+)$|C_([A-Z][A-Z0-9_]*)$|" + _DECIMAL)


def format_number(value: float) -> str:
    """Shortest round-trip decimal with '.' (or exponent) always present."""
    text = repr(float(value))
    return text


def token_text(tok: ProgramToken) -> str:
    if isinstance(tok, Operator):
        return tok.name
    if isinstance(tok, Literal):
        return format_number(tok.value)
    if isinstance(tok, NumRef):
        return f"N_{tok.index}"
    if isinstance(tok, VarRef):
        return f"V_{tok.index}"
    if isinstance(tok, ConstRef):
        return f"C_{tok.name}"
    raise TypeError(f"not a program token: {tok!r}")


@dataclass(frozen=True)
class SolutionProgram:
    tokens: tuple[ProgramToken, ...] = ()

    def groups(self) -> Iterator[tuple[Operator, tuple[ProgramToken, ...]]]:
        """Yield (operator, operands) per group; assumes a validated program."""
        i = 0
        toks = self.tokens
        while i < len(toks):
            op = toks[i]
            assert isinstance(op, Operator)
            arity = OPERATOR_ARITIES[op.name]
            yield op, toks[i + 1 : i + 1 + arity]
            i += 1 + arity

    def n_groups(self) -> int:
        return sum(1 for _ in self.groups())


# ---------------------------------------------------------------------------
# Program parse / format
# ---------------------------------------------------------------------------

_OPERAND_MEMO_SIZE = 1024  # see the module docstring

# name -> (the operator's shared token, its arity)
_OPERATOR_TOKENS: dict[str, tuple[Operator, int]] = {
    name: (Operator(name), arity) for name, arity in OPERATOR_ARITIES.items()
}


def parse_program(text: str) -> SolutionProgram:
    """Parse and validate a whitespace-separated program token stream.

    Validation: the leading token of every group must be a registered
    operator, each operator must be followed by exactly its arity of operand
    tokens, and every `V_i` must refer to a group that already completed.
    """
    words = text.split()
    n_words = len(words)
    tokens: list[ProgramToken] = []
    i = 0
    groups_done = 0
    while i < n_words:
        name = words[i]
        entry = _OPERATOR_TOKENS.get(name)
        if entry is None:
            raise UnknownOperatorError(name, i)
        op, arity = entry
        tokens.append(op)
        for j in range(i + 1, i + 1 + arity):
            if j >= n_words or words[j] in _OPERATOR_TOKENS:
                raise ArityMismatchError(name, arity, j - i - 1, i)
            tok = _operand_token(words[j])
            if tok is None:
                raise ProgramSyntaxError(f"expected operand, got {words[j]!r}", j)
            if type(tok) is VarRef and tok.index >= groups_done:
                raise ForwardReferenceError(tok.index, groups_done, j)
            tokens.append(tok)
        i += 1 + arity
        groups_done += 1
    return SolutionProgram(tuple(tokens))


@functools.lru_cache(maxsize=_OPERAND_MEMO_SIZE)
def _operand_token(word: str) -> ProgramToken | None:
    """The shared token an operand word stands for, or None if it is none.

    It depends on the word alone; the checks that depend on where the word
    occurs (its position, V_ against the groups done) stay with the caller.
    """
    m = _OPERAND_RE.match(word)
    if m is None:
        return None
    num, var, const = m.group(1, 2, 3)
    try:
        if num is not None:
            return NumRef(int(num))
        if var is not None:
            return VarRef(int(var))
    except ValueError:  # more digits than int() converts
        return None
    if const is not None:
        return ConstRef(const)
    value = float(word)
    return Literal(value) if math.isfinite(value) else None


def format_program(p: SolutionProgram) -> str:
    """Canonical single-space program text; round-trips through parse_program."""
    return " ".join(token_text(t) for t in p.tokens)


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

PAD, BOS, EOS, SEP = "<pad>", "<bos>", "<eos>", "<sep>"
SPECIALS = (PAD, BOS, EOS, SEP)

PAD_ID, BOS_ID, EOS_ID, SEP_ID = 0, 1, 2, 3

_DIGIT_PIECES = frozenset("0123456789.")


class Vocab:
    """Bijective id<->token map; special tokens occupy the fixed lowest ids."""

    def __init__(self, tokens: Iterable[str]):
        self._tokens = list(tokens)
        if self._tokens[: len(SPECIALS)] != list(SPECIALS):
            raise FormalLangError("vocab must start with the special tokens")
        self._ids = {tok: i for i, tok in enumerate(self._tokens)}
        if len(self._ids) != len(self._tokens):
            raise FormalLangError("vocab tokens must be unique")

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def id_of(self, token: str) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise OutOfVocabError(token) from None

    def token_of(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._tokens):
            raise OutOfVocabError(f"<id {token_id}>")
        return self._tokens[token_id]

    def tokens(self) -> list[str]:
        return list(self._tokens)

    def save(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self._tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        lines = Path(path).read_text(encoding="utf-8").split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        return cls(lines)


QUESTION_WORDS = (
    "find", "the", "of", "a", "with", "and", "given", "is", "are",
    "hypotenuse", "leg", "legs", "right", "triangle", "perimeter",
    "regular", "polygon", "sides", "side", "length", "angle", "angles",
    "third", "circle", "radius", "area", "circumference", "sum",
    "values", "three", "double", "half", "difference", "product",
)

POINT_LABELS = tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ")


def build_default_vocab() -> Vocab:
    """Deterministic vocabulary covering captions, programs, and question text."""
    tokens: list[str] = list(SPECIALS)
    tokens += ["Line", _ODOT, _LIESON]
    tokens += list(OPERATOR_ARITIES)
    tokens += list(POINT_LABELS)
    tokens += list("0123456789") + ["."]
    tokens += [f"N_{i}" for i in range(10)]
    tokens += [f"V_{i}" for i in range(10)]
    tokens += ["C_PI"]
    tokens += list(QUESTION_WORDS)
    return Vocab(tokens)


def tokenize(text: str, vocab: Vocab) -> list[int]:
    """Whitespace tokens to ids; decimal numbers become canonical digit pieces
    terminated by SEP so adjacent numbers stay separable.  Raises OutOfVocab
    for anything else outside the vocabulary.
    """
    ids: list[int] = []
    for word in text.split():
        if word in vocab:
            ids.append(vocab.id_of(word))
            continue
        if _DECIMAL_RE.match(word) and math.isfinite(float(word)):
            for piece in format_number(float(word)):
                if piece not in _DIGIT_PIECES or piece not in vocab:
                    raise OutOfVocabError(word)
                ids.append(vocab.id_of(piece))
            ids.append(SEP_ID)
            continue
        raise OutOfVocabError(word)
    return ids


def detokenize(ids: Iterable[int], vocab: Vocab) -> str:
    """Inverse of tokenize up to canonicalization: digit-piece runs merge back
    into one number; PAD/BOS/EOS are dropped; SEP only closes a number run.
    """
    words: list[str] = []
    run: list[str] = []

    def flush():
        if run:
            words.append("".join(run))
            run.clear()

    for token_id in ids:
        tok = vocab.token_of(token_id)
        if tok in _DIGIT_PIECES:
            run.append(tok)
            continue
        flush()
        if tok not in (PAD, BOS, EOS, SEP):
            words.append(tok)
    flush()
    return " ".join(words)
