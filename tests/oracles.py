"""Reference implementations the test suite pins the package against.

The independent program evaluator (`recursive_eval`) and the text fuzzers
live in `geoformal.selfcheck`, where `selftest` uses them too;
`bench_style_candidates` builds its beams from that program fuzzer and
arity table.  `reference_beam_decode` is the uncached beam search: it re-runs
the full decoder for every hypothesis at every step and pins the KV-cached
`pretrain.beam_decode`;
`reference_list_beam_decode` is that cached search as it was before a step
became array ops, and pins its hypotheses and scores with ==
(`assert_identical_beams`).  The fused
tensorcore ops are pinned against compositions of primitives:
`reference_linear` (matmul, then add), `reference_attention` (one head at a
time), `reference_mha` (built from those two), `reference_layer_norm`
(np.mean / np.var and the textbook backward) and `reference_l2_normalize`
(the composed map's arithmetic in numpy).  `reference_adam_step` is
the out-of-place Adam formula and pins the in-place `tc.Adam.step`.
`reference_alignment_loss` projects and fuses one example at a time from
batch-of-one forwards and pins the padded, batched
`gsformer.alignment_loss`.  `reference_gs_former_forward` is the GS-Former
forward as it was before each layer became one `gsformer.block` call, and
`reference_pretrain_loss` runs it.  The batched losses of every stage are pinned
against sums of batch-of-one calls with `summed_loss_and_grads` and
`assert_grads_close`.  `reference_lm_loss` and `reference_instruction_loss`
compute the logits at every padded position and give the positions no loss
reads weight 0; they pin the losses that run the last block's feed-forward
half and the head only at the positions they read.  `reference_gelu` is the
out-of-place tanh formula and its derivative, and pins the in-place
`tc.gelu` bit for bit.  `reference_backward` is the graph-retaining walk
that `Tensor.backward` was before it consumed the graph, and pins its
gradients bit for bit; `tape_nodes` lists the nodes a backward must
release.  `reference_parse_program`,
`reference_execute_program` and `reference_evaluate_beam` are the parser as it
was before program tokens were shared and the interpreter as it was before it
ran programs for their value alone (a converted copy of the numbers, grown
`V_` slots and a record of every step, per run); they pin the current ones to
the same values, outcomes and errors.  `reference_metrics` computes
each metric by its own walk over the pairs, as `eval_harness` did before
`build_report` computed them all from its rows, and pins that one pass; its
`rank0` metric judges the first candidate itself, and must equal top-1.
`reference_write_report` is the report writer as it was before the rows were
encoded in one C-encoder call (one `json.dumps(indent=2)` over the payload),
and pins the current writer's bytes.
`shared_pool_beams` builds
beams from a small pool of texts reused across problems with different
numbers, as the placeholder programs of real decode output are.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from geoformal import eval_harness as eh
from geoformal import formal_lang as fl
from geoformal import gsformer as gsf
from geoformal import pretrain as pt
from geoformal import solver
from geoformal import tensorcore as tc
from geoformal.formal_lang import OutOfVocabError
from geoformal.gsformer import (AlignedFeatures, SGSState, ffn, gqg_queries, linear, mha,
                                norm, pad_ids, sgs_update_mask)
from geoformal.selfcheck import ARITY, random_program_text
from geoformal.tensorcore import Rng, Tensor


def rel_close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Program parser before the shared tokens and operand memo, and interpreter
# before value-only execution
# ---------------------------------------------------------------------------
# Copies of `formal_lang.parse_program` / `_parse_operand` as they were before
# tokens were shared: every parse builds fresh tokens through four regexes.
# They pin the faster code to the same programs, outcomes, and error classes,
# messages and positions.

_NUMREF_RE = re.compile(r"N_(\d+)$")
_VARREF_RE = re.compile(r"V_(\d+)$")
_CONSTREF_RE = re.compile(r"C_([A-Z][A-Z0-9_]*)$")
_DECIMAL_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def reference_parse_program(text: str) -> fl.SolutionProgram:
    words = text.split()
    tokens: list[fl.ProgramToken] = []
    i = 0
    groups_done = 0
    while i < len(words):
        name = words[i]
        if name not in fl.OPERATOR_ARITIES:
            raise fl.UnknownOperatorError(name, i)
        arity = fl.OPERATOR_ARITIES[name]
        tokens.append(fl.Operator(name))
        operands_got = 0
        for j in range(i + 1, i + 1 + arity):
            if j >= len(words) or words[j] in fl.OPERATOR_ARITIES:
                raise fl.ArityMismatchError(name, arity, operands_got, i)
            tokens.append(_reference_parse_operand(words[j], j, groups_done))
            operands_got += 1
        i += 1 + arity
        groups_done += 1
    return fl.SolutionProgram(tuple(tokens))


def _reference_parse_operand(word: str, position: int, groups_done: int) -> fl.ProgramToken:
    m = _NUMREF_RE.match(word)
    if m:
        return fl.NumRef(int(m.group(1)))
    m = _VARREF_RE.match(word)
    if m:
        index = int(m.group(1))
        if index >= groups_done:
            raise fl.ForwardReferenceError(index, groups_done, position)
        return fl.VarRef(index)
    m = _CONSTREF_RE.match(word)
    if m:
        return fl.ConstRef(m.group(1))
    if _DECIMAL_RE.match(word):
        value = float(word)
        if math.isfinite(value):
            return fl.Literal(value)
    raise fl.ProgramSyntaxError(f"expected operand, got {word!r}", position)


# The interpreter as it was before execution dropped its trace and bindings:
# each run converts the whole number list, grows its own V_ slots and keeps a
# record of every step.  Its constants are its own table.
_REFERENCE_CONSTANTS = {"PI": math.pi}


def _reference_resolve(tok: fl.ProgramToken, n_values: list[float],
                       v_values: list[float]) -> float:
    if isinstance(tok, fl.Literal):
        return tok.value
    if isinstance(tok, fl.NumRef):
        if tok.index >= len(n_values):
            raise solver.UnboundNumRefError(tok.index, len(n_values))
        return n_values[tok.index]
    if isinstance(tok, fl.VarRef):
        if tok.index >= len(v_values):
            # parse_program rejects this; guard against hand-built programs
            raise fl.FormalLangError(f"V_{tok.index} resolved before it was produced")
        return v_values[tok.index]
    if isinstance(tok, fl.ConstRef):
        if tok.name not in _REFERENCE_CONSTANTS:
            raise solver.UnknownConstantError(tok.name)
        return _REFERENCE_CONSTANTS[tok.name]
    raise TypeError(f"operator in operand position: {tok!r}")


def reference_execute_program(
    p: fl.SolutionProgram, numbers: Sequence[float]
) -> list[tuple[str, tuple[float, ...], float]]:
    """Every step of `p` on `numbers` as (operator, operands, result); the
    program's value is the last result."""
    if not p.tokens:
        raise solver.EmptyProgramError()
    n_values = [float(x) for x in numbers]
    v_values: list[float] = []
    steps = []
    for op, operand_toks in p.groups():
        spec = solver._REGISTRY[op.name]
        operands = tuple(_reference_resolve(t, n_values, v_values) for t in operand_toks)
        if spec.domain is not None and not spec.domain(*operands):
            raise solver.DomainError(op.name, operands, spec.domain_reason)
        result = float(spec.fn(*operands))
        if not math.isfinite(result):
            raise solver.DomainError(op.name, operands, "non-finite result")
        v_values.append(result)
        steps.append((op.name, operands, result))
    return steps


def reference_evaluate_beam(candidates, numbers: Sequence[float], gt_answer: float, tol):
    results: list[solver.CandidateResult] = []
    first_executed: int | None = None
    first_correct: int | None = None
    for rank, text in enumerate(candidates):
        try:
            value = reference_execute_program(reference_parse_program(text), numbers)[-1][2]
        except (solver.SolverError, fl.FormalLangError) as exc:
            results.append(solver.CandidateResult(text, False, error=str(exc)))
            continue
        results.append(solver.CandidateResult(text, True, value=value))
        if first_executed is None:
            first_executed = rank
        if first_correct is None and tol.passes(value, gt_answer):
            first_correct = rank
    return solver.BeamOutcome(tuple(results), first_executed, first_correct)


# The metrics as one function each, every one walking the pairs again; the
# rank-0 metric judges the first candidate itself with `tol`.

def _reference_top_k(outcomes, k: int) -> float:
    if not outcomes:
        raise eh.EmptyReportError()
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = sum(
        1 for o in outcomes
        if o.rank_of_first_correct is not None and o.rank_of_first_correct < k
    )
    return hits / len(outcomes)


def _reference_rank0(pairs, tol) -> float:
    """Rank-0 candidate must execute and match the answer."""
    if not pairs:
        raise eh.EmptyReportError()
    hits = 0
    for problem, outcome in pairs:
        if not outcome.candidates:
            continue
        first = outcome.candidates[0]
        if first.executed and tol.passes(first.value, problem.answer):
            hits += 1
    return hits / len(pairs)


def _reference_correct_option(problem) -> int:
    return solver.resolve_choice(problem.answer, problem.choices)


def _reference_chosen_option(problem, outcome) -> int | None:
    """Option picked by the first executable candidate, if any."""
    if outcome.rank_of_first_executed is None:
        return None
    value = outcome.candidates[outcome.rank_of_first_executed].value
    return solver.resolve_choice(value, problem.choices)


def _reference_require_choices(pairs) -> None:
    for problem, _ in pairs:
        if problem.choices is None or len(problem.choices) != 4:
            raise ValueError(f"problem {problem.id} has no 4-option choices")


def _reference_choice(pairs) -> float:
    """Problems whose first executable candidate resolves to the correct
    option; problems with no executable candidate count as incorrect."""
    if not pairs:
        raise eh.EmptyReportError()
    _reference_require_choices(pairs)
    hits = 0
    for problem, outcome in pairs:
        chosen = _reference_chosen_option(problem, outcome)
        if chosen is not None and chosen == _reference_correct_option(problem):
            hits += 1
    return hits / len(pairs)


def _reference_adjusted(pairs) -> float:
    """Raw top-1 plus 0.25 x the fraction of problems with no executable
    candidate (chance level on four options)."""
    if not pairs:
        raise eh.EmptyReportError()
    _reference_require_choices(pairs)
    outcomes = [o for _, o in pairs]
    raw_top1 = _reference_top_k(outcomes, 1)
    unexecutable = sum(
        1 for o in outcomes if o.rank_of_first_executed is None
    ) / len(outcomes)
    return raw_top1 + 0.25 * unexecutable


def reference_metrics(pairs, tol) -> dict:
    """Every metric of `pairs` by its own walk: `top1`, `top3`, `top10`,
    `rank0` (the rank-0 candidate judged with `tol`), and `choice` and
    `adjusted_top1`, None unless every problem has four options."""
    outcomes = [o for _, o in pairs]
    has_choices = all(
        p.choices is not None and len(p.choices) == 4 for p, _ in pairs
    )
    return {
        "top1": _reference_top_k(outcomes, 1),
        "top3": _reference_top_k(outcomes, 3),
        "top10": _reference_top_k(outcomes, 10),
        "rank0": _reference_rank0(pairs, tol),
        "choice": _reference_choice(pairs) if has_choices else None,
        "adjusted_top1": _reference_adjusted(pairs) if has_choices else None,
    }


def reference_write_report(report: eh.EvaluationReport, path) -> None:
    # rows have slots now, so `asdict` stands for the former `vars`
    payload = {
        "schema": eh.REPORT_SCHEMA,
        "n_problems": report.n_problems,
        "metrics": {name: getattr(report, name) for name in eh.METRICS},
        "rows": [asdict(row) for row in report.rows],
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )


_BENCH_LITERALS = ("180.0", "180", "1800.0", "90.0", "2.0", "0.5", "0.0", "1e999")
_BENCH_MALFORMED = ("180.0.0.0", "0.00.0", "80.0.0.0.", "1.8.0", "1e", "--1", "N_", "V_x")


def bench_style_candidates(rng: random.Random, n_numbers: int) -> list[str]:
    """A 10-candidate beam in the shape a trained decoder's lower ranks take:
    a gold program, then that program with arity cuts, stray operands,
    malformed decimals, forward V_ references, unknown operators, overflowing
    literals, or a whole extra group appended."""
    gold = random_program_text(rng, max_groups=3, n_numbers=n_numbers)
    n_groups = sum(1 for word in gold.split() if word in ARITY)

    def operand() -> str:
        kind = rng.randrange(4)
        if kind == 0:
            return f"N_{rng.randrange(n_numbers + 1)}"
        if kind == 1:
            return f"V_{rng.randrange(n_groups + 2)}"  # may point forward
        if kind == 2:
            return "C_PI"
        return rng.choice(_BENCH_LITERALS)

    beam = [gold]
    ops = sorted(ARITY)
    for _ in range(9):
        words = gold.split()
        flaw = rng.randrange(6)
        op = rng.choice(ops)
        if flaw == 0:  # whole group
            words += [op] + [operand() for _ in range(ARITY[op])]
        elif flaw == 1:  # arity cut short
            words += [op] + [operand() for _ in range(ARITY[op] - 1)]
        elif flaw == 2:  # operands where an operator belongs
            words += [operand() for _ in range(rng.randint(1, 2))]
        elif flaw == 3:  # malformed operand
            words += [op, rng.choice(_BENCH_MALFORMED)]
        elif flaw == 4:  # unknown operator
            words += [rng.choice(("g_nosuch", "Line", "180.0.0.0")), operand()]
        else:  # truncated anywhere
            words = words[: rng.randrange(len(words) + 1)]
        beam.append(" ".join(words))
    return beam


# Texts whose outcome depends on the problem's numbers (N_2 is unbound with
# two numbers; the division fails when N_0 == N_1) or on nothing (an arity
# cut that never parses).
SHARED_POOL_TEXTS = ("g_equal N_2", "g_minus N_0 N_1 g_divide N_0 V_0", "g_add N_0")


def shared_pool_beams(problems, seed: int, beam: int = 10) -> dict[str, list[str]]:
    """Beams drawn with replacement from one small pool of texts, so a text
    recurs across problems and within a beam as placeholder programs do in
    decode output; each problem's `gt_program` goes in at a random rank."""
    rng = random.Random(seed)
    pool = [text for _ in range(3) for text in bench_style_candidates(rng, n_numbers=2)]
    pool += SHARED_POOL_TEXTS
    beams = {}
    for rec in problems:
        texts = rng.choices(pool, k=beam - 1)
        texts.insert(rng.randrange(beam), rec.gt_program)
        beams[rec.id] = texts
    return beams


# ---------------------------------------------------------------------------
# Uncached beam search (reference for the KV-cached decoder)
# ---------------------------------------------------------------------------

def reference_beam_decode(params, cfg, t_g, t_p, beam=10, max_len=24, eos_id=2):
    """Length-normalized beam search with one full `decoder_forward` over
    [t_g || t_p || partial program] per live hypothesis per step."""
    if beam < 1:
        raise ValueError("beam must be >= 1")
    instr = list(t_p)
    live: list[tuple[list[int], float]] = [([], 0.0)]
    finished: list[tuple[list[int], float]] = []
    with tc.no_grad():
        for _ in range(max_len):
            if not live:
                break
            expansions: list[tuple[list[int], float]] = []
            for tokens, score in live:
                logits = pt.decoder_forward(params, cfg, [instr + tokens],
                                            prefix_embeds=t_g)
                row = logits.data[0, -1]
                shifted = row - row.max()
                logp = shifted - np.log(np.exp(shifted).sum())
                top = np.argsort(-logp, kind="stable")[:beam]
                for token_id in top:
                    expansions.append(
                        (tokens + [int(token_id)], score + float(logp[token_id]))
                    )
            expansions.sort(key=lambda e: -e[1])
            live = []
            for tokens, score in expansions:
                if tokens[-1] == eos_id:
                    finished.append((tokens, score))
                elif len(live) < beam:
                    live.append((tokens, score))
    pool = finished + live
    hypotheses = [
        pt.BeamHypothesis(tuple(tokens), score, score / max(1, len(tokens)))
        for tokens, score in pool
    ]
    hypotheses.sort(key=lambda h: -h.normalized)
    return hypotheses[:beam]


def reference_list_beam_decode(params, cfg, t_g, t_p, beam=10, max_len=24, eos_id=2):
    """`pretrain.beam_decode` as it was before a step became array ops: the
    KV-cached search with live hypotheses as (token list, score) pairs and one
    (tokens, score, parent) tuple per expansion, sorted by a stable list sort."""
    if beam < 1:
        raise ValueError("beam must be >= 1")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    cache = [pt.KVCache(beam, max_len) for _ in range(cfg.n_layers)]
    live: list[tuple[list[int], float]] = [([], 0.0)]
    finished: list[tuple[list[int], float]] = []
    with tc.no_grad():
        for step in range(max_len):
            if not live:
                break
            if step == 0:
                logits = pt.decoder_forward(params, cfg, [list(t_p)], t_g, cache).data[0, -1:]
            else:
                last = [[tokens[-1]] for tokens, _ in live]
                logits = pt.decoder_forward(params, cfg, last, cache=cache).data[:, -1]
            logp = tc._log_softmax(logits)
            top = np.argsort(-logp, axis=1, kind="stable")[:, :beam]
            expansions = [
                (tokens + [int(t)], score + float(logp[parent, t]), parent)
                for parent, (tokens, score) in enumerate(live) for t in top[parent]
            ]
            expansions.sort(key=lambda e: -e[1])
            live, parents = [], []
            for tokens, score, parent in expansions:
                if tokens[-1] == eos_id:
                    finished.append((tokens, score))
                elif len(live) < beam:
                    live.append((tokens, score))
                    parents.append(parent)
            for layer in cache:
                layer.reorder(parents)
    pool = finished + live
    hypotheses = [
        pt.BeamHypothesis(tuple(tokens), score, score / max(1, len(tokens)))
        for tokens, score in pool
    ]
    hypotheses.sort(key=lambda h: -h.normalized)
    return hypotheses[:beam]


def assert_identical_beams(got, want) -> None:
    """Identical hypotheses, scores compared with ==; token ids Python ints."""
    assert got == want
    assert all(type(t) is int for h in got for t in h.token_ids)


def assert_same_beams(cached, reference, tol: float = 1e-9) -> None:
    """Identical token ids in identical order; scores within `tol`."""
    assert [h.token_ids for h in cached] == [h.token_ids for h in reference]
    for a, b in zip(cached, reference):
        assert abs(a.log_prob - b.log_prob) <= tol
        assert abs(a.normalized - b.normalized) <= tol


# ---------------------------------------------------------------------------
# Per-head attention and per-row alignment losses
# ---------------------------------------------------------------------------

def reference_linear(params, name, x):
    """x @ w + b composed from `tc.matmul` and `tc.add` (two tape nodes)."""
    return tc.add(tc.matmul(x, params[f"{name}_w"]), params[f"{name}_b"])


def reference_attention(q, k, v, mask=None, heads=1):
    """Attention composed one head at a time from narrow, transpose, matmul,
    scale, softmax or masked softmax and matmul; the heads' outputs are
    concatenated.  With more than one head the mask is given against the
    (..., heads, n_q, n) logits and each head takes its own slice of it."""
    dh, dvh = q.shape[-1] // heads, v.shape[-1] // heads
    outs = []
    for h in range(heads):
        logits = tc.mul(
            tc.matmul(tc.narrow(q, -1, h * dh, dh),
                      tc.transpose(tc.narrow(k, -1, h * dh, dh))),
            Tensor(1.0 / math.sqrt(dh)))
        head_mask = mask
        if mask is not None and heads > 1 and mask.ndim >= 3:
            if mask.shape[-3] > 1:
                head_mask = tc.narrow(mask, -3, h, 1)
            head_mask = tc.reshape(head_mask, mask.shape[:-3] + mask.shape[-2:])
        if mask is None:
            probs = tc.softmax(logits, axis=-1)
        else:
            probs = tc.masked_softmax(logits, head_mask)
        outs.append(tc.matmul(probs, tc.narrow(v, -1, h * dvh, dvh)))
    return tc.concat(outs, axis=-1)


def reference_mha(params, prefix, x_q, x_kv, n_heads, mask):
    """Multi-head attention from composed projections (the keys' without a
    bias) and the per-head `reference_attention`."""
    q = reference_linear(params, f"{prefix}q", x_q)
    k = tc.matmul(x_kv, params[f"{prefix}k_w"])
    v = reference_linear(params, f"{prefix}v", x_kv)
    return reference_linear(params, f"{prefix}o",
                            reference_attention(q, k, v, mask, n_heads))


def reference_layer_norm(x, gain, bias, go, eps=1e-5):
    """Layer norm's output and its (x, gain, bias) gradients for the output
    gradient go, from np.mean / np.var and the textbook backward formula."""
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    xhat = (x - mu) * inv
    lead = tuple(range(x.ndim - 1))
    d_xhat = go * gain
    d_x = (d_xhat - d_xhat.mean(axis=-1, keepdims=True)
           - xhat * (d_xhat * xhat).mean(axis=-1, keepdims=True)) * inv
    return xhat * gain + bias, d_x, (go * xhat).sum(axis=lead), go.sum(axis=lead)


def reference_gelu(x, go):
    """GELU's output and its gradient for the output gradient go, out of
    place, as `tc.gelu`'s comments state them: t = tanh(C (x + 0.044715 x^3)),
    0.5 x (1 + t) and 0.5 (1 + t) + 0.5 x (1 - t^2) C (1 + 3 * 0.044715 x^2),
    each product grouped as `tc.gelu` groups it."""
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * (x * x * x)))
    local = 0.5 * (1.0 + t + x * ((1.0 - t * t) * (c * (1.0 + 3 * 0.044715 * (x * x)))))
    return 0.5 * (x * (1.0 + t)), local * go


def reference_l2_normalize(x, go, eps=1e-12):
    """x / n over the last axis, n = (sum x^2 + eps) ** 0.5, and its gradient
    for the output gradient go, in the order of the composed mul, sum, add,
    power and divide: the divide's gradient go / n, then twice g * x, where g
    broadcasts the power's d_n * 0.5 * s ** -0.5 and the sum's d_n is
    sum(-go * x / (n * n))."""
    s = np.sum(x * x, axis=-1, keepdims=True) + eps
    n = s ** 0.5
    d_n = np.sum(-go * x / (n * n), axis=-1, keepdims=True)
    g = np.broadcast_to(d_n * 0.5 * s ** -0.5, x.shape)
    return x / n, (go / n + g * x) + g * x


def reference_adam_step(p, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """(p, m, v) after Adam step t (counted from 1) for gradient g, each a
    fresh array computed out of place."""
    m = m * b1 + (1.0 - b1) * g
    v = v * b2 + (1.0 - b2) * (g * g)
    step = lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
    return p - step, m, v


def reference_alignment_loss(features, caption_logits, caption_targets, params):
    """(contrast, match, caption) from per-example batch-of-one forwards:
    every projection, normalization and fused match row is built from one
    example's 1-D rows, and each caption's loss rows are cut from its own
    unpadded (1, L_i, V) logits."""
    batch = len(features)
    pooled = [tc.reshape(tc.mean_pool(f.f_g, axis=-2), (-1,)) for f in features]
    text = [tc.reshape(f.text_cls, (-1,)) for f in features]

    def stack(rows):
        return tc.concat([tc.reshape(row, (1, -1)) for row in rows], axis=0)

    def project(name, rows):
        out = []
        for row in rows:
            flat = tc.reshape(
                reference_linear(params, name, tc.reshape(row, (1, -1))), (-1,))
            out.append(tc.l2_normalize(flat))
        return stack(out)

    g_mat = project("vis_proj", pooled)
    t_mat = project("txt_proj", text)
    sim = tc.mul(tc.matmul(g_mat, tc.transpose(t_mat)), tc.exp(params["log_scale"]))
    diag = list(range(batch))
    l_contrast = tc.mul(
        tc.add(tc.cross_entropy(sim, diag), tc.cross_entropy(tc.transpose(sim), diag)),
        Tensor(0.5))
    fused = [tc.concat([pooled[i], text[i]], axis=0) for i in range(batch)]
    fused += [tc.concat([pooled[i], text[(i + 1) % batch]], axis=0)
              for i in range(batch)]
    hidden = tc.gelu(reference_linear(params, "match1", stack(fused)))
    l_match = tc.cross_entropy(reference_linear(params, "match2", hidden),
                               [1] * batch + [0] * batch)
    rows, targets = [], []
    for logits, ids in zip(caption_logits, caption_targets):
        flat = tc.reshape(logits, logits.shape[1:])
        rows.append(tc.narrow(flat, 0, 0, len(ids) - 1))
        targets.extend(ids[1:])
    l_caption = tc.cross_entropy(tc.concat(rows, axis=0), targets)
    return l_contrast, l_match, l_caption


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------

def tape_nodes(root: Tensor) -> list[Tensor]:
    """Every node with rules that `root` reaches, read before its backward."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node._parents:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(parent for parent, _ in node._parents)
    return nodes


def reference_backward(root: Tensor) -> None:
    """`Tensor.backward` as it was before backward consumed the graph: the
    same walk and the same arithmetic in the same order, but every node keeps
    its rules and its `.grad`, so the whole tape lives until it is dropped."""
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        for parent, rule in node._parents:
            g = tc._unbroadcast(rule(node.grad), parent.shape)
            parent.grad = g if parent.grad is None else parent.grad + g


# ---------------------------------------------------------------------------
# Batched losses against batch-of-one calls
# ---------------------------------------------------------------------------

def loss_and_grads(params, loss_fn):
    """(loss value, {name: gradient}) of one backward pass of `loss_fn()`."""
    for p in params.values():
        p.grad = None
    loss = loss_fn()
    loss.backward()
    return loss.item(), {k: p.grad.copy() for k, p in params.items()
                         if p.grad is not None}


def summed_loss_and_grads(params, loss_fns, scale=1.0):
    """Loss and gradients of `scale * sum(fn() for fn in loss_fns)`, each
    term backpropagated on its own."""
    total, grads = 0.0, {}
    for fn in loss_fns:
        value, part = loss_and_grads(params, fn)
        total += value * scale
        for name, g in part.items():
            grads[name] = grads.get(name, 0.0) + g * scale
    return total, grads


def assert_grads_close(got, want, rel=1e-12):
    """Same parameters receive a gradient; every difference is within `rel`
    of the largest gradient entry of its own parameter."""
    assert got.keys() == want.keys()
    for name in want:
        scale = float(np.abs(want[name]).max())
        assert np.abs(got[name] - want[name]).max() <= rel * scale, name


def reference_lm_loss(params, cfg, sequences):
    """`pretrain.lm_loss` with logits at every padded position and a
    zero-weighted cross entropy over the (B, T) grid."""
    ids, n = gsf.pad_ids([seq[:-1] for seq in sequences])
    targets, _ = gsf.pad_ids([seq[1:] for seq in sequences])
    weights = (np.arange(ids.shape[1]) < n[:, None]) / (len(sequences) * n[:, None])
    return tc.cross_entropy(pt.decoder_forward(params, cfg, ids), targets, weights,
                            reduction="sum")


def reference_instruction_loss(params, cfg, t_g, t_p, s):
    """`pretrain.instruction_loss` with logits at every position of the
    padded [t_g || t_p || s] block and a cross entropy over the (B, P + T)
    grid that gives weight 1 to the target spans and 0 elsewhere."""
    n_visual = t_g.shape[1]
    ids, _ = gsf.pad_ids([list(instr) + list(target)[:-1]
                          for instr, target in zip(t_p, s)])
    logits = pt.decoder_forward(params, cfg, ids, prefix_embeds=t_g)
    targets = np.zeros(logits.shape[:-1], dtype=np.int64)
    weights = np.zeros(logits.shape[:-1])
    for row, (instr, target) in enumerate(zip(t_p, s)):
        start = n_visual + len(instr) - 1
        targets[row, start:start + len(target)] = target
        weights[row, start:start + len(target)] = 1.0
    return tc.cross_entropy(logits, targets, weights, reduction="sum")


def reference_gs_former_forward(
    patches: Tensor,
    captions: Sequence[Sequence[int]],
    cfg: gsf.GSFormerConfig,
    params: dict[str, Tensor],
    rngs: Sequence[Rng] | None,
    hard: bool = False,
) -> tuple[AlignedFeatures, SGSState, Tensor | None]:
    """`gsformer.gs_former_forward` as it was before each layer became one
    `gsformer.block` call over [queries || caption]: the layer inlined, with
    two self-attention calls that share weights (the queries over the queries,
    the caption over [queries || caption]), cross-attention on the queries and
    two feed-forward calls that share weights.

    Full forward pass over a batch: (B, N, d_in) patches, one caption id
    list per example and one Rng per example (None: noise-free).

    Empty captions run the caption-free path (text_cls and caption logits
    are None); the query outputs are identical either way.  Returns f_g
    (B, n_queries, d), text_cls (B, d) and (B, L, V) caption logits, L the
    longest caption.
    """
    if (patches.ndim != 3 or patches.shape[-1] != cfg.d_in
            or patches.shape[1] > cfg.n_patches):
        raise tc.ShapeMismatchError("gs_former_forward patches", patches.shape,
                                    (-1, cfg.n_patches, cfg.d_in))
    batch, n_patches = patches.shape[:2]
    ids, lengths = pad_ids(captions)
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise OutOfVocabError(f"<caption id outside 0..{cfg.vocab_size - 1}>")
    n_cap = ids.shape[1]
    if n_cap > cfg.max_caption_len:
        raise tc.ShapeMismatchError("caption too long", (n_cap,),
                                    (cfg.max_caption_len,))
    if n_cap and not lengths.all():
        raise ValueError("a batch mixes captioned and caption-free examples")

    pf = tc.add(linear(params, "patch_proj", patches),
                tc.narrow(params["pos_patch"], 0, 0, n_patches))
    pf = norm(params, "ln_pf", pf)

    xq = gqg_queries(pf, params["queries"], params)
    if n_cap:
        xc = tc.add(tc.embedding_lookup(params["tok_emb"], ids),
                    tc.narrow(params["pos_caption"], 0, 0, n_cap))
        # caption position l sees every query plus caption positions <= l
        cap_mask = Tensor(np.hstack([np.ones((n_cap, cfg.n_queries)),
                                     np.tril(np.ones((n_cap, n_cap)))]))

    masks = [tc.ones((batch, n_patches))]
    for i in range(cfg.n_layers):
        if i in cfg.sgs_layers:
            stage_rngs = None if rngs is None else [r.split(f"sgs{i}") for r in rngs]
            masks.append(sgs_update_mask(
                masks[-1], pf, params[f"sgs{i}_w"], params[f"sgs{i}_b"],
                cfg.tau, hard, stage_rngs,
            ))
        # shared self-attention block (queries see queries; captions see
        # queries plus earlier captions)
        h_q = norm(params, f"layer{i}.ln1", xq)
        xq = tc.add(xq, mha(params, f"layer{i}.sa_", h_q, h_q, cfg.n_heads, None))
        if n_cap:
            h_c = norm(params, f"layer{i}.ln1", xc)
            keys = tc.concat([h_q, h_c], axis=-2)
            xc = tc.add(xc, mha(params, f"layer{i}.sa_", h_c, keys,
                                cfg.n_heads, cap_mask))
        # cross-attention from queries to patches gated by each example's
        # mask; stage 0's all-ones mask gates nothing, so it is left out
        key_mask = (tc.reshape(masks[-1], (batch, 1, 1, n_patches))
                    if len(masks) > 1 else None)
        cross = mha(params, f"layer{i}.ca_",
                    norm(params, f"layer{i}.ln2", xq), pf, cfg.n_heads, key_mask)
        xq = tc.add(xq, cross)
        xq = tc.add(xq, ffn(params, f"layer{i}.ffn", norm(params, f"layer{i}.ln3", xq)))
        if n_cap:
            xc = tc.add(xc, ffn(params, f"layer{i}.ffn", norm(params, f"layer{i}.ln3", xc)))

    f_g = norm(params, "ln_out", xq)
    if not n_cap:
        return AlignedFeatures(f_g, None), SGSState(masks), None
    cap_states = norm(params, "ln_out", xc)
    caption_logits = tc.linear(cap_states, tc.transpose(params["tok_emb"]),
                               params["cap_head_b"])
    # length-masked mean: pads get weight 0
    live = np.arange(n_cap) < lengths[:, None]
    text_cls = tc.tsum(tc.mul(cap_states, Tensor((live / lengths[:, None])[..., None])),
                       axis=-2)
    return AlignedFeatures(f_g, text_cls), SGSState(masks), caption_logits


def reference_pretrain_loss(patches, captions, cfg, params, rng):
    """`gsformer.pretrain_loss` with one forward per example (a batch of one,
    its own `sample{i}` noise), per-row alignment losses and the mean of the
    per-example sparsification losses; returns the total loss tensor."""
    feats, logits = [], []
    spr = []
    for i, ids in enumerate(captions):
        f, state, cap_logits = reference_gs_former_forward(
            tc.narrow(patches, 0, i, 1), [ids], cfg, params,
            [rng.split(f"sample{i}")])
        feats.append(f)
        logits.append(cap_logits)
        spr.append(gsf.sparsification_loss(state))
    l_contrast, l_match, l_caption = reference_alignment_loss(
        feats, logits, captions, params)
    w_c, w_m, w_cap = cfg.align_weights
    l_align = tc.add(
        tc.add(tc.mul(l_contrast, Tensor(w_c)), tc.mul(l_match, Tensor(w_m))),
        tc.mul(l_caption, Tensor(w_cap)))
    l_spr = tc.mul(tc.tsum(tc.concat([tc.reshape(t, (1,)) for t in spr])),
                   Tensor(1.0 / len(spr)))
    return tc.add(l_align, tc.mul(l_spr, Tensor(cfg.lam)))
