"""One-command verification suites behind `selftest` and `gradcheck`.

selftest runs every module's invariants on seeded fuzz; gradcheck audits each
differentiable op against central finite differences and probes random
coordinates of the full pretraining and instruction-tuning loss graphs.  Both are deterministic under
the seed and keep their output free of paths and timestamps so two runs are
byte-identical.

The program evaluator used as the solver oracle here is an independent
recursion over the token stream (V_ references re-evaluate their group), not
the interpreter's sequential slot machine.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import diagram_synth as ds
from . import eval_harness as eh
from . import formal_lang as fl
from . import gsformer as gsf
from . import pretrain as pt
from . import solver
from . import tensorcore as tc
from . import train as tr
from .tensorcore import Rng, Tensor

GRAD_TOL = 1e-3


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-4)
    return float((np.abs(a - b) / scale).max()) if a.size else 0.0


# ---------------------------------------------------------------------------
# Independent recursive program evaluator (oracle for the interpreter)
# ---------------------------------------------------------------------------

def recursive_eval(program_text: str, numbers: list[float]) -> float:
    arity = solver.operator_arities()
    semantics = {spec.name: spec.fn for spec in solver.operator_table()}
    words = program_text.split()
    groups: list[tuple[str, list[str]]] = []
    i = 0
    while i < len(words):
        op = words[i]
        k = arity[op]
        groups.append((op, words[i + 1 : i + 1 + k]))
        i += 1 + k

    def group_value(g: int) -> float:
        op, operands = groups[g]
        return semantics[op](*(operand_value(w) for w in operands))

    def operand_value(w: str) -> float:
        if w.startswith("N_"):
            return numbers[int(w[2:])]
        if w.startswith("V_"):
            return group_value(int(w[2:]))
        if w.startswith("C_"):
            return solver.CONSTANTS[w[2:]]
        return float(w)

    return group_value(len(groups) - 1)


# ---------------------------------------------------------------------------
# Fuzz generators
# ---------------------------------------------------------------------------

_LABELS = list("ABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _random_caption(rng: Rng) -> str:
    lines = []
    for _ in range(rng.integers(0, 5)):
        pool = _LABELS[:]
        order = rng.permutation(len(pool))
        pool = [pool[i] for i in order]
        if rng.uniform(()) < 0.5:
            k = rng.integers(2, 6)
            lines.append("Line " + " ".join(pool[:k]))
        else:
            k = rng.integers(1, 5)
            lines.append(f"\\odot {pool[0]} lieson " + " ".join(pool[1 : 1 + k]))
    return "\n".join(lines)


def _random_program(rng: Rng, n_numbers: int = 3, max_groups: int = 4) -> str:
    names = [spec.name for spec in solver.operator_table()]
    arity = solver.operator_arities()
    words: list[str] = []
    n_groups = rng.integers(1, max_groups + 1)
    for g in range(n_groups):
        op = names[rng.integers(0, len(names))]
        words.append(op)
        for _ in range(arity[op]):
            kind = rng.integers(0, 3 if g else 2)
            if kind == 0:
                words.append(repr(round(0.5 + float(rng.uniform(())) * 19.5, 3)))
            elif kind == 1:
                words.append(f"N_{rng.integers(0, n_numbers)}")
            else:
                words.append(f"V_{rng.integers(0, g)}")
    return " ".join(words)


def _random_bytes(rng: Rng) -> str:
    n = rng.integers(0, 60)
    return bytes(int(b) for b in rng.integers(0, 256, (n,))).decode("latin-1")


# ---------------------------------------------------------------------------
# selftest checks
# ---------------------------------------------------------------------------

def _check_caption_roundtrip(rng: Rng) -> tuple[bool, str]:
    for i in range(500):
        text = _random_caption(rng.split(str(i)))
        caption = fl.parse_caption(text)
        if fl.format_caption(caption) != text:
            return False, f"format(parse) changed text at case {i}"
        if fl.parse_caption(fl.format_caption(caption)) != caption:
            return False, f"parse(format) changed structure at case {i}"
    return True, "500 captions round-tripped"


def _check_program_roundtrip(rng: Rng) -> tuple[bool, str]:
    for i in range(500):
        text = _random_program(rng.split(str(i)))
        program = fl.parse_program(text)
        if fl.format_program(program) != text:
            return False, f"format(parse) changed text at case {i}"
        if fl.parse_program(fl.format_program(program)) != program:
            return False, f"parse(format) changed structure at case {i}"
    return True, "500 programs round-tripped"


def _check_no_crash_on_bytes(rng: Rng) -> tuple[bool, str]:
    for i in range(500):
        text = _random_bytes(rng.split(str(i)))
        for parse in (fl.parse_caption, fl.parse_program):
            try:
                parse(text)
            except fl.FormalLangError:
                pass
    return True, "500 arbitrary strings parsed or rejected cleanly"


def _check_vocab_bijective(rng: Rng) -> tuple[bool, str]:
    vocab = fl.build_default_vocab()
    for i in range(len(vocab)):
        if vocab.id_of(vocab.token_of(i)) != i:
            return False, f"id {i} does not round-trip"
    return True, f"{len(vocab)} tokens bijective"


def _check_solver_oracle(rng: Rng) -> tuple[bool, str]:
    checked = 0
    case = 0
    while checked < 300:
        case += 1
        text = _random_program(rng.split(str(case)))
        numbers = [round(0.5 + float(v) * 19.5, 3) for v in rng.split(f"n{case}").uniform((3,))]
        try:
            got = solver.execute_program(fl.parse_program(text), numbers)
        except solver.SolverError:
            continue
        want = recursive_eval(text, numbers)
        if abs(got - want) > 1e-9 * max(1.0, abs(got), abs(want)):
            return False, f"mismatch on {text!r}"
        checked += 1
    return True, "300 programs matched the recursive oracle"


def _check_pythagoras_exact(rng: Rng) -> tuple[bool, str]:
    result = solver.execute_program(fl.parse_program("gougu_add 3.0 4.0"), [])
    ok = abs(result - 5.0) <= 1e-12
    return ok, f"gougu_add 3 4 = {result}"


def _check_operator_algebra(rng: Rng) -> tuple[bool, str]:
    for i in range(100):
        r = rng.split(str(i))
        a = 0.1 + float(r.uniform(())) * 20
        b = 0.1 + float(r.uniform(())) * 20
        run = lambda text: solver.execute_program(fl.parse_program(text), [])
        if run(f"g_minus {a!r} {b!r}") != run(f"g_minus {b!r} {a!r}"):
            return False, "g_minus not symmetric"
        hyp = run(f"gougu_add {a!r} {b!r}")
        back = run(f"gougu_minus {hyp!r} {b!r}")
        if abs(back - a) > 1e-9 * max(1.0, a):
            return False, "gougu inverse failed"
    return True, "symmetry and inverse held on 100 draws"


def _check_softmax_rows(rng: Rng) -> tuple[bool, str]:
    x = Tensor(rng.normal((50, 9), std=4.0))
    out = tc.softmax(x, axis=-1).data
    ok = bool(np.all(np.abs(out.sum(axis=-1) - 1.0) <= 1e-12) and np.all(out > 0))
    return ok, "softmax rows sum to 1 and stay positive"


def _check_gumbel(rng: Rng) -> tuple[bool, str]:
    hard = tc.gumbel_softmax(Tensor(rng.normal((200, 3))), 0.8, True, rng.split("h"))
    if not (np.all(np.isin(hard.data, (0.0, 1.0)))
            and np.all(hard.data.sum(axis=-1) == 1.0)):
        return False, "hard samples not one-hot"
    flat = tc.gumbel_softmax(tc.zeros((2000, 2)), 1.0, True, rng.split("u"))
    rate = float(flat.data[:, 0].mean())
    if abs(rate - 0.5) > 0.05:
        return False, f"uniform keep rate {rate}"
    return True, f"one-hot rows; uniform keep rate {rate:.3f}"


def _check_sgs_laws(rng: Rng) -> tuple[bool, str]:
    for i in range(200):
        r = rng.split(str(i))
        prev = Tensor((r.uniform((8,)) > 0.3).astype(float))
        w = Tensor(r.normal((4, 2), std=0.5))
        b = Tensor(r.normal((2,), std=0.5))
        mask = gsf.sgs_update_mask(
            prev, Tensor(r.normal((8, 4))), w, b, 1.0, True, r.split("g")
        )
        if not np.all(np.isin(mask.data, (0.0, 1.0))):
            return False, "hard mask not binary"
        if not np.all(mask.data <= prev.data):
            return False, "mask grew"
    return True, "200 random states monotone and binary"


def _check_sparsification(rng: Rng) -> tuple[bool, str]:
    ones = gsf.sparsification_loss(gsf.SGSState([tc.ones((5,)), tc.ones((5,))]))
    zero = gsf.sparsification_loss(gsf.SGSState([tc.zeros((5,)), tc.zeros((5,))]))
    hand = gsf.sparsification_loss(gsf.SGSState(
        [Tensor([1.0, 1.0, 0.0, 0.0]), Tensor([1.0, 0.0, 0.0, 0.0])]
    ))
    ok = ones.item() == 1.0 and zero.item() == 0.0 and hand.item() == 3.0 / 8.0
    return ok, f"fixtures gave {ones.item()}, {zero.item()}, {hand.item()}"


def _tiny_cfg() -> gsf.GSFormerConfig:
    return gsf.GSFormerConfig(
        n_layers=2, n_queries=3, d_model=8, n_heads=2, d_in=6, n_patches=8,
        vocab_size=20, max_caption_len=8, embed_dim=4, sgs_layers=(1,),
    )


def _tiny_batch(cfg, rng, size=2):
    """(B, N, d_in) patches and captions of different lengths (4, 5, ...)."""
    patches, captions = [], []
    for i in range(size):
        r = rng.split(str(i))
        patches.append(r.normal((cfg.n_patches, cfg.d_in)))
        captions.append([fl.BOS_ID]
                        + [int(t) for t in r.integers(4, cfg.vocab_size, (3 + i,))])
    return Tensor(np.stack(patches)), captions


def _check_lambda_linearity(rng: Rng) -> tuple[bool, str]:
    cfg = _tiny_cfg()
    params = gsf.init_params(cfg, rng.split("p"))
    patches, captions = _tiny_batch(cfg, rng.split("b"))
    for i in range(10):
        lam = float(rng.split(f"l{i}").uniform(())) * 3.0
        out = gsf.pretrain_loss(patches, captions, replace(cfg, lam=lam), params,
                                Rng(7))
        if out.l_total != out.l_align + lam * out.l_spr:
            return False, f"linearity broke at lambda={lam}"
    return True, "10 random lambdas exact"


def _check_attention_degenerate(rng: Rng) -> tuple[bool, str]:
    out = tc.attention(
        Tensor(rng.normal((3, 4))), Tensor(rng.normal((5, 4))),
        Tensor(rng.normal((5, 2))), tc.zeros((5,)),
    )
    ok = bool(np.all(out.data == 0.0))
    return ok, "all-masked attention returned zeros"


def _check_mae_contract(rng: Rng) -> tuple[bool, str]:
    patches = Tensor(rng.normal((8, 4)))
    batch = pt.mae_mask(patches, 0.5, rng.split("m"))
    again = pt.mae_mask(patches, 0.5, rng.split("m"))
    if not np.array_equal(batch.masked, again.masked):
        return False, "mask not deterministic under seed"
    recon = Tensor(rng.normal((8, 4)))
    base = pt.mae_loss(recon, patches, batch).item()
    noisy = recon.data + 5.0 * (1.0 - batch.masked)
    if pt.mae_loss(Tensor(noisy), patches, batch).item() != base:
        return False, "visible perturbation changed the loss"
    return True, "deterministic mask; visible-only perturbation invisible"


def _check_beam_greedy(rng: Rng) -> tuple[bool, str]:
    cfg = pt.DecoderConfig(n_layers=1, d_lm=16, n_heads=2, vocab_size=12,
                           max_len=20)
    params = pt.init_decoder_params(cfg, rng.split("d"))
    t_p = [int(t) for t in rng.integers(3, 12, (3,))]
    greedy: list[int] = []
    with tc.no_grad():
        for _ in range(6):
            logits = pt.decoder_forward(params, cfg, [t_p + greedy])
            nxt = int(np.argmax(logits.data[0, -1]))
            greedy.append(nxt)
            if nxt == fl.EOS_ID:
                break
    top = pt.beam_decode(params, cfg, None, t_p, beam=1, max_len=6)[0]
    ok = list(top.token_ids) == greedy
    return ok, "beam=1 equals greedy decoding"


def _check_metric_laws(rng: Rng) -> tuple[bool, str]:
    # 8 problems correct at rank 0, 4 with nothing executable, 4 executed but
    # wrong: every fraction is dyadic, so the adjusted identity is exact
    tol = eh.Tolerance()
    pairs = []
    for i in range(16):
        text = "g_equal 5.0" if i < 8 else "nosuch 1.0" if i < 12 else "g_equal 9.0"
        rec = solver.ProblemRecord(id=f"p{i}", numbers=[], answer=5.0,
                                   choices=[5.0, 10.0, 15.0, 20.0])
        pairs.append((rec, solver.evaluate_beam([text], [], 5.0, tol)))
    report = eh.build_report(pairs, tol)
    series = [report.top1, report.top3, report.top10]
    if series != sorted(series):
        return False, "top-k not monotone"
    delta = report.adjusted_top1 - report.top1
    if delta != 0.25 * 0.25:
        return False, f"adjusted identity off by {delta - 0.0625}"
    return True, "top-k monotone; adjusted identity exact"


def _check_report_roundtrip(rng: Rng) -> tuple[bool, str]:
    tol = eh.Tolerance()
    outcome = solver.evaluate_beam(["gougu_add 3.0 4.0", "nosuch 1.0"], [], 5.0, tol)
    rec = solver.ProblemRecord(id="p0", numbers=[], answer=5.0,
                               choices=[5.0, 10.0, 15.0, 20.0])
    report = eh.build_report([(rec, outcome)], tol)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        eh.write_report(report, path)
        back = eh.read_report(path)
    ok = back == report
    return ok, "report round-tripped losslessly"


def _check_scene_invariants(rng: Rng) -> tuple[bool, str]:
    cfg = ds.SceneConfig()
    for i in range(100):
        scene = ds.sample_scene(rng.split(str(i)), cfg)
        scene.check()
        coords = list(scene.points.values())
        for a in range(len(coords)):
            for b in range(a + 1, len(coords)):
                if math.dist(coords[a], coords[b]) < cfg.min_dist:
                    return False, f"points too close in scene {i}"
    return True, "100 scenes geometrically consistent"


def _check_problem_consistency(rng: Rng) -> tuple[bool, str]:
    cfg = ds.SynthConfig()
    for i in range(100):
        scene = ds.sample_scene(rng.split(f"s{i}"), cfg.scene)
        problem = ds.make_problem(scene, rng.split(f"p{i}"), cfg)
        got = solver.execute_program(problem.gt_program, problem.numbers)
        if abs(got - problem.answer) > 1e-9 * max(1.0, abs(problem.answer)):
            return False, f"problem {i} inconsistent"
        if sum(1 for c in problem.choices if c == problem.answer) != 1:
            return False, f"problem {i} choices malformed"
    return True, "100 problems solver-consistent with unique correct option"


CHECKS: list[tuple[str, Callable[[Rng], tuple[bool, str]]]] = [
    ("caption_roundtrip", _check_caption_roundtrip),
    ("program_roundtrip", _check_program_roundtrip),
    ("no_crash_on_bytes", _check_no_crash_on_bytes),
    ("vocab_bijective", _check_vocab_bijective),
    ("solver_oracle", _check_solver_oracle),
    ("pythagoras_exact", _check_pythagoras_exact),
    ("operator_algebra", _check_operator_algebra),
    ("softmax_rows", _check_softmax_rows),
    ("gumbel_sampling", _check_gumbel),
    ("sgs_mask_laws", _check_sgs_laws),
    ("sparsification_fixtures", _check_sparsification),
    ("lambda_linearity", _check_lambda_linearity),
    ("attention_degenerate", _check_attention_degenerate),
    ("mae_contract", _check_mae_contract),
    ("beam_greedy", _check_beam_greedy),
    ("metric_laws", _check_metric_laws),
    ("report_roundtrip", _check_report_roundtrip),
    ("scene_invariants", _check_scene_invariants),
    ("problem_consistency", _check_problem_consistency),
]


def selftest(seed: int = 0) -> dict:
    root = Rng(seed)
    results = []
    failed = 0
    for name, check in CHECKS:
        try:
            ok, detail = check(root.split(name))
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append({"name": name, "ok": ok, "detail": detail})
        if not ok:
            failed += 1
    return {
        "checks": results,
        "passed": len(results) - failed,
        "failed": failed,
        "ok": failed == 0,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def _op_cases(rng: Rng):
    """Each case: (name, fresh-inputs factory, scalar builder over one input)."""
    def normal(r, shape):
        return Tensor(r.normal(shape), requires_grad=True)

    def sum_sq(y):
        return tc.tsum(tc.mul(y, y))

    cases: list[tuple[str, Callable[[Rng], Tensor], Callable]] = []
    other = Tensor(rng.normal((3, 4)) + 2.0)
    row = Tensor(rng.normal((4,)) + 2.0)
    cases += [
        ("add", lambda r: normal(r, (3, 4)), lambda t: tc.tsum(tc.add(t, row))),
        ("sub", lambda r: normal(r, (3, 4)), lambda t: tc.tsum(tc.sub(t, other))),
        ("mul", lambda r: normal(r, (3, 4)), lambda t: tc.tsum(tc.mul(t, other))),
        ("exp", lambda r: normal(r, (3, 4)), lambda t: tc.tsum(tc.exp(t))),
        ("gelu", lambda r: normal(r, (3, 4)), lambda t: tc.tsum(tc.gelu(t))),
        ("transpose", lambda r: normal(r, (3, 4)), lambda t: sum_sq(tc.transpose(t))),
        ("reshape", lambda r: normal(r, (3, 4)), lambda t: sum_sq(tc.reshape(t, (12,)))),
        ("concat", lambda r: normal(r, (2, 4)),
         lambda t: sum_sq(tc.concat([t, Tensor(np.ones((1, 4)))], axis=0))),
        ("narrow", lambda r: normal(r, (3, 4)), lambda t: sum_sq(tc.narrow(t, 1, 1, 2))),
        ("sum_axis", lambda r: normal(r, (3, 4)), lambda t: sum_sq(tc.tsum(t, axis=0))),
        ("mean_pool", lambda r: normal(r, (3, 4)),
         lambda t: sum_sq(tc.mean_pool(t, axis=1))),
        ("matmul_left", lambda r: normal(r, (3, 4)),
         lambda t: sum_sq(tc.matmul(t, Tensor(np.eye(4) + 0.3)))),
        ("matmul_right", lambda r: normal(r, (4, 2)),
         lambda t: sum_sq(tc.matmul(Tensor(np.ones((3, 4))), t))),
        ("softmax", lambda r: normal(r, (3, 4)),
         lambda t: tc.tsum(tc.mul(tc.softmax(t, axis=-1), other))),
    ]
    soft_mask = Tensor(0.2 + 0.8 * rng.uniform((4,)))
    cases += [
        ("masked_softmax_logits", lambda r: normal(r, (3, 4)),
         lambda t: tc.tsum(tc.mul(tc.masked_softmax(t, soft_mask), other))),
        ("masked_softmax_mask",
         lambda r: Tensor(0.2 + 0.8 * r.uniform((4,)), requires_grad=True),
         lambda t: tc.tsum(tc.mul(tc.masked_softmax(other, t), other))),
    ]
    gain = Tensor(rng.normal((4,), std=0.3) + 1.0)
    bias = Tensor(rng.normal((4,), std=0.3))
    cases += [
        ("layer_norm_x", lambda r: normal(r, (3, 4)),
         lambda t: sum_sq(tc.layer_norm(t, gain, bias))),
        ("layer_norm_gain",
         lambda r: Tensor(r.normal((4,), std=0.3) + 1.0, requires_grad=True),
         lambda t: sum_sq(tc.layer_norm(other, t, bias))),
        ("embedding_lookup", lambda r: normal(r, (5, 3)),
         lambda t: sum_sq(tc.embedding_lookup(t, [0, 3, 3, 1]))),
        ("embedding_lookup_2d", lambda r: normal(r, (5, 3)),
         lambda t: sum_sq(tc.embedding_lookup(t, [[0, 3, 3], [4, 1, 3]]))),
        ("cross_entropy_mean", lambda r: normal(r, (5, 4)),
         lambda t: tc.cross_entropy(t, [1, 0, 3, 2, 1], [1, 0, 1, 1, 1])),
        ("cross_entropy_sum", lambda r: normal(r, (5, 4)),
         lambda t: tc.cross_entropy(t, [1, 0, 3, 2, 1], reduction="sum")),
        ("cross_entropy_weighted_3d", lambda r: normal(r, (2, 3, 4)),
         lambda t: tc.cross_entropy(t, [[1, 0, 3], [2, 1, 0]],
                                    [[0.5, 0.5, 0.0], [0.25, 0.0, 0.0]],
                                    reduction="sum")),
        ("gumbel_soft_frozen", lambda r: normal(r, (6, 2)),
         lambda t: tc.tsum(tc.mul(
             tc.gumbel_softmax(t, 0.8, False, Rng(777)),
             Tensor(np.arange(12.0).reshape(6, 2))))),
    ]
    k = Tensor(rng.normal((5, 4)))
    v = Tensor(rng.normal((5, 3)))
    q = Tensor(rng.normal((2, 4)))
    mask = Tensor(0.3 + 0.7 * rng.uniform((5,)))
    batch_left = Tensor(rng.normal((2, 3, 4)))
    batch_right = Tensor(rng.normal((2, 4, 3)))
    cases += [
        ("attention_q", lambda r: normal(r, (2, 4)),
         lambda t: sum_sq(tc.attention(t, k, v, mask))),
        ("attention_k", lambda r: normal(r, (5, 4)),
         lambda t: sum_sq(tc.attention(q, t, v, mask))),
        ("attention_v", lambda r: normal(r, (5, 3)),
         lambda t: sum_sq(tc.attention(q, k, t, mask))),
        ("attention_mask",
         lambda r: Tensor(0.3 + 0.7 * r.uniform((5,)), requires_grad=True),
         lambda t: sum_sq(tc.attention(q, k, v, t))),
        ("matmul_batched", lambda r: normal(r, (2, 3, 4)),
         lambda t: sum_sq(tc.matmul(t, batch_right))),
        ("matmul_broadcast_right", lambda r: normal(r, (4, 3)),
         lambda t: sum_sq(tc.matmul(batch_left, t))),
        ("transpose_batched", lambda r: normal(r, (2, 3, 4)),
         lambda t: sum_sq(tc.matmul(tc.transpose(t), other))),
    ]
    lin_x = Tensor(rng.normal((2, 3, 4)))
    lin_w = Tensor(rng.normal((4, 5)))
    lin_b = Tensor(rng.normal((5,)))
    cases += [
        ("linear_x", lambda r: normal(r, (2, 3, 4)),
         lambda t: sum_sq(tc.linear(t, lin_w, lin_b))),
        ("linear_w", lambda r: normal(r, (4, 5)),
         lambda t: sum_sq(tc.linear(lin_x, t, lin_b))),
        ("linear_b", lambda r: normal(r, (5,)),
         lambda t: sum_sq(tc.linear(lin_x, lin_w, t))),
    ]
    # four heads; a soft (B, 1, 1, n) key mask
    hq = Tensor(rng.normal((2, 3, 8)))
    hk = Tensor(rng.normal((2, 5, 8)))
    hv = Tensor(rng.normal((2, 5, 4)))
    h_mask = Tensor(0.3 + 0.7 * rng.uniform((2, 1, 1, 5)))
    cases += [
        ("attention_heads_q", lambda r: normal(r, (2, 3, 8)),
         lambda t: sum_sq(tc.attention(t, hk, hv, h_mask, heads=4))),
        ("attention_heads_k", lambda r: normal(r, (2, 5, 8)),
         lambda t: sum_sq(tc.attention(hq, t, hv, h_mask, heads=4))),
        ("attention_heads_v", lambda r: normal(r, (2, 5, 4)),
         lambda t: sum_sq(tc.attention(hq, hk, t, h_mask, heads=4))),
        ("attention_heads_mask",
         lambda r: Tensor(0.3 + 0.7 * r.uniform((2, 1, 1, 5)), requires_grad=True),
         lambda t: sum_sq(tc.attention(hq, hk, hv, t, heads=4))),
    ]
    cases.append(("take_rows", lambda r: normal(r, (2, 3, 4)),
                  lambda t: sum_sq(tc.take_rows(t, [4, 0, 2]))))
    cases.append(("l2_normalize", lambda r: normal(r, (3, 4)),
                  lambda t: tc.tsum(tc.mul(tc.l2_normalize(t), other))))
    return cases


def _coord_audit(params: dict[str, Tensor], loss: Callable[[], Tensor],
                 rng: Rng, points: int) -> dict:
    """Backpropagate `loss()` once, then compare the gradient at `points`
    random coordinates of the parameters that receive one against central
    finite differences of the loss."""
    for p in params.values():
        p.grad = None
    loss().backward()
    names = sorted(name for name, p in params.items() if p.grad is not None)
    worst = 0.0
    for _ in range(points):
        p = params[names[rng.integers(0, len(names))]]
        index = np.unravel_index(rng.integers(0, p.data.size), p.data.shape)
        fd = tc.finite_diff_coord(lambda: loss().item(), p, index, h=1e-5)
        bp = float(p.grad[index])
        worst = max(worst, abs(fd - bp) / max(abs(fd), abs(bp), 1e-4))
    return {"coords": points, "max_rel_err": worst, "ok": worst <= GRAD_TOL}


def gradcheck(seed: int = 1, points: int = 50) -> dict:
    """Audit every differentiable op (full FD gradients at `points` random
    inputs), the composed pretraining loss and the composed instruction-tuning
    loss (encoder -> projection -> decoder; FD at `points` random parameter
    coordinates each)."""
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    rng = Rng(seed)
    op_results = []
    overall_ok = True
    for name, make_input, build in _op_cases(rng.split("cases")):
        worst = 0.0
        for point in range(points):
            x = make_input(rng.split(f"{name}/{point}"))
            x.grad = None
            build(x).backward()
            fd = tc.finite_diff_grad(build, x, h=1e-5)
            worst = max(worst, _rel_err(fd, x.grad))
        ok = worst <= GRAD_TOL
        overall_ok &= ok
        op_results.append({"op": name, "max_rel_err": worst, "ok": ok})

    cfg = _tiny_cfg()
    params = gsf.init_params(cfg, rng.split("pretrain_params"))
    patches, captions = _tiny_batch(cfg, rng.split("pretrain_batch"))
    pretrain = _coord_audit(
        params,
        lambda: gsf.pretrain_loss(patches, captions, cfg, params, Rng(99)).tensor,
        rng.split("coords"), points)

    # encoder -> projection -> decoder through the training stage's loss;
    # captions stand in for questions and targets of different lengths
    dec_cfg = pt.DecoderConfig(n_layers=1, d_lm=8, n_heads=2, vocab_size=20,
                               max_len=16)
    dec = pt.init_decoder_params(dec_cfg, rng.split("sft_params"))
    joined = tr._join_sft_params(params, dec)
    joined["proj_w"] = Tensor(rng.split("sft_proj").normal((cfg.d_model, dec_cfg.d_lm)),
                              requires_grad=True)
    joined["proj_b"] = tc.zeros((dec_cfg.d_lm,), requires_grad=True)
    questions = [captions[0][:1], captions[1][:3]]
    targets = [captions[0][1:], captions[1][3:]]
    rngs = [Rng(99).split(f"sample{i}") for i in range(len(targets))]
    sft = _coord_audit(
        joined,
        lambda: tr.sft_loss(joined, cfg, dec_cfg, patches, questions, targets, rngs),
        rng.split("sft_coords"), points)
    overall_ok &= pretrain["ok"] and sft["ok"]
    return {
        "ops": op_results,
        "pretrain_loss": pretrain,
        "sft_loss": sft,
        "points": points,
        "seed": seed,
        "ok": bool(overall_ok),
    }
