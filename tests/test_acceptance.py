"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  The end-to-end pipeline
(criteria 7 and 10) trains once per session via a shared fixture.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import geoformal
from geoformal import diagram_synth as ds
from geoformal import eval_harness as eh
from geoformal import formal_lang as fl
from geoformal import gsformer as gsf
from geoformal import pretrain as pt
from geoformal import selfcheck
from geoformal import solver
from geoformal import tensorcore as tc
from geoformal import train as tr
from geoformal.tensorcore import Rng, Tensor

from oracles import (
    assert_same_beams,
    oracle_eval,
    random_bytes_text,
    random_caption_text,
    random_program_text,
    reference_beam_decode,
    rel_close,
)


# the child interpreter imports the package from this checkout
CHILD_ENV = dict(os.environ,
                 PYTHONPATH=str(Path(geoformal.__file__).resolve().parent.parent))


def report(criterion: int, detail: str) -> None:
    print(f"PASS criterion {criterion}: {detail}")


# ---------------------------------------------------------------------------
# Shared end-to-end pipeline (criteria 7 and 10)
# ---------------------------------------------------------------------------

@dataclass
class Pipeline:
    root: object
    data: tr.Dataset
    ckpt: str
    candidates_path: object
    report: eh.EvaluationReport
    elapsed: float


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory) -> Pipeline:
    root = tmp_path_factory.mktemp("pipeline")
    t0 = time.monotonic()
    ds.generate_dataset(64, 2024, root)
    data = tr.load_dataset(root)
    config = tr.default_run_config(len(data.vocab), data.n_patches, data.patch_dim)
    config.stages["align"].steps = 300
    config.stages["sft"].steps = 1500
    tr.train_align_stage(data, config, 11, root / "align")
    tr.train_sft_stage(data, config, 12, root / "sft", encoder_ckpt=root / "align")
    results = tr.decode_problems(root / "sft", data, beam=10, max_len=24)
    candidates_path = root / "candidates.jsonl"
    eh.save_candidates(results, candidates_path)
    tol = eh.Tolerance(abs=1e-2, rel=1e-3)
    pairs = tr.adjudicate(data.problems, dict(results), beam=10, tol=tol)
    built = eh.build_report(pairs, tol)
    elapsed = time.monotonic() - t0
    return Pipeline(root, data, str(root / "sft"), candidates_path, built, elapsed)


# ---------------------------------------------------------------------------
# 1. Grammar round-trip
# ---------------------------------------------------------------------------

def test_criterion_1_grammar_roundtrip():
    import random

    t0 = time.monotonic()
    rng = random.Random(10_001)
    for _ in range(10_000):
        text = random_caption_text(rng)
        caption = fl.parse_caption(text)
        assert fl.format_caption(caption) == text
        assert fl.parse_caption(fl.format_caption(caption)) == caption
    for _ in range(10_000):
        text = random_program_text(rng, n_numbers=3)
        program = fl.parse_program(text)
        assert fl.format_program(program) == text
        assert fl.parse_program(fl.format_program(program)) == program
    for _ in range(10_000):
        blob = random_bytes_text(rng)
        for parse in (fl.parse_caption, fl.parse_program):
            try:
                parse(blob)
            except fl.FormalLangError:
                pass
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"grammar fuzz took {elapsed:.1f}s"
    report(1, f"10k captions + 10k programs round-tripped, 10k byte blobs "
              f"handled in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Solver oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_solver_oracle():
    import random

    t0 = time.monotonic()
    exact = solver.execute_program(fl.parse_program("gougu_add 3.0 4.0"), [])
    assert abs(exact - 5.0) <= 1e-12

    rng = random.Random(20_002)
    checked = 0
    while checked < 5_000:
        text = random_program_text(rng, max_groups=4, n_numbers=3)
        numbers = [round(rng.uniform(0.5, 20.0), 3) for _ in range(3)]
        try:
            got = solver.execute_program(fl.parse_program(text), numbers)
        except solver.SolverError:
            continue
        assert rel_close(got, oracle_eval(text, numbers)), text
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"solver oracle sweep took {elapsed:.1f}s"
    report(2, f"5000 programs matched the recursive oracle within 1e-9 "
              f"in {elapsed:.1f}s; 3-4-5 exact")


# ---------------------------------------------------------------------------
# 3. Total-loss exactness
# ---------------------------------------------------------------------------

def test_criterion_3_total_loss_exactness():
    ones = gsf.sparsification_loss(gsf.SGSState([tc.ones((6,)), tc.ones((6,))]))
    zeros = gsf.sparsification_loss(gsf.SGSState([tc.zeros((6,)), tc.zeros((6,))]))
    hand = gsf.sparsification_loss(gsf.SGSState(
        [Tensor([1.0, 1.0, 0.0, 0.0]), Tensor([1.0, 0.0, 0.0, 0.0])]
    ))
    assert ones.item() == 1.0
    assert zeros.item() == 0.0
    assert hand.item() == 3.0 / 8.0

    cfg = gsf.GSFormerConfig(
        n_layers=2, n_queries=3, d_model=8, n_heads=2, d_in=6, n_patches=8,
        vocab_size=20, max_caption_len=8, embed_dim=4, sgs_layers=(1,),
    )
    params = gsf.init_params(cfg, Rng(0))
    patches, captions = [], []
    for i in range(2):
        r = Rng(100 + i)
        patches.append(r.normal((cfg.n_patches, cfg.d_in)))
        captions.append([fl.BOS_ID] + [int(t) for t in r.integers(4, cfg.vocab_size, (3,))])
    patches = Tensor(np.stack(patches))
    lam_rng = Rng(33)
    for _ in range(100):
        cfg.lam = float(lam_rng.uniform(())) * 5.0
        out = gsf.pretrain_loss(patches, captions, cfg, params, Rng(7))
        assert out.l_total == out.l_align + cfg.lam * out.l_spr
    report(3, "sparsification fixtures exact; 100 random lambdas at machine "
              "precision")


# ---------------------------------------------------------------------------
# 4. Mask-update laws
# ---------------------------------------------------------------------------

def test_criterion_4_mask_laws():
    rng = Rng(40_004)
    n, d = 8, 4
    for i in range(1_000):
        r = rng.split(str(i))
        prev = Tensor((r.uniform((n,)) > 0.3).astype(float))
        w = Tensor(r.normal((d, 2), std=0.5))
        b = Tensor(r.normal((2,), std=0.5))
        mask = gsf.sgs_update_mask(
            prev, Tensor(r.normal((n, d))), w, b, 1.0, True, r.split("g")
        )
        assert np.all(np.isin(mask.data, (0.0, 1.0)))
        assert np.all(mask.data <= prev.data)

    cfg = gsf.GSFormerConfig(
        n_layers=3, n_queries=4, d_model=16, n_heads=2, d_in=9, n_patches=12,
        vocab_size=24, max_caption_len=10, embed_dim=8, sgs_layers=(1, 2),
    )
    params = gsf.init_params(cfg, Rng(1))
    for seed in range(3):
        patches = Tensor(Rng(seed).normal((1, cfg.n_patches, cfg.d_in)))
        _, state, _ = gsf.gs_former_forward(
            patches, [[1, 5]], cfg, params, [Rng(seed)], hard=True
        )
        assert np.all(state.masks[0].data == 1.0)

    saturated = gsf.sgs_update_mask(
        tc.ones((64,)), Tensor(Rng(2).normal((64, 4))),
        tc.zeros((4, 2)), Tensor([40.0, -40.0]), 1.0, True, Rng(3),
    )
    assert float(saturated.data.mean()) == 1.0

    uniform = tc.gumbel_softmax(tc.zeros((10_000, 2)), 1.0, True, Rng(44))
    keep_rate = float(uniform.data[:, 0].mean())
    assert abs(keep_rate - 0.5) <= 0.02
    report(4, f"1000 hard states binary and monotone; stage-0 all ones; "
              f"saturated keep rate 1.0; uniform keep rate {keep_rate:.3f}")


# ---------------------------------------------------------------------------
# 5. Gradient audit
# ---------------------------------------------------------------------------

def test_criterion_5_gradient_audit():
    t0 = time.monotonic()
    result = selfcheck.gradcheck(seed=1, points=50)
    elapsed = time.monotonic() - t0
    failures = [op for op in result["ops"] if not op["ok"]]
    assert not failures, failures
    assert result["pretrain_loss"]["ok"], result["pretrain_loss"]
    assert result["ok"]
    assert elapsed < 120.0, f"gradient audit took {elapsed:.1f}s"
    worst_op = max(result["ops"], key=lambda o: o["max_rel_err"])
    report(5, f"{len(result['ops'])} ops + composed loss within 1e-3 "
              f"(worst {worst_op['op']} at {worst_op['max_rel_err']:.2e}) "
              f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Instruction-loss conformance
# ---------------------------------------------------------------------------

def test_criterion_6_instruction_loss_conformance():
    cfg = pt.DecoderConfig(n_layers=1, d_lm=32, n_heads=2, vocab_size=24,
                           max_len=40)
    params = pt.init_decoder_params(cfg, Rng(0))
    t_g = Tensor(Rng(1).normal((1, 2, cfg.d_lm), std=0.02))
    t_p = [5, 6, 7]
    target = [9, 10, 11, 2]
    loss = pt.instruction_loss(params, cfg, t_g, [t_p], [target])

    logits = pt.decoder_forward(params, cfg, [t_p + target[:-1]], prefix_embeds=t_g)
    n_prefix = 2 + len(t_p)
    tail = tc.narrow(logits, 1, n_prefix - 1, len(target))
    composed = tc.cross_entropy(tail, [target], reduction="sum")
    assert abs(loss.item() - composed.item()) <= 1e-12

    perturbed = logits.data.copy()
    perturbed[0, : n_prefix - 1] += Rng(2).normal(
        perturbed[0, : n_prefix - 1].shape, std=9.0
    )
    targets_full = [0] * logits.shape[1]
    weights = [0.0] * logits.shape[1]
    for offset, tok in enumerate(target):
        targets_full[n_prefix - 1 + offset] = tok
        weights[n_prefix - 1 + offset] = 1.0
    again = tc.cross_entropy(Tensor(perturbed), [targets_full], [weights],
                             reduction="sum")
    assert abs(again.item() - loss.item()) <= 1e-12
    report(6, "sum-reduction composition equal to 1e-12; prefix positions "
              "contribute zero loss under perturbation")


# ---------------------------------------------------------------------------
# 7. End-to-end overfit
# ---------------------------------------------------------------------------

def test_criterion_7_end_to_end_overfit(pipeline):
    rep = pipeline.report
    assert rep.n_problems == 64
    assert rep.top1 >= 0.95, f"top1 = {rep.top1}"
    assert rep.top1 <= rep.top3 <= rep.top10
    assert pipeline.elapsed < 1800.0, f"pipeline took {pipeline.elapsed:.0f}s"
    report(7, f"64-problem pipeline (300 align + 1500 sft steps) reached "
              f"top1={rep.top1:.3f}, top3={rep.top3:.3f}, "
              f"top10={rep.top10:.3f} in {pipeline.elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. Metric calibration
# ---------------------------------------------------------------------------

def test_criterion_8_metric_calibration():
    import random

    rng = random.Random(80_008)
    tol = eh.Tolerance(abs=1e-2, rel=1e-3)
    pairs = []
    for i in range(2_000):
        # exchangeable options: four iid values, the answer is a uniformly
        # random one of them, so chance is exactly 1/4
        options = [round(rng.uniform(5.0, 100.0), 1) for _ in range(4)]
        answer = options[rng.randrange(4)]
        numbers = [round(rng.uniform(0.5, 20.0), 3) for _ in range(3)]
        texts = [random_program_text(rng, n_numbers=3) for _ in range(3)]
        rec = solver.ProblemRecord(
            id=f"p{i}", numbers=numbers, answer=answer, choices=options
        )
        outcome = solver.evaluate_beam(texts, numbers, answer, tol)
        pairs.append((rec, outcome))
    choice = eh.build_report(pairs, tol).choice
    assert abs(choice - 0.25) <= 0.03, f"choice = {choice}"

    dyadic = []
    for i in range(16):
        answer = 5.0
        options = [5.0, 10.0, 15.0, 20.0]
        if i < 8:
            values = [5.0]
        elif i < 12:
            values = [None]
        else:
            values = [9.0]
        candidates = []
        first_exec = first_corr = None
        for rank, value in enumerate(values):
            if value is None:
                candidates.append(solver.CandidateResult("x", False, error="e"))
                continue
            candidates.append(solver.CandidateResult("x", True, value=value))
            if first_exec is None:
                first_exec = rank
            if first_corr is None and tol.passes(value, answer):
                first_corr = rank
        rec = solver.ProblemRecord(id=f"d{i}", numbers=[], answer=answer,
                                   choices=options)
        dyadic.append((rec, solver.BeamOutcome(tuple(candidates), first_exec,
                                               first_corr)))
    scored = eh.build_report(dyadic, tol)
    assert scored.adjusted_top1 - scored.top1 == 0.25 * 0.25
    report(8, f"random programs over 2000 four-option problems gave "
              f"choice={choice:.3f}; adjusted identity exact")


# ---------------------------------------------------------------------------
# 9. Masked-reconstruction contract
# ---------------------------------------------------------------------------

def test_criterion_9_mae_contract(tmp_path):
    t0 = time.monotonic()
    rng = Rng(90_009)
    patches = Tensor(rng.normal((16, 9)))
    recon = Tensor(rng.normal((16, 9)))
    batch = pt.mae_mask(patches, 0.75, rng.split("m"))
    base = pt.mae_loss(recon, patches, batch).item()
    noisy = recon.data.copy()
    for i in range(16):
        if not batch.masked[i, 0]:
            noisy[i] += rng.normal((9,), std=20.0)
    assert pt.mae_loss(Tensor(noisy), patches, batch).item() == base

    out = tmp_path / "mae_data"
    ds.generate_dataset(32, 909, out)
    data = tr.load_dataset(out)
    config = tr.default_run_config(len(data.vocab), data.n_patches,
                                   data.patch_dim)
    summary = tr.train_mae_stage(data, config, 5, tmp_path / "mae")
    ratio = summary["init_loss"] / summary["final_loss"]
    elapsed = time.monotonic() - t0
    assert ratio >= 10.0, f"loss only fell {ratio:.1f}x"
    assert elapsed < 300.0, f"mae stage took {elapsed:.1f}s"
    report(9, f"masked-only loss invariant to visible perturbations; 500 "
              f"steps on 32 diagrams cut loss {ratio:.1f}x in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. Determinism
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(pipeline, tmp_path):
    cmd = [sys.executable, "-m", "geoformal.cli", "selftest", "--seed", "0"]
    run_a = subprocess.run(cmd, capture_output=True, env=CHILD_ENV)
    run_b = subprocess.run(cmd, capture_output=True, env=CHILD_ENV)
    assert run_a.returncode == run_b.returncode == 0
    assert run_a.stdout == run_b.stdout

    for name in ("a", "b"):
        code = subprocess.run(
            [sys.executable, "-m", "geoformal.cli", "gen-data", "--n", "16",
             "--seed", "5", "--out", str(tmp_path / name)],
            capture_output=True, env=CHILD_ENV,
        ).returncode
        assert code == 0
    for rel in ("problems.jsonl", "captions.txt", "vocab.txt",
                "diagrams/p00007.pgm", "gen-config.json"):
        assert (tmp_path / "a" / rel).read_bytes() == \
            (tmp_path / "b" / rel).read_bytes()

    again = tr.decode_problems(pipeline.ckpt, pipeline.data, beam=10, max_len=24)
    second_path = tmp_path / "candidates_again.jsonl"
    eh.save_candidates(again, second_path)
    assert second_path.read_bytes() == pipeline.candidates_path.read_bytes()
    report(10, "selftest stdout, gen-data outputs, and decode candidates are "
               "byte-identical across two runs")


def test_cached_decode_matches_uncached_on_the_pipeline_checkpoint(pipeline):
    gs_cfg, dec_cfg, params = tr.load_sft_checkpoint(pipeline.ckpt)
    _, dec_params = tr.split_sft_params(params)
    for rec in pipeline.data.problems[:8]:
        patches = pipeline.data.patches[rec.id]
        t_g = tr.visual_tokens(params, gs_cfg,
                               tc.reshape(patches, (1,) + patches.shape), None,
                               hard=True)
        assert not t_g.requires_grad
        args = (dec_params, dec_cfg, t_g, rec.question_tokens)
        cached = pt.beam_decode(*args, beam=10, max_len=24, eos_id=fl.EOS_ID)
        reference = reference_beam_decode(*args, beam=10, max_len=24,
                                          eos_id=fl.EOS_ID)
        assert_same_beams(cached, reference)
