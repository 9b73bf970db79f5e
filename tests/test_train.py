import json
from dataclasses import replace

import numpy as np
import pytest

from geoformal import diagram_synth as ds
from geoformal import eval_harness as eh
from geoformal import formal_lang as fl
from geoformal import gsformer as gsf
from geoformal import pretrain as pt
from geoformal import solver
from geoformal import tensorcore as tc
from geoformal import train as tr
from geoformal.tensorcore import Rng, Tensor

from oracles import (
    assert_grads_close,
    loss_and_grads,
    reference_pretrain_loss,
    summed_loss_and_grads,
)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("train_data")
    ds.generate_dataset(6, 21, out)
    return tr.load_dataset(out)


def small_config(data: tr.Dataset) -> tr.RunConfig:
    config = tr.default_run_config(len(data.vocab), data.n_patches, data.patch_dim)
    config.gsformer.n_layers = 2
    config.gsformer.sgs_layers = (1,)
    config.gsformer.d_model = 16
    config.gsformer.n_heads = 2
    config.decoder.d_lm = 32
    config.decoder.n_layers = 1
    for stage in config.stages.values():
        stage.steps = 2
        stage.batch = 4
    return config


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------

def test_resolve_config_layering(dataset):
    base = tr.default_run_config(len(dataset.vocab), dataset.n_patches,
                                 dataset.patch_dim)
    resolved = tr.resolve_run_config(
        base,
        {"schema": 1, "gsformer": {"lam": 0.125},
         "stages": {"sft": {"steps": 7}}},
        {"sft.steps": 9, "align.lr": 0.5},
    )
    assert resolved.gsformer.lam == 0.125
    assert resolved.stages["sft"].steps == 9       # flag beats file
    assert resolved.stages["align"].lr == 0.5
    assert resolved.stages["mae"].steps == tr.DEFAULT_STAGES["mae"].steps


def test_resolve_config_rejects_bad_schema(dataset):
    base = tr.default_run_config(len(dataset.vocab), dataset.n_patches,
                                 dataset.patch_dim)
    with pytest.raises(eh.SchemaError):
        tr.resolve_run_config(base, {"schema": 2})
    with pytest.raises(eh.SchemaError):
        tr.resolve_run_config(base, {"schema": 1, "stages": {"warp": {}}})


def test_dataset_requires_diagram_paths(tmp_path):
    rec = solver.ProblemRecord(id="p0", numbers=[1.0], answer=1.0)
    solver.save_problems([rec], tmp_path / "problems.jsonl")
    with pytest.raises(eh.SchemaError):
        tr.load_dataset(tmp_path)


# ---------------------------------------------------------------------------
# Stage behavior
# ---------------------------------------------------------------------------

def test_mae_stage_reports_dataset_losses(dataset, tmp_path):
    config = small_config(dataset)
    summary = tr.train_mae_stage(dataset, config, 3, tmp_path / "mae")
    assert summary["init_loss"] > 0
    assert summary["final_loss"] > 0
    assert (tmp_path / "mae.log.jsonl").exists()


def test_sft_freeze_encoder_keeps_encoder_fixed(dataset, tmp_path):
    config = small_config(dataset)
    tr.train_align_stage(dataset, config, 4, tmp_path / "align")
    align_params = tc.load_params(tmp_path / "align")

    config.stages["sft"].freeze_encoder = True
    tr.train_sft_stage(dataset, config, 5, tmp_path / "sft_frozen",
                       encoder_ckpt=tmp_path / "align")
    gs, dec, _, _ = tr.split_sft_params(tc.load_params(tmp_path / "sft_frozen"))
    for name, tensor in align_params.items():
        assert np.array_equal(gs[name].data, tensor.data), name

    config.stages["sft"].freeze_encoder = False
    tr.train_sft_stage(dataset, config, 5, tmp_path / "sft_live",
                       encoder_ckpt=tmp_path / "align")
    gs_live, _, _, _ = tr.split_sft_params(tc.load_params(tmp_path / "sft_live"))
    changed = any(
        not np.array_equal(gs_live[name].data, tensor.data)
        for name, tensor in align_params.items()
    )
    assert changed


def test_frozen_encoder_builds_no_gradients(dataset, tmp_path, monkeypatch):
    config = small_config(dataset)
    config.stages["sft"].steps = 3
    tr.train_align_stage(dataset, config, 4, tmp_path / "align")
    config.stages["sft"].freeze_encoder = True
    seen = {}
    run_loop = tr._run_loop

    def spy(*args, **kwargs):
        seen.update(kwargs["saved"])
        return run_loop(*args, **kwargs)

    monkeypatch.setattr(tr, "_run_loop", spy)
    tr.train_sft_stage(dataset, config, 5, tmp_path / "sft",
                       encoder_ckpt=tmp_path / "align")
    encoder = [k for k in seen if k.startswith("gs.")]
    assert encoder
    assert [k for k in encoder if seen[k].grad is not None] == []
    assert seen["proj_w"].grad is not None


@pytest.mark.parametrize("stage", ["mae", "align", "sft"])
def test_a_training_step_gives_constants_no_gradient(dataset, tmp_path,
                                                     monkeypatch, stage):
    """Patch batches, MAE masked rows, causal and caption masks and scalar
    factors are constants: after a step's backward none holds a `.grad`,
    and every tape node lists only inputs that require a gradient."""
    created = []
    init = Tensor.__init__

    def recording_init(self, data, requires_grad=False):
        init(self, data, requires_grad)
        created.append(self)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    config = small_config(dataset)
    config.stages[stage].steps = 1
    tr.run_stage(stage, dataset, config, 3, tmp_path / stage)
    monkeypatch.undo()

    constants = [t for t in created if not t.requires_grad]
    batch = config.stages[stage].batch
    patch_batch = (batch, dataset.n_patches, dataset.patch_dim)
    is_mask = {
        "mae": lambda s: s == (batch, dataset.n_patches, 1),  # masked rows
        "align": lambda s: len(s) == 2 and s[1] == s[0] + config.gsformer.n_queries,
        "sft": lambda s: len(s) == 2 and s[0] == s[1] > 1,  # causal
    }[stage]
    shapes = {t.shape for t in constants}
    assert patch_batch in shapes and () in shapes
    assert any(map(is_mask, shapes))
    assert [t.shape for t in constants if t.grad is not None] == []
    nodes = [t for t in created if t._parents]
    assert nodes
    assert all(p.requires_grad for t in nodes for p, _ in t._parents)


def test_stage_runs_are_deterministic(dataset, tmp_path):
    config = small_config(dataset)
    tr.train_align_stage(dataset, config, 6, tmp_path / "a")
    tr.train_align_stage(dataset, config, 6, tmp_path / "b")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert (tmp_path / "a.log.jsonl").read_bytes() == \
        (tmp_path / "b.log.jsonl").read_bytes()


def test_unknown_stage_rejected(dataset, tmp_path):
    config = small_config(dataset)
    with pytest.raises(ValueError):
        tr.run_stage("warp", dataset, config, 1, tmp_path / "x")


# ---------------------------------------------------------------------------
# Step-0 oracles: the first logged loss, recomputed at the init params from
# the stage's Rng labels and its own reduction
# ---------------------------------------------------------------------------

def first_logged(prefix) -> dict:
    log = prefix.with_name(prefix.name + ".log.jsonl")
    return json.loads(log.read_text().splitlines()[0])


def draw(rng: Rng, n: int, batch: int) -> list[int]:
    return [int(i) for i in rng.integers(0, n, (min(batch, n),))]


def one(patches: Tensor) -> Tensor:
    """One diagram as a batch of one."""
    return tc.reshape(patches, (1,) + patches.shape)


def test_mae_step0_loss_matches_oracle(dataset, tmp_path):
    config, seed = small_config(dataset), 7
    tr.train_mae_stage(dataset, config, seed, tmp_path / "mae")
    rng = Rng(seed)
    params = pt.init_mae_params(config.mae, rng.split("init"))
    order = sorted(dataset.patches)
    picks = draw(rng.split("step0").split("batch"), len(order),
                 config.stages["mae"].batch)
    losses = []
    with tc.no_grad():
        for i in picks:
            patches = one(dataset.patches[order[i]])
            masked = pt.mae_mask(dataset.patches[order[i]], config.mae.mask_ratio,
                                 rng.split(f"mask/{order[i]}")).masked
            batch = pt.MAEBatch(patches, masked[None])
            recon = pt.mae_forward(params, config.mae, batch)
            losses.append(pt.mae_loss(recon, patches, batch).item())
    expected = sum(losses) / len(losses)
    assert first_logged(tmp_path / "mae")["loss"] == pytest.approx(expected, rel=1e-12)


def test_lm_step0_loss_matches_oracle(dataset, tmp_path):
    config, seed = small_config(dataset), 8
    tr.train_lm_stage(dataset, config, seed, tmp_path / "lm")
    params = pt.init_decoder_params(config.decoder, Rng(seed).split("init"))
    sequences = []
    for rec in dataset.problems:
        caption = fl.tokenize(" ".join(rec.caption.split()), dataset.vocab)
        program = fl.tokenize(rec.gt_program, dataset.vocab)
        sequences.append([fl.BOS_ID] + caption + [fl.EOS_ID])
        sequences.append([fl.BOS_ID] + program + [fl.EOS_ID])
    # lm draws from step0 itself, not step0/batch
    picks = draw(Rng(seed).split("step0"), len(sequences), config.stages["lm"].batch)
    with tc.no_grad():
        losses = [pt.lm_loss(params, config.decoder, [sequences[i]]).item()
                  for i in picks]
    expected = sum(losses) / len(losses)
    assert first_logged(tmp_path / "lm")["loss"] == pytest.approx(expected, rel=1e-12)


def test_align_step0_loss_matches_oracle(dataset, tmp_path):
    config, seed = small_config(dataset), 9
    tr.train_align_stage(dataset, config, seed, tmp_path / "align")
    params = gsf.init_params(config.gsformer, Rng(seed).split("init"))
    step_rng = Rng(seed).split("step0")
    picks = draw(step_rng.split("batch"), len(dataset.problems),
                 config.stages["align"].batch)
    captions = []
    for i in picks:
        rec = dataset.problems[i]
        caption = fl.tokenize(" ".join(rec.caption.split()), dataset.vocab)
        captions.append([fl.BOS_ID] + caption + [fl.EOS_ID])
    patches = Tensor(np.stack([dataset.patches[dataset.problems[i].id].data
                               for i in picks]))
    cfg = replace(config.gsformer,
                  tau=config.gsformer.tau_at(0, config.stages["align"].steps))
    with tc.no_grad():
        # one forward per example, each a batch of one with its own noise
        total = reference_pretrain_loss(patches, captions, cfg, params,
                                        step_rng.split("noise"))
    first = first_logged(tmp_path / "align")
    assert first["tau"] == cfg.tau
    assert first["l_total"] == pytest.approx(total.item(), rel=1e-12)


def test_sft_step0_loss_matches_oracle(dataset, tmp_path):
    config, seed = small_config(dataset), 10
    tr.train_sft_stage(dataset, config, seed, tmp_path / "sft")
    rng = Rng(seed)
    gs = gsf.init_params(config.gsformer, rng.split("gs_init"))
    dec = pt.init_decoder_params(config.decoder, rng.split("dec_init"))
    proj_w = Tensor(rng.split("proj").normal(
        (config.gsformer.d_model, config.decoder.d_lm), std=gsf.INIT_STD))
    proj_b = tc.zeros((config.decoder.d_lm,))
    step_rng = rng.split("step0")
    picks = draw(step_rng.split("batch"), len(dataset.problems),
                 config.stages["sft"].batch)
    total, n_targets = 0.0, 0
    with tc.no_grad():
        for slot, i in enumerate(picks):
            rec = dataset.problems[i]
            target = fl.tokenize(rec.gt_program, dataset.vocab) + [fl.EOS_ID]
            feats, _, _ = gsf.gs_former_forward(
                one(dataset.patches[rec.id]), [[]], config.gsformer, gs,
                [step_rng.split(f"noise{slot}")], hard=False)
            t_g = pt.project_visual(feats.f_g, proj_w, proj_b)
            total += pt.instruction_loss(dec, config.decoder, t_g,
                                         [rec.question_tokens], [target]).item()
            n_targets += len(target)
    first = first_logged(tmp_path / "sft")
    assert first["loss_sum"] == pytest.approx(total, rel=1e-12)
    assert first["loss_mean"] == pytest.approx(total / n_targets, rel=1e-12)


def test_sft_batch_equals_sum_of_batch_of_one_calls(dataset):
    config = small_config(dataset)
    rng = Rng(11)
    joined = tr._join_sft_params(
        gsf.init_params(config.gsformer, rng.split("gs")),
        pt.init_decoder_params(config.decoder, rng.split("dec")),
        Tensor(rng.split("proj").normal((config.gsformer.d_model, config.decoder.d_lm),
                                        std=0.1), requires_grad=True),
        tc.zeros((config.decoder.d_lm,), requires_grad=True))
    recs = dataset.problems[2:6]  # questions of 18 and 20, programs of 3 to 11 tokens
    questions = [rec.question_tokens for rec in recs]
    targets = [fl.tokenize(rec.gt_program, dataset.vocab) + [fl.EOS_ID] for rec in recs]
    assert len({len(q) for q in questions}) > 1 and len({len(t) for t in targets}) > 1
    patches = Tensor(np.stack([dataset.patches[rec.id].data for rec in recs]))
    noise = Rng(12)

    def loss(rows):
        return lambda: tr.sft_loss(
            joined, config.gsformer, config.decoder,
            Tensor(patches.data[rows]), [questions[i] for i in rows],
            [targets[i] for i in rows], [noise.split(f"noise{i}") for i in rows])

    got, got_grads = loss_and_grads(joined, loss(list(range(4))))
    want, want_grads = summed_loss_and_grads(joined, [loss([i]) for i in range(4)])
    assert got == pytest.approx(want, rel=1e-12)
    assert_grads_close(got_grads, want_grads)


# ---------------------------------------------------------------------------
# Adjudication glue
# ---------------------------------------------------------------------------

def test_adjudicate_truncates_to_beam(dataset):
    tol = eh.Tolerance()
    candidates = {
        rec.id: [rec.gt_program, "junk", rec.gt_program]
        for rec in dataset.problems
    }
    pairs = tr.adjudicate(dataset.problems, candidates, beam=1, tol=tol)
    assert all(len(outcome.candidates) == 1 for _, outcome in pairs)
    assert all(outcome.rank_of_first_correct == 0 for _, outcome in pairs)


def test_adjudicate_missing_candidates_yield_empty_outcomes(dataset):
    tol = eh.Tolerance()
    pairs = tr.adjudicate(dataset.problems, {}, beam=10, tol=tol)
    assert all(outcome.rank_of_first_executed is None for _, outcome in pairs)


# ---------------------------------------------------------------------------
# Beam search vs greedy score ordering
# ---------------------------------------------------------------------------

def test_wider_beam_never_scores_below_greedy():
    for seed in range(10):
        cfg = pt.DecoderConfig(n_layers=1, d_lm=16, n_heads=2, vocab_size=12,
                               max_len=16)
        params = pt.init_decoder_params(cfg, Rng(seed))
        t_p = [int(t) for t in Rng(seed + 100).integers(3, 12, (3,))]
        narrow = pt.beam_decode(params, cfg, None, t_p, beam=1, max_len=6)
        wide = pt.beam_decode(params, cfg, None, t_p, beam=5, max_len=6)
        assert wide[0].normalized >= narrow[0].normalized - 1e-12
