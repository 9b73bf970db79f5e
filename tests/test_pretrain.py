import hashlib
import math

import numpy as np
import pytest

from geoformal import gsformer as gsf
from geoformal import pretrain as pt
from geoformal import tensorcore as tc
from geoformal.pretrain import (
    DecoderConfig,
    DegenerateRatioError,
    EmptyTargetError,
    MAEConfig,
    SequenceTooShortError,
    beam_decode,
    decoder_forward,
    init_decoder_params,
    init_mae_params,
    instruction_loss,
    lm_loss,
    mae_forward,
    mae_loss,
    mae_mask,
)
from geoformal.tensorcore import Adam, Rng, Tensor

from oracles import (
    assert_grads_close,
    assert_identical_beams,
    assert_same_beams,
    loss_and_grads,
    reference_beam_decode,
    reference_instruction_loss,
    reference_list_beam_decode,
    reference_lm_loss,
    summed_loss_and_grads,
)


def small_decoder(vocab=24, d=32, max_len=40):
    cfg = DecoderConfig(n_layers=1, d_lm=d, n_heads=2, vocab_size=vocab,
                        max_len=max_len)
    return cfg, init_decoder_params(cfg, Rng(0))


# ---------------------------------------------------------------------------
# Initial parameters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, init, want_bin, want_json", [
    ("gsformer", lambda: gsf.init_params(gsf.GSFormerConfig(), Rng(0)),
     "c0fda3691cc5afc643cab9372e4ea667383ded495c0b9cce7c246e8c9e0dafe2",
     "32a23a77deb2311a55954868c90824f70cf804fa4467693f67a539563c34cf59"),
    ("decoder", lambda: init_decoder_params(DecoderConfig(), Rng(0)),
     "2b75c74b9c263a126d1dfcd84a21ae66b3a06992d3038ebb03afdcbbeca1b8c9",
     "138d6f037b745d8fd8798eba1dee6ef726f76ef3c3247bff584bdcab2147d96a"),
    ("mae", lambda: init_mae_params(MAEConfig(), Rng(0)),
     "f013c89b31f833d9084724f554563441af39ebe2aed4a4bdefd82c02bb38da06",
     "995086dccc8a12a7ea412de3fb1053395f4fb48dce8fe31d6d1ca58de76b2c37"),
], ids=["gsformer", "decoder", "mae"])
def test_default_initial_parameters_are_pinned(tmp_path, name, init, want_bin,
                                               want_json):
    """The checkpoint of each model's default initial parameters is pinned
    byte for byte: its parameter names, their shapes and the Rng label of
    each draw decide whether earlier checkpoints still load."""
    tc.save_params(init(), tmp_path / name)
    for suffix, want in ((".bin", want_bin), (".json", want_json)):
        data = tc.checkpoint_path(tmp_path / name, suffix).read_bytes()
        assert hashlib.sha256(data).hexdigest() == want, suffix


# ---------------------------------------------------------------------------
# Masked reconstruction
# ---------------------------------------------------------------------------

def test_mae_mask_count():
    patches = Tensor(Rng(0).normal((64, 16)))
    batch = mae_mask(patches, 0.75, Rng(1))
    assert batch.masked.shape == (64, 1)
    assert batch.masked.sum() == 48


def test_mae_mask_deterministic_under_seed():
    patches = Tensor(Rng(0).normal((16, 4)))
    a = mae_mask(patches, 0.5, Rng(7))
    b = mae_mask(patches, 0.5, Rng(7))
    assert np.array_equal(a.masked, b.masked)


def test_mae_mask_degenerate_ratio():
    patches = Tensor(Rng(0).normal((4, 4)))
    with pytest.raises(DegenerateRatioError):
        mae_mask(patches, 0.999, Rng(1))
    with pytest.raises(DegenerateRatioError):
        mae_mask(patches, 0.01, Rng(1))


def test_mae_loss_perfect_reconstruction_is_zero():
    patches = Tensor(Rng(0).normal((8, 4)))
    batch = mae_mask(patches, 0.5, Rng(1))
    assert mae_loss(patches, patches, batch).item() == 0.0


def test_mae_loss_ignores_visible_positions_exactly():
    rng = Rng(2)
    patches = Tensor(rng.normal((8, 4)))
    recon = Tensor(rng.normal((8, 4)))
    batch = mae_mask(patches, 0.5, Rng(3))
    base = mae_loss(recon, patches, batch).item()
    perturbed = recon.data.copy()
    for i in range(8):
        if not batch.masked[i, 0]:
            perturbed[i] += rng.normal((4,), std=10.0)
    assert mae_loss(Tensor(perturbed), patches, batch).item() == base


def test_mae_loss_gradient_matches_finite_differences():
    rng = Rng(4)
    patches = Tensor(rng.normal((6, 3)))
    batch = mae_mask(patches, 0.5, Rng(5))
    recon = Tensor(rng.normal((6, 3)), requires_grad=True)
    mae_loss(recon, patches, batch).backward()
    fd = tc.finite_diff_grad(lambda t: mae_loss(t, patches, batch), recon, h=1e-5)
    assert np.allclose(fd, recon.grad, rtol=1e-3, atol=1e-8)


def test_mae_forward_shape_and_training_reduces_loss():
    cfg = MAEConfig(patch_dim=9, n_patches=16, d_model=16, n_heads=2, n_layers=1)
    params = init_mae_params(cfg, Rng(0))
    data = [Tensor(Rng(100 + i).uniform((16, 9))) for i in range(4)]
    batch = mae_mask(data[0], 0.75, Rng(1))
    assert mae_forward(params, cfg, batch).shape == (16, 9)

    opt = Adam(params, lr=3e-3)
    first = None
    last = None
    for step in range(120):
        opt.zero_grad()
        total = None
        for i, patches in enumerate(data):
            b = mae_mask(patches, 0.75, Rng(1000 + step).split(str(i)))
            loss = mae_loss(mae_forward(params, cfg, b), patches, b)
            total = loss if total is None else tc.add(total, loss)
        total.backward()
        opt.step()
        value = total.item() / len(data)
        first = value if first is None else first
        last = value
    assert last < first / 3


def test_mae_batch_equals_mean_of_batch_of_one_calls():
    cfg = MAEConfig(patch_dim=9, n_patches=16, d_model=16, n_heads=2, n_layers=2)
    params = init_mae_params(cfg, Rng(0))
    ones = [mae_mask(Tensor(Rng(100 + i).uniform((16, 9))), 0.75, Rng(i))
            for i in range(3)]
    batch = pt.MAEBatch(Tensor(np.stack([b.patches.data for b in ones])),
                        np.stack([b.masked for b in ones]))

    def loss_of(b):
        return lambda: mae_loss(mae_forward(params, cfg, b), b.patches, b)

    got, got_grads = loss_and_grads(params, loss_of(batch))
    want, want_grads = summed_loss_and_grads(
        params, [loss_of(pt.MAEBatch(tc.reshape(b.patches, (1, 16, 9)), b.masked[None]))
                 for b in ones], scale=1.0 / len(ones))
    assert got == pytest.approx(want, rel=1e-12)
    assert_grads_close(got_grads, want_grads)


# ---------------------------------------------------------------------------
# Language modeling
# ---------------------------------------------------------------------------

LM_BATCH = [[1, 5, 9, 13, 2], [1, 7, 2], [1, 4, 4, 8, 11, 15, 2], [3, 6]]


def test_lm_batch_equals_mean_of_batch_of_one_calls():
    cfg, params = small_decoder()
    got, got_grads = loss_and_grads(params, lambda: lm_loss(params, cfg, LM_BATCH))
    want, want_grads = summed_loss_and_grads(
        params, [lambda seq=seq: lm_loss(params, cfg, [seq]) for seq in LM_BATCH],
        scale=1.0 / len(LM_BATCH))
    assert got == pytest.approx(want, rel=1e-12)
    assert_grads_close(got_grads, want_grads)


INSTRUCTION_BATCH = ([[5, 6, 7], [8], [9, 10]], [[11, 2], [12, 13, 14, 2], [2]])


@pytest.mark.parametrize("loss", ["lm", "instruction"])
def test_losses_match_the_all_positions_formulation(loss):
    """The losses compute logits only at the rows they read; the reference
    computes them everywhere and zero-weights the rest."""
    cfg = DecoderConfig(n_layers=2, d_lm=32, n_heads=2, vocab_size=24, max_len=40)
    params = init_decoder_params(cfg, Rng(3))
    t_g = Tensor(Rng(1).normal((3, 2, cfg.d_lm), std=0.5), requires_grad=True)
    leaves = {**params, "t_g": t_g}
    if loss == "lm":
        fn, reference, args = lm_loss, reference_lm_loss, (LM_BATCH,)
    else:
        fn, reference, args = (instruction_loss, reference_instruction_loss,
                               (t_g, *INSTRUCTION_BATCH))
    got, got_grads = loss_and_grads(leaves, lambda: fn(params, cfg, *args))
    want, want_grads = loss_and_grads(leaves, lambda: reference(params, cfg, *args))
    assert got == pytest.approx(want, rel=1e-12)
    assert_grads_close(got_grads, want_grads)
    assert ("t_g" in got_grads) == (loss == "instruction")


def test_padding_is_invisible_to_the_loss_and_the_gradients(monkeypatch):
    cfg, params = small_decoder()
    t_g = Tensor(Rng(1).normal((3, 2, cfg.d_lm), std=0.5), requires_grad=True)
    leaves = {**params, "t_g": t_g}
    questions, targets = INSTRUCTION_BATCH
    runs = []
    for pad in (0, 17):
        monkeypatch.setattr(gsf, "PAD_ID", pad)
        runs.append((
            loss_and_grads(params, lambda: lm_loss(params, cfg, LM_BATCH)),
            loss_and_grads(leaves, lambda: instruction_loss(
                params, cfg, t_g, questions, targets)),
        ))
    for (loss_a, grads_a), (loss_b, grads_b) in zip(*runs):
        assert loss_a == loss_b
        assert grads_a.keys() == grads_b.keys()
        for name in grads_a:
            assert np.array_equal(grads_a[name], grads_b[name]), name


def test_lm_loss_untrained_is_log_vocab():
    cfg, params = small_decoder(vocab=64)
    ids = list(Rng(1).integers(0, 64, (12,)))
    loss = lm_loss(params, cfg, [[int(t) for t in ids]])
    assert loss.item() == pytest.approx(math.log(64), abs=0.05)


def test_lm_loss_rejects_short_sequences():
    cfg, params = small_decoder()
    with pytest.raises(SequenceTooShortError):
        lm_loss(params, cfg, [[5, 6], [5]])


def test_lm_loss_target_alignment_hand_walk():
    # three-token toy: positions predict ids[1] then ids[2]
    cfg, params = small_decoder()
    ids = [4, 9, 17]
    loss = lm_loss(params, cfg, [ids])
    logits = decoder_forward(params, cfg, [ids[:2]])
    expected = tc.cross_entropy(logits, [ids[1:]], reduction="mean")
    assert loss.item() == pytest.approx(expected.item(), rel=1e-12)


def test_lm_memorizes_one_sequence():
    cfg, params = small_decoder(vocab=24, d=32)
    seq = [1, 5, 9, 13, 17, 21, 8, 2]
    opt = Adam(params, lr=1e-2)
    for _ in range(500):
        opt.zero_grad()
        loss = lm_loss(params, cfg, [seq])
        loss.backward()
        opt.step()
    assert lm_loss(params, cfg, [seq]).item() < 0.1


# ---------------------------------------------------------------------------
# Instruction loss
# ---------------------------------------------------------------------------

def test_instruction_loss_saturated_correct_logit_is_zero():
    cfg, params = small_decoder()
    # the tied head bias dominates every logit: probability 1 on token 7
    bias = np.full(cfg.vocab_size, -40.0)
    bias[7] = 40.0
    params["head_b"] = Tensor(bias, requires_grad=True)
    t_g = Tensor(Rng(1).normal((1, 2, cfg.d_lm), std=0.02))
    loss = instruction_loss(params, cfg, t_g, [[5, 6]], [[7]])
    assert loss.item() == pytest.approx(0.0, abs=1e-6)


def test_instruction_loss_matches_independent_composition():
    cfg, params = small_decoder()
    t_g = Tensor(Rng(1).normal((1, 2, cfg.d_lm), std=0.02))
    t_p = [5, 6, 7]
    s = [9, 10, 11, 2]
    loss = instruction_loss(params, cfg, t_g, [t_p], [s])

    logits = decoder_forward(params, cfg, [t_p + s[:-1]], prefix_embeds=t_g)
    n_prefix = 2 + len(t_p)
    tail = tc.narrow(logits, 1, n_prefix - 1, len(s))
    expected = tc.cross_entropy(tail, [s], reduction="sum")
    assert loss.item() == pytest.approx(expected.item(), abs=1e-12)


def test_instruction_loss_prefix_positions_contribute_nothing():
    cfg, params = small_decoder()
    t_g = Tensor(Rng(1).normal((1, 2, cfg.d_lm), std=0.02))
    t_p = [5, 6, 7]
    s = [9, 10, 2]
    loss = instruction_loss(params, cfg, t_g, [t_p], [s])

    logits = decoder_forward(params, cfg, [t_p + s[:-1]], prefix_embeds=t_g)
    n_prefix = 2 + len(t_p)
    perturbed = logits.data.copy()
    perturbed[0, : n_prefix - 1] += Rng(2).normal(perturbed[0, : n_prefix - 1].shape,
                                                  std=9.0)
    targets_full = [0] * logits.shape[1]
    weights = [0.0] * logits.shape[1]
    for offset, tok in enumerate(s):
        targets_full[n_prefix - 1 + offset] = tok
        weights[n_prefix - 1 + offset] = 1.0
    recomputed = tc.cross_entropy(Tensor(perturbed), [targets_full], [weights],
                                  reduction="sum")
    assert recomputed.item() == pytest.approx(loss.item(), abs=1e-12)


def test_instruction_batch_equals_sum_of_batch_of_one_calls():
    cfg, params = small_decoder()
    t_g = Tensor(Rng(1).normal((3, 2, cfg.d_lm), std=0.5), requires_grad=True)
    leaves = {**params, "t_g": t_g}
    questions, targets = INSTRUCTION_BATCH
    got, got_grads = loss_and_grads(
        leaves, lambda: instruction_loss(params, cfg, t_g, questions, targets))
    want, want_grads = summed_loss_and_grads(leaves, [
        lambda i=i: instruction_loss(params, cfg, tc.narrow(t_g, 0, i, 1),
                                     [questions[i]], [targets[i]])
        for i in range(3)])
    assert got == pytest.approx(want, rel=1e-12)
    assert_grads_close(got_grads, want_grads)


def test_instruction_loss_empty_target():
    cfg, params = small_decoder()
    with pytest.raises(EmptyTargetError):
        instruction_loss(params, cfg, Tensor(np.zeros((1, 2, cfg.d_lm))), [[5]], [[]])


# ---------------------------------------------------------------------------
# Beam search
# ---------------------------------------------------------------------------

def greedy_decode(params, cfg, t_g, t_p, max_len, eos_id=2):
    tokens = []
    with tc.no_grad():
        for _ in range(max_len):
            logits = decoder_forward(params, cfg, [list(t_p) + tokens], prefix_embeds=t_g)
            nxt = int(np.argmax(logits.data[0, -1]))
            tokens.append(nxt)
            if nxt == eos_id:
                break
    return tokens


def test_beam_one_equals_greedy():
    cfg, params = small_decoder()
    t_g = Tensor(Rng(3).normal((1, 2, cfg.d_lm), std=0.02))
    for seed in range(3):
        t_p = [int(x) for x in Rng(seed).integers(4, cfg.vocab_size, (4,))]
        greedy = greedy_decode(params, cfg, t_g, t_p, max_len=8)
        (top, *_rest) = beam_decode(params, cfg, t_g, t_p, beam=1, max_len=8)
        assert list(top.token_ids) == greedy


def test_beam_candidate_count_and_ranking():
    cfg, params = small_decoder()
    t_g = Tensor(Rng(4).normal((1, 2, cfg.d_lm), std=0.02))
    hyps = beam_decode(params, cfg, t_g, [5, 6], beam=5, max_len=6)
    assert 1 <= len(hyps) <= 5
    scores = [h.normalized for h in hyps]
    assert scores == sorted(scores, reverse=True)


def test_beam_decode_deterministic():
    cfg, params = small_decoder()
    t_g = Tensor(Rng(5).normal((1, 2, cfg.d_lm), std=0.02))
    a = beam_decode(params, cfg, t_g, [5, 6, 7], beam=4, max_len=6)
    b = beam_decode(params, cfg, t_g, [5, 6, 7], beam=4, max_len=6)
    assert a == b


def test_beam_requires_positive_width():
    cfg, params = small_decoder()
    with pytest.raises(ValueError):
        beam_decode(params, cfg, None, [5], beam=0)


def test_overfit_decoder_ranks_memorized_sequence_first():
    cfg, params = small_decoder(vocab=24, d=32)
    t_p = [4, 7]
    target = [11, 15, 19, 2]
    opt = Adam(params, lr=1e-2)
    t_g = Tensor(Rng(6).normal((1, 2, cfg.d_lm), std=0.02))
    for _ in range(300):
        opt.zero_grad()
        loss = instruction_loss(params, cfg, t_g, [t_p], [target])
        loss.backward()
        opt.step()
    hyps = beam_decode(params, cfg, t_g, t_p, beam=3, max_len=8)
    assert list(hyps[0].token_ids) == target


# ---------------------------------------------------------------------------
# KV-cached beam search against the uncached reference
# ---------------------------------------------------------------------------

def cache_decoder(seed, max_len=40):
    cfg = DecoderConfig(n_layers=2, d_lm=32, n_heads=4, vocab_size=24,
                        max_len=max_len)
    params = init_decoder_params(cfg, Rng(seed))
    for p in params.values():
        p.data *= 5.0  # sharpen next-token distributions away from uniform
    return cfg, params


@pytest.mark.parametrize("with_t_g", [False, True])
@pytest.mark.parametrize("beam", [1, 4, 10])
@pytest.mark.parametrize("seed", range(5))
def test_cached_beam_decode_matches_uncached_reference(seed, beam, with_t_g):
    cfg, params = cache_decoder(seed)
    t_g = (Tensor(Rng(seed + 10).normal((1, 3, cfg.d_lm), std=0.5))
           if with_t_g else None)
    t_p = [int(x) for x in Rng(seed).integers(3, cfg.vocab_size, (4,))]
    cached = beam_decode(params, cfg, t_g, t_p, beam=beam, max_len=12)
    assert_same_beams(cached, reference_beam_decode(params, cfg, t_g, t_p,
                                                    beam=beam, max_len=12))
    assert len(cached) == beam
    assert_identical_beams(cached, reference_list_beam_decode(params, cfg, t_g, t_p,
                                                              beam=beam, max_len=12))


def test_cached_beam_decode_matches_reference_when_eos_comes_early():
    cfg, params = cache_decoder(7)
    params["head_b"].data[2] += 4.0  # make EOS a likely continuation
    t_g = Tensor(Rng(8).normal((1, 2, cfg.d_lm), std=0.5))
    cached = beam_decode(params, cfg, t_g, [5, 9], beam=4, max_len=10)
    assert_same_beams(cached, reference_beam_decode(params, cfg, t_g, [5, 9],
                                                    beam=4, max_len=10))
    assert any(h.token_ids[-1] == 2 and len(h.token_ids) < 10 for h in cached)
    assert_identical_beams(cached, reference_list_beam_decode(params, cfg, t_g, [5, 9],
                                                              beam=4, max_len=10))


@pytest.mark.parametrize("beam", [1, 4, 10])
def test_array_beam_step_breaks_score_ties_as_the_list_step(beam):
    # a zero embedding makes every step's logits head_b, whose values come in
    # pairs: expansions tie within a parent and across parents of equal score
    cfg, params = cache_decoder(3)
    params["tok_emb"].data[:] = 0.0
    params["head_b"].data[:] = np.repeat(np.arange(cfg.vocab_size // 2), 2)
    got = beam_decode(params, cfg, None, [5, 6], beam=beam, max_len=6)
    assert_identical_beams(got, reference_list_beam_decode(params, cfg, None, [5, 6],
                                                           beam=beam, max_len=6))
    assert len({h.log_prob for h in got}) < len(got) or beam == 1


def test_array_beam_step_keeps_eos_expansions_below_the_beam_cut():
    # the returned (..., 0, 10, 12, 2) ranked below the beam cut at its step
    cfg, params = cache_decoder(3)
    t_g = Tensor(Rng(13).normal((1, 3, cfg.d_lm), std=0.5))
    t_p = [int(x) for x in Rng(3).integers(3, cfg.vocab_size, (4,))]
    got = beam_decode(params, cfg, t_g, t_p, beam=4, max_len=10)
    assert_identical_beams(got, reference_list_beam_decode(params, cfg, t_g, t_p,
                                                           beam=4, max_len=10))
    assert got[-1].token_ids[-4:] == (0, 10, 12, 2)


def test_cached_beam_decode_hits_the_length_limit_at_the_same_step():
    # prefix 2 + 4 = 6 rows; the step that would hold 11 rows passes max_len 10
    cfg, params = cache_decoder(9, max_len=10)
    t_g = Tensor(Rng(9).normal((1, 2, cfg.d_lm), std=0.5))
    t_p = [4, 5, 6, 7]
    assert_same_beams(
        beam_decode(params, cfg, t_g, t_p, beam=3, max_len=5),
        reference_beam_decode(params, cfg, t_g, t_p, beam=3, max_len=5))
    assert_identical_beams(
        beam_decode(params, cfg, t_g, t_p, beam=3, max_len=5),
        reference_list_beam_decode(params, cfg, t_g, t_p, beam=3, max_len=5))
    for decode in (beam_decode, reference_beam_decode):
        with pytest.raises(tc.ShapeMismatchError, match="sequence too long"):
            decode(params, cfg, t_g, t_p, beam=3, max_len=6)


@pytest.mark.parametrize("beam", [1, 4])
@pytest.mark.parametrize("n_visual", [0, 3])
def test_cache_filled_to_the_decoder_limit_fails_at_the_reference_step(beam, n_visual):
    # decode max_len 24 outruns cfg.max_len 12: the cache fills every position
    # the decoder has, then the next step must fail where the reference fails
    cfg, params = cache_decoder(11, max_len=12)
    params["head_b"].data[2] -= 50.0  # no hypothesis ends before the limit
    t_g = Tensor(Rng(12).normal((1, n_visual, cfg.d_lm), std=0.5)) if n_visual else None
    t_p = [4, 5, 6]
    fill = cfg.max_len - n_visual - len(t_p) + 1  # steps that fit exactly
    assert_same_beams(
        beam_decode(params, cfg, t_g, t_p, beam=beam, max_len=fill),
        reference_beam_decode(params, cfg, t_g, t_p, beam=beam, max_len=fill))
    shapes = []
    for decode in (beam_decode, reference_beam_decode):
        with pytest.raises(tc.ShapeMismatchError, match="sequence too long") as err:
            decode(params, cfg, t_g, t_p, beam=beam, max_len=24)
        shapes.append(err.value.shapes)
    assert shapes[0] == shapes[1] == ((cfg.max_len + 1,), (cfg.max_len,))
