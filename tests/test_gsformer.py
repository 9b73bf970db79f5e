import math
from dataclasses import asdict

import numpy as np
import pytest

from geoformal import gsformer as gsf
from geoformal import tensorcore as tc
from geoformal.formal_lang import OutOfVocabError
from geoformal.gsformer import (
    AlignedFeatures,
    BatchTooSmallError,
    GSFormerConfig,
    SGSState,
    alignment_loss,
    gqg_queries,
    gs_former_forward,
    init_params,
    mha,
    pretrain_loss,
    sgs_update_mask,
    sparsification_loss,
)
from geoformal.tensorcore import Rng, Tensor

from oracles import (
    assert_grads_close,
    loss_and_grads,
    reference_alignment_loss,
    reference_gs_former_forward,
    reference_mha,
    reference_pretrain_loss,
)


def tiny_config(**overrides) -> GSFormerConfig:
    base = dict(
        n_layers=3, n_queries=4, d_model=16, n_heads=2, d_in=9,
        n_patches=12, vocab_size=24, max_caption_len=10, embed_dim=8,
        sgs_layers=(1, 2), lam=0.5, tau=1.0,
    )
    base.update(overrides)
    return GSFormerConfig(**base)


def random_batch(cfg, rng, size, cap_len=5):
    """(B, N, d_in) patches and captions of cap_len and cap_len - 1 tokens in
    turn, so every batch of two or more is padded."""
    patches, captions = [], []
    for i in range(size):
        patches.append(rng.normal((cfg.n_patches, cfg.d_in)))
        ids = [1] + list(rng.integers(4, cfg.vocab_size, (cap_len - 1 - i % 2,)))
        captions.append([int(t) for t in ids])
    return Tensor(np.stack(patches)), captions


def one_diagram(cfg, seed):
    return Tensor(Rng(seed).normal((1, cfg.n_patches, cfg.d_in)))


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

def test_config_defaults_validate():
    cfg = GSFormerConfig()
    assert cfg.n_queries == 8
    assert cfg.sgs_layers == (2, 3)


@pytest.mark.parametrize("bad", [
    dict(sgs_layers=(0,)),
    dict(sgs_layers=(4,), n_layers=4),
    dict(lam=-0.1),
    dict(n_queries=0),
    dict(tau=0.0),
    dict(d_model=30, n_heads=4),
    dict(n_heads=0),
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        GSFormerConfig(**bad)


def test_config_json_roundtrip():
    cfg = tiny_config()
    assert GSFormerConfig(**asdict(cfg)) == cfg


def test_tau_anneal_schedule():
    cfg = tiny_config(tau=1.0, tau_final=0.5)
    assert cfg.tau_at(0, 101) == 1.0
    assert cfg.tau_at(100, 101) == 0.5
    assert cfg.tau_at(50, 101) == pytest.approx(0.75)
    fixed = tiny_config(tau=1.0)
    assert fixed.tau_at(73, 101) == 1.0
    with pytest.raises(ValueError):
        tiny_config(tau_final=0.0)


# ---------------------------------------------------------------------------
# Query generator
# ---------------------------------------------------------------------------

def test_gqg_zero_context_is_identity():
    cfg = tiny_config()
    params = init_params(cfg, Rng(0))
    params["gqg_w"] = tc.zeros((cfg.d_model, cfg.d_model), requires_grad=True)
    params["gqg_b"] = tc.zeros((cfg.d_model,), requires_grad=True)
    queries = Tensor(Rng(1).normal((cfg.n_queries, cfg.d_model)), requires_grad=True)
    out = gqg_queries(tc.zeros((cfg.n_patches, cfg.d_model)), queries, params)
    assert np.array_equal(out.data, queries.data)


def test_gqg_depends_on_patch_content():
    cfg = tiny_config()
    params = init_params(cfg, Rng(0))
    queries = params["queries"]
    rng = Rng(2)
    a = gqg_queries(Tensor(rng.normal((cfg.n_patches, cfg.d_model))), queries, params)
    b = gqg_queries(Tensor(rng.normal((cfg.n_patches, cfg.d_model))), queries, params)
    assert not np.allclose(a.data, b.data)


def test_gqg_gradient_reaches_queries_and_projection():
    cfg = tiny_config()
    params = init_params(cfg, Rng(0))
    pf = Tensor(Rng(3).normal((cfg.n_patches, cfg.d_model)))
    out = gqg_queries(pf, params["queries"], params)
    tc.tsum(tc.mul(out, out)).backward()
    assert params["queries"].grad is not None
    assert np.abs(params["queries"].grad).max() > 0
    assert params["gqg_w"].grad is not None
    assert np.abs(params["gqg_w"].grad).max() > 0


# ---------------------------------------------------------------------------
# Sampler mask updates
# ---------------------------------------------------------------------------

def test_sgs_zero_prev_mask_absorbs():
    cfg = tiny_config()
    params = init_params(cfg, Rng(0))
    new_mask = sgs_update_mask(
        tc.zeros((cfg.n_patches,)), Tensor(Rng(1).normal((cfg.n_patches, cfg.d_model))),
        params["sgs1_w"], params["sgs1_b"], 1.0, True, Rng(2),
    )
    assert np.all(new_mask.data == 0.0)


def test_sgs_saturated_keep_logits_keep_everything():
    n, d = 6, 4
    w = tc.zeros((d, 2))
    b = Tensor([40.0, -40.0])
    new_mask = sgs_update_mask(
        tc.ones((n,)), Tensor(Rng(3).normal((n, d))), w, b, 1.0, True, Rng(4),
    )
    assert np.all(new_mask.data == 1.0)
    # the soft sample keeps every patch with probability ~1 despite the noise
    soft = sgs_update_mask(
        tc.ones((n,)), Tensor(Rng(3).normal((n, d))), w, b, 1.0, False, Rng(4),
    )
    assert np.all(soft.data > 0.999)


def test_sgs_hard_mode_mask_laws_over_random_states():
    rng = Rng(5)
    noise = Rng(6)
    n, d = 8, 4
    for _ in range(1000):
        prev = Tensor((rng.uniform((n,)) > 0.3).astype(float))
        w = Tensor(rng.normal((d, 2), std=0.5))
        b = Tensor(rng.normal((2,), std=0.5))
        new_mask = sgs_update_mask(
            prev, Tensor(rng.normal((n, d))), w, b, 1.0, True, noise.split(str(_)),
        )
        assert np.all(np.isin(new_mask.data, (0.0, 1.0)))
        assert np.all(new_mask.data <= prev.data)


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------

def test_forward_without_sgs_keeps_all_ones_mask():
    cfg = tiny_config(sgs_layers=())
    params = init_params(cfg, Rng(0))
    _, state, _ = gs_former_forward(one_diagram(cfg, 1), [[1, 5, 6]], cfg, params,
                                    [Rng(2)])
    assert state.n_stages == 1
    assert np.all(state.masks[0].data == 1.0)


def test_forward_output_shapes_default_queries():
    cfg = GSFormerConfig(d_in=9, n_patches=12, vocab_size=24, d_model=16,
                         n_heads=2, max_caption_len=10)
    params = init_params(cfg, Rng(0))
    patches = Tensor(Rng(1).normal((2, cfg.n_patches, cfg.d_in)))
    feats, state, logits = gs_former_forward(patches, [[1, 5, 6, 2], [1, 7, 2]],
                                             cfg, params, [Rng(2), Rng(3)])
    assert feats.f_g.shape == (2, 8, cfg.d_model)
    assert feats.text_cls.shape == (2, cfg.d_model)
    assert logits.shape == (2, 4, cfg.vocab_size)  # padded to the longest caption
    assert state.masks[0].data.tolist() == [[1.0] * cfg.n_patches] * 2


def test_forward_stage_zero_mask_always_all_ones():
    cfg = tiny_config()
    params = init_params(cfg, Rng(0))
    for seed in range(5):
        _, state, _ = gs_former_forward(one_diagram(cfg, seed), [[1, 4]], cfg, params,
                                        [Rng(seed)], hard=True)
        assert np.all(state.masks[0].data == 1.0)
        assert state.n_stages == 3


def test_forward_masking_changes_queries():
    cfg = tiny_config(sgs_layers=(1,))
    params = init_params(cfg, Rng(0))
    patches = one_diagram(cfg, 1)
    baseline, _, _ = gs_former_forward(patches, [[]], tiny_config(sgs_layers=()),
                                       params, None, hard=True)
    params["sgs1_b"] = Tensor([-40.0, 40.0], requires_grad=True)  # drop every patch
    dropped, state, _ = gs_former_forward(patches, [[]], cfg, params, None, hard=True)
    assert np.all(state.masks[-1].data == 0.0)
    assert not np.allclose(baseline.f_g.data, dropped.f_g.data)
    assert np.all(np.isfinite(dropped.f_g.data))


def test_forward_queries_independent_of_caption():
    cfg = tiny_config()
    params = init_params(cfg, Rng(0))
    patches = one_diagram(cfg, 1)
    with_caption, _, _ = gs_former_forward(patches, [[1, 7, 9, 2]], cfg, params, [Rng(3)])
    other_caption, _, _ = gs_former_forward(patches, [[1, 5, 11, 2]], cfg, params, [Rng(3)])
    without, _, _ = gs_former_forward(patches, [[]], cfg, params, [Rng(3)])
    # the caption's content never reaches the queries
    assert np.array_equal(with_caption.f_g.data, other_caption.f_g.data)
    # a query row's softmax also sums the caption keys' zero weights, and
    # numpy groups a sum of n_queries + 4 terms differently from one of
    # n_queries = 4
    _assert_close(with_caption.f_g.data, without.f_g.data)
    assert without.text_cls is None

    cfg = GSFormerConfig()
    params = init_params(cfg, Rng(0))
    patches = one_diagram(cfg, 1)
    with_caption, _, _ = gs_former_forward(patches, [[1, 7, 9, 2]], cfg, params, [Rng(3)])
    without, _, _ = gs_former_forward(patches, [[]], cfg, params, [Rng(3)])
    assert np.array_equal(with_caption.f_g.data, without.f_g.data)


def test_forward_bit_identical_with_fixed_seed():
    cfg = tiny_config()
    params = init_params(cfg, Rng(0))
    patches = one_diagram(cfg, 1)
    a, _, la = gs_former_forward(patches, [[1, 5]], cfg, params, [Rng(7)])
    b, _, lb = gs_former_forward(patches, [[1, 5]], cfg, params, [Rng(7)])
    assert np.array_equal(a.f_g.data, b.f_g.data)
    assert np.array_equal(la.data, lb.data)


def test_forward_rejects_out_of_vocab_ids():
    cfg = tiny_config()
    params = init_params(cfg, Rng(0))
    with pytest.raises(OutOfVocabError):
        gs_former_forward(one_diagram(cfg, 1), [[cfg.vocab_size]], cfg, params, [Rng(2)])


def test_forward_rejects_a_batch_that_mixes_captioned_and_caption_free():
    cfg = tiny_config()
    params = init_params(cfg, Rng(0))
    patches = Tensor(Rng(1).normal((2, cfg.n_patches, cfg.d_in)))
    with pytest.raises(ValueError, match="mixes"):
        gs_former_forward(patches, [[1, 5], []], cfg, params, None)


# ---------------------------------------------------------------------------
# Sparsification loss
# ---------------------------------------------------------------------------

def test_sparsification_all_ones_is_one():
    state = SGSState(masks=[tc.ones((5,)), tc.ones((5,))])
    assert sparsification_loss(state).item() == 1.0


def test_sparsification_all_zero_is_zero():
    state = SGSState(masks=[tc.zeros((5,)), tc.zeros((5,))])
    assert sparsification_loss(state).item() == 0.0


def test_sparsification_hand_fixture():
    state = SGSState(masks=[Tensor([1.0, 1.0, 0.0, 0.0]), Tensor([1.0, 0.0, 0.0, 0.0])])
    assert sparsification_loss(state).item() == pytest.approx(3.0 / 8.0, abs=0)


def test_sparsification_bounds():
    rng = Rng(8)
    for _ in range(50):
        masks = [Tensor(rng.uniform((6,))) for _ in range(3)]
        value = sparsification_loss(SGSState(masks=masks)).item()
        assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# Head-batched attention against the per-head reference
# ---------------------------------------------------------------------------

def _grads_of(build, params, weight):
    for p in params.values():
        p.grad = None
    out = build()
    tc.tsum(tc.mul(out, weight)).backward()
    return out.data, {k: p.grad for k, p in params.items() if p.grad is not None}


def _assert_close(a, b, tol=1e-12):
    assert np.abs(a - b).max() <= tol * max(1.0, np.abs(b).max())


@pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "batched"])
@pytest.mark.parametrize("mask_kind", ["none", "key", "causal"])
def test_mha_matches_per_head_reference(lead, mask_kind):
    cfg = tiny_config(n_heads=4)
    params = init_params(cfg, Rng(0))
    prefix = "layer1.ca_"
    attn = {k: p for k, p in params.items() if k.startswith(prefix)}
    rng = Rng(1)
    n_q, n_k = 5, 7
    x_q = Tensor(rng.normal(lead + (n_q, cfg.d_model)), requires_grad=True)
    x_kv = Tensor(rng.normal(lead + (n_k, cfg.d_model)), requires_grad=True)
    for p in attn.values():
        p.data = p.data + rng.normal(p.shape, std=0.3)
    mask = {
        "none": None,
        "key": Tensor(0.2 + 0.8 * rng.uniform((n_k,)), requires_grad=True),
        "causal": Tensor(np.tril(np.ones((n_q, n_k)), k=2)),
    }[mask_kind]
    weight = Tensor(rng.normal(lead + (n_q, cfg.d_model)))
    leaves = {**attn, "x_q": x_q, "x_kv": x_kv}
    if mask is not None and mask.requires_grad:
        leaves["mask"] = mask
    got, got_grads = _grads_of(
        lambda: mha(params, prefix, x_q, x_kv, cfg.n_heads, mask), leaves, weight)
    want, want_grads = _grads_of(
        lambda: reference_mha(params, prefix, x_q, x_kv, cfg.n_heads, mask),
        leaves, weight)
    _assert_close(got, want)
    assert got_grads.keys() == want_grads.keys() == leaves.keys()
    for name in want_grads:
        _assert_close(got_grads[name], want_grads[name])


# ---------------------------------------------------------------------------
# Alignment losses
# ---------------------------------------------------------------------------

def _forward_batch(cfg, params, batch, rng):
    patches, captions = batch
    rngs = [rng.split(str(i)) for i in range(len(captions))]
    feats, _, logits = gs_former_forward(patches, captions, cfg, params, rngs)
    return feats, logits, captions


def _stacked(rows):
    return AlignedFeatures(f_g=Tensor(np.stack([r[0] for r in rows])),
                           text_cls=Tensor(np.stack([r[1] for r in rows])))


def _permuted(feats, logits, targets, perm):
    return (AlignedFeatures(Tensor(feats.f_g.data[perm]), Tensor(feats.text_cls.data[perm])),
            Tensor(logits.data[perm]), [targets[i] for i in perm])


def test_contrast_identical_aligned_pairs_is_log_batch():
    cfg = tiny_config()
    params = init_params(cfg, Rng(0))
    row = (Rng(1).normal((cfg.n_queries, cfg.d_model)), Rng(2).normal((cfg.d_model,)))
    logits = Rng(3).normal((3, cfg.vocab_size))
    l_contrast, _, _ = alignment_loss(
        _stacked([row, row]), Tensor(np.stack([logits, logits])),
        [[1, 5, 6], [1, 5, 6]], params
    )
    assert l_contrast.item() == pytest.approx(math.log(2), abs=1e-9)


def test_contrast_matches_numpy_infonce_at_batch_two():
    cfg = tiny_config()
    params = init_params(cfg, Rng(0))
    batch = random_batch(cfg, Rng(1), 2)
    feats, logits, targets = _forward_batch(cfg, params, batch, Rng(2))
    l_contrast, _, _ = alignment_loss(feats, logits, targets, params)

    # independent numpy recomputation
    def project(row, w, b):
        v = row @ w + b
        return v / math.sqrt(float(v @ v) + 1e-12)

    g = np.stack([
        project(f_g.mean(axis=0), params["vis_proj_w"].data,
                params["vis_proj_b"].data)
        for f_g in feats.f_g.data
    ])
    t = np.stack([
        project(text, params["txt_proj_w"].data, params["txt_proj_b"].data)
        for text in feats.text_cls.data
    ])
    sim = (g @ t.T) * math.exp(params["log_scale"].item())

    def ce_diag(s):
        shifted = s - s.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return -logp[np.arange(len(s)), np.arange(len(s))].mean()

    expected = 0.5 * (ce_diag(sim) + ce_diag(sim.T))
    assert l_contrast.item() == pytest.approx(expected, rel=1e-12)


def test_caption_loss_one_hot_correct_is_zero():
    cfg = tiny_config()
    params = init_params(cfg, Rng(0))
    ids = [1, 5, 6, 2]
    hot = np.full((4, cfg.vocab_size), -40.0)
    for pos, nxt in enumerate(ids[1:]):
        hot[pos, nxt] = 40.0
    feats = _stacked([
        (Rng(1).normal((cfg.n_queries, cfg.d_model)), Rng(2).normal((cfg.d_model,))),
        (Rng(3).normal((cfg.n_queries, cfg.d_model)), Rng(4).normal((cfg.d_model,))),
    ])
    _, _, l_caption = alignment_loss(
        feats, Tensor(np.stack([hot, hot])), [ids, ids], params
    )
    assert l_caption.item() == pytest.approx(0.0, abs=1e-12)


def test_losses_invariant_under_batch_swap():
    cfg = tiny_config()
    params = init_params(cfg, Rng(0))
    batch = random_batch(cfg, Rng(1), 2)
    feats, logits, targets = _forward_batch(cfg, params, batch, Rng(2))
    fwd = alignment_loss(feats, logits, targets, params)
    rev = alignment_loss(*_permuted(feats, logits, targets, [1, 0]), params)
    for a, b in zip(fwd, rev):
        assert a.item() == pytest.approx(b.item(), rel=1e-12)


def test_contrast_and_caption_invariant_under_any_permutation():
    cfg = tiny_config()
    params = init_params(cfg, Rng(0))
    batch = random_batch(cfg, Rng(1), 4)
    feats, logits, targets = _forward_batch(cfg, params, batch, Rng(2))
    base = alignment_loss(feats, logits, targets, params)
    mixed = alignment_loss(*_permuted(feats, logits, targets, [2, 0, 3, 1]),
                           params)
    assert mixed[0].item() == pytest.approx(base[0].item(), rel=1e-12)
    assert mixed[2].item() == pytest.approx(base[2].item(), rel=1e-12)


def _forward_one_by_one(cfg, params, batch, rng):
    patches, captions = batch
    feats, logits = [], []
    for i, ids in enumerate(captions):
        f, _, cap_logits = gs_former_forward(
            tc.narrow(patches, 0, i, 1), [ids], cfg, params, [rng.split(str(i))])
        feats.append(f)
        logits.append(cap_logits)
    return feats, logits, captions


@pytest.mark.parametrize("size", [2, 5])
def test_batched_alignment_loss_matches_per_row_reference(size):
    cfg = tiny_config()
    params = init_params(cfg, Rng(0))
    batch = random_batch(cfg, Rng(1), size)

    for index in range(3):
        got, got_grads = _grads_of(
            lambda: alignment_loss(*_forward_batch(cfg, params, batch, Rng(2)),
                                   params)[index],
            params, Tensor(1.0))
        want, want_grads = _grads_of(
            lambda: reference_alignment_loss(
                *_forward_one_by_one(cfg, params, batch, Rng(2)), params)[index],
            params, Tensor(1.0))
        _assert_close(got, want)
        assert got_grads.keys() == want_grads.keys()
        for name in want_grads:
            _assert_close(got_grads[name], want_grads[name])


@pytest.mark.parametrize("size", [2, 5])
def test_pretrain_loss_matches_batch_of_one_forwards(size):
    cfg = tiny_config()
    params = init_params(cfg, Rng(0))
    patches, captions = random_batch(cfg, Rng(1), size)
    got, got_grads = loss_and_grads(
        params, lambda: pretrain_loss(patches, captions, cfg, params, Rng(2)).tensor)
    want, want_grads = loss_and_grads(
        params, lambda: reference_pretrain_loss(patches, captions, cfg, params, Rng(2)))
    assert got == pytest.approx(want, rel=1e-12)
    assert_grads_close(got_grads, want_grads)


def _forward_and_loss(forward, cfg, params, batch, hard):
    """Features and caption logits of `forward` and the loss and gradients of
    `pretrain_loss` (which runs `gsformer.gs_former_forward`) on one batch,
    each example with its own Rng."""
    patches, captions = batch
    rngs = [Rng(2).split(f"sample{i}") for i in range(len(captions))]
    feats, _, logits = forward(patches, captions, cfg, params, rngs, hard)
    loss, grads = loss_and_grads(
        params, lambda: pretrain_loss(patches, captions, cfg, params, Rng(2), hard).tensor)
    return feats, logits, loss, grads


@pytest.mark.parametrize("hard", [False, True], ids=["soft", "hard"])
def test_one_block_layer_matches_the_inlined_reference_layer(monkeypatch, hard):
    cfg = tiny_config()
    params = init_params(cfg, Rng(0))
    batch = random_batch(cfg, Rng(1), 3)
    feats, logits, loss, grads = _forward_and_loss(gs_former_forward, cfg, params,
                                                   batch, hard)
    monkeypatch.setattr(gsf, "gs_former_forward", reference_gs_former_forward)
    ref_feats, ref_logits, ref_loss, ref_grads = _forward_and_loss(
        reference_gs_former_forward, cfg, params, batch, hard)
    _assert_close(feats.f_g.data, ref_feats.f_g.data)
    _assert_close(feats.text_cls.data, ref_feats.text_cls.data)
    _assert_close(logits.data, ref_logits.data)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert_grads_close(grads, ref_grads)


@pytest.mark.parametrize("hard", [False, True], ids=["soft", "hard"])
def test_caption_free_layer_is_bit_identical_to_the_reference(hard):
    """Without a caption the block runs the queries alone: no self mask, no
    narrow or concat, so the arithmetic is the reference's."""
    cfg = tiny_config()
    params = init_params(cfg, Rng(0))
    patches = Tensor(Rng(1).normal((3, cfg.n_patches, cfg.d_in)))
    weight = Tensor(Rng(4).normal((3, cfg.n_queries, cfg.d_model)))
    results = []
    for forward in (gs_former_forward, reference_gs_former_forward):
        f_g = forward(patches, [[]] * 3, cfg, params,
                      [Rng(2).split(str(i)) for i in range(3)], hard)[0].f_g
        results.append((f_g.data, _grads_of(lambda: f_g, params, weight)[1]))
    (got, got_grads), (want, want_grads) = results
    assert np.array_equal(got, want)
    assert got_grads.keys() == want_grads.keys()
    for name in want_grads:
        assert np.array_equal(got_grads[name], want_grads[name]), name


def test_alignment_rejects_batch_of_one():
    cfg = tiny_config()
    params = init_params(cfg, Rng(0))
    batch = random_batch(cfg, Rng(1), 1)
    feats, logits, targets = _forward_batch(cfg, params, batch, Rng(2))
    with pytest.raises(BatchTooSmallError):
        alignment_loss(feats, logits, targets, params)


# ---------------------------------------------------------------------------
# Total pretraining loss
# ---------------------------------------------------------------------------

def test_pretrain_loss_lambda_zero_total_equals_align():
    cfg = tiny_config(lam=0.0)
    params = init_params(cfg, Rng(0))
    out = pretrain_loss(*random_batch(cfg, Rng(1), 2), cfg, params, Rng(2))
    assert out.l_total == out.l_align


def test_pretrain_loss_lambda_linearity_exact():
    params = init_params(tiny_config(), Rng(0))
    rng = Rng(3)
    for _ in range(20):
        lam = float(rng.uniform(()) * 4.0)
        cfg = tiny_config(lam=lam)
        out = pretrain_loss(*random_batch(cfg, Rng(1), 2), cfg, params, Rng(2))
        assert out.l_total == out.l_align + lam * out.l_spr


def test_pretrain_loss_components_finite_and_nonnegative():
    cfg = tiny_config()
    params = init_params(cfg, Rng(0))
    out = pretrain_loss(*random_batch(cfg, Rng(1), 3), cfg, params, Rng(2))
    for value in (out.l_contrast, out.l_match, out.l_caption,
                  out.l_align, out.l_spr, out.l_total):
        assert math.isfinite(value)
        assert value >= 0.0
    assert len(out.keep_rates) == 3
    assert out.keep_rates[0] == 1.0


def test_pretrain_loss_gradient_spot_check_vs_finite_differences():
    cfg = tiny_config(n_layers=2, sgs_layers=(1,))
    params = init_params(cfg, Rng(0))
    batch = random_batch(cfg, Rng(1), 2, cap_len=4)

    def loss_value() -> float:
        return pretrain_loss(*batch, cfg, params, Rng(5), hard=False).l_total

    out = pretrain_loss(*batch, cfg, params, Rng(5), hard=False)
    out.tensor.backward()
    rng = Rng(6)
    names = sorted(params)
    for _ in range(8):
        name = names[rng.integers(0, len(names))]
        p = params[name]
        if p.grad is None or p.data.size == 0:
            continue
        flat_index = rng.integers(0, p.data.size)
        index = np.unravel_index(flat_index, p.data.shape)
        fd = tc.finite_diff_coord(loss_value, p, index, h=1e-5)
        bp = float(p.grad[index])
        assert abs(fd - bp) <= 1e-3 * max(abs(fd), abs(bp), 1e-4), name


def test_pretrain_training_sanity_moving_average_decreases():
    cfg = tiny_config(n_layers=2, sgs_layers=(1,), n_patches=8, d_in=6)
    params = init_params(cfg, Rng(0))
    batch = random_batch(cfg, Rng(1), 8, cap_len=4)
    opt = tc.Adam(params, lr=3e-3)
    losses = []
    for step in range(120):
        opt.zero_grad()
        out = pretrain_loss(*batch, cfg, params, Rng(1000 + step))
        out.tensor.backward()
        opt.step()
        losses.append(out.l_total)
    ma = [float(np.mean(losses[i - 10: i])) for i in range(10, len(losses) + 1)]
    assert ma[-1] < ma[0]
    for k in range(30, len(ma), 30):
        assert ma[k] < ma[k - 30]
