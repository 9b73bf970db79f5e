"""Query transformer with content-aware query generation and stochastic
patch pruning, plus its alignment training objectives.

Layer layout (pre-LN): shared self-attention over [queries || caption tokens],
cross-attention from queries to patch features gated by the current retention
mask, then a feed-forward block.  The self-attention mask is multimodal
causal: queries attend only queries, caption position l attends every query
plus caption positions <= l.  This keeps the caption-generation head causal
and makes the query outputs independent of the caption, so the same forward
serves caption-free decoding.

Batch layout: every forward runs a whole batch at once.  Patches stack to
(B, N, d_in) (every diagram has the same N, so they need no padding);
captions are right-padded with PAD_ID to the longest caption in the batch
(`pad_ids`).  The causal caption mask already hides the trailing pads from
every real position, text_cls is the length-masked mean of the caption
states, and the caption loss gives pad positions weight 0, so neither the
losses nor the gradients depend on what the pads hold.

Mask stages: stage 0 is all ones; each sampler layer multiplies the previous
mask by the keep column of a Gumbel-Softmax sample over per-patch keep/drop
logits, with each example's noise drawn from its own Rng.  The
sparsification loss is the mean L1 of all mask entries over the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensorcore as tc
from .formal_lang import OutOfVocabError
from .tensorcore import Rng, Tensor


class BatchTooSmallError(ValueError):
    def __init__(self, got: int, need: int = 2):
        super().__init__(f"alignment objectives need a batch of >= {need}, got {got}")


@dataclass
class GSFormerConfig:
    n_layers: int = 4
    n_queries: int = 8
    d_model: int = 32
    n_heads: int = 4
    d_in: int = 64
    n_patches: int = 64
    vocab_size: int = 128
    max_caption_len: int = 48
    embed_dim: int = 16
    sgs_layers: tuple[int, ...] = (2, 3)
    lam: float = 0.5
    tau: float = 1.0
    tau_final: float | None = None  # set to anneal linearly over a training run
    align_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def tau_at(self, step: int, total_steps: int) -> float:
        if self.tau_final is None or total_steps <= 1:
            return self.tau
        frac = min(1.0, step / (total_steps - 1))
        return self.tau + (self.tau_final - self.tau) * frac

    def validate(self) -> None:
        if self.n_queries < 1:
            raise ValueError("n_queries must be >= 1")
        if self.lam < 0.0:
            raise ValueError("lambda must be >= 0")
        if self.tau <= 0.0 or (self.tau_final is not None and self.tau_final <= 0.0):
            raise ValueError("tau must be > 0")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must divide evenly into heads")
        bad = [i for i in self.sgs_layers if not 1 <= i <= self.n_layers - 1]
        if bad:
            raise ValueError(f"sampler layers {bad} outside 1..{self.n_layers - 1}")

    def to_json(self) -> dict:
        return {**self.__dict__, "sgs_layers": list(self.sgs_layers),
                "align_weights": list(self.align_weights)}

    @classmethod
    def from_json(cls, rec: dict) -> "GSFormerConfig":
        cfg = cls(**{
            **rec,
            "sgs_layers": tuple(rec.get("sgs_layers", (2, 3))),
            "align_weights": tuple(rec.get("align_weights", (1.0, 1.0, 1.0))),
        })
        cfg.validate()
        return cfg


@dataclass
class SGSState:
    masks: list[Tensor]

    @property
    def n_stages(self) -> int:
        return len(self.masks)


@dataclass
class AlignedFeatures:
    f_g: Tensor
    text_cls: Tensor | None


@dataclass
class LossBreakdown:
    l_contrast: float
    l_match: float
    l_caption: float
    l_align: float
    l_spr: float
    l_total: float
    keep_rates: list[float] = field(default_factory=list)
    tensor: Tensor | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "tensor"}


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

INIT_STD = 0.02


def _linear_init(params, name, rng, d_in, d_out):
    params[f"{name}_w"] = Tensor(rng.normal((d_in, d_out), std=INIT_STD), requires_grad=True)
    params[f"{name}_b"] = tc.zeros((d_out,), requires_grad=True)


def _ln_init(params, name, d):
    params[f"{name}_g"] = tc.ones((d,), requires_grad=True)
    params[f"{name}_b"] = tc.zeros((d,), requires_grad=True)


def init_params(cfg: GSFormerConfig, rng: Rng) -> dict[str, Tensor]:
    cfg.validate()
    d, e = cfg.d_model, cfg.embed_dim
    p: dict[str, Tensor] = {}
    r = rng.split("gsformer")
    _linear_init(p, "patch_proj", r.split("patch_proj"), cfg.d_in, d)
    p["pos_patch"] = Tensor(r.split("pos_patch").normal((cfg.n_patches, d), std=INIT_STD),
                            requires_grad=True)
    _ln_init(p, "ln_pf", d)
    p["queries"] = Tensor(r.split("queries").normal((cfg.n_queries, d), std=INIT_STD),
                          requires_grad=True)
    _linear_init(p, "gqg", r.split("gqg"), d, d)
    p["tok_emb"] = Tensor(r.split("tok_emb").normal((cfg.vocab_size, d), std=INIT_STD),
                          requires_grad=True)
    p["pos_caption"] = Tensor(
        r.split("pos_caption").normal((cfg.max_caption_len, d), std=INIT_STD),
        requires_grad=True)
    p["cap_head_b"] = tc.zeros((cfg.vocab_size,), requires_grad=True)
    for i in range(cfg.n_layers):
        lr = r.split(f"layer{i}")
        _ln_init(p, f"layer{i}.ln1", d)
        for piece in ("sa_q", "sa_k", "sa_v", "sa_o"):
            _linear_init(p, f"layer{i}.{piece}", lr.split(piece), d, d)
        _ln_init(p, f"layer{i}.ln2", d)
        for piece in ("ca_q", "ca_k", "ca_v", "ca_o"):
            _linear_init(p, f"layer{i}.{piece}", lr.split(piece), d, d)
        _ln_init(p, f"layer{i}.ln3", d)
        _linear_init(p, f"layer{i}.ffn1", lr.split("ffn1"), d, 4 * d)
        _linear_init(p, f"layer{i}.ffn2", lr.split("ffn2"), 4 * d, d)
    for i in cfg.sgs_layers:
        _linear_init(p, f"sgs{i}", r.split(f"sgs{i}"), d, 2)
    _ln_init(p, "ln_out", d)
    _linear_init(p, "vis_proj", r.split("vis_proj"), d, e)
    _linear_init(p, "txt_proj", r.split("txt_proj"), d, e)
    p["log_scale"] = Tensor(np.float64(math.log(1.0 / 0.07)), requires_grad=True)
    _linear_init(p, "match1", r.split("match1"), 2 * d, d)
    _linear_init(p, "match2", r.split("match2"), d, 2)
    return p


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

PAD_ID = 0  # fills each token list past its own length (formal_lang.PAD_ID)


def pad_ids(seqs: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad token lists with PAD_ID to the longest one in the batch:
    ((B, L) ids, (B,) lengths)."""
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    ids = np.full((len(seqs), int(lengths.max(initial=0))), PAD_ID, dtype=np.int64)
    for row, seq in zip(ids, seqs):
        row[:len(seq)] = seq
    return ids, lengths


def linear(params, name, x: Tensor) -> Tensor:
    return tc.add(tc.matmul(x, params[f"{name}_w"]), params[f"{name}_b"])


def norm(params, name, x: Tensor) -> Tensor:
    return tc.layer_norm(x, params[f"{name}_g"], params[f"{name}_b"])


def mha(params, prefix: str, x_q: Tensor, x_kv: Tensor, n_heads: int,
         mask: Tensor | None, cache=None) -> Tensor:
    """Multi-head attention over the last axis (leading axes batch).  Heads
    are split once to (..., h, n, d/h), so all of them share one
    `tc.attention` call.  mask is None or broadcasts against the
    (..., h, n_q, n_keys) logits: a (n_keys,) key mask, a (n_q, n_keys)
    allowed matrix, or a (B, 1, 1, n_keys) per-example key mask.  With a
    `cache` (pretrain.KVCache) the keys and values are the cache's rows."""
    q = linear(params, f"{prefix}q", x_q)
    k = linear(params, f"{prefix}k", x_kv)
    v = linear(params, f"{prefix}v", x_kv)
    if cache is not None:
        k, v = cache.extend(k, v)
    dh = q.shape[-1] // n_heads

    def heads(x: Tensor) -> Tensor:
        return tc.transpose(tc.reshape(x, x.shape[:-1] + (n_heads, dh)), -2, -3)

    out = tc.transpose(tc.attention(heads(q), heads(k), heads(v), mask), -2, -3)
    return linear(params, f"{prefix}o", tc.reshape(out, q.shape))


def ffn(params, prefix: str, x: Tensor) -> Tensor:
    return linear(params, f"{prefix}2",
                  tc.gelu(linear(params, f"{prefix}1", x)))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def gqg_queries(patch_feats: Tensor, learned_queries: Tensor, params) -> Tensor:
    """Content-aware queries: pooled attention context, projected, added to
    the learned query bank (one shared context row per diagram; leading axes
    of patch_feats are a batch)."""
    context = tc.mean_pool(
        tc.attention(learned_queries, patch_feats, patch_feats), axis=-2,
        keepdims=True,
    )
    return tc.add(learned_queries, linear(params, "gqg", context))


def sgs_update_mask(
    prev_mask: Tensor,
    patch_feats: Tensor,
    w: Tensor,
    b: Tensor,
    tau: float,
    hard: bool,
    rng: Rng | Sequence[Rng] | None,
) -> Tensor:
    """One sampler stage: keep/drop logits from a linear layer, Gumbel-Softmax
    sample, Hadamard product with the previous (..., N) mask.  rng is one
    stream, one per example of a (B, N) batch, or None."""
    logits = tc.add(tc.matmul(patch_feats, w), b)
    sample = tc.gumbel_softmax(logits, tau, hard, rng)
    keep = tc.reshape(tc.narrow(sample, -1, 0, 1), prev_mask.shape)
    return tc.mul(prev_mask, keep)


def gs_former_forward(
    patches: Tensor,
    captions: Sequence[Sequence[int]],
    cfg: GSFormerConfig,
    params: dict[str, Tensor],
    rngs: Sequence[Rng] | None,
    hard: bool = False,
) -> tuple[AlignedFeatures, SGSState, Tensor | None]:
    """Full forward pass over a batch: (B, N, d_in) patches, one caption id
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
        # cross-attention from queries to patches gated by each example's mask
        cross = mha(params, f"layer{i}.ca_",
                    norm(params, f"layer{i}.ln2", xq), pf,
                    cfg.n_heads, tc.reshape(masks[-1], (batch, 1, 1, n_patches)))
        xq = tc.add(xq, cross)
        xq = tc.add(xq, ffn(params, f"layer{i}.ffn", norm(params, f"layer{i}.ln3", xq)))
        if n_cap:
            xc = tc.add(xc, ffn(params, f"layer{i}.ffn", norm(params, f"layer{i}.ln3", xc)))

    f_g = norm(params, "ln_out", xq)
    if not n_cap:
        return AlignedFeatures(f_g, None), SGSState(masks), None
    cap_states = norm(params, "ln_out", xc)
    caption_logits = tc.add(
        tc.matmul(cap_states, tc.transpose(params["tok_emb"])),
        params["cap_head_b"],
    )
    # length-masked mean: pads get weight 0
    live = np.arange(n_cap) < lengths[:, None]
    text_cls = tc.tsum(tc.mul(cap_states, Tensor((live / lengths[:, None])[..., None])),
                       axis=-2)
    return AlignedFeatures(f_g, text_cls), SGSState(masks), caption_logits


def sparsification_loss(state: SGSState) -> Tensor:
    """Mean L1 of every mask entry over stages and examples; 1.0 iff all kept."""
    total = tc.tsum(tc.absval(state.masks[0]))
    for m in state.masks[1:]:
        total = tc.add(total, tc.tsum(tc.absval(m)))
    return tc.mul(total, Tensor(1.0 / (state.n_stages * state.masks[0].data.size)))


def alignment_loss(
    features: AlignedFeatures,
    caption_logits: Tensor,
    captions: Sequence[Sequence[int]],
    cfg: GSFormerConfig,
    params: dict[str, Tensor],
) -> tuple[Tensor, Tensor, Tensor]:
    """(contrast, match, caption) losses over an aligned batch: features and
    (B, L, V) caption logits of one batched forward and its captions.

    Contrast: symmetric in-batch InfoNCE between pooled query features and
    text features, with a learnable temperature.  Match: binary CE on a fusion
    head, positives on-diagonal, negatives by +1 rotation.  Caption: mean
    next-token cross entropy over every caption token after the first.
    """
    batch = features.f_g.shape[0]
    if batch < 2:
        raise BatchTooSmallError(batch)
    if features.text_cls is None:
        raise ValueError("alignment batch requires captions")
    pooled = tc.mean_pool(features.f_g, axis=-2)
    text = features.text_cls

    g_mat = tc.l2_normalize(linear(params, "vis_proj", pooled))
    t_mat = tc.l2_normalize(linear(params, "txt_proj", text))
    sim = tc.mul(tc.matmul(g_mat, tc.transpose(t_mat)), tc.exp(params["log_scale"]))
    diag = list(range(batch))
    l_contrast = tc.mul(
        tc.add(tc.cross_entropy(sim, diag), tc.cross_entropy(tc.transpose(sim), diag)),
        Tensor(0.5),
    )

    # rows 0..B-1 pair example i with its own text, rows B..2B-1 with the
    # text of example i + 1 (mod B)
    paired_text = tc.concat([text, tc.narrow(text, 0, 1, batch - 1),
                             tc.narrow(text, 0, 0, 1)], axis=0)
    fused = tc.concat([tc.concat([pooled, pooled], axis=0), paired_text], axis=1)
    hidden = tc.gelu(linear(params, "match1", fused))
    match_logits = linear(params, "match2", hidden)
    labels = [1] * batch + [0] * batch
    l_match = tc.cross_entropy(match_logits, labels)

    if any(len(ids) < 2 for ids in captions):
        raise ValueError("caption needs >= 2 tokens for next-token loss")
    # position t predicts token t + 1; each caption's pad positions weigh 0
    targets, n_targets = pad_ids([ids[1:] for ids in captions])
    width = targets.shape[1]
    l_caption = tc.cross_entropy(tc.narrow(caption_logits, 1, 0, width), targets,
                                 np.arange(width) < n_targets[:, None])
    return l_contrast, l_match, l_caption


def pretrain_loss(
    patches: Tensor,
    captions: Sequence[Sequence[int]],
    cfg: GSFormerConfig,
    params: dict[str, Tensor],
    rng: Rng | None,
    hard: bool = False,
) -> LossBreakdown:
    """Compose forward, alignment, and sparsification into the total loss of
    a (B, N, d_in) batch; example i draws its noise from rng/sample{i}."""
    rngs = None if rng is None else [rng.split(f"sample{i}") for i in range(len(captions))]
    feats, state, cap_logits = gs_former_forward(patches, captions, cfg, params,
                                                 rngs, hard)
    l_contrast, l_match, l_caption = alignment_loss(
        feats, cap_logits, captions, cfg, params
    )
    w_c, w_m, w_cap = cfg.align_weights
    l_align = tc.add(
        tc.add(tc.mul(l_contrast, Tensor(w_c)), tc.mul(l_match, Tensor(w_m))),
        tc.mul(l_caption, Tensor(w_cap)),
    )
    l_spr = sparsification_loss(state)
    l_total = tc.add(l_align, tc.mul(l_spr, Tensor(cfg.lam)))
    return LossBreakdown(
        l_contrast=l_contrast.item(),
        l_match=l_match.item(),
        l_caption=l_caption.item(),
        l_align=l_align.item(),
        l_spr=l_spr.item(),
        l_total=l_total.item(),
        keep_rates=[float(m.data.mean()) for m in state.masks],
        tensor=l_total,
    )
