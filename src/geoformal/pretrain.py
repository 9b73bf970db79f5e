"""Pretraining and instruction-tuning objectives around a toy causal decoder.

Stage 1 objectives: masked patch reconstruction (MSE on masked positions
only) and autoregressive language modeling.  Stage 3: a projection head maps
query features into the decoder embedding space as visual tokens, the
instruction loss is the plain sum of target-position negative log-likelihoods,
and decoding is length-normalized beam search.  Decoding is KV-cached: each
layer's keys/values live in one (2, beam, n_prefix + max_len, d) buffer whose
beam rows start with a copy of the prefix rows, computed once; generated rows
follow and are reordered by parent index.  Attention splits heads as
(..., h, n, d/h) and attends over that one block (gsformer.mha).

The decoder is a 2-layer pre-LN causal transformer with a tied embedding /
output head; anything with the same prefix-conditioned interface would do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensorcore as tc
from .gsformer import INIT_STD, _linear_init, _ln_init, ffn, linear, mha, norm
from .tensorcore import Rng, Tensor


class DegenerateRatioError(ValueError):
    def __init__(self, ratio: float, n: int):
        super().__init__(f"mask ratio {ratio} degenerates on {n} patches")


class SequenceTooShortError(ValueError):
    def __init__(self, length: int):
        super().__init__(f"language modeling needs >= 2 tokens, got {length}")


class EmptyTargetError(ValueError):
    def __init__(self):
        super().__init__("instruction loss needs a non-empty target sequence")


# ---------------------------------------------------------------------------
# Pre-LN transformer block (MAE encoder and decoder)
# ---------------------------------------------------------------------------

def _block_init(p: dict[str, Tensor], name: str, rng: Rng, d: int) -> None:
    _ln_init(p, f"{name}.ln1", d)
    for piece in ("sa_q", "sa_k", "sa_v", "sa_o"):
        _linear_init(p, f"{name}.{piece}", rng.split(piece), d, d)
    _ln_init(p, f"{name}.ln2", d)
    _linear_init(p, f"{name}.ffn1", rng.split("ffn1"), d, 4 * d)
    _linear_init(p, f"{name}.ffn2", rng.split("ffn2"), 4 * d, d)


def block(params: dict[str, Tensor], name: str, x: Tensor, n_heads: int,
          mask: Tensor | None, cache: "KVCache | None" = None) -> Tensor:
    """x + self-attention(ln1 x), then + ffn(ln2 x); mask and cache as in `mha`."""
    h = norm(params, f"{name}.ln1", x)
    x = tc.add(x, mha(params, f"{name}.sa_", h, h, n_heads, mask, cache))
    return tc.add(x, ffn(params, f"{name}.ffn", norm(params, f"{name}.ln2", x)))


# ---------------------------------------------------------------------------
# Masked patch reconstruction
# ---------------------------------------------------------------------------

@dataclass
class MAEConfig:
    patch_dim: int = 64
    n_patches: int = 64
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    mask_ratio: float = 0.75

    def to_json(self) -> dict:
        return self.__dict__.copy()

    @classmethod
    def from_json(cls, rec: dict) -> "MAEConfig":
        return cls(**rec)


@dataclass
class MAEBatch:
    patches: Tensor
    mask_indices: frozenset[int]
    ratio: float

    @property
    def n_patches(self) -> int:
        return self.patches.shape[0]

    def row_mask(self) -> np.ndarray:
        mask = np.zeros((self.n_patches, 1))
        mask[sorted(self.mask_indices)] = 1.0
        return mask


def mae_mask(patches: Tensor, ratio: float, rng: Rng) -> MAEBatch:
    """Uniformly mask exactly round(ratio * N) patch positions."""
    n = patches.shape[0]
    n_masked = round(ratio * n)
    if n_masked <= 0 or n_masked >= n:
        raise DegenerateRatioError(ratio, n)
    order = rng.permutation(n)
    return MAEBatch(patches, frozenset(int(i) for i in order[:n_masked]), ratio)


def mae_loss(reconstructed: Tensor, original: Tensor, batch: MAEBatch) -> Tensor:
    """Mean squared error over masked positions only."""
    if reconstructed.shape != original.shape:
        raise tc.ShapeMismatchError("mae_loss", reconstructed.shape, original.shape)
    row_mask = Tensor(batch.row_mask())
    diff = tc.sub(reconstructed, original)
    masked_sq = tc.mul(tc.mul(diff, diff), row_mask)
    denom = len(batch.mask_indices) * reconstructed.shape[1]
    return tc.mul(tc.tsum(masked_sq), Tensor(1.0 / denom))


def init_mae_params(cfg: MAEConfig, rng: Rng) -> dict[str, Tensor]:
    p: dict[str, Tensor] = {}
    r = rng.split("mae")
    _linear_init(p, "embed", r.split("embed"), cfg.patch_dim, cfg.d_model)
    p["mask_token"] = Tensor(
        r.split("mask_token").normal((cfg.d_model,), std=INIT_STD), requires_grad=True
    )
    # masked rows carry no content, so positions need full-strength init to
    # differentiate reconstruction targets
    p["pos"] = Tensor(
        r.split("pos").normal((cfg.n_patches, cfg.d_model), std=0.5),
        requires_grad=True,
    )
    for i in range(cfg.n_layers):
        _block_init(p, f"enc{i}", r.split(f"enc{i}"), cfg.d_model)
    _ln_init(p, "ln_f", cfg.d_model)
    _linear_init(p, "head", r.split("head"), cfg.d_model, cfg.patch_dim)
    return p


def mae_forward(
    params: dict[str, Tensor], cfg: MAEConfig, batch: MAEBatch
) -> Tensor:
    """Reconstruct all patches: masked rows enter as a learned mask token."""
    n = batch.n_patches
    visible = Tensor(1.0 - batch.row_mask())
    masked = Tensor(batch.row_mask())
    emb = linear(params, "embed", batch.patches)
    token_row = tc.reshape(params["mask_token"], (1, cfg.d_model))
    x = tc.add(tc.mul(emb, visible), tc.mul(token_row, masked))
    x = tc.add(x, tc.narrow(params["pos"], 0, 0, n))
    for i in range(cfg.n_layers):
        x = block(params, f"enc{i}", x, cfg.n_heads, None)
    return linear(params, "head", norm(params, "ln_f", x))


# ---------------------------------------------------------------------------
# Toy causal decoder
# ---------------------------------------------------------------------------

@dataclass
class DecoderConfig:
    n_layers: int = 2
    d_lm: int = 128
    n_heads: int = 4
    vocab_size: int = 128
    max_len: int = 96

    def to_json(self) -> dict:
        return self.__dict__.copy()

    @classmethod
    def from_json(cls, rec: dict) -> "DecoderConfig":
        return cls(**rec)


def init_decoder_params(cfg: DecoderConfig, rng: Rng) -> dict[str, Tensor]:
    p: dict[str, Tensor] = {}
    r = rng.split("decoder")
    p["tok_emb"] = Tensor(
        r.split("tok_emb").normal((cfg.vocab_size, cfg.d_lm), std=INIT_STD),
        requires_grad=True,
    )
    p["pos_emb"] = Tensor(
        r.split("pos_emb").normal((cfg.max_len, cfg.d_lm), std=INIT_STD),
        requires_grad=True,
    )
    for i in range(cfg.n_layers):
        _block_init(p, f"dec{i}", r.split(f"dec{i}"), cfg.d_lm)
    _ln_init(p, "ln_f", cfg.d_lm)
    p["head_b"] = tc.zeros((cfg.vocab_size,), requires_grad=True)
    return p


class KVCache:
    """One decoder layer's keys and values during beam search: one
    (2, beam, n_prefix + steps, d) buffer, allocated by the first `extend`,
    whose beam rows all start with the prefix rows; the generated rows after
    them are permuted by parent index after each pruning."""

    def __init__(self, beam: int, steps: int):
        self.size = (beam, steps)
        self.rows: np.ndarray | None = None
        self.n_prefix = self.n = 0  # n: filled rows per hypothesis

    def extend(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Store k, v (first the (n_prefix, d) prefix, then one (B, 1, d) row
        per live hypothesis); return the keys and values to attend over."""
        if self.rows is None:
            beam, steps = self.size
            self.n_prefix = self.n = k.shape[0]
            self.rows = np.empty((2, beam, self.n + steps, k.shape[1]))
            self.rows[:, :, :self.n] = np.stack((k.data, v.data))[:, None]
            return k, v
        live = k.shape[0]
        self.rows[:, :live, self.n] = k.data[:, 0], v.data[:, 0]
        self.n += 1
        keys, values = self.rows[:, :live, :self.n]
        return Tensor(keys), Tensor(values)

    def reorder(self, parents: list[int]) -> None:
        new = slice(self.n_prefix, self.n)
        self.rows[:, :len(parents), new] = self.rows[:, parents, new]


def decoder_forward(
    params: dict[str, Tensor],
    cfg: DecoderConfig,
    token_ids: Sequence[int],
    prefix_embeds: Tensor | None = None,
    cache: list[KVCache] | None = None,
) -> Tensor:
    """Causal forward over [prefix_embeds || embedded token_ids]; returns
    next-token logits for every position (tied output head).  With `cache`
    (one KVCache per layer) the first call encodes the prefix; later calls
    take one token id per hypothesis and return (B, 1, V) logits."""
    parts: list[Tensor] = []
    if prefix_embeds is not None:
        if prefix_embeds.ndim != 2 or prefix_embeds.shape[1] != cfg.d_lm:
            raise tc.ShapeMismatchError("decoder prefix", prefix_embeds.shape,
                                        (-1, cfg.d_lm))
        parts.append(prefix_embeds)
    ids = list(token_ids)
    if ids:
        parts.append(tc.embedding_lookup(params["tok_emb"], ids))
    if not parts:
        raise tc.ShapeMismatchError("decoder needs input", (0,))
    x = tc.concat(parts, axis=0) if len(parts) > 1 else parts[0]
    start = 0 if cache is None else cache[0].n
    if start:
        x = tc.reshape(x, (len(ids), 1, cfg.d_lm))
    total = start + x.shape[-2]
    if total > cfg.max_len:
        raise tc.ShapeMismatchError("sequence too long", (total,), (cfg.max_len,))
    x = tc.add(x, tc.narrow(params["pos_emb"], 0, start, total - start))
    causal = None if start else Tensor(np.tril(np.ones((total, total))))
    for i in range(cfg.n_layers):
        x = block(params, f"dec{i}", x, cfg.n_heads, causal,
                  None if cache is None else cache[i])
    x = norm(params, "ln_f", x)
    return tc.add(tc.matmul(x, tc.transpose(params["tok_emb"])), params["head_b"])


def lm_loss(
    params: dict[str, Tensor], cfg: DecoderConfig, token_ids: Sequence[int]
) -> Tensor:
    """Mean next-token cross entropy with causal masking."""
    ids = list(token_ids)
    if len(ids) < 2:
        raise SequenceTooShortError(len(ids))
    logits = decoder_forward(params, cfg, ids[:-1])
    return tc.cross_entropy(logits, ids[1:], reduction="mean")


# ---------------------------------------------------------------------------
# Instruction tuning
# ---------------------------------------------------------------------------

def project_visual(f_g: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map of query features into the decoder embedding space."""
    if f_g.ndim != 2 or f_g.shape[1] != w.shape[0]:
        raise tc.ShapeMismatchError("project_visual", f_g.shape, w.shape)
    return tc.add(tc.matmul(f_g, w), b)


def instruction_loss(
    params: dict[str, Tensor],
    cfg: DecoderConfig,
    t_g: Tensor,
    t_p: Sequence[int],
    s: Sequence[int],
) -> Tensor:
    """Sum of negative log-likelihoods over target positions only.

    The visual tokens t_g and instruction tokens t_p are non-predicted prefix
    positions; position (|t_g| + |t_p| - 1 + l) predicts s[l].
    """
    target = list(s)
    if not target:
        raise EmptyTargetError()
    instr = list(t_p)
    n_prefix = t_g.shape[0] + len(instr)
    if n_prefix < 1:
        raise EmptyTargetError()
    logits = decoder_forward(params, cfg, instr + target[:-1], prefix_embeds=t_g)
    total = logits.shape[0]
    targets_full = [0] * total
    ignore = [True] * total
    for offset, tok in enumerate(target):
        position = n_prefix - 1 + offset
        targets_full[position] = tok
        ignore[position] = False
    return tc.cross_entropy(logits, targets_full, ignore, reduction="sum")


# ---------------------------------------------------------------------------
# Beam search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BeamHypothesis:
    token_ids: tuple[int, ...]
    log_prob: float
    normalized: float


def beam_decode(
    params: dict[str, Tensor],
    cfg: DecoderConfig,
    t_g: Tensor | None,
    t_p: Sequence[int],
    beam: int = 10,
    max_len: int = 24,
    eos_id: int = 2,
) -> list[BeamHypothesis]:
    """Length-normalized beam search; rng-free and deterministic.

    Candidates are ranked by log-prob divided by token count, ties broken by
    generation order.  Returns at most `beam` hypotheses; sequences that never
    emit EOS are cut at max_len.

    KV-cached: the prefix [t_g || t_p] runs through the decoder once, then
    each step advances every live hypothesis by one token as one (B, 1, d)
    batch over its row of the cache: the prefix keys/values, then its own
    generated ones (KVCache).
    """
    if beam < 1:
        raise ValueError("beam must be >= 1")
    cache = [KVCache(beam, max_len) for _ in range(cfg.n_layers)]
    live: list[tuple[list[int], float]] = [([], 0.0)]
    finished: list[tuple[list[int], float]] = []
    with tc.no_grad():
        for step in range(max_len):
            if not live:
                break
            if step == 0:
                logits = decoder_forward(params, cfg, t_p, t_g, cache).data[-1:]
            else:
                last = [tokens[-1] for tokens, _ in live]
                logits = decoder_forward(params, cfg, last, cache=cache).data[:, -1]
            logp = logits - logits.max(axis=1, keepdims=True)
            logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
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
        BeamHypothesis(tuple(tokens), score, score / max(1, len(tokens)))
        for tokens, score in pool
    ]
    hypotheses.sort(key=lambda h: -h.normalized)
    return hypotheses[:beam]
