"""Pretraining and instruction-tuning objectives around a toy causal decoder.

Stage 1 objectives: masked patch reconstruction (MSE on masked positions
only) and autoregressive language modeling.  Stage 3: the instruction loss
is the plain sum of target-position negative log-likelihoods after a prefix
of visual tokens (query features mapped into the decoder embedding space by
the `proj` linear, train.visual_tokens), and decoding is length-normalized
beam search.

Batch layout: every loss takes a whole batch.  MAE patches stack to
(B, N, d).  Token sequences are right-padded with formal_lang.PAD_ID to the
longest sequence in the batch (`pad_ids`) and run through `decoder_forward`
as one (B, T) block; the causal mask it builds already hides each row's
trailing pads from every real query.  Each loss passes `decoder_forward`
the rows it reads (the non-pad positions for `lm_loss`, the target spans for
`instruction_loss`), and the last block's feed-forward half, the final norm
and the head run at those rows only, so neither the loss nor the gradients
depend on what the pads hold.

Decoding is KV-cached: each layer's keys/values live in one
(2, beam, n_prefix + max_len, d) buffer whose beam rows start with a copy of
the prefix rows, computed once; generated rows follow and are reordered by
parent index.  Attention over all heads is one `tc.attention` call on that
block (gsformer.mha).  The live hypotheses are one (L, t) token matrix and
an (L,) score vector; one argsort ranks a step's (L, k) expansions.

Every affine map (`linear`, the tied output head), attention and layer
norm is one tape node (tensorcore's fused ops), so a decoder layer adds
twelve nodes to the tape, and a loss's gather of its rows one more.

The decoder, 2 causal gsformer.block layers under a tied embedding / output
head, could be anything with the same prefix-conditioned interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import formal_lang as fl
from . import tensorcore as tc
from .gsformer import (INIT_STD, _block_init, _linear_init, _ln_init, block, linear,
                       norm, pad_ids)
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

    def __post_init__(self):
        if self.n_heads < 1 or self.d_model % self.n_heads:
            raise ValueError(f"mae n_heads {self.n_heads} must be >= 1 and divide "
                             f"d_model {self.d_model}")


@dataclass
class MAEBatch:
    """(..., N, d) patches and their (..., N, 1) row mask, 1.0 where a patch
    is masked; leading axes are a batch."""
    patches: Tensor
    masked: np.ndarray


def mae_mask(patches: Tensor, ratio: float, rng: Rng) -> MAEBatch:
    """Uniformly mask exactly round(ratio * N) positions of one (N, d) diagram."""
    n = patches.shape[0]
    n_masked = round(ratio * n)
    if n_masked <= 0 or n_masked >= n:
        raise DegenerateRatioError(ratio, n)
    masked = np.zeros((n, 1))
    masked[rng.permutation(n)[:n_masked]] = 1.0
    return MAEBatch(patches, masked)


def mae_loss(reconstructed: Tensor, original: Tensor, batch: MAEBatch) -> Tensor:
    """Mean squared error over masked positions only; over a batch, the mean
    of the per-diagram losses (every diagram masks as many patches)."""
    if reconstructed.shape != original.shape:
        raise tc.ShapeMismatchError("mae_loss", reconstructed.shape, original.shape)
    diff = tc.sub(reconstructed, original)
    masked_sq = tc.mul(tc.mul(diff, diff), Tensor(batch.masked))
    denom = batch.masked.sum() * reconstructed.shape[-1]
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
    n = batch.patches.shape[-2]
    emb = linear(params, "embed", batch.patches)
    token_row = tc.reshape(params["mask_token"], (1, cfg.d_model))
    x = tc.add(tc.mul(emb, Tensor(1.0 - batch.masked)),
               tc.mul(token_row, Tensor(batch.masked)))
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

    def __post_init__(self):
        if self.n_heads < 1 or self.d_lm % self.n_heads:
            raise ValueError(f"decoder n_heads {self.n_heads} must be >= 1 and "
                             f"divide d_lm {self.d_lm}")
        if self.n_layers < 1 or self.max_len < 1:
            raise ValueError("decoder n_layers and max_len must be >= 1, got "
                             f"{self.n_layers} and {self.max_len}")


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
        """Store k, v (first a (1, n_prefix, d) prefix, then one (B, 1, d) row
        per live hypothesis); return the keys and values to attend over."""
        if self.rows is None:
            beam, steps = self.size
            self.n_prefix = self.n = k.shape[1]
            self.rows = np.empty((2, beam, self.n + steps, k.shape[2]))
            self.rows[:, :, :self.n] = np.stack((k.data[0], v.data[0]))[:, None]
            return k, v
        live = k.shape[0]
        self.rows[:, :live, self.n] = k.data[:, 0], v.data[:, 0]
        self.n += 1
        keys, values = self.rows[:, :live, :self.n]
        return Tensor(keys), Tensor(values)

    def reorder(self, parents: np.ndarray) -> None:
        new = slice(self.n_prefix, self.n)
        self.rows[:, :len(parents), new] = self.rows[:, parents, new]


def decoder_forward(
    params: dict[str, Tensor],
    cfg: DecoderConfig,
    token_ids,
    prefix_embeds: Tensor | None = None,
    cache: list[KVCache] | None = None,
    rows=None,
) -> Tensor:
    """Causal forward over [prefix_embeds || embedded token_ids] for (B, T)
    ids and an optional (B, P, d) prefix; returns (B, P + T, V) next-token
    logits (tied output head).  With `cache` (one KVCache per layer) the
    first call encodes a batch-of-one prefix; later calls take one (B, 1)
    token id per hypothesis.

    `rows` (distinct indices b * (P + T) + position) returns the logits at
    those positions only, (len(rows), V): attention runs at every position,
    whose keys and values later positions read, and the last block's ffn,
    the final norm and the head at those rows alone."""
    x = tc.embedding_lookup(params["tok_emb"], token_ids)
    if prefix_embeds is not None:
        if prefix_embeds.shape[::2] != x.shape[::2]:  # (B, d) of (B, n, d)
            raise tc.ShapeMismatchError("decoder prefix", prefix_embeds.shape, x.shape)
        x = tc.concat([prefix_embeds, x], axis=1)
    if x.ndim != 3 or not x.shape[1]:
        raise tc.ShapeMismatchError("decoder input (B, T, d)", x.shape)
    start = 0 if cache is None else cache[0].n
    total = start + x.shape[1]
    if total > cfg.max_len:
        raise tc.ShapeMismatchError("sequence too long", (total,), (cfg.max_len,))
    x = tc.add(x, tc.narrow(params["pos_emb"], 0, start, total - start))
    causal = None if start else Tensor(np.tril(np.ones((total, total))))
    for i in range(cfg.n_layers):
        x = block(params, f"dec{i}", x, cfg.n_heads, causal,
                  None if cache is None else cache[i],
                  rows if i == cfg.n_layers - 1 else None)
    x = norm(params, "ln_f", x)
    return tc.linear(x, tc.transpose(params["tok_emb"]), params["head_b"])


def lm_loss(
    params: dict[str, Tensor], cfg: DecoderConfig,
    sequences: Sequence[Sequence[int]],
) -> Tensor:
    """Next-token cross entropy with causal masking: the mean over the batch
    of each sequence's mean.  The logits are computed at the non-pad
    positions only (`decoder_forward`'s rows), row by row."""
    if min(len(seq) for seq in sequences) < 2:
        raise SequenceTooShortError(min(len(seq) for seq in sequences))
    ids, n = pad_ids([seq[:-1] for seq in sequences])
    rows = np.flatnonzero(np.arange(ids.shape[1]) < n[:, None])
    targets = [tok for seq in sequences for tok in seq[1:]]
    weights = np.repeat(1.0 / (len(sequences) * n), n)
    return tc.cross_entropy(decoder_forward(params, cfg, ids, rows=rows),
                            targets, weights, reduction="sum")


# ---------------------------------------------------------------------------
# Instruction tuning
# ---------------------------------------------------------------------------

def instruction_loss(
    params: dict[str, Tensor],
    cfg: DecoderConfig,
    t_g: Tensor,
    t_p: Sequence[Sequence[int]],
    s: Sequence[Sequence[int]],
) -> Tensor:
    """Sum over the batch of negative log-likelihoods at target positions.

    For example b, the (B, P, d) visual tokens t_g[b] and instruction tokens
    t_p[b] are non-predicted prefix positions; position (P + |t_p[b]| - 1 + l)
    predicts s[b][l].  The logits are computed at those target positions
    only (`decoder_forward`'s rows), example by example.
    """
    n_visual = t_g.shape[1]
    if not all(s) or n_visual + min(len(instr) for instr in t_p) < 1:
        raise EmptyTargetError()
    ids, _ = pad_ids([list(instr) + list(target)[:-1]
                      for instr, target in zip(t_p, s)])
    width = n_visual + ids.shape[1]
    rows = [b * width + n_visual + len(instr) - 1 + offset
            for b, (instr, target) in enumerate(zip(t_p, s))
            for offset in range(len(target))]
    logits = decoder_forward(params, cfg, ids, prefix_embeds=t_g, rows=rows)
    return tc.cross_entropy(logits, [tok for target in s for tok in target],
                            reduction="sum")


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
    eos_id: int = fl.EOS_ID,
) -> list[BeamHypothesis]:
    """Length-normalized beam search for one problem: (1, P, d) visual
    tokens t_g (or None) and instruction ids t_p; rng-free and deterministic.

    Candidates are ranked by log-prob divided by token count, ties broken by
    generation order.  Returns at most `beam` hypotheses; sequences that never
    emit EOS are cut at max_len.

    KV-cached: the prefix [t_g || t_p] runs through the decoder once, then
    each step advances every live hypothesis by one token as one (L, 1, d)
    batch over its row of the cache: the prefix keys/values, then its own
    generated ones (KVCache).

    Each step scores the (L, k) expansions of the L live hypotheses by their
    k most likely tokens and ranks them with one stable argsort (ties: parent,
    then token rank).  Every EOS expansion is finished, even below the beam
    cut; the first `beam` others stay live, their cache rows their parent's.
    """
    if beam < 1:
        raise ValueError("beam must be >= 1")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    cache = [KVCache(beam, max_len) for _ in range(cfg.n_layers)]
    tokens = np.zeros((1, 0), dtype=np.int64)  # (L, t): the live hypotheses
    scores = np.zeros(1)  # (L,) summed log-probs
    finished: list[tuple[list[int], float]] = []
    with tc.no_grad():
        for step in range(max_len):
            if not len(scores):
                break
            ids = tokens[:, -1:] if step else [list(t_p)]
            logits = decoder_forward(params, cfg, ids, None if step else t_g, cache).data[:, -1]
            logp = tc._log_softmax(logits)
            top = np.argsort(-logp, axis=1, kind="stable")[:, :beam]
            grown = scores[:, None] + np.take_along_axis(logp, top, axis=1)
            order = np.argsort(-grown, axis=None, kind="stable")
            parents, ranks = np.divmod(order, top.shape[1])
            ranked = np.column_stack((tokens[parents], top[parents, ranks]))
            ranked_scores = grown.ravel()[order]
            eos = ranked[:, -1] == eos_id
            finished += zip(ranked[eos].tolist(), ranked_scores[eos].tolist())
            keep = np.flatnonzero(~eos)[:beam]
            tokens, scores = ranked[keep], ranked_scores[keep]
            for layer in cache:
                layer.reorder(parents[keep])
    pool = finished + list(zip(tokens.tolist(), scores.tolist()))
    hypotheses = [BeamHypothesis(tuple(ids), score, score / max(1, len(ids)))
                  for ids, score in pool]
    hypotheses.sort(key=lambda h: -h.normalized)
    return hypotheses[:beam]
