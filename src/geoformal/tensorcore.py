"""Minimal dense tensor kernel with reverse-mode differentiation.

Tensors wrap 64-bit numpy arrays.  Every op states one derivative rule per
input, `go -> gradient of that input`, and `_node` keeps only the rules
whose input requires a gradient: constants (input batches, masks, scalar
factors) are never on the tape and never get a `.grad`.  `Tensor.backward()`
walks the graph once in reverse topological order and is the one place that
runs the rules, sums broadcast axes back to each input's shape and adds the
result into `.grad`.  It consumes the graph as it goes: a node drops its
rules and `.grad` once they have run, so a step's peak memory is its forward
activations, and only leaves keep `.grad`.  Ops never mutate their inputs.
The Adam optimizer writes only its own moment estimates, its scratch and the
parameter data, all in place: after the first step, which allocates the
scratch, a step allocates no arrays.  Wrap inference code in `no_grad()` to
skip tape construction entirely.

The model's layers are fused ops, one node each with a hand-written
backward: `linear` (x @ w + b), `attention` (head split, scaled scores,
softmax or masked softmax, weighted sum and head merge), `layer_norm` and
`l2_normalize` (x over its L2 norm).  Their arithmetic is that of the
composed primitives, so results do not depend on which form built the tape.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Sequence

import numpy as np


class ShapeMismatchError(ValueError):
    def __init__(self, op: str, *shapes: tuple):
        super().__init__(f"{op}: incompatible shapes {' vs '.join(map(str, shapes))}")
        self.shapes = shapes


class NonPositiveTemperatureError(ValueError):
    def __init__(self, tau: float):
        super().__init__(f"temperature must be > 0, got {tau}")


class EmptyAfterMaskError(ValueError):
    def __init__(self):
        super().__init__("every position is ignored; loss is undefined")


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape construction inside the block (inference paths)."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


Rule = Callable[[np.ndarray], np.ndarray]


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        # (input, rule) pairs of a tape node; empty for leaves and constants,
        # None once a backward has consumed the node
        self._parents: tuple[tuple[Tensor, Rule], ...] | None = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Run every node's rules in reverse topological order, summing each
        gradient back to its input's shape and adding it into `.grad`.

        Backward consumes the graph: once a node's rules have run, the node
        drops them and its `.grad`, so each activation, array a rule closed
        over and intermediate gradient is freed as soon as nothing upstream
        still needs it.  Only leaves keep `.grad`.  A second backward through
        a consumed node raises ValueError."""
        if self.data.size != 1:
            raise ShapeMismatchError("backward (scalar required)", self.shape)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._parents is None:
                raise ValueError("backward: the graph was already consumed by "
                                 "an earlier backward(); build it again")
            visited.add(id(node))
            stack.append((node, True))
            for parent, _ in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            parents, go = node._parents, node.grad
            if not parents:
                continue  # a leaf keeps its .grad
            node._parents = node.grad = None
            for parent, rule in parents:
                g = _unbroadcast(rule(go), parent.shape)
                parent.grad = g if parent.grad is None else parent.grad + g


def _node(data: np.ndarray, *inputs: tuple[Tensor, Rule]) -> Tensor:
    """The op's output; a tape node over the (input, rule) pairs whose input
    requires a gradient, or a constant when none does (or under no_grad)."""
    kept = _grad_enabled and tuple(pair for pair in inputs if pair[0].requires_grad)
    if not kept:
        return Tensor(data)
    out = Tensor(data, requires_grad=True)
    out._parents = kept
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum the axes numpy broadcast g over back down to `shape`."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (have, want) in enumerate(zip(g.shape, shape)):
        if want == 1 and have != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _broadcasting(op: str, fn, a: Tensor, b: Tensor) -> np.ndarray:
    """fn(a.data, b.data) under numpy broadcasting, naming op on a mismatch."""
    try:
        return fn(a.data, b.data)
    except ValueError:
        raise ShapeMismatchError(op, a.shape, b.shape) from None


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# Elementwise and shape ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    return _node(_broadcasting("add", np.add, a, b),
                 (a, lambda go: go), (b, lambda go: go))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _node(_broadcasting("sub", np.subtract, a, b),
                 (a, lambda go: go), (b, lambda go: -go))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _node(_broadcasting("mul", np.multiply, a, b),
                 (a, lambda go: go * b.data), (b, lambda go: go * a.data))


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)
    return _node(data, (a, lambda go: go * data))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """Tanh-approximation GELU with its exact derivative, in place where it
    can be: each fresh temporary of a batch's activations costs page faults."""
    x = a.data
    t = x * x  # tanh(C (x + 0.044715 x^3)), then 0.5 x (1 + t)
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    data = t + 1.0
    data *= x
    data *= 0.5

    def d_a(go):
        # 0.5 (1 + t) + 0.5 x (1 - t^2) C (1 + 3 * 0.044715 x^2)
        local = (1.0 - t * t) * (_GELU_C * (1.0 + 3 * 0.044715 * (x * x)))
        local *= x
        local += 1.0 + t
        local *= 0.5
        local *= go
        return local

    return _node(data, (a, d_a))


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes (leading axes are a batch)."""
    if a.ndim < 2:
        raise ShapeMismatchError("transpose (needs >= 2-D)", a.shape)
    return _node(a.data.swapaxes(-1, -2), (a, lambda go: go.swapaxes(-1, -2)))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    return _node(a.data.reshape(shape), (a, lambda go: go.reshape(a.shape)))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [t for t in tensors]
    if not tensors:
        raise ShapeMismatchError("concat (empty)", ())
    data = np.concatenate([t.data for t in tensors], axis=axis)
    pieces, start = [], 0
    for t in tensors:
        index = [slice(None)] * data.ndim
        index[axis] = slice(start, start + t.shape[axis])
        pieces.append((t, lambda go, index=tuple(index): go[index]))
        start += t.shape[axis]
    return _node(data, *pieces)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def d_a(go):
        full = np.zeros_like(a.data)
        full[index] = go
        return full

    return _node(a.data[index].copy(), (a, d_a))


def take_rows(x: Tensor, rows) -> Tensor:
    """Rows of x with its leading axes flattened: (..., d) -> (len(rows), d)
    for distinct integer row indices into the (prod(leading), d) view.  The
    backward writes go into those rows of a zero array."""
    flat = x.data.reshape(-1, x.shape[-1])
    index = np.asarray(rows, dtype=np.int64)
    distinct = np.unique(index)  # sorted
    if (index.ndim != 1 or distinct.size != index.size
            or distinct.size and (distinct[0] < 0 or distinct[-1] >= len(flat))):
        raise ShapeMismatchError("take_rows (rows out of range or repeated)",
                                 x.shape, index.shape)

    def d_x(go):
        full = np.zeros_like(flat)
        full[index] = go
        return full.reshape(x.shape)

    return _node(flat[index], (x, d_x))


def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    def d_a(go):
        if axis is not None and not keepdims:
            go = np.expand_dims(go, axis)
        return np.broadcast_to(go, a.shape).copy()

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a, d_a))


def mean_pool(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), Tensor(1.0 / count))


# ---------------------------------------------------------------------------
# Linear algebra and normalization
# ---------------------------------------------------------------------------

def _folded(a: Tensor, w: Tensor) -> tuple[np.ndarray, Rule, Rule]:
    """a @ w for a 2-D w as one BLAS product each way, a's leading axes folded
    into its rows (np.matmul would loop over them): (product, d_a, d_w)."""
    k, m = w.shape
    rows = a.data.reshape(-1, k)
    return ((rows @ w.data).reshape(a.shape[:-1] + (m,)),
            lambda go: (go.reshape(-1, m) @ w.data.T).reshape(a.shape),
            lambda go: rows.T @ go.reshape(-1, m))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes; leading batch axes broadcast."""
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError("matmul", a.shape, b.shape)
    if a.ndim > 2 and b.ndim == 2:
        data, d_a, d_b = _folded(a, b)
        return _node(data, (a, d_a), (b, d_b))
    return _node(a.data @ b.data,
                 (a, lambda go: go @ b.data.swapaxes(-1, -2)),
                 (b, lambda go: a.data.swapaxes(-1, -2) @ go))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node: (..., k) x (k, m) + (m,), leading axes of x a
    batch.  The bias is added in place into the folded product; its rule
    passes the gradient on unchanged and `backward` sums it over the batch."""
    if (x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]
            or b.shape != w.shape[1:]):
        raise ShapeMismatchError("linear", x.shape, w.shape, b.shape)
    data, d_x, d_w = _folded(x, w)
    data += b.data
    return _node(data, (x, d_x), (w, d_w), (b, lambda go: go))


_MASK_TINY = 1e-30
_FLOAT_MAX = np.finfo(np.float64).max
_EXP_MAX = math.log(_FLOAT_MAX)


def _softmax(op: str, x: np.ndarray, mask: Tensor | None = None, axis: int = -1):
    """Softmax of x along `axis` or, with a mask, over the last axis with the
    mask's multiplicative key weights (see masked_softmax).

    Returns (probs, centre, d_mask).  For the gradient go of probs,
    `c = centre(go)` gives x's gradient `probs * c` and the mask's
    `d_mask(c)`, summed down to the mask's shape; d_mask is None without a
    mask.
    """
    if mask is None:
        probs = x - x.max(axis=axis, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=axis, keepdims=True)
        d_mask = None
    else:
        try:
            mask_b = np.broadcast_to(mask.data, x.shape)
        except ValueError:
            raise ShapeMismatchError(op, x.shape, mask.shape) from None
        live = mask_b > 0.0
        row_max = np.where(live, x, -np.inf).max(axis=-1, keepdims=True)
        row_max = np.where(np.isfinite(row_max), row_max, 0.0)
        # cap masked keys far above the live maximum: a finite weight times 0 is 0
        e = x - row_max
        np.exp(np.minimum(e, _EXP_MAX, out=e), out=e)
        weighted = e * mask_b
        z = weighted.sum(axis=-1, keepdims=True)
        safe = z > _MASK_TINY
        z_safe = np.where(safe, z, 1.0)
        probs = np.where(safe, weighted / z_safe, 0.0)

        def d_mask(c):
            # clip the weight before the product, so a zero factor gives 0,
            # not inf * 0 = NaN; saturate the product and, after summing it
            # over the axes the mask was broadcast along, the sum
            with np.errstate(over="ignore"):
                d = np.minimum(e / z_safe, _FLOAT_MAX) * c
                d = np.where(safe, np.clip(d, -_FLOAT_MAX, _FLOAT_MAX), 0.0)
                d = _unbroadcast(d, mask.shape)
            return np.clip(d, -_FLOAT_MAX, _FLOAT_MAX)

    def centre(go):
        return go - (go * probs).sum(axis=axis, keepdims=True)

    return probs, centre, d_mask


def _per_go(fn: Rule) -> Rule:
    """fn, computed once per gradient array: `backward` hands every rule of
    a node the same go, so rules that share work call this."""
    last: list = [None, None]

    def once(go):
        if last[0] is not go:
            last[:] = go, fn(go)
        return last[1]

    return once


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    probs, centre, _ = _softmax("softmax", a.data, axis=axis)
    return _node(probs, (a, lambda go: probs * centre(go)))


def masked_softmax(logits: Tensor, mask: Tensor) -> Tensor:
    """Softmax over the last axis with multiplicative key weights.

    For a {0,1} mask this equals softmax with -inf logits at masked keys; soft
    masks in (0,1] interpolate smoothly and receive gradients.  Rows whose mask
    is entirely zero produce an all-zero output row (defined degenerate case)
    and contribute zero gradient.  A masked key far above the live maximum
    gets a mask gradient saturated at the float maximum, never an inf, also
    after summing over the axes a broadcast mask spans.
    """
    probs, centre, d_mask = _softmax("masked_softmax", logits.data, mask)
    centred = _per_go(centre)
    return _node(probs, (logits, lambda go: probs * centred(go)),
                 (mask, lambda go: d_mask(centred(go))))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis, then scale by gain and shift by bias.  Mean
    and variance are summed and divided in np.mean's and np.var's order."""
    dim = x.shape[-1]
    if gain.shape != (dim,) or bias.shape != (dim,):
        raise ShapeMismatchError("layer_norm", x.shape, gain.shape, bias.shape)
    xhat = x.data - x.data.sum(axis=-1, keepdims=True) / dim
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / dim
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    data = xhat * gain.data
    data += bias.data
    lead = tuple(range(x.ndim - 1))

    def d_x(go):
        d_xhat = go * gain.data
        mean = d_xhat.mean(axis=-1, keepdims=True)
        proj = (d_xhat * xhat).mean(axis=-1, keepdims=True)
        d_xhat -= mean
        d_xhat -= xhat * proj
        d_xhat *= inv
        return d_xhat

    return _node(data, (x, d_x),
                 (gain, lambda go: (go * xhat).sum(axis=lead)),
                 (bias, lambda go: go.sum(axis=lead)))


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of a (V, d) table for integer ids of any shape: ids.shape + (d,)."""
    ids_arr = np.asarray(ids, dtype=np.int64)
    if ids_arr.size and (ids_arr.min() < 0 or ids_arr.max() >= table.shape[0]):
        raise ShapeMismatchError("embedding_lookup (id out of range)", table.shape)

    def d_table(go):
        full = np.zeros_like(table.data)
        np.add.at(full, ids_arr.reshape(-1), go.reshape(-1, table.shape[-1]))
        return full

    return _node(table.data[ids_arr], (table, d_table))


def l2_normalize(x: Tensor, eps: float = 1e-12) -> Tensor:
    """x / (sum(x * x) + eps) ** 0.5 over the last axis as one node, in the
    arithmetic and order of the composed mul, sum, add, power and divide."""
    xd = x.data
    s = (xd * xd).sum(axis=-1, keepdims=True) + eps
    n = s ** 0.5

    def d_x(go):  # the divide's gradient, then twice that of x * x via n, s
        gx = (-go * xd / (n * n)).sum(axis=-1, keepdims=True) * 0.5 * s ** -0.5 * xd
        return go / n + gx + gx

    return _node(xd / n, (x, d_x))


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------

def attention(q: Tensor, k: Tensor, v: Tensor, key_mask: Tensor | None = None,
              heads: int = 1) -> Tensor:
    """Multi-head scaled dot-product attention as one node:
    (..., n_q, d) x (..., n, d) x (..., n, d_v) -> (..., n_q, d_v), leading
    batch axes broadcast.

    Head j attends with its own d/heads columns of q and k and d_v/heads of
    v: more than one head splits them to (..., heads, n, d/heads) views and
    merges the heads' outputs back.  key_mask broadcasts against the logits,
    (..., n_q, n) for one head and (..., heads, n_q, n) for more, and gates
    them as masked_softmax does; fully-masked rows yield zero rows.  The q,
    k and mask rules share one score gradient per backward pass.
    """
    d, dv = q.shape[-1], v.shape[-1]
    if (min(q.ndim, k.ndim, v.ndim) < 2 or heads < 1 or k.shape[-1] != d
            or k.shape[-2] != v.shape[-2] or d % heads or dv % heads):
        raise ShapeMismatchError("attention", q.shape, k.shape, v.shape)

    def split(x: np.ndarray) -> np.ndarray:  # (..., n, c) -> (..., h, n, c/h)
        if heads == 1:
            return x
        return x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads)).swapaxes(-2, -3)

    def merge(x: np.ndarray) -> np.ndarray:  # the inverse of split
        if heads == 1:
            return x
        x = x.swapaxes(-2, -3)
        return x.reshape(x.shape[:-2] + (-1,))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = 1.0 / math.sqrt(d // heads)
    scores = qh @ kh.swapaxes(-1, -2)
    scores *= scale
    probs, centre, d_mask = _softmax("attention", scores, key_mask)

    @_per_go
    def shared(go):
        go_h = split(go)
        centred = centre(go_h @ vh.swapaxes(-1, -2))
        d_scores = probs * centred
        d_scores *= scale
        return go_h, centred, d_scores

    def d_q(go):
        return merge(_unbroadcast(shared(go)[2] @ kh, qh.shape))

    def d_k(go):
        d_kh = (qh.swapaxes(-1, -2) @ shared(go)[2]).swapaxes(-1, -2)
        return merge(_unbroadcast(d_kh, kh.shape))

    def d_v(go):
        return merge(_unbroadcast(probs.swapaxes(-1, -2) @ shared(go)[0], vh.shape))

    pairs = [(q, d_q), (k, d_k), (v, d_v)]
    if key_mask is not None:
        pairs.append((key_mask, lambda go: d_mask(shared(go)[1])))
    return _node(merge(probs @ vh), *pairs)


# ---------------------------------------------------------------------------
# Losses and sampling
# ---------------------------------------------------------------------------

def _log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-softmax of each row of a 2-D array, shifted by the row maximum."""
    out = x - x.max(axis=1, keepdims=True)
    out -= np.log(np.exp(out).sum(axis=1, keepdims=True))
    return out


def cross_entropy(
    logits: Tensor,
    targets,
    weights=None,
    reduction: str = "mean",
) -> Tensor:
    """Cross entropy of (..., V) logits against integer targets of shape (...).

    weights (shape (...), default all ones) scale each position's negative
    log-likelihood; weight 0 drops a position.  reduction "sum" returns the
    weighted sum; "mean" divides it by the sum of the weights.
    """
    vocab = logits.shape[-1]
    t = np.asarray(targets, dtype=np.int64)
    if t.shape != logits.shape[:-1]:
        raise ShapeMismatchError("cross_entropy targets", logits.shape, t.shape)
    if t.size and (t.min() < 0 or t.max() >= vocab):
        raise ValueError(f"target id out of range for vocab {vocab}")
    w = np.ones(t.shape) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != t.shape:
        raise ShapeMismatchError("cross_entropy weights", t.shape, w.shape)
    if not w.any():
        raise EmptyAfterMaskError()
    if reduction not in ("mean", "sum"):
        raise ValueError(f"unknown reduction {reduction!r}")

    t, w = t.reshape(-1), w.reshape(-1)
    rows = np.arange(t.size)
    log_probs = _log_softmax(logits.data.reshape(-1, vocab))
    total = -(log_probs[rows, t] * w).sum()
    scale = 1.0 / w.sum() if reduction == "mean" else 1.0
    data = np.asarray(total * scale)

    def d_logits(go):
        probs = np.exp(log_probs)
        probs[rows, t] -= 1.0
        probs *= w[:, None]
        probs *= float(go) * scale
        return probs.reshape(logits.shape)

    return _node(data, (logits, d_logits))


def gumbel_noise(rng: "Rng", shape: tuple[int, ...]) -> np.ndarray:
    u = np.clip(rng.uniform(shape), 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))


def gumbel_softmax(
    logits: Tensor, tau: float, hard: bool, rng: "Rng | Sequence[Rng] | None"
) -> Tensor:
    """Per-row Gumbel-Softmax sample; hard mode is one-hot with a
    straight-through gradient (the gradient of the soft sample).

    rng=None draws no noise (deterministic evaluation mode: plain softmax,
    or argmax one-hot when hard).  A sequence of Rngs holds one stream per
    index of the leading (batch) axis; each draws its own example's noise.
    """
    if tau <= 0.0:
        raise NonPositiveTemperatureError(tau)
    if rng is None:
        noise = 0.0
    elif isinstance(rng, Rng):
        noise = gumbel_noise(rng, logits.shape)
    else:
        noise = np.stack([gumbel_noise(r, logits.shape[1:]) for r in rng])
    soft, centre, _ = _softmax("gumbel_softmax", (logits.data + noise) / tau)
    if hard:
        data = np.zeros_like(soft)
        np.put_along_axis(
            data, soft.argmax(axis=-1, keepdims=True), 1.0, axis=-1
        )
    else:
        data = soft
    return _node(data, (logits, lambda go: soft * centre(go) / tau))


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def finite_diff_grad(
    f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    grad = np.zeros_like(x.data)
    with no_grad():
        for index in np.ndindex(x.shape):
            grad[index] = finite_diff_coord(lambda: f(x).item(), x, index, h)
    return grad


def finite_diff_coord(
    f: Callable[[], float], param: Tensor, index: tuple[int, ...], h: float = 1e-5
) -> float:
    """Central difference along one coordinate of a parameter used inside f."""
    original = param.data[index]
    try:
        param.data[index] = original + h
        up = f()
        param.data[index] = original - h
        down = f()
    finally:
        param.data[index] = original
    return (up - down) / (2.0 * h)


# ---------------------------------------------------------------------------
# Counter-based splittable RNG
# ---------------------------------------------------------------------------

class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """Hands Philox its two 64-bit key words as they are.  `Philox(key=k)`
    gives the same stream, but first builds a SeedSequence from OS entropy
    and throws it away, which costs most of a split."""

    def __init__(self, digest: bytes):
        self.words = np.frombuffer(digest, dtype="<u8").astype(np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


class Rng:
    """Philox-backed stream; `split(label)` derives an independent child
    stream from (seed, label) so identical (seed, label, draw index) always
    reproduces the same values.  The stream of (seed, path) is Philox keyed
    by the little-endian 128-bit blake2b digest of `f"{seed}:{path}"`.
    """

    def __init__(self, seed: int, _path: str = ""):
        self.seed = int(seed)
        self.path = _path
        digest = hashlib.blake2b(
            f"{self.seed}:{_path}".encode(), digest_size=16
        ).digest()
        self._gen = np.random.Generator(np.random.Philox(_PhiloxKey(digest)))

    def split(self, label: str) -> "Rng":
        return Rng(self.seed, f"{self.path}/{label}")

    def uniform(self, shape=()) -> np.ndarray:
        return self._gen.random(shape)

    def normal(self, shape=(), std: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, std, shape)

    def integers(self, low: int, high: int, shape=None):
        result = self._gen.integers(low, high, size=shape)
        return int(result) if shape is None else result

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

class Adam:
    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in params.items()}
        # two rows of working space, each as large as the largest parameter,
        # allocated by the first step; every step computes into views of it
        self._scratch: np.ndarray | None = None

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        """One Adam update, in place:
        m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
        p -= lr (m / bias1) / (sqrt(v / bias2) + eps).
        Parameters whose grad is None are skipped.  Only the first step
        allocates (the scratch); later steps allocate no arrays."""
        if self._scratch is None:
            # Only speed depends on where this lands on the heap: a live block
            # above the memory a step frees keeps glibc from trimming it, so
            # the next step reuses those pages instead of faulting them back
            # in.  Backward frees the tape before the first step gets here,
            # so the scratch no longer reliably lands above it.
            self._scratch = np.empty(
                (2, max((p.data.size for p in self.params.values()), default=0)))
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self._m[name], self._v[name]
            num = self._scratch[0, :m.size].reshape(m.shape)
            denom = self._scratch[1, :m.size].reshape(m.shape)
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=num)
            v *= b2
            v += np.multiply(np.multiply(g, g, out=num), 1.0 - b2, out=num)
            np.multiply(np.divide(m, bias1, out=num), self.lr, out=num)
            np.add(np.sqrt(np.divide(v, bias2, out=denom), out=denom), self.eps,
                   out=denom)
            p.data -= np.divide(num, denom, out=num)


# ---------------------------------------------------------------------------
# Checkpoints: flat little-endian float64 + JSON sidecar
# ---------------------------------------------------------------------------

def checkpoint_path(prefix: str | Path, suffix: str) -> Path:
    """`<prefix><suffix>`, the one rule for naming a run's files.  The suffix
    is appended, never substituted, so prefixes that differ only after a dot
    (ck.v1, ck.v2) name different files."""
    prefix = Path(prefix)
    return prefix.with_name(prefix.name + suffix)


@contextmanager
def replacing(path: str | Path):
    """A binary file handle on a temporary file next to `path`, moved onto
    `path` by os.replace when the block ends.  If the block raises, the
    temporary file is removed and `path` keeps its old bytes."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def json_bytes(obj) -> bytes:
    """The strict, indented, key-sorted JSON of a sidecar or snapshot."""
    return (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def save_params(params: dict[str, Tensor], prefix: str | Path) -> None:
    """Write checkpoint `prefix`: `.bin` holds each parameter's float64
    bytes in name order, the `.json` sidecar their offsets and shapes.  Both
    go through `replacing`, so a save that fails leaves the old files."""
    index: dict[str, dict] = {}
    offset = 0
    with replacing(checkpoint_path(prefix, ".bin")) as fh, \
            replacing(checkpoint_path(prefix, ".json")) as sidecar:
        for name in sorted(params):
            src = params[name].data
            arr = np.ascontiguousarray(src, dtype="<f8")
            fh.write(arr.tobytes())
            index[name] = {"offset": offset, "shape": list(src.shape)}
            offset += arr.nbytes
        sidecar.write(json_bytes({"schema": 1, "params": index}))


def load_params(prefix: str | Path, requires_grad: bool = True) -> dict[str, Tensor]:
    """The parameters of checkpoint `prefix`.  The sidecar is checked here,
    field by field: a malformed one raises ValueError naming the field, as
    does one whose byte ranges, in offset order, do not tile the `.bin`."""
    sidecar = json.loads(
        checkpoint_path(prefix, ".json").read_text(encoding="utf-8"))
    if type(sidecar) is not dict:
        raise ValueError(f"checkpoint sidecar must be a JSON object, got {sidecar!r}")
    if sidecar.get("schema") != 1:
        raise ValueError(f"unsupported checkpoint schema: {sidecar.get('schema')!r}")
    index = sidecar.get("params")
    if type(index) is not dict:
        raise ValueError(
            f"checkpoint sidecar params must be a JSON object, got {index!r}")
    raw = checkpoint_path(prefix, ".bin").read_bytes()
    params: dict[str, Tensor] = {}
    ranges: list[tuple[int, int, str]] = []
    for name, meta in index.items():
        label = f"checkpoint sidecar params[{name!r}]"
        if type(meta) is not dict:
            raise ValueError(f"{label} must be a JSON object, got {meta!r}")
        offset, shape = meta.get("offset"), meta.get("shape")
        if type(offset) is not int or offset < 0:
            raise ValueError(f"{label}.offset must be an integer >= 0, got {offset!r}")
        if type(shape) is not list or any(type(d) is not int or d < 0 for d in shape):
            raise ValueError(
                f"{label}.shape must be a list of integers >= 0, got {shape!r}")
        count = math.prod(shape)
        if offset + 8 * count > len(raw):
            raise ValueError(f"{label}: {count} values at offset {offset} run past "
                             f"the {len(raw)}-byte .bin")
        ranges.append((offset, offset + 8 * count, name))
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape)
        params[name] = Tensor(arr.astype(np.float64), requires_grad=requires_grad)
    end, last = 0, None
    for offset, stop, name in sorted(ranges):
        if offset < end:
            raise ValueError(f"checkpoint sidecar params[{name!r}] at offset {offset} "
                             f"overlaps params[{last!r}], which ends at {end}")
        if offset > end:
            raise ValueError(f"checkpoint sidecar leaves bytes {end}-{offset - 1} of the "
                             f".bin to no parameter, before params[{name!r}]")
        end, last = stop, name
    if end < len(raw):
        raise ValueError(f"checkpoint .bin has {len(raw) - end} trailing bytes after "
                         f"its last parameter (sidecar ends at {end} of {len(raw)})")
    return params
