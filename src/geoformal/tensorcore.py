"""Minimal dense tensor kernel with reverse-mode differentiation.

Tensors wrap 64-bit numpy arrays.  Every op builds a fresh tape node with a
hand-written backward; `Tensor.backward()` walks the graph once in reverse
topological order.  Ops never mutate their inputs; only the Adam optimizer
writes parameter data in place.  Wrap inference code in `no_grad()` to skip
tape construction entirely.
"""

from __future__ import annotations

import hashlib
import json
import math
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


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def backward(self) -> None:
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
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    if not (_grad_enabled and any(p.requires_grad for p in parents)):
        return Tensor(data)
    out = Tensor(data, requires_grad=True)
    out._parents = tuple(parents)
    out._backward = backward
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (have, want) in enumerate(zip(g.shape, shape)):
        if want == 1 and have != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# Elementwise and shape ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeMismatchError("add", a.shape, b.shape) from None

    def backward(go):
        _accumulate(a, _unbroadcast(go, a.shape))
        _accumulate(b, _unbroadcast(go, b.shape))

    return _node(data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeMismatchError("sub", a.shape, b.shape) from None

    def backward(go):
        _accumulate(a, _unbroadcast(go, a.shape))
        _accumulate(b, _unbroadcast(-go, b.shape))

    return _node(data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(go):
        _accumulate(a, -go)

    return _node(-a.data, (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeMismatchError("mul", a.shape, b.shape) from None

    def backward(go):
        _accumulate(a, _unbroadcast(go * b.data, a.shape))
        _accumulate(b, _unbroadcast(go * a.data, b.shape))

    return _node(data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data / b.data
    except ValueError:
        raise ShapeMismatchError("div", a.shape, b.shape) from None

    def backward(go):
        _accumulate(a, _unbroadcast(go / b.data, a.shape))
        _accumulate(b, _unbroadcast(-go * a.data / (b.data * b.data), b.shape))

    return _node(data, (a, b), backward)


def power(a: Tensor, exponent: float) -> Tensor:
    data = a.data ** exponent

    def backward(go):
        _accumulate(a, go * exponent * a.data ** (exponent - 1.0))

    return _node(data, (a,), backward)


def log(a: Tensor) -> Tensor:
    def backward(go):
        _accumulate(a, go / a.data)

    return _node(np.log(a.data), (a,), backward)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward(go):
        _accumulate(a, go * data)

    return _node(data, (a,), backward)


def absval(a: Tensor) -> Tensor:
    def backward(go):
        _accumulate(a, go * np.sign(a.data))

    return _node(np.abs(a.data), (a,), backward)


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

    def backward(go):
        # 0.5 (1 + t) + 0.5 x (1 - t^2) C (1 + 3 * 0.044715 x^2)
        local = (1.0 - t * t) * (_GELU_C * (1.0 + 3 * 0.044715 * (x * x)))
        local *= x
        local += 1.0 + t
        local *= 0.5
        local *= go
        _accumulate(a, local)

    return _node(data, (a,), backward)


def transpose(a: Tensor, axis1: int = -1, axis2: int = -2) -> Tensor:
    """Swap two axes, by default the last two (leading axes are a batch)."""
    if a.ndim < 2:
        raise ShapeMismatchError("transpose (needs >= 2-D)", a.shape)

    def backward(go):
        _accumulate(a, go.swapaxes(axis1, axis2))

    return _node(a.data.swapaxes(axis1, axis2), (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    def backward(go):
        _accumulate(a, go.reshape(a.shape))

    return _node(a.data.reshape(shape), (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [t for t in tensors]
    if not tensors:
        raise ShapeMismatchError("concat (empty)", ())
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def backward(go):
        offset = 0
        for t, size in zip(tensors, sizes):
            index = [slice(None)] * go.ndim
            index[axis] = slice(offset, offset + size)
            _accumulate(t, go[tuple(index)])
            offset += size

    return _node(data, tensors, backward)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def backward(go):
        full = np.zeros_like(a.data)
        full[index] = go
        _accumulate(a, full)

    return _node(a.data[index].copy(), (a,), backward)


def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(go):
        g = go
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.shape).copy())

    return _node(data, (a,), backward)


def mean_pool(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), Tensor(1.0 / count))


# ---------------------------------------------------------------------------
# Linear algebra and normalization
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes; leading batch axes broadcast."""
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError("matmul", a.shape, b.shape)
    if a.ndim > 2 and b.ndim == 2:
        # a stacked left operand times a weight: one folded BLAS product each
        # way, not a loop over the batch (np.matmul loops over broadcast axes)
        k, m = b.shape
        rows = a.data.reshape(-1, k)
        data = (rows @ b.data).reshape(a.shape[:-1] + (m,))

        def backward(go):
            go_rows = go.reshape(-1, m)
            _accumulate(a, (go_rows @ b.data.T).reshape(a.shape))
            _accumulate(b, rows.T @ go_rows)

        return _node(data, (a, b), backward)

    def backward(go):
        _accumulate(a, _unbroadcast(go @ b.data.swapaxes(-1, -2), a.shape))
        _accumulate(b, _unbroadcast(a.data.swapaxes(-1, -2) @ go, b.shape))

    return _node(a.data @ b.data, (a, b), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    data = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=axis, keepdims=True)

    def backward(go):
        dot = (go * data).sum(axis=axis, keepdims=True)
        _accumulate(a, data * (go - dot))

    return _node(data, (a,), backward)


_MASK_TINY = 1e-30
_EXP_MAX = math.log(np.finfo(np.float64).max)


def masked_softmax(logits: Tensor, mask: Tensor) -> Tensor:
    """Softmax over the last axis with multiplicative key weights.

    For a {0,1} mask this equals softmax with -inf logits at masked keys; soft
    masks in (0,1] interpolate smoothly and receive gradients.  Rows whose mask
    is entirely zero produce an all-zero output row (defined degenerate case)
    and contribute zero gradient.
    """
    try:
        mask_b = np.broadcast_to(mask.data, logits.shape)
    except ValueError:
        raise ShapeMismatchError("masked_softmax", logits.shape, mask.shape) from None
    live = mask_b > 0.0
    shifted_src = np.where(live, logits.data, -np.inf)
    row_max = shifted_src.max(axis=-1, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    # cap masked keys far above the live maximum: a finite weight times 0 is 0
    e = np.exp(np.minimum(logits.data - row_max, _EXP_MAX))
    weighted = e * mask_b
    z = weighted.sum(axis=-1, keepdims=True)
    safe = z > _MASK_TINY
    z_safe = np.where(safe, z, 1.0)
    data = np.where(safe, weighted / z_safe, 0.0)

    def backward(go):
        dot = (go * data).sum(axis=-1, keepdims=True)
        d_logits = data * (go - dot)
        _accumulate(logits, d_logits)
        if mask.requires_grad:
            d_mask = np.where(safe, (e / z_safe) * (go - dot), 0.0)
            _accumulate(mask, _unbroadcast(d_mask, mask.shape))

    return _node(data, (logits, mask), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    dim = x.shape[-1]
    if gain.shape != (dim,) or bias.shape != (dim,):
        raise ShapeMismatchError("layer_norm", x.shape, gain.shape, bias.shape)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = xhat * gain.data + bias.data

    def backward(go):
        d_xhat = go * gain.data
        term = d_xhat - d_xhat.mean(axis=-1, keepdims=True) \
            - xhat * (d_xhat * xhat).mean(axis=-1, keepdims=True)
        _accumulate(x, term * inv)
        lead = tuple(range(go.ndim - 1))
        _accumulate(gain, (go * xhat).sum(axis=lead))
        _accumulate(bias, go.sum(axis=lead))

    return _node(data, (x, gain, bias), backward)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of a (V, d) table for integer ids of any shape: ids.shape + (d,)."""
    ids_arr = np.asarray(ids, dtype=np.int64)
    if ids_arr.size and (ids_arr.min() < 0 or ids_arr.max() >= table.shape[0]):
        raise ShapeMismatchError("embedding_lookup (id out of range)", table.shape)
    data = table.data[ids_arr]

    def backward(go):
        d_table = np.zeros_like(table.data)
        np.add.at(d_table, ids_arr.reshape(-1), go.reshape(-1, table.shape[-1]))
        _accumulate(table, d_table)

    return _node(data, (table,), backward)


def l2_normalize(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Unit L2 norm over the last axis, composed from primitives."""
    norm = power(add(tsum(mul(x, x), axis=-1, keepdims=True), Tensor(eps)), 0.5)
    return div(x, norm)


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------

def attention(q: Tensor, k: Tensor, v: Tensor, key_mask: Tensor | None = None) -> Tensor:
    """Scaled dot-product attention (..., q, d) x (..., n, d) x (..., n, d_v)
    -> (..., q, d_v); leading batch axes broadcast.

    key_mask broadcasts over query rows; fully-masked inputs yield zero rows
    (see masked_softmax).
    """
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise ShapeMismatchError("attention", q.shape, k.shape, v.shape)
    logits = mul(matmul(q, transpose(k)), Tensor(1.0 / math.sqrt(q.shape[-1])))
    if key_mask is None:
        probs = softmax(logits, axis=-1)
    else:
        probs = masked_softmax(logits, key_mask)
    return matmul(probs, v)


# ---------------------------------------------------------------------------
# Losses and sampling
# ---------------------------------------------------------------------------

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
    x = logits.data.reshape(-1, vocab)
    shifted = x - x.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    total = -(log_probs[rows, t] * w).sum()
    scale = 1.0 / w.sum() if reduction == "mean" else 1.0
    data = np.asarray(total * scale)

    def backward(go):
        probs = np.exp(log_probs)
        probs[rows, t] -= 1.0
        probs *= w[:, None]
        _accumulate(logits, (probs * (float(go) * scale)).reshape(logits.shape))

    return _node(data, (logits,), backward)


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
    scores = (logits.data + noise) / tau
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    soft = e / e.sum(axis=-1, keepdims=True)
    if hard:
        data = np.zeros_like(soft)
        np.put_along_axis(
            data, soft.argmax(axis=-1, keepdims=True), 1.0, axis=-1
        )
    else:
        data = soft

    def backward(go):
        dot = (go * soft).sum(axis=-1, keepdims=True)
        _accumulate(logits, soft * (go - dot) / tau)

    return _node(data, (logits,), backward)


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

class Rng:
    """Philox-backed stream; `split(label)` derives an independent child
    stream from (seed, label) so identical (seed, label, draw index) always
    reproduces the same values.
    """

    def __init__(self, seed: int, _path: str = ""):
        self.seed = int(seed)
        self.path = _path
        digest = hashlib.blake2b(
            f"{self.seed}:{_path}".encode(), digest_size=16
        ).digest()
        self._gen = np.random.Generator(
            np.random.Philox(key=int.from_bytes(digest, "little"))
        )

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

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * p.grad
            v *= b2
            v += (1.0 - b2) * (p.grad * p.grad)
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


# ---------------------------------------------------------------------------
# Checkpoints: flat little-endian float64 + JSON sidecar
# ---------------------------------------------------------------------------

def checkpoint_path(prefix: str | Path, suffix: str) -> Path:
    """`<prefix><suffix>`, the one rule for naming a run's files.  The suffix
    is appended, never substituted, so prefixes that differ only after a dot
    (ck.v1, ck.v2) name different files."""
    prefix = Path(prefix)
    return prefix.with_name(prefix.name + suffix)


def save_params(params: dict[str, Tensor], prefix: str | Path) -> None:
    names = sorted(params)
    index: dict[str, dict] = {}
    offset = 0
    with open(checkpoint_path(prefix, ".bin"), "wb") as fh:
        for name in names:
            src = params[name].data
            arr = np.ascontiguousarray(src, dtype="<f8")
            fh.write(arr.tobytes())
            index[name] = {"offset": offset, "shape": list(src.shape)}
            offset += arr.nbytes
    sidecar = {"schema": 1, "params": index}
    checkpoint_path(prefix, ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )


def load_params(prefix: str | Path, requires_grad: bool = True) -> dict[str, Tensor]:
    sidecar = json.loads(
        checkpoint_path(prefix, ".json").read_text(encoding="utf-8"))
    if sidecar.get("schema") != 1:
        raise ValueError(f"unsupported checkpoint schema: {sidecar.get('schema')!r}")
    raw = checkpoint_path(prefix, ".bin").read_bytes()
    params: dict[str, Tensor] = {}
    for name, meta in sidecar["params"].items():
        shape = tuple(meta["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(
            raw, dtype="<f8", count=count, offset=meta["offset"]
        ).reshape(shape)
        params[name] = Tensor(arr.astype(np.float64), requires_grad=requires_grad)
    return params
