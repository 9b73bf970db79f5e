"""Per-op forward and backward times at the shapes the model uses.

Forward: the op called on inputs that require gradients, so it builds its
tape node.  Backward: `Tensor.backward()` on `sum(op(x) * G)` minus the same
on a leaf of the op's output shape, which leaves the op's own backward and
gradient accumulation.  Public API only.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from geoformal import tensorcore as tc
from geoformal.tensorcore import Rng, Tensor

BUDGET_S = 0.04  # per measured quantity
MIN_REPS = 15
_NOISE = Rng(0)

# (op, input shapes, call); shapes from the decoder at a 40-row prefix
# (d_lm 128, ffn 512, 4 heads of 32, vocab 128) and GS-Former's 8 queries
# over 64 patches.
CASES = (
    ("gelu", [(40, 512)], lambda x: tc.gelu(x)),
    ("matmul", [(40, 128), (128, 512)], lambda a, b: tc.matmul(a, b)),
    ("masked_softmax", [(8, 64), (64,)], lambda x, m: tc.masked_softmax(x, m)),
    ("softmax", [(40, 40)], lambda x: tc.softmax(x, axis=-1)),
    ("layer_norm", [(40, 128), (128,), (128,)], lambda x, g, b: tc.layer_norm(x, g, b)),
    ("narrow", [(40, 128)], lambda x: tc.narrow(x, 1, 32, 32)),
    ("concat", [(40, 32)] * 4, lambda *xs: tc.concat(list(xs), axis=1)),
    ("add", [(40, 512), (512,)], lambda a, b: tc.add(a, b)),
    ("mul", [(40, 40), ()], lambda a, b: tc.mul(a, b)),
    ("cross_entropy", [(40, 128)],
     lambda x: tc.cross_entropy(x, list(range(40)), reduction="sum")),
    ("embedding_lookup", [(128, 128)], lambda t: tc.embedding_lookup(t, list(range(3, 43)))),
    ("gumbel_softmax", [(64, 2)], lambda x: tc.gumbel_softmax(x, 1.0, False, _NOISE)),
)


def _median_us(fn) -> float:
    times = []
    deadline = time.perf_counter() + BUDGET_S
    while len(times) < MIN_REPS or time.perf_counter() < deadline:
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e3


def _backward_us(build, inputs) -> float:
    """Median time of `build().backward()`, graph built outside the timing."""
    times = []
    deadline = time.perf_counter() + BUDGET_S
    while len(times) < MIN_REPS or time.perf_counter() < deadline:
        for x in inputs:
            x.grad = None
        loss = build()
        t0 = time.perf_counter_ns()
        loss.backward()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e3


def op_micro() -> dict[str, float]:
    rng = np.random.default_rng(0)
    out = {}
    for name, shapes, call in CASES:
        inputs = [Tensor(rng.uniform(0.1, 1.0, s), requires_grad=True) for s in shapes]
        y = call(*inputs)
        weight = Tensor(rng.standard_normal(y.shape))
        leaf = Tensor(y.data.copy(), requires_grad=True)
        out[f"tensorcore.{name}.fwd_us"] = _median_us(lambda: call(*inputs))
        full = _backward_us(lambda: tc.tsum(tc.mul(call(*inputs), weight)), inputs)
        base = _backward_us(lambda: tc.tsum(tc.mul(leaf, weight)), [leaf])
        out[f"tensorcore.{name}.bwd_us"] = max(full - base, 0.0)
    return out
