import hashlib
import inspect
import json
import math
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from geoformal import pretrain as pt
from geoformal import selfcheck
from geoformal import tensorcore as tc
from geoformal.tensorcore import (
    Adam,
    EmptyAfterMaskError,
    NonPositiveTemperatureError,
    Rng,
    ShapeMismatchError,
    Tensor,
    finite_diff_grad,
)
from oracles import (
    reference_adam_step,
    reference_attention,
    reference_backward,
    reference_gelu,
    reference_l2_normalize,
    reference_layer_norm,
    tape_nodes,
)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-4)
    return float((np.abs(a - b) / scale).max())


def assert_grad_matches(build, x: Tensor, tol: float = 1e-3, h: float = 1e-5):
    x.grad = None
    build(x).backward()
    backprop = x.grad
    assert backprop is not None, "no gradient reached the input"
    fd = finite_diff_grad(lambda t: build(t), x, h=h)
    assert rel_err(fd, backprop) <= tol


def rand(rng: Rng, shape, lo=-1.0, hi=1.0) -> Tensor:
    return Tensor(lo + (hi - lo) * rng.uniform(shape), requires_grad=True)


def square(y: Tensor) -> Tensor:
    return tc.mul(y, y)


# ---------------------------------------------------------------------------
# Forward semantics
# ---------------------------------------------------------------------------

def test_softmax_uniform():
    out = tc.softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_rows_sum_to_one_and_positive():
    rng = Rng(0)
    x = Tensor(rng.normal((20, 7), std=5.0))
    out = tc.softmax(x, axis=-1)
    assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) <= 1e-12)
    assert np.all(out.data > 0.0)


def test_matmul_shape_algebra():
    a, b = tc.zeros((2, 3)), tc.zeros((3, 4))
    assert tc.matmul(a, b).shape == (2, 4)
    with pytest.raises(ShapeMismatchError):
        tc.matmul(a, tc.zeros((4, 2)))


def test_gradient_of_softmax_sum_is_zero():
    x = Tensor([0.3, -1.2, 2.0], requires_grad=True)
    tc.tsum(tc.softmax(x)).backward()
    fd = finite_diff_grad(lambda t: tc.tsum(tc.softmax(t)), x)
    assert np.allclose(x.grad, 0.0, atol=1e-9)
    assert np.allclose(fd, 0.0, atol=1e-6)


def test_layer_norm_standardizes():
    rng = Rng(1)
    x = Tensor(rng.normal((4, 8), std=3.0))
    out = tc.layer_norm(x, tc.ones((8,)), tc.zeros((8,)))
    assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-3)


def test_mean_pool_axis():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(tc.mean_pool(x, axis=0).data, [2.0, 3.0])
    assert np.allclose(tc.mean_pool(x, axis=1).data, [1.5, 3.5])


def test_embedding_lookup_rows():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    out = tc.embedding_lookup(table, [2, 0, 2])
    assert np.allclose(out.data, [[6, 7, 8], [0, 1, 2], [6, 7, 8]])
    tc.tsum(out).backward()
    assert np.allclose(table.grad, [[1, 1, 1], [0, 0, 0], [2, 2, 2], [0, 0, 0]])


def test_embedding_lookup_takes_ids_of_any_shape():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    out = tc.embedding_lookup(table, [[2, 0], [3, 2]])
    assert out.shape == (2, 2, 3)
    assert np.array_equal(out.data[1, 0], [9, 10, 11])
    tc.tsum(out).backward()
    assert np.array_equal(table.grad, [[1, 1, 1], [0, 0, 0], [2, 2, 2], [1, 1, 1]])
    assert_grad_matches(
        lambda t: tc.tsum(square(tc.embedding_lookup(t, [[0, 3, 3], [1, 0, 2]]))),
        rand(Rng(20), (4, 3)))


# ---------------------------------------------------------------------------
# Gradient audit, op by op
# ---------------------------------------------------------------------------

def test_grad_elementwise_ops():
    rng = Rng(2)
    other = Tensor(rng.uniform((3, 4)) + 0.5)
    row = Tensor(rng.uniform((4,)) + 0.5)
    cases = [
        lambda t: tc.tsum(tc.add(t, other)),
        lambda t: tc.tsum(tc.add(t, row)),          # broadcast add
        lambda t: tc.tsum(tc.sub(t, other)),
        lambda t: tc.tsum(tc.mul(t, other)),
        lambda t: tc.tsum(tc.mul(t, row)),          # broadcast mul
        lambda t: tc.tsum(tc.exp(t)),
        lambda t: tc.tsum(tc.gelu(t)),
    ]
    for case in cases:
        assert_grad_matches(case, rand(rng, (3, 4), lo=0.2, hi=2.0))


def test_gradcheck_calls_every_node_building_op_directly(monkeypatch):
    """Every public op whose own body builds a tape node is called by at
    least one gradcheck row's builder itself, not only from inside another
    op, so no fused op goes without a finite-difference audit."""
    public = {name: fn for name, fn in vars(tc).items()
              if inspect.isfunction(fn) and not name.startswith("_")
              and fn.__module__ == tc.__name__}
    node_ops = sorted(name for name, fn in public.items()
                      if "_node(" in inspect.getsource(fn))
    assert {"add", "linear", "attention", "layer_norm", "l2_normalize"} <= set(node_ops)
    direct = dict.fromkeys(public, 0)
    depth = [0]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            direct[name] += depth[0] == 0
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    for name, fn in public.items():
        monkeypatch.setattr(tc, name, counted(name, fn))
    for name, make_input, build in selfcheck._op_cases(Rng(1).split("cases")):
        build(make_input(Rng(1).split(name)))
    assert [name for name in node_ops if not direct[name]] == []


def test_grad_shape_ops():
    rng = Rng(3)
    other = Tensor(rng.uniform((2, 4)))
    cases = [
        lambda t: tc.tsum(tc.mul(tc.transpose(t), tc.transpose(t))),
        lambda t: tc.tsum(square(tc.reshape(t, (12,)))),
        lambda t: tc.tsum(square(tc.concat([t, other], axis=0))),
        lambda t: tc.tsum(square(tc.narrow(t, 0, 1, 2))),
        lambda t: tc.tsum(square(tc.narrow(t, 1, 1, 3))),
        lambda t: tc.tsum(tc.mul(t, t)),
        lambda t: tc.tsum(square(tc.mean_pool(t, axis=0))),
        lambda t: tc.tsum(square(tc.mean_pool(t, axis=1))),
    ]
    for case in cases:
        assert_grad_matches(case, rand(rng, (3, 4)))


def test_grad_matmul_both_sides():
    rng = Rng(4)
    left = Tensor(rng.normal((3, 5)))
    right = Tensor(rng.normal((5, 2)))
    assert_grad_matches(lambda t: tc.tsum(square(tc.matmul(t, right))),
                        rand(rng, (3, 5)))
    assert_grad_matches(lambda t: tc.tsum(square(tc.matmul(left, t))),
                        rand(rng, (5, 2)))


def test_batched_matmul_and_transpose_forward():
    rng = Rng(14)
    a = Tensor(rng.normal((3, 2, 5)))
    b = Tensor(rng.normal((3, 5, 4)))
    w = Tensor(rng.normal((5, 4)))
    assert np.allclose(tc.matmul(a, b).data,
                       np.stack([a.data[i] @ b.data[i] for i in range(3)]),
                       rtol=0.0, atol=1e-12)
    # a 2-D right operand broadcasts over the batch
    assert np.allclose(tc.matmul(a, w).data,
                       np.stack([a.data[i] @ w.data for i in range(3)]),
                       rtol=0.0, atol=1e-12)
    assert tc.transpose(b).shape == (3, 4, 5)
    assert np.array_equal(tc.transpose(b).data[1], b.data[1].T)
    with pytest.raises(ShapeMismatchError):
        tc.matmul(a, Tensor(np.zeros((2, 4, 4))))
    with pytest.raises(ShapeMismatchError):
        tc.transpose(Tensor(np.zeros(3)))


def test_batched_matmul_and_transpose_grads():
    rng = Rng(15)
    left = Tensor(rng.normal((3, 2, 5)))
    right = Tensor(rng.normal((3, 5, 4)))
    assert_grad_matches(lambda t: tc.tsum(square(tc.matmul(t, right))),
                        rand(rng, (3, 2, 5)))
    assert_grad_matches(lambda t: tc.tsum(square(tc.matmul(left, t))),
                        rand(rng, (3, 5, 4)))
    # the broadcast 2-D operand sums its gradient over the batch
    assert_grad_matches(lambda t: tc.tsum(square(tc.matmul(left, t))),
                        rand(rng, (5, 4)))
    assert_grad_matches(
        lambda t: tc.tsum(square(tc.matmul(tc.transpose(t), right))),
        rand(rng, (3, 5, 2)))


def test_matmul_folds_a_stacked_left_operand_in_both_directions():
    rng = Rng(21)
    a = Tensor(rng.normal((3, 4, 5)), requires_grad=True)
    w = Tensor(rng.normal((5, 2)), requires_grad=True)
    go = rng.normal((3, 4, 2))
    tc.tsum(tc.mul(tc.matmul(a, w), Tensor(go))).backward()
    rows, go_rows = a.data.reshape(12, 5), go.reshape(12, 2)
    assert np.array_equal(a.grad, (go_rows @ w.data.T).reshape(3, 4, 5))
    assert np.array_equal(w.grad, rows.T @ go_rows)
    want = sum(a.data[i].T @ go[i] for i in range(3))
    assert np.abs(w.grad - want).max() <= 1e-12 * np.abs(want).max()


def test_attention_takes_leading_batch_axes():
    rng = Rng(22)
    q = Tensor(rng.normal((2, 4)))
    k = Tensor(rng.normal((3, 5, 4)))
    v = Tensor(rng.normal((3, 5, 2)))
    mask = Tensor(0.3 + 0.7 * rng.uniform((3, 1, 5)))
    out = tc.attention(q, k, v, mask)
    assert out.shape == (3, 2, 2)
    for i in range(3):
        one = tc.attention(q, Tensor(k.data[i]), Tensor(v.data[i]),
                           Tensor(mask.data[i, 0]))
        assert np.allclose(out.data[i], one.data, rtol=0.0, atol=1e-12)
    assert_grad_matches(lambda t: tc.tsum(square(tc.attention(q, t, v, mask))),
                        rand(rng, (3, 5, 4)))
    with pytest.raises(ShapeMismatchError):
        tc.attention(q, Tensor(rng.normal((3, 5, 3))), v)


def test_two_d_matmul_and_transpose_are_bit_identical_to_plain_numpy():
    rng = Rng(16)
    a = Tensor(rng.normal((7, 9)), requires_grad=True)
    b = Tensor(rng.normal((9, 5)), requires_grad=True)
    out = tc.matmul(a, tc.transpose(tc.transpose(b)))
    go = rng.normal((7, 5))
    tc.tsum(tc.mul(out, Tensor(go))).backward()
    assert np.array_equal(out.data, a.data @ b.data)
    assert np.array_equal(a.grad, go @ b.data.T)
    assert np.array_equal(b.grad, a.data.T @ go)


def test_grad_softmax_and_layer_norm():
    rng = Rng(5)
    weights = Tensor(rng.normal((4,)))
    assert_grad_matches(
        lambda t: tc.tsum(tc.mul(tc.softmax(t, axis=-1), weights)), rand(rng, (3, 4))
    )
    gain = Tensor(rng.normal((4,), std=0.5) + 1.0, requires_grad=True)
    bias = Tensor(rng.normal((4,), std=0.5), requires_grad=True)
    x = rand(rng, (3, 4))
    assert_grad_matches(
        lambda t: tc.tsum(square(tc.layer_norm(t, gain, bias))), x
    )
    assert_grad_matches(
        lambda g: tc.tsum(square(tc.layer_norm(x, g, bias))), gain
    )
    assert_grad_matches(
        lambda b: tc.tsum(square(tc.layer_norm(x, gain, b))), bias
    )


def test_grad_masked_softmax_logits_and_mask():
    rng = Rng(6)
    mask = Tensor(0.2 + 0.8 * rng.uniform((4,)), requires_grad=True)
    weights = Tensor(rng.normal((3, 4)))
    logits = rand(rng, (3, 4))
    assert_grad_matches(
        lambda t: tc.tsum(tc.mul(tc.masked_softmax(t, mask), weights)), logits
    )
    assert_grad_matches(
        lambda m: tc.tsum(tc.mul(tc.masked_softmax(logits, m), weights)), mask
    )


def test_masked_softmax_ignores_a_masked_logit_far_above_the_live_ones():
    logits = Tensor([[0.0, 1000.0, 1.0]], requires_grad=True)
    mask = Tensor([1.0, 0.0, 1.0])
    with np.errstate(all="raise"):
        out = tc.masked_softmax(logits, mask)
        tc.tsum(tc.mul(out, Tensor([[1.0, 5.0, -2.0]]))).backward()
    live = np.exp([0.0, 1.0]) / np.exp([0.0, 1.0]).sum()
    assert np.array_equal(out.data, [[live[0], 0.0, live[1]]])
    assert np.all(np.isfinite(logits.grad)) and logits.grad[0, 1] == 0.0


def test_masked_softmax_mask_gradient_saturates_instead_of_overflowing():
    logits = Tensor([[0.0, 1000.0, 1.0]], requires_grad=True)
    mask = Tensor([1.0, 0.0, 1.0], requires_grad=True)
    go = np.array([[5.0, 0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = tc.masked_softmax(logits, mask)
        tc.tsum(tc.mul(out, Tensor(go))).backward()
    top = np.finfo(np.float64).max
    e = np.exp([0.0, 1.0])
    dot = (go * out.data).sum()
    # the masked key's weight e/z would be ~1.3e308; times (0 - dot) it
    # saturates at -max, and the live keys keep the plain formula
    assert mask.grad[1] == -top
    assert mask.grad[0] == (e[0] / e.sum()) * (go[0, 0] - dot)
    assert mask.grad[2] == (e[1] / e.sum()) * (go[0, 2] - dot)
    assert np.all(np.isfinite(logits.grad)) and logits.grad[0, 1] == 0.0


def test_masked_softmax_matches_the_plain_formula_bit_for_bit():
    rng = Rng(18)
    for hard in (False, True):
        logits = Tensor(rng.normal((2, 3, 5), std=3.0), requires_grad=True)
        m = 0.2 + 0.8 * rng.uniform((3, 5))
        if hard:
            m = (m > 0.5).astype(float)
        mask = Tensor(m, requires_grad=True)
        go = rng.normal((2, 3, 5))
        out = tc.masked_softmax(logits, mask)
        tc.tsum(tc.mul(out, Tensor(go))).backward()
        live = np.broadcast_to(m, go.shape) > 0.0
        row_max = np.where(live, logits.data, -np.inf).max(axis=-1, keepdims=True)
        e = np.exp(logits.data - row_max)
        z = (e * m).sum(axis=-1, keepdims=True)
        want = e * m / z
        dot = (go * want).sum(axis=-1, keepdims=True)
        assert np.array_equal(out.data, want)
        assert np.array_equal(logits.grad, want * (go - dot))
        assert np.array_equal(mask.grad, ((e / z) * (go - dot)).sum(axis=0))


# ---------------------------------------------------------------------------
# Fused ops against their compositions
# ---------------------------------------------------------------------------

def _out_and_grads(build, inputs, go):
    """build(*inputs)'s output, then each input's gradient (None where the
    input is a constant) for the output gradient go."""
    for t in inputs:
        t.grad = None
    out = build(*inputs)
    tc.tsum(tc.mul(out, Tensor(go))).backward()
    return [out.data] + [t.grad for t in inputs]


@pytest.mark.parametrize("x_shape,m", [((8, 64), 32), ((8, 20, 32), 128)],
                         ids=["2d", "batched"])
def test_linear_is_bit_identical_to_matmul_then_add(x_shape, m):
    rng = Rng(30)
    inputs = [Tensor(rng.normal(x_shape), requires_grad=True),
              Tensor(rng.normal((x_shape[-1], m)), requires_grad=True),
              Tensor(rng.normal((m,)), requires_grad=True)]
    go = rng.normal(x_shape[:-1] + (m,))
    fused = _out_and_grads(tc.linear, inputs, go)
    composed = _out_and_grads(lambda x, w, b: tc.add(tc.matmul(x, w), b), inputs, go)
    for got, want in zip(fused, composed):
        assert np.array_equal(got, want)
    with pytest.raises(ShapeMismatchError):
        tc.linear(inputs[0], inputs[1], Tensor(np.zeros(m + 1)))


@pytest.mark.parametrize("shape", [(8, 39, 512), (16, 64, 256)])
def test_gelu_is_bit_identical_to_the_out_of_place_formula(shape):
    rng = Rng(32)
    x = Tensor(rng.normal(shape, std=2.0), requires_grad=True)
    go = rng.normal(shape)
    got = _out_and_grads(tc.gelu, [x], go)
    want = reference_gelu(x.data, go)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_take_rows_gathers_flattened_rows_and_scatters_their_gradient():
    rng = Rng(33)
    x = Tensor(rng.normal((2, 3, 4)), requires_grad=True)
    rows = [4, 0, 2]
    go = rng.normal((3, 4))
    out, grad = _out_and_grads(lambda t: tc.take_rows(t, rows), [x], go)
    flat = x.data.reshape(6, 4)
    assert np.array_equal(out, flat[rows])
    want = np.zeros((6, 4))
    want[rows] = go
    assert np.array_equal(grad, want.reshape(2, 3, 4))
    assert_grad_matches(lambda t: tc.tsum(square(tc.take_rows(t, rows))), x)
    for bad in ([6], [-1], [1, 1], [[0, 1]]):
        with pytest.raises(ShapeMismatchError):
            tc.take_rows(x, bad)


@pytest.mark.parametrize("shape", [(8, 16), (2, 3, 5)])
def test_l2_normalize_is_bit_identical_to_the_composed_map(shape):
    rng = Rng(34)
    x = Tensor(rng.normal(shape), requires_grad=True)
    go = rng.normal(shape)
    out, grad = _out_and_grads(tc.l2_normalize, [x], go)
    want = reference_l2_normalize(x.data, go)
    assert np.array_equal(out, want[0])
    assert np.array_equal(grad, want[1])
    # and the textbook derivative of x / |x|: (go - y (y . go)) / |x|
    norm = np.linalg.norm(x.data, axis=-1, keepdims=True)
    assert np.allclose(out, x.data / norm, rtol=1e-12, atol=0.0)
    textbook = (go - out * (out * go).sum(axis=-1, keepdims=True)) / norm
    assert np.abs(grad - textbook).max() <= 1e-12 * np.abs(textbook).max()


@pytest.mark.parametrize("shape", [(8, 32), (8, 64, 32), (8, 20, 128)])
def test_layer_norm_is_bit_identical_to_the_textbook_formula(shape):
    rng = Rng(31)
    x = Tensor(rng.normal(shape, std=3.0) + 1.0, requires_grad=True)
    gain = Tensor(rng.normal(shape[-1:], std=0.5) + 1.0, requires_grad=True)
    bias = Tensor(rng.normal(shape[-1:]), requires_grad=True)
    go = rng.normal(shape)
    got = _out_and_grads(tc.layer_norm, [x, gain, bias], go)
    want = reference_layer_norm(x.data, gain.data, bias.data, go)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def _causal(n):
    return Tensor(np.tril(np.ones((n, n))))


ATTENTION_CASES = {
    # name: (q, k, v shapes, heads, mask factory)
    "broadcast_q": ((3, 8), (2, 5, 8), (2, 5, 6), 1, lambda rng: None),
    "causal": ((2, 6, 8), (2, 6, 8), (2, 6, 8), 4, lambda rng: _causal(6)),
    "batch_key_mask": ((2, 3, 8), (2, 5, 8), (2, 5, 4), 4,
                       lambda rng: Tensor(0.2 + 0.8 * rng.uniform((2, 1, 1, 5)),
                                          requires_grad=True)),
    "fully_masked_rows": ((2, 3, 8), (2, 5, 8), (2, 5, 4), 2,
                          lambda rng: Tensor(np.array([[1.0, 0.5, 0.0, 1.0, 0.7],
                                                       [0.0] * 5]).reshape(2, 1, 1, 5),
                                             requires_grad=True)),
}


@pytest.mark.parametrize("case", list(ATTENTION_CASES))
def test_fused_attention_matches_the_per_head_composition(case):
    q_shape, k_shape, v_shape, heads, make_mask = ATTENTION_CASES[case]
    rng = Rng(32)
    mask = make_mask(rng)
    inputs = [Tensor(rng.normal(s), requires_grad=True) for s in (q_shape, k_shape, v_shape)]
    if mask is not None:
        inputs.append(mask)
    out_shape = np.broadcast_shapes(q_shape[:-2], k_shape[:-2]) + (q_shape[-2], v_shape[-1])
    go = rng.normal(out_shape)
    fused = _out_and_grads(lambda *t: tc.attention(*t[:3], mask, heads=heads), inputs, go)
    composed = _out_and_grads(lambda *t: reference_attention(*t[:3], mask, heads),
                              inputs, go)
    assert fused[0].shape == out_shape
    for got, want in zip(fused, composed):
        if want is None:  # a constant mask
            assert got is None
            continue
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    if case == "fully_masked_rows":
        assert np.all(fused[0][1] == 0.0) and np.all(fused[4][1] == 0.0)


def test_attention_rejects_heads_that_do_not_divide_the_width():
    rng = Rng(33)
    q = Tensor(rng.normal((2, 6)))
    kv = Tensor(rng.normal((3, 6)))
    with pytest.raises(ShapeMismatchError):
        tc.attention(q, kv, kv, heads=4)


def test_saturated_mask_gradient_summed_over_a_broadcast_stays_finite():
    # the masked key's weight e/z is ~1.3e308, so each row's mask gradient
    # saturates at -max there; summing the rows (masked_softmax) or the heads
    # and queries of a (B, 1, 1, N) mask (attention) must not overflow
    top = np.finfo(np.float64).max
    logits = Tensor([[0.0, 1000.0, 1.0], [0.0, 1000.0, 1.0]], requires_grad=True)
    mask = Tensor([1.0, 0.0, 1.0], requires_grad=True)
    # attention: two one-column heads whose scores are those logits, and
    # values whose products with an all-ones output gradient are [5, 0, 1]
    q = Tensor(np.ones((2, 2, 2)), requires_grad=True)
    k = Tensor(np.tile([[0.0], [1000.0], [1.0]], (2, 1, 2)), requires_grad=True)
    v = Tensor(np.tile([[5.0], [0.0], [1.0]], (2, 1, 2)), requires_grad=True)
    key_mask = Tensor(np.tile([1.0, 0.0, 1.0], (2, 1, 1, 1)), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = tc.masked_softmax(logits, mask)
        tc.tsum(tc.mul(out, Tensor([[5.0, 0.0, 1.0], [5.0, 0.0, 1.0]]))).backward()
        tc.tsum(tc.attention(q, k, v, key_mask, heads=2)).backward()
    assert mask.grad[1] == -top
    assert key_mask.grad.shape == (2, 1, 1, 3)
    assert np.all(key_mask.grad[..., 1] == -top)
    for t in (logits, mask, q, k, v, key_mask):
        assert np.all(np.isfinite(t.grad))


def test_grad_embedding_lookup():
    rng = Rng(7)
    assert_grad_matches(
        lambda t: tc.tsum(square(tc.embedding_lookup(t, [0, 2, 2, 1]))),
        rand(rng, (4, 3)),
    )


def test_grad_cross_entropy():
    rng = Rng(8)
    targets = [1, 0, 3, 2, 1]
    weights = [1, 0, 1, 1, 0]
    for reduction in ("mean", "sum"):
        assert_grad_matches(
            lambda t, r=reduction: tc.cross_entropy(t, targets, weights, reduction=r),
            rand(rng, (5, 4), lo=-2.0, hi=2.0),
            h=1e-4,
        )


def test_cross_entropy_on_stacked_logits_matches_the_flat_rows():
    rng = Rng(19)
    logits = rand(rng, (2, 3, 5), lo=-2.0, hi=2.0)
    targets = [[1, 4, 0], [2, 2, 3]]
    weights = [[0.5, 0.25, 0.0], [1.0, 0.0, 2.0]]
    flat = Tensor(logits.data.reshape(6, 5), requires_grad=True)
    for reduction in ("mean", "sum"):
        logits.grad = flat.grad = None
        stacked = tc.cross_entropy(logits, targets, weights, reduction=reduction)
        rows = tc.cross_entropy(flat, np.ravel(targets), np.ravel(weights),
                                reduction=reduction)
        stacked.backward()
        rows.backward()
        assert stacked.item() == rows.item()
        assert np.array_equal(logits.grad.reshape(6, 5), flat.grad)
    # weights are per-position multipliers: "mean" divides by their sum
    nll = -np.log(np.exp(logits.data) / np.exp(logits.data).sum(-1, keepdims=True))
    picked = np.take_along_axis(nll, np.array(targets)[..., None], -1)[..., 0]
    want = (picked * weights).sum() / np.sum(weights)
    assert tc.cross_entropy(logits, targets, weights).item() == pytest.approx(want, rel=1e-12)
    assert_grad_matches(
        lambda t: tc.cross_entropy(t, targets, weights, reduction="sum"),
        rand(rng, (2, 3, 5)), h=1e-4)
    with pytest.raises(ShapeMismatchError):
        tc.cross_entropy(logits, [1, 2, 3])
    with pytest.raises(ShapeMismatchError):
        tc.cross_entropy(logits, targets, [1.0, 1.0])


def test_grad_attention_all_inputs():
    rng = Rng(9)
    q = Tensor(rng.normal((2, 4)))
    k = Tensor(rng.normal((5, 4)))
    v = Tensor(rng.normal((5, 3)))
    mask = Tensor(0.3 + 0.7 * rng.uniform((5,)), requires_grad=True)
    assert_grad_matches(lambda t: tc.tsum(square(tc.attention(t, k, v, mask))), rand(rng, (2, 4)))
    assert_grad_matches(lambda t: tc.tsum(square(tc.attention(q, t, v, mask))), rand(rng, (5, 4)))
    assert_grad_matches(lambda t: tc.tsum(square(tc.attention(q, k, t, mask))), rand(rng, (5, 3)))
    assert_grad_matches(lambda m: tc.tsum(square(tc.attention(q, k, v, m))), mask)


def test_grad_gumbel_soft_with_frozen_noise():
    rng = Rng(10)
    weights = Tensor(rng.normal((6, 2)))

    def build(t):
        # fresh Rng(123) per call freezes the noise across finite differences
        return tc.tsum(
            tc.mul(tc.gumbel_softmax(t, tau=0.8, hard=False, rng=Rng(123)), weights)
        )

    assert_grad_matches(build, rand(rng, (6, 2)))


# ---------------------------------------------------------------------------
# Attention semantics
# ---------------------------------------------------------------------------

def test_attention_single_unmasked_key_returns_its_value():
    rng = Rng(11)
    q = Tensor(rng.normal((2, 4)))
    k = Tensor(rng.normal((3, 4)))
    v = Tensor(rng.normal((3, 5)))
    mask = Tensor([0.0, 1.0, 0.0])
    out = tc.attention(q, k, v, mask)
    assert np.allclose(out.data, np.tile(v.data[1], (2, 1)), atol=1e-12)


def test_attention_all_masked_is_zero_and_flagged():
    q, k, v = tc.zeros((2, 4)), tc.zeros((3, 4)), tc.ones((3, 5))
    mask = tc.zeros((3,))
    out = tc.attention(q, k, v, mask)
    assert np.all(out.data == 0.0)


def test_attention_uniform_logits_averages_unmasked_rows():
    # zero queries give uniform logits: output is the mean of unmasked V rows
    q = tc.zeros((1, 4))
    k = Tensor(Rng(12).normal((3, 4)))
    v = Tensor([[1.0, 2.0], [10.0, 20.0], [100.0, 200.0]])
    out = tc.attention(q, k, v, Tensor([1.0, 0.0, 1.0]))
    assert np.allclose(out.data, [[50.5, 101.0]], atol=1e-12)


def test_attention_all_ones_key_mask_is_bit_identical_to_no_mask():
    # GS-Former leaves the stage-0 all-ones mask out of its cross-attention
    rng = Rng(14)
    shapes = {"q": (3, 4, 6), "k": (3, 9, 6), "v": (3, 9, 8)}
    data = {name: rng.normal(shape) for name, shape in shapes.items()}
    go = rng.normal((3, 4, 8))
    runs = []
    for key_mask in (tc.ones((3, 1, 1, 9)), None):
        q, k, v = (Tensor(data[name], requires_grad=True) for name in "qkv")
        out = tc.attention(q, k, v, key_mask, heads=2)
        tc.tsum(tc.mul(out, Tensor(go))).backward()
        runs.append((out.data, q.grad, k.grad, v.grad))
    for masked, unmasked in zip(*runs):
        assert np.array_equal(masked, unmasked)


# ---------------------------------------------------------------------------
# Gumbel-Softmax semantics
# ---------------------------------------------------------------------------

def test_gumbel_saturated_logits_always_keep():
    rng = Rng(13)
    logits = Tensor(np.tile([20.0, -20.0], (100, 1)))
    out = tc.gumbel_softmax(logits, tau=1.0, hard=True, rng=rng)
    assert np.all(out.data[:, 0] == 1.0)


def test_gumbel_uniform_logits_keep_rate_half():
    rng = Rng(14)
    out = tc.gumbel_softmax(tc.zeros((10000, 2)), tau=1.0, hard=True, rng=rng)
    assert abs(out.data[:, 0].mean() - 0.5) <= 0.02


def test_gumbel_hard_rows_exactly_one_hot():
    out = tc.gumbel_softmax(Tensor(Rng(15).normal((50, 3))), 0.7, True, Rng(16))
    assert np.all(np.isin(out.data, (0.0, 1.0)))
    assert np.all(out.data.sum(axis=-1) == 1.0)


def test_gumbel_fixed_seed_bit_identical():
    logits = Tensor(Rng(17).normal((40, 2)))
    a = tc.gumbel_softmax(logits, 1.0, False, Rng(99))
    b = tc.gumbel_softmax(logits, 1.0, False, Rng(99))
    assert np.array_equal(a.data, b.data)


def test_gumbel_rng_none_is_noise_free():
    logits = Tensor([[3.0, -1.0], [-2.0, 5.0]])
    soft = tc.gumbel_softmax(logits, 1.0, False, None)
    expect = tc.softmax(logits, axis=-1)
    assert np.array_equal(soft.data, expect.data)
    hard = tc.gumbel_softmax(logits, 1.0, True, None)
    assert np.array_equal(hard.data, [[1.0, 0.0], [0.0, 1.0]])


def test_gumbel_draws_each_example_from_its_own_stream():
    logits = Tensor(Rng(23).normal((3, 4, 2)))
    streams = [Rng(5).split(f"sample{i}") for i in range(3)]
    batched = tc.gumbel_softmax(logits, 0.9, False, streams)
    for i in range(3):
        one = tc.gumbel_softmax(Tensor(logits.data[i]), 0.9, False,
                                Rng(5).split(f"sample{i}"))
        assert np.array_equal(batched.data[i], one.data)


def test_gumbel_rejects_bad_temperature():
    with pytest.raises(NonPositiveTemperatureError):
        tc.gumbel_softmax(tc.zeros((2, 2)), 0.0, False, Rng(0))


# ---------------------------------------------------------------------------
# Cross entropy semantics
# ---------------------------------------------------------------------------

def test_cross_entropy_uniform_logits():
    loss = tc.cross_entropy(tc.zeros((5, 8)), [0, 1, 2, 3, 4])
    assert loss.item() == pytest.approx(math.log(8), abs=1e-12)


def test_cross_entropy_confident_correct():
    logits = np.full((3, 6), -40.0)
    logits[np.arange(3), [1, 4, 2]] = 40.0
    loss = tc.cross_entropy(Tensor(logits), [1, 4, 2])
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_empty_after_mask():
    with pytest.raises(EmptyAfterMaskError):
        tc.cross_entropy(tc.zeros((2, 3)), [0, 1], weights=[0.0, 0.0])


def test_cross_entropy_sum_is_count_times_mean():
    logits = Tensor(Rng(18).normal((6, 5)))
    targets = [0, 4, 2, 2, 1, 3]
    mean = tc.cross_entropy(logits, targets, reduction="mean").item()
    total = tc.cross_entropy(logits, targets, reduction="sum").item()
    assert total == pytest.approx(6 * mean, rel=1e-12)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def test_finite_diff_sum_of_squares():
    grad = finite_diff_grad(
        lambda t: tc.tsum(tc.mul(t, t)), Tensor([1.0, 2.0])
    )
    assert np.allclose(grad, [2.0, 4.0], atol=1e-6)


def test_finite_diff_constant_function():
    grad = finite_diff_grad(lambda t: Tensor(7.0), Tensor([1.0, 2.0, 3.0]))
    assert np.all(grad == 0.0)


# ---------------------------------------------------------------------------
# Rng
# ---------------------------------------------------------------------------

def test_rng_deterministic_streams():
    assert np.array_equal(Rng(5).uniform((10,)), Rng(5).uniform((10,)))
    assert np.array_equal(
        Rng(5).split("a").normal((4,)), Rng(5).split("a").normal((4,))
    )


def test_rng_labels_split_independent_streams():
    root = Rng(5)
    a = root.split("a").uniform((8,))
    b = root.split("b").uniform((8,))
    assert not np.array_equal(a, b)


def test_rng_seed_changes_stream():
    assert not np.array_equal(Rng(1).uniform((8,)), Rng(2).uniform((8,)))


@pytest.mark.parametrize("seed, labels", [
    (0, ()), (1, ("a",)), (7, ("candidates", "p00012")), (2 ** 40, ("x", "y", "z")),
    (-3, ("data",)),
])
def test_rng_stream_is_philox_keyed_by_the_path_digest(seed, labels):
    rng = Rng(seed)
    for label in labels:
        rng = rng.split(label)
    digest = hashlib.blake2b(f"{seed}:{rng.path}".encode(), digest_size=16).digest()
    ref = np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little")))
    assert np.array_equal(rng.uniform((5, 3)), ref.random((5, 3)))
    assert np.array_equal(rng.normal((7,), std=2.0), ref.normal(0.0, 2.0, (7,)))
    assert rng.integers(0, 10) == int(ref.integers(0, 10))
    assert np.array_equal(rng.integers(-5, 5, (9,)), ref.integers(-5, 5, size=(9,)))
    assert np.array_equal(rng.permutation(11), ref.permutation(11))
    assert np.array_equal(rng.uniform((4,)), ref.random((4,)))


# ---------------------------------------------------------------------------
# Optimizer, checkpoints, mode switches
# ---------------------------------------------------------------------------

def test_adam_minimizes_quadratic():
    x = Tensor([5.0, -3.0], requires_grad=True)
    opt = Adam({"x": x}, lr=0.1)
    for _ in range(300):
        opt.zero_grad()
        tc.tsum(tc.mul(x, x)).backward()
        opt.step()
    assert np.all(np.abs(x.data) < 1e-3)


def test_adam_matches_out_of_place_formula_bitwise():
    rng = Rng(23)
    shapes = {"s": (), "b": (7,), "w": (128, 512), "sometimes": (3, 5)}
    params = {k: Tensor(rng.normal(shape), requires_grad=True)
              for k, shape in shapes.items()}
    want = {k: (p.data.copy(), np.zeros(p.shape), np.zeros(p.shape))
            for k, p in params.items()}
    opt = Adam(params, lr=3e-3)
    for t in range(1, 6):
        for k, p in params.items():
            # "sometimes" gets no gradient on odd steps and must stay put
            p.grad = None if k == "sometimes" and t % 2 else \
                rng.split(f"g{t}{k}").normal(shapes[k])
        opt.step()
        for k, p in params.items():
            if p.grad is not None:
                data, m, v = want[k]
                want[k] = reference_adam_step(data, p.grad, m, v, t=t, lr=3e-3)
            assert np.array_equal(p.data, want[k][0]), (k, t)
            assert np.array_equal(opt._m[k], want[k][1]), (k, t)
            assert np.array_equal(opt._v[k], want[k][2]), (k, t)


def test_adam_steps_after_the_first_allocate_nothing():
    params = pt.init_decoder_params(pt.DecoderConfig(), Rng(5))
    rng = Rng(6)
    for k, p in params.items():
        p.grad = rng.split(k).normal(p.shape)
    opt = Adam(params, lr=1e-3)
    opt.step()  # allocates the scratch
    tracemalloc.start()
    try:
        opt.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096, f"Adam.step peaked at {peak} bytes"


def test_checkpoint_roundtrip(tmp_path):
    rng = Rng(19)
    params = {
        "w": Tensor(rng.normal((3, 4)), requires_grad=True),
        "b": Tensor(rng.normal((4,)), requires_grad=True),
        "s": Tensor(np.float64(2.5), requires_grad=True),
    }
    prefix = tmp_path / "ckpt"
    tc.save_params(params, prefix)
    loaded = tc.load_params(prefix)
    assert set(loaded) == set(params)
    for name in params:
        assert np.array_equal(loaded[name].data, params[name].data)
        assert loaded[name].requires_grad


def test_a_save_that_fails_midway_leaves_the_old_checkpoint(tmp_path):
    prefix = tmp_path / "ckpt"
    tc.save_params({"a": tc.zeros((2,)), "b": tc.zeros((3,))}, prefix)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert sorted(before) == ["ckpt.bin", "ckpt.json"]
    # "b" is written after "a", and its data cannot be read as float64
    bad = {"a": Tensor(np.ones(4)), "b": SimpleNamespace(data=np.array(["x"]))}
    with pytest.raises(ValueError):
        tc.save_params(bad, prefix)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
    tc.save_params({"a": Tensor(np.ones(4))}, prefix)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["ckpt.bin", "ckpt.json"]
    assert np.array_equal(tc.load_params(prefix)["a"].data, np.ones(4))


def test_checkpoint_rejects_unknown_schema(tmp_path):
    prefix = tmp_path / "ckpt"
    tc.save_params({"w": tc.zeros((2,))}, prefix)
    sidecar = prefix.with_suffix(".json")
    sidecar.write_text(sidecar.read_text().replace('"schema": 1', '"schema": 9'))
    with pytest.raises(ValueError):
        tc.load_params(prefix)


@pytest.mark.parametrize("edit, message", [
    (lambda side: [1], "checkpoint sidecar must be a JSON object"),
    (lambda side: {**side, "params": [1]}, "sidecar params must be a JSON object"),
    (lambda side: {**side, "params": {"w": 3}}, "params['w'] must be a JSON object"),
    (lambda side: {**side, "params": {"w": {"shape": [2]}}},
     "params['w'].offset must be an integer >= 0, got None"),
    (lambda side: {**side, "params": {"w": {"offset": -8, "shape": [2]}}},
     "params['w'].offset must be an integer >= 0"),
    (lambda side: {**side, "params": {"w": {"offset": 0, "shape": [2.0]}}},
     "params['w'].shape must be a list of integers >= 0"),
    (lambda side: {**side, "params": {"w": {"offset": 0, "shape": [-1]}}},
     "params['w'].shape must be a list of integers >= 0"),
    (lambda side: {**side, "params": {"w": {"offset": 8, "shape": [2]}}},
     "params['w']: 2 values at offset 8 run past the 16-byte .bin"),
    (lambda side: {**side, "params": {"w": {"offset": 0, "shape": [1]}}},
     "checkpoint .bin has 8 trailing bytes after its last parameter "
     "(sidecar ends at 8 of 16)"),
    (lambda side: {**side, "params": {"w": {"offset": 0, "shape": [2]},
                                      "v": {"offset": 8, "shape": [1]}}},
     "params['v'] at offset 8 overlaps params['w'], which ends at 16"),
    (lambda side: {**side, "params": {"w": {"offset": 8, "shape": [1]}}},
     "leaves bytes 0-7 of the .bin to no parameter, before params['w']"),
], ids=["list", "list-params", "scalar-entry", "no-offset", "negative-offset",
        "float-dim", "negative-dim", "past-end", "trailing", "overlap", "gap"])
def test_checkpoint_rejects_malformed_sidecar(tmp_path, edit, message):
    prefix = tmp_path / "ckpt"
    tc.save_params({"w": tc.zeros((2,))}, prefix)
    sidecar = prefix.with_suffix(".json")
    sidecar.write_text(json.dumps(edit(json.loads(sidecar.read_text()))))
    with pytest.raises(ValueError, match=re.escape(message)):
        tc.load_params(prefix)


def test_checkpoint_rejects_bytes_past_its_last_parameter(tmp_path):
    prefix = tmp_path / "ckpt"
    tc.save_params({"a": tc.zeros((2,)), "b": tc.zeros((3,)), "e": tc.zeros((0, 4))}, prefix)
    assert set(tc.load_params(prefix)) == {"a", "b", "e"}
    with open(prefix.with_suffix(".bin"), "ab") as fh:
        fh.write(bytes(8))
    with pytest.raises(ValueError, match=r"\.bin has 8 trailing bytes .* ends at 40 of 48"):
        tc.load_params(prefix)


def test_no_grad_skips_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with tc.no_grad():
        y = tc.tsum(tc.mul(x, x))
    assert not y.requires_grad
    assert y._parents == ()


def test_constants_stay_off_the_tape():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    const = Tensor([[3.0], [4.0]])
    scale = Tensor(0.5)
    y = tc.mul(tc.add(tc.matmul(const, x), const), scale)
    # mul keeps its rule for add's output and drops the one for the scale
    assert [p for p, _ in y._parents] == [y._parents[0][0]]
    assert y._parents[0][0].requires_grad
    tc.tsum(y).backward()
    assert const.grad is None and scale.grad is None
    assert np.array_equal(x.grad, [[3.5, 3.5]])
    # an op whose inputs are all constants is a constant itself
    z = tc.add(const, scale)
    assert not z.requires_grad and z._parents == ()


def test_forward_backward_reproducible_bitwise():
    def run():
        rng = Rng(21)
        x = Tensor(rng.normal((4, 4)), requires_grad=True)
        w = Tensor(rng.normal((4, 4)), requires_grad=True)
        noise_rng = rng.split("gumbel")
        h = tc.gelu(tc.matmul(x, w))
        g = tc.gumbel_softmax(h, tau=1.0, hard=False, rng=noise_rng)
        loss = tc.tsum(tc.mul(g, g))
        loss.backward()
        return loss.item(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1 == l2
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


# ---------------------------------------------------------------------------
# Backward consumes the graph
# ---------------------------------------------------------------------------

def consumed_three_times(rng):
    x, w = rand(rng, (3, 4)), rand(rng, (3, 4))
    y = tc.mul(x, w)
    loss = tc.tsum(tc.add(tc.add(tc.mul(y, Tensor(2.0)), tc.exp(y)), tc.gelu(y)))
    return loss, [x, w]


def add_hands_go_to_both(rng):
    # add's rule passes the same go array to both inputs; x is reached twice
    x, w = rand(rng, (2, 5)), rand(rng, (2, 5))
    s = tc.add(tc.mul(x, w), x)
    return tc.tsum(tc.mul(s, tc.add(w, x))), [x, w]


def broadcast_bias(rng):
    x, w, b, c = rand(rng, (2, 3, 4)), rand(rng, (4, 5)), rand(rng, (5,)), rand(rng, (1, 5))
    h = tc.add(tc.linear(x, w, b), c)
    return tc.tsum(tc.mul(tc.gelu(h), h)), [x, w, b, c]


def attention_shared_memo(rng):
    # the q, k and mask rules share one score gradient through _per_go
    q, k, v = rand(rng, (2, 3, 4)), rand(rng, (2, 5, 4)), rand(rng, (2, 5, 6))
    mask = Tensor(0.3 + 0.7 * rng.uniform((2, 1, 1, 5)), requires_grad=True)
    out = tc.attention(q, k, v, mask, heads=2)
    return tc.tsum(tc.mul(out, out)), [q, k, v, mask]


@pytest.mark.parametrize("build", [consumed_three_times, add_hands_go_to_both,
                                   broadcast_bias, attention_shared_memo])
def test_backward_matches_the_graph_retaining_walk(build):
    """Leaf gradients are bit-identical to those of the walk that keeps the
    whole tape, and afterwards no tape node keeps a `.grad` or a rule."""
    loss, leaves = build(Rng(29))
    reference_backward(loss)
    want = [x.grad for x in leaves]
    loss, leaves = build(Rng(29))
    tape = tape_nodes(loss)
    loss.backward()
    assert all(np.array_equal(x.grad, g) for x, g in zip(leaves, want))
    assert tape
    assert [t.shape for t in tape if t._parents or t.grad is not None] == []


def test_a_consumed_graph_refuses_a_second_backward():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = tc.mul(x, Tensor(3.0))
    loss = tc.tsum(tc.mul(y, y))
    loss.backward()
    assert np.array_equal(x.grad, [18.0, 36.0])
    with pytest.raises(ValueError, match="already consumed"):
        loss.backward()
    # so does a new graph that reaches a node an earlier backward released
    with pytest.raises(ValueError, match="already consumed"):
        tc.tsum(y).backward()
    assert np.array_equal(x.grad, [18.0, 36.0])
    assert np.array_equal(y.data, [3.0, 6.0]) and loss.item() == 45.0
