import math
import warnings

import numpy as np
import pytest

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
        lambda t: tc.tsum(tc.power(tc.embedding_lookup(t, [[0, 3, 3], [1, 0, 2]]), 2.0)),
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
        lambda t: tc.tsum(tc.div(t, other)),
        lambda t: tc.tsum(tc.neg(t)),
        lambda t: tc.tsum(tc.power(t, 2.0)),
        lambda t: tc.tsum(tc.power(t, 0.5)),
        lambda t: tc.tsum(tc.log(t)),
        lambda t: tc.tsum(tc.exp(t)),
        lambda t: tc.tsum(tc.absval(t)),
        lambda t: tc.tsum(tc.gelu(t)),
    ]
    for case in cases:
        assert_grad_matches(case, rand(rng, (3, 4), lo=0.2, hi=2.0))


def test_grad_shape_ops():
    rng = Rng(3)
    other = Tensor(rng.uniform((2, 4)))
    cases = [
        lambda t: tc.tsum(tc.mul(tc.transpose(t), tc.transpose(t))),
        lambda t: tc.tsum(tc.power(tc.reshape(t, (12,)), 2.0)),
        lambda t: tc.tsum(tc.power(tc.concat([t, other], axis=0), 2.0)),
        lambda t: tc.tsum(tc.power(tc.narrow(t, 0, 1, 2), 2.0)),
        lambda t: tc.tsum(tc.power(tc.narrow(t, 1, 1, 3), 2.0)),
        lambda t: tc.power(tc.tsum(t, axis=0, keepdims=False) @ Tensor(np.ones(4)) if False else tc.tsum(tc.mul(t, t), axis=None), 1.0),
        lambda t: tc.tsum(tc.power(tc.mean_pool(t, axis=0), 2.0)),
        lambda t: tc.tsum(tc.power(tc.mean_pool(t, axis=1), 2.0)),
    ]
    for case in cases:
        assert_grad_matches(case, rand(rng, (3, 4)))


def test_grad_matmul_both_sides():
    rng = Rng(4)
    left = Tensor(rng.normal((3, 5)))
    right = Tensor(rng.normal((5, 2)))
    assert_grad_matches(lambda t: tc.tsum(tc.power(tc.matmul(t, right), 2.0)),
                        rand(rng, (3, 5)))
    assert_grad_matches(lambda t: tc.tsum(tc.power(tc.matmul(left, t), 2.0)),
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
    assert_grad_matches(lambda t: tc.tsum(tc.power(tc.matmul(t, right), 2.0)),
                        rand(rng, (3, 2, 5)))
    assert_grad_matches(lambda t: tc.tsum(tc.power(tc.matmul(left, t), 2.0)),
                        rand(rng, (3, 5, 4)))
    # the broadcast 2-D operand sums its gradient over the batch
    assert_grad_matches(lambda t: tc.tsum(tc.power(tc.matmul(left, t), 2.0)),
                        rand(rng, (5, 4)))
    assert_grad_matches(
        lambda t: tc.tsum(tc.power(tc.matmul(tc.transpose(t), right), 2.0)),
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
    assert_grad_matches(lambda t: tc.tsum(tc.power(tc.attention(q, t, v, mask), 2.0)),
                        rand(rng, (3, 5, 4)))
    with pytest.raises(ShapeMismatchError):
        tc.attention(q, Tensor(rng.normal((3, 5, 3))), v)


def test_transpose_swaps_any_two_axes():
    rng = Rng(17)
    x = Tensor(rng.normal((2, 3, 4)))
    assert np.array_equal(tc.transpose(x, 0, 1).data, x.data.swapaxes(0, 1))
    assert np.array_equal(tc.transpose(x, -2, -3).data, x.data.swapaxes(1, 0))
    assert np.array_equal(tc.transpose(x).data, x.data.swapaxes(-1, -2))
    weight = Tensor(rng.normal((3, 2, 4)))
    assert_grad_matches(
        lambda t: tc.tsum(tc.power(tc.mul(tc.transpose(t, 0, 1), weight), 2.0)),
        rand(rng, (2, 3, 4)))


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
        lambda t: tc.tsum(tc.power(tc.layer_norm(t, gain, bias), 2.0)), x
    )
    assert_grad_matches(
        lambda g: tc.tsum(tc.power(tc.layer_norm(x, g, bias), 2.0)), gain
    )
    assert_grad_matches(
        lambda b: tc.tsum(tc.power(tc.layer_norm(x, gain, b), 2.0)), bias
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


def test_grad_embedding_lookup():
    rng = Rng(7)
    assert_grad_matches(
        lambda t: tc.tsum(tc.power(tc.embedding_lookup(t, [0, 2, 2, 1]), 2.0)),
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
    assert_grad_matches(lambda t: tc.tsum(tc.power(tc.attention(t, k, v, mask), 2.0)), rand(rng, (2, 4)))
    assert_grad_matches(lambda t: tc.tsum(tc.power(tc.attention(q, t, v, mask), 2.0)), rand(rng, (5, 4)))
    assert_grad_matches(lambda t: tc.tsum(tc.power(tc.attention(q, k, t, mask), 2.0)), rand(rng, (5, 3)))
    assert_grad_matches(lambda m: tc.tsum(tc.power(tc.attention(q, k, v, m), 2.0)), mask)


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
        lambda t: tc.tsum(tc.power(t, 2.0)), Tensor([1.0, 2.0])
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


# ---------------------------------------------------------------------------
# Optimizer, checkpoints, mode switches
# ---------------------------------------------------------------------------

def test_adam_minimizes_quadratic():
    x = Tensor([5.0, -3.0], requires_grad=True)
    opt = Adam({"x": x}, lr=0.1)
    for _ in range(300):
        opt.zero_grad()
        tc.tsum(tc.power(x, 2.0)).backward()
        opt.step()
    assert np.all(np.abs(x.data) < 1e-3)


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


def test_checkpoint_rejects_unknown_schema(tmp_path):
    prefix = tmp_path / "ckpt"
    tc.save_params({"w": tc.zeros((2,))}, prefix)
    sidecar = prefix.with_suffix(".json")
    sidecar.write_text(sidecar.read_text().replace('"schema": 1', '"schema": 9'))
    with pytest.raises(ValueError):
        tc.load_params(prefix)


def test_no_grad_skips_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with tc.no_grad():
        y = tc.tsum(tc.power(x, 2.0))
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
        loss = tc.tsum(tc.power(g, 2.0))
        loss.backward()
        return loss.item(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1 == l2
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)
