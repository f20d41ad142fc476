"""Network math: activations, batch norm, backprop, Adam, checkpoints."""
from __future__ import annotations

import builtins
import errno
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest

from blinkpipe import net as net_module
from blinkpipe.core import BlinkLabel
from blinkpipe.net import (
    ADAM_BAND_ROWS,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    BatchNormLayer,
    BatchTooSmallForTrainMode,
    BlinkNet,
    CheckpointFormatError,
    EmptySplit,
    InferencePlan,
    LinearLayer,
    MishActivation,
    ModelCheckpoint,
    Adam,
    AdamState,
    Param,
    ShapeMismatch,
    UnknownLabel,
    adam_step,
    batch_norm_init,
    classify,
    evaluate_loss,
    linear_init,
    load_net,
    mish,
    mish_grad,
    softmax,
    softmax_cross_entropy,
    softplus,
    train,
)
from blinkpipe.window import WindowTensor

from conftest import (MALFORMED_CHECKPOINTS, checkpoint_records,
                      checkpoint_with_stem_batch_norm, malformed_checkpoint,
                      pack_checkpoint, seeded_block, zero_net)

mpmath.mp.dps = 50


def mp_mish(x) -> mpmath.mpf:
    mx = mpmath.mpf(x)
    return mx * mpmath.tanh(mpmath.log(1 + mpmath.exp(mx)))


# ---------------------------------------------------------------------------
# activation functions against a high-precision oracle


def test_mish_matches_arbitrary_precision_reference():
    for x in (-20.0, -5.0, -1.0, -0.1, 0.0, 0.1, 1.0, 5.0, 20.0):
        got = float(mish(np.array([x]))[0])
        assert got == pytest.approx(float(mp_mish(x)), rel=1e-12, abs=1e-15)


def test_mish_grad_matches_arbitrary_precision_derivative():
    h = mpmath.mpf("1e-20")
    for x in (-8.0, -1.0, -0.25, 0.0, 0.5, 2.0, 9.0):
        ref = float(
            (mp_mish(mpmath.mpf(x) + h) - mp_mish(mpmath.mpf(x) - h)) / (2 * h)
        )
        got = float(mish_grad(np.array([x]))[0])
        assert got == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_softplus_is_overflow_safe():
    big = softplus(np.array([800.0]))[0]
    assert math.isfinite(big) and big == pytest.approx(800.0)
    tiny = softplus(np.array([-800.0]))[0]
    assert tiny == 0.0 or tiny == pytest.approx(0.0, abs=1e-300)
    assert np.isfinite(mish(np.array([800.0, -800.0]))).all()


def test_softmax_rows_sum_to_one_even_for_extreme_logits():
    rng = np.random.default_rng(0)
    logits = rng.normal(0, 1, (100, 2)) * rng.choice([1, 1e3], (100, 1))
    p = softmax(logits)
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_cross_entropy_matches_direct_formula():
    rng = np.random.default_rng(1)
    logits = rng.normal(0, 3, (16, 2))
    labels = rng.integers(0, 2, 16)
    loss, dlogits = softmax_cross_entropy(logits, labels)
    p = softmax(logits)
    direct = -np.log(p[np.arange(16), labels]).mean()
    assert loss == pytest.approx(direct, rel=1e-12)
    onehot = np.eye(2)[labels]
    np.testing.assert_allclose(dlogits, (p - onehot) / 16, atol=1e-12)


def test_cross_entropy_gradient_by_finite_differences():
    rng = np.random.default_rng(2)
    logits = rng.normal(0, 2, (6, 2))
    labels = rng.integers(0, 2, 6)
    _, dlogits = softmax_cross_entropy(logits, labels)
    eps = 1e-6
    for i in range(6):
        for j in range(2):
            lp = logits.copy()
            lp[i, j] += eps
            lm = logits.copy()
            lm[i, j] -= eps
            num = (softmax_cross_entropy(lp, labels)[0]
                   - softmax_cross_entropy(lm, labels)[0]) / (2 * eps)
            assert dlogits[i, j] == pytest.approx(num, abs=1e-8)


# ---------------------------------------------------------------------------
# layer semantics


def test_linear_forward_is_affine():
    rng = np.random.default_rng(3)
    lin = LinearLayer(*linear_init(4, 3, rng))
    x = rng.normal(size=(5, 4))
    y = lin.forward(x)
    np.testing.assert_allclose(y, x @ lin.weight.value.T + lin.bias.value)


def test_linear_init_bounds():
    rng = np.random.default_rng(4)
    lin = LinearLayer(*linear_init(100, 400, rng))
    bound = math.sqrt(1.0 / 100)
    assert np.all(np.abs(lin.weight.value) <= bound)
    assert np.all(np.abs(lin.bias.value) <= bound)
    # Spread should fill the interval, not collapse near zero.
    assert lin.weight.value.max() > 0.8 * bound
    assert lin.weight.value.min() < -0.8 * bound


def test_batchnorm_train_mode_formula():
    rng = np.random.default_rng(5)
    bn = BatchNormLayer(*batch_norm_init(3))
    bn.gamma.value[...] = [2.0, 1.0, 0.5]
    bn.beta.value[...] = [0.0, 1.0, -1.0]
    x = rng.normal(2.0, 3.0, (32, 3))
    y = bn.forward(x, train=True)
    mean = x.mean(axis=0)
    var = x.var(axis=0)
    expect = bn.gamma.value * (x - mean) / np.sqrt(var + bn.eps) + bn.beta.value
    np.testing.assert_allclose(y, expect, atol=1e-12)
    # Running stats blend with momentum 0.1 and the unbiased variance.
    np.testing.assert_allclose(bn.running_mean, 0.1 * mean, atol=1e-12)
    np.testing.assert_allclose(
        bn.running_var, 0.9 * 1.0 + 0.1 * var * 32 / 31, atol=1e-12
    )


def test_batchnorm_eval_uses_running_stats():
    rng = np.random.default_rng(6)
    bn = BatchNormLayer(*batch_norm_init(4))
    for _ in range(50):
        bn.forward(rng.normal(1.5, 2.0, (64, 4)), train=True)
    x = rng.normal(1.5, 2.0, (8, 4))
    y = bn.forward(x, train=False)
    expect = (x - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
    np.testing.assert_allclose(y, expect, atol=1e-12)
    # Eval mode is row-independent: one row at a time gives the same answer.
    for i in range(8):
        np.testing.assert_allclose(bn.forward(x[i:i + 1]), y[i:i + 1], atol=1e-15)


def test_batchnorm_train_rejects_singleton():
    bn = BatchNormLayer(*batch_norm_init(4))
    with pytest.raises(BatchTooSmallForTrainMode):
        bn.forward(np.zeros((1, 4)), train=True)


def test_batchnorm_normalizes_to_zero_mean_unit_var():
    rng = np.random.default_rng(7)
    bn = BatchNormLayer(*batch_norm_init(6))
    y = bn.forward(rng.normal(-3.0, 5.0, (256, 6)), train=True)
    assert np.all(np.abs(y.mean(axis=0)) < 1e-12)
    np.testing.assert_allclose(y.var(axis=0), 1.0, atol=1e-4)


# ---------------------------------------------------------------------------
# gradient checks (central differences)


def numeric_grad(f, arr: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        old = arr[idx]
        arr[idx] = old + eps
        fp = f()
        arr[idx] = old - eps
        fm = f()
        arr[idx] = old
        g[idx] = (fp - fm) / (2 * eps)
    return g


def assert_grads_close(a: np.ndarray, b: np.ndarray, rel: float = 1e-6,
                       abs_tol: float = 1e-8) -> None:
    # Relative check with an absolute floor: finite differences carry
    # ~1e-10 noise, which would dominate a pure ratio when the true
    # gradient is zero (e.g. a bias feeding straight into batch norm).
    err = np.abs(a - b) - (abs_tol + rel * (np.abs(a) + np.abs(b)))
    assert np.all(err <= 0), f"worst excess {float(err.max())!r}"


def check_layer_grads(layer, x: np.ndarray, train: bool, params) -> None:
    rng = np.random.default_rng(99)
    w = rng.normal(size=layer.forward(x, train=train).shape)

    def loss() -> float:
        return float((layer.forward(x, train=train) * w).sum())

    loss()
    dx = layer.backward(w)
    for p in params:
        num = numeric_grad(loss, p.value)
        assert_grads_close(p.grad, num)
    num_dx = numeric_grad(loss, x)
    assert_grads_close(dx, num_dx)


def test_linear_gradients():
    rng = np.random.default_rng(8)
    lin = LinearLayer(*linear_init(5, 3, rng))
    check_layer_grads(lin, rng.normal(size=(4, 5)), False, lin.params())


def test_batchnorm_train_gradients():
    rng = np.random.default_rng(9)
    bn = BatchNormLayer(*batch_norm_init(4))
    bn.gamma.value[...] = rng.uniform(0.5, 1.5, 4)
    bn.beta.value[...] = rng.normal(size=4)
    check_layer_grads(bn, rng.normal(1.0, 2.0, (7, 4)), True, bn.params())


def test_batchnorm_eval_gradients():
    rng = np.random.default_rng(10)
    bn = BatchNormLayer(*batch_norm_init(4))
    bn.forward(rng.normal(1.0, 2.0, (32, 4)), train=True)
    check_layer_grads(bn, rng.normal(size=(5, 4)), False, bn.params())


def test_mish_layer_gradients():
    rng = np.random.default_rng(11)
    act = MishActivation()
    check_layer_grads(act, rng.normal(0, 2, (6, 5)), False, [])


def test_residual_block_gradients_identity_skip():
    rng = np.random.default_rng(12)
    block = seeded_block(6, 6, rng)
    check_layer_grads(block, rng.normal(size=(5, 6)), True, block.params())


def test_residual_block_gradients_projection_skip():
    rng = np.random.default_rng(13)
    block = seeded_block(6, 4, rng)
    assert block.skip is not None
    check_layer_grads(block, rng.normal(size=(5, 6)), True, block.params())


def test_full_net_loss_gradients():
    rng = np.random.default_rng(14)
    net = BlinkNet(input_dim=10, stem_width=8, block_dims=((8, 8), (8, 4)),
                   rng=np.random.default_rng(0))
    x = rng.normal(size=(6, 10))
    labels = rng.integers(0, 2, 6)
    net.loss_and_gradients(x, labels)
    grads = [p.grad.copy() for p in net.params()]

    def loss() -> float:
        logits = net.forward_logits(x, train=True)
        return softmax_cross_entropy(logits, labels)[0]

    for p, g in zip(net.params(), grads):
        num = numeric_grad(loss, p.value)
        assert_grads_close(g, num)


# ---------------------------------------------------------------------------
# residual wiring


def test_identity_skip_is_additive():
    # With all linear weights zero, bn(0) = 0 and mish(0) = 0, so an
    # identity-skip block is exactly the identity map.
    block = zero_net(input_dim=5, stem_width=5, block_dims=((5, 5),)).blocks[0]
    x = np.random.default_rng(15).normal(size=(4, 5))
    np.testing.assert_array_equal(block.forward(x, train=False), x)


def test_projection_skip_changes_width():
    rng = np.random.default_rng(16)
    block = seeded_block(8, 3, rng)
    y = block.forward(rng.normal(size=(4, 8)), train=False)
    assert y.shape == (4, 3)


def test_block_chain_shapes_validated():
    with pytest.raises(ValueError):
        BlinkNet(input_dim=10, stem_width=8, block_dims=((8, 8), (4, 4)),
                 rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_hand_arithmetic():
    p = np.array([1.0, -2.0])
    g = np.array([0.5, -0.25])
    st = AdamState(np.zeros(2), np.zeros(2))
    adam_step(p, g, st, lr=0.1)
    # After bias correction the first step is lr * g / (|g| + eps).
    expect = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p, expect, atol=1e-12)
    assert st.t == 1
    np.testing.assert_allclose(st.m, 0.1 * g, atol=1e-15)
    np.testing.assert_allclose(st.v, 0.001 * g * g, atol=1e-15)


def test_adam_constant_gradient_moves_at_lr_per_step():
    # With a constant gradient, bias-corrected m_hat = g and v_hat = g^2 at
    # every step, so each update is lr * sign(g) up to eps.
    p = np.array([0.0])
    g = np.array([3.0])
    st = AdamState(np.zeros(1), np.zeros(1))
    for k in range(1, 11):
        adam_step(p, g, st, lr=0.01)
        assert p[0] == pytest.approx(-0.01 * k, rel=1e-6)


def test_adam_matches_reference_loop():
    rng = np.random.default_rng(17)
    p = rng.normal(size=(3, 2))
    ref = p.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    st = AdamState(np.zeros_like(p), np.zeros_like(p))
    for t in range(1, 26):
        g = rng.normal(size=(3, 2))
        adam_step(p, g, st, lr=0.002)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1 - 0.9 ** t)
        vh = v / (1 - 0.999 ** t)
        ref -= 0.002 * mh / (np.sqrt(vh) + ADAM_EPS)
    np.testing.assert_allclose(p, ref, atol=1e-14)


def _whole_array_adam(p, g, m, v, t, lr, beta1, beta2, eps):
    """The update as one expression per array, the order adam_step keeps."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * (g * g)
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return m, v


@pytest.mark.parametrize("shape, order", [
    ((3, ADAM_BLOCK * 3 // 4 + 5), "C"),   # three blocks, the last one partial
    ((1,), "C"),
    ((5, ADAM_BLOCK // 4 + 3), "F"),       # flattened through a copy
])
def test_adam_step_is_bitwise_the_whole_array_form(shape, order):
    rng = np.random.default_rng(31)
    p = np.asarray(rng.normal(size=shape), order=order)
    ref = p.copy()
    m_ref = np.zeros(shape)
    v_ref = np.zeros(shape)
    st = AdamState(np.zeros(shape, order=order), np.zeros(shape, order=order))
    for t in range(1, 26):
        # Magnitudes from 1e-6 to 1e3 make the rounding of every operation show.
        g = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 3, size=shape)
        adam_step(p, g, st, lr=0.003)
        m_ref, v_ref = _whole_array_adam(ref, g, m_ref, v_ref, t, 0.003,
                                         ADAM_BETA1, ADAM_BETA2, ADAM_EPS)
    assert st.t == 25
    assert np.array_equal(p, ref)
    assert np.array_equal(st.m, m_ref)
    assert np.array_equal(st.v, v_ref)


def test_adam_step_rejects_a_gradient_of_another_shape():
    st = AdamState(np.zeros(3), np.zeros(3))
    with pytest.raises(ShapeMismatch):
        adam_step(np.zeros(3), np.zeros(1), st)


def test_adam_class_wraps_params():
    rng = np.random.default_rng(18)
    params = [Param(rng.normal(size=4))]
    params[0].grad[...] = 1.0
    opt = Adam(params, lr=0.5)
    before = params[0].value.copy()
    opt.step()
    np.testing.assert_allclose(params[0].value, before - 0.5, atol=1e-8)


@pytest.mark.parametrize("width", [
    2 * ADAM_BAND_ROWS,      # whole bands
    2 * ADAM_BAND_ROWS + 1,  # a one-row remainder, which joins the last band
    ADAM_BAND_ROWS + 3,
])
@pytest.mark.parametrize("batch", [2, 7, 32, 33])  # 33: a folded trailing batch
def test_banded_step_is_bitwise_the_whole_product_and_adam_step(batch, width):
    """A first layer's weight gradient, held as its factors and multiplied
    out by Adam.step a band of rows at a time, updates the weight, m and v
    exactly as np.matmul(dy.T, x) followed by adam_step does, step after
    step. The band products go through the BLAS gemm kernel, so a failure
    here names a BLAS (CI prints numpy's build configuration)."""
    rng = np.random.default_rng(1000 * batch + width)
    layer = LinearLayer(*linear_init(2000, width, rng))
    opt = Adam(layer.params(), lr=0.003)
    ref_w, ref_b = layer.weight.value.copy(), layer.bias.value.copy()
    ref_sw = AdamState(np.zeros(ref_w.shape), np.zeros(ref_w.shape))
    ref_sb = AdamState(np.zeros(width), np.zeros(width))
    for _ in range(4):
        # Row scales from 1e-3 to 1e3 make the rounding of the products show.
        x = rng.normal(size=(batch, 2000)) * 10.0 ** rng.uniform(-3, 3, (batch, 1))
        dy = rng.normal(size=(batch, width))
        layer.forward(x, train=True)
        layer.backward_params(dy)
        opt.step()
        adam_step(ref_w, np.matmul(dy.T, x), ref_sw, lr=0.003)
        adam_step(ref_b, dy.sum(axis=0), ref_sb, lr=0.003)
    sw, sb = opt.states
    assert sw.t == sb.t == 4
    for got, want in ((layer.weight.value, ref_w), (sw.m, ref_sw.m), (sw.v, ref_sw.v),
                      (layer.bias.value, ref_b), (sb.m, ref_sb.m), (sb.v, ref_sb.v)):
        assert np.array_equal(got, want)


def test_a_factored_gradient_reads_as_the_whole_product():
    rng = np.random.default_rng(19)
    layer = LinearLayer(*linear_init(40, 5, rng))
    x, dy = rng.normal(size=(6, 40)), rng.normal(size=(6, 5))
    layer.forward(x, train=True)
    layer.backward_params(dy)
    assert np.array_equal(layer.weight.grad, np.matmul(dy.T, x))
    assert np.array_equal(layer.bias.grad, dy.sum(axis=0))


# ---------------------------------------------------------------------------
# classification semantics


def test_zero_net_predicts_half_half_and_ties_go_involuntary():
    net = zero_net(input_dim=20, stem_width=8, block_dims=((8, 8),))
    x = np.random.default_rng(19).normal(size=20)
    probs = net.forward(x)
    np.testing.assert_allclose(probs, [[0.5, 0.5]], atol=1e-12)
    label, conf = classify(net, x)
    assert label is BlinkLabel.INVOLUNTARY
    assert conf == pytest.approx(0.5)


def test_classify_accepts_window_tensor():
    net = zero_net(input_dim=20, stem_width=8, block_dims=((8, 8),))
    w = WindowTensor(values=np.zeros(20), end_timestamp_ns=5)
    label, conf = classify(net, w)
    assert label is BlinkLabel.INVOLUNTARY


def test_shape_mismatch_raises():
    net = zero_net(input_dim=20, stem_width=8, block_dims=((8, 8),))
    with pytest.raises(ShapeMismatch):
        net.forward(np.zeros(21))
    with pytest.raises(ShapeMismatch):
        net.forward(np.zeros((3, 19)))


def test_train_mode_needs_two_rows():
    net = BlinkNet(input_dim=6, stem_width=4, block_dims=((4, 4),),
                   rng=np.random.default_rng(20))
    with pytest.raises(BatchTooSmallForTrainMode):
        net.forward_logits(np.zeros((1, 6)), train=True)
    net.forward_logits(np.zeros((1, 6)), train=False)


def test_eval_forward_is_batch_composition_invariant():
    rng = np.random.default_rng(21)
    net = BlinkNet(input_dim=8, stem_width=6, block_dims=((6, 4),), rng=rng)
    net.forward_logits(rng.normal(size=(16, 8)), train=True)  # warm up stats
    x = rng.normal(size=(10, 8))
    batched = net.forward_logits(x, train=False)
    for i in range(10):
        single = net.forward_logits(x[i], train=False)
        np.testing.assert_allclose(single[0], batched[i], rtol=1e-12, atol=1e-14)


def test_duplicated_batch_gives_same_train_outputs():
    rng = np.random.default_rng(22)
    net = BlinkNet(input_dim=8, stem_width=6, block_dims=((6, 6),), rng=rng)
    x = rng.normal(size=(9, 8))
    y1 = net.forward_logits(x, train=True)
    y2 = net.forward_logits(np.vstack([x, x]), train=True)
    np.testing.assert_allclose(y1, y2[:9], atol=1e-10)
    np.testing.assert_allclose(y2[:9], y2[9:], atol=1e-12)


# ---------------------------------------------------------------------------
# checkpoints


def make_small_net(seed: int = 23) -> BlinkNet:
    rng = np.random.default_rng(seed)
    net = BlinkNet(input_dim=12, stem_width=8, block_dims=((8, 8), (8, 4)),
                   rng=rng)
    # Give running stats non-default values so the roundtrip must carry them.
    net.forward_logits(rng.normal(size=(16, 12)), train=True)
    return net


def test_checkpoint_roundtrip_is_bitwise():
    net = make_small_net()
    ckpt = ModelCheckpoint.from_net(net, epoch=3, validation_loss=0.75)
    blob = ckpt.to_bytes()
    back = ModelCheckpoint.from_bytes(blob)
    assert back.epoch == 3
    assert back.validation_loss == 0.75
    assert back.to_bytes() == blob
    net2 = back.build_net()
    x = np.random.default_rng(24).normal(size=(5, 12))
    np.testing.assert_array_equal(
        net.forward_logits(x, train=False), net2.forward_logits(x, train=False)
    )


def test_checkpoint_file_roundtrip(tmp_path):
    net = make_small_net()
    ckpt = ModelCheckpoint.from_net(net, epoch=1, validation_loss=2.0)
    path = tmp_path / "model.bnet"
    ckpt.save(path)
    back = ModelCheckpoint.load(path)
    assert back.to_bytes() == ckpt.to_bytes()


def test_saved_file_is_to_bytes(tmp_path):
    ckpt = ModelCheckpoint.from_net(make_small_net(), epoch=4, validation_loss=0.5)
    stem = ckpt.net.stem_lin.weight
    # A column-major layer array is still written row-major.
    stem.value = np.asfortranarray(stem.value)
    path = tmp_path / "model.bnet"
    ckpt.save(path)
    blob = path.read_bytes()
    assert blob == ckpt.to_bytes()
    assert ModelCheckpoint.from_bytes(blob).net.stem_lin.weight.value.tobytes() == \
        np.ascontiguousarray(stem.value).tobytes()


def _net_arrays(net):
    out = []
    for kind, layer in net_module._layers_in_order(net):
        for p in layer.params():
            out += [p.value, p.grad]
        if kind == "bn":
            out += [layer.running_mean, layer.running_var]
    return out


def _plan_arrays(plan):
    """The arrays an InferencePlan holds, its stem weight first."""
    pairs = [(plan.stem_lin.weight.value, plan.stem_lin.bias.value),
             (plan.stem_scale, plan.stem_shift)]
    for lin1, lin2, skip in plan.blocks:
        pairs += [lin1, lin2] + ([] if skip is None else [skip])
    return [a for pair in pairs + [plan.head] for a in pair]


def _assert_serving_form_of(served, stored):
    """`served` is the plan of `stored`: its stem weight is the float32
    rounding of the stored one, and every other array is float64 and equal
    to that of `stored.for_inference()`."""
    assert isinstance(served, InferencePlan)
    stem = served.stem_lin.weight.value
    assert stem.dtype == np.float32
    np.testing.assert_array_equal(stem, stored.stem_lin.weight.value.astype(np.float32))
    plan = _plan_arrays(stored.for_inference())
    for got, want in zip(_plan_arrays(served)[1:], plan[1:], strict=True):
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)


def test_built_nets_share_no_array_with_each_other_or_the_checkpoint(tmp_path):
    path = tmp_path / "model.bnet"
    ModelCheckpoint.from_net(make_small_net(), 2, 0.5).save(path)
    ckpt = ModelCheckpoint.load(path)
    blob = ckpt.to_bytes()
    a, b = ckpt.build_net(), ckpt.build_net()
    arrays = _net_arrays(a) + _net_arrays(b) + _net_arrays(ckpt.net)
    for i, x in enumerate(arrays):
        for y in arrays[i + 1:]:
            assert not np.shares_memory(x, y)
    rng = np.random.default_rng(37)
    a.loss_and_gradients(rng.normal(size=(6, 12)), np.array([0, 1, 0, 1, 1, 0]))
    Adam(a.params(), lr=0.1).step()
    assert ckpt.to_bytes() == blob
    assert ModelCheckpoint.from_net(b, 2, 0.5).to_bytes() == blob


def test_loaded_weights_are_contiguous_aligned_float64(tmp_path):
    path = tmp_path / "model.bnet"
    ModelCheckpoint.from_net(make_small_net(), 1, 0.5).save(path)
    for arr in _net_arrays(ModelCheckpoint.load(path).build_net()):
        assert arr.dtype == np.float64 and arr.dtype.isnative
        assert arr.flags.c_contiguous and arr.flags.aligned
        assert arr.flags.writeable


def test_record_that_does_not_fit_its_layer_is_a_format_error():
    bad = ModelCheckpoint.from_net(make_small_net(), 1, 0.5)
    bn = bad.net.stem_bn
    bn.gamma.value, bn.beta.value, bn.running_mean, bn.running_var = (
        np.append(a, 0.0) for a in (
            bn.gamma.value, bn.beta.value, bn.running_mean, bn.running_var))
    with pytest.raises(CheckpointFormatError):
        ModelCheckpoint.from_bytes(bad.to_bytes()).build_net()


@pytest.mark.parametrize("width", [1, 3])
def test_head_that_is_not_two_wide_is_a_format_error(tmp_path, width):
    # `classify` and `evaluate_loss` read logit columns 0 and 1 alone.
    bad = ModelCheckpoint.from_net(make_small_net(), 1, 0.5)
    head = bad.net.head
    in_dim = head.weight.value.shape[1]
    head.weight.value, head.bias.value = np.ones((width, in_dim)), np.zeros(width)
    path = tmp_path / "model.bnet"
    bad.save(path)
    with pytest.raises(CheckpointFormatError):
        ModelCheckpoint.load(path).build_net()
    with pytest.raises(CheckpointFormatError):
        load_net(path)


def test_hand_packed_layout_is_the_checkpoint_format(tmp_path):
    # An encoder of its own, written from the documented layout, pins the
    # format whatever ModelCheckpoint keeps inside.
    net = make_small_net()
    blob = pack_checkpoint(7, 0.375, checkpoint_records(net))
    assert ModelCheckpoint.from_net(net, 7, 0.375).to_bytes() == blob
    path = tmp_path / "model.bnet"
    path.write_bytes(blob)
    assert ModelCheckpoint.load(path).to_bytes() == blob
    x = np.random.default_rng(25).normal(size=(5, 12))
    np.testing.assert_array_equal(ModelCheckpoint.load(path).build_net().forward(x),
                                  net.forward(x))
    served = load_net(path)
    _assert_serving_form_of(served, net)
    np.testing.assert_array_equal(served.forward(x), net.for_inference().forward(x))


@pytest.mark.parametrize("kind", MALFORMED_CHECKPOINTS)
def test_malformed_checkpoint_is_a_format_error(tmp_path, kind):
    blob = malformed_checkpoint(kind)
    with pytest.raises(CheckpointFormatError):
        ModelCheckpoint.from_bytes(blob)
    path = tmp_path / "model.bnet"
    path.write_bytes(blob)
    for loader in (ModelCheckpoint.load, load_net):
        with pytest.raises(CheckpointFormatError):
            loader(path)


@pytest.mark.parametrize("field, value", [
    ("eps", math.nan), ("eps", -1.0), ("eps", 0.0), ("eps", math.inf),
    ("momentum", -0.1), ("momentum", 1.5), ("momentum", math.nan),
    ("running_var", -1.0), ("running_var", math.nan), ("running_var", math.inf),
])
def test_bad_batch_norm_setting_is_a_format_error(tmp_path, field, value):
    path = tmp_path / "model.bnet"
    path.write_bytes(checkpoint_with_stem_batch_norm(make_small_net(), field, value))
    for loader in (ModelCheckpoint.load, load_net):
        with pytest.raises(CheckpointFormatError, match="batch norm"):
            loader(path)


@pytest.mark.parametrize("field, value", [
    ("eps", 1e-300), ("momentum", 0.0), ("momentum", 1.0), ("running_var", 0.0),
])
def test_batch_norm_settings_at_their_limits_load(field, value):
    blob = checkpoint_with_stem_batch_norm(make_small_net(), field, value)
    assert ModelCheckpoint.from_bytes(blob).to_bytes() == blob


class _HalfWriter:
    """File stand-in whose write stores half the bytes, then fails."""

    def __init__(self, f):
        self._f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def write(self, data):
        self._f.write(bytes(data[:len(data) // 2]))
        self._f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_checkpoint_save_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "best.bnet"
    ModelCheckpoint.from_net(make_small_net(), 1, 0.5).save(path)
    before = path.read_bytes()
    monkeypatch.setattr(net_module, "open",
                        lambda file, mode="r": _HalfWriter(builtins.open(file, mode)),
                        raising=False)
    with pytest.raises(OSError):
        ModelCheckpoint.from_net(make_small_net(seed=5), 2, 0.25).save(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["best.bnet"]


def _open_fds():
    """This process's open file descriptors, or None where /proc is absent."""
    try:
        return sorted(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


def test_checkpoint_truncation_and_corruption_raise_typed_errors(tmp_path):
    blob = ModelCheckpoint.from_net(make_small_net(), 1, 0.2).to_bytes()
    for cut in (0, 3, 11, len(blob) // 2, len(blob) - 1):
        with pytest.raises(CheckpointFormatError):
            ModelCheckpoint.from_bytes(blob[:cut])
    with pytest.raises(CheckpointFormatError):
        ModelCheckpoint.from_bytes(b"XXXX" + blob[4:])
    bad_version = blob[:4] + (99).to_bytes(4, "little") + blob[8:]
    with pytest.raises(CheckpointFormatError):
        ModelCheckpoint.from_bytes(bad_version)
    with pytest.raises(CheckpointFormatError):
        ModelCheckpoint.from_bytes(blob + b"\x07trailing")
    # A stem record claiming (2**32-1)**2 weights must fail before any
    # allocation, as a format error rather than a MemoryError.
    huge = blob[:20] + struct.pack("<BII", 0x01, 2**32 - 1, 2**32 - 1) + blob[29:]
    with pytest.raises(CheckpointFormatError):
        ModelCheckpoint.from_bytes(huge)
    damaged = [blob[:cut] for cut in (0, 3, 11, len(blob) // 2, len(blob) - 1)]
    damaged += [b"XXXX" + blob[4:], bad_version, blob + b"\x07trailing", huge]
    fds = _open_fds()
    for i, data in enumerate(damaged):
        path = tmp_path / f"damaged{i}.bnet"
        path.write_bytes(data)
        for loader in (ModelCheckpoint.load, load_net):
            with pytest.raises(CheckpointFormatError):
                loader(path)
    assert _open_fds() == fds


def test_checkpoint_rejects_unknown_record_tag():
    blob = bytearray(ModelCheckpoint.from_net(make_small_net(), 1, 0.2).to_bytes())
    # First record tag byte sits right after the 4s+I+I+d header.
    header = 4 + 4 + 4 + 8
    assert blob[header] in (0x01, 0x02)
    blob[header] = 0x7F
    with pytest.raises(CheckpointFormatError):
        ModelCheckpoint.from_bytes(bytes(blob))


def _feed_pipe(path, data: bytes) -> threading.Thread:
    """Write `data` into the named pipe at `path` from a thread."""
    def write():
        try:
            with open(path, "wb") as f:
                f.write(data)
        except BrokenPipeError:
            pass  # the reader gave up; its own error is what the test sees

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return writer


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_checkpoint_loads_from_a_pipe(tmp_path):
    # `--checkpoint <(cat model.bnet)` hands the CLI a pipe, whose size
    # fstat reports as 0.
    blob = ModelCheckpoint.from_net(make_small_net(), 6, 0.125).to_bytes()
    reference = ModelCheckpoint.from_bytes(blob)
    path = tmp_path / "model.pipe"
    os.mkfifo(path)
    writer = _feed_pipe(path, blob)
    ckpt = ModelCheckpoint.load(path)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert [kind for kind, _ in net_module._layers_in_order(ckpt.net)] == \
        [kind for kind, _ in net_module._layers_in_order(reference.net)]
    for got, want in zip(_net_arrays(ckpt.net), _net_arrays(reference.net)):
        np.testing.assert_array_equal(got, want)
    assert ckpt.to_bytes() == reference.to_bytes() == blob
    writer = _feed_pipe(path, blob)
    loaded = load_net(path)
    writer.join(timeout=10)
    assert not writer.is_alive()
    _assert_serving_form_of(loaded, reference.net)


def test_load_net_matches_build_net_and_holds_fresh_arrays(tmp_path):
    path = tmp_path / "model.bnet"
    ModelCheckpoint.from_net(make_small_net(), 2, 0.5).save(path)
    loaded, built = load_net(path), ModelCheckpoint.load(path).build_net()
    _assert_serving_form_of(loaded, built)
    arrays = _plan_arrays(loaded) + _net_arrays(built)
    for i, x in enumerate(arrays):
        assert x.dtype.isnative
        assert x.flags.c_contiguous and x.flags.aligned and x.flags.writeable
        for y in arrays[i + 1:]:
            assert not np.shares_memory(x, y)
    assert ModelCheckpoint.from_net(built, 2, 0.5).to_bytes() == path.read_bytes()
    x = np.random.default_rng(26).normal(size=(5, 12)).astype(np.float32)
    np.testing.assert_array_equal(loaded.forward(x), built.for_inference().forward(x))


def test_load_net_rounds_the_stem_as_astype_does_across_read_chunks(tmp_path,
                                                                   monkeypatch):
    monkeypatch.setattr(net_module, "READ_CHUNK", 7)  # 96 stem weights: 13 chunks and 5
    net = make_small_net()
    path = tmp_path / "model.bnet"
    ModelCheckpoint.from_net(net, 1, 0.5).save(path)
    _assert_serving_form_of(load_net(path), net)


def test_stem_weight_beyond_float32_range_is_a_format_error_for_load_net(tmp_path):
    net = make_small_net()
    net.stem_lin.weight.value[3, 5] = 1e39
    path = tmp_path / "model.bnet"
    ModelCheckpoint.from_net(net, 1, 0.5).save(path)
    with pytest.raises(CheckpointFormatError, match="float32 range"):
        load_net(path)
    assert ModelCheckpoint.load(path).to_bytes() == path.read_bytes()


def test_for_inference_casts_the_stem_once_and_leaves_the_net_as_it_is():
    net = make_small_net()
    blob = ModelCheckpoint.from_net(net, 1, 0.5).to_bytes()
    plan = net.for_inference()
    _assert_serving_form_of(plan, net)
    assert plan.for_inference() is plan
    assert ModelCheckpoint.from_net(net, 1, 0.5).to_bytes() == blob
    # The stem bias, the skip projection and the head are the net's own
    # arrays; the stem weight is a float32 copy and the folds are new.
    skip = [b.skip for b in net.blocks if b.skip is not None]
    assert len(skip) == 1
    assert plan.blocks[1][2][0] is skip[0].weight.value
    assert plan.blocks[1][2][1] is skip[0].bias.value
    assert plan.head[0] is net.head.weight.value and plan.head[1] is net.head.bias.value
    assert plan.stem_lin.bias.value is net.stem_lin.bias.value
    assert not np.shares_memory(plan.stem_lin.weight.value, net.stem_lin.weight.value)
    # A float32 window reaches the float32 stem as it is.
    x = np.random.default_rng(27).normal(size=(3, 12)).astype(np.float32)
    assert net_module._rows(x, 12, np.float32) is x


# The plan folds every batch norm and rounds the stem weight to float32, so
# it answers within rounding of the float64 net, not bit for bit.
PLAN_CONFIDENCE_TOLERANCE = 1e-5


def net_with_batch_norm_statistics(seed: int) -> BlinkNet:
    """A seeded net, one block of it a width-changing block with a skip
    projection, whose every batch norm has random gamma (either sign),
    beta and running mean, and a running variance in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    net = BlinkNet(input_dim=40, stem_width=16, block_dims=((16, 16), (16, 8), (8, 8)),
                   rng=rng)
    for kind, layer in net_module._layers_in_order(net):
        if kind == "bn":
            n = layer.num_features
            layer.gamma.value[:] = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)
            layer.beta.value[:] = rng.normal(0.0, 0.5, n)
            layer.running_mean = rng.normal(0.0, 0.5, n)
            layer.running_var = rng.uniform(0.5, 2.0, n)
    return net


def test_the_plan_agrees_with_the_unfolded_float64_net():
    labels = set()
    for seed in range(4):
        net = net_with_batch_norm_statistics(seed)
        plan = net.for_inference()
        x = np.random.default_rng(100 + seed).normal(size=(64, 40)).astype(np.float32)
        assert np.abs(plan.forward(x) - net.forward(x)).max() <= PLAN_CONFIDENCE_TOLERANCE
        for row in x:
            (want, want_conf), (got, got_conf) = classify(net, row), classify(plan, row)
            assert got is want
            assert abs(got_conf - want_conf) <= PLAN_CONFIDENCE_TOLERANCE
            labels.add(want)
    assert labels == {BlinkLabel.VOLUNTARY, BlinkLabel.INVOLUNTARY}


def test_load_net_and_for_inference_answer_bit_for_bit_alike(tmp_path):
    # A server answers from the file, the in-process reference from the net.
    net = net_with_batch_norm_statistics(7)
    path = tmp_path / "model.bnet"
    ModelCheckpoint.from_net(net, 1, 0.5).save(path)
    loaded, in_memory = load_net(path), net.for_inference()
    x = np.random.default_rng(8).normal(size=(16, 40)).astype(np.float32)
    assert loaded.forward(x).tobytes() == in_memory.forward(x).tobytes()
    for row in x:  # one row at a time, as blinks are answered
        assert loaded.forward(row).tobytes() == in_memory.forward(row).tobytes()


_LOAD_PEAK = """
import sys
from blinkpipe import net

def status_bytes(key):
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1]) * 1024

path, loader = sys.argv[1:]
stored = net.ModelCheckpoint.load(path).net if loader == "for_inference" else None
base = status_bytes("VmRSS")
kept = {"load": lambda: net.ModelCheckpoint.load(path), "load_net": lambda: net.load_net(path),
        "for_inference": lambda: stored.for_inference()}[loader]()
print(status_bytes("VmHWM") - base)
"""


def _arrays(net):
    """The arrays a plan or a net's layers hold, without reading (and so
    making) any gradient."""
    if isinstance(net, InferencePlan):
        return _plan_arrays(net)
    return [v for _, values in net_module._records(net) for v in values
            if isinstance(v, np.ndarray)]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status")
@pytest.mark.parametrize("loader", ["load", "load_net", "for_inference"])
def test_loading_a_checkpoint_holds_one_copy_of_its_weights(tmp_path, loader):
    # Reading the file whole, copying the read arrays into a net, or making
    # a net only to overwrite its arrays would raise either peak by about
    # the file's size. The plans of `load_net` and `for_inference` hold a
    # float32 stem, half the file, and the small folded layers. The
    # resident peak is measured in a fresh process; the tracemalloc peak
    # counts every allocation, touched or not.
    path = tmp_path / "wide.bnet"
    ModelCheckpoint.from_net(zero_net(input_dim=40_000, block_dims=()), 0, 0.0).save(path)
    size = path.stat().st_size
    src = os.path.dirname(os.path.dirname(net_module.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _LOAD_PEAK, str(path), loader],
                         env=env, capture_output=True, text=True, timeout=120,
                         check=True)
    assert int(out.stdout) <= (1.25 if loader == "load" else 0.625) * size

    stored = ModelCheckpoint.load(path).net
    make = {"load": lambda: ModelCheckpoint.load(path).net,
            "load_net": lambda: load_net(path), "for_inference": stored.for_inference}[loader]
    tracemalloc.start()
    try:
        kept = make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    made = [a for a in _arrays(kept) if not any(a is b for b in _arrays(stored))]
    assert peak <= sum(a.nbytes for a in made) + 8 * net_module.READ_CHUNK + 200_000


def test_load_net_answers_from_the_stem_array_the_file_was_read_into(tmp_path,
                                                                      monkeypatch):
    path = tmp_path / "model.bnet"
    ModelCheckpoint.from_net(make_small_net(), 1, 0.5).save(path)
    read = []
    f32_array = net_module._Reader.f32_array
    monkeypatch.setattr(net_module._Reader, "f32_array",
                        lambda r, count: read.append(f32_array(r, count)) or read[-1])
    stem = load_net(path).stem_lin.weight.value
    assert len(read) == 1
    assert stem.base is read[0] and stem.shape == (8, 12)


# ---------------------------------------------------------------------------
# training loop


def cluster_pairs(n: int, seed: int, dim: int = 12):
    rng = np.random.default_rng(seed)
    xs = []
    for _ in range(n):
        label = int(rng.integers(0, 2))
        center = 1.2 if label == 0 else -1.2
        xs.append((rng.normal(center, 1.0, dim), label))
    return xs


def test_train_learns_separable_clusters(tmp_path):
    tr = cluster_pairs(120, 25)
    va = cluster_pairs(40, 26)
    best, history = train(tr, va, tmp_path, epochs=12, seed=0, lr=1e-3, batch_size=16,
                          stem_width=8, block_dims=((8, 4),))
    assert len(history) == 12
    assert history[-1].train_loss < history[0].train_loss
    assert best.validation_loss == min(h.val_loss for h in history)
    net = best.build_net()
    correct = sum(
        classify(net, x)[0].value == y for x, y in cluster_pairs(60, 27)
    )
    assert correct >= 54  # 90% on well-separated clusters


def test_train_is_deterministic_by_seed(tmp_path):
    tr = cluster_pairs(60, 28)
    va = cluster_pairs(20, 29)
    _, h1 = train(tr, va, tmp_path / "a", epochs=4, seed=5, lr=1e-3, stem_width=6,
                  block_dims=((6, 4),))
    _, h2 = train(tr, va, tmp_path / "b", epochs=4, seed=5, lr=1e-3, stem_width=6,
                  block_dims=((6, 4),))
    assert [(s.train_loss, s.val_loss) for s in h1] == \
        [(s.train_loss, s.val_loss) for s in h2]
    _, h3 = train(tr, va, tmp_path / "c", epochs=4, seed=6, lr=1e-3, stem_width=6,
                  block_dims=((6, 4),))
    assert h3[-1].train_loss != h1[-1].train_loss


def test_train_writes_only_the_best_checkpoint(tmp_path):
    tr = cluster_pairs(40, 30)
    va = cluster_pairs(16, 31)
    ckpt = tmp_path / "new" / "ckpt"  # made, parents too
    best, history = train(tr, va, ckpt, epochs=3, seed=0, lr=1e-3, stem_width=6,
                          block_dims=((6, 4),))
    assert [f.name for f in ckpt.iterdir()] == ["best.bnet"]
    best_file = ModelCheckpoint.load(ckpt / "best.bnet")
    assert best_file.to_bytes() == best.to_bytes()
    assert best_file.epoch == best.epoch


def test_best_checkpoint_is_the_best_epochs_net(tmp_path):
    """best.bnet holds the best epoch's net after training went on past it:
    a run stopped at that epoch writes the same bytes."""
    tr = [(x, 1 - y) for x, y in cluster_pairs(40, 42)]  # validation loss rises
    va = cluster_pairs(16, 43)
    kwargs = dict(seed=2, lr=1e-2, stem_width=6, block_dims=((6, 4),))
    best, history = train(tr, va, tmp_path / "long", epochs=4, **kwargs)
    assert best.epoch < len(history)
    assert best.validation_loss == min(h.val_loss for h in history)
    stopped, _ = train(tr, va, tmp_path / "stopped", epochs=best.epoch, **kwargs)
    assert stopped.epoch == best.epoch
    long_bytes = (tmp_path / "long" / "best.bnet").read_bytes()
    assert long_bytes == best.to_bytes()
    assert long_bytes == (tmp_path / "stopped" / "best.bnet").read_bytes()


def window_pairs(n: int, seed: int, dim: int = 120):
    """`cluster_pairs` as float32 windows, the dtype a cut from a history
    buffer has."""
    return [(WindowTensor(np.asarray(x, np.float32), 0), y)
            for x, y in cluster_pairs(n, seed, dim)]


def test_float32_windows_train_as_their_float64_values(tmp_path):
    tr, va = window_pairs(45, 44), window_pairs(15, 45)
    widened = [[(w.values.astype(np.float64), y) for w, y in s] for s in (tr, va)]
    runs = []
    for name, pairs in (("f32", (tr, va)), ("f64", widened)):
        best, history = train(*pairs, tmp_path / name, epochs=3, seed=4, lr=1e-2,
                              batch_size=8, stem_width=6, block_dims=((6, 4),))
        files = {f.name: f.read_bytes() for f in sorted((tmp_path / name).iterdir())}
        runs.append((best.to_bytes(), history, files))
    assert list(runs[0][2]) == ["best.bnet"]
    assert runs[0] == runs[1]


def test_train_holds_no_copy_of_the_examples_or_of_the_best_net(tmp_path):
    """The peak allocation of `train` on a 5,000-input net is three weight
    copies (the weights and Adam's m and v), one band of the stem gradient,
    one batch or the validation matrix (never both), and Adam's scratch: a
    whole stem gradient (5 MB), a stacked copy of the training set (12 MB),
    a best net copied in memory (5 MB), or a batch or validation matrix
    kept past its use (2.56 MB) would exceed it."""
    tr, va = window_pairs(300, 46, dim=5000), window_pairs(64, 47, dim=5000)
    tracemalloc.start()  # numpy reports its array buffers to tracemalloc
    try:
        best, _ = train(tr, va, tmp_path, epochs=2, seed=0, batch_size=64,
                        stem_width=128, block_dims=((128, 64), (64, 32)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    params = sum(p.value.nbytes for p in best.net.params())
    band = ADAM_BAND_ROWS * 5000 * 8
    batch, val, adam_scratch = 64 * 5000 * 8, 64 * 5000 * 8, 2 * ADAM_BLOCK * 8
    assert peak < 3 * params + band + max(batch, val) + adam_scratch + 1_500_000


def test_train_examples_of_mixed_width_are_a_shape_mismatch(tmp_path):
    pairs = cluster_pairs(4, 32)
    narrow = [(np.asarray(x)[:-1], y) for x, y in pairs[:2]]
    with pytest.raises(ShapeMismatch):
        train(pairs + narrow, pairs, tmp_path, epochs=1)
    with pytest.raises(ShapeMismatch):
        train(pairs, pairs + narrow, tmp_path, epochs=1)


def test_train_rejects_empty_splits(tmp_path):
    with pytest.raises(EmptySplit):
        train([], cluster_pairs(4, 32), tmp_path, epochs=1)
    with pytest.raises(EmptySplit):
        train(cluster_pairs(4, 33), [], tmp_path, epochs=1)


@pytest.mark.parametrize("epochs", [0, -1])
def test_train_rejects_fewer_than_one_epoch_before_any_work(tmp_path, epochs):
    def unread():
        raise AssertionError("the data was read")
        yield

    ckpt = tmp_path / "ckpt"
    with pytest.raises(ValueError, match="epochs"):
        train(unread(), unread(), ckpt, epochs=epochs)
    assert not ckpt.exists()


@pytest.mark.parametrize("batch_size", [-4, 0, 1])
def test_train_rejects_batches_under_two_before_any_work(tmp_path, batch_size):
    def unread():
        raise AssertionError("the data was read")
        yield

    ckpt = tmp_path / "ckpt"
    with pytest.raises(ValueError, match="batch_size"):
        train(unread(), unread(), ckpt, epochs=1, batch_size=batch_size)
    assert not ckpt.exists()


@pytest.mark.parametrize("label", [-1, 2])
def test_train_rejects_a_label_outside_0_and_1_before_building_the_net(
        tmp_path, monkeypatch, label):
    # Unchecked, -1 would train as Involuntary by negative indexing, and 2
    # would fail as an IndexError inside the first step.
    def unbuilt(*args, **kwargs):
        raise AssertionError("the net was built")

    monkeypatch.setattr(net_module, "BlinkNet", unbuilt)
    pairs = cluster_pairs(8, 48)
    bad = pairs[:-1] + [(pairs[-1][0], label)]
    for train_set, val_set in ((bad, pairs), (pairs, bad)):
        with pytest.raises(UnknownLabel, match=f"label {label}"):
            train(train_set, val_set, tmp_path / "ckpt", epochs=1)
    assert not (tmp_path / "ckpt").exists()


def test_evaluate_loss_reports_accuracy(tmp_path):
    tr = cluster_pairs(80, 34)
    va = cluster_pairs(30, 35)
    best, _ = train(tr, va, tmp_path, epochs=10, seed=0, lr=1e-3, stem_width=8,
                    block_dims=((8, 4),))
    net = best.build_net()
    test_pairs = cluster_pairs(50, 36)
    x = np.array([p[0] for p in test_pairs])
    y = np.array([p[1] for p in test_pairs])
    loss, acc = evaluate_loss(net, x, y)
    assert 0.0 <= loss
    assert acc >= 0.9
