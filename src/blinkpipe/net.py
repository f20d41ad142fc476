"""Blink-intent classifier: a residual MLP with hand-written forward and
backward passes, an Adam training loop, and a versioned binary checkpoint
format.

Architecture: a stem (Linear 50000->128, BatchNorm, Mish) followed by nine
residual blocks (128->128, 128->128, 128->64, 64->64, 64->64, 64->32,
32->32, 32->32, 32->32) and a Linear 32->2 head with softmax. Each block is
two (Linear, BatchNorm, Mish) sub-blocks with a skip connection around
both: the identity when input and output widths match, a linear projection
otherwise.

Class order in the output 2-vector: index 0 = Voluntary, index 1 =
Involuntary. Ties break toward Involuntary so an ambiguous blink is
suppressed rather than acted on.

Every net is built one way, by `BlinkNet._wrap`: its layers wrap the arrays
of one record per layer as they are. The seeded initializer draws the
records, `ModelCheckpoint` reads them and `copy` copies them, so no array
is made to be overwritten.

Training, checkpoints and every net that `BlinkNet`, `train` or
`ModelCheckpoint` builds are double precision; a net widens its input to
float64. Blinks are answered from an `InferencePlan`
(`BlinkNet.for_inference`, `load_net`), the eval-mode net made flat once:
its stem product runs on a float32 stem weight and takes a window, which
arrives as float32 and holds every validated feature exactly, as it is.
After the stem it runs in float64, with every batch norm folded into a
scale and shift of the stem's outputs or into the linear layer before it.
Determinism: a fixed seed fixes the initialization, the per-epoch
shuffles, and therefore every parameter.
"""
from __future__ import annotations

import io
import math
import os
import stat
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import BlinkLabel, BlinkPipeError, atomic_path
from .window import WindowTensor

INPUT_DIM = 50000
STEM_WIDTH = 128
N_CLASSES = 2
DEFAULT_BLOCK_DIMS: Tuple[Tuple[int, int], ...] = (
    (128, 128), (128, 128), (128, 64),
    (64, 64), (64, 64), (64, 32),
    (32, 32), (32, 32), (32, 32),
)

BN_MOMENTUM = 0.1
BN_EPS = 1e-5

DEFAULT_LR = 1e-4
DEFAULT_EPOCHS = 500
DEFAULT_BATCH_SIZE = 32
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CHECKPOINT_MAGIC = b"BNET"
CHECKPOINT_FORMAT_VERSION = 1
_TAG_LINEAR = 0x01
_TAG_BATCHNORM = 0x02


class ShapeMismatch(BlinkPipeError):
    """Input, label, or parameter shapes do not line up."""


class BatchTooSmallForTrainMode(BlinkPipeError):
    """Train-mode batch norm needs at least 2 rows for batch statistics."""


class EmptySplit(BlinkPipeError):
    """Training requires non-empty train and validation sets."""


class UnknownLabel(BlinkPipeError):
    """A training label is neither 0 (Voluntary) nor 1 (Involuntary)."""


class CheckpointFormatError(BlinkPipeError):
    """Checkpoint bytes do not parse as a well-formed model file."""


# --------------------------------------------------------------------------
# activations and loss


def softplus(x):
    """Overflow-safe log(1 + e^x)."""
    x = np.asarray(x, dtype=np.float64)
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def mish(x):
    """x * tanh(softplus(x))."""
    x = np.asarray(x, dtype=np.float64)
    return x * np.tanh(softplus(x))


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def mish_grad(x):
    """Derivative of mish: tanh(sp(x)) + x * (1 - tanh^2(sp(x))) * sigmoid(x)."""
    x = np.asarray(x, dtype=np.float64)
    t = np.tanh(softplus(x))
    return t + x * (1.0 - t * t) * _sigmoid(x)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray,
                          labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. logits.

    Log-probabilities are computed via log-sum-exp, never by logging a
    softmax output.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeMismatch(
            f"labels shape {labels.shape} does not match {logits.shape[0]} logits rows"
        )
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - log_norm
    n = logits.shape[0]
    loss = float(-logp[np.arange(n), labels].mean())
    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits


# --------------------------------------------------------------------------
# layers


class Param:
    """Mutable parameter holder: value plus the gradient of the last backward.

    The gradient array is made only when a backward writes it or a reader
    asks for it; before any backward it reads as zeros. A weight whose
    layer computes no input gradient holds its gradient as two factors,
    dy.T @ x (`hold_factors`), which `Adam.step` multiplies out a band of
    rows at a time and then lets go of (the gradient reads as zeros after
    that step); reading `grad` before the step multiplies them out whole.
    """

    __slots__ = ("value", "_grad", "_factors")

    def __init__(self, value: np.ndarray):
        self.value = value
        self._grad: Optional[np.ndarray] = None
        self._factors: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def grad(self) -> np.ndarray:
        if self._factors is not None:
            dy, x = self.take_factors()
            self._grad = dy.T @ x
        elif self._grad is None:
            self._grad = np.zeros(self.value.shape)
        return self._grad

    @grad.setter
    def grad(self, grad: np.ndarray) -> None:
        self._grad, self._factors = grad, None

    def hold_factors(self, dy: np.ndarray, x: np.ndarray) -> None:
        """Set the gradient to dy.T @ x without multiplying it out."""
        self._grad, self._factors = None, (dy, x)

    def take_factors(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The held (dy, x), or None; the parameter no longer holds them."""
        factors, self._factors = self._factors, None
        return factors


class LinearLayer:
    """y = x @ W.T + b over the (out, in) weight and the bias it is given."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray):
        self.out_dim, self.in_dim = weight.shape
        self.weight = Param(weight)
        self.bias = Param(bias)
        self._x: Optional[np.ndarray] = None

    def params(self) -> List[Param]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.shape[1] != self.in_dim:
            raise ShapeMismatch(f"expected {self.in_dim} input features, got {x.shape[1]}")
        self._x = x
        return x @ self.weight.value.T + self.bias.value

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self._check_backward(dy)
        self.weight.grad = dy.T @ self._x
        self.bias.grad = dy.sum(axis=0)
        return dy @ self.weight.value

    def backward_params(self, dy: np.ndarray) -> None:
        """Write the bias gradient and hold the weight gradient as its
        factors (dy, x), for a first layer, whose input gradient nothing
        reads. The layer lets go of its input, which the weight's factors
        keep until the optimizer step."""
        self._check_backward(dy)
        self.weight.hold_factors(dy, self._x)
        self.bias.grad = dy.sum(axis=0)
        self._x = None

    def _check_backward(self, dy: np.ndarray) -> None:
        if self._x is None or dy.shape != (self._x.shape[0], self.out_dim):
            raise ShapeMismatch("backward called without a matching forward")


class BatchNormLayer:
    """Per-feature batch normalization with running statistics.

    Train mode normalizes by the biased batch variance and folds the
    unbiased variance into the running estimate (momentum 0.1). Eval mode
    uses only running statistics, so it is batch-size-1 safe and
    batch-composition invariant.
    """

    def __init__(self, gamma: np.ndarray, beta: np.ndarray,
                 running_mean: np.ndarray, running_var: np.ndarray,
                 momentum: float, eps: float):
        self.num_features = gamma.shape[0]
        self.gamma = Param(gamma)
        self.beta = Param(beta)
        self.running_mean = running_mean
        self.running_var = running_var
        self.momentum = momentum
        self.eps = eps
        self._cache = None

    def params(self) -> List[Param]:
        return [self.gamma, self.beta]

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.shape[1] != self.num_features:
            raise ShapeMismatch(
                f"expected {self.num_features} features, got {x.shape[1]}"
            )
        if train:
            n = x.shape[0]
            if n < 2:
                raise BatchTooSmallForTrainMode(
                    f"train-mode batch norm needs >= 2 rows, got {n}"
                )
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            inv_std = 1.0 / np.sqrt(var + self.eps)
            xhat = (x - mean) * inv_std
            self._cache = ("train", xhat, inv_std)
            self.running_mean = (1.0 - self.momentum) * self.running_mean \
                + self.momentum * mean
            self.running_var = (1.0 - self.momentum) * self.running_var \
                + self.momentum * var * n / (n - 1)
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
            xhat = (x - self.running_mean) * inv_std
            self._cache = ("eval", xhat, inv_std)
        return self.gamma.value * xhat + self.beta.value

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeMismatch("backward called before forward")
        mode, xhat, inv_std = self._cache
        self.gamma.grad = (dy * xhat).sum(axis=0)
        self.beta.grad = dy.sum(axis=0)
        dxhat = dy * self.gamma.value
        if mode == "eval":
            return dxhat * inv_std
        return (dxhat - dxhat.mean(axis=0)
                - xhat * (dxhat * xhat).mean(axis=0)) * inv_std


class MishActivation:
    def __init__(self):
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._x = x
        return mish(x)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise ShapeMismatch("backward called before forward")
        return dy * mish_grad(self._x)


class ResNetBlock:
    """Two (Linear, BatchNorm, Mish) sub-blocks plus a skip around both.

    skip is None, the identity, when the block keeps its width (type b),
    otherwise a linear projection (type a).
    """

    def __init__(self, lin1: LinearLayer, bn1: BatchNormLayer,
                 lin2: LinearLayer, bn2: BatchNormLayer,
                 skip: Optional[LinearLayer]):
        self.lin1, self.bn1, self.act1 = lin1, bn1, MishActivation()
        self.lin2, self.bn2, self.act2 = lin2, bn2, MishActivation()
        self.skip = skip

    def params(self) -> List[Param]:
        out = (self.lin1.params() + self.bn1.params()
               + self.lin2.params() + self.bn2.params())
        if self.skip is not None:
            out += self.skip.params()
        return out

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        h = self.act1.forward(self.bn1.forward(self.lin1.forward(x, train), train), train)
        h = self.act2.forward(self.bn2.forward(self.lin2.forward(h, train), train), train)
        s = x if self.skip is None else self.skip.forward(x, train)
        return h + s

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dh = self.act2.backward(dy)
        dh = self.bn2.backward(dh)
        dh = self.lin2.backward(dh)
        dh = self.act1.backward(dh)
        dh = self.bn1.backward(dh)
        dx = self.lin1.backward(dh)
        ds = dy if self.skip is None else self.skip.backward(dy)
        return dx + ds


def linear_init(in_dim: int, out_dim: int, rng: np.random.Generator
                ) -> Tuple[np.ndarray, np.ndarray]:
    """A new linear layer's (weight, bias), drawn from `rng` in that order,
    uniform in +/-sqrt(1/in_dim)."""
    bound = math.sqrt(1.0 / in_dim)
    return (rng.uniform(-bound, bound, size=(out_dim, in_dim)),
            rng.uniform(-bound, bound, size=out_dim))


def batch_norm_init(num_features: int) -> tuple:
    """A new batch norm's values: gamma 1, beta 0, running mean 0, running
    variance 1, BN_MOMENTUM and BN_EPS."""
    n = num_features
    return np.ones(n), np.zeros(n), np.zeros(n), np.ones(n), BN_MOMENTUM, BN_EPS


Record = Tuple[str, tuple]  # ("linear" or "bn", values laid out as _layer_values)


class BlinkNet:
    """Full classifier stack. `forward` returns row-wise class probabilities."""

    def __init__(self, input_dim: int = INPUT_DIM, stem_width: int = STEM_WIDTH,
                 block_dims: Optional[Sequence[Tuple[int, int]]] = None,
                 seed: int = 0, rng: Optional[np.random.Generator] = None):
        """A new net whose linear layers are drawn from `rng`, or from
        `seed`'s generator, in forward order (`linear_init`)."""
        if rng is None:
            rng = np.random.default_rng(seed)
        if block_dims is None:
            block_dims = DEFAULT_BLOCK_DIMS
        width = stem_width
        records: List[Record] = [("linear", linear_init(input_dim, width, rng)),
                                 ("bn", batch_norm_init(width))]
        for i, (bin_, bout) in enumerate(block_dims):
            if bin_ != width:
                raise ValueError(
                    f"block {i} input width {bin_} does not follow previous width {width}"
                )
            records += [("linear", linear_init(bin_, bout, rng)),
                        ("bn", batch_norm_init(bout)),
                        ("linear", linear_init(bout, bout, rng)),
                        ("bn", batch_norm_init(bout))]
            if bin_ != bout:
                records.append(("linear", linear_init(bin_, bout, rng)))
            width = bout
        self._wrap(records + [("linear", linear_init(width, N_CLASSES, rng))])

    @classmethod
    def from_records(cls, records: Sequence[Record]) -> "BlinkNet":
        """The net whose layers wrap `records` (see `_wrap`)."""
        net = cls.__new__(cls)
        net._wrap(records)
        return net

    def _wrap(self, records: Sequence[Record]) -> None:
        """Make this net's layers from `records`, one per layer in
        `_layers_in_order`, each wrapping its record's arrays as they are.

        The records must form a stem (linear, batch norm), blocks (linear,
        batch norm, linear, batch norm, and a projection linear when the
        block changes width) and a linear head of N_CLASSES, with each
        layer taking the width the one before it gives; otherwise this is
        a CheckpointFormatError. The first array of a record (a weight or
        gamma) gives its shape.
        """
        at = 0

        def take(kind: str, *shape: Optional[int]):
            """The next record's layer, which must be a `kind` whose first
            array has `shape` (None: any size)."""
            nonlocal at
            if at == len(records) or records[at][0] != kind:
                raise CheckpointFormatError(
                    f"record {at}: no {kind} record where a stem/blocks/head stack needs one")
            values = records[at][1]
            got = values[0].shape
            if len(got) != len(shape) or any(w not in (None, g) for g, w in zip(got, shape)):
                raise CheckpointFormatError(
                    f"record {at}: {kind} of shape {got} where the stack needs {shape}")
            at += 1
            return (LinearLayer if kind == "linear" else BatchNormLayer)(*values)

        self.stem_lin = take("linear", None, None)
        self.input_dim, self.stem_width = self.stem_lin.in_dim, self.stem_lin.out_dim
        self.stem_bn = take("bn", self.stem_width)
        self.stem_act = MishActivation()
        self.blocks: List[ResNetBlock] = []
        width = self.stem_width
        while at < len(records) - 1:
            lin1 = take("linear", None, width)
            out = lin1.out_dim
            self.blocks.append(ResNetBlock(
                lin1, take("bn", out), take("linear", out, out), take("bn", out),
                None if out == width else take("linear", out, width)))
            width = out
        self.head = take("linear", N_CLASSES, width)

    def params(self) -> List[Param]:
        return [p for _, layer in _layers_in_order(self) for p in layer.params()]

    def copy(self) -> "BlinkNet":
        """A net of the same layers with copies of this one's values
        (weights, biases, batch-norm parameters and running statistics);
        gradients and forward caches are not copied."""
        return BlinkNet.from_records([
            (kind, tuple(v.copy() if isinstance(v, np.ndarray) else v for v in values))
            for kind, values in _records(self)])

    def for_inference(self) -> "InferencePlan":
        """The plan that answers blinks as this net does in eval mode, from
        a float32 copy of its stem weight (see `InferencePlan`). It answers
        as `load_net` of this net's checkpoint does, bit for bit."""
        return InferencePlan(self)

    def forward_logits(self, x, train: bool = False) -> np.ndarray:
        x = _rows(x, self.input_dim, np.float64)
        if train and x.shape[0] < 2:
            raise BatchTooSmallForTrainMode(
                f"train-mode forward needs a batch of >= 2, got {x.shape[0]}"
            )
        h = self.stem_lin.forward(x, train)
        if not train:  # nothing backpropagates an eval pass: drop its batch
            self.stem_lin._x = None
        h = self.stem_act.forward(self.stem_bn.forward(h, train), train)
        for block in self.blocks:
            h = block.forward(h, train)
        return self.head.forward(h, train)

    def forward(self, x, train: bool = False) -> np.ndarray:
        return softmax(self.forward_logits(x, train))

    def backward_from_logits(self, dlogits: np.ndarray) -> None:
        """Propagate a logits gradient through the whole stack; fills Param.grad."""
        dy = self.head.backward(dlogits)
        for block in reversed(self.blocks):
            dy = block.backward(dy)
        dy = self.stem_act.backward(dy)
        dy = self.stem_bn.backward(dy)
        self.stem_lin.backward_params(dy)

    def loss_and_gradients(self, x, labels) -> float:
        """Train-mode forward + mean cross-entropy + full backward pass.

        The stem weight's gradient keeps a reference to `x` (widened, but
        not copied when it is already float64) until the next `Adam.step`
        or `grad` read multiplies it out, so `x` must not change until then.
        """
        logits = self.forward_logits(x, train=True)
        loss, dlogits = softmax_cross_entropy(logits, labels)
        self.backward_from_logits(dlogits)
        return loss


def _rows(x, input_dim: int, dtype) -> np.ndarray:
    """`x` (a WindowTensor, one row or rows of `input_dim` values) as rows
    in `dtype`, without a copy when it is already that."""
    if isinstance(x, WindowTensor):
        x = x.values
    x = np.asarray(x, dtype=dtype)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != input_dim:
        raise ShapeMismatch(f"expected rows of {input_dim} features, got shape {x.shape}")
    return x


def _eval_affine(bn: BatchNormLayer) -> Tuple[np.ndarray, np.ndarray]:
    """(scale, shift) of the batch norm's eval mode, x * scale + shift."""
    scale = bn.gamma.value / np.sqrt(bn.running_var + bn.eps)
    return scale, bn.beta.value - bn.running_mean * scale


def _folded(lin: LinearLayer, bn: BatchNormLayer) -> Tuple[np.ndarray, np.ndarray]:
    """The (W, b) of `lin` followed by `bn` in eval mode."""
    scale, shift = _eval_affine(bn)
    return lin.weight.value * scale[:, None], lin.bias.value * scale + shift


class InferencePlan:
    """A net's eval-mode forward pass, made flat once to answer blinks.

    The stem product is x @ W.T + b, `x` in float32 and W the float32
    rounding of the net's stem weight (the net's own array when it is
    already float32, as `load_net` reads it), so its outputs are those of
    the net's stem layer on that weight, bit for bit. The stem's batch norm
    is a scale and shift of those outputs, and each block's batch norm is
    folded into the linear layer before it (Jacob et al., CVPR 2018); the
    skip projections and the head are the net's own (W, b). After the stem
    everything is float64, through the `mish` and `softmax` training uses.
    Folding rounds otherwise than normalizing, so the answers agree with
    the net's to rounding, not bit for bit. The plan holds no parameter,
    cache or train mode; it cannot train.
    """

    def __init__(self, net: BlinkNet):
        stem = net.stem_lin
        self.stem_lin = LinearLayer(np.asarray(stem.weight.value, np.float32),
                                    stem.bias.value)
        self.input_dim = net.input_dim
        self.stem_scale, self.stem_shift = _eval_affine(net.stem_bn)
        self.blocks = [(_folded(b.lin1, b.bn1), _folded(b.lin2, b.bn2),
                        None if b.skip is None else (b.skip.weight.value, b.skip.bias.value))
                       for b in net.blocks]
        self.head = net.head.weight.value, net.head.bias.value

    def for_inference(self) -> "InferencePlan":
        return self

    def forward(self, x) -> np.ndarray:
        """Row-wise class probabilities of `x` (a window, one row or rows)."""
        x = _rows(x, self.input_dim, np.float32)
        h = x @ self.stem_lin.weight.value.T + self.stem_lin.bias.value
        h = mish(h * self.stem_scale + self.stem_shift)
        for (w1, b1), (w2, b2), skip in self.blocks:
            s = h if skip is None else h @ skip[0].T + skip[1]
            h = mish(mish(h @ w1.T + b1) @ w2.T + b2) + s
        w, b = self.head
        return softmax(h @ w.T + b)


def classify(net: Union[BlinkNet, InferencePlan], tensor) -> Tuple[BlinkLabel, float]:
    """Eval-mode argmax over (Voluntary, Involuntary); ties go to Involuntary."""
    probs = net.forward(tensor)[0]
    if probs[0] > probs[1]:
        return BlinkLabel.VOLUNTARY, float(probs[0])
    return BlinkLabel.INVOLUNTARY, float(probs[1])


# --------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


# Elements per block of adam_step: two float64 scratch blocks of 256 KB
# each stay in L2 while the block's m, v and param are updated.
ADAM_BLOCK = 32768
# Rows of a factored weight gradient that Adam.step multiplies out at a
# time: 6.4 MB of the 50,000-input stem, whose whole gradient is 51 MB.
ADAM_BAND_ROWS = 16


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState,
              lr: float = DEFAULT_LR) -> AdamState:
    """One bias-corrected Adam update of `param`, `state.m` and `state.v`,
    all in place.

    The arrays are walked in blocks of ADAM_BLOCK elements with two scratch
    buffers, so no temporary the size of the parameter is made. Every
    element goes through the same operations in the same order as in the
    whole-array form m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*(g*g);
    param -= lr * (m/c1) / (sqrt(v/c2) + eps), with b1, b2 and eps the
    ADAM_BETA1, ADAM_BETA2 and ADAM_EPS constants, so the result is
    bit-identical to it.
    """
    if not param.shape == grad.shape == state.m.shape == state.v.shape:
        raise ShapeMismatch("gradient or Adam state shape does not match parameter shape")
    state.t += 1
    _adam_blocks(param, grad, state.m, state.v, state.t, lr)
    return state


def _adam_step_banded(param: np.ndarray, dy: np.ndarray, x: np.ndarray,
                      state: AdamState, lr: float) -> None:
    """`adam_step` with the gradient dy.T @ x, multiplied out ADAM_BAND_ROWS
    rows at a time into one band buffer and applied to the same rows of
    `param`, m and v; t advances once.

    A product of two or more rows is bit-identical to the same rows of the
    whole product; a one-row product goes through gemv and is not, so a
    trailing single row joins the band before it.
    """
    if not (param.shape == (dy.shape[1], x.shape[1]) == state.m.shape == state.v.shape
            and dy.shape[0] == x.shape[0]):
        raise ShapeMismatch("gradient factors or Adam state do not match the parameter")
    state.t += 1
    bands = _spans(param.shape[0], ADAM_BAND_ROWS)
    band = np.empty((max(hi - lo for lo, hi in bands), x.shape[1]))
    for lo, hi in bands:
        g = band[:hi - lo]
        np.matmul(dy[:, lo:hi].T, x, out=g)
        _adam_blocks(param[lo:hi], g, state.m[lo:hi], state.v[lo:hi], state.t, lr)


def _adam_blocks(param: np.ndarray, grad: np.ndarray, m: np.ndarray,
                 v: np.ndarray, t: int, lr: float) -> None:
    """The update of `adam_step` at step t, block by block."""
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    # reshape gives views of C-contiguous arrays; any other layout is
    # updated in a flat copy and written back below.
    p, mf, vf = param.reshape(-1), m.reshape(-1), v.reshape(-1)
    g = grad.reshape(-1)
    size = p.shape[0]
    scratch_a = np.empty(min(size, ADAM_BLOCK))
    scratch_b = np.empty_like(scratch_a)
    for lo in range(0, size, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, size)
        pb, mb, vb, gb = p[lo:hi], mf[lo:hi], vf[lo:hi], g[lo:hi]
        a, b = scratch_a[:hi - lo], scratch_b[:hi - lo]
        np.multiply(mb, ADAM_BETA1, out=mb)
        np.multiply(gb, 1.0 - ADAM_BETA1, out=a)
        np.add(mb, a, out=mb)
        np.multiply(vb, ADAM_BETA2, out=vb)
        np.multiply(gb, gb, out=a)
        np.multiply(a, 1.0 - ADAM_BETA2, out=a)
        np.add(vb, a, out=vb)
        np.divide(vb, c2, out=a)
        np.sqrt(a, out=a)
        np.add(a, ADAM_EPS, out=a)
        np.divide(mb, c1, out=b)
        np.multiply(b, lr, out=b)
        np.divide(b, a, out=b)
        np.subtract(pb, b, out=pb)
    for whole, flat in ((param, p), (m, mf), (v, vf)):
        if not np.may_share_memory(whole, flat):
            whole[...] = flat.reshape(whole.shape)


def _spans(n: int, size: int) -> List[Tuple[int, int]]:
    """[lo, hi) runs of `size` that cover range(n), with a trailing run of
    one folded into the run before it."""
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


class Adam:
    def __init__(self, params: Sequence[Param], lr: float = DEFAULT_LR):
        self.params = list(params)
        self.lr = lr
        self.states = [AdamState(np.zeros(p.value.shape), np.zeros(p.value.shape))
                       for p in self.params]

    def step(self) -> None:
        """One update of every parameter. A factored gradient is multiplied
        out band by band from the batch given to the last backward, which
        must be unchanged since; the step then lets go of the factors (and
        so of that batch)."""
        for p, s in zip(self.params, self.states):
            factors = p.take_factors()
            if factors is None:
                adam_step(p.value, p.grad, s, self.lr)
            else:
                _adam_step_banded(p.value, *factors, s, self.lr)


# --------------------------------------------------------------------------
# checkpoints


def _f64_bytes(a: np.ndarray) -> memoryview:
    """The array's little-endian float64 bytes, without a copy when it is
    already C-contiguous native float64."""
    return memoryview(np.ascontiguousarray(a, dtype="<f8")).cast("B")


# Stored values that `_Reader.f32_array` reads at a time: 512 KB of float64.
READ_CHUNK = 65536


class _Reader:
    """Reads a checkpoint's fields in order from a binary file object that
    holds `size` bytes, each array straight into a fresh array. Every read
    checks its length against the bytes left before it allocates."""

    def __init__(self, f: BinaryIO, size: int):
        self.f = f
        self.size = size
        self.pos = 0

    def _claim(self, n: int) -> None:
        if n > self.size - self.pos:
            raise CheckpointFormatError(
                f"truncated checkpoint: wanted {n} bytes at offset {self.pos}, "
                f"have {self.size - self.pos}"
            )

    def _check_read(self, got: int, n: int) -> None:
        if got != n:
            raise CheckpointFormatError(
                f"truncated checkpoint: read {got} of {n} bytes at offset {self.pos}"
            )
        self.pos += n

    def take(self, n: int) -> bytes:
        self._claim(n)
        out = self.f.read(n)
        self._check_read(len(out), n)
        return out

    def f64_array(self, count: int) -> np.ndarray:
        self._claim(8 * count)
        out = np.empty(count, dtype="<f8")
        self._check_read(self.f.readinto(memoryview(out).cast("B")), 8 * count)
        return out.astype(np.float64, copy=False)  # a copy on big-endian hosts only

    def f32_array(self, count: int) -> np.ndarray:
        """`count` stored float64 values rounded to float32, as `astype`
        rounds them, read READ_CHUNK values at a time through one scratch
        buffer: no float64 array of `count` values is made."""
        self._claim(8 * count)
        out = np.empty(count, dtype=np.float32)
        chunk = np.empty(min(count, READ_CHUNK), dtype="<f8")
        try:
            with np.errstate(over="raise"):
                for lo in range(0, count, READ_CHUNK):
                    part = chunk[:min(READ_CHUNK, count - lo)]
                    self._check_read(self.f.readinto(memoryview(part).cast("B")),
                                     part.nbytes)
                    out[lo:lo + part.size] = part
        except FloatingPointError:
            raise CheckpointFormatError(
                f"a weight before offset {self.pos} is beyond float32 range") from None
        return out

    @property
    def exhausted(self) -> bool:
        return self.pos == self.size


@dataclass(frozen=True)
class ModelCheckpoint:
    """A BlinkNet with the epoch and validation loss it was saved at.

    Byte layout (all little-endian):
      header: magic "BNET" (4 bytes), format_version u32, epoch u32,
              validation_loss f64
      then one record per layer in forward order (stem linear, stem batch
      norm, then per block lin1, bn1, lin2, bn2, and the projection linear
      when input and output widths differ, then the head linear):
        linear:     tag u8 = 0x01, out u32, in u32,
                    weights out*in f64 row-major, bias out f64
        batch norm: tag u8 = 0x02, features u32, u32 = 0,
                    gamma, beta, running_mean, running_var (features f64
                    each), momentum f64, eps f64
      Every dimension is at least 1; every running_var entry is finite and
      >= 0, momentum is in [0, 1], and eps is finite and > 0.

    Loading with `load` or `from_bytes`, then saving, is byte-identical:
    they read every array into a fresh float64 one, and the net they build
    from the records wraps those arrays, so it holds the only copy of the
    weights; `build_net` copies that net. `load_net` reads a plan to answer
    blinks from, not a checkpoint.
    """

    epoch: int
    validation_loss: float
    net: BlinkNet
    _STEM_F32 = False  # `_read` takes the stem weight into float32 (load_net)

    @classmethod
    def from_net(cls, net: BlinkNet, epoch: int,
                 validation_loss: float) -> "ModelCheckpoint":
        """A snapshot of `net`: the checkpoint holds a copy of it, which
        stays as it is while `net` trains on."""
        return cls(epoch, float(validation_loss), net.copy())

    def _parts(self) -> Iterator[Union[bytes, memoryview]]:
        """The file's bytes in order: packed headers and views of the arrays."""
        yield struct.pack("<4sIId", CHECKPOINT_MAGIC, CHECKPOINT_FORMAT_VERSION,
                          self.epoch, self.validation_loss)
        for kind, values in _records(self.net):
            if kind == "linear":
                out_dim, in_dim = values[0].shape
                yield struct.pack("<BII", _TAG_LINEAR, out_dim, in_dim)
                yield from map(_f64_bytes, values)
            else:
                yield struct.pack("<BII", _TAG_BATCHNORM, values[0].shape[0], 0)
                yield from map(_f64_bytes, values[:4])
                yield struct.pack("<dd", *values[4:])

    def to_bytes(self) -> bytes:
        return b"".join(self._parts())

    @classmethod
    def from_bytes(cls, data: bytes) -> "ModelCheckpoint":
        """Parse the bytes of `to_bytes` into a net with arrays of its own;
        `data` is not kept."""
        return cls._read(_Reader(io.BytesIO(data), len(data)))

    @classmethod
    def _read(cls, r: _Reader) -> "ModelCheckpoint":
        magic, version, epoch, val_loss = struct.unpack("<4sIId", r.take(20))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointFormatError(f"bad magic {magic!r}")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointFormatError(f"unsupported format version {version}")
        records: List[Record] = []
        while not r.exhausted:
            tag, d0, d1 = struct.unpack("<BII", r.take(9))
            where = f"record {len(records)}"
            if tag == _TAG_LINEAR:
                if d0 == 0 or d1 == 0:
                    raise CheckpointFormatError(f"{where}: linear layer of shape {d0}x{d1}")
                weights = r.f32_array if cls._STEM_F32 and not records else r.f64_array
                records.append(("linear", (weights(d0 * d1).reshape(d0, d1), r.f64_array(d0))))
            elif tag == _TAG_BATCHNORM:
                if d0 == 0:
                    raise CheckpointFormatError(f"{where}: batch norm of 0 features")
                if d1 != 0:
                    raise CheckpointFormatError(
                        f"{where}: batch norm reserved field is {d1}, not 0")
                gamma, beta, mean, var = (r.f64_array(d0) for _ in range(4))
                momentum, eps = struct.unpack("<dd", r.take(16))
                # NaN fails every comparison.
                if not (0.0 <= var.min() and var.max() < math.inf
                        and 0.0 <= momentum <= 1.0 and 0.0 < eps < math.inf):
                    raise CheckpointFormatError(
                        f"{where}: batch norm running variance from {var.min()} to"
                        f" {var.max()}, momentum {momentum}, eps {eps}")
                records.append(("bn", (gamma, beta, mean, var, momentum, eps)))
            else:
                raise CheckpointFormatError(f"unknown layer tag 0x{tag:02x}")
        return cls(epoch, val_loss, BlinkNet.from_records(records))

    def save(self, path) -> None:
        """Write the bytes of `to_bytes` so that `path` is either complete or
        untouched.

        The headers and the arrays' memory go to the file one part at a
        time; the file's bytes are never gathered into one buffer.
        """
        with atomic_path(path) as tmp, open(tmp, "wb") as f:
            for part in self._parts():
                f.write(part)

    @classmethod
    def load(cls, path) -> "ModelCheckpoint":
        """Read the checkpoint at `path`.

        A regular file's arrays are read from the file straight into their
        arrays, so its bytes are never held whole. Anything else, such as a
        pipe, tells its size only at its end, so it is read whole first.
        """
        with open(path, "rb") as f:
            st = os.fstat(f.fileno())
            if stat.S_ISREG(st.st_mode):
                return cls._read(_Reader(f, st.st_size))
            data = f.read()
        return cls.from_bytes(data)

    def build_net(self) -> BlinkNet:
        """A copy of the stored network: it can train or serve while the
        checkpoint stays as it is."""
        return self.net.copy()


class _ServingCheckpoint(ModelCheckpoint):
    """A checkpoint read for answering blinks (`load_net`): its net, with a
    float32 stem weight, only hands its arrays to an `InferencePlan`."""

    _STEM_F32 = True


def load_net(path) -> InferencePlan:
    """The plan that answers blinks from the checkpoint at `path`:
    `ModelCheckpoint.load(path).net.for_inference()` bit for bit, but read
    in one `ModelCheckpoint.load` call that takes the stem weight from the
    file straight into float32, a chunk at a time, and every other array
    into float64. The plan keeps that float32 stem as it is read, so no
    float64 copy of the stem is ever held and the stem is not copied."""
    return _ServingCheckpoint.load(path).net.for_inference()


def _layer_values(layer) -> tuple:
    """A layer's stored values in file order: (weight, bias) of a linear
    layer; (gamma, beta, running_mean, running_var, momentum, eps) of a
    batch norm."""
    if isinstance(layer, LinearLayer):
        return layer.weight.value, layer.bias.value
    return (layer.gamma.value, layer.beta.value, layer.running_mean,
            layer.running_var, layer.momentum, layer.eps)


def _records(net: BlinkNet) -> List[Record]:
    """The net's (kind, values) records in `_layers_in_order`, values laid
    out as `_layer_values`: its own arrays, not copies."""
    return [(kind, _layer_values(layer)) for kind, layer in _layers_in_order(net)]


def _layers_in_order(net: BlinkNet):
    """(kind, layer) pairs in forward/serialization order."""
    yield "linear", net.stem_lin
    yield "bn", net.stem_bn
    for b in net.blocks:
        yield "linear", b.lin1
        yield "bn", b.bn1
        yield "linear", b.lin2
        yield "bn", b.bn2
        if b.skip is not None:
            yield "linear", b.skip
    yield "linear", net.head


# --------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_accuracy: float


def _as_xy(dataset, input_dim: Optional[int] = None
           ) -> Tuple[List[np.ndarray], np.ndarray]:
    """The examples as 1-D arrays in their own dtype (views of float32
    windows, not copies) and the labels as int64, each 0 or 1."""
    xs: List[np.ndarray] = []
    ys: List[int] = []
    for features, label in dataset:
        if isinstance(features, WindowTensor):
            features = features.values
        v = np.asarray(features).reshape(-1)
        if input_dim is None:  # the first example sets the width
            input_dim = v.shape[0]
        elif v.shape[0] != input_dim:
            raise ShapeMismatch(
                f"example has {v.shape[0]} features, expected {input_dim}"
            )
        y = int(label.value if isinstance(label, BlinkLabel) else label)
        if y not in (0, 1):
            raise UnknownLabel(f"example {len(ys)} has label {y}, not 0 (Voluntary)"
                               " or 1 (Involuntary)")
        xs.append(v)
        ys.append(y)
    return xs, np.asarray(ys, dtype=np.int64)


def evaluate_loss(net: BlinkNet, x: np.ndarray,
                  labels: np.ndarray) -> Tuple[float, float]:
    """Eval-mode mean cross-entropy and accuracy (ties count as Involuntary)."""
    logits = net.forward_logits(x, train=False)
    loss, _ = softmax_cross_entropy(logits, labels)
    pred = np.where(logits[:, 0] > logits[:, 1], 0, 1)
    return loss, float((pred == labels).mean())


def train(
    train_set,
    val_set,
    checkpoint_dir,
    epochs: int = DEFAULT_EPOCHS,
    seed: int = 0,
    lr: float = DEFAULT_LR,
    batch_size: int = DEFAULT_BATCH_SIZE,
    stem_width: int = STEM_WIDTH,
    block_dims: Optional[Sequence[Tuple[int, int]]] = None,
    log=None,
) -> Tuple[ModelCheckpoint, List[EpochStats]]:
    """Adam training loop that keeps the best net by validation loss.

    `train_set` / `val_set` are sequences of (features, label) pairs, where
    features is a WindowTensor or flat vector and label a BlinkLabel or int
    (0 = Voluntary). The net is built from `seed`'s generator, which then
    shuffles the batches, so everything is deterministic given `seed`.
    `checkpoint_dir` is made if missing, and `best.bnet` in it, written from
    the net's live arrays at each new best, is the only checkpoint and the
    only copy of the best epoch's net: `train` reads it back after freeing
    Adam's state and returns it.

    The examples are held once, as given: each batch, and the validation
    set once per epoch, is gathered from them into a float64 matrix, which
    goes as soon as its step or its evaluation is done.

    A trailing batch of a single sample is folded into the previous batch,
    since train-mode batch norm cannot normalize a singleton.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")
    if batch_size < 2:  # train-mode batch norm needs two rows
        raise ValueError(f"batch_size must be at least 2, got {batch_size}")
    train_pairs = list(train_set)
    val_pairs = list(val_set)
    if not train_pairs or not val_pairs:
        raise EmptySplit("train and validation sets must both be non-empty")
    x_train, y_train = _as_xy(train_pairs)
    input_dim = x_train[0].shape[0]
    x_val, y_val = _as_xy(val_pairs, input_dim)

    rng = np.random.default_rng(seed)
    net = BlinkNet(input_dim=input_dim, stem_width=stem_width,
                   block_dims=block_dims, rng=rng)
    n = len(x_train)
    if n < 2:
        raise BatchTooSmallForTrainMode(
            "training needs at least 2 examples for batch statistics"
        )

    optimizer = Adam(net.params(), lr=lr)
    os.makedirs(checkpoint_dir, exist_ok=True)
    best_path = os.path.join(checkpoint_dir, "best.bnet")
    best_loss: Optional[float] = None
    history: List[EpochStats] = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        total = 0.0
        for s, e in _spans(n, batch_size):
            idx = order[s:e]
            # Unnamed here, the batch lives in the net until the step lets go of it.
            loss = net.loss_and_gradients(
                np.stack([x_train[i] for i in idx], dtype=np.float64), y_train[idx])
            optimizer.step()
            total += loss * len(idx)
        train_loss = total / n
        val_loss, val_acc = evaluate_loss(
            net, np.stack(x_val, dtype=np.float64), y_val)
        history.append(EpochStats(epoch, train_loss, val_loss, val_acc))
        if best_loss is None or val_loss < best_loss:
            best_loss = val_loss
            ModelCheckpoint(epoch, val_loss, net).save(best_path)
        if log is not None:
            log(f"epoch {epoch}/{epochs} train_loss={train_loss:.6f} "
                f"val_loss={val_loss:.6f} val_acc={val_acc:.4f}")
    del optimizer, net  # Adam's state and the net go before the best is read back
    return ModelCheckpoint.load(best_path), history
