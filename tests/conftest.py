"""Shared builders for synthetic frames and recordings."""
from __future__ import annotations

import math
import struct
from typing import List, Optional, Sequence, Tuple

import numpy as np

from blinkpipe.core import FRAME_INTERVAL_NS, NUM_FEATURES, GazeFrame
from blinkpipe.dataset import Recording
from blinkpipe.net import (BatchNormLayer, BlinkNet, LinearLayer, ResNetBlock,
                           batch_norm_init, linear_init)


def make_frame(
    ts_ns: int,
    lopen: float = 1.0,
    ropen: float = 1.0,
    ldir: Tuple[float, float, float] = (0.0, 0.0, 1.0),
    rdir: Tuple[float, float, float] = (0.0, 0.0, 1.0),
    lpupil: float = 4.0,
    rpupil: float = 4.0,
    valid: bool = True,
) -> GazeFrame:
    return GazeFrame(
        timestamp_ns=ts_ns,
        left_pupil_mm=lpupil,
        right_pupil_mm=rpupil,
        left_openness=lopen,
        right_openness=ropen,
        left_dir=ldir,
        right_dir=rdir,
        valid=valid,
    )


def openness_frames(
    values: Sequence[Tuple[float, float]],
    start_ns: int = 0,
) -> List[GazeFrame]:
    """One frame per (left, right) openness pair on the 200 Hz grid."""
    return [
        make_frame(start_ns + i * FRAME_INTERVAL_NS, lopen=lo, ropen=ro)
        for i, (lo, ro) in enumerate(values)
    ]


def square_blink_recording(
    blink_starts: Sequence[int],
    closed_frames: int = 20,
    n_frames: Optional[int] = None,
    presses: Sequence[int] = (),
    participant_id: str = "P00",
) -> Recording:
    """Recording with rectangular both-eye closures at the given frame indices.

    Openness drops to 0 for `closed_frames` frames, so each blink's offset
    is exactly the timestamp of the first open frame after the dip.
    """
    if n_frames is None:
        n_frames = max(blink_starts) + closed_frames + 50 if blink_starts else 100
    open_vals = np.ones(n_frames)
    for s in blink_starts:
        open_vals[s:s + closed_frames] = 0.0
    frames = [
        make_frame(i * FRAME_INTERVAL_NS, lopen=float(v), ropen=float(v))
        for i, v in enumerate(open_vals)
    ]
    return Recording(
        participant_id=participant_id,
        frames=frames,
        button_presses=sorted(int(p) for p in presses),
        metadata={"device": "test"},
    )


def square_blink_offset_ns(start_idx: int, closed_frames: int) -> int:
    """Offset timestamp for a rectangular closure starting at start_idx."""
    return (start_idx + closed_frames) * FRAME_INTERVAL_NS


def tiny_net(window_frames: int, seed: int = 0) -> BlinkNet:
    """Small random-weight classifier sized for the given window."""
    return BlinkNet(
        input_dim=window_frames * NUM_FEATURES,
        stem_width=16,
        block_dims=((16, 16), (16, 8)),
        seed=seed,
    )


class _ZeroDraws:
    """Stands in for a generator whose every uniform draw is zeros."""

    def uniform(self, low, high, size):
        return np.zeros(size)


def zero_net(**arch) -> BlinkNet:
    """A BlinkNet of `arch` (BlinkNet's keywords) whose linear weights and
    biases are all zero and whose batch norms are new: it answers
    (0.5, 0.5) to every input."""
    return BlinkNet(rng=_ZeroDraws(), **arch)


def seeded_block(in_dim: int, out_dim: int, rng: np.random.Generator) -> ResNetBlock:
    """A residual block drawn from `rng` as a seeded BlinkNet draws one:
    lin1, lin2, then the projection when the widths differ."""
    lin1 = LinearLayer(*linear_init(in_dim, out_dim, rng))
    lin2 = LinearLayer(*linear_init(out_dim, out_dim, rng))
    skip = None if in_dim == out_dim else LinearLayer(*linear_init(in_dim, out_dim, rng))
    return ResNetBlock(lin1, BatchNormLayer(*batch_norm_init(out_dim)),
                       lin2, BatchNormLayer(*batch_norm_init(out_dim)), skip)


def pack_checkpoint(epoch: int, validation_loss: float, records) -> bytes:
    """Checkpoint bytes packed with `struct` straight from the byte layout
    in ModelCheckpoint's docstring, without its encoder.

    `records` holds ("linear", weight, bias) and ("bn", gamma, beta,
    running_mean, running_var, momentum, eps, reserved) tuples."""
    parts = [struct.pack("<4sIId", b"BNET", 1, epoch, validation_loss)]
    for kind, *values in records:
        if kind == "linear":
            arrays = values
            parts.append(struct.pack("<BII", 0x01, *np.shape(values[0])))
            tail = b""
        else:
            *arrays, momentum, eps, reserved = values
            parts.append(struct.pack("<BII", 0x02, len(arrays[0]), reserved))
            tail = struct.pack("<dd", momentum, eps)
        for a in arrays:
            flat = np.asarray(a, dtype=np.float64).ravel()
            parts.append(struct.pack(f"<{flat.size}d", *flat))
        parts.append(tail)
    return b"".join(parts)


def checkpoint_records(net: BlinkNet) -> list:
    """`pack_checkpoint` records of `net`'s layers in the documented order:
    stem linear and batch norm; per block lin1, bn1, lin2, bn2 and the
    projection, if any; then the head."""
    def linear(layer):
        return ("linear", layer.weight.value, layer.bias.value)

    def bn(layer):
        return ("bn", layer.gamma.value, layer.beta.value, layer.running_mean,
                layer.running_var, layer.momentum, layer.eps, 0)

    records = [linear(net.stem_lin), bn(net.stem_bn)]
    for block in net.blocks:
        records += [linear(block.lin1), bn(block.bn1),
                    linear(block.lin2), bn(block.bn2)]
        if block.skip is not None:
            records.append(linear(block.skip))
    return records + [linear(net.head)]


_BN_FIELDS = ("gamma", "beta", "running_mean", "running_var", "momentum", "eps",
              "reserved")


def checkpoint_with_stem_batch_norm(net: BlinkNet, field: str, value: float) -> bytes:
    """`pack_checkpoint` bytes of `net` with one field of its stem batch
    norm set to `value`: "momentum" or "eps", or the first entry of an
    array field such as "running_var"."""
    records = checkpoint_records(net)
    fields = dict(zip(_BN_FIELDS, records[1][1:]))
    if isinstance(fields[field], np.ndarray):
        value = np.concatenate([[value], fields[field][1:]])
    fields[field] = value
    records[1] = ("bn", *fields.values())
    return pack_checkpoint(1, 0.5, records)


def _linear_record(out_dim: int, in_dim: int):
    return ("linear", np.ones((out_dim, in_dim)), np.zeros(out_dim))


def _bn_record(n: int, reserved: int = 0):
    return ("bn", np.ones(n), np.zeros(n), np.zeros(n), np.ones(n), 0.1, 1e-5,
            reserved)


# Record lists with one defect each; all else about them is well formed, and
# each input width is a whole number of frames.
_MALFORMED = {
    "zero_input_width": [_linear_record(4, 0), _bn_record(4), _linear_record(2, 4)],
    "zero_stem_width": [_linear_record(0, 2 * NUM_FEATURES), _bn_record(0),
                        _linear_record(2, 0)],
    # The block takes 6 features where the stem gives 8.
    "broken_block_chain": [
        _linear_record(8, 2 * NUM_FEATURES), _bn_record(8),
        _linear_record(4, 6), _bn_record(4), _linear_record(4, 4), _bn_record(4),
        _linear_record(4, 6), _linear_record(2, 4)],
    "batch_norm_reserved_field_set": [
        _linear_record(8, 2 * NUM_FEATURES), _bn_record(8, reserved=7),
        _linear_record(2, 8)],
}
MALFORMED_CHECKPOINTS = tuple(_MALFORMED)


def malformed_checkpoint(kind: str) -> bytes:
    """The hand-packed checkpoint with defect `kind`, one of
    MALFORMED_CHECKPOINTS."""
    return pack_checkpoint(1, 0.5, _MALFORMED[kind])


_FLT_MAX = float(np.finfo(np.float32).max)
_ODD_VALUES = (math.nan, math.inf, -math.inf, -0.0, 0.0, 3.5e38, -3.5e38,
               float(np.nextafter(_FLT_MAX, math.inf)), 1e200, 1e-300, 5e-324,
               -1.5, 2.5)


def _odd_direction(rng) -> Tuple[float, float, float]:
    kind = int(rng.integers(6))
    if kind == 0:
        return (0.0, 0.0, 0.0)
    d = rng.normal(size=3)
    if kind == 1:  # unit to within the 1e-6 no-divide tolerance, or just past it
        return tuple((d / np.linalg.norm(d) * (1.0 + rng.uniform(-2e-6, 2e-6))).tolist())
    if kind == 2:  # float32-quantized unit vector, as a re-validated frame holds
        return tuple(np.float32(d / np.linalg.norm(d)).astype(float).tolist())
    if kind == 3:  # near-zero norm
        return tuple((d * 1e-7).tolist())
    d = d.tolist()
    d[int(rng.integers(3))] = _ODD_VALUES[int(rng.integers(len(_ODD_VALUES)))]
    return tuple(d)


def random_frame_stream(rng: np.random.Generator, n: int, odd: float) -> List[GazeFrame]:
    """n frames with blinks, winks and openness near the thresholds.

    Each value is odd with probability `odd`: NaN, +-inf, -0.0, past
    FLT_MAX, zero, near-zero or near-unit directions, gaze pairs that
    cancel, repeated, decreasing or out-of-int64 timestamps. Invalid frames
    come in runs, before and after the first valid one.
    """
    def value(x: float) -> float:
        return _ODD_VALUES[int(rng.integers(len(_ODD_VALUES)))] if rng.random() < odd else x

    def direction() -> Tuple[float, float, float]:
        return _odd_direction(rng) if rng.random() < odd else tuple(rng.normal(size=3).tolist())

    frames: List[GazeFrame] = []
    t = int(rng.integers(-10**12, 10**12))
    valid = bool(rng.random() < 0.5)
    closed = [False, False]
    for _ in range(n):
        r = rng.random()
        if r < odd / 4:
            t -= int(rng.integers(0, 3 * FRAME_INTERVAL_NS))  # repeats or goes back
        elif r < odd / 2:
            t = int(rng.choice([2**63, 2**63 + 5, -2**63 - 1, 2**64]))
        else:
            t += int(rng.integers(1, 3 * FRAME_INTERVAL_NS))
        if rng.random() < 0.1:
            valid = not valid
        if rng.random() < 0.08:  # a closure starts or ends: both eyes, or one
            eyes = [0, 1] if rng.random() < 0.7 else [int(rng.integers(2))]
            for e in eyes:
                closed[e] = not closed[e]
        lopen, ropen = (float(rng.uniform(-0.2, 0.8)) if c else float(rng.uniform(0.55, 1.2))
                        for c in closed)
        ldir, rdir = direction(), direction()
        if rng.random() < odd:
            rdir = tuple(-c for c in ldir)  # binocular sum is zero
        frames.append(make_frame(
            t, lopen=value(lopen), ropen=value(ropen), ldir=ldir, rdir=rdir,
            lpupil=value(float(rng.uniform(-1.0, 8.0))),
            rpupil=value(float(rng.uniform(-1.0, 8.0))),
            valid=valid))
    return frames
