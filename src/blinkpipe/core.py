"""Domain types, units, and validation shared by the whole pipeline.

Conventions used everywhere downstream:

* Timestamps are integer nanoseconds on a monotonic clock. At the nominal
  200 Hz sampling rate consecutive frames are 5 ms apart, which is exact in
  integer nanoseconds (no float drift over long windows).
* A frame carries the 10 tracker features in a fixed canonical order
  (FEATURE_NAMES): left/right pupil diameter (mm), left/right eye openness
  ([0, 1]), left gaze direction x/y/z, right gaze direction x/y/z (unit
  vectors). A `ValidatedFrame` holds them as one tuple in that order, the
  same row the wire message carries and the history buffer stores.
* Feature values are quantized to float32 precision during validation.
  The wire format transports float32, so quantizing at the validation
  boundary makes in-process and over-the-wire processing bit-identical.
  Feature arrays (validated columns, history rows, windows) are stored as
  float32, which holds every validated value exactly; arithmetic on them
  widens to float64 first.
* Invalid tracking frames (valid=False) reuse the last valid feature
  values (forward fill only, never future interpolation).
* `FrameValidator` validates a stream frame by frame; `validate_columns`
  validates a whole recording in one vectorized pass with the same output,
  bit for bit, and the same error at the same first bad frame.
"""
from __future__ import annotations

import contextlib
import enum
import itertools
import math
import os
from array import array
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np


SAMPLE_RATE_HZ = 200
FRAME_INTERVAL_NS = 1_000_000_000 // SAMPLE_RATE_HZ  # 5 ms

DEFAULT_CLOSED_THRESHOLD = 0.7
DEFAULT_HYSTERESIS_BAND = 0.05

FEATURE_NAMES = (
    "left_pupil_mm",
    "right_pupil_mm",
    "left_openness",
    "right_openness",
    "left_dir_x",
    "left_dir_y",
    "left_dir_z",
    "right_dir_x",
    "right_dir_y",
    "right_dir_z",
)
NUM_FEATURES = len(FEATURE_NAMES)

Vec3 = Tuple[float, float, float]

# Timestamps are stored as int64 (history rows, wire frames, numpy columns).
_TS_MIN, _TS_MAX = -2**63, 2**63 - 1

_DIR_NORM_TOL = 1e-3
_DEGENERATE_NORM = 1e-6
# Fallback gaze when nothing valid has been seen yet: straight ahead (+z).
_DEFAULT_DIR: Vec3 = (0.0, 0.0, 1.0)


class BlinkPipeError(Exception):
    """Base class for all typed pipeline errors."""


class DataError(BlinkPipeError):
    """Base class for errors in the data a command is given (a recording, a
    checkpoint, a wire stream, a training set); the CLI exits 3 on them."""


class NonMonotonicTimestamp(DataError):
    """A frame timestamp did not strictly increase within its stream."""


class TimestampOutOfRange(DataError):
    """A frame timestamp does not fit a signed 64-bit integer."""


class DegenerateDirection(DataError):
    """A gaze direction with near-zero norm arrived on a valid frame."""


class NonFiniteFeature(DataError):
    """A frame carries a NaN or infinite feature (after float32 quantization)."""


class NoGazeYet(BlinkPipeError):
    """Effective gaze requested before any valid frame was seen."""


class BlinkKind(enum.Enum):
    BOTH_EYES = "both_eyes"
    LEFT_WINK = "left_wink"
    RIGHT_WINK = "right_wink"


class BlinkLabel(enum.Enum):
    VOLUNTARY = 0
    INVOLUNTARY = 1


@dataclass
class GazeFrame:
    """One raw 200 Hz sample of the 10 tracker features plus timestamp."""

    timestamp_ns: int
    left_pupil_mm: float
    right_pupil_mm: float
    left_openness: float
    right_openness: float
    left_dir: Vec3
    right_dir: Vec3
    valid: bool = True


@dataclass(frozen=True)
class ValidatedFrame:
    """A validated frame: its 10 features as one tuple in FEATURE_NAMES
    order, openness clamped, directions renormalized, every value exactly
    float32-representable. The tuple is the wire message's features and the
    history buffer's row as it is. Immutable and safe to share."""

    timestamp_ns: int
    values: Tuple[float, ...]

    def binocular_dir(self) -> Vec3:
        """Renormalized mean of the two gaze directions."""
        v = self.values
        return _normalize((v[4] + v[7], v[5] + v[8], v[6] + v[9]))


@dataclass(frozen=True)
class HeadPose:
    timestamp_ns: int
    position: Vec3
    forward: Vec3

    def __post_init__(self):
        n = _norm(self.forward)
        if abs(n - 1.0) > _DIR_NORM_TOL:
            raise ValueError(f"head forward vector norm {n:.6f} not within 1e-3 of 1")


@dataclass(frozen=True)
class BlinkEvent:
    """A completed closure interval. `offset_ns` is the timestamp of the
    frame on which the last closed eye reopened."""

    onset_ns: int
    offset_ns: int
    kind: BlinkKind
    min_openness_left: float
    min_openness_right: float

    def __post_init__(self):
        if self.offset_ns <= self.onset_ns:
            raise ValueError("blink offset must be after onset")

    @property
    def duration_ns(self) -> int:
        return self.offset_ns - self.onset_ns


@dataclass(frozen=True)
class CalibrationProfile:
    """Per-eye closure thresholds plus the reopen hysteresis band.

    An eye counts as closed below its threshold and reopens at
    threshold + hysteresis_band. Band 0 reproduces the single-threshold
    baseline behaviour exactly.
    """

    closed_threshold_left: float = DEFAULT_CLOSED_THRESHOLD
    closed_threshold_right: float = DEFAULT_CLOSED_THRESHOLD
    hysteresis_band: float = DEFAULT_HYSTERESIS_BAND

    def __post_init__(self):
        for name in ("closed_threshold_left", "closed_threshold_right"):
            t = getattr(self, name)
            if not 0.0 < t < 1.0:
                raise ValueError(f"{name}={t} outside (0, 1)")
            if t + self.hysteresis_band >= 1.0:
                raise ValueError(f"{name}+band must stay below 1")
        if not 0.0 <= self.hysteresis_band <= 0.3:
            raise ValueError("hysteresis_band outside [0, 0.3]")

    def reopen_threshold_left(self) -> float:
        return self.closed_threshold_left + self.hysteresis_band

    def reopen_threshold_right(self) -> float:
        return self.closed_threshold_right + self.hysteresis_band


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _norm(v: Sequence[float]) -> float:
    return math.sqrt(_dot(v, v))


def _normalize(v: Sequence[float]) -> Vec3:
    n = _norm(v)
    if n < _DEGENERATE_NORM:
        raise DegenerateDirection(f"direction {tuple(v)} has near-zero norm")
    if abs(n - 1.0) <= 1e-6:
        # Already unit within float32 resolution; dividing again would
        # perturb quantized components, breaking validate-twice stability.
        return (v[0], v[1], v[2])
    return (v[0] / n, v[1] / n, v[2] / n)


def _f32(values: Sequence[float]) -> Tuple[float, ...]:
    """Quantize to the wire precision with one C cast per value; each result
    is exactly float32-representable and equals float(np.float32(x)),
    including inf past FLT_MAX, where struct.pack("<f") raises OverflowError."""
    return tuple(array("f", values))


def _check_finite(timestamp_ns: int, features: Sequence[float]) -> None:
    if not all(map(math.isfinite, features)):
        raise NonFiniteFeature(f"frame {timestamp_ns} features {tuple(features)}")


def _check_timestamp(timestamp_ns: int) -> None:
    if not _TS_MIN <= timestamp_ns <= _TS_MAX:
        raise TimestampOutOfRange(f"timestamp {timestamp_ns} outside the int64 range")


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def _frame_dir(v: Sequence[float], frame: GazeFrame) -> Vec3:
    """Unit gaze direction; a degenerate one is an error on a valid frame
    and the neutral fallback on an invalid one."""
    try:
        return _normalize(v)
    except DegenerateDirection:
        if frame.valid:
            raise DegenerateDirection(
                f"zero-norm gaze direction on valid frame at t={frame.timestamp_ns}"
            )
        return _DEFAULT_DIR


class FrameValidator:
    """Stateful per-stream validator.

    Enforces strictly increasing timestamps, clamps openness, renormalizes
    directions, quantizes features to float32 precision, rejects features
    that are not finite at that precision, and forward-fills invalid frames
    from the last valid one.
    """

    def __init__(self):
        self._last_timestamp_ns: Optional[int] = None
        self._last_valid: Optional[Tuple[float, ...]] = None

    def validate(self, frame: GazeFrame) -> ValidatedFrame:
        _check_timestamp(frame.timestamp_ns)
        if self._last_timestamp_ns is not None and frame.timestamp_ns <= self._last_timestamp_ns:
            raise NonMonotonicTimestamp(
                f"timestamp {frame.timestamp_ns} not after {self._last_timestamp_ns}"
            )

        if frame.valid or self._last_valid is None:
            # An invalid frame before anything valid arrived is validated the
            # same way, except that a degenerate direction falls back to a
            # neutral one, so tensors never carry sentinel values.
            left_dir = _frame_dir(frame.left_dir, frame)
            right_dir = _frame_dir(frame.right_dir, frame)
            features = _f32((
                max(frame.left_pupil_mm, 0.0), max(frame.right_pupil_mm, 0.0),
                _clamp01(frame.left_openness), _clamp01(frame.right_openness),
                *left_dir, *right_dir))
            _check_finite(frame.timestamp_ns, features)
            if frame.valid:
                self._last_valid = features
        else:
            # Forward fill: keep the previous valid features, new timestamp.
            features = self._last_valid
        self._last_timestamp_ns = frame.timestamp_ns
        return ValidatedFrame(frame.timestamp_ns, features)


def _unit_columns(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """`_normalize` of every column of a (3, n) array: (unit columns, degenerate mask)."""
    x, y, z = v
    n = np.sqrt(x * x + y * y + z * z)  # _dot's operation order
    return np.where(np.abs(n - 1.0) <= 1e-6, v, v / n), n < _DEGENERATE_NORM


def validated_prefix(frames: Sequence[GazeFrame]) -> Tuple[
        np.ndarray, np.ndarray, Optional[BlinkPipeError]]:
    """`validate_columns` up to the first bad frame.

    Returns (timestamps, features, error): the columns of the frames
    before the first one `FrameValidator` rejects, and the error it raises
    there (None when every frame passes). The offline labeler needs the
    prefix: segmenting it can fail before that frame.
    """
    n = len(frames)
    try:
        ts = np.fromiter((f.timestamp_ns for f in frames), np.int64, n)
    except OverflowError:
        k = next(i for i, f in enumerate(frames) if not _TS_MIN <= f.timestamp_ns <= _TS_MAX)
        ts, features, error = validated_prefix(frames[:k])
        if error is None:
            error = TimestampOutOfRange(
                f"timestamp {frames[k].timestamp_ns} outside the int64 range")
        return ts, features, error
    valid = np.fromiter((f.valid for f in frames), bool, n)
    raw = np.fromiter(
        itertools.chain.from_iterable(
            (f.left_pupil_mm, f.right_pupil_mm, f.left_openness, f.right_openness,
             *f.left_dir, *f.right_dir) for f in frames),
        np.float64, n * NUM_FEATURES).reshape(n, NUM_FEATURES).T.copy()
    # Frames whose own values are kept: valid ones, and invalid ones before
    # the first valid one. Every other frame is forward-filled.
    own = valid | ~np.logical_or.accumulate(valid)
    # NaN, inf and out-of-range values are expected here; the checks below
    # reject them, so numpy must not warn about them.
    with np.errstate(all="ignore"):
        pupils, opens = raw[0:2], raw[2:4]  # one row per feature
        pupils[pupils < 0.0] = 0.0  # max(p, 0.0): NaN and -0.0 pass
        opens[opens < 0.0] = 0.0
        opens[opens > 1.0] = 1.0
        raw[4:7], left_degenerate = _unit_columns(raw[4:7])
        raw[7:10], right_degenerate = _unit_columns(raw[7:10])
        raw[4:7, left_degenerate] = np.array(_DEFAULT_DIR)[:, None]
        raw[7:10, right_degenerate] = np.array(_DEFAULT_DIR)[:, None]
        quantized = raw.astype(np.float32)
    # (frame, rule) of each rule's first failure, rules in FrameValidator's order.
    failures = [(int(bad[0]), rule) for rule, bad in enumerate((
        np.flatnonzero(ts[1:] <= ts[:-1]) + 1,
        np.flatnonzero(valid & left_degenerate),
        np.flatnonzero(valid & right_degenerate),
        np.flatnonzero(own & ~np.isfinite(quantized).all(axis=0)))) if bad.size]
    error = None
    if failures:
        k, rule = min(failures)
        t = int(ts[k])
        if rule == 0:
            error = NonMonotonicTimestamp(f"timestamp {t} not after {int(ts[k - 1])}")
        elif rule < 3:
            error = DegenerateDirection(
                f"zero-norm gaze direction on valid frame at t={t}")
        else:
            error = NonFiniteFeature(
                f"frame {t} features {tuple(quantized[:, k].tolist())}")
        ts, own, quantized = ts[:k], own[:k], quantized[:, :k]
    features = np.ascontiguousarray(quantized.T)
    if not own.all():
        features = features[np.maximum.accumulate(np.where(own, np.arange(len(own)), 0))]
    return ts, features, error


def validate_columns(frames: Sequence[GazeFrame]) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a whole recording in one vectorized pass.

    Returns (timestamps int64[n], features float32[n, 10]), where row i,
    widened to float64, equals `FrameValidator().validate` of frame i within
    the stream, bit for bit: every validated value is float32-exact. Widen
    a column before arithmetic or a comparison with a Python float, which
    numpy would otherwise carry out in float32. On bad input it raises what
    `FrameValidator` raises at the first bad frame.
    """
    ts, features, error = validated_prefix(frames)
    if error is not None:
        raise error
    return ts, features


@contextlib.contextmanager
def atomic_path(path) -> Iterator[str]:
    """Yield a sibling temporary path to write; it replaces `path` when the
    block ends cleanly and is removed on any error, so `path` is never partial."""
    tmp = os.fspath(path) + ".tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
