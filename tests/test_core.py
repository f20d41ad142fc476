"""Frame validation, feature layout, and core domain types."""
from __future__ import annotations

import math
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from blinkpipe import core, proto

from blinkpipe.core import (
    FEATURE_NAMES,
    FRAME_INTERVAL_NS,
    NUM_FEATURES,
    SAMPLE_RATE_HZ,
    BlinkEvent,
    BlinkKind,
    BlinkLabel,
    CalibrationProfile,
    DegenerateDirection,
    FrameValidator,
    NonFiniteFeature,
    NonMonotonicTimestamp,
    TimestampOutOfRange,
)

from conftest import make_frame, random_frame_stream


def test_sampling_constants_consistent():
    assert SAMPLE_RATE_HZ * FRAME_INTERVAL_NS == 1_000_000_000
    assert len(FEATURE_NAMES) == NUM_FEATURES == 10


def test_feature_vector_matches_named_order():
    vf = FrameValidator().validate(make_frame(
        0, lopen=0.25, ropen=0.75, ldir=(0.0, 0.0, 2.0), rdir=(0.0, 1.0, 0.0),
        lpupil=3.0, rpupil=5.0,
    ))
    feats = vf.values
    assert len(feats) == NUM_FEATURES
    named = dict(zip(FEATURE_NAMES, feats))
    assert named["left_pupil_mm"] == pytest.approx(3.0)
    assert named["right_pupil_mm"] == pytest.approx(5.0)
    assert named["left_openness"] == pytest.approx(0.25)
    assert named["right_openness"] == pytest.approx(0.75)
    # Directions come back unit length even when supplied scaled.
    assert named["left_dir_z"] == pytest.approx(1.0)
    assert named["right_dir_y"] == pytest.approx(1.0)


def _named(vf):
    return dict(zip(FEATURE_NAMES, vf.values))


def test_every_frame_kind_is_a_timestamp_and_one_feature_tuple():
    # Pre-first-valid, valid and forward-filled frames share one layout.
    validator = FrameValidator()
    frames = [validator.validate(f) for f in (
        make_frame(0, ldir=(0.0, 0.0, 0.0), valid=False),
        make_frame(FRAME_INTERVAL_NS, lopen=0.3, ropen=0.9, ldir=(0.0, 0.6, 0.8),
                   rdir=(0.0, 0.0, 2.0), lpupil=3.5, rpupil=4.5),
        make_frame(2 * FRAME_INTERVAL_NS, lopen=0.0, valid=False),
    )]
    for vf in frames:
        assert type(vf.values) is tuple and len(vf.values) == NUM_FEATURES
    for eye in ("left", "right"):
        x = FEATURE_NAMES.index(f"{eye}_dir_x")
        assert FEATURE_NAMES[x:x + 3] == tuple(f"{eye}_dir_{c}" for c in "xyz")
    # A forward-filled frame is the frame it copies at its own timestamp.
    assert frames[2] == replace(frames[1], timestamp_ns=2 * FRAME_INTERVAL_NS)
    again = FrameValidator().validate(make_frame(
        FRAME_INTERVAL_NS, lopen=0.3, ropen=0.9, ldir=(0.0, 0.6, 0.8),
        rdir=(0.0, 0.0, 2.0), lpupil=3.5, rpupil=4.5))
    assert again == frames[1] and hash(again) == hash(frames[1])


def test_validation_clamps_and_quantizes():
    vf = FrameValidator().validate(make_frame(0, lopen=1.7, ropen=-0.4, lpupil=-1.0))
    named = _named(vf)
    assert named["left_openness"] == 1.0
    assert named["right_openness"] == 0.0
    assert named["left_pupil_mm"] == 0.0
    # Every feature is exactly representable in float32.
    for v in vf.values:
        assert v == float(np.float32(v))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_quantization_matches_numpy_float32_bit_for_bit():
    flt_max = float(np.finfo(np.float32).max)
    tiny_sub = float(np.finfo(np.float32).smallest_subnormal)
    halfway = 3.4028235677973366e38  # rounds up to inf in float32
    edges = [0.0, -0.0, tiny_sub, -tiny_sub, tiny_sub / 2, tiny_sub * 0.75,
             5e-324, -5e-324, float(np.finfo(np.float32).tiny),
             flt_max, -flt_max, halfway, -halfway,
             np.nextafter(halfway, 0.0), -np.nextafter(halfway, 0.0),
             1e39, -1e39, math.inf, -math.inf, math.nan, 1.0 / 3.0, 0.1]
    rng = np.random.default_rng(29)
    patterns = rng.integers(0, 2**64, size=20000, dtype=np.uint64)
    doubles = edges + patterns.view(np.float64).tolist()
    doubles += rng.uniform(-10.0, 10.0, size=20000).tolist()
    got = core._f32(doubles)
    with np.errstate(over="ignore"):
        want = [float(np.float32(x)) for x in doubles]
    mismatches = [(x, g, w) for x, g, w in zip(doubles, got, want)
                  if _bits(g) != _bits(w)]
    assert mismatches == []
    assert got[edges.index(halfway)] == math.inf
    assert got[edges.index(np.nextafter(halfway, 0.0))] == flt_max


def test_validation_quantizes_pupils_past_flt_max_to_inf():
    # A pupil that rounds past FLT_MAX quantizes to inf, which is rejected.
    halfway = 3.4028235677973366e38
    with pytest.raises(NonFiniteFeature):
        FrameValidator().validate(make_frame(0, lpupil=halfway))
    vf = FrameValidator().validate(
        make_frame(0, rpupil=float(np.nextafter(halfway, 0.0))))
    assert _named(vf)["right_pupil_mm"] == float(np.finfo(np.float32).max)


@pytest.mark.parametrize("field,bad", [
    ("left_pupil_mm", math.nan), ("right_pupil_mm", 1e39),
    ("left_pupil_mm", math.inf), ("right_openness", math.nan),
    ("left_dir", (0.0, math.nan, 1.0)), ("right_dir", (math.inf, 0.0, 1.0)),
])
def test_validation_rejects_non_finite_features(field, bad):
    good = make_frame(0)
    for valid in (True, False):  # an invalid first frame keeps its own values
        validator = FrameValidator()
        with pytest.raises(NonFiniteFeature):
            validator.validate(replace(good, valid=valid, **{field: bad}))
        # The rejected frame leaves the stream where it was: a frame at its
        # timestamp still passes.
        validator.validate(good)
        # After a valid frame, an invalid one is forward-filled instead.
        filled = validator.validate(replace(
            good, timestamp_ns=FRAME_INTERVAL_NS, valid=False, **{field: bad}))
        assert filled.values == FrameValidator().validate(good).values


def test_non_finite_feature_is_one_class_offline_and_on_the_wire():
    assert proto.NonFiniteFeature is NonFiniteFeature


def test_validation_renormalizes_directions():
    vf = FrameValidator().validate(make_frame(0, ldir=(3.0, 0.0, 4.0)))
    x, y, z = vf.values[4:7]
    assert (x, y, z) == pytest.approx((0.6, 0.0, 0.8), abs=1e-6)
    assert x * x + y * y + z * z == pytest.approx(1.0, abs=1e-6)


def test_validation_is_idempotent_at_f32():
    rng = np.random.default_rng(3)
    validator = FrameValidator()
    for i in range(100):
        d = tuple(rng.normal(size=3))
        fr = make_frame(
            i * FRAME_INTERVAL_NS,
            lopen=float(rng.uniform(-0.2, 1.2)),
            ropen=float(rng.uniform(0, 1)),
            ldir=d, rdir=d,
            lpupil=float(rng.uniform(2, 8)),
            rpupil=float(rng.uniform(2, 8)),
        )
        once = validator.validate(fr)
        lpupil, rpupil, lopen, ropen = once.values[:4]
        again = FrameValidator().validate(
            make_frame(
                once.timestamp_ns + 1,
                lopen=lopen, ropen=ropen,
                ldir=once.values[4:7], rdir=once.values[7:10],
                lpupil=lpupil, rpupil=rpupil,
            )
        )
        assert again.values == once.values


def test_monotonic_timestamp_enforced():
    v = FrameValidator()
    v.validate(make_frame(1000))
    with pytest.raises(NonMonotonicTimestamp):
        v.validate(make_frame(1000))
    with pytest.raises(NonMonotonicTimestamp):
        v.validate(make_frame(999))
    v.validate(make_frame(1001))


def test_invalid_frames_forward_fill():
    v = FrameValidator()
    first = v.validate(make_frame(0, lopen=0.3, ropen=0.4, lpupil=3.3))
    filled = v.validate(make_frame(5, lopen=0.9, valid=False))
    assert filled.timestamp_ns == 5
    assert filled.values == first.values


def test_invalid_frame_before_any_valid_is_neutralized():
    v = FrameValidator()
    vf = v.validate(make_frame(0, ldir=(0.0, 0.0, 0.0), valid=False))
    norm = sum(c * c for c in vf.values[4:7])
    assert norm == pytest.approx(1.0, abs=1e-6)


def test_zero_direction_on_valid_frame_is_an_error():
    with pytest.raises(DegenerateDirection):
        FrameValidator().validate(make_frame(0, ldir=(0.0, 0.0, 0.0)))


def test_binocular_dir_is_unit_mean():
    vf = FrameValidator().validate(
        make_frame(0, ldir=(1.0, 0.0, 1.0), rdir=(-1.0, 0.0, 1.0)))
    d = vf.binocular_dir()
    assert d == pytest.approx((0.0, 0.0, 1.0), abs=1e-6)


def test_blink_event_duration_and_ordering():
    ev = BlinkEvent(
        onset_ns=1_000_000, offset_ns=101_000_000, kind=BlinkKind.BOTH_EYES,
        min_openness_left=0.1, min_openness_right=0.2,
    )
    assert ev.duration_ns == 100_000_000
    with pytest.raises(ValueError):
        BlinkEvent(
            onset_ns=5, offset_ns=5, kind=BlinkKind.BOTH_EYES,
            min_openness_left=0.0, min_openness_right=0.0,
        )


def test_blink_label_values():
    assert BlinkLabel.VOLUNTARY.value == 0
    assert BlinkLabel.INVOLUNTARY.value == 1


def test_calibration_profile_reopen_thresholds():
    p = CalibrationProfile(
        closed_threshold_left=0.6, closed_threshold_right=0.8,
        hysteresis_band=0.05,
    )
    assert p.reopen_threshold_left() == pytest.approx(0.65)
    assert p.reopen_threshold_right() == pytest.approx(0.85)


def test_calibration_profile_validates_ranges():
    with pytest.raises(ValueError):
        CalibrationProfile(closed_threshold_left=0.0)
    with pytest.raises(ValueError):
        CalibrationProfile(hysteresis_band=-0.01)
    with pytest.raises(ValueError):
        CalibrationProfile(closed_threshold_left=0.98, hysteresis_band=0.05)


# --------------------------------------------------------------------------
# whole-recording validation against FrameValidator

def _validate_one_by_one(frames):
    validator, out = FrameValidator(), []
    for fr in frames:
        try:
            out.append(validator.validate(fr))
        except core.BlinkPipeError as e:
            return out, e
    return out, None


@pytest.mark.parametrize("seed", range(4))
def test_validate_columns_matches_frame_validator_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    errors = set()
    for stream in range(100):
        odd = (0.0, 0.002, 0.02, 0.2)[stream % 4]
        frames = random_frame_stream(rng, int(rng.integers(0, 120)), odd)
        want, want_error = _validate_one_by_one(frames)
        ts, features, error = core.validated_prefix(frames)
        assert (type(error), str(error)) == (type(want_error), str(want_error))
        assert ts.dtype == np.int64 and features.dtype == np.float32
        assert ts.tolist() == [w.timestamp_ns for w in want]
        rows = np.array([w.values for w in want], dtype=np.float64)
        widened = features.astype(np.float64)
        assert widened.tobytes() == rows.reshape(-1, NUM_FEATURES).tobytes()
        if want_error is None:
            got = core.validate_columns(frames)
            assert all(np.array_equal(a, b) for a, b in zip(got, (ts, features)))
        else:
            errors.add(type(want_error).__name__)
            with pytest.raises(type(want_error), match=re.escape(str(want_error))):
                core.validate_columns(frames)
    assert errors == {"NonMonotonicTimestamp", "TimestampOutOfRange",
                      "DegenerateDirection", "NonFiniteFeature"}


def test_validate_columns_matches_at_the_edge_of_the_no_divide_tolerance():
    # Norms within a few ulps of 1 +- 1e-6: summing the squares in another
    # order flips the keep-or-divide choice for about one vector in thirty.
    rng = np.random.default_rng(17)
    d = rng.normal(size=(3000, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    d *= 1.0 + rng.choice([-1e-6, 1e-6], size=(3000, 1)) + rng.uniform(-4e-16, 4e-16, size=(3000, 1))
    frames = [make_frame(i, ldir=tuple(v), rdir=tuple(v[::-1])) for i, v in enumerate(d.tolist())]
    want, _ = _validate_one_by_one(frames)
    _, features = core.validate_columns(frames)
    assert features.dtype == np.float32
    widened = features.astype(np.float64)
    assert widened.tobytes() == np.array([w.values for w in want], np.float64).tobytes()


def test_validate_columns_rejects_timestamps_outside_int64_with_a_typed_error():
    for bad in (2**63, -2**63 - 1):
        frames = [make_frame(-2**63), make_frame(2**63 - 1)]
        for k in (0, 1):
            stream = list(frames)
            stream[k] = make_frame(bad)
            with pytest.raises(TimestampOutOfRange):
                core.validate_columns(stream)
            assert isinstance(_validate_one_by_one(stream)[1], TimestampOutOfRange)
    ts, _ = core.validate_columns(frames)
    assert ts.tolist() == [-2**63, 2**63 - 1]


def test_validate_columns_of_no_frames_is_empty():
    ts, features = core.validate_columns([])
    assert ts.shape == (0,) and features.shape == (0, NUM_FEATURES)
