"""Blink segmentation: hysteresis, glitch suppression, winks, gaze hold."""
from __future__ import annotations

import numpy as np
import pytest

from blinkpipe.core import (
    FRAME_INTERVAL_NS,
    BlinkKind,
    CalibrationProfile,
    DegenerateDirection,
    FrameValidator,
    NoGazeYet,
)
from blinkpipe.segmenter import BlinkSegmenter, EyeState

from conftest import make_frame, openness_frames


def run_segmenter(frames, profile=None):
    seg = BlinkSegmenter(profile)
    validator = FrameValidator()
    states, events = [], []
    for fr in frames:
        state, ev = seg.update(validator.validate(fr))
        states.append(state)
        if ev is not None:
            events.append(ev)
    return states, events


def test_simple_blink_produces_one_event():
    vals = [(1.0, 1.0)] * 3 + [(0.1, 0.1)] * 4 + [(1.0, 1.0)] * 3
    states, events = run_segmenter(openness_frames(vals))
    assert len(events) == 1
    ev = events[0]
    assert ev.kind is BlinkKind.BOTH_EYES
    assert ev.onset_ns == 3 * FRAME_INTERVAL_NS
    assert ev.offset_ns == 7 * FRAME_INTERVAL_NS
    assert ev.min_openness_left == pytest.approx(0.1, abs=1e-6)
    assert states[4].both_closed
    assert states[8].both_open


def test_single_sample_glitch_is_dropped():
    vals = [(1.0, 1.0)] * 3 + [(0.0, 0.0)] + [(1.0, 1.0)] * 3
    _, events = run_segmenter(openness_frames(vals))
    assert events == []


def test_two_sample_closure_is_kept():
    vals = [(1.0, 1.0)] * 3 + [(0.0, 0.0)] * 2 + [(1.0, 1.0)] * 3
    _, events = run_segmenter(openness_frames(vals))
    assert len(events) == 1


def test_hysteresis_band_blocks_reopen_inside_band():
    # Threshold 0.7, band 0.05: 0.72 is open on approach but still closed
    # on the way back up, so the dip below and hover inside the band is one
    # continuous closure.
    vals = [(1.0, 1.0), (0.72, 0.72), (0.5, 0.5), (0.72, 0.72), (0.72, 0.72),
            (0.76, 0.76), (1.0, 1.0)]
    states, events = run_segmenter(openness_frames(vals))
    assert states[1].both_open
    assert states[2].both_closed
    assert states[3].both_closed
    assert states[4].both_closed
    assert states[5].both_open
    assert len(events) == 1
    assert events[0].onset_ns == 2 * FRAME_INTERVAL_NS
    assert events[0].offset_ns == 5 * FRAME_INTERVAL_NS


def test_zero_band_reopens_at_threshold():
    profile = CalibrationProfile(hysteresis_band=0.0)
    vals = [(1.0, 1.0), (0.5, 0.5), (0.5, 0.5), (0.72, 0.72), (1.0, 1.0)]
    states, events = run_segmenter(openness_frames(vals), profile)
    assert states[3].both_open
    assert len(events) == 1


def test_left_wink_kind():
    vals = [(1.0, 1.0)] * 2 + [(0.1, 1.0)] * 5 + [(1.0, 1.0)] * 2
    _, events = run_segmenter(openness_frames(vals))
    assert len(events) == 1
    assert events[0].kind is BlinkKind.LEFT_WINK


def test_right_wink_kind():
    vals = [(1.0, 1.0)] * 2 + [(1.0, 0.1)] * 5 + [(1.0, 1.0)] * 2
    _, events = run_segmenter(openness_frames(vals))
    assert events[0].kind is BlinkKind.RIGHT_WINK


def test_staggered_closure_counts_as_both_eyes():
    # Eyes overlap while closed at frame 4, so this is a blink even though
    # they closed and reopened at different times.
    vals = [(1.0, 1.0), (0.1, 1.0), (0.1, 1.0), (0.1, 0.1), (1.0, 0.1),
            (1.0, 0.1), (1.0, 1.0)]
    _, events = run_segmenter(openness_frames(vals))
    assert len(events) == 1
    assert events[0].kind is BlinkKind.BOTH_EYES
    assert events[0].onset_ns == 1 * FRAME_INTERVAL_NS
    assert events[0].offset_ns == 6 * FRAME_INTERVAL_NS


def test_per_eye_thresholds_respected():
    profile = CalibrationProfile(
        closed_threshold_left=0.4, closed_threshold_right=0.8,
        hysteresis_band=0.05,
    )
    # 0.6 openness: left (thr 0.4) stays open, right (thr 0.8) closes.
    vals = [(1.0, 1.0)] * 2 + [(0.6, 0.6)] * 4 + [(1.0, 1.0)] * 2
    _, events = run_segmenter(openness_frames(vals), profile)
    assert len(events) == 1
    assert events[0].kind is BlinkKind.RIGHT_WINK


def test_gaze_held_at_last_both_open_direction():
    frames = [
        make_frame(0, ldir=(0.0, 0.0, 1.0), rdir=(0.0, 0.0, 1.0)),
        make_frame(FRAME_INTERVAL_NS, lopen=0.1, ropen=0.1,
                   ldir=(1.0, 0.0, 0.0), rdir=(1.0, 0.0, 0.0)),
        make_frame(2 * FRAME_INTERVAL_NS, lopen=0.1, ropen=0.1,
                   ldir=(0.0, 1.0, 0.0), rdir=(0.0, 1.0, 0.0)),
    ]
    seg = BlinkSegmenter()
    validator = FrameValidator()
    for fr in frames:
        seg.update(validator.validate(fr))
    held = seg.effective_gaze()
    assert held == pytest.approx((0.0, 0.0, 1.0), abs=1e-6)


def test_effective_gaze_tracks_when_open():
    seg = BlinkSegmenter()
    validator = FrameValidator()
    seg.update(validator.validate(make_frame(0, ldir=(0.0, 1.0, 0.0), rdir=(0.0, 1.0, 0.0))))
    assert seg.effective_gaze() == pytest.approx((0.0, 1.0, 0.0), abs=1e-6)


def test_effective_gaze_before_any_frame_raises():
    seg = BlinkSegmenter()
    with pytest.raises(NoGazeYet):
        seg.effective_gaze()


def test_eye_state_predicates():
    oo = EyeState(False, False)
    cc = EyeState(True, True)
    co = EyeState(True, False)
    assert oo.both_open and not oo.both_closed and not oo.exactly_one_closed
    assert cc.both_closed and not cc.both_open and not cc.exactly_one_closed
    assert co.exactly_one_closed and not co.both_open and not co.both_closed


def test_long_stream_event_count_matches_dip_count():
    rng = np.random.default_rng(11)
    vals = []
    expected = 0
    for _ in range(60):
        vals += [(1.0, 1.0)] * int(rng.integers(5, 15))
        k = int(rng.integers(1, 8))
        vals += [(0.05, 0.05)] * k
        if k >= 2:
            expected += 1
    vals += [(1.0, 1.0)] * 3
    _, events = run_segmenter(openness_frames(vals))
    assert len(events) == expected
    offs = [e.offset_ns for e in events]
    assert offs == sorted(offs)
    assert all(e.onset_ns < e.offset_ns for e in events)


def test_step_holds_the_closure_rules_update_applies():
    rng = np.random.default_rng(11)
    vals = [(float(rng.choice([0.1, 0.69, 0.72, 0.76, 1.0])),
             float(rng.choice([0.1, 0.69, 0.72, 0.76, 1.0]))) for _ in range(3000)]
    frames = openness_frames(vals)
    _, events = run_segmenter(frames)
    validator, seg = FrameValidator(), BlinkSegmenter()
    stepped = [e for e in (seg.step(f.timestamp_ns, *f.values[2:4])
                           for f in map(validator.validate, frames)) if e is not None]
    assert len(events) > 100
    assert stepped == events
    validator, seg = FrameValidator(), BlinkSegmenter()
    for f in frames[:200]:
        state, _ = seg.update(validator.validate(f))
        assert seg.any_closed == (not state.both_open)


def mask_test_rows(rng, seg, n):
    """n float32 feature rows in closures of random length, with openness on
    and next to both float32 thresholds of each eye, NaN openness, and gaze
    pairs that cancel, nearly cancel or hold NaN or inf."""
    p = seg.profile
    levels = []
    for t in (p.closed_threshold_left, p.closed_threshold_right,
              p.reopen_threshold_left(), p.reopen_threshold_right()):
        t = np.float32(t)
        levels += [t, np.nextafter(t, np.float32(0)), np.nextafter(t, np.float32(1))]
    levels = np.float32(levels + [0.1, 0.5, 0.95, 1.0, np.nan])
    rows = rng.uniform(2, 6, (n, 10)).astype(np.float32)
    closed, left = False, 0
    for i in range(n):
        if left == 0:
            closed, left = rng.random() < 0.3, int(rng.integers(1, 12))
        left -= 1
        for eye in (2, 3):
            if closed or rng.random() < 0.3:
                rows[i, eye] = levels[int(rng.integers(len(levels)))]
            else:
                rows[i, eye] = np.float32(rng.uniform(0.8, 1.0))
    gaze = rng.normal(size=(n, 6)).astype(np.float32)
    cancel = rng.random(n) < 0.05
    gaze[cancel, 3:] = -gaze[cancel, :3]
    tiny = rng.random(n) < 0.02
    gaze[tiny, 3:] = -gaze[tiny, :3] + np.float32(1e-7)
    for bad in (np.nan, np.inf, -np.inf):
        gaze[rng.random(n) < 0.01, int(rng.integers(6))] = bad
    rows[:, 4:] = gaze
    return rows


@pytest.mark.parametrize("profile", [
    None,
    CalibrationProfile(0.55, 0.62, 0.1),
    CalibrationProfile(0.45, 0.8, 0.12),
    CalibrationProfile(0.3, 0.8, 0.0),
])
def test_rows_to_step_marks_every_row_step_frame_would_act_on(profile):
    rng = np.random.default_rng(31)
    seg = BlinkSegmenter(profile)
    rows = mask_test_rows(rng, seg, 6000)
    cut = np.sort(rng.choice(np.arange(1, len(rows)), 150, replace=False))
    starts_closed = skipped = t = 0
    for chunk in np.split(rows, cut):  # each one run, fed on from the last
        mask = seg.rows_to_step(chunk)
        assert np.array_equal(mask, seg.rows_to_step(chunk.astype(np.float64)))
        starts_closed += seg.any_closed
        for row, marked in zip(chunk.tolist(), mask.tolist()):
            before = dict(vars(seg))
            t += FRAME_INTERVAL_NS
            try:
                event = seg.step_frame(t, *row[2:], first=t == FRAME_INTERVAL_NS)
                fails = False
            except DegenerateDirection:
                event, fails = None, True
            acts = event is not None or fails or vars(seg) != before
            # The mask holds exactly the rows that step_frame acts on, plus
            # the rows that leave an eye closed, without a change or with.
            assert marked == (acts or seg.any_closed), row
            skipped += not marked
    assert starts_closed > 10
    assert 0.2 * len(rows) < skipped < 0.8 * len(rows)


def test_rows_to_step_of_no_rows():
    seg = BlinkSegmenter()
    seg.step(0, 0.1, 0.1)
    assert seg.rows_to_step(np.zeros((0, 10), np.float32)).shape == (0,)
