"""History buffer, window cuts, and shift augmentation."""
from __future__ import annotations

import numpy as np
import pytest

from blinkpipe.core import (
    FRAME_INTERVAL_NS,
    NUM_FEATURES,
    BlinkEvent,
    BlinkKind,
    FrameValidator,
    NonMonotonicTimestamp,
)
from blinkpipe.window import (
    MAX_SHIFT_FRAMES,
    HistoryBuffer,
    NotReady,
    WindowTensor,
)

from conftest import make_frame


def frame_at(i: int, seed_val: float = 0.0):
    # Distinct openness per frame makes window contents traceable.
    lo = float(np.float32(((i * 13 + 7) % 97) / 97.0))
    return FrameValidator().validate(make_frame(i * FRAME_INTERVAL_NS, lopen=lo,
                                                ropen=1.0 - lo / 2))


def rows_of(w: WindowTensor) -> np.ndarray:
    return w.values.reshape(w.window_frames, NUM_FEATURES)


def blink_ending_at(ts_ns: int) -> BlinkEvent:
    return BlinkEvent(
        onset_ns=max(0, ts_ns - 20 * FRAME_INTERVAL_NS), offset_ns=ts_ns,
        kind=BlinkKind.BOTH_EYES, min_openness_left=0.0, min_openness_right=0.0,
    )


def test_window_matches_bruteforce_tail():
    cap, look = 50, 8
    buf = HistoryBuffer(cap, look)
    shadow = []  # plain list oracle
    for i in range(137):
        vf = frame_at(i)
        buf.push(vf)
        shadow.append(vf)
        if i + 1 >= cap:
            w = buf.snapshot_at_blink_end(blink_ending_at(vf.timestamp_ns))
            expect = np.array([f.values for f in shadow[-cap:]])
            np.testing.assert_array_equal(rows_of(w), expect)
            assert w.end_timestamp_ns == vf.timestamp_ns
            assert w.values.shape == (cap * NUM_FEATURES,)


def test_warmup_raises_not_ready():
    buf = HistoryBuffer(10, 4)
    for i in range(9):
        buf.push(frame_at(i))
    with pytest.raises(NotReady):
        buf.snapshot_at_blink_end(blink_ending_at(8 * FRAME_INTERVAL_NS))
    buf.push(frame_at(9))
    w = buf.snapshot_at_blink_end(blink_ending_at(9 * FRAME_INTERVAL_NS))
    assert w.window_frames == 10


def test_snapshot_uses_newest_frame_at_or_before_offset():
    buf = HistoryBuffer(10, 4)
    for i in range(20):
        buf.push(frame_at(i))
    # Offset falls between frames 16 and 17: the window ends at frame 16,
    # which is still within the lookback retention margin.
    off = 16 * FRAME_INTERVAL_NS + 2_000_000
    w = buf.snapshot_at_blink_end(blink_ending_at(off))
    assert w.end_timestamp_ns == 16 * FRAME_INTERVAL_NS


def test_snapshot_too_old_is_not_ready():
    buf = HistoryBuffer(10, 2)
    for i in range(40):
        buf.push(frame_at(i))
    # Frame 5 left the retention range (capacity + lookback) long ago.
    with pytest.raises(NotReady):
        buf.snapshot_at_blink_end(blink_ending_at(5 * FRAME_INTERVAL_NS))


def test_monotonicity_enforced():
    buf = HistoryBuffer(10, 2)
    buf.push(frame_at(3))
    with pytest.raises(NonMonotonicTimestamp):
        buf.push(frame_at(3))
    with pytest.raises(NonMonotonicTimestamp):
        buf.push(frame_at(1))


def test_augment_shift_stays_in_bounds_and_hits_both_signs():
    cap, look = 40, 32
    buf = HistoryBuffer(cap, look)
    frames = [frame_at(i) for i in range(120)]
    for vf in frames:
        buf.push(vf)
    base = buf.snapshot_at_blink_end(blink_ending_at(100 * FRAME_INTERVAL_NS))
    rng = np.random.default_rng(0)
    shifts = set()
    for _ in range(300):
        shifted = buf.augment_shift(base, rng)
        k = (shifted.end_timestamp_ns - base.end_timestamp_ns) // FRAME_INTERVAL_NS
        shifts.add(int(k))
        assert abs(k) <= MAX_SHIFT_FRAMES
        end_idx = 100 + int(k)
        expect = np.array(
            [f.values for f in frames[end_idx - cap + 1:end_idx + 1]]
        )
        np.testing.assert_array_equal(rows_of(shifted), expect)
    assert min(shifts) < 0 < max(shifts)
    assert max(shifts) == MAX_SHIFT_FRAMES
    assert min(shifts) == -MAX_SHIFT_FRAMES


def test_augment_shift_clips_at_stream_end():
    cap = 30
    buf = HistoryBuffer(cap, 32)
    for i in range(cap):
        buf.push(frame_at(i))
    base = buf.snapshot_at_blink_end(blink_ending_at((cap - 1) * FRAME_INTERVAL_NS))
    rng = np.random.default_rng(1)
    for _ in range(100):
        shifted = buf.augment_shift(base, rng)
        # Nothing newer exists and nothing older is retained: no shift fits.
        assert shifted.end_timestamp_ns == base.end_timestamp_ns
        np.testing.assert_array_equal(shifted.values, base.values)


def test_window_tensor_shape_checks():
    with pytest.raises(ValueError):
        WindowTensor(values=np.zeros(25), end_timestamp_ns=0)
    w = WindowTensor(values=np.zeros(5 * NUM_FEATURES), end_timestamp_ns=0)
    assert w.window_frames == 5


def test_buffer_keeps_capacity_plus_lookback_frames():
    buf = HistoryBuffer(10, 2)
    for i in range(25):
        buf.push(frame_at(i))
    # Frames 13..24 are kept: windows end at frames 22..24, not before.
    for end in (22, 23, 24):
        buf.snapshot_at_blink_end(blink_ending_at(end * FRAME_INTERVAL_NS))
    with pytest.raises(NotReady):
        buf.snapshot_at_blink_end(blink_ending_at(21 * FRAME_INTERVAL_NS))


@pytest.mark.parametrize("cap,look", [(1, 0), (7, 0), (7, 3), (16, 0), (16, 25)])
def test_ring_reads_match_list_oracle(cap, look):
    data_rng = np.random.default_rng(cap * 100 + look)
    buf = HistoryBuffer(cap, look)
    ring = cap + look
    frames, ts = [], []
    t = int(data_rng.integers(0, 10**6))
    for _ in range(5 * ring + 3):  # several wraps of the ring
        # Mostly 200 Hz steps, with occasional multi-second gaps.
        t += int(data_rng.integers(1, 3)) * FRAME_INTERVAL_NS
        if data_rng.random() < 0.1:
            t += int(data_rng.integers(1, 10**10))
        vf = FrameValidator().validate(make_frame(
            t, lopen=float(data_rng.random()), ropen=float(data_rng.random()),
            lpupil=float(data_rng.uniform(2, 8))))
        buf.push(vf)
        frames.append(vf)
        ts.append(t)
        count = len(frames)
        oldest = max(0, count - ring)

        def oracle_end(q):
            ends = [i for i in range(oldest, count) if ts[i] <= q]
            return ends[-1] if ends else None

        def oracle_window(end):
            if end is None or end - cap + 1 < oldest:
                return None
            return np.array([f.values for f in frames[end - cap + 1:end + 1]])

        queries = {ts[0] - 1, ts[oldest] - 1, ts[oldest], ts[-1], ts[-1] + 1,
                   ts[-1] + 10**12}
        for i in range(oldest, count - 1):
            queries.add((ts[i] + ts[i + 1]) // 2)  # between frames, gaps too
        for q in sorted(queries):
            want = oracle_window(oracle_end(q))
            if want is None:
                with pytest.raises(NotReady):
                    buf.snapshot_at_blink_end(blink_ending_at(q))
                continue
            w = buf.snapshot_at_blink_end(blink_ending_at(q))
            np.testing.assert_array_equal(rows_of(w), want)
            assert w.end_timestamp_ns == ts[oracle_end(q)]
            # Same seed on both sides: the buffer and the oracle draw the
            # same shift before clipping it.
            got_rng, want_rng = (np.random.default_rng(q % 997) for _ in range(2))
            for _ in range(3):
                shifted = buf.augment_shift(w, got_rng)
                end = oracle_end(w.end_timestamp_ns)
                shift = int(want_rng.integers(-MAX_SHIFT_FRAMES,
                                              MAX_SHIFT_FRAMES + 1))
                shift = max(oldest + cap - 1 - end, min(count - 1 - end, shift))
                np.testing.assert_array_equal(rows_of(shifted),
                                              oracle_window(end + shift))
                assert shifted.end_timestamp_ns == ts[end + shift]


def test_window_survives_later_compactions():
    # The store moves its retained rows to the front every `capacity`
    # pushes; a window must be a copy, not a view that those moves rewrite.
    cap, look = 12, 5
    buf = HistoryBuffer(cap, look)
    for i in range(cap):
        buf.push(frame_at(i))
    w = buf.snapshot_at_blink_end(blink_ending_at((cap - 1) * FRAME_INTERVAL_NS))
    shifted = buf.augment_shift(w, np.random.default_rng(3))
    want, want_shifted = w.values.copy(), shifted.values.copy()
    for i in range(cap, cap + 2 * (cap + look) + 1):
        buf.push(frame_at(i + 1000))
    np.testing.assert_array_equal(w.values, want)
    np.testing.assert_array_equal(shifted.values, want_shifted)


def test_readiness_and_monotonicity_across_compaction():
    cap, look = 6, 2
    buf = HistoryBuffer(cap, look)
    for i in range(3 * (2 * cap + look)):  # several compactions
        buf.push(frame_at(i))
        if i + 1 >= cap:  # a whole window ends at the newest frame
            buf.snapshot_at_blink_end(blink_ending_at(i * FRAME_INTERVAL_NS))
        elif i:
            with pytest.raises(NotReady):
                buf.snapshot_at_blink_end(blink_ending_at(i * FRAME_INTERVAL_NS))
        with pytest.raises(NonMonotonicTimestamp):
            buf.push(frame_at(i))
        with pytest.raises(NonMonotonicTimestamp):
            buf.push(frame_at(i - 1))
    # A rejected push changes nothing: the newest window is still intact.
    w = buf.snapshot_at_blink_end(blink_ending_at(i * FRAME_INTERVAL_NS))
    want = np.array([frame_at(k).values for k in range(i - cap + 1, i + 1)])
    np.testing.assert_array_equal(rows_of(w), want)


def test_from_columns_is_pushing_every_row():
    frames = [frame_at(i) for i in range(130)]
    ts = np.array([f.timestamp_ns for f in frames], dtype=np.int64)
    rows = np.array([f.values for f in frames])
    for cap in (1, 50, 130, 200):
        pushed = HistoryBuffer(cap, max(0, len(frames) - cap))
        for f in frames:
            pushed.push(f)
        built = HistoryBuffer.from_columns(ts, rows, cap)

        def assert_same_cuts(ends):
            for end in ends:
                blink = blink_ending_at(end * FRAME_INTERVAL_NS)
                try:
                    want = pushed.snapshot_at_blink_end(blink)
                except NotReady:
                    with pytest.raises(NotReady):
                        built.snapshot_at_blink_end(blink)
                    continue
                got = built.snapshot_at_blink_end(blink)
                assert got.end_timestamp_ns == want.end_timestamp_ns
                assert got.values.tobytes() == want.values.tobytes()

        assert_same_cuts((1, 48, 49, 50, 129, 10**6))
        # Later frames append after the last row, as they would after pushes.
        pushed.push(frame_at(130))
        built.push(frame_at(130))
        assert_same_cuts((129, 130))
        with pytest.raises(NonMonotonicTimestamp):
            built.push(frame_at(130))


def test_from_columns_rejects_what_push_rejects():
    ts = np.array([0, 5, 5], dtype=np.int64)
    with pytest.raises(NonMonotonicTimestamp, match="timestamp 5 not after 5"):
        HistoryBuffer.from_columns(ts, np.zeros((3, NUM_FEATURES)), 2)
    with pytest.raises(ValueError, match="shape"):
        HistoryBuffer.from_columns(ts[:2], np.zeros((2, NUM_FEATURES - 1)), 2)


def test_extend_in_any_chunks_is_pushing_every_row():
    frames = [frame_at(i) for i in range(300)]
    # The server extends from wire columns: u64 timestamps, f32 features.
    ts = np.array([f.timestamp_ns for f in frames], dtype=np.uint64)
    rows = np.array([f.values for f in frames], dtype=np.float32)
    rng = np.random.default_rng(9)
    for cap, look in ((1, 0), (7, 0), (7, 3), (40, 0), (40, 25)):
        pushed, extended = HistoryBuffer(cap, look), HistoryBuffer(cap, look)
        start = 0
        while start < len(frames):
            # chunks from empty to longer than the whole store
            hi = int(rng.choice([cap + 1, 3 * (cap + look) + 2]))
            stop = min(len(frames), start + int(rng.integers(0, hi)))
            for f in frames[start:stop]:
                pushed.push(f)
            extended.extend(ts[start:stop], rows[start:stop])
            start = stop
            assert extended.newest_timestamp_ns == pushed.newest_timestamp_ns
            for end in range(max(1, stop - cap - look - 2), stop + 1):
                blink = blink_ending_at(end * FRAME_INTERVAL_NS)
                try:
                    want = pushed.snapshot_at_blink_end(blink)
                except NotReady:
                    with pytest.raises(NotReady):
                        extended.snapshot_at_blink_end(blink)
                    continue
                got = extended.snapshot_at_blink_end(blink)
                assert got.end_timestamp_ns == want.end_timestamp_ns
                assert got.values.tobytes() == want.values.tobytes()
    assert HistoryBuffer(3).newest_timestamp_ns is None
