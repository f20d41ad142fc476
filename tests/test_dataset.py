"""Recording I/O, blink labeling, window materialization, and splits."""
from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

from dataclasses import replace

from blinkpipe.core import (
    FRAME_INTERVAL_NS,
    BlinkEvent,
    BlinkKind,
    BlinkLabel,
    BlinkPipeError,
    CalibrationProfile,
    DegenerateDirection,
    FrameValidator,
    NonFiniteFeature,
)
from blinkpipe.dataset import (
    INTENT_MARGIN_NS,
    LabeledBlink,
    Recording,
    RecordingFormatError,
    SplitSpec,
    TooFewParticipants,
    assign_participants,
    dataset_stats,
    label_blinks,
    load_recording,
    materialize_windows,
    save_recording,
    split_by_participant,
)
from blinkpipe.segmenter import BlinkSegmenter
from blinkpipe.window import (
    DEFAULT_LOOKBACK_FRAMES,
    MAX_SHIFT_FRAMES,
    NUM_FEATURES,
    HistoryBuffer,
    NotReady,
)

from conftest import (
    make_frame,
    openness_frames,
    random_frame_stream,
    square_blink_offset_ns,
    square_blink_recording,
)


def random_recording(seed: int, n: int = 40) -> Recording:
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(n):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        frames.append(make_frame(
            i * FRAME_INTERVAL_NS,
            lopen=float(rng.uniform()),
            ropen=float(rng.uniform()),
            ldir=tuple(float(v) for v in d),
            rdir=tuple(float(v) for v in e),
            lpupil=float(rng.uniform(2, 8)),
            rpupil=float(rng.uniform(2, 8)),
            valid=bool(rng.uniform() < 0.9),
        ))
    presses = sorted(int(v) for v in rng.integers(0, n * FRAME_INTERVAL_NS, size=5))
    return Recording("P03", frames, presses, {"device": "bench", "fw": "1.2"})


# --------------------------------------------------------------------------
# file roundtrips


class TestRecordingFiles:
    def test_roundtrip_is_exact(self, tmp_path):
        rec = random_recording(11)
        path = str(tmp_path / "rec.csv")
        save_recording(rec, path)
        back = load_recording(path)
        assert back.participant_id == rec.participant_id
        assert back.metadata == rec.metadata
        assert back.button_presses == rec.button_presses
        assert back.frames == rec.frames

    def test_gzip_roundtrip(self, tmp_path):
        rec = random_recording(12)
        path = str(tmp_path / "rec.csv.gz")
        save_recording(rec, path)
        with open(path, "rb") as f:
            assert f.read(2) == b"\x1f\x8b"
        assert os.path.exists(str(tmp_path / "rec.presses.gz"))
        assert load_recording(path).frames == rec.frames

    def test_sidecar_holds_presses(self, tmp_path):
        rec = random_recording(13)
        path = str(tmp_path / "rec.csv")
        save_recording(rec, path)
        with open(str(tmp_path / "rec.presses")) as f:
            lines = [int(x) for x in f.read().split()]
        assert lines == rec.button_presses

    def test_missing_sidecar_means_no_presses(self, tmp_path):
        rec = random_recording(14)
        path = str(tmp_path / "rec.csv")
        save_recording(rec, path)
        os.remove(str(tmp_path / "rec.presses"))
        assert load_recording(path).button_presses == []

    def test_metadata_with_spaces_rejected_on_save(self, tmp_path):
        rec = random_recording(15)
        rec.metadata["note"] = "two words"
        with pytest.raises(ValueError):
            save_recording(rec, str(tmp_path / "rec.csv"))

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("timestamp,stuff\n")
        with pytest.raises(RecordingFormatError, match="column header"):
            load_recording(str(path))

    def test_wrong_column_count_reports_line(self, tmp_path):
        rec = random_recording(16, n=3)
        path = str(tmp_path / "rec.csv")
        save_recording(rec, path)
        with open(path) as f:
            lines = f.readlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + "\n"
        with open(path, "w") as f:
            f.writelines(lines)
        with pytest.raises(RecordingFormatError, match="line 4"):
            load_recording(path)

    def test_non_numeric_field_reports_line(self, tmp_path):
        rec = random_recording(17, n=3)
        path = str(tmp_path / "rec.csv")
        save_recording(rec, path)
        with open(path) as f:
            lines = f.readlines()
        parts = lines[2].split(",")
        parts[3] = "wide"
        lines[2] = ",".join(parts)
        with open(path, "w") as f:
            f.writelines(lines)
        with pytest.raises(RecordingFormatError, match="line 3"):
            load_recording(path)

    @pytest.mark.parametrize("ts", [2**63, -2**63 - 1])
    def test_timestamp_outside_int64_reports_line(self, tmp_path, ts):
        rec = random_recording(18, n=3)
        rec.frames[2].timestamp_ns = ts
        path = str(tmp_path / "rec.csv")
        save_recording(rec, path)
        with pytest.raises(RecordingFormatError, match="line 5: timestamp"):
            load_recording(path)
        rec.frames[2].timestamp_ns = 2**63 - 1  # the largest int64 loads
        rec.button_presses = [-2**63, ts]
        save_recording(rec, path)
        with pytest.raises(RecordingFormatError, match="presses: line 2: timestamp"):
            load_recording(path)

    def test_non_finite_features_are_rejected_when_validated(self, tmp_path):
        # nan as one frame's left pupil and 1e39 (inf at float32) as the next
        # frame's right pupil: the file parses, but neither may reach a window.
        rec = square_blink_recording([40], n_frames=120)
        rec.frames[60].left_pupil_mm = math.nan
        rec.frames[61].right_pupil_mm = 1e39
        path = str(tmp_path / "rec.csv")
        save_recording(rec, path)
        back = load_recording(path)
        for _ in range(2):
            with pytest.raises(NonFiniteFeature):
                label_blinks(back)
            with pytest.raises(NonFiniteFeature):
                materialize_windows(back, [], window_frames=20)
            back.frames[60].left_pupil_mm = 4.0  # then the 1e39 frame alone

    def test_bad_metadata_token_raises(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("# participant\n")
        with pytest.raises(RecordingFormatError, match="metadata token"):
            load_recording(str(path))

    def test_blank_lines_between_rows_are_skipped(self, tmp_path):
        rec = random_recording(18, n=4)
        path = str(tmp_path / "rec.csv")
        save_recording(rec, path)
        with open(path) as f:
            lines = f.readlines()
        spaced = lines[:2] + [x for row in lines[2:] for x in (row, "\n")]
        with open(path, "w") as f:
            f.writelines(spaced)
        assert load_recording(path).frames == rec.frames

    @pytest.mark.parametrize("name", ["rec.csv", "rec.csv.gz"])
    def test_failed_save_keeps_previous_recording(self, tmp_path, name):
        path = str(tmp_path / name)
        save_recording(random_recording(19), path)
        before = {n: (tmp_path / n).read_bytes() for n in os.listdir(tmp_path)}
        broken = random_recording(20, n=1000)
        broken.frames[500] = None  # the write fails half-way through
        with pytest.raises(AttributeError):
            save_recording(broken, path)
        after = {n: (tmp_path / n).read_bytes() for n in os.listdir(tmp_path)}
        assert after == before

    def test_gzip_header_names_the_target_file(self, tmp_path):
        path = str(tmp_path / "rec.csv.gz")
        save_recording(random_recording(21), path)
        with open(path, "rb") as f:
            head = f.read(64)
        assert head[3] & 0x08  # FNAME flag
        assert head[10:].split(b"\0", 1)[0] == b"rec.csv"

    def test_gzip_save_does_not_depend_on_the_clock(self, tmp_path, monkeypatch):
        rec = random_recording(22)
        saved = []
        for i, now in enumerate((1.0e9, 2.0e9)):
            monkeypatch.setattr(time, "time", lambda now=now: now)
            path = tmp_path / f"run{i}" / "rec.csv.gz"
            path.parent.mkdir()
            save_recording(rec, str(path))
            saved.append((path.read_bytes(),
                          (path.parent / "rec.presses.gz").read_bytes()))
        assert saved[0] == saved[1]


# --------------------------------------------------------------------------
# labeling


class TestLabelBlinks:
    def offset(self) -> int:
        return square_blink_offset_ns(40, 20)

    def labeled_with_press(self, press_ns: int) -> LabeledBlink:
        rec = square_blink_recording([40], presses=[press_ns])
        out = label_blinks(rec)
        assert len(out) == 1
        return out[0]

    def test_press_at_offset_is_voluntary(self):
        lb = self.labeled_with_press(self.offset())
        assert lb.label is BlinkLabel.VOLUNTARY
        assert lb.blink.offset_ns == self.offset()
        assert lb.participant_id == "P00"

    def test_margin_edges_are_inclusive(self):
        for press in (self.offset() - INTENT_MARGIN_NS,
                      self.offset() + INTENT_MARGIN_NS):
            assert self.labeled_with_press(press).label is BlinkLabel.VOLUNTARY

    def test_one_nanosecond_outside_is_involuntary(self):
        for press in (self.offset() - INTENT_MARGIN_NS - 1,
                      self.offset() + INTENT_MARGIN_NS + 1):
            assert self.labeled_with_press(press).label is BlinkLabel.INVOLUNTARY

    def test_no_presses_means_involuntary(self):
        rec = square_blink_recording([40])
        assert label_blinks(rec)[0].label is BlinkLabel.INVOLUNTARY

    def test_winks_are_excluded(self):
        vals = [(1.0, 1.0)] * 5 + [(0.0, 1.0)] * 10 + [(1.0, 1.0)] * 20
        rec = Recording("P00", openness_frames(vals),
                        [10 * FRAME_INTERVAL_NS], {})
        assert label_blinks(rec) == []

    def test_zero_binocular_gaze_fails_where_the_segmenter_reads_it(self):
        # BlinkSegmenter.update reads the binocular gaze on the first frame
        # and on every frame with both eyes open, but not during a closure.
        def labeled(k, blink_start=40, gaze=((0.0, 0.6, 0.8), (0.0, -0.6, -0.8))):
            rec = square_blink_recording([blink_start], closed_frames=20, n_frames=100)
            rec.frames[k].left_dir, rec.frames[k].right_dir = gaze
            return label_blinks(rec)

        assert len(labeled(50)) == 1  # closed
        assert len(labeled(1, blink_start=0)) == 1
        for k, blink_start in ((0, 40), (39, 40), (60, 40), (99, 40), (0, 0)):
            with pytest.raises(DegenerateDirection, match="near-zero norm"):
                labeled(k, blink_start)
        # Pairs that cancel on two axes only are not degenerate.
        for gaze in (((0.0, 0.6, 0.8), (0.0, 0.6, -0.8)), ((0.6, 0.0, 0.8), (0.6, 0.0, -0.8)),
                     ((0.6, 0.0, 0.8), (-0.6, 0.0, 0.8))):
            assert len(labeled(60, gaze=gaze)) == 1

    def test_labels_match_interval_oracle(self):
        rng = np.random.default_rng(21)
        starts, idx = [], 10
        while len(starts) < 120:
            starts.append(idx)
            idx += 22 + int(rng.integers(0, 120))
        rec = square_blink_recording(starts, closed_frames=20,
                                     n_frames=idx + 100)
        presses = []
        for s in starts:
            if rng.uniform() < 0.5:
                jitter = int(rng.integers(-400_000_000, 400_000_001))
                presses.append(square_blink_offset_ns(s, 20) + jitter)
        rec.button_presses = sorted(presses)
        out = label_blinks(rec)
        assert len(out) == len(starts)
        for lb in out:
            expect = any(
                abs(p - lb.blink.offset_ns) <= INTENT_MARGIN_NS
                for p in presses
            )
            assert (lb.label is BlinkLabel.VOLUNTARY) == expect


# --------------------------------------------------------------------------
# window materialization


class TestMaterializeWindows:
    def test_window_attached_at_blink_offset(self):
        rec = square_blink_recording([60], n_frames=200)
        labeled = label_blinks(rec)
        out = materialize_windows(rec, labeled, window_frames=50, lookback=8)
        assert len(out) == 1
        w = out[0].window
        assert w is not None
        assert w.end_timestamp_ns == square_blink_offset_ns(60, 20)
        assert w.values.shape == (50 * NUM_FEATURES,)
        assert out[0].label is labeled[0].label

    def test_blink_during_warmup_is_dropped(self):
        rec = square_blink_recording([5], closed_frames=10, n_frames=100)
        labeled = label_blinks(rec)
        assert len(labeled) == 1
        out = materialize_windows(rec, labeled, window_frames=50, lookback=8)
        assert out == []

    def test_blink_at_stream_end_is_flushed(self):
        rec = square_blink_recording([130], n_frames=152)
        labeled = label_blinks(rec)
        assert len(labeled) == 1
        out = materialize_windows(rec, labeled, window_frames=50, lookback=8)
        assert len(out) == 1
        assert out[0].window.end_timestamp_ns == square_blink_offset_ns(130, 20)

    def test_augment_adds_shifted_copies_sharing_label(self):
        rec = square_blink_recording([60, 120], n_frames=250,
                                     presses=[square_blink_offset_ns(60, 20)])
        labeled = label_blinks(rec)
        rng = np.random.default_rng(5)
        out = materialize_windows(rec, labeled, window_frames=50, lookback=8,
                                  augment_copies=3, rng=rng)
        assert len(out) == 2 * (1 + 3)
        base = out[0]
        interval = FRAME_INTERVAL_NS
        for copy in out[1:4]:
            assert copy.label is base.label
            assert copy.participant_id == base.participant_id
            shift = (copy.window.end_timestamp_ns
                     - base.window.end_timestamp_ns) // interval
            assert -10 <= shift <= 10
            assert copy.window.values.shape == base.window.values.shape
        assert out[4].label is BlinkLabel.INVOLUNTARY
        assert base.label is BlinkLabel.VOLUNTARY

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_bruteforce_slicing(self, seed):
        rng = np.random.default_rng(seed)
        window, n = 40, 300
        frames, t = [], 0
        for i in range(n):
            t += FRAME_INTERVAL_NS
            if rng.random() < 0.08:  # tracker dropout: frames missing
                t += int(rng.integers(1, 60)) * FRAME_INTERVAL_NS
            frames.append(make_frame(
                t, lopen=float(rng.random()), ropen=float(rng.random()),
                lpupil=float(rng.uniform(2, 8)), rpupil=float(rng.uniform(2, 8)),
                valid=bool(i > 3 and rng.random() > 0.15)))
        rec = Recording("P07", frames, [])
        ts = [fr.timestamp_ns for fr in frames]
        offsets = [ts[0] - 1, ts[5], ts[window - 2], ts[window - 1],
                   ts[-1], ts[-2], ts[-1] + 10**9]
        offsets += [int(v) for v in rng.integers(ts[0], ts[-1], size=25)]
        labeled = [
            LabeledBlink(BlinkEvent(off - 10**8, off, BlinkKind.BOTH_EYES, 0.0, 0.0),
                         BlinkLabel(int(rng.integers(0, 2))), None, "P07")
            for off in offsets
        ]
        validator = FrameValidator()
        rows = np.array([validator.validate(fr).values for fr in frames])
        copies = int(seed % 3)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = materialize_windows(rec, labeled, window, augment_copies=copies,
                                  rng=got_rng)
        want = []
        for lb in sorted(labeled, key=lambda lb: lb.blink.offset_ns):
            end = int(np.searchsorted(ts, lb.blink.offset_ns, side="right")) - 1
            if end < window - 1:
                continue  # warm-up: fewer than `window` frames so far
            want.append((lb, end))
            for _ in range(copies):
                draw = int(want_rng.integers(-MAX_SHIFT_FRAMES, MAX_SHIFT_FRAMES + 1))
                want.append((lb, end + min(max(draw, window - 1 - end), n - 1 - end)))
        assert len(got) == len(want)
        for g, (lb, end) in zip(got, want):
            assert g.blink == lb.blink and g.label is lb.label
            assert g.window.end_timestamp_ns == ts[end]
            np.testing.assert_array_equal(g.window.values,
                                          rows[end - window + 1:end + 1].ravel())
        assert got_rng.integers(2**62) == want_rng.integers(2**62)

    def test_shifted_copy_reaches_past_a_dropout(self):
        # Blink offset at frame 69, then one second with no frames. Copies
        # shift within the whole recording, so a +10 draw lands on the 10th
        # frame after the gap (it used to stop at the first).
        rec = square_blink_recording([49], n_frames=100)
        for fr in rec.frames[70:]:
            fr.timestamp_ns += 10**9
        labeled = label_blinks(rec)

        class MaxDraw:
            def integers(self, low, high):
                return high - 1

        out = materialize_windows(rec, labeled, window_frames=50,
                                  augment_copies=1, rng=MaxDraw())
        assert [lb.window.end_timestamp_ns for lb in out] == [
            rec.frames[69].timestamp_ns, rec.frames[79].timestamp_ns]

    def test_burst_after_the_offset_evicts_nothing(self):
        rec = square_blink_recording([40], n_frames=61)
        last = rec.frames[-1].timestamp_ns
        rec.frames += [make_frame(last + k) for k in range(1, 201)]
        out = materialize_windows(rec, label_blinks(rec), window_frames=50)
        assert [lb.window.end_timestamp_ns for lb in out] == [
            square_blink_offset_ns(40, 20)]

    def test_augment_without_rng_raises(self):
        rec = square_blink_recording([60])
        with pytest.raises(ValueError):
            materialize_windows(rec, label_blinks(rec), window_frames=50,
                                lookback=8, augment_copies=1)


class TestColumnarPathMatchesScalarReference:
    """label_blinks and materialize_windows validate, segment and buffer a
    recording as columns; the reference runs the frames one at a time
    through FrameValidator, BlinkSegmenter.update and HistoryBuffer.push."""

    @staticmethod
    def reference_label(rec, profile):
        validator, seg = FrameValidator(), BlinkSegmenter(profile)
        out = []
        for fr in rec.frames:
            _, event = seg.update(validator.validate(fr))
            if event is None or event.kind is not BlinkKind.BOTH_EYES:
                continue
            voluntary = any(abs(p - event.offset_ns) <= INTENT_MARGIN_NS
                            for p in rec.button_presses)
            label = BlinkLabel.VOLUNTARY if voluntary else BlinkLabel.INVOLUNTARY
            out.append(LabeledBlink(event, label, None, rec.participant_id))
        return out

    @staticmethod
    def reference_cut(rec, labeled, window, copies, rng):
        validator = FrameValidator()
        buf = HistoryBuffer(window, max(0, len(rec.frames) - window))
        for fr in rec.frames:
            buf.push(validator.validate(fr))
        out = []
        for lb in sorted(labeled, key=lambda lb: lb.blink.offset_ns):
            try:
                w = buf.snapshot_at_blink_end(lb.blink)
            except NotReady:
                continue
            out.append(replace(lb, window=w))
            out.extend(replace(lb, window=buf.augment_shift(w, rng))
                       for _ in range(copies))
        return out

    @staticmethod
    def outcome(fn, *args):
        try:
            return fn(*args), None
        except BlinkPipeError as e:
            return None, (type(e), str(e))

    @staticmethod
    def keys(blinks):
        return [(lb.blink, lb.label, lb.participant_id, lb.window.end_timestamp_ns,
                 lb.window.window_frames, lb.window.values.tobytes())
                for lb in blinks]

    @pytest.mark.parametrize("seed", range(3))
    def test_random_streams(self, seed):
        rng = np.random.default_rng(100 + seed)
        blinks = errors = 0
        for stream in range(100):
            odd = (0.0, 0.0, 0.001, 0.01)[stream % 4]
            frames = random_frame_stream(rng, int(rng.integers(0, 400)), odd)
            presses = sorted(
                fr.timestamp_ns + int(rng.integers(-2 * INTENT_MARGIN_NS, 2 * INTENT_MARGIN_NS))
                for fr in frames if rng.random() < 0.02 and abs(fr.timestamp_ns) < 2**62)
            rec = Recording(f"P{stream:02d}", frames, presses)
            closed = float(rng.uniform(0.3, 0.8))
            profile = CalibrationProfile(closed, float(rng.uniform(0.3, 0.8)),
                                         float(rng.uniform(0.0, 0.15)))
            got, got_error = self.outcome(label_blinks, rec, profile)
            want, want_error = self.outcome(self.reference_label, rec, profile)
            assert got_error == want_error
            errors += want_error is not None
            if want_error is None:
                assert got == want
                blinks += len(want)
            labeled = want or []
            window, copies = int(rng.integers(1, 60)), int(rng.integers(0, 3))
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got, got_error = self.outcome(materialize_windows, rec, labeled, window,
                                          DEFAULT_LOOKBACK_FRAMES, copies, got_rng)
            want, want_error = self.outcome(self.reference_cut, rec, labeled, window,
                                            copies, want_rng)
            assert got_error == want_error
            if want_error is None:
                assert self.keys(got) == self.keys(want)
            assert got_rng.integers(2**62) == want_rng.integers(2**62)
        assert blinks > 100 and 10 < errors < 90

    def test_labeling_steps_only_the_closures(self, monkeypatch):
        steps = [0]
        step = BlinkSegmenter.step

        def counting(seg, *args):
            steps[0] += 1
            return step(seg, *args)

        rec = square_blink_recording([40, 120, 200], closed_frames=20, n_frames=300)
        want = self.reference_label(rec, None)
        monkeypatch.setattr(BlinkSegmenter, "step", counting)
        assert label_blinks(rec) == want and len(want) == 3
        assert steps[0] == 3 * (20 + 1)  # each closed frame and its reopen frame

    @pytest.mark.parametrize("k, blink_start, fails", [
        (80, 40, True),   # both eyes open
        (0, 0, True),     # the first frame, eyes shut
        (1, 0, False),    # eyes shut
    ])
    def test_zero_gaze_outcome_matches_the_reference(self, k, blink_start, fails):
        rec = square_blink_recording([blink_start], closed_frames=20, n_frames=100)
        rec.frames[k].left_dir, rec.frames[k].right_dir = (0.0, 0.6, 0.8), (0.0, -0.6, -0.8)
        got = self.outcome(label_blinks, rec, None)
        want = self.outcome(self.reference_label, rec, None)
        assert got == want
        assert (want[1] is not None and want[1][0] is DegenerateDirection) == fails


# --------------------------------------------------------------------------
# splits


class TestSplits:
    def test_ratio_split_sizes_and_disjointness(self):
        pids = [f"P{i:02d}" for i in range(10)]
        spec = assign_participants(pids, SplitSpec(), seed=3)
        assert len(spec.val) == 1 and len(spec.test) == 1
        assert len(spec.train) == 8
        assert spec.train | spec.val | spec.test == set(pids)
        assert not (spec.train & spec.val or spec.train & spec.test
                    or spec.val & spec.test)

    def test_split_deterministic_per_seed(self):
        pids = [f"P{i:02d}" for i in range(12)]
        a = assign_participants(pids, SplitSpec(), seed=7)
        b = assign_participants(pids, SplitSpec(), seed=7)
        assert (a.train, a.val, a.test) == (b.train, b.val, b.test)
        different = any(
            assign_participants(pids, SplitSpec(), seed=s).val != a.val
            for s in range(8)
        )
        assert different

    def test_input_order_does_not_matter(self):
        pids = [f"P{i:02d}" for i in range(9)]
        a = assign_participants(pids, SplitSpec(), seed=1)
        b = assign_participants(list(reversed(pids)) + pids, SplitSpec(), seed=1)
        assert (a.train, a.val, a.test) == (b.train, b.val, b.test)

    def test_tiny_pools_still_get_one_each(self):
        spec = assign_participants(["A", "B", "C"], SplitSpec(), seed=0)
        assert len(spec.train) == 1 and len(spec.val) == 1 and len(spec.test) == 1

    def test_too_few_participants(self):
        with pytest.raises(TooFewParticipants):
            assign_participants(["A", "B"], SplitSpec(), seed=0)

    def test_explicit_split_passthrough(self):
        spec = SplitSpec(train=frozenset({"A", "B"}), val=frozenset({"C"}),
                         test=frozenset({"D"}))
        got = assign_participants(["A", "B", "C", "D"], spec)
        assert got is spec

    def test_explicit_split_must_cover_exactly(self):
        spec = SplitSpec(train=frozenset({"A"}), val=frozenset({"B"}),
                         test=frozenset({"C"}))
        with pytest.raises(ValueError, match="covers"):
            assign_participants(["A", "B", "C", "D"], spec)

    def test_overlapping_explicit_sets_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            SplitSpec(train=frozenset({"A", "B"}), val=frozenset({"B"}),
                      test=frozenset({"C"}))

    def test_partial_explicit_sets_rejected(self):
        with pytest.raises(ValueError, match="all"):
            SplitSpec(train=frozenset({"A"}))

    def test_ratio_split_scales_with_the_pool(self):
        for n, held_out in ((20, 2), (30, 3)):
            pids = [f"P{i:02d}" for i in range(n)]
            spec = assign_participants(pids, SplitSpec(), seed=0)
            assert len(spec.val) == len(spec.test) == held_out
            assert len(spec.train) == n - 2 * held_out

    def test_split_by_participant_routes_every_blink(self):
        recs = [
            square_blink_recording([40, 100], n_frames=200,
                                   participant_id=f"P{i:02d}")
            for i in range(5)
        ]
        spec, train, val, test = split_by_participant(recs, seed=2,
                                                      window_frames=30)
        buckets = [train, val, test]
        assert sum(len(b) for b in buckets) == 10
        owners = [frozenset(lb.participant_id for lb in b) for b in buckets]
        assert not (owners[0] & owners[1] or owners[0] & owners[2]
                    or owners[1] & owners[2])
        assert owners[0] | owners[1] | owners[2] == {
            f"P{i:02d}" for i in range(5)
        }
        assert owners == [spec.train, spec.val, spec.test]
        assert all(lb.window.window_frames == 30 for b in buckets for lb in b)
        _, aug_train, aug_val, aug_test = split_by_participant(
            recs, seed=2, window_frames=30, augment_copies=2)

        def keys(blinks):
            return [(lb.blink, lb.label, lb.participant_id,
                     lb.window.end_timestamp_ns, lb.window.values.tobytes())
                    for lb in blinks]

        assert len(aug_train) == 3 * len(train)
        assert keys(aug_train[::3]) == keys(train)  # each window, then 2 copies
        assert [lb.blink for lb in aug_train] == [
            lb.blink for lb in train for _ in range(3)]
        assert (keys(aug_val), keys(aug_test)) == (keys(val), keys(test))


# --------------------------------------------------------------------------
# statistics


class TestDatasetStats:
    def blink(self, onset_ms: float, dur_ms: float) -> BlinkEvent:
        return BlinkEvent(int(onset_ms * 1e6), int((onset_ms + dur_ms) * 1e6),
                          BlinkKind.BOTH_EYES, 0.0, 0.0)

    def test_hand_computed_stats(self):
        blinks = [
            LabeledBlink(self.blink(0, 100), BlinkLabel.VOLUNTARY),
            LabeledBlink(self.blink(4000, 120), BlinkLabel.INVOLUNTARY),
            LabeledBlink(self.blink(7880, 140), BlinkLabel.VOLUNTARY),
        ]
        st = dataset_stats(blinks)
        assert st.n == 3
        assert st.n_voluntary == 2 and st.n_involuntary == 1
        assert st.voluntary_fraction == pytest.approx(2 / 3, rel=1e-12)
        span_s = (7880 + 140) / 1000
        assert st.blinks_per_minute == pytest.approx(180 / span_s, rel=1e-12)
        assert st.mean_interval_s == pytest.approx(span_s / 2, rel=1e-12)
        assert st.mean_duration_ms == pytest.approx(120.0, rel=1e-12)

    def test_order_does_not_matter(self):
        blinks = [
            LabeledBlink(self.blink(5000, 100), BlinkLabel.INVOLUNTARY),
            LabeledBlink(self.blink(0, 100), BlinkLabel.VOLUNTARY),
        ]
        assert dataset_stats(blinks) == dataset_stats(list(reversed(blinks)))

    def test_empty_input(self):
        st = dataset_stats([])
        assert st.n == 0
        assert st.blinks_per_minute == 0.0
        assert st.mean_duration_ms == 0.0

    def test_single_blink(self):
        st = dataset_stats([LabeledBlink(self.blink(0, 100),
                                         BlinkLabel.VOLUNTARY)])
        assert st.n == 1
        assert st.mean_interval_s == 0.0
        assert st.mean_duration_ms == pytest.approx(100.0)
