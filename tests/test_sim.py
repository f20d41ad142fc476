"""Synthetic session generator: determinism, rates, shapes, and replay."""
from __future__ import annotations

import os
import time

import numpy as np
import pytest

from blinkpipe.core import (
    FRAME_INTERVAL_NS,
    SAMPLE_RATE_HZ,
    BlinkKind,
    BlinkLabel,
)
from blinkpipe.dataset import INTENT_MARGIN_NS, label_blinks, save_recording
from blinkpipe.sim import (
    PRESS_JITTER_MS,
    STYLE_EXTENDED_HOLD,
    STYLE_FIRM_BRIEF,
    STYLE_SPONTANEOUS,
    STYLE_WINK_LEFT,
    STYLE_WINK_RIGHT,
    GroundTruthLedger,
    LedgerEntry,
    SimConfig,
    generate_session,
    load_ledger,
    replay,
    save_ledger,
)


class TestDeterminism:
    def test_same_config_is_byte_identical(self, tmp_path):
        cfg = SimConfig(seed=11, duration_s=45.0)
        rec_a, led_a = generate_session(cfg)
        rec_b, led_b = generate_session(cfg)
        assert rec_a.frames == rec_b.frames
        assert rec_a.button_presses == rec_b.button_presses
        assert led_a == led_b
        pa, pb = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        save_recording(rec_a, pa)
        save_recording(rec_b, pb)
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()

    def test_different_seeds_differ(self):
        rec_a, _ = generate_session(SimConfig(seed=1, duration_s=20.0))
        rec_b, _ = generate_session(SimConfig(seed=2, duration_s=20.0))
        assert rec_a.frames != rec_b.frames


class TestSignalShape:
    def session(self):
        return generate_session(SimConfig(seed=3, duration_s=60.0))

    def test_frame_grid_and_count(self):
        rec, _ = self.session()
        assert len(rec.frames) == 60 * SAMPLE_RATE_HZ
        for i in (0, 1, 777, len(rec.frames) - 1):
            assert rec.frames[i].timestamp_ns == i * FRAME_INTERVAL_NS

    def test_frames_hold_python_numbers(self):
        """Fields are plain ints, floats and 3-tuples of floats, never
        numpy scalars, so frames compare, pickle and format as before."""
        rec, _ = self.session()
        for f in rec.frames[::997]:
            assert type(f.timestamp_ns) is int and f.valid is True
            for v in (f.left_pupil_mm, f.right_pupil_mm, f.left_openness,
                      f.right_openness, *f.left_dir, *f.right_dir):
                assert type(v) is float
            assert type(f.left_dir) is tuple and len(f.left_dir) == 3
            assert type(f.right_dir) is tuple and len(f.right_dir) == 3

    def test_value_ranges(self):
        rec, _ = self.session()
        lo = np.array([f.left_openness for f in rec.frames])
        ro = np.array([f.right_openness for f in rec.frames])
        assert lo.min() >= 0.0 and lo.max() <= 1.0
        assert ro.min() >= 0.0 and ro.max() <= 1.0
        for f in rec.frames[::500]:
            assert 2.0 <= f.left_pupil_mm <= 8.0
            assert 2.0 <= f.right_pupil_mm <= 8.0
            for d in (f.left_dir, f.right_dir):
                assert abs(np.linalg.norm(d) - 1.0) < 1e-9
            assert f.valid

    def test_ledger_is_sorted_and_non_overlapping(self):
        _, led = self.session()
        onsets = [e.blink.onset_ns for e in led.entries]
        assert onsets == sorted(onsets)
        for prev, nxt in zip(led.entries, led.entries[1:]):
            assert nxt.blink.onset_ns > prev.blink.offset_ns

    def test_metadata_carries_seed(self):
        rec, _ = self.session()
        assert rec.metadata["sim_seed"] == "3"
        assert rec.participant_id == "P00"


class TestRatesAndStyles:
    def test_spontaneous_rate_tracks_config(self):
        cfg = SimConfig(seed=6, duration_s=240.0)
        _, led = generate_session(cfg)
        per_min = len(led.by_style(STYLE_SPONTANEOUS)) / 4.0
        assert 13.0 <= per_min <= 21.0

    def test_voluntary_rate_and_presses(self):
        cfg = SimConfig(seed=7, duration_s=240.0)
        _, led = generate_session(cfg)
        vol = [e for e in led.classification_entries()
               if e.label is BlinkLabel.VOLUNTARY]
        assert 10.0 <= len(vol) / 4.0 <= 20.0
        assert len(led.button_presses) == len(vol)
        jitter_ns = PRESS_JITTER_MS * 1e6
        offsets = np.array([e.blink.offset_ns for e in vol])
        for p in led.button_presses:
            assert np.abs(offsets - p).min() <= jitter_ns + 1

    def test_spontaneous_durations_within_band(self):
        _, led = generate_session(SimConfig(seed=8, duration_s=240.0))
        durs = np.array([e.blink.duration_ns for e in
                         led.by_style(STYLE_SPONTANEOUS)]) / 1e6
        assert durs.min() >= 100.0 * 0.9
        assert durs.max() <= 150.0 * 1.1

    def test_wink_styles_map_to_kinds(self):
        _, led = generate_session(SimConfig(seed=9, duration_s=600.0))
        lefts = led.by_style(STYLE_WINK_LEFT)
        rights = led.by_style(STYLE_WINK_RIGHT)
        assert lefts and rights
        for e in lefts:
            assert e.blink.kind is BlinkKind.LEFT_WINK
            assert e.blink.min_openness_right == 1.0
        for e in rights:
            assert e.blink.kind is BlinkKind.RIGHT_WINK
            assert e.blink.min_openness_left == 1.0
        assert all(e.label is BlinkLabel.VOLUNTARY for e in lefts + rights)

    def test_hard_mode_narrows_voluntary_styles(self):
        easy = generate_session(SimConfig(seed=10, duration_s=240.0))[1]
        hard = generate_session(SimConfig(seed=10, duration_s=240.0,
                                          hard_mode=True))[1]

        def mean_hold(led):
            durs = [e.blink.duration_ns for e in led.by_style(STYLE_EXTENDED_HOLD)]
            return sum(durs) / len(durs)

        def mean_depth(led):
            vols = (led.by_style(STYLE_EXTENDED_HOLD)
                    + led.by_style(STYLE_FIRM_BRIEF))
            return sum(e.blink.min_openness_left for e in vols) / len(vols)

        assert mean_hold(hard) < mean_hold(easy)
        assert mean_depth(hard) > mean_depth(easy)

    def test_zero_rates_give_empty_ledger(self):
        cfg = SimConfig(seed=1, duration_s=30.0, spontaneous_rate_per_min=0.0,
                        voluntary_rate_per_min=0.0, wink_rate_per_min=0.0)
        rec, led = generate_session(cfg)
        assert led.entries == ()
        assert led.button_presses == ()
        assert len(rec.frames) == 30 * SAMPLE_RATE_HZ
        assert min(f.left_openness for f in rec.frames) > 0.9

    def test_zero_duration(self):
        rec, led = generate_session(SimConfig(seed=1, duration_s=0.0))
        assert rec.frames == [] and led.entries == ()


class TestConfigValidation:
    def test_negative_rate(self):
        with pytest.raises(ValueError):
            SimConfig(spontaneous_rate_per_min=-1.0)

    def test_press_jitter_stays_inside_the_labeling_margin(self):
        # A press lands up to PRESS_JITTER_MS from its ledger blink end, and
        # the segmented end may sit a few frames off that: 180 ms keeps 20 ms
        # of INTENT_MARGIN_NS for it.
        assert 0 <= PRESS_JITTER_MS <= 180
        assert 180 * 1_000_000 + 20_000_000 <= INTENT_MARGIN_NS
        rec, led = generate_session(SimConfig(seed=19, duration_s=240.0))
        offsets = np.array([lb.blink.offset_ns for lb in label_blinks(rec)])
        assert led.button_presses
        for p in led.button_presses:
            assert np.abs(offsets - p).min() <= INTENT_MARGIN_NS


class TestSegmenterAgreement:
    def test_ledger_matches_segmentation_and_labels(self):
        rec, led = generate_session(SimConfig(seed=12, duration_s=90.0))
        seen = label_blinks(rec)
        truth = led.classification_entries()
        assert len(seen) == len(truth)
        for got, want in zip(seen, truth):
            assert abs(got.blink.offset_ns - want.blink.offset_ns) <= 10_000_000
            assert got.label is want.label


class TestReplay:
    def test_zero_speed_is_unpaced(self):
        rec, _ = generate_session(SimConfig(seed=13, duration_s=10.0))
        t0 = time.monotonic()
        frames = list(replay(rec.frames, speed_multiplier=0.0))
        assert time.monotonic() - t0 < 1.0
        assert frames == rec.frames

    def test_pacing_scales_with_speed(self):
        rec, _ = generate_session(SimConfig(seed=14, duration_s=2.0))
        t0 = time.monotonic()
        list(replay(rec.frames, speed_multiplier=10.0))
        elapsed = time.monotonic() - t0
        assert 0.15 <= elapsed < 1.5

    def test_negative_speed_rejected(self):
        rec, _ = generate_session(SimConfig(seed=15, duration_s=1.0))
        with pytest.raises(ValueError):
            list(replay(rec.frames, speed_multiplier=-1.0))

    def test_empty_recording(self):
        rec, _ = generate_session(SimConfig(seed=16, duration_s=0.0))
        assert list(replay(rec.frames)) == []


class TestLedgerFiles:
    def test_json_roundtrip(self, tmp_path):
        _, led = generate_session(SimConfig(seed=17, duration_s=60.0))
        path = str(tmp_path / "session.ledger.json")
        save_ledger(led, path)
        assert load_ledger(path) == led

    def test_failed_save_keeps_previous_ledger(self, tmp_path):
        _, led = generate_session(SimConfig(seed=18, duration_s=60.0))
        path = tmp_path / "session.ledger.json"
        save_ledger(led, str(path))
        before = path.read_bytes()
        bad = led.entries[-1]
        broken = GroundTruthLedger(
            led.entries[:-1] + (LedgerEntry(bad.blink, bad.label, object()),),
            led.button_presses)
        with pytest.raises(TypeError):  # the last entry cannot be written
            save_ledger(broken, str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["session.ledger.json"]
