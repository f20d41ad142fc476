"""Per-eye open/closed segmentation, gaze hold, and blink event extraction.

An eye counts as closed while its openness is below the per-eye threshold
and reopens once openness climbs back above threshold + hysteresis band.
A closure interval starts when the first eye closes and ends on the frame
where the last closed eye reopens; that reopen frame's timestamp is the
event offset. Closures shorter than a minimum sample count are treated as
sensor glitches and dropped (physiological blinks last ~100 ms or more).

While any eye is closed the effective gaze is frozen at the binocular gaze
of the last frame on which both eyes were open, so eyelid-induced eye
movement cannot drag the selection ray around during a blink.

`two_means_threshold` estimates one eye's closure threshold from the
openness values of a recording (the `calibrate` command).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import (
    _DEGENERATE_NORM,
    BlinkEvent,
    BlinkKind,
    CalibrationProfile,
    DegenerateDirection,
    NoGazeYet,
    ValidatedFrame,
    Vec3,
    _normalize,
)

MIN_CLOSURE_SAMPLES = 2  # 10 ms at 200 Hz; single-sample dips are glitches


@dataclass(frozen=True)
class EyeState:
    """Which eyes are closed on a frame."""

    left_closed: bool = False
    right_closed: bool = False

    @property
    def both_open(self) -> bool:
        return not (self.left_closed or self.right_closed)

    @property
    def both_closed(self) -> bool:
        return self.left_closed and self.right_closed

    @property
    def exactly_one_closed(self) -> bool:
        return self.left_closed != self.right_closed


# `update`'s result for each (left closed, right closed) pair.
_EYE_STATES = {(left, right): EyeState(left, right)
               for left in (False, True) for right in (False, True)}


class BlinkSegmenter:
    """Converts a validated frame stream into eye states and BlinkEvents.

    One instance per stream; feed frames in timestamp order, either whole
    (`update`, the per-frame reference, which also tracks the gaze) or as
    values (`step_frame`, on the rows `rows_to_step` marks).
    """

    def __init__(self, profile: Optional[CalibrationProfile] = None):
        self.profile = profile or CalibrationProfile()
        # Binocular gaze of the latest frame with both eyes open (of the
        # first frame until one has them open): the ray held during closures.
        self._last_open_gaze: Optional[Vec3] = None
        self._close_left = self.profile.closed_threshold_left
        self._close_right = self.profile.closed_threshold_right
        self._reopen_left = self.profile.reopen_threshold_left()
        self._reopen_right = self.profile.reopen_threshold_right()
        self._left_closed = self._right_closed = False  # on the latest frame
        # Closure interval bookkeeping.
        self._onset_ns = 0
        self._closed_samples = 0
        self._both_seen = False
        self._left_closed_last = False  # left eye closed on the latest closure frame
        self._min_left = 1.0
        self._min_right = 1.0

    @property
    def any_closed(self) -> bool:
        """Whether an eye was closed on the latest frame."""
        return self._left_closed or self._right_closed

    def step(self, timestamp_ns: int, left_openness: float,
             right_openness: float) -> Optional[BlinkEvent]:
        """Apply the closure rules to one frame; returns the blink it ends."""
        was_closed = self._left_closed or self._right_closed
        left_closed = self._left_closed = left_openness < (
            self._reopen_left if self._left_closed else self._close_left)
        right_closed = self._right_closed = right_openness < (
            self._reopen_right if self._right_closed else self._close_right)
        if left_closed or right_closed:
            if not was_closed:
                self._onset_ns = timestamp_ns
                self._closed_samples = 0
                self._both_seen = False
                self._min_left = 1.0
                self._min_right = 1.0
            self._closed_samples += 1
            self._both_seen = self._both_seen or (left_closed and right_closed)
            self._left_closed_last = left_closed
            self._min_left = min(self._min_left, left_openness)
            self._min_right = min(self._min_right, right_openness)
            return None
        if was_closed and self._closed_samples >= MIN_CLOSURE_SAMPLES:
            # Without a both-closed frame every closure frame had exactly
            # one eye closed, so the eye closed last names the wink.
            return BlinkEvent(
                onset_ns=self._onset_ns,
                offset_ns=timestamp_ns,
                kind=(BlinkKind.BOTH_EYES if self._both_seen
                      else BlinkKind.LEFT_WINK if self._left_closed_last
                      else BlinkKind.RIGHT_WINK),
                min_openness_left=self._min_left,
                min_openness_right=self._min_right,
            )
        return None

    def step_frame(self, timestamp_ns: int, left_openness: float,
                   right_openness: float, lx: float, ly: float, lz: float,
                   rx: float, ry: float, rz: float,
                   first: bool = False) -> Optional[BlinkEvent]:
        """`step`, then the gaze rule: on the stream's `first` frame and on
        every frame with both eyes open after `step`, `binocular_gaze` must
        accept the left (lx, ly, lz) and right (rx, ry, rz) directions."""
        event = self.step(timestamp_ns, left_openness, right_openness)
        if first or not (self._left_closed or self._right_closed):
            binocular_gaze(lx, ly, lz, rx, ry, rz)
        return event

    def rows_to_step(self, features: np.ndarray) -> np.ndarray:
        """Which rows of `features` (ten features a frame, float32 or
        float64), fed on from the current state, `step_frame` must see: each
        row that leaves an eye closed, the row after it (row 0 while an eye
        is closed now), and each row whose binocular gaze norm, summed as
        `binocular_gaze` sums it, is under `_DEGENERATE_NORM`. On every other
        row `step_frame` changes nothing, returns None and passes.
        """
        with np.errstate(invalid="ignore"):  # signalling NaN in the cast, inf + -inf
            x, y, z = (np.add(features[:, k], features[:, k + 3], dtype=np.float64)
                       for k in (4, 5, 6))
            rows = np.sqrt(x * x + y * y + z * z) < _DEGENERATE_NORM
            closed = np.zeros(len(features), bool)
            for column, close, reopen, was_closed in (
                    (2, self._close_left, self._reopen_left, self._left_closed),
                    (3, self._close_right, self._reopen_right, self._right_closed)):
                openness = np.asarray(features[:, column], np.float64)
                below = openness < reopen  # NaN opens the eye, as in `step`
                if below.any():
                    # A row that closes the eye codes as 2 * row + 1, one that
                    # opens it as 2 * row, one in between as -1 or -2 (closed or
                    # open at the start): the running maximum's parity says
                    # whether the latest deciding row closed the eye.
                    at = np.arange(0, 2 * len(openness), 2)
                    code = np.where(below, np.where(
                        openness < close, at + 1, -1 if was_closed else -2), at)
                    closed |= (np.maximum.accumulate(code) & 1).astype(bool)
        rows |= closed
        rows[1:] |= closed[:-1]
        rows[:1] |= self.any_closed
        return rows

    def update(self, frame: ValidatedFrame) -> Tuple[EyeState, Optional[BlinkEvent]]:
        if self._last_open_gaze is None:
            self._last_open_gaze = _normalize(binocular_gaze(*frame.values[4:]))
        event = self.step(frame.timestamp_ns, frame.values[2], frame.values[3])
        if not (self._left_closed or self._right_closed):
            self._last_open_gaze = _normalize(binocular_gaze(*frame.values[4:]))
        return _EYE_STATES[self._left_closed, self._right_closed], event

    def effective_gaze(self) -> Vec3:
        """Gaze direction for interaction raycasts: the held ray, which is
        the latest frame's renormalized binocular gaze while both eyes are
        open and stays frozen while any eye is closed."""
        if self._last_open_gaze is None:
            raise NoGazeYet("no frame processed yet")
        return self._last_open_gaze


def binocular_gaze(lx: float, ly: float, lz: float,
                   rx: float, ry: float, rz: float) -> Vec3:
    """Sum of the left (lx, ly, lz) and right (rx, ry, rz) gaze directions.

    Raises DegenerateDirection when it is near zero (`core._normalize`'s
    test and message). A stream must carry a usable binocular gaze on its
    first frame and on every frame with both eyes open: `BlinkSegmenter.
    update` and `step_frame` apply that rule through here, and
    `rows_to_step` finds the rows it could fail on over whole columns.
    """
    x, y, z = lx + rx, ly + ry, lz + rz
    if math.sqrt(x * x + y * y + z * z) < _DEGENERATE_NORM:
        raise DegenerateDirection(f"direction {(x, y, z)} has near-zero norm")
    return x, y, z


def two_means_threshold(values: np.ndarray) -> Optional[float]:
    """Midpoint of p5(open cluster) and p95(closed cluster), or None.

    The clusters come from 1-D two-means with fixed initial centers, so
    the estimate is deterministic for a given recording. The values are
    widened to float64 first: on float32 values (validated columns) numpy
    would compare, average and interpolate in float32.
    """
    values = np.asarray(values, dtype=np.float64)
    center_open, center_closed = 0.95, 0.2
    open_vals = closed_vals = None
    for _ in range(64):
        mid = (center_open + center_closed) / 2.0
        open_vals = values[values >= mid]
        closed_vals = values[values < mid]
        if open_vals.size == 0 or closed_vals.size == 0:
            return None
        new_open = float(open_vals.mean())
        new_closed = float(closed_vals.mean())
        if abs(new_open - center_open) < 1e-9 and abs(new_closed - center_closed) < 1e-9:
            break
        center_open, center_closed = new_open, new_closed
    threshold = (np.percentile(open_vals, 5) + np.percentile(closed_vals, 95)) / 2.0
    return float(min(max(threshold, 0.05), 0.9))
