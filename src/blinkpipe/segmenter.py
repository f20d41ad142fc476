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
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from .core import (
    BlinkEvent,
    BlinkKind,
    CalibrationProfile,
    NoGazeYet,
    ValidatedFrame,
    Vec3,
)

MIN_CLOSURE_SAMPLES = 2  # 10 ms at 200 Hz; single-sample dips are glitches


class EyeOpenState(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"


@dataclass(frozen=True)
class EyeState:
    """Instantaneous per-eye state plus the frozen gaze during closures."""

    left: EyeOpenState = EyeOpenState.OPEN
    right: EyeOpenState = EyeOpenState.OPEN
    held_gaze_dir: Optional[Vec3] = None

    @property
    def both_open(self) -> bool:
        return self.left is EyeOpenState.OPEN and self.right is EyeOpenState.OPEN

    @property
    def both_closed(self) -> bool:
        return self.left is EyeOpenState.CLOSED and self.right is EyeOpenState.CLOSED

    @property
    def any_closed(self) -> bool:
        return not self.both_open

    @property
    def exactly_one_closed(self) -> bool:
        return self.any_closed and not self.both_closed


class BlinkSegmenter:
    """Converts a validated frame stream into eye states and BlinkEvents.

    One instance per stream; feed frames in timestamp order.
    """

    def __init__(self, profile: Optional[CalibrationProfile] = None,
                 min_closure_samples: int = MIN_CLOSURE_SAMPLES):
        self.profile = profile or CalibrationProfile()
        self.min_closure_samples = min_closure_samples
        self.state = EyeState()
        self._last_frame: Optional[ValidatedFrame] = None
        self._last_open_gaze: Optional[Vec3] = None
        # Closure interval bookkeeping.
        self._onset_ns = 0
        self._closed_samples = 0
        self._both_seen = False
        self._left_closed_last = False  # left eye closed on the latest closure frame
        self._min_left = 1.0
        self._min_right = 1.0

    def update(self, frame: ValidatedFrame) -> Tuple[EyeState, Optional[BlinkEvent]]:
        prof = self.profile
        prev = self.state

        if prev.left is EyeOpenState.CLOSED:
            left_closed = frame.left_openness < prof.reopen_threshold_left()
        else:
            left_closed = frame.left_openness < prof.closed_threshold_left
        if prev.right is EyeOpenState.CLOSED:
            right_closed = frame.right_openness < prof.reopen_threshold_right()
        else:
            right_closed = frame.right_openness < prof.closed_threshold_right

        if self._last_open_gaze is None:
            self._last_open_gaze = frame.binocular_dir()

        event: Optional[BlinkEvent] = None
        any_closed = left_closed or right_closed

        if any_closed:
            if not prev.any_closed:
                self._onset_ns = frame.timestamp_ns
                self._closed_samples = 0
                self._both_seen = False
                self._min_left = 1.0
                self._min_right = 1.0
            self._closed_samples += 1
            self._both_seen = self._both_seen or (left_closed and right_closed)
            self._left_closed_last = left_closed
            self._min_left = min(self._min_left, frame.left_openness)
            self._min_right = min(self._min_right, frame.right_openness)
            held = prev.held_gaze_dir if prev.any_closed else self._last_open_gaze
            self.state = EyeState(
                left=EyeOpenState.CLOSED if left_closed else EyeOpenState.OPEN,
                right=EyeOpenState.CLOSED if right_closed else EyeOpenState.OPEN,
                held_gaze_dir=held,
            )
        else:
            if prev.any_closed and self._closed_samples >= self.min_closure_samples:
                # Without a both-closed frame every closure frame had exactly
                # one eye closed, so the eye closed last names the wink.
                event = BlinkEvent(
                    onset_ns=self._onset_ns,
                    offset_ns=frame.timestamp_ns,
                    kind=(BlinkKind.BOTH_EYES if self._both_seen
                          else BlinkKind.LEFT_WINK if self._left_closed_last
                          else BlinkKind.RIGHT_WINK),
                    min_openness_left=self._min_left,
                    min_openness_right=self._min_right,
                )
            self.state = EyeState()
            self._last_open_gaze = frame.binocular_dir()

        self._last_frame = frame
        return self.state, event

    def effective_gaze(self) -> Vec3:
        """Current gaze ray: frozen during closures, binocular mean otherwise."""
        if self._last_frame is None:
            raise NoGazeYet("no frame processed yet")
        return effective_gaze(self.state, self._last_frame)


def effective_gaze(state: EyeState, frame: Optional[ValidatedFrame]) -> Vec3:
    """Gaze direction for interaction raycasts.

    Returns the held direction while any eye is closed, otherwise the
    renormalized mean of the two current gaze directions.
    """
    if state.any_closed and state.held_gaze_dir is not None:
        return state.held_gaze_dir
    if frame is None:
        raise NoGazeYet("no valid frame has been seen")
    return frame.binocular_dir()
