"""Rolling feature history and fixed-length window extraction.

The classifier consumes a window of the most recent `capacity` validated
frames (default 5000, i.e. 25 s at 200 Hz) ending exactly at a blink's
offset frame, flattened time-major into a single vector of
capacity * NUM_FEATURES values. By default the ring holds exactly one
window, which is all serving needs: a blink's offset is the newest frame.
Offline window cutting (`dataset.materialize_windows`) sizes the ring to
the whole recording, so it never wraps and every blink, and every copy
shifted up to MAX_SHIFT_FRAMES either way, is cut after the last push.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    NUM_FEATURES,
    BlinkEvent,
    BlinkPipeError,
    NonMonotonicTimestamp,
    ValidatedFrame,
)

DEFAULT_WINDOW_FRAMES = 5000
DEFAULT_LOOKBACK_FRAMES = 32  # materialize_windows' ignored `lookback` default
MAX_SHIFT_FRAMES = 10


class NotReady(BlinkPipeError):
    """Raised when fewer frames than one full window precede the requested end."""


@dataclass(frozen=True)
class WindowTensor:
    """Flattened time-major feature window: frame 0 first, frame N-1 last."""

    values: np.ndarray  # shape (window_frames * NUM_FEATURES,), float64
    end_timestamp_ns: int
    window_frames: int

    def __post_init__(self):
        if self.values.shape != (self.window_frames * NUM_FEATURES,):
            raise ValueError(
                f"values shape {self.values.shape} does not match"
                f" {self.window_frames} frames x {NUM_FEATURES} features"
            )

    def as_matrix(self) -> np.ndarray:
        return self.values.reshape(self.window_frames, NUM_FEATURES)


class HistoryBuffer:
    """Ring buffer of validated frames with timestamp-indexed window cuts.

    Frames are addressed by absolute index (0 = first frame ever pushed);
    the ring retains the newest `capacity + lookback` of them.
    """

    def __init__(self, capacity: int = DEFAULT_WINDOW_FRAMES, lookback: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if lookback < 0:
            raise ValueError("lookback must be non-negative")
        self.capacity = capacity
        self.lookback = lookback
        self._ring = capacity + lookback
        self._features = np.zeros((self._ring, NUM_FEATURES), dtype=np.float64)
        self._timestamps = np.zeros(self._ring, dtype=np.int64)
        self._count = 0  # total frames ever pushed
        self._last_ts: Optional[int] = None

    @property
    def fill_count(self) -> int:
        """Number of frames currently available, saturating at capacity."""
        return min(self._count, self.capacity)

    @property
    def _oldest(self) -> int:
        """Absolute index of the oldest retained frame."""
        return max(0, self._count - self._ring)

    def push(self, frame: ValidatedFrame) -> None:
        if self._last_ts is not None and frame.timestamp_ns <= self._last_ts:
            raise NonMonotonicTimestamp(
                f"timestamp {frame.timestamp_ns} not after {self._last_ts}"
            )
        slot = self._count % self._ring
        self._features[slot, :] = frame.features()
        self._timestamps[slot] = frame.timestamp_ns
        self._count += 1
        self._last_ts = frame.timestamp_ns

    def _slots(self, start: int, stop: int) -> np.ndarray:
        """Ring slots of absolute indices [start, stop), oldest first."""
        return np.arange(start, stop) % self._ring

    def _index_at_or_before(self, timestamp_ns: int) -> Optional[int]:
        """Absolute index of the newest retained frame with ts <= timestamp_ns."""
        oldest = self._oldest
        # Retained timestamps increase in absolute order; until the ring
        # wraps that is slot order, so search them in place, not a copy.
        retained = (self._timestamps[:self._count] if self._count <= self._ring
                    else self._timestamps[self._slots(oldest, self._count)])
        n = int(np.searchsorted(retained, timestamp_ns, side="right"))
        return oldest + n - 1 if n else None

    def _window(self, end_index: int) -> WindowTensor:
        """Window of `capacity` frames whose last frame is `end_index`."""
        start = end_index - self.capacity + 1
        if start < self._oldest:
            raise NotReady(
                f"window start {start} evicted (oldest retained {self._oldest})"
            )
        slots = self._slots(start, end_index + 1)
        return WindowTensor(
            values=self._features[slots].reshape(-1),
            end_timestamp_ns=int(self._timestamps[slots[-1]]),
            window_frames=self.capacity,
        )

    def snapshot_at_blink_end(self, blink: BlinkEvent) -> WindowTensor:
        """Window ending at the newest frame at or before the blink offset.

        Raises NotReady during warm-up, i.e. when fewer than `capacity`
        frames exist at or before that offset.
        """
        end = self._index_at_or_before(blink.offset_ns)
        if end is None or end - self.capacity + 1 < 0:
            have = 0 if end is None else end + 1
            raise NotReady(
                f"{have} frames at or before blink offset; need {self.capacity}"
            )
        return self._window(end)

    def augment_shift(self, window: WindowTensor,
                      rng: np.random.Generator) -> WindowTensor:
        """Random +/-MAX_SHIFT_FRAMES re-cut of `window` from the buffer.

        The shift is drawn uniformly from [-10, 10] and clipped to the range
        the buffer can still serve, so augmented windows near the stream
        edges degrade gracefully instead of failing.
        """
        end = self._index_at_or_before(window.end_timestamp_ns)
        if end is None:
            raise NotReady("window end timestamp no longer in buffer")
        shift = int(rng.integers(-MAX_SHIFT_FRAMES, MAX_SHIFT_FRAMES + 1))
        lo = self._oldest + self.capacity - 1 - end  # most negative admissible shift
        hi = self._count - 1 - end
        shift = max(lo, min(hi, shift))
        return self._window(end + shift)
