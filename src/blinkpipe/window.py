"""Feature history in one contiguous store and fixed-length window cuts.

The classifier consumes a window of the most recent `capacity` validated
frames (default 5000, i.e. 25 s at 200 Hz) ending exactly at a blink's
offset frame, flattened time-major (frame 0 first) into one float32 array
of capacity * NUM_FEATURES values, the validated features exactly as
stored; a `BlinkNet` widens it to float64, and an `InferencePlan`'s float32
stem takes it as it is. The buffer keeps its newest
`capacity + lookback` frames in one run of rows, oldest first, so every
cut is a binary search over a view of the timestamps plus one slice copy.
By default it keeps exactly one window, which is all serving needs: a
blink's offset is the newest frame; the server appends each read's
frames in bulk (`HistoryBuffer.extend`). Offline window cutting
(`dataset.materialize_windows`) builds it from a whole recording's
validated columns in one copy (`HistoryBuffer.from_columns`), so every
blink, and every copy shifted up to MAX_SHIFT_FRAMES either way, is cut
from rows that never move, by the same code that cuts when serving.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .core import (
    NUM_FEATURES,
    BlinkEvent,
    DataError,
    NonMonotonicTimestamp,
    ValidatedFrame,
)

DEFAULT_WINDOW_FRAMES = 5000
DEFAULT_LOOKBACK_FRAMES = 32  # materialize_windows' ignored `lookback` default
MAX_SHIFT_FRAMES = 10


class NotReady(DataError):
    """Raised when fewer frames than one full window precede the requested end."""


class HistoryBuffer:
    """Validated frames in one contiguous store, cut into windows by timestamp.

    The newest `capacity + lookback` frames are retained as rows
    [oldest, end) of the store, oldest first. Behind them are `capacity`
    spare rows; once those are used up, the retained run moves to the front
    in one copy, i.e. about once per `capacity` frames, pushed or extended.
    A buffer whose lookback covers the whole stream never moves.
    """

    def __init__(self, capacity: int = DEFAULT_WINDOW_FRAMES, lookback: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if lookback < 0:
            raise ValueError("lookback must be non-negative")
        self.capacity = capacity
        self.lookback = lookback
        self._keep = capacity + lookback
        rows = self._keep + capacity
        # float32 holds every validated feature exactly (core.validate_columns).
        self._features = np.zeros((rows, NUM_FEATURES), dtype=np.float32)
        self._timestamps = np.zeros(rows, dtype=np.int64)
        self._end = 0  # one past the newest row

    @classmethod
    def from_columns(cls, timestamps: np.ndarray, features: np.ndarray,
                     capacity: int = DEFAULT_WINDOW_FRAMES) -> "HistoryBuffer":
        """A buffer holding every row of validated columns (see
        `core.validate_columns`), as if each row had been pushed in order,
        with the lookback that keeps them all; one bulk copy."""
        n = len(timestamps)
        if features.shape != (n, NUM_FEATURES):
            raise ValueError(f"features shape {features.shape} does not match"
                             f" {n} timestamps x {NUM_FEATURES} features")
        bad = np.flatnonzero(timestamps[1:] <= timestamps[:-1])
        if bad.size:
            k = int(bad[0]) + 1
            raise NonMonotonicTimestamp(
                f"timestamp {int(timestamps[k])} not after {int(timestamps[k - 1])}")
        buf = cls(capacity, max(0, n - capacity))
        buf.extend(timestamps, features)
        return buf

    @property
    def _oldest(self) -> int:
        """Row of the oldest retained frame."""
        return max(0, self._end - self._keep)

    def push(self, frame: ValidatedFrame) -> None:
        end = self._end
        if end and frame.timestamp_ns <= self._timestamps[end - 1]:
            raise NonMonotonicTimestamp(
                f"timestamp {frame.timestamp_ns} not after"
                f" {int(self._timestamps[end - 1])}"
            )
        if end == len(self._timestamps):
            keep = self._keep
            self._features[:keep] = self._features[end - keep:end]
            self._timestamps[:keep] = self._timestamps[end - keep:end]
            self._end = end = keep  # before the row write, which can raise
        self._features[end] = frame.values
        self._timestamps[end] = frame.timestamp_ns
        self._end = end + 1

    def extend(self, timestamps: np.ndarray, features: np.ndarray) -> None:
        """Append rows in one copy each, as if each had been pushed in order.

        The caller guarantees what `push` checks: the timestamps increase
        strictly and start after the newest retained one. Features are
        stored as float32, the dtype of the wire and of `core.
        validate_columns`, so validated values are copied exactly; any other
        dtype is cast in the copy.
        """
        n, end, keep = len(timestamps), self._end, self._keep
        if end + n > len(self._timestamps):
            if n >= keep:  # the new rows alone are the retained run
                timestamps, features = timestamps[n - keep:], features[n - keep:]
                n, end = keep, 0
            else:  # keep the newest keep - n rows, at the front
                end = keep - n
                self._features[:end] = self._features[self._end - end:self._end]
                self._timestamps[:end] = self._timestamps[self._end - end:self._end]
            self._end = end  # before the row writes, which can raise
        self._features[end:end + n] = features
        self._timestamps[end:end + n] = timestamps
        self._end = end + n

    @property
    def newest_timestamp_ns(self) -> Optional[int]:
        """Timestamp of the newest frame, or None before the first."""
        return int(self._timestamps[self._end - 1]) if self._end else None

    def _row_at_or_before(self, timestamp_ns: int) -> int:
        """Row of the newest retained frame with ts <= timestamp_ns, or
        oldest - 1 if there is none."""
        oldest = self._oldest
        retained = self._timestamps[oldest:self._end]
        return oldest + int(np.searchsorted(retained, timestamp_ns, side="right")) - 1

    def _window(self, end_row: int) -> np.ndarray:
        """Window of `capacity` frames whose last frame is row `end_row`."""
        start = end_row - self.capacity + 1
        if start < self._oldest:
            raise NotReady(
                f"{end_row - self._oldest + 1} retained frames at or before"
                f" the window end; need {self.capacity}"
            )
        return self._features[start:end_row + 1].flatten()  # a copy, never a view

    def snapshot_at_blink_end(self, blink: BlinkEvent) -> np.ndarray:
        """Window ending at the newest frame at or before the blink offset.

        Raises NotReady when fewer than `capacity` retained frames exist at
        or before that offset: during warm-up, or once they are evicted.
        """
        return self._window(self._row_at_or_before(blink.offset_ns))

    def augment_shift(self, blink: BlinkEvent,
                      rng: np.random.Generator) -> np.ndarray:
        """Random +/-MAX_SHIFT_FRAMES re-cut of the blink's window
        (`snapshot_at_blink_end`) from the buffer.

        The shift is drawn uniformly from [-10, 10] and clipped to the range
        the buffer can still serve, so augmented windows near the stream
        edges degrade gracefully instead of failing.
        """
        end = self._row_at_or_before(blink.offset_ns)
        if end < self._oldest:
            raise NotReady("no retained frame at or before the blink offset")
        shift = int(rng.integers(-MAX_SHIFT_FRAMES, MAX_SHIFT_FRAMES + 1))
        lo = self._oldest + self.capacity - 1 - end  # most negative admissible shift
        hi = self._end - 1 - end
        shift = max(lo, min(hi, shift))
        return self._window(end + shift)
