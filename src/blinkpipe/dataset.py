"""Recording persistence, blink labeling, and participant-level splits.

A blink is labeled Voluntary iff some button press falls within 200 ms of
the blink offset (symmetric, inclusive). Winks never enter the
classification dataset: they drive drags, not selections.

Recording file format: an optional `# key=value ...` comment line carrying
participant id and metadata, a CSV header, then one row per frame:

    timestamp_ns,lpupil,rpupil,lopen,ropen,ldx,ldy,ldz,rdx,rdy,rdz,valid

Button presses live in a sidecar file (same stem, `.presses` suffix), one
nanosecond timestamp per line. Files whose name ends in `.gz` are
transparently gzip-compressed.
"""
from __future__ import annotations

import contextlib
import gzip
import io
import os
import zlib
from dataclasses import dataclass, field, replace
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple,
)

import numpy as np

from . import core
from .core import (
    BlinkEvent,
    BlinkKind,
    BlinkLabel,
    CalibrationProfile,
    DataError,
    GazeFrame,
    TimestampOutOfRange,
    atomic_path,
)
from .segmenter import BlinkSegmenter
from .window import (
    DEFAULT_LOOKBACK_FRAMES,
    DEFAULT_WINDOW_FRAMES,
    HistoryBuffer,
    NotReady,
)

INTENT_MARGIN_NS = 200_000_000  # press within this of blink offset = voluntary

_CSV_HEADER = "timestamp_ns,lpupil,rpupil,lopen,ropen,ldx,ldy,ldz,rdx,rdy,rdz,valid"


class TooFewParticipants(DataError):
    """Participant-level splitting needs at least 3 participants."""


class RecordingFormatError(DataError):
    """A recording file does not parse."""


@dataclass
class Recording:
    participant_id: str
    frames: List[GazeFrame]
    button_presses: List[int]
    metadata: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class LabeledBlink:
    blink: BlinkEvent
    label: BlinkLabel
    window: Optional[np.ndarray] = None  # float32, see window.HistoryBuffer
    participant_id: str = ""


# --------------------------------------------------------------------------
# recording files


def _sidecar_path(path: str) -> str:
    base = path
    gz = base.endswith(".gz")
    if gz:
        base = base[:-3]
    stem, _ = os.path.splitext(base)
    return stem + ".presses" + (".gz" if gz else "")


def _open_text(path: str, mode: str):
    if path.endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="ascii", newline="")
    return open(path, mode, encoding="ascii", newline="")


@contextlib.contextmanager
def _writing(path: str) -> Iterator[TextIO]:
    """Write ASCII text to `path` whole or not at all (see `atomic_path`);
    `path`, not the temporary name, decides compression and the gzip header."""
    with atomic_path(path) as tmp, open(tmp, "wb") as raw:
        out = (gzip.GzipFile(path, "wb", fileobj=raw, mtime=0)
               if path.endswith(".gz") else raw)
        with io.TextIOWrapper(out, encoding="ascii", newline="") as f:
            yield f


def save_recording(rec: Recording, path: str) -> None:
    meta = dict(rec.metadata)
    tokens = [f"participant={rec.participant_id}"]
    tokens += [f"{k}={meta[k]}" for k in sorted(meta)]
    for tok in tokens:
        if any(c in tok for c in (" ", ",", "\n")) or tok.count("=") != 1:
            raise ValueError(f"metadata token not representable: {tok!r}")
    with _writing(path) as f:
        f.write("# " + " ".join(tokens) + "\n")
        f.write(_CSV_HEADER + "\n")
        for fr in rec.frames:
            ldx, ldy, ldz = fr.left_dir
            rdx, rdy, rdz = fr.right_dir
            f.write(
                f"{fr.timestamp_ns},{fr.left_pupil_mm!r},{fr.right_pupil_mm!r},"
                f"{fr.left_openness!r},{fr.right_openness!r},"
                f"{ldx!r},{ldy!r},{ldz!r},{rdx!r},{rdy!r},{rdz!r},"
                f"{1 if fr.valid else 0}\n"
            )
    with _writing(_sidecar_path(path)) as f:
        for ts in rec.button_presses:
            f.write(f"{ts}\n")


def load_recording(path: str) -> Recording:
    """Read a recording and its sidecar; bad content is RecordingFormatError,
    naming the file it is in."""
    with _reading(path):
        participant, frames, metadata = _read_frames(path)
    presses: List[int] = []
    sidecar = _sidecar_path(path)
    if os.path.exists(sidecar):
        with _reading(sidecar):
            presses = _read_presses(sidecar)
    return Recording(participant, frames, presses, metadata)


@contextlib.contextmanager
def _reading(path: str) -> Iterator[None]:
    """Turn a file's undecodable bytes into a RecordingFormatError naming it."""
    try:
        yield
    except (UnicodeDecodeError, EOFError, gzip.BadGzipFile, zlib.error) as e:
        raise RecordingFormatError(f"{path}: {type(e).__name__}: {e}") from e


def _read_frames(path: str) -> Tuple[str, List[GazeFrame], Dict[str, str]]:
    participant = ""
    metadata: Dict[str, str] = {}
    frames: List[GazeFrame] = []
    with _open_text(path, "r") as f:
        line = f.readline()
        if line.startswith("#"):
            for tok in line[1:].split():
                if "=" not in tok:
                    raise RecordingFormatError(f"{path}: bad metadata token {tok!r}")
                k, v = tok.split("=", 1)
                if k == "participant":
                    participant = v
                else:
                    metadata[k] = v
            line = f.readline()
        if line.strip() != _CSV_HEADER:
            raise RecordingFormatError(
                f"{path}: unexpected column header {line.strip()!r}")
        for lineno, row in enumerate(f, start=3):
            row = row.strip()
            if not row:
                continue
            parts = row.split(",")
            if len(parts) != 12:
                raise RecordingFormatError(
                    f"{path}: line {lineno}: expected 12 columns, got {len(parts)}")
            if parts[11] not in ("0", "1"):
                raise RecordingFormatError(
                    f"{path}: line {lineno}: valid column {parts[11]!r} is not 0 or 1")
            try:
                frames.append(GazeFrame(
                    timestamp_ns=_timestamp(parts[0]),
                    left_pupil_mm=float(parts[1]),
                    right_pupil_mm=float(parts[2]),
                    left_openness=float(parts[3]),
                    right_openness=float(parts[4]),
                    left_dir=(float(parts[5]), float(parts[6]), float(parts[7])),
                    right_dir=(float(parts[8]), float(parts[9]), float(parts[10])),
                    valid=parts[11] == "1",
                ))
            except (ValueError, TimestampOutOfRange) as e:
                raise RecordingFormatError(f"{path}: line {lineno}: {e}") from e
    return participant, frames, metadata


def _read_presses(sidecar: str) -> List[int]:
    presses: List[int] = []
    with _open_text(sidecar, "r") as f:
        for lineno, row in enumerate(f, start=1):
            if row.strip():
                try:
                    presses.append(_timestamp(row))
                except (ValueError, TimestampOutOfRange) as e:
                    raise RecordingFormatError(
                        f"{sidecar}: line {lineno}: {e}") from e
    return presses


def _timestamp(text: str) -> int:
    ts = int(text)
    core._check_timestamp(ts)
    return ts


# --------------------------------------------------------------------------
# labeling


def label_blinks(rec: Recording,
                 profile: Optional[CalibrationProfile] = None) -> List[LabeledBlink]:
    """Segment the recording and label every both-eye blink.

    Voluntary iff a button press lies in [offset - 200 ms, offset + 200 ms]
    (inclusive); winks are dropped.
    """
    return _label(rec, core.validated_prefix(rec.frames), profile)


def _label(rec: Recording, columns, profile: Optional[CalibrationProfile]
           ) -> List[LabeledBlink]:
    """`label_blinks` over `core.validated_prefix(rec.frames)`: `BlinkSegmenter.
    step_frame` on the rows `rows_to_step` marks. It raises what `update`
    would over the validated frames (DegenerateDirection for a zero binocular
    gaze on the first or a both-open frame), else the prefix's error."""
    ts, features, error = columns
    seg = BlinkSegmenter(profile)
    rows = np.flatnonzero(seg.rows_to_step(features))
    events = [e for e in map(seg.step_frame, ts[rows].tolist(),
                             *features[rows, 2:].T.tolist(), (rows == 0).tolist())
              if e is not None]
    if error is not None:
        raise error
    presses = np.asarray(sorted(rec.button_presses), dtype=np.int64)
    out: List[LabeledBlink] = []
    for event in events:
        if event.kind is not BlinkKind.BOTH_EYES:
            continue
        lo = np.searchsorted(presses, event.offset_ns - INTENT_MARGIN_NS, side="left")
        hi = np.searchsorted(presses, event.offset_ns + INTENT_MARGIN_NS, side="right")
        label = BlinkLabel.VOLUNTARY if hi > lo else BlinkLabel.INVOLUNTARY
        out.append(LabeledBlink(event, label, None, rec.participant_id))
    return out


def materialize_windows(
    rec: Recording,
    labeled: Sequence[LabeledBlink],
    window_frames: int = DEFAULT_WINDOW_FRAMES,
    lookback: int = DEFAULT_LOOKBACK_FRAMES,
    augment_copies: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> List[LabeledBlink]:
    """Cut each blink's window from the whole recording, in offset order.

    Blinks that end before `window_frames` frames have accumulated (the
    warm-up period) are silently dropped. `augment_copies` adds that many
    randomly shifted (within +/-10 frames, clipped to the recording)
    re-cuts of each window, sharing the original's label; requires `rng`.
    `lookback` is ignored: the recording is validated in one pass and its
    columns copied into one buffer (`HistoryBuffer.from_columns`) whose
    rows never move, so each window and each re-cut is one slice.
    """
    if augment_copies > 0 and rng is None:
        raise ValueError("augmentation requires an rng")
    ts, features = core.validate_columns(rec.frames)
    return _cut(ts, features, labeled, window_frames, augment_copies, rng)


def _cut(ts: np.ndarray, features: np.ndarray, labeled: Sequence[LabeledBlink],
         window_frames: int, augment_copies: int,
         rng: Optional[np.random.Generator]) -> List[LabeledBlink]:
    """`materialize_windows` over a recording's validated columns."""
    buf = HistoryBuffer.from_columns(ts, features, window_frames)
    out: List[LabeledBlink] = []
    for lb in sorted(labeled, key=lambda lb: lb.blink.offset_ns):
        try:
            w = buf.snapshot_at_blink_end(lb.blink)
        except NotReady:
            continue
        out.append(replace(lb, window=w))
        for _ in range(augment_copies):
            out.append(replace(lb, window=buf.augment_shift(lb.blink, rng)))
    return out


def _labeled_windows(rec: Recording, profile: Optional[CalibrationProfile],
                     window_frames: int, augment_copies: int = 0,
                     rng: Optional[np.random.Generator] = None) -> List[LabeledBlink]:
    """`materialize_windows(rec, label_blinks(rec, profile), ...)` with one
    validation of the recording."""
    columns = core.validated_prefix(rec.frames)
    labeled = _label(rec, columns, profile)
    return _cut(columns[0], columns[1], labeled, window_frames, augment_copies, rng)


# --------------------------------------------------------------------------
# splits


# Shares of the participants that validation and test draw when a split's
# sets are not given; training takes the rest (80/10/10).
VAL_FRACTION = 0.1
TEST_FRACTION = 0.1


@dataclass(frozen=True)
class SplitSpec:
    """Participant split: explicit id sets, or none to draw them by the
    VAL_FRACTION and TEST_FRACTION shares (see assign_participants)."""

    train: Optional[FrozenSet[str]] = None
    val: Optional[FrozenSet[str]] = None
    test: Optional[FrozenSet[str]] = None

    def __post_init__(self):
        explicit = [self.train, self.val, self.test]
        if any(s is not None for s in explicit):
            if any(s is None for s in explicit):
                raise ValueError("explicit split sets must all be given")
            if (self.train & self.val) or (self.train & self.test) \
                    or (self.val & self.test):
                raise ValueError("explicit split sets must be pairwise disjoint")

    @property
    def is_explicit(self) -> bool:
        return self.train is not None


def assign_participants(participant_ids: Iterable[str], spec: SplitSpec,
                        seed: int = 0) -> SplitSpec:
    """Resolve ratio-based splitting into explicit disjoint participant sets.

    Validation and test each receive at least one participant
    (max(1, round(VAL_FRACTION * n)), likewise for TEST_FRACTION); training
    takes the remainder.
    """
    pids = sorted(set(participant_ids))
    n = len(pids)
    if n < 3:
        raise TooFewParticipants(f"need >= 3 participants, got {n}")
    if spec.is_explicit:
        claimed = spec.train | spec.val | spec.test
        if claimed != set(pids):
            raise ValueError(
                f"explicit split covers {sorted(claimed)}, data has {pids}"
            )
        return spec
    rng = np.random.default_rng(seed)
    order = [pids[i] for i in rng.permutation(n)]
    n_val = max(1, round(n * VAL_FRACTION))
    n_test = max(1, round(n * TEST_FRACTION))
    if n_val + n_test >= n:
        n_val = n_test = 1
    val = frozenset(order[:n_val])
    test = frozenset(order[n_val:n_val + n_test])
    train = frozenset(order[n_val + n_test:])
    return replace(spec, train=train, val=val, test=test)


def split_by_participant(
    recordings: Iterable[Recording],
    seed: int = 0,
    window_frames: int = DEFAULT_WINDOW_FRAMES,
    augment_copies: int = 0,
    profile: Optional[CalibrationProfile] = None,
) -> Tuple[SplitSpec, List[LabeledBlink], List[LabeledBlink], List[LabeledBlink]]:
    """Label and cut every recording; split the windows 80/10/10 by participant.

    No participant contributes to more than one of (train, val, test). Only
    train windows get `augment_copies` shifted copies, drawn in recording
    order from one `default_rng(seed)`. Returns (split, train, val, test).
    """
    recs = list(recordings)
    spec = assign_participants((r.participant_id for r in recs), SplitSpec(), seed)
    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    for rec in recs:
        pid = rec.participant_id
        bucket = train if pid in spec.train else val if pid in spec.val else test
        bucket.extend(_labeled_windows(
            rec, profile, window_frames,
            augment_copies if bucket is train else 0, rng))
    return spec, train, val, test


# --------------------------------------------------------------------------
# summary statistics


@dataclass(frozen=True)
class DatasetStats:
    n: int
    n_voluntary: int
    n_involuntary: int
    voluntary_fraction: float
    blinks_per_minute: float
    mean_interval_s: float
    mean_duration_ms: float


def dataset_stats(blinks: Sequence[LabeledBlink]) -> DatasetStats:
    n = len(blinks)
    if n == 0:
        return DatasetStats(0, 0, 0, 0.0, 0.0, 0.0, 0.0)
    n_vol = sum(1 for b in blinks if b.label is BlinkLabel.VOLUNTARY)
    events = sorted(blinks, key=lambda b: b.blink.onset_ns)
    span_s = (events[-1].blink.offset_ns - events[0].blink.onset_ns) / 1e9
    per_min = 60.0 * n / span_s if span_s > 0 else 0.0
    interval = span_s / (n - 1) if n > 1 else 0.0
    duration_ms = sum(b.blink.duration_ns for b in blinks) / n / 1e6
    return DatasetStats(
        n=n,
        n_voluntary=n_vol,
        n_involuntary=n - n_vol,
        voluntary_fraction=n_vol / n,
        blinks_per_minute=per_min,
        mean_interval_s=interval,
        mean_duration_ms=duration_ms,
    )
