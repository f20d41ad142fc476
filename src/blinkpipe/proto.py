"""Binary TCP protocol, the prediction server, and the client-side 100 ms
association rule.

Wire format (all little-endian, fixed-size, magic "GZF1"):

    header      magic 4 bytes, msg_type u8
    type 0      gaze frame: timestamp_ns u64, 10 features f32  (53 bytes)
    type 1      prediction: timestamp_ns u64, blink_end_ns u64,
                class u8 (0 = Voluntary, 1 = Involuntary),
                confidence f32                                  (26 bytes)
    type 2      session control: timestamp_ns u64, command u8
                (0 = end session, 1 = reset session state)      (14 bytes)

Validation (and its float32 feature quantization) happens on the producer
side; the server ingests wire features as-is, rejecting only non-finite
ones. A validated frame's feature tuple is exactly the 10 f32 values of a
gaze message, in the same order, so a session fed over TCP and the same
session fed in process see bit-identical inputs and produce identical
predictions.

The server is one `selectors` loop on one thread that feeds each session's
frames to its pipeline in arrival order; backpressure is TCP flow control.
The gaze frames of one socket read are handled as one run: one loop unpacks,
checks and segments them, and their rows reach the history buffer in bulk
copies. In a long run, one numpy pass first marks the rows that need the
loop (`_rows_to_check`), and the loop takes only those.
`SessionPipeline.ingest` is the same work one frame at a time, the
in-process reference the server's output must equal.
"""
from __future__ import annotations

import enum
import functools
import logging
import math
import selectors
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    _TS_MAX,
    BlinkEvent,
    BlinkKind,
    BlinkLabel,
    BlinkPipeError,
    CalibrationProfile,
    DataError,
    FrameValidator,
    GazeFrame,
    NUM_FEATURES,
    NonFiniteFeature,  # re-exported: the wire path raises it
    NonMonotonicTimestamp,
    ValidatedFrame,
    _check_finite,
    _check_timestamp,
)
from .net import BlinkNet, InferencePlan, ShapeMismatch, classify
from .segmenter import BlinkSegmenter
from .sim import replay
from .window import DEFAULT_WINDOW_FRAMES, HistoryBuffer, NotReady

_log = logging.getLogger("blinkpipe.proto")

MAGIC = b"GZF1"
MSG_GAZE = 0
MSG_PREDICTION = 1
MSG_CONTROL = 2

# One layout per message type, the header (magic, type) included; encode,
# decode and the sizes all come from it.
_GAZE = struct.Struct("<4sBQ10f")
_PREDICTION = struct.Struct("<4sBQQBf")
_CONTROL = struct.Struct("<4sBQB")
_LAYOUTS = {MSG_GAZE: _GAZE, MSG_PREDICTION: _PREDICTION, MSG_CONTROL: _CONTROL}
_HEADER_SIZE = struct.calcsize("<4sB")
GAZE_MSG_SIZE = _GAZE.size
PREDICTION_MSG_SIZE = _PREDICTION.size
CONTROL_MSG_SIZE = _CONTROL.size

CONTROL_END = 0
CONTROL_RESET = 1

# A run of whole gaze messages, read as numpy rows.
_GAZE_ROWS = np.dtype([("magic", "<u4"), ("kind", "u1"), ("timestamp_ns", "<u8"),
                       ("features", "<f4", (NUM_FEATURES,))])
_MAGIC_U4 = np.frombuffer(MAGIC, "<u4")[0]
# A run of at least this many frames lists the rows it must take in one numpy
# pass (`_rows_to_check`); shorter runs, such as paced reads of one frame, take
# every row. Near 32 frames the pass costs what the skip saves: with it, reads
# of 16 frames got slower and reads of 48 faster.
_SKIP_MIN_FRAMES = 32

DEFAULT_PORT = 48200
ACCEPT_RETRY_S = 0.1  # pause after a failed accept(), e.g. out of fds
ASSOCIATION_WINDOW_NS = 100_000_000
ASSOCIATION_RETENTION_NS = 10_000_000_000  # how long the client keeps a blink end

WARMUP_POLICIES = ("voluntary", "suppress")


class BadMagic(DataError):
    """Message does not start with the protocol magic."""


class TruncatedMessage(DataError):
    """Fewer bytes than the fixed message size."""


class UnknownType(DataError):
    """Unrecognized message type or enumeration byte."""


class ClientNotReading(BlinkPipeError):
    """The client stopped reading and its socket's send buffer is full."""


@dataclass(frozen=True)
class GazeFrameMsg:
    timestamp_ns: int
    features: Tuple[float, ...]  # canonical 10-feature order, f32 precision

    def __post_init__(self):
        if len(self.features) != NUM_FEATURES:
            raise ValueError(f"expected {NUM_FEATURES} features, got {len(self.features)}")


@dataclass(frozen=True)
class PredictionMsg:
    timestamp_ns: int
    blink_end_ns: int
    label: BlinkLabel
    confidence: float


@dataclass(frozen=True)
class ControlMsg:
    timestamp_ns: int
    command: int

    def __post_init__(self):
        if self.command not in (CONTROL_END, CONTROL_RESET):
            raise ValueError(f"unknown control command {self.command}")


Message = Union[GazeFrameMsg, PredictionMsg, ControlMsg]


def encode(msg: Message) -> bytes:
    if isinstance(msg, GazeFrameMsg):
        return _GAZE.pack(MAGIC, MSG_GAZE, msg.timestamp_ns, *msg.features)
    if isinstance(msg, PredictionMsg):
        return _PREDICTION.pack(MAGIC, MSG_PREDICTION, msg.timestamp_ns,
                                msg.blink_end_ns, msg.label.value, msg.confidence)
    if isinstance(msg, ControlMsg):
        return _CONTROL.pack(MAGIC, MSG_CONTROL, msg.timestamp_ns, msg.command)
    raise TypeError(f"not a protocol message: {type(msg).__name__}")


def decode(data: bytes, offset: int = 0) -> Tuple[Message, int]:
    """Parse one message starting at `offset`; returns (message, next offset)."""
    if len(data) - offset < _HEADER_SIZE:
        raise TruncatedMessage(
            f"{len(data) - offset} bytes, header alone needs {_HEADER_SIZE}"
        )
    magic = data[offset:offset + 4]
    if magic != MAGIC:
        raise BadMagic(f"expected {MAGIC!r}, got {bytes(magic)!r}")
    msg_type = data[offset + 4]
    layout = _LAYOUTS.get(msg_type)
    if layout is None:
        raise UnknownType(f"message type byte {msg_type}")
    if len(data) - offset < layout.size:
        raise TruncatedMessage(
            f"type {msg_type} needs {layout.size} bytes, got {len(data) - offset}"
        )
    vals, end = layout.unpack_from(data, offset), offset + layout.size
    if msg_type == MSG_GAZE:
        return GazeFrameMsg(vals[2], vals[3:]), end
    if msg_type == MSG_PREDICTION:
        _, _, ts, blink_end, cls, conf = vals
        if cls not in (0, 1):
            raise UnknownType(f"prediction class byte {cls}")
        return PredictionMsg(ts, blink_end, BlinkLabel(cls), conf), end
    _, _, ts, command = vals
    if command not in (CONTROL_END, CONTROL_RESET):
        raise UnknownType(f"control command byte {command}")
    return ControlMsg(ts, command), end


def read_message(sock: socket.socket) -> Optional[Message]:
    """Read one whole message from a blocking socket; None on clean EOF."""
    data, need = b"", _HEADER_SIZE
    while len(data) < need:
        chunk = sock.recv(need - len(data))
        if not chunk:
            break  # decode() reports the message as truncated
        data += chunk
        if len(data) == _HEADER_SIZE and data[4] in _LAYOUTS:
            need = _LAYOUTS[data[4]].size  # decode() rejects an unknown type
    return decode(data)[0] if data else None


def gaze_msg_from_frame(frame: ValidatedFrame) -> GazeFrameMsg:
    return GazeFrameMsg(frame.timestamp_ns, frame.values)


def validated_frame_from_msg(msg: GazeFrameMsg) -> ValidatedFrame:
    """Wrap wire features as a validated frame without re-normalizing."""
    _check_timestamp(msg.timestamp_ns)  # the wire carries u64, history rows int64
    _check_finite(msg.timestamp_ns, msg.features)
    # tuple() returns a decoded tuple as it is; from a message built with a
    # list it makes the frame's own immutable copy.
    return ValidatedFrame(msg.timestamp_ns, tuple(msg.features))


def validate_frames(frames: Iterable[GazeFrame]) -> List[ValidatedFrame]:
    v = FrameValidator()
    return [v.validate(f) for f in frames]


# --------------------------------------------------------------------------
# session pipeline (shared by the server and by in-process evaluation)

Net = Union[BlinkNet, InferencePlan]


def _plan_for(net: Net, window_frames: int) -> InferencePlan:
    """`net.for_inference()`, which must take windows of `window_frames`
    frames; otherwise ShapeMismatch."""
    plan = net.for_inference()
    if window_frames * NUM_FEATURES != plan.input_dim:
        raise ShapeMismatch(
            f"a window of {window_frames} frames gives {window_frames * NUM_FEATURES}"
            f" features; the net takes {plan.input_dim}")
    return plan


class SessionPipeline:
    """Segmentation -> history window -> classification for one stream.

    Emits one PredictionMsg per both-eye blink end. During warm-up (buffer
    not yet holding a full window) the prediction is a fallback with
    confidence 0: class Voluntary under the "voluntary" policy (plain
    blink-selection behavior), Involuntary under "suppress". The message
    timestamp is the triggering frame's timestamp, keeping output
    independent of wall clock. The answers come from the net's folded
    `InferencePlan`: `net.for_inference()`, which a `BlinkNet` is made
    into here and a plan already is. A window that does not fit the net is
    a ShapeMismatch here, not at the first full-window blink.
    """

    def __init__(self, net: Net, profile: Optional[CalibrationProfile] = None,
                 window_frames: int = DEFAULT_WINDOW_FRAMES,
                 warmup_policy: str = "voluntary"):
        if warmup_policy not in WARMUP_POLICIES:
            raise ValueError(f"warmup_policy must be one of {WARMUP_POLICIES}")
        self.net = _plan_for(net, window_frames)
        self.warmup_policy = warmup_policy
        self._segmenter = BlinkSegmenter(profile)
        self._buffer = HistoryBuffer(window_frames)

    def ingest(self, frame: ValidatedFrame) -> Optional[PredictionMsg]:
        """One frame at a time: the reference for the server's run loop."""
        self._buffer.push(frame)
        _, event = self._segmenter.update(frame)
        if event is None or event.kind is not BlinkKind.BOTH_EYES:
            return None
        return self._answer(event)

    def _answer(self, event: BlinkEvent) -> PredictionMsg:
        """The prediction for a both-eye blink that ends on the newest frame
        in the buffer, so its offset is also the message timestamp."""
        try:
            window = self._buffer.snapshot_at_blink_end(event)
        except NotReady:
            label = (BlinkLabel.VOLUNTARY if self.warmup_policy == "voluntary"
                     else BlinkLabel.INVOLUNTARY)
            return PredictionMsg(event.offset_ns, event.offset_ns, label, 0.0)
        label, confidence = classify(self.net, window)
        # Confidence is quantized to f32 so the in-process value equals the
        # wire-decoded one bit for bit.
        return PredictionMsg(event.offset_ns, event.offset_ns, label,
                             float(np.float32(confidence)))


def predictions_for_frames(
    frames: Iterable[ValidatedFrame],
    net: Net,
    profile: Optional[CalibrationProfile] = None,
    window_frames: int = DEFAULT_WINDOW_FRAMES,
    warmup_policy: str = "voluntary",
) -> List[PredictionMsg]:
    """In-process reference path: identical output to a TCP session, both
    answering from the plan `net.for_inference()`."""
    pipe = SessionPipeline(net, profile, window_frames, warmup_policy)
    out = []
    for vf in frames:
        pred = pipe.ingest(vf)
        if pred is not None:
            out.append(pred)
    return out


# --------------------------------------------------------------------------
# server


@dataclass
class SessionStats:
    peer: str = ""
    frames_received: int = 0
    frames_dropped: int = 0  # always 0: backpressure is TCP flow control
    predictions_sent: int = 0
    max_queue_depth: int = 0  # most whole frames decoded from one read
    error: Optional[str] = None


@dataclass
class _Connection:
    sock: socket.socket
    stats: SessionStats
    pipeline: SessionPipeline
    buf: bytes = b""  # the start of a message whose rest has not arrived


def _rows_to_check(rows: np.ndarray, last: int, seg: BlinkSegmenter) -> List[int]:
    """The indices, in order, of a gaze run's rows that fail one of the run
    loop's checks (the gaze header, a timestamp within int64 and after the
    previous row's, or after `last` for the first row, ten finite features)
    or that `seg.rows_to_step` marks: the rows the loop cannot skip."""
    ts = rows["timestamp_ns"]
    ok = (rows["magic"] == _MAGIC_U4) & (rows["kind"] == MSG_GAZE)
    ok &= ts <= np.uint64(_TS_MAX)
    ok[0] &= int(ts[0]) > last
    ok[1:] &= ts[1:] > ts[:-1]  # uint64 against uint64: no wrap-around
    # One contiguous float64 row per feature. Ten float32 values cannot overflow
    # their float64 sum, so it is finite exactly when they all are.
    with np.errstate(invalid="ignore"):  # signalling NaN in the cast, inf - inf
        columns = rows["features"].T.astype(np.float64, order="C")
        ok &= np.isfinite(columns.sum(axis=0))
    return np.flatnonzero(~ok | seg.rows_to_step(columns.T)).tolist()


class BlinkServer:
    """TCP prediction server: one `selectors` loop serves every connection.

    Whole messages are handled in arrival order: the gaze frames of one read
    as one run (`_ingest_gaze_run`), any other message by `decode`. A
    prediction goes back with a non-blocking send. Backpressure is TCP flow control, so no frame
    is dropped. A bad client, or one that stops reading until its send buffer
    fills, ends only its own session, with the error in its SessionStats.
    Every session answers from one `InferencePlan`, `net.for_inference()`,
    made once here; a window that does not fit it is a ShapeMismatch here,
    before the server listens, since sessions are built only at accept.
    serve_forever() runs the loop on the calling thread; start() (or `with`)
    runs it on one background thread until stop().
    """

    def __init__(self, net: Net,
                 host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 warmup_policy: str = "voluntary",
                 profile: Optional[CalibrationProfile] = None,
                 window_frames: int = DEFAULT_WINDOW_FRAMES):
        if warmup_policy not in WARMUP_POLICIES:
            raise ValueError(f"warmup_policy must be one of {WARMUP_POLICIES}")
        # Folded once here, not in each session's pipeline.
        self._new_pipeline = functools.partial(
            SessionPipeline, _plan_for(net, window_frames), profile, window_frames,
            warmup_policy)
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self.host, self.port = self._listener.getsockname()[:2]
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._stopping = False
        self._closed = False
        self._close_lock = threading.Lock()
        self._accept_resume_at = math.inf  # set while accepting is paused
        self._thread: Optional[threading.Thread] = None
        self.sessions: List[SessionStats] = []

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    def start(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="blinkpipe-server", daemon=True)
        self._thread.start()

    def serve_forever(self, on_ready: Optional[Callable] = None) -> None:
        """Call on_ready(), then serve until stop(), request_stop() or Ctrl-C
        (also one that lands during on_ready()), then close every connection."""
        try:
            if on_ready is not None:
                on_ready()
            while not self._stopping:
                if time.monotonic() >= self._accept_resume_at:
                    self._accept_resume_at = math.inf
                    self._selector.register(self._listener, selectors.EVENT_READ)
                # The timeout lets a loop started by start() notice stop().
                for key, _ in self._selector.select(0.1):
                    if key.data is None:
                        self._accept()
                    else:
                        self._read(key.data)
        except KeyboardInterrupt:
            pass
        finally:
            self._close()

    def request_stop(self) -> None:
        """Make the loop return at its next pass, within 0.1 s when idle; it
        only sets a flag, so a signal handler may call it."""
        self._stopping = True

    def stop(self) -> None:
        """Stop serving; safe before start() and safe to call twice."""
        self.request_stop()
        # A thread not yet alive will see _stopping before its first select.
        if self._thread is not None and self._thread.is_alive():
            self._thread.join()
        self._close()

    def _close(self) -> None:
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            for key in list(self._selector.get_map().values()):
                if key.data is not None:
                    self._end(key.data)
            self._selector.close()
            self._listener.close()

    def _accept(self) -> None:
        try:
            sock, addr = self._listener.accept()
        except (BlockingIOError, ConnectionError):
            return  # the client gave up before we got to it
        except OSError as e:  # out of fds, say: pause rather than spin
            _log.warning("accept failed, pausing: %s", e)
            self._selector.unregister(self._listener)
            self._accept_resume_at = time.monotonic() + ACCEPT_RETRY_S
            return
        sock.setblocking(False)
        stats = SessionStats(peer=f"{addr[0]}:{addr[1]}")
        self.sessions.append(stats)
        self._selector.register(sock, selectors.EVENT_READ,
                                _Connection(sock, stats, self._new_pipeline()))

    def _read(self, conn: _Connection) -> None:
        """Handle every whole message that has arrived on `conn`: each run
        of gaze messages in one loop, every other message by `decode`."""
        stats = conn.stats
        before = stats.frames_received
        try:
            chunk = conn.sock.recv(65536)
            if not chunk:
                if conn.buf:
                    raise TruncatedMessage(f"EOF {len(conn.buf)} bytes into a message")
                self._end(conn)
                return
            data, off = conn.buf + chunk, 0
            while (off := self._ingest_gaze_run(conn, data, off)) < len(data):
                try:
                    msg, off = decode(data, off)
                except TruncatedMessage:
                    break  # the rest of this message has not arrived yet
                # A run takes every whole gaze message, so this is another kind.
                if isinstance(msg, ControlMsg):
                    if msg.command == CONTROL_END:
                        self._end(conn)
                        return
                    conn.pipeline = self._new_pipeline()
                # clients do not send predictions; ignore them
            conn.buf = data[off:]
        except BlockingIOError:
            pass  # spurious wake-up: nothing to read after all
        except Exception as e:  # any fault ends only this session
            stats.error = f"{type(e).__name__}: {e}"
            _log.warning("session %s terminated: %s", stats.peer, stats.error,
                         exc_info=not isinstance(e, (BlinkPipeError, OSError)))
            self._end(conn)
        finally:
            stats.max_queue_depth = max(stats.max_queue_depth,
                                        stats.frames_received - before)

    def _ingest_gaze_run(self, conn: _Connection, data: bytes, off: int) -> int:
        """Ingest the whole gaze messages at data[off:] up to the first other
        message; returns where they end.

        Each frame gets `validated_frame_from_msg`'s and `SessionPipeline.
        ingest`'s checks, in their order and with their errors, and
        `BlinkSegmenter.step_frame`, save the frames a run of _SKIP_MIN_FRAMES
        or more skips (`_rows_to_check`). Each row reaches the history buffer
        in a bulk copy: up to each both-eye blink end before that blink is
        cut, and at the end of the run. A frame that fails a check still
        counts as received; none after a blink whose answer could not be sent
        does.
        """
        count = (len(data) - off) // GAZE_MSG_SIZE
        if not count:
            return off
        pipe, stats = conn.pipeline, conn.stats
        seg, hist = pipe._segmenter, pipe._buffer
        rows = np.frombuffer(data, _GAZE_ROWS, count, off)
        timestamps, features = rows["timestamp_ns"], rows["features"]
        last = hist.newest_timestamp_ns
        if last is None:
            last = -1  # wire timestamps are unsigned
        todo = (range(count) if count < _SKIP_MIN_FRAMES
                else _rows_to_check(rows, last, seg))
        done = copied = 0  # frames taken from the run / copied into hist
        try:
            for i in todo:
                (magic, kind, ts, lp, rp, lo, ro, lx, ly, lz, rx, ry, rz
                 ) = _GAZE.unpack_from(data, off + i * GAZE_MSG_SIZE)
                if magic != MAGIC or kind != MSG_GAZE:
                    count = i  # the run ends before this message
                    break
                if i > done:  # after skipped rows, which passed every check
                    last = int(timestamps[i - 1])
                done = i + 1
                if ts > _TS_MAX:
                    _check_timestamp(ts)
                # A sum of ten float32 values cannot overflow a float.
                if not math.isfinite(lp + rp + lo + ro + lx + ly + lz + rx + ry + rz):
                    _check_finite(ts, (lp, rp, lo, ro, lx, ly, lz, rx, ry, rz))
                if ts <= last:
                    raise NonMonotonicTimestamp(f"timestamp {ts} not after {last}")
                # last < 0 before the session's first frame.
                event = seg.step_frame(ts, lo, ro, lx, ly, lz, rx, ry, rz, last < 0)
                last = ts
                if event is not None and event.kind is BlinkKind.BOTH_EYES:
                    hist.extend(timestamps[copied:done], features[copied:done])
                    copied = done
                    try:
                        conn.sock.sendall(encode(pipe._answer(event)))
                    except BlockingIOError:
                        raise ClientNotReading("send buffer full") from None
                    stats.predictions_sent += 1
            done = count
        finally:
            stats.frames_received += done
        if done > copied:
            hist.extend(timestamps[copied:done], features[copied:done])
        return off + done * GAZE_MSG_SIZE

    def _end(self, conn: _Connection) -> None:
        self._selector.unregister(conn.sock)
        conn.sock.close()
        _log.info("session %s closed: %d frames, %d predictions",
                  conn.stats.peer, conn.stats.frames_received,
                  conn.stats.predictions_sent)

    def __enter__(self) -> "BlinkServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# --------------------------------------------------------------------------
# client helpers


def replay_over_tcp(address: Tuple[str, int],
                    frames: Sequence[ValidatedFrame],
                    speed_multiplier: float = 0.0,
                    timeout: float = 60.0) -> List[PredictionMsg]:
    """Stream validated frames to a server and collect its predictions.

    speed_multiplier scales real-time pacing (1 = wall-clock cadence);
    0 sends as fast as possible (pacing is `sim.replay`). Returns
    predictions in arrival order, once the server has closed the stream.
    A stream that breaks, such as one with a message that does not decode,
    raises the reader's error; one still open `timeout` seconds after the
    last frame is sent raises TimeoutError.
    """
    paced = replay(frames, speed_multiplier)
    preds: List[PredictionMsg] = []
    failed: List[Exception] = []
    with socket.create_connection(address, timeout=timeout) as sock:
        def reader() -> None:
            try:
                while True:
                    msg = read_message(sock)
                    if msg is None:
                        return
                    if isinstance(msg, PredictionMsg):
                        preds.append(msg)
            except Exception as e:
                failed.append(e)

        t = threading.Thread(target=reader, daemon=True)
        t.start()
        try:
            for vf in paced:
                sock.sendall(encode(gaze_msg_from_frame(vf)))
            last_ts = frames[-1].timestamp_ns if frames else 0
            sock.sendall(encode(ControlMsg(last_ts, CONTROL_END)))
        except OSError:
            t.join(timeout)  # a server that closes on a fault breaks the send
            if not failed:
                raise
        t.join(timeout)
        if t.is_alive():
            raise TimeoutError(
                f"prediction stream still open {timeout} s after the last frame")
    if failed:
        raise failed[0]
    return preds


class AssociationOutcome(enum.Enum):
    ACCEPTED = "accepted"
    STALE = "stale"


class ClientPredictionGate:
    """Client-side rule tying predictions back to locally observed blinks.

    A prediction is accepted iff its blink_end matches a blink the client
    saw AND it arrives within 100 ms of that blink end; otherwise it is
    stale. An accepted Voluntary prediction releases the pending Selection,
    an accepted Involuntary one suppresses it; stale predictions suppress
    by default (no action fires late).
    """

    def __init__(self):
        self._blink_ends: List[int] = []

    def record_blink_end(self, blink_end_ns: int) -> None:
        self._blink_ends.append(blink_end_ns)
        horizon = blink_end_ns - ASSOCIATION_RETENTION_NS
        while self._blink_ends and self._blink_ends[0] < horizon:
            self._blink_ends.pop(0)

    def associate(self, prediction: PredictionMsg,
                  now_ns: int) -> AssociationOutcome:
        if (prediction.blink_end_ns in self._blink_ends
                and abs(now_ns - prediction.blink_end_ns) <= ASSOCIATION_WINDOW_NS):
            return AssociationOutcome.ACCEPTED
        return AssociationOutcome.STALE

    def should_release_selection(self, prediction: PredictionMsg,
                                 now_ns: int) -> bool:
        return (self.associate(prediction, now_ns) is AssociationOutcome.ACCEPTED
                and prediction.label is BlinkLabel.VOLUNTARY)
