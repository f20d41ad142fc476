"""Wire format, session pipeline, TCP server, and the client gate."""
from __future__ import annotations

import _thread
import contextlib
import errno
import math
import os
import selectors
import socket
import struct
import threading
import time

import numpy as np
import pytest

from blinkpipe import proto
from blinkpipe.core import BlinkLabel, CalibrationProfile
from blinkpipe.net import BlinkNet, ModelCheckpoint, ShapeMismatch, load_net
from blinkpipe.proto import (
    _SKIP_MIN_FRAMES,
    ACCEPT_RETRY_S,
    ASSOCIATION_RETENTION_NS,
    ASSOCIATION_WINDOW_NS,
    CONTROL_END,
    CONTROL_RESET,
    CONTROL_MSG_SIZE,
    GAZE_MSG_SIZE,
    MAGIC,
    MSG_CONTROL,
    MSG_GAZE,
    MSG_PREDICTION,
    PREDICTION_MSG_SIZE,
    AssociationOutcome,
    BadMagic,
    BlinkServer,
    ClientNotReading,
    ClientPredictionGate,
    ControlMsg,
    GazeFrameMsg,
    NonFiniteFeature,
    PredictionMsg,
    SessionPipeline,
    SessionStats,
    TruncatedMessage,
    UnknownType,
    decode,
    encode,
    gaze_msg_from_frame,
    predictions_for_frames,
    read_message,
    replay_over_tcp,
    validate_frames,
    validated_frame_from_msg,
)
from blinkpipe.segmenter import BlinkSegmenter
from blinkpipe.sim import SimConfig, generate_session

from conftest import (make_frame, one_connection_server, square_blink_recording,
                      tiny_net, zero_net)


def f32(x: float) -> float:
    return float(np.float32(x))


def random_gaze_msg(rng: np.random.Generator) -> GazeFrameMsg:
    return GazeFrameMsg(
        timestamp_ns=int(rng.integers(0, 2**63)),
        features=tuple(f32(v) for v in rng.normal(size=10)),
    )


def random_message(rng: np.random.Generator):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return random_gaze_msg(rng)
    if kind == 1:
        return PredictionMsg(
            timestamp_ns=int(rng.integers(0, 2**63)),
            blink_end_ns=int(rng.integers(0, 2**63)),
            label=BlinkLabel(int(rng.integers(0, 2))),
            confidence=f32(rng.uniform()),
        )
    return ControlMsg(int(rng.integers(0, 2**63)),
                      int(rng.integers(0, 2)))


class TestEncodeDecode:
    def test_message_sizes(self):
        rng = np.random.default_rng(0)
        assert len(encode(random_gaze_msg(rng))) == GAZE_MSG_SIZE == 53
        pred = PredictionMsg(1, 2, BlinkLabel.VOLUNTARY, 0.5)
        assert len(encode(pred)) == PREDICTION_MSG_SIZE == 26
        assert len(encode(ControlMsg(1, CONTROL_END))) == CONTROL_MSG_SIZE == 14

    def test_roundtrip_every_type(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            msg = random_message(rng)
            got, consumed = decode(encode(msg))
            assert got == msg
            assert consumed == len(encode(msg))

    def test_decode_chains_through_a_buffer(self):
        rng = np.random.default_rng(2)
        msgs = [random_message(rng) for _ in range(20)]
        blob = b"".join(encode(m) for m in msgs)
        off, got = 0, []
        while off < len(blob):
            m, off = decode(blob, off)
            got.append(m)
        assert got == msgs
        assert off == len(blob)

    def test_encode_rejects_foreign_objects(self):
        with pytest.raises(TypeError):
            encode("not a message")

    def test_every_truncation_raises_truncated(self):
        rng = np.random.default_rng(3)
        for msg in (random_gaze_msg(rng),
                    PredictionMsg(5, 6, BlinkLabel.INVOLUNTARY, 0.25),
                    ControlMsg(7, CONTROL_RESET)):
            data = encode(msg)
            for cut in range(len(data)):
                with pytest.raises(TruncatedMessage):
                    decode(data[:cut])

    def test_bad_magic(self):
        data = bytearray(encode(ControlMsg(1, CONTROL_END)))
        data[0] ^= 0xFF
        with pytest.raises(BadMagic):
            decode(bytes(data))

    def test_unknown_type_byte(self):
        base = encode(ControlMsg(1, CONTROL_END))
        for t in (3, 17, 255):
            data = bytearray(base)
            data[4] = t
            with pytest.raises(UnknownType):
                decode(bytes(data))

    def test_unknown_prediction_class_byte(self):
        data = bytearray(encode(PredictionMsg(1, 2, BlinkLabel.VOLUNTARY, 0.5)))
        data[4 + 1 + 8 + 8] = 2
        with pytest.raises(UnknownType):
            decode(bytes(data))

    def test_unknown_control_command_byte(self):
        data = bytearray(encode(ControlMsg(1, CONTROL_END)))
        data[-1] = 9
        with pytest.raises(UnknownType):
            decode(bytes(data))

    def test_fuzzed_corruption_only_raises_typed_errors(self):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            data = bytearray(encode(random_message(rng)))
            for _ in range(int(rng.integers(1, 5))):
                data[int(rng.integers(0, len(data)))] = int(rng.integers(0, 256))
            if rng.uniform() < 0.3:
                data = data[:int(rng.integers(0, len(data) + 1))]
            try:
                msg, _ = decode(bytes(data))
            except (BadMagic, TruncatedMessage, UnknownType):
                continue
            assert isinstance(msg, (GazeFrameMsg, PredictionMsg, ControlMsg))

    def test_trailing_bytes_are_left_for_the_next_call(self):
        data = encode(ControlMsg(1, CONTROL_END)) + b"XYZ"
        msg, off = decode(data)
        assert msg.command == CONTROL_END
        assert off == CONTROL_MSG_SIZE

    def test_gaze_columns_read_what_the_gaze_struct_packs(self):
        # The run loop reads one read's gaze messages twice: as columns
        # through the `_GAZE_ROWS` dtype and frame by frame through `_GAZE`.
        assert proto._GAZE_ROWS.itemsize == proto._GAZE.size == GAZE_MSG_SIZE
        rng = np.random.default_rng(5)
        odd = (math.nan, math.inf, -math.inf, -0.0, 3.4e38, -1e-45)
        timestamps = [0, 1, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1,
                      *rng.integers(0, 2**63, 14).tolist()]
        features = [[f32(v) for v in rng.normal(size=10)] for _ in timestamps]
        for i, row in enumerate(features):
            row[i % 10] = odd[i % len(odd)]
        data = b"".join(proto._GAZE.pack(MAGIC, MSG_GAZE, ts, *row)
                        for ts, row in zip(timestamps, features))
        rows = np.frombuffer(data, proto._GAZE_ROWS)
        assert rows["magic"].tobytes() == MAGIC * len(timestamps)
        assert (rows["magic"] == proto._MAGIC_U4).all()
        assert rows["kind"].tolist() == [MSG_GAZE] * len(timestamps)
        assert rows["timestamp_ns"].tolist() == timestamps
        np.testing.assert_array_equal(rows["features"],
                                      np.array(features, np.float32))
        assert rows["features"].tobytes() == b"".join(
            struct.pack("<10f", *row) for row in features)


class TestFrameBridging:
    def test_validated_frame_survives_the_wire_bit_for_bit(self):
        rng = np.random.default_rng(5)
        frames = []
        for i in range(100):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            frames += validate_frames([make_frame(
                (i + 1) * 1000,
                lopen=float(rng.uniform()),
                ropen=float(rng.uniform()),
                ldir=tuple(float(v) for v in d),
                rdir=(0.0, 0.0, 1.0),
                lpupil=float(rng.uniform(1, 9)),
            )])
        frames += validate_frames([
            make_frame(1000, ldir=(0.0, 0.0, 0.0), valid=False),  # before any valid
            make_frame(2000, lopen=0.3, lpupil=3.3),
            make_frame(3000, lopen=0.9, valid=False),  # forward-filled
        ])
        for vf in frames:
            msg, _ = decode(encode(gaze_msg_from_frame(vf)))
            assert validated_frame_from_msg(msg) == vf

    def test_frame_from_a_list_built_message_is_an_immutable_tuple(self):
        want = validate_frames([make_frame(1000, lopen=0.5)])[0]
        features = list(want.values)
        back = validated_frame_from_msg(GazeFrameMsg(1000, features))
        features[2] = 0.0  # the frame keeps its own copy
        assert type(back.values) is tuple
        assert back == want and hash(back) == hash(want)

    def test_read_message_over_a_socket(self):
        a, b = socket.socketpair()
        rng = np.random.default_rng(6)
        msgs = [random_message(rng) for _ in range(5)]
        for m in msgs:
            a.sendall(encode(m))
        a.close()
        got = []
        while True:
            m = read_message(b)
            if m is None:
                break
            got.append(m)
        b.close()
        assert got == msgs

    def test_read_message_mid_message_close_raises(self):
        a, b = socket.socketpair()
        a.sendall(encode(ControlMsg(1, CONTROL_END))[:9])
        a.close()
        with pytest.raises(TruncatedMessage):
            read_message(b)
        b.close()


class TestSessionPipeline:
    def stream(self, blink_starts, closed=10, n_frames=120):
        rec = square_blink_recording(blink_starts, closed_frames=closed,
                                     n_frames=n_frames)
        return validate_frames(rec.frames)

    def test_warmup_policy_voluntary(self):
        pipe = SessionPipeline(tiny_net(40), window_frames=40,
                               warmup_policy="voluntary")
        preds = [p for p in map(pipe.ingest, self.stream([10])) if p]
        assert len(preds) == 1
        assert preds[0].label is BlinkLabel.VOLUNTARY
        assert preds[0].confidence == 0.0

    def test_warmup_policy_suppress(self):
        pipe = SessionPipeline(tiny_net(40), window_frames=40,
                               warmup_policy="suppress")
        preds = [p for p in map(pipe.ingest, self.stream([10])) if p]
        assert preds[0].label is BlinkLabel.INVOLUNTARY
        assert preds[0].confidence == 0.0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            SessionPipeline(tiny_net(40), warmup_policy="ignore")

    def test_a_window_that_does_not_fit_the_net_fails_at_construction(self):
        # The default 5,000-frame window would only fail at the first blink
        # with a full window, 25 s into a session.
        net = BlinkNet(input_dim=300, stem_width=16, block_dims=((16, 8),))
        for window_frames in (proto.DEFAULT_WINDOW_FRAMES, 29, 31):
            with pytest.raises(ShapeMismatch, match="300"):
                SessionPipeline(net, window_frames=window_frames)
        SessionPipeline(net, window_frames=30)

    def test_post_warmup_prediction_carries_model_output(self):
        pipe = SessionPipeline(tiny_net(40), window_frames=40)
        preds = [p for p in map(pipe.ingest, self.stream([60], n_frames=160))
                 if p]
        assert len(preds) == 1
        p = preds[0]
        assert p.blink_end_ns == 70 * 5_000_000
        assert p.timestamp_ns == p.blink_end_ns
        assert 0.5 <= p.confidence <= 1.0
        assert p.confidence == f32(p.confidence)

    def test_zero_net_predicts_involuntary_at_half_confidence(self):
        net = zero_net(input_dim=40 * 10, stem_width=16, block_dims=((16, 16),))
        pipe = SessionPipeline(net, window_frames=40)
        preds = [p for p in map(pipe.ingest, self.stream([60], n_frames=160))
                 if p]
        assert preds[0].label is BlinkLabel.INVOLUNTARY
        assert preds[0].confidence == 0.5

    def test_winks_never_produce_predictions(self):
        pipe = SessionPipeline(tiny_net(20), window_frames=20)
        frames = [make_frame(i * 5_000_000,
                             lopen=0.0 if 30 <= i < 40 else 1.0)
                  for i in range(80)]
        preds = [p for p in map(pipe.ingest, validate_frames(frames)) if p]
        assert preds == []


class TestServer:
    def test_tcp_session_matches_in_process(self):
        net = tiny_net(30, seed=3)
        rec = square_blink_recording([50, 120, 200], closed_frames=12,
                                     n_frames=300)
        frames = validate_frames(rec.frames)
        want = predictions_for_frames(frames, net, window_frames=30)
        assert len(want) == 3
        with BlinkServer(net, port=0, window_frames=30) as srv:
            got = replay_over_tcp(srv.address, frames)
        assert got == want
        stats = srv.sessions[0]
        assert stats.frames_received == len(frames)
        assert stats.frames_dropped == 0
        assert stats.predictions_sent == 3

    def test_server_of_a_loaded_checkpoint_matches_the_in_memory_net(self, tmp_path):
        # The server answers from the float32 stem `load_net` reads from the
        # file; the in-process reference casts the float64 net it is given.
        net = BlinkNet(input_dim=500 * 10, stem_width=16,
                       block_dims=((16, 16), (16, 8)), seed=6)
        path = tmp_path / "model.bnet"
        ModelCheckpoint.from_net(net, 0, 0.0).save(path)
        rec, _ = generate_session(SimConfig(seed=22, duration_s=60.0))
        frames = validate_frames(rec.frames)
        want = predictions_for_frames(frames, net, window_frames=500)
        served = load_net(path)
        assert served.stem[0].dtype == np.float32
        with BlinkServer(served, port=0, window_frames=500) as srv:
            got = replay_over_tcp(srv.address, frames)
        assert got == want
        assert sum(p.confidence > 0.0 for p in want) >= 20
        assert net.stem_lin.weight.value.dtype == np.float64

    def test_a_window_that_does_not_fit_the_net_fails_before_listening(self,
                                                                        monkeypatch):
        # The server builds each session's pipeline only at accept, so it
        # checks the window itself, before it opens its listener.
        def listen(*args, **kwargs):
            raise AssertionError("the server listened before it checked its window")

        monkeypatch.setattr(socket, "create_server", listen)
        net = BlinkNet(input_dim=300, stem_width=16, block_dims=((16, 8),))
        with pytest.raises(ShapeMismatch, match="300"):
            BlinkServer(net, port=0)
        with pytest.raises(ShapeMismatch, match="300"):
            BlinkServer(net.for_inference(), port=0, window_frames=31)

    def test_reset_control_restarts_warmup(self):
        net = tiny_net(20, seed=4)
        rec1 = square_blink_recording([40], closed_frames=10, n_frames=80)
        first = validate_frames(rec1.frames)
        base = 80 * 5_000_000
        second_frames = [
            make_frame(base + i * 5_000_000,
                       lopen=0.0 if 3 <= i < 8 else 1.0,
                       ropen=0.0 if 3 <= i < 8 else 1.0)
            for i in range(20)
        ]
        second = validate_frames(second_frames)
        with BlinkServer(net, port=0, window_frames=20) as srv:
            with socket.create_connection(srv.address, timeout=30) as sock:
                for vf in first:
                    sock.sendall(encode(gaze_msg_from_frame(vf)))
                sock.sendall(encode(ControlMsg(first[-1].timestamp_ns,
                                               CONTROL_RESET)))
                for vf in second:
                    sock.sendall(encode(gaze_msg_from_frame(vf)))
                sock.sendall(encode(ControlMsg(second[-1].timestamp_ns,
                                               CONTROL_END)))
                preds = []
                while True:
                    m = read_message(sock)
                    if m is None:
                        break
                    preds.append(m)
        assert len(preds) == 2
        assert preds[0].confidence > 0.0
        assert preds[1].confidence == 0.0

    def test_garbage_connection_terminates_session_not_server(self):
        net = tiny_net(20, seed=5)
        with BlinkServer(net, port=0, window_frames=20) as srv:
            with socket.create_connection(srv.address, timeout=30) as sock:
                sock.sendall(b"NOPE" + bytes(30))
            rec = square_blink_recording([40], closed_frames=10, n_frames=90)
            frames = validate_frames(rec.frames)
            got = replay_over_tcp(srv.address, frames)
        assert len(got) == 1
        assert any(s.error and "BadMagic" in s.error for s in srv.sessions)

    @pytest.mark.parametrize("then_close", [False, True])
    def test_replay_raises_the_error_of_a_broken_prediction_stream(self, then_close):
        # Closed at once, the server also breaks the replay's sends.
        rec, _ = generate_session(SimConfig(seed=1, duration_s=10.0))
        frames = validate_frames(rec.frames)
        with one_connection_server(b"GARBAGE" * 8, then_close) as address:
            with pytest.raises(BadMagic):
                replay_over_tcp(address, frames)

    def test_replay_raises_timeout_when_the_stream_stays_open(self):
        frames = validate_frames(square_blink_recording([40], n_frames=90).frames)
        with one_connection_server(b"") as address:
            with pytest.raises(TimeoutError):
                replay_over_tcp(address, frames, timeout=0.3)


def read_to_eof(sock: socket.socket) -> list:
    msgs = []
    while True:
        m = read_message(sock)
        if m is None:
            return msgs
        msgs.append(m)


def frame_payload(frames) -> bytes:
    return b"".join(encode(gaze_msg_from_frame(vf)) for vf in frames)


def end_payload(frames) -> bytes:
    return encode(ControlMsg(frames[-1].timestamp_ns, CONTROL_END))


class TestServerFaults:
    """A bad client ends only its own session, with a typed error."""

    def run_beside_healthy(self, bad_payload: bytes):
        net = tiny_net(30, seed=3)
        rec = square_blink_recording([50, 120, 200], closed_frames=12,
                                     n_frames=300)
        frames = validate_frames(rec.frames)
        want = predictions_for_frames(frames, net, window_frames=30)
        payload = frame_payload(frames)
        half = len(payload) // 2 + 7  # mid-message, so the server must buffer
        with BlinkServer(net, port=0, window_frames=30) as srv:
            with socket.create_connection(srv.address, timeout=5) as good, \
                    socket.create_connection(srv.address, timeout=5) as bad:
                good.sendall(payload[:half])
                bad.sendall(bad_payload)
                # The server must close the bad connection; a hang times out.
                assert bad.recv(1024) == b""
                good.sendall(payload[half:] + end_payload(frames))
                assert read_to_eof(good) == want
        errors = [s.error for s in srv.sessions]
        assert len(errors) == 2 and errors.count(None) == 1
        healthy = srv.sessions[errors.index(None)]
        assert healthy.frames_received == len(frames)
        assert healthy.predictions_sent == len(want)
        return next(e for e in errors if e is not None)

    def frame_msgs(self, n: int):
        feats = validate_frames([make_frame(0)])[0].values
        return [GazeFrameMsg(i * 5_000_000, feats) for i in range(n)]

    def test_duplicate_timestamp_ends_only_its_session(self):
        msgs = self.frame_msgs(6)
        msgs.insert(3, msgs[2])
        error = self.run_beside_healthy(b"".join(map(encode, msgs)))
        assert error.startswith("NonMonotonicTimestamp: ")

    @pytest.mark.parametrize("bad_value", [math.nan, math.inf, -math.inf])
    def test_non_finite_feature_ends_only_its_session(self, bad_value):
        msgs = self.frame_msgs(6)
        msgs[3] = GazeFrameMsg(msgs[3].timestamp_ns,
                               (bad_value,) + msgs[3].features[1:])
        error = self.run_beside_healthy(b"".join(map(encode, msgs)))
        assert error.startswith("NonFiniteFeature: ")

    def test_timestamp_beyond_int64_ends_only_its_session(self):
        # The wire timestamp is u64; the history buffer stores int64.
        msgs = self.frame_msgs(6)
        msgs[3] = GazeFrameMsg(2**63, msgs[3].features)
        error = self.run_beside_healthy(b"".join(map(encode, msgs)))
        assert error.startswith("TimestampOutOfRange: ")

    def test_full_send_buffer_ends_the_session(self, monkeypatch):
        sendall = socket.socket.sendall

        def full_on_server(sock, data, *args):
            if sock.gettimeout() == 0.0:  # the server's non-blocking sockets
                raise BlockingIOError
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", full_on_server)
        net = tiny_net(20, seed=5)
        rec = square_blink_recording([40], closed_frames=10, n_frames=90)
        frames = validate_frames(rec.frames)
        with BlinkServer(net, port=0, window_frames=20) as srv:
            with socket.create_connection(srv.address, timeout=5) as sock:
                sock.sendall(frame_payload(frames) + end_payload(frames))
                assert sock.recv(1024) == b""
        (stats,) = srv.sessions
        assert stats.error.startswith("ClientNotReading: ")
        assert stats.predictions_sent == 0

    def test_non_finite_wire_feature_is_rejected(self):
        msg = self.frame_msgs(1)[0]
        for i in range(10):
            bad = msg.features[:i] + (math.nan,) + msg.features[i + 1:]
            back, _ = decode(encode(GazeFrameMsg(1, bad)))  # decode keeps it
            with pytest.raises(NonFiniteFeature):
                validated_frame_from_msg(back)


class TestServerLoop:
    def test_sixteen_sessions_share_one_server_thread(self):
        net = tiny_net(30, seed=6)
        rec = square_blink_recording([50, 120], closed_frames=12, n_frames=200)
        frames = validate_frames(rec.frames)
        want = predictions_for_frames(frames, net, window_frames=30)
        before = threading.active_count()
        with BlinkServer(net, port=0, window_frames=30) as srv:
            socks = [socket.create_connection(srv.address, timeout=5)
                     for _ in range(16)]
            for sock in socks:
                sock.sendall(frame_payload(frames))
            deadline = time.monotonic() + 5
            while len(srv.sessions) < 16 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(srv.sessions) == 16
            assert threading.active_count() == before + 1
            for sock in socks:
                sock.sendall(end_payload(frames))
            got = [read_to_eof(sock) for sock in socks]
            for sock in socks:
                sock.close()
        assert threading.active_count() == before
        assert got == [want] * 16
        for s in srv.sessions:
            assert s.error is None and s.frames_dropped == 0
            assert 1 <= s.max_queue_depth <= len(frames)

    def test_failed_accept_pauses_then_serves(self, monkeypatch):
        accept = socket.socket.accept
        calls = []

        def out_of_fds_once(sock):
            calls.append(time.monotonic())
            if len(calls) == 1:
                raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
            return accept(sock)

        monkeypatch.setattr(socket.socket, "accept", out_of_fds_once)
        net = tiny_net(20, seed=8)
        rec = square_blink_recording([40], closed_frames=10, n_frames=90)
        frames = validate_frames(rec.frames)
        want = predictions_for_frames(frames, net, window_frames=20)
        with BlinkServer(net, port=0, window_frames=20) as srv:
            with socket.create_connection(srv.address, timeout=5) as sock:
                sock.sendall(frame_payload(frames) + end_payload(frames))
                assert read_to_eof(sock) == want
        # One failure, then one retry after the pause: no busy loop.
        assert len(calls) == 2
        assert calls[1] - calls[0] >= ACCEPT_RETRY_S
        (stats,) = srv.sessions
        assert stats.error is None

    def test_stop_before_start_twice(self):
        srv = BlinkServer(tiny_net(20), port=0, window_frames=20)
        srv.stop()
        srv.stop()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(srv.address, timeout=5)

    def test_stop_after_start_interrupted_before_the_thread_ran(self,
                                                                 monkeypatch):
        srv = BlinkServer(tiny_net(20), port=0, window_frames=20)

        def interrupted(thread):
            raise KeyboardInterrupt

        monkeypatch.setattr(threading.Thread, "start", interrupted)
        with pytest.raises(KeyboardInterrupt):
            srv.start()
        monkeypatch.undo()
        srv.stop()
        srv.stop()

    def test_stop_twice_after_serving(self):
        with BlinkServer(tiny_net(20), port=0, window_frames=20) as srv:
            pass
        srv.stop()

    def test_ctrl_c_ends_serve_forever_on_the_calling_thread(self):
        srv = BlinkServer(tiny_net(20), port=0, window_frames=20)
        timer = threading.Timer(0.3, _thread.interrupt_main)
        timer.start()
        srv.serve_forever()  # returns once the interrupt lands
        timer.join()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(srv.address, timeout=5)

    def test_ctrl_c_as_the_server_is_announced_stops_cleanly(self):
        srv = BlinkServer(tiny_net(20), port=0, window_frames=20)

        def announce():
            raise KeyboardInterrupt  # lands just after the address is shown

        srv.serve_forever(on_ready=announce)
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(srv.address, timeout=5)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd to count open files")
    def test_thousand_sessions_leak_no_threads_or_fds(self):
        net = tiny_net(10, seed=7)
        rec = square_blink_recording([20], closed_frames=5, n_frames=40)
        frames = validate_frames(rec.frames)
        payload = frame_payload(frames) + end_payload(frames)

        def fds() -> int:
            return len(os.listdir("/proc/self/fd"))

        with BlinkServer(net, port=0, window_frames=10) as srv:
            threads, files = threading.active_count(), fds()
            t0 = time.monotonic()
            for _ in range(1000):
                with socket.create_connection(srv.address, timeout=5) as sock:
                    sock.sendall(payload)
                    while sock.recv(4096):
                        pass
                assert time.monotonic() - t0 < 120
            # The server may still be between shutdown() and close().
            deadline = time.monotonic() + 5
            while fds() != files and time.monotonic() < deadline:
                time.sleep(0.01)
            assert fds() == files
            assert threading.active_count() == threads
        assert len(srv.sessions) == 1000
        assert all(s.error is None and s.frames_received == len(frames)
                   for s in srv.sessions)


class _SendFailsAt(socket.socket):
    """A server-side socket whose `fail_at`-th send finds its buffer full."""

    def __init__(self, fileno: int, fail_at: int):
        super().__init__(fileno=fileno)
        self.fail_at = fail_at

    def sendall(self, data, *args):
        self.fail_at -= 1
        if self.fail_at == 0:
            raise BlockingIOError
        return super().sendall(data, *args)


class PerFrameServer(BlinkServer):
    """The per-frame reference for `BlinkServer._read`: `decode` for every
    message, then `validated_frame_from_msg` and `SessionPipeline.ingest`
    for each gaze frame."""

    def _read(self, conn):
        stats = conn.stats
        before = stats.frames_received
        try:
            data = conn.sock.recv(65536)
            if not data:
                if conn.buf:
                    raise TruncatedMessage(f"EOF {len(conn.buf)} bytes into a message")
                self._end(conn)
                return
            buf, off = conn.buf + data, 0
            while True:
                try:
                    msg, off = decode(buf, off)
                except TruncatedMessage:
                    break
                if isinstance(msg, GazeFrameMsg):
                    stats.frames_received += 1
                    pred = conn.pipeline.ingest(validated_frame_from_msg(msg))
                    if pred is not None:
                        try:
                            conn.sock.sendall(encode(pred))
                        except BlockingIOError:
                            raise ClientNotReading("send buffer full") from None
                        stats.predictions_sent += 1
                elif isinstance(msg, ControlMsg):
                    if msg.command == CONTROL_END:
                        self._end(conn)
                        return
                    conn.pipeline = self._new_pipeline()
            conn.buf = buf[off:]
        except BlockingIOError:
            pass
        except Exception as e:
            stats.error = f"{type(e).__name__}: {e}"
            self._end(conn)
        finally:
            stats.max_queue_depth = max(stats.max_queue_depth,
                                        stats.frames_received - before)


_GAZE_PACK = struct.Struct("<4sBQ10f")
# What can go wrong on one frame, in the order the checks meet it, and the
# other messages and faults a run of gaze frames stops at.
_FRAME_FAULTS = ("ts_past_int64", "nan", "inf", "-inf", "ts_repeat", "ts_back",
                 "cancel_open")
_FAULTS = _FRAME_FAULTS + ("cancel_first", "bad_magic", "unknown_type",
                           "bad_control", "bad_prediction", "end",
                           "eof_mid_message", "send_fails", None)


def _unit(rng) -> list:
    v = rng.normal(size=3)
    return list(v / np.linalg.norm(v))


def _with_frame_faults(rng, faults, feats: list, t: int, prev_ts) -> int:
    """Apply the frame faults in `faults` to one frame's features (in place)
    and timestamp; returns the timestamp."""
    for bad in ("nan", "inf", "-inf"):
        if bad in faults:
            feats[int(rng.integers(10))] = float(bad)
    if "ts_past_int64" in faults:
        t = int(rng.choice([2**63, 2**64 - 1]))
    if "ts_repeat" in faults and prev_ts is not None:
        t = prev_ts
    if "ts_back" in faults and prev_ts is not None:
        t = max(0, prev_ts - int(rng.integers(1, 10**9)))
    if {"cancel_first", "cancel_open"} & faults:
        feats[2] = feats[3] = 1.0
        feats[7:10] = [-x for x in feats[4:7]]
    return t


def random_wire_stream(rng):
    """One session's bytes and the prediction send that fails (or 0).

    Gaze frames with both-eye blinks and winks; at random, RESET, prediction
    messages and gaze pairs that cancel on a closed frame (an error only on
    a session's first frame); and one fault from _FAULTS at a random frame,
    sometimes with a second from _FRAME_FAULTS on the same frame.
    """
    n = int(rng.choice([int(rng.integers(1, 60)), int(rng.integers(60, 500)),
                        int(rng.integers(500, 1500))]))
    faults = {_FAULTS[int(rng.integers(len(_FAULTS)))]}
    if rng.random() < 0.3:
        faults.add(_FRAME_FAULTS[int(rng.integers(len(_FRAME_FAULTS)))])
    at = 0 if "cancel_first" in faults else int(rng.integers(n))
    ts = int(rng.integers(0, 2**40))
    if rng.random() < 0.1:  # near the top of the int64 range
        ts = 2**63 - int(rng.integers(1, 2 * n + 2)) * 5_000_000
    out, closed_left, closed_right, prev_ts = [], 0, 0, None
    for i in range(n):
        if not (closed_left or closed_right) and rng.random() < 0.06:
            length = int(rng.integers(1, 9))
            eyes = int(rng.integers(3))  # both, left only, right only
            closed_left = length if eyes != 2 else 0
            closed_right = length if eyes != 1 else 0
        lo = float(rng.uniform(0, 0.2)) if closed_left else float(rng.uniform(0.7, 1))
        ro = float(rng.uniform(0, 0.2)) if closed_right else float(rng.uniform(0.7, 1))
        ldir, rdir = _unit(rng), _unit(rng)
        if (closed_left or closed_right) and rng.random() < 0.1:
            rdir = [-x for x in ldir]
        closed_left, closed_right = max(0, closed_left - 1), max(0, closed_right - 1)
        feats = [float(rng.uniform(2, 6)), float(rng.uniform(2, 6)), lo, ro,
                 *ldir, *rdir]
        here = faults if i == at else set()
        t = _with_frame_faults(rng, here, feats, ts + i * 5_000_000, prev_ts)
        if t > 2**64 - 1:
            break  # a stream that ran off the u64 range stops here
        msg = _GAZE_PACK.pack(MAGIC, 0, t, *feats)
        if "bad_magic" in here:
            msg = b"NOPE" + msg[4:]
        if "unknown_type" in here:
            msg = MAGIC + bytes([int(rng.integers(3, 256))]) + msg[5:]
        if "bad_control" in here:
            out.append(MAGIC + bytes([MSG_CONTROL]) + bytes(8) + b"\x07")
        if "bad_prediction" in here:
            out.append(MAGIC + bytes([MSG_PREDICTION]) + bytes(16) + b"\x05"
                       + bytes(4))
        if "end" in here:
            out.append(encode(ControlMsg(t, CONTROL_END)))
        if rng.random() < 0.01:
            out.append(encode(ControlMsg(t, CONTROL_RESET)))
        if rng.random() < 0.01:
            out.append(encode(PredictionMsg(t, t, BlinkLabel.VOLUNTARY, 0.5)))
        out.append(msg)
        prev_ts = t
    stream = b"".join(out)
    if "eof_mid_message" in faults:
        stream = stream[:len(stream) - int(rng.integers(1, 53))]
    fail_at = int(rng.integers(1, 4)) if "send_fails" in faults else 0
    return stream, fail_at


def random_cuts(rng, stream: bytes) -> list:
    """The stream cut into reads of 1 byte up to 64 KB."""
    cuts, off = [], 0
    while off < len(stream):
        hi = int(rng.choice([54, 2000, 65537]))
        size = int(rng.integers(1, hi))
        cuts.append(stream[off:off + size])
        off += size
    return cuts


def serve_cuts(srv: BlinkServer, cuts: list, fail_at: int):
    """Drive `srv._read` over a socketpair, one call per cut, then EOF;
    returns the bytes sent back and the session's stats."""
    client, server = socket.socketpair()
    server.setblocking(False)
    sock = _SendFailsAt(server.detach(), fail_at)
    conn = proto._Connection(sock, SessionStats(), srv._new_pipeline())
    srv._selector.register(sock, selectors.EVENT_READ, conn)
    back = bytearray()
    with client:
        for cut in cuts + [None]:
            if sock.fileno() == -1:
                break  # the server ended the session
            if cut is None:
                client.shutdown(socket.SHUT_WR)
            else:
                client.sendall(cut)
            srv._read(conn)
            client.setblocking(False)
            try:
                while chunk := client.recv(65536):
                    back += chunk
            except (BlockingIOError, ConnectionResetError):
                pass  # all read, or the server closed with bytes unread
            client.setblocking(True)
    return bytes(back), conn.stats


def openness_wire_stream(rng, openness, faults=None, t0: int = 10**12) -> bytes:
    """Gaze messages on the 200 Hz grid with the given (left, right)
    openness per frame and random unit gaze; `faults` maps a frame index to
    a set of names from _FRAME_FAULTS."""
    out, prev_ts = [], None
    for i, (lo, ro) in enumerate(openness):
        feats = [float(rng.uniform(2, 6)), float(rng.uniform(2, 6)), lo, ro,
                 *_unit(rng), *_unit(rng)]
        t = _with_frame_faults(rng, (faults or {}).get(i, set()), feats,
                               t0 + i * 5_000_000, prev_ts)
        out.append(_GAZE_PACK.pack(MAGIC, 0, t, *feats))
        prev_ts = t
    return b"".join(out)


def frame_cuts(stream: bytes, sizes) -> list:
    """The stream cut into reads of whole frames, cycling through `sizes`."""
    cuts, off, i = [], 0, 0
    while off < len(stream):
        n = sizes[i % len(sizes)] * GAZE_MSG_SIZE
        cuts.append(stream[off:off + n])
        off, i = off + n, i + 1
    return cuts


_OPEN, _SHUT = (0.9, 0.9), (0.1, 0.1)


@contextlib.contextmanager
def server_pair(profile=None):
    """A run-loop server and the per-frame reference on one tiny net
    (window 17) with the given calibration profile."""
    net = tiny_net(17, seed=17)
    pair = (BlinkServer(net, port=0, window_frames=17, profile=profile),
            PerFrameServer(net, port=0, window_frames=17, profile=profile))
    try:
        yield pair
    finally:
        for srv in pair:
            srv.stop()


@pytest.fixture
def step_calls(monkeypatch):
    """A counter of `BlinkSegmenter.step` calls, made by either path."""
    calls = [0]
    step = BlinkSegmenter.step

    def counting(self, *args):
        calls[0] += 1
        return step(self, *args)

    monkeypatch.setattr(BlinkSegmenter, "step", counting)
    return calls


class TestGazeRuns:
    """The server's run loop against the per-frame reference, over random
    wire streams cut into random reads, and over streams built to meet the
    edges of its quiet-frame skip."""

    @pytest.fixture
    def servers(self):
        with server_pair() as pair:
            yield pair

    @staticmethod
    def skipped_vs_reference(servers, step_calls, cuts, fail_at=0) -> int:
        """Serve `cuts` on both servers and check the run loop's bytes and
        stats against the reference; returns how many frames the run loop
        took without a `step` (skipped, plus one that failed before it)."""
        before = step_calls[0]
        got_bytes, got = serve_cuts(servers[0], cuts, fail_at)
        steps = step_calls[0] - before
        want_bytes, want = serve_cuts(servers[1], cuts, fail_at)
        assert (got_bytes, got) == (want_bytes, want)
        return got.frames_received - steps

    def test_run_loop_matches_per_frame_reference(self):
        rng = np.random.default_rng(20261018)
        servers = {}
        errors = set()
        sent = 0
        try:
            for _ in range(200):
                window = int(rng.choice([4, 17, 40]))
                if window not in servers:
                    net = tiny_net(window, seed=window)
                    servers[window] = (
                        BlinkServer(net, port=0, window_frames=window),
                        PerFrameServer(net, port=0, window_frames=window))
                stream, fail_at = random_wire_stream(rng)
                cuts = random_cuts(rng, stream)
                runs, ref = (serve_cuts(srv, cuts, fail_at)
                             for srv in servers[window])
                assert runs[0] == ref[0]
                got, want = runs[1], ref[1]
                assert (got.frames_received, got.predictions_sent,
                        got.max_queue_depth, got.error) == (
                    want.frames_received, want.predictions_sent,
                    want.max_queue_depth, want.error)
                errors.add(want.error and want.error.split(":")[0])
                sent += want.predictions_sent
        finally:
            for pair in servers.values():
                for srv in pair:
                    srv.stop()
        assert errors >= {None, "NonFiniteFeature", "TimestampOutOfRange",
                          "NonMonotonicTimestamp", "DegenerateDirection",
                          "BadMagic", "UnknownType", "ClientNotReading",
                          "TruncatedMessage"}
        assert sent > 100

    @pytest.mark.parametrize("fault", _FRAME_FAULTS)
    def test_skip_stops_at_a_fault_on_either_end_of_a_quiet_stretch(
            self, servers, step_calls, fault):
        rng = np.random.default_rng(sum(map(ord, fault)))
        length = 2 * _SKIP_MIN_FRAMES + 3
        openness = ([_OPEN] * 5 + [_SHUT] * 6 + [_OPEN] * length + [_SHUT] * 6
                    + [_OPEN] * length)
        skipped = 0
        for at in (11, 11 + length - 1):  # the stretch's first and last frame
            stream = openness_wire_stream(rng, openness, {at: {fault}})
            # One read; a read that starts on the fault; one that ends on it.
            for cuts in ([stream], frame_cuts(stream, [at, len(openness)]),
                         frame_cuts(stream, [at + 1, len(openness)]),
                         random_cuts(rng, stream)):
                skipped += self.skipped_vs_reference(servers, step_calls, cuts)
        assert skipped > 2 * _SKIP_MIN_FRAMES

    def test_closures_at_and_across_read_boundaries(self, servers, step_calls):
        rng = np.random.default_rng(5)
        t = _SKIP_MIN_FRAMES
        openness = ([_OPEN] * 2 * t + [_SHUT] * 7 + [_OPEN] * 2 * t
                    + [(0.1, 0.9)] * 4 + [_OPEN] * 2 * t + [_SHUT] * 9 + [_OPEN] * t)
        stream = openness_wire_stream(rng, openness)
        first_closure = 2 * t
        skipped = 0
        for sizes in ([first_closure, 4 * t],          # a read starts on a closure
                      [first_closure + 3, 4 * t],      # a read ends inside one
                      [first_closure + 7, 4 * t],      # a read starts on a reopen
                      [t + 1, t, t + 2], [3 * t]):
            skipped += self.skipped_vs_reference(servers, step_calls,
                                                 frame_cuts(stream, sizes))
        assert skipped > 10 * t

    @pytest.mark.parametrize("profile", [
        CalibrationProfile(),
        CalibrationProfile(0.55, 0.62, 0.1),
        CalibrationProfile(0.3, 0.8, 0.0),
    ])
    def test_openness_at_the_float32_threshold(self, step_calls, profile):
        with server_pair(profile) as servers:
            rng = np.random.default_rng(9)
            thresholds = np.float32([profile.closed_threshold_left,
                                     profile.closed_threshold_right])
            # The wire's nearest values (0.7 rounds down, 0.55 up), and the
            # float32 values on either side of them.
            at, below, above = (tuple(v.tolist()) for v in (
                thresholds, np.nextafter(thresholds, np.float32(0)),
                np.nextafter(thresholds, np.float32(1))))
            t = _SKIP_MIN_FRAMES
            openness = ([_OPEN] * t + [at] + [_OPEN] * t + [at] * 3 + [above] * t
                        + [(at[0], 0.9)] * 3 + [_OPEN] * t + [(0.9, at[1])] * 3
                        + [_OPEN] * t + [below] * 3 + [above] * t
                        + [(below[0], 0.9)] + [_OPEN] * t)
            stream = openness_wire_stream(rng, openness)
            skipped = 0
            for cuts in ([stream], frame_cuts(stream, [t + 5]), random_cuts(rng, stream)):
                skipped += self.skipped_vs_reference(servers, step_calls, cuts)
        assert skipped > 3 * t

    def test_random_streams_with_a_calibrated_profile(self, step_calls):
        rng = np.random.default_rng(77)
        skipped = 0
        with server_pair(CalibrationProfile(0.45, 0.8, 0.12)) as servers:
            for _ in range(40):
                stream, fail_at = random_wire_stream(rng)
                skipped += self.skipped_vs_reference(
                    servers, step_calls, random_cuts(rng, stream), fail_at)
        assert skipped > 1000

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_reads_at_the_skip_threshold(self, servers, step_calls, offset):
        rng = np.random.default_rng(3)
        t = _SKIP_MIN_FRAMES
        openness = []
        for i in range(12):  # blinks, a wink and quiet stretches of odd lengths
            openness += [_OPEN] * (t + 7 * i) + ([(0.9, 0.1)] if i == 5 else [_SHUT]) * 5
        stream = openness_wire_stream(rng, openness)
        cuts = frame_cuts(stream, [t + offset])
        skipped = self.skipped_vs_reference(servers, step_calls, cuts)
        assert (skipped > 0) == (offset >= 0)


class TestClientGate:
    def test_acceptance_window_is_inclusive(self):
        gate = ClientPredictionGate()
        end = 10_000_000_000
        gate.record_blink_end(end)
        pred = PredictionMsg(end, end, BlinkLabel.VOLUNTARY, 0.9)
        assert gate.associate(pred, end + ASSOCIATION_WINDOW_NS) \
            is AssociationOutcome.ACCEPTED
        assert gate.associate(pred, end + ASSOCIATION_WINDOW_NS + 1) \
            is AssociationOutcome.STALE

    def test_unseen_blink_end_is_stale(self):
        gate = ClientPredictionGate()
        gate.record_blink_end(1_000_000)
        pred = PredictionMsg(2_000_000, 2_000_000, BlinkLabel.VOLUNTARY, 0.9)
        assert gate.associate(pred, 2_000_000) is AssociationOutcome.STALE

    def test_release_requires_accepted_voluntary(self):
        gate = ClientPredictionGate()
        end = 5_000_000_000
        gate.record_blink_end(end)
        vol = PredictionMsg(end, end, BlinkLabel.VOLUNTARY, 0.9)
        invol = PredictionMsg(end, end, BlinkLabel.INVOLUNTARY, 0.9)
        assert gate.should_release_selection(vol, end + 1_000_000)
        assert not gate.should_release_selection(invol, end + 1_000_000)
        assert not gate.should_release_selection(
            vol, end + ASSOCIATION_WINDOW_NS + 1)

    def test_old_blink_ends_are_pruned(self):
        gate = ClientPredictionGate()
        gate.record_blink_end(0)
        gate.record_blink_end(2 * ASSOCIATION_RETENTION_NS)
        pred = PredictionMsg(0, 0, BlinkLabel.VOLUNTARY, 0.9)
        assert gate.associate(pred, 50_000_000) is AssociationOutcome.STALE
