"""The serving workloads: `live_paced` and `ingest_flood`.

The program under test is `blinkpipe serve`, started through
serve_launcher.py in its own process. This process is the load generator:
one sending thread (the caller) and one receiving thread, with at most two
connections open at once. Inputs are simulated sessions made from the
workload seed; the server receives only their wire frames.

Every received prediction is checked against ``predictions_for_frames`` on
the same frames with the same network (the in-process reference the server
must match bit for bit); each mismatch, missing or extra prediction, dropped
frame and errored session counts as a failed operation.
"""
from __future__ import annotations

import contextlib
import gc
import os
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Dict, List, Optional, Sequence, Tuple

import common

GATE_MS = 100.0
# A live_paced run is invalid when the generator sends frames later than
# this behind schedule (99th percentile): its latencies would then measure
# the generator, not the server.
GEN_LAG_P99_LIMIT_MS = 20.0
# The two paced sessions are offset by half a frame so their sends interleave.
SESSION_OFFSET_NS = 2_500_000
FLOOD_WRITE_BYTES = 1 << 16
# A flood session stops waiting for a blink's answer after this long; the
# missing answer then fails the output check.
ANSWER_WAIT_S = 10.0
IO_TIMEOUT_S = 120.0
STOP_GRACE_S = 0.5


@dataclass(frozen=True)
class ServingConfig:
    window_frames: int = 5000  # full production net: 50,000 inputs
    stem_width: int = 128
    block_dims: Optional[Tuple[Tuple[int, int], ...]] = None
    # 25 s fills the window; 2 s more so the first forward passes are warm.
    warmup_s: float = 27.0
    flood_session_s: float = 180.0


DENSE = dict(spontaneous_rate_per_min=60.0, voluntary_rate_per_min=60.0,
             wink_rate_per_min=0.0)
SPARSE = dict(spontaneous_rate_per_min=3.0, voluntary_rate_per_min=2.0,
              wink_rate_per_min=0.0)


@dataclass
class Session:
    frames: list               # ValidatedFrame, in send order
    payloads: List[bytes]      # wire encoding of each frame
    reference: list            # PredictionMsg the server must send back


# --------------------------------------------------------------------------
# inputs


def build_inputs(seed: int, cfg: ServingConfig, duration_s: float, rates: dict,
                 work: str, tracer=None):
    """Two simulated sessions, their wire bytes, the checkpoint and reference."""
    from blinkpipe import net, proto, sim
    from blinkpipe.core import NUM_FEATURES

    model = net.BlinkNet(input_dim=cfg.window_frames * NUM_FEATURES,
                         stem_width=cfg.stem_width, block_dims=cfg.block_dims,
                         seed=seed)
    ckpt_path = os.path.join(work, "serve.bnet")
    net.ModelCheckpoint.from_net(model, 0, 0.0).save(ckpt_path)
    sessions = []
    for s in range(2):
        rec, _ = sim.generate_session(sim.SimConfig(
            seed=seed * 16 + s, duration_s=duration_s,
            participant_id=f"S{s}", **rates))
        frames = proto.validate_frames(rec.frames)
        sessions.append(Session(frames, [], []))
    if tracer is not None:
        tracer.uninstall()
    for sess in sessions:
        sess.payloads = [proto.encode(proto.gaze_msg_from_frame(f))
                         for f in sess.frames]
        sess.reference = proto.predictions_for_frames(
            sess.frames, model, window_frames=cfg.window_frames)
    return ckpt_path, sessions


# --------------------------------------------------------------------------
# program process


class ServerProcess:
    """`blinkpipe serve` in its own process, via serve_launcher.py."""

    def __init__(self, work: str, tag: str, checkpoint: str,
                 trace: bool = False, from_ts_ns: int = 0):
        self.stats_path = os.path.join(work, f"{tag}.stats.json")
        self.trace_prefix = os.path.join(work, f"{tag}.trace") if trace else None
        self.err_path = os.path.join(work, f"{tag}.stderr")
        cmd = [sys.executable, os.path.join(common.BENCH_DIR, "serve_launcher.py"),
               "--stats-out", self.stats_path]
        if trace:
            cmd += ["--trace-out", self.trace_prefix,
                    "--trace-from-ns", str(from_ts_ns)]
        cmd += ["--", "serve", "--checkpoint", checkpoint,
                "--listen", "127.0.0.1:0"]
        self._err = open(self.err_path, "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self._err,
                                     cwd=common.ROOT, env=common.child_env())
        line = common.read_line(self.proc, IO_TIMEOUT_S)
        self._ready_at = time.perf_counter()
        self.setup_s = self._ready_at - t0
        if not line.startswith("listening on "):
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}; {self.stderr()}")
        host, port = line.split()[-1].rsplit(":", 1)
        self.address = (host, int(port))

    def stderr(self) -> str:
        with open(self.err_path, "rb") as fh:
            return fh.read()[-2000:].decode("utf-8", "replace")

    def stop(self) -> dict:
        """Ctrl-C the server, wait for it, and return what it reported."""
        # `serve` prints its address before it starts the accept thread, and
        # BlinkServer.stop() fails on a thread that was never started, so an
        # immediate Ctrl-C would crash it. Give it time to get there.
        wait = self._ready_at + STOP_GRACE_S - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(IO_TIMEOUT_S)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited {self.proc.returncode}: {self.stderr()}")
        return common.read_json(self.stats_path)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._err.close()


def start_server(work: str, tag: str, checkpoint: str, trace: bool = False,
                 from_ts_ns: int = 0):
    """Launch SETUP_LAUNCHES times; all but the last only time the set-up."""
    setup = []
    for i in range(common.SETUP_LAUNCHES - 1):
        srv = ServerProcess(work, f"{tag}-setup{i}", checkpoint)
        setup.append(srv.setup_s)
        srv.kill()
    srv = ServerProcess(work, tag, checkpoint, trace, from_ts_ns)
    setup.append(srv.setup_s)
    return srv, setup


# --------------------------------------------------------------------------
# client side


class Receiver(threading.Thread):
    """Reads predictions from every socket until each one reaches EOF."""

    def __init__(self, socks: Sequence[socket.socket]):
        super().__init__(name="perfbench-receiver", daemon=True)
        self.socks = list(socks)
        self.got: List[List[Tuple[int, object]]] = [[] for _ in self.socks]
        self.eof_ns: List[Optional[int]] = [None] * len(self.socks)
        self.error: Optional[str] = None
        self.arrived = threading.Condition()

    def run(self) -> None:
        from blinkpipe import proto
        from blinkpipe.core import BlinkPipeError
        sel = selectors.DefaultSelector()
        bufs = [b""] * len(self.socks)
        for i, s in enumerate(self.socks):
            sel.register(s, selectors.EVENT_READ, i)
        deadline = time.monotonic() + IO_TIMEOUT_S * 4
        try:
            while sel.get_map():
                if time.monotonic() > deadline:
                    self.error = "timed out waiting for predictions"
                    return
                for key, _ in sel.select(1.0):
                    i = key.data
                    data = key.fileobj.recv(1 << 16)
                    now = perf_counter_ns()
                    if not data:
                        self.eof_ns[i] = now
                        sel.unregister(key.fileobj)
                        continue
                    buf = bufs[i] + data
                    off = 0
                    while len(buf) - off >= proto.PREDICTION_MSG_SIZE:
                        msg, off = proto.decode(buf, off)
                        self.got[i].append((now, msg))
                    bufs[i] = buf[off:]
                    with self.arrived:
                        self.arrived.notify_all()
        except (OSError, BlinkPipeError) as exc:
            self.error = f"{type(exc).__name__}: {exc}"
        finally:
            sel.close()

    def count(self, i: int) -> int:
        return len(self.got[i])


def connect(address, n: int) -> List[socket.socket]:
    return [socket.create_connection(address, timeout=IO_TIMEOUT_S) for _ in range(n)]


def end_sessions(socks: Sequence[socket.socket], recv: Receiver) -> None:
    from blinkpipe import proto
    for s in socks:
        s.sendall(proto.encode(proto.ControlMsg(0, proto.CONTROL_END)))
    recv.join(IO_TIMEOUT_S * 4)
    for s in socks:
        s.close()
    if recv.is_alive():
        raise RuntimeError("receiver did not finish")


def check_predictions(reference: Sequence, received: Sequence) -> Tuple[int, set]:
    """Count reference predictions not answered exactly, plus extra answers.

    Returns (failed, blink ends answered correctly). Order matters: the
    server must send the reference sequence itself.
    """
    got = [m for _, m in received]
    ok_ends = set()
    failed = 0
    for i, ref in enumerate(reference):
        if i < len(got) and got[i] == ref:
            ok_ends.add(ref.blink_end_ns)
        else:
            failed += 1
    failed += max(0, len(got) - len(reference))
    return failed, ok_ends


def server_failures(stats: dict, frames_sent: int, sessions: int) -> Tuple[int, dict]:
    rows = stats["sessions"]
    dropped = sum(r["frames_dropped"] for r in rows)
    received = sum(r["frames_received"] for r in rows)
    errors = sum(1 for r in rows if r["error"] is not None)
    counts = {"frames_dropped": dropped,
              "frames_missing": max(0, frames_sent - received),
              "session_errors": errors,
              "sessions_missing": max(0, sessions - len(rows)),
              "max_queue_depth": max((r["max_queue_depth"] for r in rows), default=0)}
    failed = (dropped + counts["frames_missing"] + errors
              + counts["sessions_missing"])
    return failed, counts


# --------------------------------------------------------------------------
# live_paced


@contextlib.contextmanager
def no_gc_pauses():
    """Keep the collector off the generator while it keeps a schedule.

    The inputs (hundreds of thousands of frame objects) are frozen out of
    collection; a full collection over them stalled the sender by tens of
    milliseconds.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def measure_paced(address, sessions: List[Session], warm_frames: int,
                  server_pid: int, corrupt=None) -> dict:
    """Send warm-up history unpaced, then the rest at 200 Hz per session."""
    with no_gc_pauses():
        return _measure_paced(address, sessions, warm_frames, server_pid, corrupt)


def _measure_paced(address, sessions, warm_frames, server_pid, corrupt):
    socks = connect(address, 2)
    recv = Receiver(socks)
    recv.start()
    for s, sess in zip(socks, sessions):
        s.sendall(b"".join(sess.payloads[:warm_frames]))
    paced_ts = sessions[0].frames[warm_frames].timestamp_ns
    expect = [sum(1 for p in sess.reference if p.timestamp_ns < paced_ts)
              for sess in sessions]
    deadline = time.monotonic() + IO_TIMEOUT_S
    while any(recv.count(i) < n for i, n in enumerate(expect)):
        if time.monotonic() > deadline or not recv.is_alive():
            raise RuntimeError("warm-up predictions did not arrive")
        time.sleep(0.01)
    time.sleep(0.5)  # let the server finish the warm-up frames after the last blink

    schedule = sorted(
        (sess.frames[i].timestamp_ns - paced_ts + k * SESSION_OFFSET_NS, k, i)
        for k, sess in enumerate(sessions)
        for i in range(warm_frames, len(sess.frames)))
    cpu0 = common.cpu_seconds_of(server_pid)
    t0 = perf_counter_ns() + 50_000_000
    lag = []
    for offset, k, i in schedule:
        due = t0 + offset
        wait = due - perf_counter_ns()
        if wait > 0:
            time.sleep(wait / 1e9)
        lag.append(perf_counter_ns() - due)
        socks[k].sendall(sessions[k].payloads[i])
    last_due = t0 + schedule[-1][0]
    # Give the last blinks time to come back before reading the CPU clock.
    while perf_counter_ns() < last_due + 200_000_000:
        time.sleep(0.01)
    cpu1 = common.cpu_seconds_of(server_pid)
    end_sessions(socks, recv)
    if recv.error:
        raise RuntimeError(recv.error)
    received = recv.got
    if corrupt is not None:
        received = corrupt(received)

    latencies = []
    gate_ok = 0
    measured = 0
    failed = 0
    for k, sess in enumerate(sessions):
        bad, ok_ends = check_predictions(sess.reference, received[k])
        failed += bad
        arrival = {m.blink_end_ns: t for t, m in received[k]}
        for p in sess.reference:
            if p.timestamp_ns < paced_ts:
                continue
            measured += 1
            if p.blink_end_ns not in ok_ends:
                continue
            due = t0 + p.timestamp_ns - paced_ts + k * SESSION_OFFSET_NS
            ms = (arrival[p.blink_end_ns] - due) / 1e6
            latencies.append(ms)
            gate_ok += ms <= GATE_MS
    return {
        "latencies_ms": latencies,
        "measured_blinks": measured,
        "gate_accept_share": gate_ok / measured if measured else 0.0,
        "gen_lag_ms": [x / 1e6 for x in lag],
        "paced_frames": len(schedule),
        "server_cpu_s": cpu1 - cpu0,
        "failed_predictions": failed,
        "expected_predictions": sum(len(s.reference) for s in sessions),
    }


# --------------------------------------------------------------------------
# ingest_flood


def measure_flood(address, sessions: List[Session], seconds: float,
                  server_pid: int, corrupt=None) -> dict:
    """Rounds of two unpaced sessions until `seconds` of rounds have run.

    A round opens both connections, sends every frame of both sessions as
    fast as TCP flow control lets it, ends them, and waits for the server to
    drain and close. Each session's latency is that of an unpaced replay:
    first byte sent to the server closing the session.

    After a frame that ends a blink, a session waits for that blink's
    prediction before it sends on, as a client acting on each answer would.
    Otherwise, while the worker runs the forward pass (which releases the
    interpreter lock), the reader thread could queue the next thousands of
    frames and overflow the server's queue, dropping frames.
    """
    with no_gc_pauses():
        return _measure_flood(address, sessions, seconds, server_pid, corrupt)


def _measure_flood(address, sessions, seconds, server_pid, corrupt):
    from blinkpipe.core import FRAME_INTERVAL_NS
    from blinkpipe.proto import GAZE_MSG_SIZE
    streams = [b"".join(sess.payloads) for sess in sessions]
    # Byte offset just past each blink-end frame, then the end of the stream.
    stops = [[((p.timestamp_ns - sess.frames[0].timestamp_ns) // FRAME_INTERVAL_NS + 1)
              * GAZE_MSG_SIZE for p in sess.reference] + [len(stream)]
             for sess, stream in zip(sessions, streams)]
    frames_per_round = sum(len(s.frames) for s in sessions)
    fps, per_cpu_s, latencies, failed, rounds = [], [], [], 0, 0
    start = time.perf_counter()
    while True:
        socks = connect(address, 2)
        recv = Receiver(socks)
        recv.start()
        cpu0 = common.cpu_seconds_of(server_pid)
        t_first = perf_counter_ns()
        _send_flood(socks, recv, streams, stops)
        end_sessions(socks, recv)
        if recv.error:
            raise RuntimeError(recv.error)
        per_cpu_s.append(frames_per_round / (common.cpu_seconds_of(server_pid) - cpu0))
        rounds += 1
        fps.append(frames_per_round / ((max(recv.eof_ns) - t_first) / 1e9))
        latencies += [(t - t_first) / 1e6 for t in recv.eof_ns]
        received = recv.got if corrupt is None else corrupt(recv.got)
        for k, sess in enumerate(sessions):
            failed += check_predictions(sess.reference, received[k])[0]
        elapsed = time.perf_counter() - start
        if rounds >= 2 and elapsed + elapsed / rounds > seconds:
            break
    return {
        "fps_rounds": fps,
        "frames_per_cpu_s_rounds": per_cpu_s,
        "latencies_ms": latencies,
        "rounds": rounds,
        "frames_sent": frames_per_round * rounds,
        "failed_predictions": failed,
        "expected_predictions": rounds * sum(len(s.reference) for s in sessions),
        "sessions": 2 * rounds,
        "elapsed_s": time.perf_counter() - start,
    }


def _send_flood(socks, recv: Receiver, streams: List[bytes], stops) -> None:
    """Write both streams in bounded slices, pausing each at its blink ends."""
    views = [memoryview(b) for b in streams]
    pos = [0] * len(views)
    blink = [0] * len(views)       # index of the next blink-end stop
    waiting = [None] * len(views)  # when the session began waiting, if it is
    while any(p < len(v) for p, v in zip(pos, views)):
        sent = False
        for k, view in enumerate(views):
            if pos[k] >= len(view):
                continue
            if waiting[k] is not None:
                late = time.monotonic() - waiting[k] > ANSWER_WAIT_S
                if recv.count(k) <= blink[k] and not late:
                    continue
                waiting[k] = None
                blink[k] += 1
            stop = stops[k][blink[k]]
            end = min(pos[k] + FLOOD_WRITE_BYTES, stop)
            socks[k].sendall(view[pos[k]:end])
            pos[k] = end
            if end == stop and blink[k] < len(stops[k]) - 1:
                waiting[k] = time.monotonic()
            sent = True
        if not sent:
            with recv.arrived:
                recv.arrived.wait(0.05)


# --------------------------------------------------------------------------
# workloads


def _serve_and_measure(work, tag, ckpt, trace, from_ts_ns, measure):
    srv, setup = start_server(work, tag, ckpt, trace, from_ts_ns)
    try:
        m = measure(srv)
    except BaseException:
        srv.kill()
        raise
    stats = srv.stop()
    return srv, setup, m, stats


def _input_layers(res: common.Result, tracer, sessions) -> None:
    frames = sum(len(s.frames) for s in sessions)
    gen = tracer.durations("sim.generate")
    val = tracer.durations("core.validate")
    res.per_layer["sim.generate_us"] = (gen.sum() / frames / 1e3, "us")
    res.per_layer["core.validate_us"] = (val.mean() / 1e3, "us")
    res.per_layer["core.validate_calls_per_frame"] = (val.size / frames, "count")
    res.per_layer["net.checkpoint_save_ms"] = (
        tracer.durations("net.checkpoint_save").mean() / 1e6, "ms")
    res.per_layer["net.checkpoint_mb"] = (tracer.checkpoint_bytes[-1] / 1e6, "MB")


def _server_layers(res: common.Result, trace, stats: dict, frames: int) -> None:
    import numpy as np

    def mean(name, scale):
        d = trace.durations(name)
        return float(d.mean()) / scale if d.size else 0.0

    upd = trace.durations("segmenter.update")
    res.per_layer["segmenter.update_us"] = (mean("segmenter.update", 1e3), "us")
    res.per_layer["segmenter.update_calls_per_frame"] = (upd.size / frames, "count")
    res.per_layer["window.push_us"] = (mean("window.push", 1e3), "us")
    res.per_layer["window.cut_ms"] = (mean("window.cut", 1e6), "ms")
    res.per_layer["net.forward_ms"] = (mean("net.forward", 1e6), "ms")
    res.per_layer["net.checkpoint_load_ms"] = (mean("net.checkpoint_load", 1e6), "ms")
    qw = trace.queue_wait / 1e6
    rows = stats["sessions"]
    res.report.append("per-layer, serving path only (traced server):")
    res.line("proto.read_us", mean("proto.read", 1e3), "us",
             "per frame, includes waiting on the socket")
    if qw.size:
        res.line("proto.queue_wait_p50_ms", float(np.percentile(qw, 50)), "ms",
                 f"n={qw.size} frames")
        res.line("proto.queue_wait_p95_ms", float(np.percentile(qw, 95)), "ms")
    res.line("proto.ingest_self_us", float(trace.self_times("proto.ingest").mean()) / 1e3,
             "us", "SessionPipeline.ingest minus push/segment/cut/forward")
    res.line("proto.send_ms", mean("proto.send", 1e6), "ms",
             f"n={trace.calls('proto.send')} predictions")
    res.line("proto.frames_dropped", sum(r["frames_dropped"] for r in rows), "count")
    res.line("proto.max_queue_depth", max(r["max_queue_depth"] for r in rows), "count")
    res.line("proto.session_errors", sum(r["error"] is not None for r in rows), "count")


def _blink_breakdown(res: common.Result, trace, untraced_p50: float,
                     traced_p50: float) -> None:
    """Blocking-path spans of measured blinks set beside the end-to-end p50."""
    import numpy as np
    per_blink: Dict[tuple, Dict[str, float]] = {}
    for tr, _sid, _pid, name, start, end, self_ns in trace.spans:
        if tr is None:
            continue
        row = per_blink.setdefault(tuple(tr), {})
        key = {"proto.ingest": "ingest_self"}.get(name, name)
        row[key] = row.get(key, 0.0) + (self_ns if name == "proto.ingest"
                                        else end - start) / 1e6
    parts = ("proto.queue_wait", "window.cut", "net.forward", "proto.send",
             "ingest_self", "window.push", "segmenter.update")
    rows = [r for r in per_blink.values() if "net.forward" in r]
    if not rows:
        res.report.append("blink breakdown: no traced blinks")
        return
    res.report.append(f"blink breakdown, median per measured blink (n={len(rows)}):")
    total = 0.0
    for p in parts:
        v = float(np.median([r.get(p, 0.0) for r in rows]))
        total += v
        res.line(p, v, "ms")
    res.line("sum of span medians", total, "ms")
    res.line("untraced blink_to_client_p50_ms", untraced_p50, "ms")
    res.line("unexplained remainder", untraced_p50 - total, "ms",
             "client recv, wire, wake-ups, generator lag")
    res.line("traced blink_to_client_p50_ms", traced_p50, "ms")


def _end_to_end(throughput: float, setup: List[float], stats: dict) -> Dict[str, tuple]:
    return {
        "throughput_per_s": (throughput, "1/s"),
        "setup_s": (common.median(setup), "s"),
        "peak_rss_mb": (stats["peak_rss_mb"], "MB"),
    }


def _p50(lat: List[float]) -> float:
    return common.percentile(lat, 50) if lat else 0.0


def _tail_lines(res: common.Result, name: str, lat: List[float]) -> None:
    """Tail percentiles, each with how many samples lie beyond it."""
    for q in (90, 95):
        if lat:
            beyond = sum(1 for x in lat if x > common.percentile(lat, q))
            res.line(f"{name}_p{q}_ms", common.percentile(lat, q), "ms",
                     f"{beyond} samples beyond")


def _common_lines(res: common.Result, e2e: Dict[str, tuple], setup: List[float],
                  failed: int, attempted: int, counts: dict) -> None:
    res.line("setup_s", e2e["setup_s"][0], "s",
             "median of " + ", ".join(f"{x:.3f}" for x in setup))
    res.line("peak_rss_mb", e2e["peak_rss_mb"][0], "MB", "server VmHWM")
    res.line("failed_share", failed / attempted, "ratio",
             f"{failed} of {attempted}; {counts}")


def _passes(trace: bool):
    return [("untraced", False)] + ([("traced", True)] if trace else [])


def live_paced(seed: int, seconds: float, trace: bool, work: str,
               cfg: ServingConfig = ServingConfig(), corrupt=None) -> common.Result:
    import tracer as tracing
    res = common.Result()
    paced_s = seconds / 2.0 if trace else float(seconds)
    in_tracer = tracing.Tracer() if trace else None
    if trace:
        tracing.install_inputs(in_tracer)
    ckpt, sessions = build_inputs(seed, cfg, cfg.warmup_s + paced_s, DENSE, work,
                                  in_tracer)
    warm = int(round(cfg.warmup_s * 200))
    paced_ts = sessions[0].frames[warm].timestamp_ns
    measured_ends = {p.blink_end_ns for sess in sessions for p in sess.reference
                     if p.timestamp_ns >= paced_ts}
    e2e, p50 = {}, {}
    for tag, traced in _passes(trace):
        srv, setup, m, stats = _serve_and_measure(
            work, f"live-{tag}", ckpt, traced, paced_ts,
            lambda s: measure_paced(s.address, sessions, warm, s.proc.pid, corrupt))
        frames_sent = sum(len(s.frames) for s in sessions)
        srv_failed, counts = server_failures(stats, frames_sent, 2)
        attempted = frames_sent + m["expected_predictions"] + 2
        failed = srv_failed + m["failed_predictions"]
        res.attempted += attempted
        res.failed += failed
        lat, lag = m["latencies_ms"], m["gen_lag_ms"]
        lag_p99 = common.percentile(lag, 99)
        if lag_p99 > GEN_LAG_P99_LIMIT_MS:
            res.problems.append(f"{tag}: generator lag p99 {lag_p99:.3f} ms exceeds"
                                f" {GEN_LAG_P99_LIMIT_MS} ms; run invalid")
        if not lat:
            res.problems.append(f"{tag}: no blink was answered correctly")
        # Per measured blink: server thread CPU time of its window cut and
        # forward pass, the work that blocks each answer.
        rows = [r for r in stats["blink_cpu_ns"] if r[0] in measured_ends]
        if not rows:
            raise RuntimeError(f"{tag}: the server timed no measured blink")
        cut = [r[1] / 1e6 for r in rows]
        fwd = [r[2] / 1e6 for r in rows]
        blink_cpu_s = (sum(cut) + sum(fwd)) / 1e3
        e2e[tag] = _end_to_end(len(rows) / blink_cpu_s, setup, stats)
        res.report.append(f"live_paced {tag}: 2 sessions paced at 200 Hz for"
                          f" {paced_s:g} s after {cfg.warmup_s:g} s of warm-up history")
        p50[tag] = _p50(lat)
        res.line("blink_to_client_p50_ms", p50[tag], "ms",
                 f"n={len(lat)} answered of {m['measured_blinks']} measured blinks")
        _tail_lines(res, "blink_to_client", lat)
        res.line("gate_accept_share", m["gate_accept_share"], "ratio",
                 f"within {GATE_MS:g} ms; a wrong or missing answer is a miss")
        res.line("blinks_per_cpu_s", e2e[tag]["throughput_per_s"][0], "1/s",
                 f"{len(rows)} blinks / {blink_cpu_s:.3f} s of cut + forward thread CPU")
        res.line("blink_cut_cpu_ms", common.median(cut), "ms", "median; " + common.describe(cut))
        res.line("blink_forward_cpu_ms", common.median(fwd), "ms",
                 "median; " + common.describe(fwd))
        res.line("server_frames_per_cpu_s", m["paced_frames"] / m["server_cpu_s"], "1/s",
                 f"{m['paced_frames']} frames / {m['server_cpu_s']:.2f} server CPU s")
        _common_lines(res, e2e[tag], setup, failed, attempted, counts)
        res.line("gen.lag_p99_ms", lag_p99, "ms", f"limit {GEN_LAG_P99_LIMIT_MS:g} ms")
        res.line("gen.lag_max_ms", max(lag), "ms")
        if traced:
            t = tracing.Trace(srv.trace_prefix)
            _input_layers(res, in_tracer, sessions)
            _server_layers(res, t, stats, m["paced_frames"])
            _blink_breakdown(res, t, p50["untraced"], p50[tag])
    res.end_to_end = e2e["untraced"]
    if trace:
        common.tracing_overhead(res, e2e["untraced"], e2e["traced"])
    return res


def ingest_flood(seed: int, seconds: float, trace: bool, work: str,
                 cfg: ServingConfig = ServingConfig(), corrupt=None) -> common.Result:
    import tracer as tracing
    res = common.Result()
    in_tracer = tracing.Tracer() if trace else None
    if trace:
        tracing.install_inputs(in_tracer)
    ckpt, sessions = build_inputs(seed, cfg, cfg.flood_session_s, SPARSE, work,
                                  in_tracer)
    span = seconds / 2.0 if trace else float(seconds)
    e2e = {}
    for tag, traced in _passes(trace):
        srv, setup, m, stats = _serve_and_measure(
            work, f"flood-{tag}", ckpt, traced, 0,
            lambda s: measure_flood(s.address, sessions, span, s.proc.pid, corrupt))
        srv_failed, counts = server_failures(stats, m["frames_sent"], m["sessions"])
        attempted = m["frames_sent"] + m["expected_predictions"] + m["sessions"]
        failed = srv_failed + m["failed_predictions"]
        res.attempted += attempted
        res.failed += failed
        lat = m["latencies_ms"]
        if not m["expected_predictions"]:
            res.problems.append(f"{tag}: the sessions hold no blink to check")
        e2e[tag] = _end_to_end(common.median(m["frames_per_cpu_s_rounds"]), setup, stats)
        res.report.append(f"ingest_flood {tag}: {m['rounds']} rounds of 2 unpaced"
                          f" {cfg.flood_session_s:g} s sessions in {m['elapsed_s']:.1f} s")
        res.line("ingest_fps", common.median(m["fps_rounds"]), "frames/s",
                 "median round; " + common.describe(m["fps_rounds"]))
        res.line("server_frames_per_cpu_s", e2e[tag]["throughput_per_s"][0], "1/s",
                 "median round; " + common.describe(m["frames_per_cpu_s_rounds"]))
        res.line("replay_p50_ms", _p50(lat), "ms",
                 f"n={len(lat)} sessions, first send to session drained")
        _tail_lines(res, "replay", lat)
        _common_lines(res, e2e[tag], setup, failed, attempted, counts)
        if traced:
            t = tracing.Trace(srv.trace_prefix)
            _input_layers(res, in_tracer, sessions)
            _server_layers(res, t, stats, m["frames_sent"])
    res.end_to_end = e2e["untraced"]
    if trace:
        common.tracing_overhead(res, e2e["untraced"], e2e["traced"])
    return res
