"""Spans around calls into blinkpipe's layers, installed from benchmark code.

Nothing under ``src/`` knows about tracing. ``install_*`` swaps a layer's
public function or method for a wrapper that records a span and calls the
original; ``Tracer.uninstall`` puts the originals back.

Every span has a name, start, end and parent, and its self time is its
duration minus the time its child spans (nested calls on the same thread)
cover. Spans stay in memory and ``dump`` writes them when the run ends:

* per-frame spans (socket read, validate, segment, buffer push, and the
  ``proto.ingest`` root around one frame) are folded into per-name arrays of
  duration and self time, so a flood of frames costs 16 bytes a span;
* every other span is kept whole. On the serving path the spans of a frame
  that ends a both-eye blink (queue wait, ingest, push, segment, cut,
  forward, send) share the trace id ``(session, blink end ns)``; offline
  spans share the id of their pipeline repetition.

Frames whose timestamp is below ``from_ts_ns`` (warm-up history) are not
recorded at all.
"""
from __future__ import annotations

import itertools
import json
import os
import socket
import threading
from array import array
from time import perf_counter_ns
from typing import Dict, List, Optional

import numpy as np

PER_FRAME = ("proto.read", "proto.ingest", "window.push", "segmenter.update",
             "core.validate")


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: List[list] = []   # open spans: [span_id, start_ns, child_ns]
        self.buf: Optional[list] = None  # whole spans of the current frame
        self.trace = None
        self.active = True
        self.session: Optional[int] = None
        self.pending_wait = None      # (read end, ingest start) of the next frame
        self.last_blink = None        # trace id a following send belongs to


class Tracer:
    def __init__(self, from_ts_ns: int = 0):
        self.from_ts_ns = from_ts_ns
        self.trace = None  # trace id for spans outside any frame
        self.spans: List[list] = []  # [trace, span_id, parent_id, name, start, end, self]
        self.checkpoint_bytes: List[int] = []
        self.queue_wait_ns = array("q")
        self._dur: Dict[str, array] = {}
        self._self: Dict[str, array] = {}
        self._loc = _ThreadState()
        self._ids = itertools.count(1)
        self._sessions = itertools.count(1)
        self._read_at: Dict[int, int] = {}
        self._undo: list = []

    # -- span bookkeeping --------------------------------------------------

    def _arrays(self, name: str):
        if name not in self._dur:
            self._dur[name] = array("q")
            self._self[name] = array("q")
        return self._dur[name], self._self[name]

    def _enter(self) -> list:
        rec = [next(self._ids), perf_counter_ns(), 0]
        self._loc.stack.append(rec)
        return rec

    def _exit(self, rec: list, name: str) -> list:
        """Close `rec`; returns the whole span [trace, id, parent, name, ...]."""
        loc = self._loc
        end = perf_counter_ns()
        loc.stack.pop()
        span_id, start, child = rec
        dur = end - start
        parent = loc.stack[-1] if loc.stack else None
        if parent is not None:
            parent[2] += dur
        whole = [loc.trace if loc.trace is not None else self.trace, span_id,
                 parent[0] if parent is not None else 0, name, start, end,
                 dur - child]
        if loc.active:
            d, s = self._dur[name], self._self[name]
            d.append(dur)
            s.append(dur - child)
            if name not in PER_FRAME:
                (loc.buf if loc.buf is not None else self.spans).append(whole)
            elif loc.buf is not None:
                loc.buf.append(whole)
        return whole

    def _patch(self, owner, attr: str, wrapper) -> None:
        # None marks an attribute the owner inherits (socket.sendall).
        self._undo.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str) -> None:
        """Wrap a plain function or method so each call records a span."""
        fn = getattr(owner, attr)
        self._arrays(name)

        def wrapper(*args, **kwargs):
            rec = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(rec, name)

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def durations(self, name: str) -> np.ndarray:
        return np.frombuffer(self._dur[name], dtype=np.int64)

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write `path`.json (whole spans) and `path`.npz (per-name arrays)."""
        arrays = {}
        for name in self._dur:
            arrays["dur:" + name] = np.frombuffer(self._dur[name], dtype=np.int64)
            arrays["self:" + name] = np.frombuffer(self._self[name], dtype=np.int64)
        arrays["queue_wait"] = np.frombuffer(self.queue_wait_ns, dtype=np.int64)
        np.savez(path + ".npz", **arrays)
        with open(path + ".json", "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans,
                       "checkpoint_bytes": self.checkpoint_bytes}, fh)


class Trace:
    """A dumped trace, read back by run.py's workloads."""

    def __init__(self, path: str):
        with np.load(path + ".npz") as z:
            self._arrays = {k: z[k] for k in z.files}
        with open(path + ".json", encoding="ascii") as fh:
            obj = json.load(fh)
        self.spans = obj["spans"]
        self.checkpoint_bytes = obj["checkpoint_bytes"]

    def durations(self, name: str) -> np.ndarray:
        return self._arrays.get("dur:" + name, np.zeros(0, dtype=np.int64))

    def self_times(self, name: str) -> np.ndarray:
        return self._arrays.get("self:" + name, np.zeros(0, dtype=np.int64))

    @property
    def queue_wait(self) -> np.ndarray:
        return self._arrays["queue_wait"]

    def calls(self, name: str) -> int:
        return int(self.durations(name).size)


# --------------------------------------------------------------------------
# install sets


def install_serving(tracer: Tracer) -> None:
    """Spans for the server process: read, queue wait, ingest, send, load."""
    from blinkpipe import net, proto, segmenter, window

    loc = tracer._loc
    for name in PER_FRAME + ("proto.send",):
        tracer._arrays(name)

    read_message = proto.read_message

    def traced_read(sock):
        rec = tracer._enter()
        loc.active = True
        msg = None
        try:
            msg = read_message(sock)
            return msg
        finally:
            is_frame = isinstance(msg, proto.GazeFrameMsg)
            loc.active = is_frame and msg.timestamp_ns >= tracer.from_ts_ns
            whole = tracer._exit(rec, "proto.read")
            if loc.active:
                tracer._read_at[id(msg)] = whole[5]

    from_msg = proto.validated_frame_from_msg

    def traced_from_msg(msg):
        read_end = tracer._read_at.pop(id(msg), None)
        if read_end is not None:
            now = perf_counter_ns()
            tracer.queue_wait_ns.append(now - read_end)
            loc.pending_wait = (read_end, now)
        return from_msg(msg)

    ingest = proto.SessionPipeline.ingest

    def traced_ingest(pipe, frame):
        if loc.session is None:
            loc.session = next(tracer._sessions)
        loc.active = frame.timestamp_ns >= tracer.from_ts_ns
        loc.trace = [loc.session, frame.timestamp_ns]
        loc.buf = []
        wait, loc.pending_wait = loc.pending_wait, None
        rec = tracer._enter()
        pred = None
        try:
            pred = ingest(pipe, frame)
            return pred
        finally:
            buf, loc.buf = loc.buf, None
            whole = tracer._exit(rec, "proto.ingest")
            loc.last_blink = None
            if loc.active and pred is not None:
                if wait is not None:
                    tracer.spans.append([loc.trace, next(tracer._ids), 0,
                                         "proto.queue_wait", wait[0], wait[1],
                                         wait[1] - wait[0]])
                tracer.spans.extend(buf)
                tracer.spans.append(whole)
                loc.last_blink = loc.trace
            loc.trace = None

    sendall = socket.socket.sendall

    def traced_sendall(sock, data, *args):
        rec = tracer._enter()
        trace, loc.trace = loc.last_blink, loc.last_blink
        loc.active = trace is not None
        try:
            return sendall(sock, data, *args)
        finally:
            tracer._exit(rec, "proto.send")
            loc.trace = None
            loc.last_blink = None

    tracer._patch(proto, "read_message", traced_read)
    tracer._patch(proto, "validated_frame_from_msg", traced_from_msg)
    tracer._patch(proto.SessionPipeline, "ingest", traced_ingest)
    tracer._patch(socket.socket, "sendall", traced_sendall)
    tracer.span(window.HistoryBuffer, "push", "window.push")
    tracer.span(segmenter.BlinkSegmenter, "update", "segmenter.update")
    tracer.span(window.HistoryBuffer, "snapshot_at_blink_end", "window.cut")
    tracer.span(proto, "classify", "net.forward")
    _install_checkpoint_io(tracer, net)


def install_offline(tracer: Tracer) -> None:
    """Spans for the offline program: simulate, persist, label, cut, train, eval."""
    from blinkpipe import core, dataset, net, segmenter, sim, window

    tracer.span(sim, "generate_session", "sim.generate")
    tracer.span(dataset, "save_recording", "dataset.save")
    tracer.span(dataset, "load_recording", "dataset.load")
    tracer.span(dataset, "label_blinks", "dataset.label")
    tracer.span(dataset, "materialize_windows", "dataset.cut")
    tracer.span(core.FrameValidator, "validate", "core.validate")
    tracer.span(segmenter.BlinkSegmenter, "update", "segmenter.update")
    tracer.span(window.HistoryBuffer, "push", "window.push")
    tracer.span(window.HistoryBuffer, "snapshot_at_blink_end", "window.cut")
    tracer.span(window.HistoryBuffer, "augment_shift", "window.cut")
    tracer.span(net, "classify", "net.forward")
    tracer.span(net, "train", "net.train")
    tracer.span(net.BlinkNet, "loss_and_gradients", "net.forward_backward")
    tracer.span(net.Adam, "step", "net.adam_step")
    _install_checkpoint_io(tracer, net)


def install_inputs(tracer: Tracer) -> None:
    """Spans for the layers the serving benchmark uses to build its inputs."""
    from blinkpipe import core, net, sim

    tracer.span(sim, "generate_session", "sim.generate")
    tracer.span(core.FrameValidator, "validate", "core.validate")
    _install_checkpoint_io(tracer, net)


def _install_checkpoint_io(tracer: Tracer, net) -> None:
    tracer._arrays("net.checkpoint_save")
    tracer._arrays("net.checkpoint_load")
    save = net.ModelCheckpoint.save
    load = net.ModelCheckpoint.load.__func__

    def traced_save(ckpt, path):
        rec = tracer._enter()
        try:
            return save(ckpt, path)
        finally:
            tracer._exit(rec, "net.checkpoint_save")
            if os.path.exists(path):
                tracer.checkpoint_bytes.append(os.path.getsize(path))

    def traced_load(cls, path):
        rec = tracer._enter()
        try:
            return load(cls, path)
        finally:
            tracer._exit(rec, "net.checkpoint_load")

    tracer._patch(net.ModelCheckpoint, "save", traced_save)
    tracer._patch(net.ModelCheckpoint, "load", classmethod(traced_load))
