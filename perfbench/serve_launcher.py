"""Program process for the serving workloads: `blinkpipe serve` plus a report.

    python3 perfbench/serve_launcher.py --stats-out FILE [--trace-out PREFIX
        --trace-from-ns N] -- serve --checkpoint CK --listen 127.0.0.1:0

Runs ``blinkpipe.cli.main`` with the arguments after ``--``. With
``--trace-out`` it first installs the serving spans (see tracer.py). SIGINT
stops the server the way Ctrl-C does. On exit it writes, to --stats-out, the
process's own peak RSS (VmHWM), the server's per-session counters, read from
the BlinkServer that ``serve`` built, and the thread CPU time of each blink's
window cut and forward pass.
"""
from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402


def time_blink_path(proto, window) -> list:
    """Record the thread CPU time of each blink's window cut and forward pass.

    Returns the list it fills with ``[blink end ns, cut ns, forward ns]``,
    one row per classified blink. Both calls run on the session's worker
    thread, a few times a second, so the four clock reads cost nothing
    measurable; tracing is not needed for this.
    """
    rows = []
    loc = threading.local()
    cut = window.HistoryBuffer.snapshot_at_blink_end
    classify = proto.classify

    def timed_cut(buf, blink):
        t0 = time.thread_time_ns()
        out = cut(buf, blink)
        loc.cut = (blink.offset_ns, time.thread_time_ns() - t0)
        return out

    def timed_classify(model, win):
        t0 = time.thread_time_ns()
        out = classify(model, win)
        rows.append([*loc.cut, time.thread_time_ns() - t0])
        return out

    window.HistoryBuffer.snapshot_at_blink_end = timed_cut
    proto.classify = timed_classify
    return rows


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("--stats-out", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--trace-from-ns", type=int, default=0)
    opts = parser.parse_args(argv[:split])
    # A parent that ignores SIGINT would leave Python without its handler.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    common.use_tree_sources()
    from blinkpipe import cli, proto, window

    servers = []
    init = proto.BlinkServer.__init__

    def remember(self, *args, **kwargs):
        init(self, *args, **kwargs)
        servers.append(self)

    proto.BlinkServer.__init__ = remember
    tracer = None
    if opts.trace_out:
        import tracer as tracing
        tracer = tracing.Tracer(opts.trace_from_ns)
        tracing.install_serving(tracer)
    blink_cpu = time_blink_path(proto, window)

    rc = cli.main(argv[split + 1:])

    sessions = [
        {"frames_received": s.frames_received, "frames_dropped": s.frames_dropped,
         "predictions_sent": s.predictions_sent,
         "max_queue_depth": s.max_queue_depth, "error": s.error}
        for srv in servers for s in srv.sessions
    ]
    if tracer is not None:
        tracer.dump(opts.trace_out)
    common.write_json_atomic(opts.stats_out, {
        "exit_code": rc,
        "peak_rss_mb": common.peak_rss_mb(),
        "sessions": sessions,
        "blink_cpu_ns": blink_cpu,
    })
    return rc


if __name__ == "__main__":
    sys.exit(main())
