"""The `offline_train` workload: simulate -> train -> eval in one program process.

offline_worker.py is the program process. This side launches it, times
its set-up, and checks its output: every repetition of the seeded pipeline
must write byte-identical best checkpoints and the same confusion counts
(the rerun-reproducibility contract); a repetition that differs or fails
counts as a failed operation.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import List

import common

WORKER = os.path.join(common.BENCH_DIR, "offline_worker.py")
TIMEOUT_S = 170.0


def _launch(work: str, seed: int, extra: List[str]) -> tuple:
    """Start the worker; return (process, seconds until it printed `ready`)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, "--work", work, "--seed", str(seed)] + extra,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=common.ROOT,
        env=common.child_env())
    line = common.read_line(proc, TIMEOUT_S)
    ready = time.perf_counter() - t0
    if line != "ready":
        proc.kill()
        _, err = proc.communicate()
        raise RuntimeError(f"offline worker did not start: {line!r} {err[-2000:]!r}")
    return proc, ready


def _finish(proc: subprocess.Popen) -> str:
    """Wait for the worker; return its standard output."""
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"offline worker exited {proc.returncode}: {err[-2000:]!r}")
    return out.decode("ascii")


def run_worker(work: str, seed: int, seconds: float, config: dict, min_reps: int,
               trace_prefix=None) -> tuple:
    """Time set-up over several launches, then run the measured worker."""
    setup = []
    for _ in range(common.SETUP_LAUNCHES - 1):
        proc, ready = _launch(work, seed, ["--ready-only"])
        _finish(proc)
        setup.append(ready)
    extra = ["--seconds", str(seconds), "--min-reps", str(min_reps),
             "--config", json.dumps(config)]
    if trace_prefix:
        extra += ["--trace-out", trace_prefix]
    proc, ready = _launch(work, seed, extra)
    setup.append(ready)
    return setup, json.loads(_finish(proc).strip().splitlines()[-1])


def _layers(res: common.Result, trace, reps: list) -> None:
    def mean(name, scale):
        d = trace.durations(name)
        return float(d.mean()) / scale if d.size else 0.0

    def per_frame_self(name, frames):
        return float(trace.self_times(name).sum()) / frames / 1e3

    prep_frames = sum(r["frames"] for r in reps)
    all_frames = prep_frames + sum(r["eval_frames"] for r in reps)
    L = res.per_layer
    L["sim.generate_us"] = (float(trace.durations("sim.generate").sum())
                            / prep_frames / 1e3, "us")
    L["core.validate_us"] = (mean("core.validate", 1e3), "us")
    L["core.validate_calls_per_frame"] = (
        sum(r["prep_validate_calls"] for r in reps) / prep_frames, "count")
    L["segmenter.update_us"] = (mean("segmenter.update", 1e3), "us")
    L["segmenter.update_calls_per_frame"] = (
        sum(r["prep_update_calls"] for r in reps) / prep_frames, "count")
    L["window.push_us"] = (mean("window.push", 1e3), "us")
    L["window.cut_ms"] = (mean("window.cut", 1e6), "ms")
    L["net.forward_ms"] = (mean("net.forward", 1e6), "ms")
    L["net.checkpoint_load_ms"] = (mean("net.checkpoint_load", 1e6), "ms")
    L["net.checkpoint_save_ms"] = (mean("net.checkpoint_save", 1e6), "ms")
    L["net.checkpoint_mb"] = (trace.checkpoint_bytes[-1] / 1e6, "MB")
    res.report.append("per-layer, offline path only (traced worker):")
    fb, adam = mean("net.forward_backward", 1e6), mean("net.adam_step", 1e6)
    res.line("net.train_step_ms", fb + adam, "ms",
             f"forward+backward {fb:.4g} ms + Adam {adam:.4g} ms,"
             f" n={trace.calls('net.adam_step')} steps")
    res.line("net.checkpoint_saves", trace.calls("net.checkpoint_save"), "count")
    res.line("dataset.save_us", per_frame_self("dataset.save", prep_frames), "us",
             "self time per frame")
    res.line("dataset.load_us", per_frame_self("dataset.load", all_frames), "us",
             "self time per frame")
    res.line("dataset.label_us", per_frame_self("dataset.label", all_frames), "us",
             "self time per frame (minus validate and segment)")
    res.line("dataset.cut_us", per_frame_self("dataset.cut", all_frames), "us",
             "materialize_windows self time per frame (minus validate, push, cut)")


def offline_train(seed: int, seconds: float, trace: bool, work: str,
                  config: dict = None, corrupt=None) -> common.Result:
    import tracer as tracing
    res = common.Result()
    config = config or {}
    passes = [("untraced", False)] + ([("traced", True)] if trace else [])
    span = seconds / 2.0 if trace else float(seconds)
    e2e, digests = {}, set()
    for tag, traced in passes:
        prefix = os.path.join(work, f"offline-{tag}.trace") if traced else None
        setup, out = run_worker(work, seed, span, config, 1 if trace else 2, prefix)
        reps = out["reps"]
        if corrupt is not None:
            reps = corrupt(reps)
        res.attempted += len(reps) + len(out["errors"])
        res.failed += len(out["errors"])
        for err in out["errors"]:
            res.problems.append(f"{tag}: repetition failed: {err.strip().splitlines()[-1]}")
        if not reps:
            res.problems.append(f"{tag}: no repetition finished")
            continue
        first = reps[0]
        for r in reps:
            digests.add(r["digest"])
            if (r["digest"], r["confusion"]) != (first["digest"], first["confusion"]):
                res.failed += 1
        walls = [r["wall_s"] for r in reps]
        prep = common.median([r["frames"] / r["prep_s"] for r in reps])
        train = common.median([r["train_examples"] * len(r["epoch_s"]) / r["train_s"]
                               for r in reps])
        epochs = [s * 1e3 for r in reps for s in r["epoch_s"]]
        prep_cpu = common.median([r["frames"] / r["prep_cpu_s"] for r in reps])
        per_cpu = [r["frames"] / r["cpu_s"] for r in reps]
        e2e[tag] = {
            "throughput_per_s": (common.median(per_cpu), "1/s"),
            "setup_s": (common.median(setup), "s"),
            "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        }
        res.report.append(f"offline_train {tag}: {len(reps)} repetitions of"
                          f" {first['frames']} frames, {first['train_examples']}"
                          f" training examples, {len(first['epoch_s'])} epochs")
        res.line("offline_wall_s", common.median(walls), "s",
                 "seeded config to eval report, median repetition; "
                 + common.describe(walls))
        res.line("prep_frames_per_s", prep, "frames/s",
                 "simulate + save/load + label + cut, median repetition")
        res.line("frames_per_cpu_s", e2e[tag]["throughput_per_s"][0], "1/s",
                 "simulated frames / worker CPU time, simulate through eval;"
                 " median repetition; " + common.describe(per_cpu))
        res.line("prep_frames_per_cpu_s", prep_cpu, "1/s",
                 "the same over the CPU time of simulate + save/load + label + cut")
        res.line("train_examples_per_s", train, "examples/s",
                 "examples x epochs / train time, checkpoint writes included")
        res.line("epoch_ms", common.median(epochs), "ms",
                 "median; " + common.describe(epochs))
        res.line("setup_s", e2e[tag]["setup_s"][0], "s",
                 "median of " + ", ".join(f"{x:.3f}" for x in setup))
        res.line("peak_rss_mb", out["peak_rss_mb"], "MB", "worker VmHWM")
        res.line("eval", first["eval_n"], "blinks",
                 f"confusion {first['confusion']} best checkpoint {first['digest'][:16]}")
        if traced:
            _layers(res, tracing.Trace(prefix), reps)
    if len(digests) > 1:
        res.problems.append(f"best checkpoints differ between repetitions: {sorted(digests)}")
    if "untraced" not in e2e:
        raise RuntimeError("offline_train produced no measurement")
    res.end_to_end = e2e["untraced"]
    res.line("failed_share", res.failed / max(1, res.attempted), "ratio")
    if trace and "traced" in e2e:
        common.tracing_overhead(res, e2e["untraced"], e2e["traced"])
    return res
