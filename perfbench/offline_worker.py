"""Program process for `offline_train`: simulate -> train -> eval, repeated.

    python3 perfbench/offline_worker.py --work DIR --seed N --seconds S
        [--config JSON] [--trace-out PREFIX] [--ready-only]

Prints ``ready`` once blinkpipe is imported, then runs the pipeline that
``blinkpipe simulate``, ``train`` and ``eval`` run, through the public
functions of sim, dataset, net and eval, until `seconds` have passed (at
least --min-reps times). The last line of its output is a JSON report: the
wall and CPU time of every repetition, the digest of its best checkpoint and
its confusion counts, and the process's own peak RSS (VmHWM).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402

# The production shape: batch 32, one shift-augmented copy per training window.
BATCH_SIZE = 32
AUGMENT_COPIES = 1
# Every seed cuts, trains on and evaluates the same number of blinks per
# participant (the first ones with a full window), so run time does not
# follow the simulated blink count. Two minutes of recording hold more than
# this for every seed tried.
BLINKS_PER_PARTICIPANT = 32
# What --config may override: the smoke test shrinks the net and the data.
DEFAULTS = {
    "participants": 3,
    "minutes": 2.0,
    "epochs": 4,
    "window_frames": 5000,   # full production net: 50,000 inputs
    "stem_width": 128,
    "block_dims": None,
}


def first_blinks(rec, labeled, cfg: dict) -> list:
    """The first BLINKS_PER_PARTICIPANT blinks that have a full window."""
    if len(rec.frames) < cfg["window_frames"]:
        return []
    ready_ns = rec.frames[cfg["window_frames"] - 1].timestamp_ns
    ready = [lb for lb in labeled if lb.blink.offset_ns >= ready_ns]
    return ready[:BLINKS_PER_PARTICIPANT]


def pipeline(cfg: dict, seed: int, out: str, tracer=None) -> dict:
    """One seeded run from config to eval report, as the CLI runs it."""
    import numpy as np
    from blinkpipe import dataset, eval as evaluation, net, sim
    from blinkpipe.window import DEFAULT_LOOKBACK_FRAMES

    def calls(name):
        return tracer.durations(name).size if tracer is not None else 0

    os.makedirs(out)
    rep = {}
    t0 = time.perf_counter()
    cpu0 = time.process_time()
    validate0, update0 = calls("core.validate"), calls("segmenter.update")
    # blinkpipe simulate
    frames = 0
    paths = []
    for i in range(cfg["participants"]):
        pid = f"P{i:02d}"
        rec, _ = sim.generate_session(sim.SimConfig(
            seed=seed + i, duration_s=cfg["minutes"] * 60.0, participant_id=pid))
        frames += len(rec.frames)
        paths.append(os.path.join(out, pid + ".csv"))
        dataset.save_recording(rec, paths[-1])
        del rec
    # blinkpipe train: load, split by participant, label, cut
    recs = [dataset.load_recording(p) for p in paths]
    spec = dataset.assign_participants((r.participant_id for r in recs),
                                       dataset.SplitSpec(), seed)
    rng = np.random.default_rng(seed)
    buckets = {"train": [], "val": [], "test": []}
    for rec in recs:
        if rec.participant_id in spec.train:
            bucket, copies = "train", AUGMENT_COPIES
        elif rec.participant_id in spec.val:
            bucket, copies = "val", 0
        else:
            bucket, copies = "test", 0
        labeled = first_blinks(rec, dataset.label_blinks(rec), cfg)
        buckets[bucket].extend(dataset.materialize_windows(
            rec, labeled, cfg["window_frames"], DEFAULT_LOOKBACK_FRAMES, copies, rng))
    del recs
    t_prep = time.perf_counter()
    rep["prep_cpu_s"] = time.process_time() - cpu0
    rep["prep_validate_calls"] = calls("core.validate") - validate0
    rep["prep_update_calls"] = calls("segmenter.update") - update0
    train_pairs = [(lb.window, lb.label) for lb in buckets["train"]]
    val_pairs = [(lb.window, lb.label) for lb in buckets["val"]]
    rep["train_examples"] = len(train_pairs)
    del buckets
    epoch_ends = []
    model_dir = os.path.join(out, "model")
    net.train(train_pairs, val_pairs, epochs=cfg["epochs"], seed=seed,
              batch_size=BATCH_SIZE, checkpoint_dir=model_dir,
              stem_width=cfg["stem_width"], block_dims=cfg["block_dims"],
              log=lambda _msg: epoch_ends.append(time.perf_counter()))
    t_train = time.perf_counter()
    del train_pairs, val_pairs
    # blinkpipe eval on the held-out participant
    best = os.path.join(model_dir, "best.bnet")
    model = net.ModelCheckpoint.load(best).build_net()
    truth, predicted = [], []
    frames_eval = 0
    for pid in sorted(spec.test):
        rec = dataset.load_recording(os.path.join(out, pid + ".csv"))
        frames_eval += len(rec.frames)
        labeled = first_blinks(rec, dataset.label_blinks(rec), cfg)
        for lb in dataset.materialize_windows(rec, labeled, cfg["window_frames"],
                                              DEFAULT_LOOKBACK_FRAMES):
            truth.append(lb.label)
            predicted.append(net.classify(model, lb.window)[0])
    report = evaluation.metrics_report(
        evaluation.ConfusionMatrix.from_predictions(truth, predicted))
    t_end = time.perf_counter()
    rep["cpu_s"] = time.process_time() - cpu0
    with open(best, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    starts = [t_prep] + epoch_ends[:-1]
    rep.update({
        "frames": frames,
        "eval_frames": frames_eval,
        "wall_s": t_end - t0,
        "prep_s": t_prep - t0,
        "train_s": t_train - t_prep,
        "eval_s": t_end - t_train,
        "epoch_s": [e - s for s, e in zip(starts, epoch_ends)],
        "digest": digest,
        "confusion": report["confusion"],
        "eval_n": report["n"],
    })
    return rep


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-reps", type=int, default=1)
    parser.add_argument("--config", default="{}")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--ready-only", action="store_true")
    opts = parser.parse_args()
    common.use_tree_sources()
    import blinkpipe.cli  # noqa: F401  (everything `blinkpipe` loads)
    print("ready", flush=True)
    if opts.ready_only:
        return 0
    cfg = dict(DEFAULTS, **json.loads(opts.config))
    tracer = None
    if opts.trace_out:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install_offline(tracer)
    reps, errors = [], []
    start = time.perf_counter()
    while True:
        out = os.path.join(opts.work, f"rep{len(reps) + len(errors)}")
        if tracer is not None:
            tracer.trace = len(reps) + len(errors)
        try:
            reps.append(pipeline(cfg, opts.seed, out, tracer))
        except Exception:
            errors.append(traceback.format_exc())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        done = len(reps) + len(errors)
        elapsed = time.perf_counter() - start
        if done >= opts.min_reps and elapsed + elapsed / done > opts.seconds:
            break
    if tracer is not None:
        tracer.dump(opts.trace_out)
    print(json.dumps({
        "reps": reps,
        "errors": errors,
        "peak_rss_mb": common.peak_rss_mb(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
