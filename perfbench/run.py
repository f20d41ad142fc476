"""blinkpipe benchmark: one workload run, printed as a report plus one JSON line.

    python3 perfbench/run.py --workload live_paced --seed 1 --seconds 30 --trace 0

Run it from the root of a source tree; it measures that tree's ``src``.
Workloads (see README.md):

  live_paced     two sessions paced at 200 Hz; blink-to-client latency
  ingest_flood   two unpaced sessions; frames ingested per second
  offline_train  simulate, save/load, label, cut, train, eval in one process

With ``--trace 0`` the JSON metrics are the end-to-end ones, measured
without tracing. With ``--trace 1`` the run measures half its time
untraced and half traced and the JSON metrics are the per-layer ones.
The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402

# Before numpy loads: this process and the program processes it starts use
# single-threaded BLAS (see README.md, "Machine").
os.environ.update(common.BLAS_ENV)

WORKLOADS = ("live_paced", "ingest_flood", "offline_train")


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: str,
                 **kwargs) -> common.Result:
    if name == "offline_train":
        import offline
        return offline.offline_train(seed, seconds, trace, work, **kwargs)
    import serving
    fn = serving.live_paced if name == "live_paced" else serving.ingest_flood
    return fn(seed, seconds, trace, work, **kwargs)


def render(name: str, res: common.Result, trace: bool, machine: dict) -> list:
    """Report lines and the final JSON line for one result."""
    metrics = res.per_layer if trace else res.end_to_end
    if trace:
        missing = [m for m, _ in common.COMMON_LAYER_METRICS if m not in metrics]
        if missing:
            res.problems.append(f"per-layer metrics not measured: {missing}")
    lines = [f"workload {name}  machine {json.dumps(machine, sort_keys=True)}"]
    lines += res.report
    lines.append("JSON metrics:")
    for key, (value, unit) in metrics.items():
        lines.append(f"  {key:<34} {value:>12.6g} {unit}")
    lines.append(f"attempted {res.attempted} failed {res.failed}"
                 f" correct {res.correct}")
    lines += [f"problem: {p}" for p in res.problems]
    lines.append(json.dumps({
        "correct": res.correct,
        "attempted": max(1, res.attempted),
        "failed": res.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.use_tree_sources()
    except common.SourceTreeMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    work = os.path.join(common.ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work)
    try:
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
        lines = render(args.workload, res, bool(args.trace),
                       common.machine_info(args.seed))
    except Exception:
        traceback.print_exc()
        print("perfbench: workload failed; no result", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
