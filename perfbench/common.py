"""Helpers shared by run.py and the program processes it starts.

The benchmark always runs the blinkpipe sources of the tree it sits in
(``<root>/src``), never an installed copy, so that a checkout measures its
own code.
"""
from __future__ import annotations

import ctypes
import json
import os
import platform
import selectors
import statistics
import sys
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "perfbench")
# Set-up time is the median over this many launches of the program process.
SETUP_LAUNCHES = 7
# On a two-core machine shared with the load generator, OpenBLAS's helper
# thread busy-waits between calls and slows the batch-1 forward pass, so
# every process of the benchmark runs BLAS on one thread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class SourceTreeMissing(RuntimeError):
    """The checkout has no blinkpipe sources next to the benchmark."""


def use_tree_sources() -> None:
    """Put this tree's ``src`` first on sys.path and prove it is what imports."""
    if not os.path.isfile(os.path.join(SRC, "blinkpipe", "__init__.py")):
        raise SourceTreeMissing(f"no blinkpipe sources under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import blinkpipe
    where = os.path.dirname(os.path.abspath(blinkpipe.__file__))
    if where != os.path.join(SRC, "blinkpipe"):
        raise SourceTreeMissing(f"blinkpipe imported from {where}, not {SRC}")


def child_env() -> Dict[str, str]:
    """Environment for program processes: this tree's sources, unbuffered."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONUNBUFFERED"] = "1"
    env.update(BLAS_ENV)
    return env


def peak_rss_mb() -> float:
    """High-water resident set of the calling process, from its own VmHWM."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds_of(pid: int) -> float:
    """User plus system CPU time of process `pid`, all threads included."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is state (field 3 of stat(5)); utime and stime are 14 and 15.
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]); needs one value."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def _blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_info(seed: int) -> Dict[str, object]:
    """What the result depends on besides the code: host, runtime, seed."""
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # numpy < 1.25 has no dict mode; the name is optional
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def read_line(proc, timeout: float) -> str:
    """One line of a child's binary stdout, or "" if none comes in time."""
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        if not sel.select(timeout):
            return ""
    finally:
        sel.close()
    return proc.stdout.readline().decode("ascii", "replace").strip()


def write_json_atomic(path: str, payload) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def read_json(path: str):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def describe(values: List[float]) -> str:
    if not values:
        return "n=0"
    return (f"n={len(values)} p50={percentile(values, 50):.4g}"
            f" p95={percentile(values, 95):.4g} max={max(values):.4g}")


# Per-layer metrics every workload measures; the JSON of a traced run
# carries these. Layer numbers a workload alone has (proto on the serving
# path, training and dataset steps offline) are printed in its report.
COMMON_LAYER_METRICS = (
    ("sim.generate_us", "us"),
    ("core.validate_us", "us"),
    ("core.validate_calls_per_frame", "count"),
    ("segmenter.update_us", "us"),
    ("segmenter.update_calls_per_frame", "count"),
    ("window.push_us", "us"),
    ("window.cut_ms", "ms"),
    ("net.forward_ms", "ms"),
    ("net.checkpoint_load_ms", "ms"),
    ("net.checkpoint_save_ms", "ms"),
    ("net.checkpoint_mb", "MB"),
)


class Result:
    """What one workload run found: metrics, counts, checks and report lines."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.end_to_end: Dict[str, tuple] = {}
        self.per_layer: Dict[str, tuple] = {}
        self.report: List[str] = []

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def line(self, name: str, value, unit: str, note: str = "") -> None:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        self.report.append(f"  {name:<34} {shown:>12} {unit:<9} {note}".rstrip())


def tracing_overhead(res: Result, untraced: Dict[str, tuple],
                     traced: Dict[str, tuple]) -> None:
    res.report.append("tracing overhead (traced / untraced - 1, same run):")
    for name, (u, unit) in untraced.items():
        t = traced[name][0]
        res.line(name, (t / u - 1.0) if u else 0.0, "ratio",
                 f"untraced {u:.5g} traced {t:.5g} {unit}")
