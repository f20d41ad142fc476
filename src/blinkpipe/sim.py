"""Synthetic gaze-session generator with a ground-truth ledger.

Closures are scheduled as Poisson arrivals per process (spontaneous
blinks, voluntary blinks, winks) and placed left-to-right with a minimum
gap between closure spans: an arrival landing inside the exclusion zone is
pushed later rather than dropped, so empirical rates track the configured
ones. Openness dips are raised-cosine profiles; voluntary styles add a
plateau (ExtendedHold: long shallow-ramped hold; FirmBrief: brief deep
closure with a steeper ramp), which is what makes intent learnable from
the signal shape. A "hard mode" narrows the style distributions toward the
spontaneous ones.

Everything is driven by one seeded generator in a fixed draw order, so an
identical SimConfig reproduces the recording byte for byte.

Pupil diameter is a bounded random walk with post-blink dips; it is
plausible filler, not a physiological model.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple, TypeVar

import numpy as np

from .core import (
    DEFAULT_CLOSED_THRESHOLD,
    FRAME_INTERVAL_NS,
    SAMPLE_RATE_HZ,
    BlinkEvent,
    BlinkKind,
    BlinkLabel,
    GazeFrame,
    atomic_path,
)
from .dataset import Recording

_Frame = TypeVar("_Frame")

STYLE_SPONTANEOUS = "spontaneous"
STYLE_EXTENDED_HOLD = "extended_hold"
STYLE_FIRM_BRIEF = "firm_brief"
STYLE_WINK_LEFT = "wink_left"
STYLE_WINK_RIGHT = "wink_right"

_BLINK_STYLES = (STYLE_SPONTANEOUS, STYLE_EXTENDED_HOLD, STYLE_FIRM_BRIEF)


# Fixed simulator settings: closure shapes and spacing, gaze kinematics and
# measurement noise.
SPONTANEOUS_DURATION_MS = (100.0, 150.0)
SPONTANEOUS_DEPTH = (0.55, 0.85)
EXTENDED_HOLD_WEIGHT = 0.5  # share of voluntary blinks; the rest are FirmBrief
MIN_GAP_MS = 260.0
# At most 180 ms: the segmented blink end may sit a few frames off the
# ledger's, and the press must stay inside dataset.INTENT_MARGIN_NS of it.
PRESS_JITTER_MS = 140.0
FIXATION_DURATION_S = (0.2, 0.8)
SACCADE_AMPLITUDE_DEG = 15.0
OPENNESS_NOISE = 0.005
PUPIL_NOISE_MM = 0.01
DIRECTION_NOISE = 0.0015
CLOSED_DIRECTION_NOISE_FACTOR = 5.0


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    duration_s: float = 60.0
    participant_id: str = "P00"
    spontaneous_rate_per_min: float = 17.0
    voluntary_rate_per_min: float = 15.0
    wink_rate_per_min: float = 2.0
    hard_mode: bool = False

    def __post_init__(self):
        if self.duration_s < 0:
            raise ValueError("duration_s must be non-negative")
        for name in ("spontaneous_rate_per_min", "voluntary_rate_per_min",
                     "wink_rate_per_min"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class LedgerEntry:
    blink: BlinkEvent
    label: BlinkLabel
    style: str


@dataclass(frozen=True)
class GroundTruthLedger:
    """Exact schedule of every generated closure plus derived presses."""

    entries: Tuple[LedgerEntry, ...]
    button_presses: Tuple[int, ...]

    def classification_entries(self) -> List[LedgerEntry]:
        """Both-eye closures only: what the labeling pipeline can see."""
        return [e for e in self.entries if e.blink.kind is BlinkKind.BOTH_EYES]

    def by_style(self, style: str) -> List[LedgerEntry]:
        return [e for e in self.entries if e.style == style]


# --------------------------------------------------------------------------
# closure profiles


@dataclass(frozen=True)
class _Closure:
    style: str
    start_s: float
    width_s: float
    depth: float
    ramp_s: float  # 0 means a pure raised cosine, else ramp/hold/ramp
    left: bool
    right: bool


def _cosine_width_for_duration(closed_s: float, depth: float,
                               threshold: float) -> float:
    """Raised-cosine span whose sub-threshold time equals `closed_s`."""
    q = (1.0 - threshold) / depth
    u0 = math.acos(1.0 - 2.0 * q) / (2.0 * math.pi)
    return closed_s / (1.0 - 2.0 * u0)


def _dip_profile(c: _Closure, t_rel: np.ndarray) -> np.ndarray:
    """Dip amount in [0, depth] for times relative to the closure start."""
    out = np.zeros_like(t_rel)
    inside = (t_rel >= 0) & (t_rel <= c.width_s)
    t = t_rel[inside]
    if c.ramp_s == 0:
        prof = 0.5 * (1.0 - np.cos(2.0 * math.pi * t / c.width_s))
    else:
        r, w = c.ramp_s, c.width_s
        prof = np.ones_like(t)
        down = t < r
        up = t > w - r
        prof[down] = 0.5 * (1.0 - np.cos(math.pi * t[down] / r))
        prof[up] = 0.5 * (1.0 - np.cos(math.pi * (w - t[up]) / r))
    out[inside] = c.depth * prof
    return out


def _draw_closure_params(cfg: SimConfig, style: str,
                         rng: np.random.Generator) -> Tuple[float, float, float]:
    """(width_s, depth, ramp_s) for one closure of the given style."""
    thr = DEFAULT_CLOSED_THRESHOLD
    if style == STYLE_SPONTANEOUS:
        closed = rng.uniform(*SPONTANEOUS_DURATION_MS) / 1000.0
        depth = rng.uniform(*SPONTANEOUS_DEPTH)
        return _cosine_width_for_duration(closed, depth, thr), depth, 0.0
    if style == STYLE_EXTENDED_HOLD:
        if cfg.hard_mode:
            hold = rng.uniform(0.15, 0.25)
            depth = rng.uniform(0.70, 0.90)
        else:
            hold = rng.uniform(0.30, 0.60)
            depth = rng.uniform(0.90, 0.98)
        ramp = 0.060
        return hold + 2 * ramp, depth, ramp
    if style == STYLE_FIRM_BRIEF:
        if cfg.hard_mode:
            hold = rng.uniform(0.10, 0.16)
            depth = rng.uniform(0.70, 0.90)
        else:
            hold = rng.uniform(0.12, 0.18)
            depth = rng.uniform(0.93, 0.99)
        ramp = 0.025
        return hold + 2 * ramp, depth, ramp
    # winks: sustained one-eye closure long enough to carry a drag
    hold = rng.uniform(0.40, 0.90)
    depth = rng.uniform(0.85, 0.95)
    ramp = 0.040
    return hold + 2 * ramp, depth, ramp


def _poisson_arrivals(rate_per_min: float, duration_s: float,
                      rng: np.random.Generator) -> List[float]:
    out = []
    if rate_per_min <= 0:
        return out
    mean_gap = 60.0 / rate_per_min
    t = rng.exponential(mean_gap)
    while t < duration_s:
        out.append(t)
        t += rng.exponential(mean_gap)
    return out


def _schedule_closures(cfg: SimConfig, rng: np.random.Generator,
                       duration_s: float) -> List[_Closure]:
    arrivals: List[Tuple[float, int, str]] = []
    for t in _poisson_arrivals(cfg.spontaneous_rate_per_min, duration_s, rng):
        arrivals.append((t, 0, STYLE_SPONTANEOUS))
    for t in _poisson_arrivals(cfg.voluntary_rate_per_min, duration_s, rng):
        style = (STYLE_EXTENDED_HOLD
                 if rng.uniform() < EXTENDED_HOLD_WEIGHT
                 else STYLE_FIRM_BRIEF)
        arrivals.append((t, 1, style))
    for t in _poisson_arrivals(cfg.wink_rate_per_min, duration_s, rng):
        side = STYLE_WINK_LEFT if rng.uniform() < 0.5 else STYLE_WINK_RIGHT
        arrivals.append((t, 2, side))
    arrivals.sort(key=lambda a: (a[0], a[1]))

    placed: List[_Closure] = []
    cursor = 0.2  # no closure straddling the stream start
    gap = MIN_GAP_MS / 1000.0
    tail_margin = 0.05
    for t_raw, _, style in arrivals:
        width, depth, ramp = _draw_closure_params(cfg, style, rng)
        start = max(t_raw, cursor)
        if start + width > duration_s - tail_margin:
            continue
        placed.append(_Closure(
            style=style, start_s=start, width_s=width, depth=depth,
            ramp_s=ramp,
            left=style != STYLE_WINK_RIGHT,
            right=style != STYLE_WINK_LEFT,
        ))
        cursor = start + width + gap
    return placed


# --------------------------------------------------------------------------
# gaze kinematics


def _dir_from_angles(azimuth_rad: float, elevation_rad: float) -> np.ndarray:
    d = np.array([
        math.sin(azimuth_rad) * math.cos(elevation_rad),
        math.sin(elevation_rad),
        math.cos(azimuth_rad) * math.cos(elevation_rad),
    ])
    return d / np.linalg.norm(d)


def _slerp(a: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    dot = float(np.clip(np.dot(a, b), -1.0, 1.0))
    theta = math.acos(dot)
    if theta < 1e-9:
        return np.tile(a, (len(u), 1))
    sa = np.sin((1.0 - u) * theta) / math.sin(theta)
    sb = np.sin(u * theta) / math.sin(theta)
    return sa[:, None] * a[None, :] + sb[:, None] * b[None, :]


def _gaze_track(rng: np.random.Generator, n: int, dt: float) -> np.ndarray:
    """(n, 3) unit gaze directions alternating fixations and saccades."""
    out = np.zeros((n, 3))
    amp = math.radians(SACCADE_AMPLITUDE_DEG)
    current = _dir_from_angles(rng.uniform(-amp, amp), rng.uniform(-amp * 0.6, amp * 0.6))
    i = 0
    while i < n:
        fix_frames = max(1, int(round(rng.uniform(*FIXATION_DURATION_S) / dt)))
        j = min(n, i + fix_frames)
        out[i:j] = current
        i = j
        if i >= n:
            break
        target = _dir_from_angles(rng.uniform(-amp, amp),
                                  rng.uniform(-amp * 0.6, amp * 0.6))
        angle_deg = math.degrees(math.acos(float(np.clip(np.dot(current, target),
                                                         -1.0, 1.0))))
        sac_frames = max(1, int(round((0.030 + 0.002 * angle_deg) / dt)))
        j = min(n, i + sac_frames)
        u = (np.arange(j - i) + 1) / sac_frames
        ease = 0.5 * (1.0 - np.cos(math.pi * u))
        out[i:j] = _slerp(current, target, ease)
        current = target
        i = j
    return out


def _reflect_into(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    span = hi - lo
    y = np.mod(x - lo, 2.0 * span)
    return lo + np.where(y > span, 2.0 * span - y, y)


# --------------------------------------------------------------------------
# session assembly


def generate_session(cfg: SimConfig) -> Tuple[Recording, GroundTruthLedger]:
    rng = np.random.default_rng(cfg.seed)
    dt = 1.0 / SAMPLE_RATE_HZ
    n = int(round(cfg.duration_s * SAMPLE_RATE_HZ))
    timestamps = np.arange(n, dtype=np.int64) * FRAME_INTERVAL_NS
    times_s = np.arange(n) * dt
    thr = DEFAULT_CLOSED_THRESHOLD

    closures = _schedule_closures(cfg, rng, cfg.duration_s) if n else []

    dip_left = np.zeros(n)
    dip_right = np.zeros(n)
    for c in closures:
        i0 = max(0, int(math.floor(c.start_s / dt)))
        i1 = min(n, int(math.ceil((c.start_s + c.width_s) / dt)) + 1)
        seg = _dip_profile(c, times_s[i0:i1] - c.start_s)
        if c.left:
            dip_left[i0:i1] += seg
        if c.right:
            dip_right[i0:i1] += seg

    # Ledger events come from the sampled noiseless waveform: onset is the
    # first frame under the 0.7 threshold, offset the first frame back at
    # or above it.
    entries: List[LedgerEntry] = []
    press_times: List[int] = []
    for c in closures:
        dip = dip_left if c.left else dip_right
        i0 = max(0, int(math.floor(c.start_s / dt)))
        i1 = min(n, int(math.ceil((c.start_s + c.width_s) / dt)) + 1)
        sub = np.nonzero(dip[i0:i1] > (1.0 - thr))[0]
        if sub.size == 0:
            raise AssertionError(
                f"closure at {c.start_s:.3f}s produced no sub-threshold frame"
            )
        onset_idx = i0 + int(sub[0])
        offset_idx = i0 + int(sub[-1]) + 1
        if offset_idx >= n:
            continue
        if c.style == STYLE_SPONTANEOUS:
            kind, label = BlinkKind.BOTH_EYES, BlinkLabel.INVOLUNTARY
        elif c.style in (STYLE_EXTENDED_HOLD, STYLE_FIRM_BRIEF):
            kind, label = BlinkKind.BOTH_EYES, BlinkLabel.VOLUNTARY
        elif c.style == STYLE_WINK_LEFT:
            kind, label = BlinkKind.LEFT_WINK, BlinkLabel.VOLUNTARY
        else:
            kind, label = BlinkKind.RIGHT_WINK, BlinkLabel.VOLUNTARY
        event = BlinkEvent(
            onset_ns=int(timestamps[onset_idx]),
            offset_ns=int(timestamps[offset_idx]),
            kind=kind,
            min_openness_left=1.0 - c.depth if c.left else 1.0,
            min_openness_right=1.0 - c.depth if c.right else 1.0,
        )
        entries.append(LedgerEntry(event, label, c.style))
        if kind is BlinkKind.BOTH_EYES and label is BlinkLabel.VOLUNTARY:
            jitter_ns = int(round(rng.uniform(-PRESS_JITTER_MS,
                                              PRESS_JITTER_MS) * 1e6))
            press_times.append(event.offset_ns + jitter_ns)

    open_left = np.clip(1.0 - dip_left
                        - np.abs(rng.normal(0.0, OPENNESS_NOISE, n)), 0.0, 1.0)
    open_right = np.clip(1.0 - dip_right
                         - np.abs(rng.normal(0.0, OPENNESS_NOISE, n)), 0.0, 1.0)

    gaze = _gaze_track(rng, n, dt)
    jitter = rng.normal(0.0, DIRECTION_NOISE, (2, n, 3))
    # Measurements degrade while the lid occludes the pupil.
    factor_l = np.where(dip_left > 0.5, CLOSED_DIRECTION_NOISE_FACTOR, 1.0)
    factor_r = np.where(dip_right > 0.5, CLOSED_DIRECTION_NOISE_FACTOR, 1.0)
    dir_left = gaze + jitter[0] * factor_l[:, None]
    dir_right = gaze + jitter[1] * factor_r[:, None]
    dir_left /= np.linalg.norm(dir_left, axis=1, keepdims=True)
    dir_right /= np.linalg.norm(dir_right, axis=1, keepdims=True)

    base = rng.uniform(3.5, 5.5)
    asymmetry = rng.uniform(-0.2, 0.2)
    walk = base + np.cumsum(rng.normal(0.0, 0.02, n)) if n else np.zeros(0)
    pupil = _reflect_into(walk, 2.2, 7.8)
    reflex = np.zeros(n)
    for e in entries:
        if e.blink.kind is not BlinkKind.BOTH_EYES:
            continue
        start = e.blink.offset_ns / 1e9
        i0 = int(math.floor(start / dt))
        i1 = min(n, i0 + int(0.5 / dt))
        u = (times_s[i0:i1] - start) / 0.5
        reflex[i0:i1] += 0.25 * 0.5 * (1.0 - np.cos(2.0 * math.pi
                                                    * np.clip(u, 0.0, 1.0)))
    pupil_noise = rng.normal(0.0, PUPIL_NOISE_MM, (2, n))
    pupil_left = np.clip(pupil - reflex + pupil_noise[0], 2.0, 8.0)
    pupil_right = np.clip(pupil + asymmetry - reflex + pupil_noise[1], 2.0, 8.0)

    # Python floats and ints from whole columns: one conversion per column,
    # not ten numpy-scalar reads per frame.
    frames = list(map(
        GazeFrame, timestamps.tolist(), pupil_left.tolist(), pupil_right.tolist(),
        open_left.tolist(), open_right.tolist(),
        zip(*dir_left.T.tolist()), zip(*dir_right.T.tolist())))
    recording = Recording(
        participant_id=cfg.participant_id,
        frames=frames,
        button_presses=sorted(press_times),
        metadata={"device": "sim", "rate_hz": str(SAMPLE_RATE_HZ),
                  "version": "1", "sim_seed": str(cfg.seed)},
    )
    ledger = GroundTruthLedger(tuple(entries), tuple(sorted(press_times)))
    return recording, ledger


def replay(frames: Sequence[_Frame],
           speed_multiplier: float = 1.0) -> Iterator[_Frame]:
    """Re-emit frames at scaled wall-clock cadence; 0 = as fast as possible.

    Frames are anything with a `timestamp_ns`. Pacing sleeps toward
    absolute targets, so scheduling hiccups do not accumulate drift. A
    negative speed raises ValueError at the call, before any frame.
    """
    if speed_multiplier < 0:
        raise ValueError("speed_multiplier must be non-negative")

    def paced() -> Iterator[_Frame]:
        wall0 = time.monotonic()
        for fr in frames:
            if speed_multiplier > 0:
                target = (wall0 + (fr.timestamp_ns - frames[0].timestamp_ns)
                          / 1e9 / speed_multiplier)
                delay = target - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            yield fr

    return paced()


# --------------------------------------------------------------------------
# ledger files


def save_ledger(ledger: GroundTruthLedger, path: str) -> None:
    obj = {
        "version": 1,
        "entries": [
            {
                "onset_ns": e.blink.onset_ns,
                "offset_ns": e.blink.offset_ns,
                "kind": e.blink.kind.name,
                "min_openness_left": e.blink.min_openness_left,
                "min_openness_right": e.blink.min_openness_right,
                "label": e.label.name,
                "style": e.style,
            }
            for e in ledger.entries
        ],
        "button_presses": list(ledger.button_presses),
    }
    with atomic_path(path) as tmp, open(tmp, "w", encoding="ascii") as f:
        json.dump(obj, f, indent=1)
        f.write("\n")


def load_ledger(path: str) -> GroundTruthLedger:
    with open(path, "r", encoding="ascii") as f:
        obj = json.load(f)
    entries = tuple(
        LedgerEntry(
            BlinkEvent(
                onset_ns=d["onset_ns"],
                offset_ns=d["offset_ns"],
                kind=BlinkKind[d["kind"]],
                min_openness_left=d["min_openness_left"],
                min_openness_right=d["min_openness_right"],
            ),
            BlinkLabel[d["label"]],
            d["style"],
        )
        for d in obj["entries"]
    )
    return GroundTruthLedger(entries, tuple(obj["button_presses"]))
