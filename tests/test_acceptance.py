"""Release acceptance suite: one test per shipping criterion.

Every test is self-contained, states its tolerance in the docstring, and
prints one summary line with the measured numbers (visible with -s or on
failure). The per-test pass/fail line from ``pytest -v`` is the verdict.
"""
from __future__ import annotations

import json
import math
import random
import time
from typing import List, Optional, Tuple

import numpy as np
import pytest

from blinkpipe.cli import main as cli_main
from blinkpipe.core import (
    FRAME_INTERVAL_NS,
    BlinkLabel,
    BlinkPipeError,
    HeadPose,
)
from blinkpipe.dataset import (
    INTENT_MARGIN_NS,
    SplitSpec,
    assign_participants,
    label_blinks,
    materialize_windows,
)
from blinkpipe.eval import ConfusionMatrix, metrics, random_baseline
from blinkpipe.fsm import (
    EventKind,
    InteractionMachine,
    InteractionMode,
    InteractionState,
    UIPlane,
    step_blink_fsm,
)
from blinkpipe.net import (
    BatchNormLayer,
    BlinkNet,
    LinearLayer,
    MishActivation,
    ModelCheckpoint,
    batch_norm_init,
    classify,
    linear_init,
    softmax,
    softmax_cross_entropy,
    train,
)
from blinkpipe.proto import (
    BlinkServer,
    TruncatedMessage,
    ControlMsg,
    GazeFrameMsg,
    PredictionMsg,
    decode,
    encode,
    predictions_for_frames,
    replay_over_tcp,
    validate_frames,
)
from blinkpipe.segmenter import EyeState
from blinkpipe.sim import SimConfig, generate_session

from conftest import seeded_block, square_blink_offset_ns, square_blink_recording

OO = EyeState(False, False)
CC = EyeState(True, True)
LC = EyeState(True, False)
RC = EyeState(False, True)
EYES = {"oo": OO, "cc": CC, "lc": LC, "rc": RC}


# ===========================================================================
# Criterion 1: interaction machine vs. independent oracles
# ===========================================================================

# Hand-written transition table: (mode, eyes, head_moved) -> (next mode,
# emitted event kinds). Transcribed row by row from the interaction state
# diagram, deliberately not generated.
S, D = EventKind.SELECT, EventKind.DRAG_STARTED
U, E = EventKind.DRAG_DELTA, EventKind.DRAG_ENDED
HAND_TABLE = {
    ("default", "oo", False): ("default", ()),
    ("default", "oo", True): ("default", ()),
    ("default", "cc", False): ("selection", (S,)),
    ("default", "cc", True): ("selection", (S,)),
    ("default", "lc", False): ("default", ()),
    ("default", "lc", True): ("drag_start", (D,)),
    ("default", "rc", False): ("default", ()),
    ("default", "rc", True): ("drag_start", (D,)),

    ("selection", "oo", False): ("default", ()),
    ("selection", "oo", True): ("default", ()),
    ("selection", "cc", False): ("selection", ()),
    ("selection", "cc", True): ("selection", ()),
    ("selection", "lc", False): ("selection", ()),
    ("selection", "lc", True): ("selection", ()),
    ("selection", "rc", False): ("selection", ()),
    ("selection", "rc", True): ("selection", ()),

    ("drag_start", "oo", False): ("drag_end", (E,)),
    ("drag_start", "oo", True): ("drag_end", (E,)),
    ("drag_start", "cc", False): ("drag_end", (E,)),
    ("drag_start", "cc", True): ("drag_end", (E,)),
    ("drag_start", "lc", False): ("drag_update", (U,)),
    ("drag_start", "lc", True): ("drag_update", (U,)),
    ("drag_start", "rc", False): ("drag_update", (U,)),
    ("drag_start", "rc", True): ("drag_update", (U,)),

    ("drag_update", "oo", False): ("drag_end", (E,)),
    ("drag_update", "oo", True): ("drag_end", (E,)),
    ("drag_update", "cc", False): ("drag_end", (E,)),
    ("drag_update", "cc", True): ("drag_end", (E,)),
    ("drag_update", "lc", False): ("drag_update", (U,)),
    ("drag_update", "lc", True): ("drag_update", (U,)),
    ("drag_update", "rc", False): ("drag_update", (U,)),
    ("drag_update", "rc", True): ("drag_update", (U,)),

    ("drag_end", "oo", False): ("default", ()),
    ("drag_end", "oo", True): ("default", ()),
    ("drag_end", "cc", False): ("default", ()),
    ("drag_end", "cc", True): ("default", ()),
    ("drag_end", "lc", False): ("default", ()),
    ("drag_end", "lc", True): ("default", ()),
    ("drag_end", "rc", False): ("default", ()),
    ("drag_end", "rc", True): ("default", ()),
}


def _state_for(mode: InteractionMode) -> InteractionState:
    """A representative state in the given mode: drags anchored on-plane."""
    if mode in (InteractionMode.DRAG_START, InteractionMode.DRAG_UPDATE):
        return InteractionState(mode, (0.1, 0.0, 2.0), "w")
    if mode is InteractionMode.DEFAULT:
        return InteractionState()
    return InteractionState(mode, None, "w")


class NaiveInteraction:
    """Straight-line reference machine: mode strings, inline geometry.

    Keeps every computation in the plain formula form so it shares no code
    with the production machine; events come out as comparable tuples of
    (kind, timestamp, target, delta).
    """

    def __init__(self, distance_m: float, dead_zone_deg: float):
        self.d = distance_m
        self.dead_zone = dead_zone_deg
        self.mode = "default"
        self.anchor: Optional[Tuple[float, float, float]] = None
        self.target: Optional[str] = None
        self.prev: Optional[Tuple[float, float, float]] = None

    def _hit(self, head: HeadPose) -> Optional[Tuple[float, float, float]]:
        px, py, pz = head.position
        fx, fy, fz = head.forward
        if abs(fz) < 1e-9:
            return None
        t = (self.d - pz) / fz
        if t <= 1e-9:
            return None
        return (px + t * fx, py + t * fy, pz + t * fz)

    def step(self, left_closed: bool, right_closed: bool, head: HeadPose,
             hover: Optional[str]) -> List[tuple]:
        fx, fy, fz = head.forward
        if self.prev is None:
            moved = False
        else:
            gx, gy, gz = self.prev
            c = max(-1.0, min(1.0, gx * fx + gy * fy + gz * fz))
            moved = math.degrees(math.acos(c)) > self.dead_zone
        self.prev = (fx, fy, fz)
        ts = head.timestamp_ns
        events: List[tuple] = []
        if self.mode == "default":
            if left_closed and right_closed:
                self.mode, self.anchor, self.target = "selection", None, hover
                events.append(("select", ts, hover, None))
            elif (left_closed != right_closed) and moved:
                self.mode, self.anchor, self.target = "drag_start", self._hit(head), hover
                events.append(("drag_started", ts, hover, None))
            else:
                self.anchor = self.target = None
        elif self.mode == "selection":
            if not left_closed and not right_closed:
                self.mode, self.anchor, self.target = "default", None, None
        elif self.mode in ("drag_start", "drag_update"):
            if left_closed != right_closed:
                hit = self._hit(head)
                if hit is None:
                    self.mode = "drag_update"
                elif self.anchor is None:
                    self.mode, self.anchor = "drag_update", hit
                else:
                    delta = (hit[0] - self.anchor[0], hit[1] - self.anchor[1])
                    events.append(("drag_delta", ts, self.target, delta))
                    self.mode, self.anchor = "drag_update", hit
            else:
                events.append(("drag_ended", ts, self.target, None))
                self.mode, self.anchor = "drag_end", None
        else:
            self.mode, self.anchor, self.target = "default", None, None
        return events


def _spherical_forward(yaw: float, pitch: float) -> Tuple[float, float, float]:
    return (
        math.sin(yaw) * math.cos(pitch),
        math.sin(pitch),
        math.cos(yaw) * math.cos(pitch),
    )


def test_c01_fsm_matches_hand_table_and_naive_reference():
    """Exhaustive transitions match a hand-written table with 0 divergences,
    and 10,000 random traces produce event sequences identical to a naive
    reference machine, all in under 10 seconds."""
    t0 = time.monotonic()

    # Part 1: exhaustive 5 modes x 4 eye pairs x {still, moved}.
    plane = UIPlane.facing_user(2.0)
    head = HeadPose(1000, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    divergences = []
    for (mode_name, eye_name, moved), (want_mode, want_kinds) in HAND_TABLE.items():
        state = _state_for(InteractionMode(mode_name))
        new_state, events = step_blink_fsm(state, EYES[eye_name], head, plane,
                                           hover_target="q", head_moved=moved)
        got = (new_state.mode.value, tuple(e.kind for e in events))
        if got != (want_mode, want_kinds):
            divergences.append(((mode_name, eye_name, moved), got))
        for e in events:
            if e.kind in (EventKind.SELECT, EventKind.DRAG_STARTED):
                assert e.target_id == "q"
            else:
                assert e.target_id == "w"
            if e.kind is EventKind.DRAG_DELTA:
                assert e.delta == (-0.1, 0.0)
    assert divergences == [], f"{len(divergences)} divergent transitions: {divergences[:4]}"

    # Part 2: 10,000 random traces, exact event-sequence equality.
    rng = random.Random(20260819)
    trace_mismatches = 0
    for _ in range(10_000):
        d = rng.uniform(1.0, 3.0)
        dead_zone = rng.choice((0.3, 0.5, 1.0))
        machine = InteractionMachine(UIPlane.facing_user(d), dead_zone)
        naive = NaiveInteraction(d, dead_zone)
        pos = (rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        yaw = rng.uniform(-0.15, 0.15)
        pitch = rng.uniform(-0.15, 0.15)
        for i in range(12):
            # Step sizes sit at 0.3x or 2.5x the dead zone so the moved
            # decision never lands on the boundary.
            if rng.random() < 0.45:
                step = math.radians(dead_zone) * rng.choice((0.3, 2.5))
                if rng.random() < 0.5:
                    yaw += rng.choice((-1.0, 1.0)) * step
                else:
                    pitch += rng.choice((-1.0, 1.0)) * step
            fwd = _spherical_forward(yaw, pitch)
            if rng.random() < 0.06:
                fwd = (fwd[0], fwd[1], -fwd[2])  # faces away: ray misses
            head = HeadPose(i * FRAME_INTERVAL_NS, pos, fwd)
            eye_name = rng.choices(("oo", "cc", "lc", "rc"), (35, 20, 22, 23))[0]
            hover = rng.choice((None, "a", "b"))
            got = [(e.kind.value, e.timestamp_ns, e.target_id, e.delta)
                   for e in machine.step(EYES[eye_name], head, hover)]
            want = naive.step(eye_name in ("cc", "lc"), eye_name in ("cc", "rc"),
                              head, hover)
            if got != want:
                trace_mismatches += 1
                break
    elapsed = time.monotonic() - t0
    print(f"c01: 40/40 table rows, 10000 traces, "
          f"{trace_mismatches} mismatching, {elapsed:.2f}s")
    assert trace_mismatches == 0
    assert elapsed < 10.0


# ===========================================================================
# Criterion 2: drag deltas vs. a ray/plane oracle, telescoping sums
# ===========================================================================


def _oracle_hit(pose: HeadPose, d: float) -> np.ndarray:
    """Independent ray/plane intersection in vectorized form."""
    o = np.array([0.0, 0.0, d])
    n = np.array([0.0, 0.0, -1.0])
    p = np.asarray(pose.position, dtype=np.float64)
    f = np.asarray(pose.forward, dtype=np.float64)
    t = np.dot(o - p, n) / np.dot(f, n)
    return p + t * f


def test_c02_drag_deltas_match_ray_plane_oracle():
    """Over 1,000+ random head poses and plane distances, every emitted drag
    delta matches an independent intersection oracle within 1e-9 m, and the
    deltas telescope to the net displacement within 1e-9 m."""
    rng = np.random.default_rng(202)
    poses_checked = 0
    deltas_checked = 0
    worst = 0.0
    for drag in range(100):
        d = float(rng.uniform(0.8, 4.0))
        plane = UIPlane.facing_user(d)
        pos = tuple(float(v) for v in rng.uniform(-0.3, 0.3, 3))
        n_steps = 12 if drag < 30 else 11
        miss_steps = {4, 7} if drag < 30 else set()
        poses, hit_mask = [], []
        for i in range(n_steps):
            yaw, pitch = (float(v) for v in rng.uniform(-0.35, 0.35, 2))
            fwd = _spherical_forward(yaw, pitch)
            if i in miss_steps:
                fwd = (fwd[0], fwd[1], -fwd[2])
            poses.append(HeadPose(i * FRAME_INTERVAL_NS, pos, fwd))
            hit_mask.append(i not in miss_steps)

        state, events = step_blink_fsm(InteractionState(), LC, poses[0], plane,
                                       "t", head_moved=True)
        assert state.mode is InteractionMode.DRAG_START and state.drag_anchor is not None
        machine_deltas = []
        for pose in poses[1:]:
            state, events = step_blink_fsm(state, LC, pose, plane)
            machine_deltas.extend(e.delta for e in events
                                  if e.kind is EventKind.DRAG_DELTA)

        oracle_hits = [_oracle_hit(p, d) for p, hit in zip(poses, hit_mask) if hit]
        poses_checked += n_steps
        expected = np.diff(np.stack(oracle_hits), axis=0)[:, :2]
        got = np.asarray(machine_deltas)
        assert got.shape == expected.shape
        err = float(np.abs(got - expected).max()) if got.size else 0.0
        worst = max(worst, err)
        assert err <= 1e-9
        deltas_checked += len(machine_deltas)

        net = np.asarray(machine_deltas).sum(axis=0)
        tele_err = float(np.abs(net - (oracle_hits[-1] - oracle_hits[0])[:2]).max())
        worst = max(worst, tele_err)
        assert tele_err <= 1e-9
    print(f"c02: {poses_checked} poses, {deltas_checked} deltas, "
          f"worst error {worst:.2e} m")
    assert poses_checked >= 1000


# ===========================================================================
# Criterion 3: analytic gradients vs. central finite differences
# ===========================================================================


def _assert_grads(analytic: np.ndarray, numeric: np.ndarray, what: str) -> float:
    # Relative tolerance 1e-4 with a 1e-8 absolute floor: central
    # differences carry ~1e-10 noise, which would dominate a pure ratio
    # when the true gradient is zero (a bias feeding batch norm).
    gap = np.abs(analytic - numeric) - (1e-8 + 1e-4 * (np.abs(analytic) + np.abs(numeric)))
    assert float(gap.max()) <= 0.0, f"{what}: worst excess {float(gap.max()):.3e}"
    return float(gap.max())


def _numeric_grad(loss_fn, arr: np.ndarray, h: float = 1e-6) -> np.ndarray:
    flat = arr.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = loss_fn()
        flat[i] = keep - h
        down = loss_fn()
        flat[i] = keep
        out[i] = (up - down) / (2.0 * h)
    return out.reshape(arr.shape)


def _check_layer(layer, x: np.ndarray, train_mode: bool, name: str) -> int:
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    probe = rng.standard_normal(layer.forward(x, train_mode).shape)

    def loss() -> float:
        return float((layer.forward(x, train_mode) * probe).sum())

    layer.forward(x, train_mode)
    dx = layer.backward(probe)
    params = layer.params() if hasattr(layer, "params") else []
    grads = [p.grad.copy() for p in params]
    checked = 0
    for p, g in zip(params, grads):
        _assert_grads(g, _numeric_grad(loss, p.value), f"{name} param")
        checked += g.size
    _assert_grads(dx, _numeric_grad(loss, x), f"{name} input")
    return checked + dx.size


def test_c03_every_layer_and_full_net_pass_gradient_checks():
    """Analytic gradients of every layer type and of a 40-input two-block
    network match double-precision central differences within relative
    error 1e-4 (absolute floor 1e-8), in under 60 seconds."""
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    checked = 0

    checked += _check_layer(LinearLayer(*linear_init(7, 5, rng)),
                            rng.standard_normal((6, 7)), False, "linear")
    checked += _check_layer(BatchNormLayer(*batch_norm_init(5)),
                            2.0 + 3.0 * rng.standard_normal((8, 5)), True, "bn-train")
    bn = BatchNormLayer(*batch_norm_init(5))
    bn.running_mean = rng.standard_normal(5)
    bn.running_var = rng.uniform(0.5, 2.0, 5)
    checked += _check_layer(bn, rng.standard_normal((6, 5)), False, "bn-eval")
    checked += _check_layer(MishActivation(),
                            2.5 * rng.standard_normal((6, 5)), False, "mish")
    checked += _check_layer(seeded_block(6, 6, rng),
                            rng.standard_normal((8, 6)), True, "block-identity")
    checked += _check_layer(seeded_block(6, 4, rng),
                            rng.standard_normal((8, 6)), True, "block-projection")

    net = BlinkNet(input_dim=40, stem_width=16, block_dims=((16, 16), (16, 12)),
                   seed=11)
    x = rng.standard_normal((8, 40))
    y = np.array([0, 1, 0, 1, 1, 0, 1, 0])
    net.loss_and_gradients(x, y)
    analytic = [p.grad.copy() for p in net.params()]

    def net_loss() -> float:
        return float(softmax_cross_entropy(net.forward_logits(x, train=True), y)[0])

    for p, g in zip(net.params(), analytic):
        _assert_grads(g, _numeric_grad(net_loss, p.value), "full-net param")
        checked += g.size
    elapsed = time.monotonic() - t0
    print(f"c03: {checked} partials checked in {elapsed:.1f}s")
    assert elapsed < 60.0


# ===========================================================================
# Criterion 4: softmax normalization and batch-norm output statistics
# ===========================================================================


def test_c04_softmax_rows_normalize_and_batchnorm_standardizes():
    """Softmax rows sum to 1 within 1e-6 across 10,000 random logit rows
    spanning scales up to +/-1000; train-mode batch norm output has
    per-feature |mean| < 1e-5 and variance within 1e-4 of 1."""
    rng = np.random.default_rng(404)
    logits = rng.standard_normal((10_000, 5)) * 10.0 ** rng.uniform(-3, 3, (10_000, 1))
    logits[0] = [1000.0, -1000.0, 0.0, 500.0, -500.0]
    logits[1] = [-1000.0] * 5
    logits[2] = [1000.0] * 5
    probs = softmax(logits)
    assert np.isfinite(probs).all() and (probs >= 0).all()
    row_err = float(np.abs(probs.sum(axis=1) - 1.0).max())
    assert row_err <= 1e-6

    bn = BatchNormLayer(*batch_norm_init(64))
    x = rng.normal(-7.0, 13.0, (256, 64))
    out = bn.forward(x, train=True)
    mean_err = float(np.abs(out.mean(axis=0)).max())
    var_err = float(np.abs(out.var(axis=0) - 1.0).max())
    print(f"c04: row-sum err {row_err:.2e}, bn mean {mean_err:.2e}, "
          f"bn var err {var_err:.2e}")
    assert mean_err < 1e-5
    assert var_err <= 1e-4


# ===========================================================================
# Criterion 5: learnability on a simulated corpus
# ===========================================================================

SURROGATE_WINDOW = 500
SMALL_STEM = 64
SMALL_BLOCKS = ((64, 64), (64, 32), (32, 32))


def test_c05_simulated_corpus_is_learnable(tmp_path):
    """On a default-separability simulated corpus (>= 2,000 labeled blinks,
    participant-disjoint 80/10/10), <= 50 epochs at lr 1e-4 reach held-out
    accuracy >= 0.90 and beat the coin-flip baseline by >= 10 standard
    deviations of its Monte-Carlo spread, within 15 minutes; the full
    50,000-input configuration completes an epoch and passes the
    normalization, finiteness, and checkpoint-roundtrip invariants."""
    t0 = time.monotonic()

    blinks = []
    for i in range(10):
        pid = f"P{i:02d}"
        rec, _ = generate_session(SimConfig(seed=100 + i, duration_s=450.0,
                                            participant_id=pid))
        blinks.extend(materialize_windows(rec, label_blinks(rec),
                                          window_frames=SURROGATE_WINDOW))
    assert len(blinks) >= 2000

    ids = sorted({b.participant_id for b in blinks})
    assignment = assign_participants(ids, SplitSpec(), seed=5)
    buckets = {"train": [], "val": [], "test": []}
    for b in blinks:
        if b.participant_id in assignment.train:
            buckets["train"].append(b)
        elif b.participant_id in assignment.val:
            buckets["val"].append(b)
        else:
            buckets["test"].append(b)
    assert not (set(assignment.train) & set(assignment.val))
    assert not (set(assignment.train) & set(assignment.test))

    best, history = train(
        [(b.window, b.label) for b in buckets["train"]],
        [(b.window, b.label) for b in buckets["val"]],
        tmp_path / "small", epochs=20, seed=0, lr=1e-4, batch_size=32,
        stem_width=SMALL_STEM, block_dims=SMALL_BLOCKS,
    )
    assert len(history) <= 50

    model = best.build_net()
    truth = [b.label for b in buckets["test"]]
    preds = [classify(model, b.window)[0] for b in buckets["test"]]
    acc = metrics(ConfusionMatrix.from_predictions(truth, preds)).accuracy
    base = random_baseline(truth, seed=1, trials=10_000)
    sigmas = (acc - base.accuracy_mean) / base.accuracy_std

    # Full-size configuration: one epoch on a short session, same invariants.
    rec, _ = generate_session(SimConfig(seed=77, duration_s=75.0,
                                        participant_id="P99"))
    wins = materialize_windows(rec, label_blinks(rec), window_frames=5000)
    assert len(wins) >= 8
    pairs = [(b.window, b.label) for b in wins]
    best_full, hist_full = train(pairs[:-4], pairs[-4:], tmp_path / "full",
                                 epochs=1, seed=0, lr=1e-4, batch_size=32)
    full = best_full.net
    assert full.input_dim == 50_000 and full.stem_width == 128
    assert len(hist_full) == 1
    assert math.isfinite(hist_full[0].train_loss)
    assert math.isfinite(hist_full[0].val_loss)
    probs = full.forward(np.stack([w for w, _ in pairs[-4:]]))
    assert float(np.abs(probs.sum(axis=1) - 1.0).max()) <= 1e-6
    label, conf = classify(full, pairs[0][0])
    assert label in (BlinkLabel.VOLUNTARY, BlinkLabel.INVOLUNTARY)
    assert 0.5 <= conf <= 1.0
    p1, p2 = tmp_path / "full_a.bnet", tmp_path / "full_b.bnet"
    best_full.save(p1)
    ModelCheckpoint.load(p1).save(p2)
    assert p1.read_bytes() == p2.read_bytes()

    elapsed = time.monotonic() - t0
    print(f"c05: {len(blinks)} blinks "
          f"({len(buckets['train'])}/{len(buckets['val'])}/{len(buckets['test'])}), "
          f"acc {acc:.4f}, baseline {base.accuracy_mean:.4f}"
          f"+/-{base.accuracy_std:.4f} ({sigmas:.1f} sigma), {elapsed:.0f}s")
    assert acc >= 0.90
    assert sigmas >= 10.0
    assert elapsed < 900.0


# ===========================================================================
# Criterion 6: metrics vs. hand-computed confusion matrices
# ===========================================================================


def test_c06_metrics_match_hand_computed_matrices():
    """Accuracy, recall, precision, and F1 reproduce hand-worked values on
    known confusion matrices to 1e-12; the published operating point
    (tp=700 fn=300 fp=329 tn=1292) reports accuracy 0.76 within 0.005."""
    p_op = 700.0 / 1029.0
    cases = [
        (ConfusionMatrix(tp=3, fp=1, fn=2, tn=4),
         (7.0 / 10.0, 3.0 / 5.0, 3.0 / 4.0, 2.0 / 3.0)),
        (ConfusionMatrix(tp=700, fp=329, fn=300, tn=1292),
         (1992.0 / 2621.0, 0.7, p_op, 2.0 * p_op * 0.7 / (p_op + 0.7))),
        (ConfusionMatrix(tp=5, fp=0, fn=0, tn=5), (1.0, 1.0, 1.0, 1.0)),
        (ConfusionMatrix(tp=0, fp=0, fn=3, tn=7), (0.7, 0.0, 0.0, 0.0)),
    ]
    for cm, (acc, rec, prec, f1) in cases:
        m = metrics(cm)
        assert abs(m.accuracy - acc) <= 1e-12
        assert abs(m.recall - rec) <= 1e-12
        assert abs(m.precision - prec) <= 1e-12
        assert abs(m.f1 - f1) <= 1e-12
    op = metrics(ConfusionMatrix(tp=700, fp=329, fn=300, tn=1292))
    print(f"c06: operating point acc {op.accuracy:.6f}, f1 {op.f1:.4f}")
    assert abs(op.accuracy - 0.76) <= 0.005


# ===========================================================================
# Criterion 7: intent labels vs. the press-interval oracle
# ===========================================================================


def test_c07_intent_labels_match_interval_oracle():
    """1,000 synthetic (blink, press) pairs with press offsets spread over
    +/-400 ms get labeled Voluntary exactly when the press falls inside the
    inclusive 200 ms window around blink end, per an independent oracle."""
    closed = 20
    starts = [40 + i * 240 for i in range(1000)]
    offsets = [square_blink_offset_ns(s, closed) for s in starts]
    rng = np.random.default_rng(707)
    jitters = rng.integers(-400_000_000, 400_000_001, size=1000)
    jitters[:6] = (200_000_000, -200_000_000, 200_000_001,
                   -200_000_001, 0, 399_999_999)
    presses = [o + int(j) for o, j in zip(offsets, jitters)]
    rec = square_blink_recording(starts, closed_frames=closed, presses=presses,
                                 n_frames=starts[-1] + closed + 300)

    labeled = label_blinks(rec)
    assert len(labeled) == 1000
    assert [lb.blink.offset_ns for lb in labeled] == offsets

    press_arr = np.sort(np.asarray(presses, dtype=np.int64))
    expected = []
    for o in offsets:
        lo = np.searchsorted(press_arr, o - INTENT_MARGIN_NS, side="left")
        hi = np.searchsorted(press_arr, o + INTENT_MARGIN_NS, side="right")
        expected.append(BlinkLabel.VOLUNTARY if hi > lo else BlinkLabel.INVOLUNTARY)

    got = [lb.label for lb in labeled]
    n_vol = sum(1 for g in got if g is BlinkLabel.VOLUNTARY)
    print(f"c07: 1000 pairs, {n_vol} voluntary, exact match: {got == expected}")
    assert got == expected
    assert 0 < n_vol < 1000


# ===========================================================================
# Criterion 8: TCP serving equals in-process, at full frame rate
# ===========================================================================


def test_c08_tcp_session_matches_in_process_at_rate():
    """A 5-minute simulated session streamed over TCP yields the same
    prediction sequence as the in-process pipeline, with >= 99.9% of frames
    accepted and sustained throughput of at least 200 frames/s."""
    rec, _ = generate_session(SimConfig(seed=21, duration_s=300.0))
    frames = validate_frames(rec.frames)
    assert len(frames) == 60_000
    net = BlinkNet(input_dim=SURROGATE_WINDOW * 10, stem_width=16,
                   block_dims=((16, 16), (16, 8)), seed=4)

    local = predictions_for_frames(frames, net, window_frames=SURROGATE_WINDOW)

    with BlinkServer(net, port=0, window_frames=SURROGATE_WINDOW) as server:
        t0 = time.monotonic()
        remote = replay_over_tcp(server.address, frames, speed_multiplier=0.0)
        elapsed = time.monotonic() - t0
    stats = server.sessions[0]
    accepted = (stats.frames_received - stats.frames_dropped) / len(frames)
    rate = len(frames) / elapsed
    print(f"c08: {len(local)} predictions, accepted {accepted:.5f}, "
          f"{rate:.0f} frames/s ({elapsed:.1f}s)")
    assert remote == local
    assert len(local) > 0
    assert stats.frames_received == len(frames)
    assert accepted >= 0.999
    assert rate >= 200.0
    assert stats.error is None


def test_float32_stem_answers_agree_with_float64_at_the_full_shape():
    """Served answers come from an inference plan with a float32 stem and
    folded batch norms (`BlinkNet.for_inference`). On seeded 50,000-input
    nets and the windows of a simulated session, every label equals the
    float64 net's and every confidence is within 1e-5 of it."""
    rec, _ = generate_session(SimConfig(seed=31, duration_s=150.0,
                                        participant_id="P31"))
    wins = [b.window for b in materialize_windows(rec, label_blinks(rec),
                                                  window_frames=5000)]
    assert len(wins) >= 50
    labels, largest = set(), 0.0
    for seed in range(3):
        net = BlinkNet(seed=seed)
        served = net.for_inference()
        for w in wins:
            (want, want_conf), (got, got_conf) = classify(net, w), classify(served, w)
            assert got is want
            largest = max(largest, abs(got_conf - want_conf))
            labels.add(want)
    print(f"plan: {3 * len(wins)} answers agree, largest confidence "
          f"change {largest:.2e}")
    assert largest <= 1e-5
    assert labels == {BlinkLabel.VOLUNTARY, BlinkLabel.INVOLUNTARY}


# ===========================================================================
# Criterion 9: wire roundtrips and decoder fuzzing
# ===========================================================================


def test_c09_wire_roundtrips_and_fuzzing_stay_typed():
    """100,000 random valid messages encode/decode to equal values; every
    truncation and 30,000 corruption/garbage probes raise typed protocol
    errors (or decode cleanly), never anything else."""
    rng = np.random.default_rng(909)
    ts = rng.integers(0, 2**62, size=100_000)
    feats = rng.uniform(-8.0, 8.0, size=(100_000, 10)).astype(np.float32)
    confs = rng.uniform(0.0, 1.0, size=100_000).astype(np.float32)
    picks = rng.integers(0, 3, size=100_000)
    small = rng.integers(0, 2, size=(100_000, 2))

    encoded: List[bytes] = []
    for i in range(100_000):
        t = int(ts[i])
        if picks[i] == 0:
            msg = GazeFrameMsg(t, tuple(float(v) for v in feats[i]))
        elif picks[i] == 1:
            msg = PredictionMsg(t, t + 5_000_000, BlinkLabel(int(small[i, 0])),
                                float(confs[i]))
        else:
            msg = ControlMsg(t, int(small[i, 1]))
        data = encode(msg)
        out, used = decode(data)
        assert out == msg and used == len(data)
        if i < 2_000:
            encoded.append(data)

    truncations = 0
    for data in encoded[:500]:
        for cut in range(len(data)):
            with pytest.raises(TruncatedMessage):
                decode(data[:cut])
            truncations += 1

    corruptions = 0
    for i in range(30_000):
        base = bytearray(encoded[int(rng.integers(0, len(encoded)))])
        if rng.integers(0, 4) == 0:
            base = bytearray(rng.bytes(int(rng.integers(0, 80))))
        else:
            for _ in range(int(rng.integers(1, 4))):
                base[int(rng.integers(0, len(base)))] = int(rng.integers(0, 256))
        try:
            decode(bytes(base))
        except BlinkPipeError:
            pass  # typed protocol error: the required behavior
        corruptions += 1
    print(f"c09: 100000 roundtrips, {truncations} truncations, "
          f"{corruptions} corruption probes")


# ===========================================================================
# Criterion 10: simulator blink statistics
# ===========================================================================


def test_c10_simulator_spontaneous_statistics():
    """Across 10 seeds x 10 minutes, the mean spontaneous blink rate lies in
    [13, 21] per minute and every spontaneous duration lies within 10% of
    the [100, 150] ms target band (i.e. inside [90, 165] ms)."""
    rates = []
    durations_ms: List[float] = []
    for seed in range(10):
        _, ledger = generate_session(SimConfig(seed=seed, duration_s=600.0))
        spont = [e for e in ledger.entries if e.style == "spontaneous"]
        rates.append(len(spont) / 10.0)
        durations_ms.extend((e.blink.offset_ns - e.blink.onset_ns) / 1e6
                            for e in spont)
    mean_rate = sum(rates) / len(rates)
    lo, hi = min(durations_ms), max(durations_ms)
    print(f"c10: mean rate {mean_rate:.2f}/min (per-seed {min(rates):.1f}"
          f"-{max(rates):.1f}), durations {lo:.1f}-{hi:.1f} ms, "
          f"n={len(durations_ms)}")
    assert 13.0 <= mean_rate <= 21.0
    assert lo >= 90.0
    assert hi <= 165.0


# ===========================================================================
# Criterion 11: end-to-end reproducibility
# ===========================================================================


def _run_cli(*args: str) -> None:
    code = cli_main(list(args))
    assert code == 0, f"exit {code} for {args}"


def test_c11_pipeline_rerun_is_bit_reproducible(tmp_path):
    """Running simulate, a 5-epoch training, and eval twice with the same
    seeds yields byte-identical recordings, final losses equal within
    1e-12, and byte-identical evaluation reports."""
    outs = []
    for run in ("a", "b"):
        sim = tmp_path / f"sim_{run}"
        model = tmp_path / f"model_{run}"
        report = tmp_path / f"eval_{run}.json"
        _run_cli("simulate", "--out", str(sim), "--participants", "3",
                 "--minutes", "2", "--seed", "11")
        _run_cli("train", "--data", str(sim), "--out", str(model),
                 "--epochs", "5", "--window", "100", "--arch", "small",
                 "--batch-size", "16", "--seed", "3")
        _run_cli("eval", "--checkpoint", str(model / "best.bnet"),
                 "--test", str(sim / "P02.csv"), "--out", str(report),
                 "--seed", "0")
        outs.append((sim, model, report))

    (sim_a, model_a, rep_a), (sim_b, model_b, rep_b) = outs
    rec_files = sorted(p.name for p in sim_a.iterdir())
    assert rec_files == sorted(p.name for p in sim_b.iterdir())
    for name in rec_files:
        assert (sim_a / name).read_bytes() == (sim_b / name).read_bytes(), name

    hist_a = json.loads((model_a / "history.json").read_text())["history"]
    hist_b = json.loads((model_b / "history.json").read_text())["history"]
    assert len(hist_a) == len(hist_b) == 5
    final_a, final_b = hist_a[-1], hist_b[-1]
    assert abs(final_a["train_loss"] - final_b["train_loss"]) <= 1e-12
    assert abs(final_a["val_loss"] - final_b["val_loss"]) <= 1e-12
    assert (model_a / "best.bnet").read_bytes() == (model_b / "best.bnet").read_bytes()
    assert rep_a.read_bytes() == rep_b.read_bytes()
    print(f"c11: {len(rec_files)} recording files identical, "
          f"final train loss {final_a['train_loss']:.6f} reproduced")
