"""Interaction state machine and drag geometry."""
from __future__ import annotations

import math

import pytest

from blinkpipe.core import HeadPose
from blinkpipe.fsm import (
    EventKind,
    InteractionMachine,
    InteractionMode,
    InteractionState,
    UIPlane,
    format_trace_line,
    head_rotation_deg,
    intersect_head_ray,
    step_blink_fsm,
)
from blinkpipe.segmenter import EyeState

OO = EyeState(False, False)
CC = EyeState(True, True)
LC = EyeState(True, False)
RC = EyeState(False, True)


def head_yaw(ts_ns: int, yaw_deg: float, position=(0.0, 0.0, 0.0)) -> HeadPose:
    r = math.radians(yaw_deg)
    return HeadPose(ts_ns, position, (math.sin(r), 0.0, math.cos(r)))


# ---------------------------------------------------------------------------
# geometry


def test_axis_aligned_intersection():
    p = UIPlane.facing_user(2.5)
    hit = intersect_head_ray(head_yaw(0, 0.0), p)
    assert hit == pytest.approx((0.0, 0.0, 2.5), abs=1e-12)


def test_yaw_maps_to_distance_times_tan():
    p = UIPlane.facing_user(2.5)
    for theta in (1.0, 5.0, 15.0, 40.0):
        hit = intersect_head_ray(head_yaw(0, theta), p)
        assert hit is not None
        assert hit[0] == pytest.approx(2.5 * math.tan(math.radians(theta)), abs=1e-9)
        assert hit[2] == pytest.approx(2.5, abs=1e-12)


def test_parallel_ray_misses():
    p = UIPlane.facing_user(2.5)
    assert intersect_head_ray(HeadPose(0, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), p) is None


def test_ray_pointing_away_misses():
    p = UIPlane.facing_user(2.5)
    assert intersect_head_ray(HeadPose(0, (0.0, 0.0, 0.0), (0.0, 0.0, -1.0)), p) is None


def test_displacement_grows_with_plane_distance():
    # Same rotation sweeps a longer arc on a farther plane.
    for d1, d2 in ((1.0, 2.5), (2.5, 4.0)):
        deltas = []
        for d in (d1, d2):
            p = UIPlane.facing_user(d)
            a = intersect_head_ray(head_yaw(0, 3.0), p)
            b = intersect_head_ray(head_yaw(0, 6.0), p)
            deltas.append(math.dist(a, b))
        assert deltas[1] > deltas[0]


def test_plane_validation():
    with pytest.raises(ValueError):
        UIPlane(origin=(0.0, 0.0, 1.0), normal=(0.0, 0.0, -2.0))
    with pytest.raises(ValueError):
        UIPlane.facing_user(0.0)


def test_plane_coords_axes():
    p = UIPlane.facing_user(2.5)
    assert p.to_plane_coords((1.0, 0.0, 0.0)) == pytest.approx((1.0, 0.0))
    assert p.to_plane_coords((0.0, 2.0, 0.0)) == pytest.approx((0.0, 2.0))
    # Out-of-plane displacement projects away.
    assert p.to_plane_coords((0.0, 0.0, 9.0)) == pytest.approx((0.0, 0.0))


def test_head_rotation_deg():
    assert head_rotation_deg(None, (0.0, 0.0, 1.0)) == 0.0
    a = (0.0, 0.0, 1.0)
    r = math.radians(2.0)
    b = (math.sin(r), 0.0, math.cos(r))
    assert head_rotation_deg(a, b) == pytest.approx(2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# transitions


def test_default_both_closed_selects_hover_target():
    plane = UIPlane.facing_user()
    state, events = step_blink_fsm(
        InteractionState(), CC, head_yaw(10, 0.0), plane, hover_target="button-3"
    )
    assert state.mode is InteractionMode.SELECTION
    assert [e.kind for e in events] == [EventKind.SELECT]
    assert events[0].target_id == "button-3"
    assert events[0].timestamp_ns == 10


def test_default_open_is_a_self_loop():
    state, events = step_blink_fsm(InteractionState(), OO, head_yaw(0, 0.0),
                                   UIPlane.facing_user())
    assert state.mode is InteractionMode.DEFAULT
    assert events == []


def test_wink_without_head_motion_stays_default():
    state, events = step_blink_fsm(InteractionState(), LC, head_yaw(0, 0.0),
                                   UIPlane.facing_user(), head_moved=False)
    assert state.mode is InteractionMode.DEFAULT
    assert events == []


def test_wink_with_head_motion_starts_drag_with_anchor():
    plane = UIPlane.facing_user(2.5)
    state, events = step_blink_fsm(InteractionState(), RC, head_yaw(0, 4.0),
                                   plane, head_moved=True)
    assert state.mode is InteractionMode.DRAG_START
    assert [e.kind for e in events] == [EventKind.DRAG_STARTED]
    assert state.drag_anchor == pytest.approx(
        (2.5 * math.tan(math.radians(4.0)), 0.0, 2.5), abs=1e-9
    )


def test_selection_exits_only_to_default():
    plane = UIPlane.facing_user()
    sel = InteractionState(InteractionMode.SELECTION, None, "t")
    for eyes in (CC, LC, RC):
        state, events = step_blink_fsm(sel, eyes, head_yaw(0, 9.0), plane,
                                       head_moved=True)
        assert state.mode is InteractionMode.SELECTION
        assert events == []
    state, events = step_blink_fsm(sel, OO, head_yaw(0, 0.0), plane)
    assert state.mode is InteractionMode.DEFAULT
    assert events == []


def test_drag_end_always_returns_to_default():
    plane = UIPlane.facing_user()
    end = InteractionState(InteractionMode.DRAG_END, None, "t")
    for eyes in (OO, CC, LC, RC):
        state, events = step_blink_fsm(end, eyes, head_yaw(0, 0.0), plane)
        assert state.mode is InteractionMode.DEFAULT
        assert events == []


def test_scripted_five_step_drag_trace():
    # open -> wink + yaw 2deg -> wink + 4deg -> wink + 6deg -> open, checked
    # against a trigonometric oracle at 2.5 m.
    machine = InteractionMachine(plane=UIPlane.facing_user(2.5))
    script = [(OO, 0.0), (LC, 2.0), (LC, 4.0), (LC, 6.0), (OO, 6.0)]
    kinds, deltas = [], []
    for i, (eyes, yaw) in enumerate(script):
        events = machine.step(eyes, head_yaw(i, yaw))
        for e in events:
            kinds.append(e.kind)
            if e.delta is not None:
                deltas.append(e.delta)
    assert kinds == [
        EventKind.DRAG_STARTED,
        EventKind.DRAG_DELTA,
        EventKind.DRAG_DELTA,
        EventKind.DRAG_ENDED,
    ]
    t = lambda deg: 2.5 * math.tan(math.radians(deg))
    assert deltas[0] == pytest.approx((t(4.0) - t(2.0), 0.0), abs=1e-9)
    assert deltas[1] == pytest.approx((t(6.0) - t(4.0), 0.0), abs=1e-9)
    assert machine.state.mode is InteractionMode.DRAG_END


def test_drag_suspension_preserves_telescoping():
    # Mid-drag the head turns away from the plane: no delta is emitted and
    # the anchor survives, so the catch-up delta telescopes exactly.
    plane = UIPlane.facing_user(2.5)
    machine = InteractionMachine(plane=plane)
    machine.step(OO, head_yaw(0, 0.0))
    machine.step(LC, head_yaw(1, 3.0))  # DragStart, anchor at 3 deg
    away = HeadPose(2, (0.0, 0.0, 0.0), (0.0, 0.0, -1.0))
    assert machine.step(LC, away) == []
    assert machine.state.mode is InteractionMode.DRAG_UPDATE
    events = machine.step(LC, head_yaw(3, 10.0))
    assert [e.kind for e in events] == [EventKind.DRAG_DELTA]
    t = lambda deg: 2.5 * math.tan(math.radians(deg))
    assert events[0].delta == pytest.approx((t(10.0) - t(3.0), 0.0), abs=1e-9)


def test_dead_zone_filters_small_rotations():
    machine = InteractionMachine(plane=UIPlane.facing_user(), dead_zone_deg=0.5)
    machine.step(OO, head_yaw(0, 0.0))
    machine.step(LC, head_yaw(1, 0.3))  # below dead zone
    assert machine.state.mode is InteractionMode.DEFAULT
    machine.step(LC, head_yaw(2, 1.2))  # 0.9 deg step, above
    assert machine.state.mode is InteractionMode.DRAG_START


def test_trace_line_format():
    line = format_trace_line(12345, InteractionMode.DEFAULT, [])
    assert line == "12345\tdefault\tnone\t0.0\t0.0"
    machine = InteractionMachine(plane=UIPlane.facing_user(2.5))
    machine.step(OO, head_yaw(0, 0.0))
    machine.step(LC, head_yaw(1, 2.0))
    events = machine.step(LC, head_yaw(2, 4.0))
    line = format_trace_line(2, machine.state.mode, events)
    parts = line.split("\t")
    assert parts[0] == "2"
    assert parts[1] == "drag_update"
    assert parts[2] == "drag_delta"
    dx, dy = float(parts[3]), float(parts[4])
    t = lambda deg: 2.5 * math.tan(math.radians(deg))
    assert dx == pytest.approx(t(4.0) - t(2.0), abs=1e-9)
    assert dy == 0.0

