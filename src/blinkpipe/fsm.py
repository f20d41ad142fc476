"""Five-state gaze+blink interaction machine and its drag geometry.

State machine (Mealy, stepped once per frame):

    default   --both closed------------------> selection   (Select)
    default   --one closed & head rotation---> drag start  (DragStarted)
    selection --both open--------------------> default     (only exit)
    drag start/update --one closed-----------> drag update (DragDelta)
    drag start/update --both open or closed--> drag end    (DragEnded)
    drag end  --always-----------------------> default

Drag displacement is computed by raycasting the head's forward vector onto
a UI plane; deltas are incremental plane-space offsets between consecutive
intersections, so the on-plane displacement for a fixed head rotation grows
with plane distance (angular rather than linear control-display mapping).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .core import HeadPose, Vec3, _dot, _norm, _normalize
from .segmenter import EyeState

DEFAULT_PLANE_DISTANCE_M = 2.5
DEFAULT_DEAD_ZONE_DEG = 0.5  # per-step head rotation below this is pose noise


class InteractionMode(enum.Enum):
    DEFAULT = "default"
    SELECTION = "selection"
    DRAG_START = "drag_start"
    DRAG_UPDATE = "drag_update"
    DRAG_END = "drag_end"


class EventKind(enum.Enum):
    SELECT = "select"
    DRAG_STARTED = "drag_started"
    DRAG_DELTA = "drag_delta"
    DRAG_ENDED = "drag_ended"


@dataclass(frozen=True)
class InteractionEvent:
    kind: EventKind
    timestamp_ns: int
    target_id: Optional[str] = None
    delta: Optional[Tuple[float, float]] = None  # plane-space meters


@dataclass(frozen=True)
class InteractionState:
    mode: InteractionMode = InteractionMode.DEFAULT
    drag_anchor: Optional[Vec3] = None
    target_id: Optional[str] = None


@dataclass(frozen=True)
class UIPlane:
    """Interaction plane the head ray is cast against."""

    origin: Vec3
    normal: Vec3

    def __post_init__(self):
        n = _norm(self.normal)
        if abs(n - 1.0) > 1e-3:
            raise ValueError(f"plane normal norm {n:.6f} not within 1e-3 of 1")

    @classmethod
    def facing_user(cls, distance_m: float = DEFAULT_PLANE_DISTANCE_M) -> "UIPlane":
        """Vertical plane `distance_m` ahead of the origin, normal toward the user."""
        if distance_m <= 0:
            raise ValueError("plane distance must be positive")
        return cls(origin=(0.0, 0.0, distance_m), normal=(0.0, 0.0, -1.0))

    def basis(self) -> Tuple[Vec3, Vec3]:
        """In-plane right/up axes used to express 2-D drag deltas."""
        n = self.normal
        hint = (0.0, 1.0, 0.0)
        if abs(_dot(n, hint)) > 0.99:
            hint = (0.0, 0.0, 1.0)
        u = _normalize(_cross(n, hint))
        v = _cross(u, n)
        return u, v

    def to_plane_coords(self, displacement: Vec3) -> Tuple[float, float]:
        u, v = self.basis()
        return _dot(displacement, u), _dot(displacement, v)


def _cross(a: Sequence[float], b: Sequence[float]) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def intersect_head_ray(head: HeadPose, plane: UIPlane) -> Optional[Vec3]:
    """Intersection of the head ray (position, forward) with the plane.

    Returns None when the ray is parallel to the plane or points away from
    it (the plane is behind the user).
    """
    denom = _dot(head.forward, plane.normal)
    if abs(denom) < 1e-9:
        return None
    diff = (
        plane.origin[0] - head.position[0],
        plane.origin[1] - head.position[1],
        plane.origin[2] - head.position[2],
    )
    t = _dot(diff, plane.normal) / denom
    if t <= 1e-9:
        return None
    return (
        head.position[0] + t * head.forward[0],
        head.position[1] + t * head.forward[1],
        head.position[2] + t * head.forward[2],
    )


def head_rotation_deg(prev_forward: Optional[Vec3], forward: Vec3) -> float:
    """Angle in degrees between consecutive forward vectors (0 if no prior)."""
    if prev_forward is None:
        return 0.0
    c = max(-1.0, min(1.0, _dot(prev_forward, forward)))
    return math.degrees(math.acos(c))


def step_blink_fsm(
    state: InteractionState,
    eyes: EyeState,
    head: HeadPose,
    plane: UIPlane,
    hover_target: Optional[str] = None,
    head_moved: bool = False,
) -> Tuple[InteractionState, List[InteractionEvent]]:
    """Advance the interaction machine by one frame.

    `hover_target` is the host-resolved raycast hit of the effective gaze;
    the machine treats it as an opaque identifier. `head_moved` is the
    caller's dead-zone decision for this step (see InteractionMachine).

    While dragging, a head ray that misses the plane suspends the drag: no
    delta is emitted and the anchor is kept, so the next on-plane
    intersection produces the full catch-up delta (deltas always telescope
    to net displacement).
    """
    ts = head.timestamp_ns
    mode = state.mode

    if mode is InteractionMode.DEFAULT:
        if eyes.both_closed:
            return (
                InteractionState(InteractionMode.SELECTION, None, hover_target),
                [InteractionEvent(EventKind.SELECT, ts, target_id=hover_target)],
            )
        if eyes.exactly_one_closed and head_moved:
            anchor = intersect_head_ray(head, plane)
            return (
                InteractionState(InteractionMode.DRAG_START, anchor, hover_target),
                [InteractionEvent(EventKind.DRAG_STARTED, ts, target_id=hover_target)],
            )
        return InteractionState(), []

    if mode is InteractionMode.SELECTION:
        if eyes.both_open:
            return InteractionState(), []
        return state, []

    if mode in (InteractionMode.DRAG_START, InteractionMode.DRAG_UPDATE):
        if eyes.exactly_one_closed:
            current = intersect_head_ray(head, plane)
            if current is None:
                return (
                    InteractionState(InteractionMode.DRAG_UPDATE, state.drag_anchor,
                                     state.target_id),
                    [],
                )
            if state.drag_anchor is None:
                # Anchor was unavailable at drag start; latch it now.
                return (
                    InteractionState(InteractionMode.DRAG_UPDATE, current,
                                     state.target_id),
                    [],
                )
            displacement = (
                current[0] - state.drag_anchor[0],
                current[1] - state.drag_anchor[1],
                current[2] - state.drag_anchor[2],
            )
            delta = plane.to_plane_coords(displacement)
            return (
                InteractionState(InteractionMode.DRAG_UPDATE, current, state.target_id),
                [InteractionEvent(EventKind.DRAG_DELTA, ts, target_id=state.target_id,
                                  delta=delta)],
            )
        return (
            InteractionState(InteractionMode.DRAG_END, None, state.target_id),
            [InteractionEvent(EventKind.DRAG_ENDED, ts, target_id=state.target_id)],
        )

    # DRAG_END always falls back to DEFAULT on the next step.
    return InteractionState(), []


class InteractionMachine:
    """Stateful wrapper that tracks head motion against the dead zone."""

    def __init__(self, plane: Optional[UIPlane] = None,
                 dead_zone_deg: float = DEFAULT_DEAD_ZONE_DEG):
        self.plane = plane or UIPlane.facing_user()
        self.dead_zone_deg = dead_zone_deg
        self.state = InteractionState()
        self._prev_forward: Optional[Vec3] = None

    def step(self, eyes: EyeState, head: HeadPose,
             hover_target: Optional[str] = None) -> List[InteractionEvent]:
        moved = head_rotation_deg(self._prev_forward, head.forward) > self.dead_zone_deg
        self._prev_forward = head.forward
        self.state, events = step_blink_fsm(
            self.state, eyes, head, self.plane, hover_target, moved
        )
        return events


def format_trace_line(timestamp_ns: int, mode: InteractionMode,
                      events: Sequence[InteractionEvent]) -> str:
    """One tab-separated trace line per step: timestamp, mode, event, dx, dy."""
    if events:
        ev = events[0]
        dx, dy = ev.delta if ev.delta is not None else (0.0, 0.0)
        return f"{timestamp_ns}\t{mode.value}\t{ev.kind.value}\t{dx!r}\t{dy!r}"
    return f"{timestamp_ns}\t{mode.value}\tnone\t0.0\t0.0"

