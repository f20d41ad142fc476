"""Blink-driven interaction toolkit.

Segments eye-openness streams into blinks and winks, drives a five-state
selection/drag interaction machine, classifies blinks as voluntary or
spontaneous with a residual MLP trained from scratch, and serves
predictions over a small binary TCP protocol. A simulator with
ground-truth ledgers covers the full loop without hardware.
"""

from .core import (
    DEFAULT_CLOSED_THRESHOLD,
    DEFAULT_HYSTERESIS_BAND,
    FEATURE_NAMES,
    FRAME_INTERVAL_NS,
    NUM_FEATURES,
    SAMPLE_RATE_HZ,
    BlinkEvent,
    BlinkKind,
    BlinkLabel,
    BlinkPipeError,
    CalibrationProfile,
    DegenerateDirection,
    FrameValidator,
    GazeFrame,
    HeadPose,
    NonMonotonicTimestamp,
    ValidatedFrame,
)
from .segmenter import BlinkSegmenter, EyeState
from .fsm import (
    InteractionEvent,
    InteractionMachine,
    InteractionMode,
    UIPlane,
    intersect_head_ray,
    step_blink_fsm,
)
from .window import HistoryBuffer, NotReady, WindowTensor
from .net import (
    BlinkNet,
    CheckpointFormatError,
    InferencePlan,
    ModelCheckpoint,
    classify,
    load_net,
    train,
)
from .dataset import (
    LabeledBlink,
    Recording,
    RecordingFormatError,
    SplitSpec,
    TooFewParticipants,
    dataset_stats,
    label_blinks,
    load_recording,
    materialize_windows,
    save_recording,
    split_by_participant,
)
from .eval import ConfusionMatrix, Metrics, metrics, metrics_report, random_baseline
from .proto import (
    BlinkServer,
    ClientPredictionGate,
    GazeFrameMsg,
    PredictionMsg,
    SessionPipeline,
    decode,
    encode,
    replay_over_tcp,
)
from .sim import GroundTruthLedger, SimConfig, generate_session

__version__ = "0.1.0"

__all__ = [
    "BlinkEvent",
    "BlinkKind",
    "BlinkLabel",
    "BlinkNet",
    "BlinkPipeError",
    "BlinkSegmenter",
    "BlinkServer",
    "CalibrationProfile",
    "CheckpointFormatError",
    "ClientPredictionGate",
    "ConfusionMatrix",
    "DEFAULT_CLOSED_THRESHOLD",
    "DEFAULT_HYSTERESIS_BAND",
    "DegenerateDirection",
    "EyeState",
    "FEATURE_NAMES",
    "FRAME_INTERVAL_NS",
    "FrameValidator",
    "GazeFrame",
    "GazeFrameMsg",
    "GroundTruthLedger",
    "HeadPose",
    "HistoryBuffer",
    "InferencePlan",
    "InteractionEvent",
    "InteractionMachine",
    "InteractionMode",
    "LabeledBlink",
    "Metrics",
    "ModelCheckpoint",
    "NonMonotonicTimestamp",
    "NotReady",
    "NUM_FEATURES",
    "PredictionMsg",
    "Recording",
    "RecordingFormatError",
    "SAMPLE_RATE_HZ",
    "SessionPipeline",
    "SimConfig",
    "SplitSpec",
    "TooFewParticipants",
    "UIPlane",
    "ValidatedFrame",
    "WindowTensor",
    "classify",
    "dataset_stats",
    "decode",
    "encode",
    "generate_session",
    "intersect_head_ray",
    "label_blinks",
    "load_net",
    "load_recording",
    "materialize_windows",
    "metrics",
    "metrics_report",
    "random_baseline",
    "replay_over_tcp",
    "save_recording",
    "split_by_participant",
    "step_blink_fsm",
    "train",
]
