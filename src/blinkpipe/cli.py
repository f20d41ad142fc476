"""Command line interface for the blinkpipe toolkit.

Subcommands
-----------
simulate    synthesize gaze recordings plus ground-truth ledgers
train       fit the blink classifier on labeled recordings
eval        score a checkpoint against held-out recordings
serve       run the TCP prediction service
replay      stream a recording to a running server and print predictions
fsm-trace   run the interaction state machine over a recording
calibrate   estimate per-eye closure thresholds from a recording
stats       summarize blink statistics for a dataset

Every subcommand accepts --seed, --log-level, and --config. A config file
holds one ``key = value`` pair per line (keys are the long flag names,
dashes or underscores); values given on the command line win over the
file. ``#`` starts a comment. The BLINKPIPE_LOG environment variable sets
the default log level; --log-level overrides it. ``serve`` stops on
Ctrl-C, SIGINT or SIGTERM, closing every session first.

Exit codes: 0 success, 2 usage error, 3 data error, 4 I/O error,
5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import signal
import sys
from typing import Dict, List, Optional, Tuple

from .core import (
    DEFAULT_HYSTERESIS_BAND,
    NUM_FEATURES,
    BlinkLabel,
    BlinkPipeError,
    CalibrationProfile,
    DegenerateDirection,
    FrameValidator,
    HeadPose,
    NonFiniteFeature,
    NonMonotonicTimestamp,
    TimestampOutOfRange,
    atomic_path,
    validate_columns,
)
from .segmenter import BlinkSegmenter, two_means_threshold
from .window import DEFAULT_WINDOW_FRAMES, NotReady
from .net import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_EPOCHS,
    DEFAULT_LR,
    BatchTooSmallForTrainMode,
    CheckpointFormatError,
    EmptySplit,
    InferencePlan,
    ShapeMismatch,
    UnknownLabel,
    classify,
    load_net,
    train as train_model,
)
from .dataset import (
    LabeledBlink,
    Recording,
    RecordingFormatError,
    TooFewParticipants,
    dataset_stats,
    _labeled_windows,
    label_blinks,
    load_recording,
    save_recording,
    split_by_participant,
)
from .eval import (
    ConfusionMatrix,
    EmptyMatrix,
    format_metrics_table,
    metrics,
    metrics_report,
)
from .proto import (
    DEFAULT_PORT,
    BadMagic,
    BlinkServer,
    TruncatedMessage,
    UnknownType,
    replay_over_tcp,
    validate_frames,
)
from .fsm import (
    DEFAULT_DEAD_ZONE_DEG,
    DEFAULT_PLANE_DISTANCE_M,
    InteractionMachine,
    UIPlane,
    format_trace_line,
)
from . import sim

log = logging.getLogger("blinkpipe.cli")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4
EXIT_INTERNAL = 5

_DATA_ERRORS = (
    RecordingFormatError,
    TooFewParticipants,
    CheckpointFormatError,
    EmptySplit,
    UnknownLabel,
    EmptyMatrix,
    BadMagic,
    TruncatedMessage,
    UnknownType,
    NotReady,
    NonMonotonicTimestamp,
    TimestampOutOfRange,
    NonFiniteFeature,
    DegenerateDirection,
    ShapeMismatch,
    BatchTooSmallForTrainMode,
)

_SMALL_BLOCK_DIMS = ((64, 64), (64, 32), (32, 32))


def _config_value(action: argparse.Action, text: str):
    """`text` converted and checked as argparse does the flag's value (its
    `type` and `choices`); a switch takes true or false."""
    if action.nargs == 0:  # store_true
        if text.lower() not in ("true", "false"):
            raise ValueError(f"expected true or false, got {text!r}")
        return text.lower() == "true"
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{value!r} is not one of {', '.join(action.choices)}")
    return value


def _load_config_file(path: str, actions: Dict[str, argparse.Action]
                      ) -> Dict[str, object]:
    pairs: Dict[str, object] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            dest = key.replace("-", "_")
            if dest not in actions:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            try:
                pairs[dest] = _config_value(actions[dest], val)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return pairs


def _setup_logging(flag_level: Optional[str]) -> None:
    name = flag_level or os.environ.get("BLINKPIPE_LOG", "warning")
    level = getattr(logging, name.upper(), None)
    if not isinstance(level, int):
        raise ValueError(f"unknown log level {name!r}")
    logging.basicConfig(
        level=level, stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _parse_hostport(text: str) -> Tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    number = int(port)
    if not 0 <= number <= 65535:
        raise ValueError(f"port must be in 0-65535, got {number}")
    return host, number


def _count(text: str) -> int:
    """The argparse type of a how-many option: an int of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _load_recordings(path: str) -> List[Recording]:
    if os.path.isdir(path):
        names = sorted(
            n for n in os.listdir(path)
            if n.endswith(".csv") or n.endswith(".csv.gz")
        )
        if not names:
            raise RecordingFormatError(f"no *.csv or *.csv.gz recordings in {path}")
        return [load_recording(os.path.join(path, n)) for n in names]
    return [load_recording(path)]


def _load_profile(path: Optional[str]) -> Optional[CalibrationProfile]:
    """The profile `calibrate` writes: a JSON object with the three
    CalibrationProfile fields as numbers; any other content is a data error."""
    if path is None:
        return None
    try:
        with open(path, "r", encoding="ascii") as fh:
            data = json.load(fh)
    except ValueError as exc:  # a JSON syntax error or a non-ASCII byte
        raise RecordingFormatError(f"{path}: not a JSON profile: {exc}") from exc
    if not isinstance(data, dict):
        raise RecordingFormatError(f"{path}: profile is not a JSON object")
    keys = [f.name for f in dataclasses.fields(CalibrationProfile)]
    for key in keys:
        value = data.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RecordingFormatError(
                f"{path}: profile key {key!r} is missing or not a number")
    try:
        return CalibrationProfile(**{key: float(data[key]) for key in keys})
    except ValueError as exc:  # a value out of range, NaN included
        raise RecordingFormatError(f"{path}: {exc}") from exc


def _net_from_checkpoint(path: str) -> Tuple[InferencePlan, int]:
    net = load_net(path)
    if net.input_dim % NUM_FEATURES:
        raise CheckpointFormatError(
            f"input dim {net.input_dim} is not a multiple of {NUM_FEATURES}"
        )
    return net, net.input_dim // NUM_FEATURES


def _write_text(path: str, text: str) -> None:
    """Write `path` whole or not at all (see `atomic_path`)."""
    with atomic_path(path) as tmp, open(tmp, "w", encoding="ascii") as fh:
        fh.write(text)


def _print_json(payload: Dict, path: Optional[str] = None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        _write_text(path, text + "\n")
    else:
        print(text)


def cmd_simulate(args: argparse.Namespace) -> int:
    os.makedirs(args.out, exist_ok=True)
    if args.minutes <= 0:
        log.warning("simulating 0 minutes: recordings will be empty")
    total_blinks = total_presses = 0
    for i in range(args.participants):
        pid = f"P{i:02d}"
        cfg = sim.SimConfig(
            seed=args.seed + i,
            duration_s=args.minutes * 60.0,
            participant_id=pid,
            spontaneous_rate_per_min=args.spontaneous_rate,
            voluntary_rate_per_min=args.voluntary_rate,
            wink_rate_per_min=args.wink_rate,
            hard_mode=args.hard_mode,
        )
        rec, ledger = sim.generate_session(cfg)
        ext = ".csv.gz" if args.gzip else ".csv"
        save_recording(rec, os.path.join(args.out, pid + ext))
        sim.save_ledger(ledger, os.path.join(args.out, pid + ".ledger.json"))
        n_vol = sum(1 for e in ledger.entries if e.label is BlinkLabel.VOLUNTARY)
        print(
            f"{pid}: {len(ledger.entries)} blink events"
            f" ({n_vol} voluntary, {len(ledger.entries) - n_vol} spontaneous),"
            f" {len(ledger.button_presses)} presses"
        )
        total_blinks += len(ledger.entries)
        total_presses += len(ledger.button_presses)
    print(
        f"wrote {args.participants} recordings to {args.out}:"
        f" {total_blinks} blink events, {total_presses} presses"
    )
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    if args.epochs < 1:  # before any data is read or --out is made
        raise ValueError(f"epochs must be at least 1, got {args.epochs}")
    if args.batch_size < 2:
        raise ValueError(f"batch_size must be at least 2, got {args.batch_size}")
    if not 0.0 < args.lr < math.inf:  # NaN fails it too
        raise ValueError(f"lr must be a finite number above 0, got {args.lr}")
    recs = _load_recordings(args.data)
    profile = _load_profile(args.profile)
    try:
        spec, train, val, test = split_by_participant(
            recs, args.seed, args.window, args.augment, profile
        )
    except TooFewParticipants as exc:
        raise TooFewParticipants(
            f"{exc}; training needs recordings from at least 3"
            " distinct participants so validation and test splits"
            " can each hold one out"
        ) from exc
    log.info("split sizes: train=%d val=%d test=%d (windows)",
             len(train), len(val), len(test))
    train_pairs, val_pairs = (
        [(lb.window, lb.label) for lb in blinks] for blinks in (train, val)
    )
    block_dims = _SMALL_BLOCK_DIMS if args.arch == "small" else None
    stem_width = 64 if args.arch == "small" else 128
    best, history = train_model(
        train_pairs,
        val_pairs,
        args.out,
        epochs=args.epochs,
        seed=args.seed,
        lr=args.lr,
        batch_size=args.batch_size,
        stem_width=stem_width,
        block_dims=block_dims,
        log=log.info,
    )
    payload = {
        "version": 1,
        "lr": args.lr,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "seed": args.seed,
        "window_frames": args.window,
        "arch": args.arch,
        "augment": args.augment,
        "participants": {
            "train": sorted(spec.train),
            "val": sorted(spec.val),
            "test": sorted(spec.test),
        },
        "best_epoch": best.epoch,
        "history": [dataclasses.asdict(s) for s in history],
    }
    _print_json(payload, os.path.join(args.out, "history.json"))
    final = history[-1]
    print(
        f"trained {len(history)} epochs: final train loss {final.train_loss!r},"
        f" best val loss {best.validation_loss!r} (epoch {best.epoch})"
    )
    print(f"wrote {args.out} (best.bnet, history.json)")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    net, window_frames = _net_from_checkpoint(args.checkpoint)
    profile = _load_profile(args.profile)
    truth: List[BlinkLabel] = []
    predicted: List[BlinkLabel] = []
    for rec in _load_recordings(args.test):
        for lb in _labeled_windows(rec, profile, window_frames):
            truth.append(lb.label)
            predicted.append(classify(net, lb.window)[0])
    cm = ConfusionMatrix.from_predictions(truth, predicted)
    _print_json(metrics_report(cm), args.out)
    if args.table:
        print(format_metrics_table({"test": metrics(cm)}))
    return EXIT_OK


def cmd_serve(args: argparse.Namespace) -> int:
    host, port = _parse_hostport(args.listen)
    net, window_frames = _net_from_checkpoint(args.checkpoint)
    profile = _load_profile(args.profile)
    server = BlinkServer(
        net,
        host=host,
        port=port,
        warmup_policy=args.warmup_policy,
        profile=profile,
        window_frames=window_frames,
    )
    # SIGTERM, and SIGINT even where the shell ignores it, only ask the loop
    # to stop: an exception raised in the handler could leave a send whose
    # bytes went out before the session counted them. serve_forever closes
    # every session before it returns.
    previous = {sig: signal.signal(sig, lambda *_: server.request_stop())
                for sig in (signal.SIGINT, signal.SIGTERM)}
    try:
        server.serve_forever(on_ready=lambda: print(
            f"listening on {server.host}:{server.port}", flush=True))
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    host, port = _parse_hostport(args.connect)
    rec = load_recording(args.input)
    frames = validate_frames(rec.frames)
    preds = replay_over_tcp((host, port), frames, speed_multiplier=args.speed)
    for p in preds:
        print(f"{p.blink_end_ns}\t{p.label.name.lower()}\t{p.confidence!r}")
    log.info("sent %d frames, received %d predictions", len(frames), len(preds))
    return EXIT_OK


def cmd_fsm_trace(args: argparse.Namespace) -> int:
    rec = load_recording(args.input)
    validator = FrameValidator()
    segmenter = BlinkSegmenter(_load_profile(args.profile))
    machine = InteractionMachine(
        plane=UIPlane.facing_user(args.plane_distance),
        dead_zone_deg=args.dead_zone,
    )
    lines = []
    for fr in rec.frames:
        vf = validator.validate(fr)
        state, _ = segmenter.update(vf)
        # No head tracker channel in recordings: the binocular gaze ray
        # stands in for head forward so winks plus eye motion drive drags.
        # A closed frame's two directions may cancel; the held ray stands in.
        try:
            forward = vf.binocular_dir()
        except DegenerateDirection:
            forward = segmenter.effective_gaze()
        head = HeadPose(vf.timestamp_ns, (0.0, 0.0, 0.0), forward)
        events = machine.step(state, head)
        lines.append(format_trace_line(vf.timestamp_ns, machine.state.mode, events))
    text = "\n".join(lines)
    if args.out:
        _write_text(args.out, text + ("\n" if lines else ""))
    else:
        print(text)
    return EXIT_OK


def cmd_calibrate(args: argparse.Namespace) -> int:
    rec = load_recording(args.input)
    _, features = validate_columns(rec.frames)
    if not len(features):
        raise RecordingFormatError(f"{args.input}: recording has no frames")
    thresholds = {}
    for eye, vals in (("left", features[:, 2]), ("right", features[:, 3])):
        thr = two_means_threshold(vals)
        if thr is None:
            log.warning("%s eye never closed; using default threshold", eye)
            thr = CalibrationProfile().closed_threshold_left
        thresholds[eye] = thr
    # Constructing validates the threshold/band ranges before anything is written.
    profile = CalibrationProfile(
        closed_threshold_left=thresholds["left"],
        closed_threshold_right=thresholds["right"],
        hysteresis_band=args.band,
    )
    _print_json(dataclasses.asdict(profile), args.out)
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    profile = _load_profile(args.profile)
    per_pid: Dict[str, List[LabeledBlink]] = {}
    everything: List[LabeledBlink] = []
    for rec in _load_recordings(args.data):
        labeled = label_blinks(rec, profile)
        per_pid.setdefault(rec.participant_id, []).extend(labeled)
        everything.extend(labeled)
    payload = {
        "overall": dataclasses.asdict(dataset_stats(everything)),
        "participants": {
            pid: dataclasses.asdict(dataset_stats(blinks))
            for pid, blinks in sorted(per_pid.items())
        },
    }
    _print_json(payload, args.out)
    return EXIT_OK


@dataclasses.dataclass
class _CommandSpec:
    """One subcommand's parser plus the options it accepts, by dest."""

    parser: argparse.ArgumentParser
    actions: Dict[str, argparse.Action]

    def opt(self, *names: str, **kwargs) -> None:
        action = self.parser.add_argument(*names, **kwargs)
        self.actions[action.dest] = action


def _build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, _CommandSpec]]:
    common = argparse.ArgumentParser(add_help=False)
    common_actions = {action.dest: action for action in (
        common.add_argument("--seed", type=int, default=0,
                            help="RNG seed (default 0)"),
        common.add_argument("--log-level",
                            choices=("debug", "info", "warning", "error"),
                            default=None, help="overrides BLINKPIPE_LOG"),
        common.add_argument("--config", metavar="FILE", default=None,
                            help="key = value defaults file; explicit"
                                 " flags win"),
    )}

    parser = argparse.ArgumentParser(
        prog="blinkpipe",
        description="Blink-driven interaction toolkit: simulate, train, serve.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    commands: Dict[str, _CommandSpec] = {}

    def new_command(name: str, func, help_text: str) -> _CommandSpec:
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=func)
        spec = commands[name] = _CommandSpec(p, dict(common_actions))
        return spec

    c = new_command("simulate", cmd_simulate,
                    "synthesize recordings plus ground-truth ledgers")
    c.opt("--out", required=True, help="output directory")
    c.opt("--minutes", type=float, default=10.0,
          help="session length per participant")
    c.opt("--participants", type=_count, default=1,
          help="number of sessions; participant i uses seed+i")
    c.opt("--spontaneous-rate", type=float, default=17.0, help="per minute")
    c.opt("--voluntary-rate", type=float, default=15.0, help="per minute")
    c.opt("--wink-rate", type=float, default=2.0, help="per minute")
    c.opt("--hard-mode", action="store_true",
          help="draw voluntary blinks from the spontaneous-overlap regime")
    c.opt("--gzip", action="store_true", help="write .csv.gz recordings")

    c = new_command("train", cmd_train,
                    "fit the classifier on a directory of recordings")
    c.opt("--data", required=True, help="directory of recordings (.csv/.csv.gz)")
    c.opt("--out", required=True, help="checkpoint + history output directory")
    c.opt("--epochs", type=int, default=DEFAULT_EPOCHS)
    c.opt("--lr", type=float, default=DEFAULT_LR)
    c.opt("--batch-size", type=int, default=DEFAULT_BATCH_SIZE)
    c.opt("--window", type=int, default=DEFAULT_WINDOW_FRAMES,
          help="frames per input window")
    c.opt("--augment", type=_count, default=1,
          help="extra shifted copies of each training window")
    c.opt("--arch", choices=("full", "small"), default="full",
          help="small = narrow stem and 3 blocks, for toy runs")
    c.opt("--profile", default=None, help="calibration profile JSON")

    c = new_command("eval", cmd_eval, "score a checkpoint against recordings")
    c.opt("--checkpoint", required=True)
    c.opt("--test", required=True, help="recording file or directory")
    c.opt("--profile", default=None, help="calibration profile JSON")
    c.opt("--table", action="store_true", help="also print a plain-text table")
    c.opt("--out", default=None,
          help="write the JSON report here instead of stdout")

    c = new_command("serve", cmd_serve, "run the TCP prediction server")
    c.opt("--checkpoint", required=True)
    c.opt("--listen", default=f"127.0.0.1:{DEFAULT_PORT}", metavar="HOST:PORT")
    c.opt("--warmup-policy", choices=("voluntary", "suppress"),
          default="voluntary",
          help="prediction for blinks that end before the window fills")
    c.opt("--profile", default=None, help="calibration profile JSON")

    c = new_command("replay", cmd_replay,
                    "stream a recording to a server, print its predictions")
    c.opt("--in", dest="input", required=True, help="recording file")
    c.opt("--connect", required=True, metavar="HOST:PORT")
    c.opt("--speed", type=float, default=1.0,
          help="pacing multiplier; 0 sends as fast as possible")

    c = new_command("fsm-trace", cmd_fsm_trace,
                    "run the interaction machine over a recording")
    c.opt("--in", dest="input", required=True, help="recording file")
    c.opt("--out", default=None, help="trace file (default stdout)")
    c.opt("--plane-distance", type=float, default=DEFAULT_PLANE_DISTANCE_M)
    c.opt("--dead-zone", type=float, default=DEFAULT_DEAD_ZONE_DEG,
          help="degrees of head rotation treated as noise")
    c.opt("--profile", default=None, help="calibration profile JSON")

    c = new_command("calibrate", cmd_calibrate,
                    "estimate per-eye closure thresholds from a recording")
    c.opt("--in", dest="input", required=True, help="guided recording file")
    c.opt("--band", type=float, default=DEFAULT_HYSTERESIS_BAND,
          help="hysteresis band to record in the profile")
    c.opt("--out", default=None, help="profile JSON path (default stdout)")

    c = new_command("stats", cmd_stats,
                    "summarize blink statistics for a dataset")
    c.opt("--data", required=True, help="recording file or directory")
    c.opt("--profile", default=None, help="calibration profile JSON")
    c.opt("--out", default=None,
          help="write the JSON report here instead of stdout")

    return parser, commands


def main(argv: Optional[List[str]] = None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(args_list)
        if args.config is not None:
            actions = {dest: a for c in commands.values()
                       for dest, a in c.actions.items()}
            pairs = _load_config_file(args.config, actions)
            # The file's values become the subcommand's defaults, filtered to
            # the options it accepts; a second parse lets the flags win.
            command = commands[args.command]
            command.parser.set_defaults(
                **{k: v for k, v in pairs.items() if k in command.actions})
            args = parser.parse_args(args_list)
        _setup_logging(args.log_level)
        return args.func(args)
    except SystemExit as exc:  # from argparse
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ValueError as exc:
        print(f"blinkpipe: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DATA_ERRORS as exc:
        print(f"blinkpipe: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"blinkpipe: {exc}", file=sys.stderr)
        return EXIT_IO
    except BlinkPipeError as exc:
        print(f"blinkpipe: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
