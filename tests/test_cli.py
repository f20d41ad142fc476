"""End-to-end command line runs through main() with temp directories."""
from __future__ import annotations

import dataclasses
import gzip
import importlib
import json
import math
import os
import pkgutil
import signal
import socket
import subprocess
import sys
import threading

import numpy as np
import pytest

import blinkpipe
from blinkpipe import cli
from blinkpipe.cli import (
    EXIT_DATA,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from blinkpipe.core import BlinkPipeError
from blinkpipe.dataset import load_recording, save_recording
from blinkpipe.net import ModelCheckpoint
from blinkpipe.proto import (BlinkServer, PredictionMsg, encode, gaze_msg_from_frame,
                             read_message, validate_frames)
from blinkpipe.segmenter import two_means_threshold
from blinkpipe.sim import SimConfig, generate_session

from conftest import (MALFORMED_CHECKPOINTS, checkpoint_with_stem_batch_norm,
                      malformed_checkpoint, square_blink_recording, tiny_net)


def run(*argv: str) -> int:
    return main(list(argv))


def _run_on_checkpoint(command: str, path: str, tmp_path, monkeypatch) -> int:
    """Exit code of `eval` (on a one-blink recording) or `serve` with the
    checkpoint at `path`; a server that starts stops at once."""
    rec = tmp_path / "rec.csv"
    save_recording(square_blink_recording([40]), str(rec))

    def stop_once_listening(*args, **kwargs):
        print(*args, **kwargs)
        if str(args[0]).startswith("listening on"):
            raise KeyboardInterrupt

    monkeypatch.setattr(cli, "print", stop_once_listening, raising=False)
    args = {"eval": ["--test", str(rec)],
            "serve": ["--listen", "127.0.0.1:0"]}[command]
    return run(command, "--checkpoint", path, *args)


@pytest.fixture()
def sim_dir(tmp_path):
    out = str(tmp_path / "data")
    assert run("simulate", "--out", out, "--minutes", "1.5",
               "--participants", "3", "--seed", "5") == EXIT_OK
    return out


class TestSimulate:
    def test_writes_recordings_and_ledgers(self, tmp_path, capsys):
        out = str(tmp_path / "sessions")
        rc = run("simulate", "--out", out, "--minutes", "0.5",
                 "--participants", "2", "--seed", "3")
        assert rc == EXIT_OK
        for pid in ("P00", "P01"):
            assert os.path.exists(os.path.join(out, pid + ".csv"))
            assert os.path.exists(os.path.join(out, pid + ".ledger.json"))
        text = capsys.readouterr().out
        assert "wrote 2 recordings" in text

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert run("simulate", "--out", out, "--minutes", "0.5",
                       "--seed", "9") == EXIT_OK
        for name in ("P00.csv", "P00.presses", "P00.ledger.json"):
            with open(os.path.join(a, name), "rb") as fa, \
                    open(os.path.join(b, name), "rb") as fb:
                assert fa.read() == fb.read()

    def test_gzip_flag(self, tmp_path):
        out = str(tmp_path / "gz")
        assert run("simulate", "--out", out, "--minutes", "0.25",
                   "--gzip") == EXIT_OK
        assert os.path.exists(os.path.join(out, "P00.csv.gz"))

    def test_negative_participants_is_usage(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert run("simulate", "--out", str(out), "--participants", "-2") == EXIT_USAGE
        assert "must be at least 0, got -2" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_minutes_warns_but_succeeds(self, tmp_path, caplog):
        out = str(tmp_path / "empty")
        with caplog.at_level("WARNING", logger="blinkpipe.cli"):
            assert run("simulate", "--out", out, "--minutes", "0") == EXIT_OK
        assert any("0 minutes" in r.message for r in caplog.records)
        assert load_recording(os.path.join(out, "P00.csv")).frames == []


class TestTrainAndEval:
    def test_train_then_eval(self, sim_dir, tmp_path, capsys):
        out = str(tmp_path / "run")
        rc = run("train", "--data", sim_dir, "--out", out,
                 "--epochs", "2", "--window", "100", "--arch", "small",
                 "--batch-size", "32", "--seed", "1")
        assert rc == EXIT_OK
        assert sorted(os.listdir(out)) == ["best.bnet", "history.json"]
        with open(os.path.join(out, "history.json")) as f:
            hist = json.load(f)
        assert hist["epochs"] == 2 and hist["arch"] == "small"
        assert len(hist["history"]) == 2
        parts = hist["participants"]
        assert sorted(parts["train"] + parts["val"] + parts["test"]) == [
            "P00", "P01", "P02"]
        assert "trained 2 epochs" in capsys.readouterr().out

        report_path = str(tmp_path / "report.json")
        rc = run("eval", "--checkpoint", os.path.join(out, "best.bnet"),
                 "--test", os.path.join(sim_dir, "P02.csv"),
                 "--out", report_path, "--table")
        assert rc == EXIT_OK
        with open(report_path) as f:
            report = json.load(f)
        assert set(report) >= {"accuracy", "recall", "precision", "f1",
                               "confusion", "n"}
        assert report["n"] > 0
        table = capsys.readouterr().out
        assert "classifier" in table and "test" in table

    @pytest.mark.parametrize("epochs", ["0", "-1"])
    def test_train_fewer_than_one_epoch_is_usage(self, sim_dir, tmp_path,
                                                  capsys, epochs):
        out = tmp_path / "run"
        rc = run("train", "--data", sim_dir, "--out", str(out),
                 "--epochs", epochs, "--window", "100", "--arch", "small")
        assert rc == EXIT_USAGE
        assert "epochs must be at least 1" in capsys.readouterr().err
        assert not out.exists()  # rejected before any data is read

    @pytest.mark.parametrize("batch_size", ["-4", "0", "1"])
    def test_train_batch_under_two_is_usage(self, tmp_path, capsys, batch_size):
        out = tmp_path / "run"
        # A missing --data would be an I/O error if it were read.
        rc = run("train", "--data", str(tmp_path / "missing"), "--out", str(out),
                 "--batch-size", batch_size, "--window", "100", "--arch", "small")
        assert rc == EXIT_USAGE
        assert "batch_size must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "-inf", "-1", "0", "-0.0"])
    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_train_lr_not_finite_and_positive_is_usage(self, tmp_path, capsys,
                                                       lr, given):
        out = tmp_path / "run"
        if given == "flag":
            extra = [f"--lr={lr}"]
        else:
            cfg = tmp_path / "train.cfg"
            cfg.write_text(f"lr = {lr}\n")
            extra = ["--config", str(cfg)]
        # A missing --data would be an I/O error if it were read.
        rc = run("train", "--data", str(tmp_path / "missing"), "--out", str(out),
                 "--window", "100", "--arch", "small", *extra)
        assert rc == EXIT_USAGE
        assert "lr must be a finite number above 0" in capsys.readouterr().err
        assert not out.exists()

    def test_train_negative_augment_is_usage(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "run"
        rc = run("train", "--data", sim_dir, "--out", str(out),
                 "--augment", "-3", "--window", "100", "--arch", "small")
        assert rc == EXIT_USAGE
        assert "must be at least 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_train_needs_three_participants(self, tmp_path):
        data = str(tmp_path / "two")
        assert run("simulate", "--out", data, "--minutes", "0.5",
                   "--participants", "2") == EXIT_OK
        rc = run("train", "--data", data, "--out", str(tmp_path / "run"),
                 "--epochs", "1", "--window", "100")
        assert rc == EXIT_DATA


class TestExitCodes:
    def test_unknown_subcommand_is_usage(self):
        assert run("frobnicate") == EXIT_USAGE

    def test_missing_required_flag_is_usage(self):
        assert run("simulate") == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert run("--help") == EXIT_OK
        assert "COMMAND" in capsys.readouterr().out

    def test_garbage_recording_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("this,is,not\na,recording\n")
        assert run("stats", "--data", str(bad)) == EXIT_DATA

    @pytest.mark.parametrize("damage", ["presses_line", "non_ascii",
                                        "truncated_gzip", "not_gzip",
                                        "flipped_gzip", "flipped_presses_gzip",
                                        "nan_pupil", "zero_gaze",
                                        "timestamp_past_int64",
                                        "press_past_int64", "valid_column",
                                        "extra_column", "bad_metadata",
                                        "bad_header"])
    def test_damaged_recording_is_data_error(self, tmp_path, capsys, damage):
        path = tmp_path / ("rec.csv.gz" if damage.endswith("gzip")
                           else "rec.csv")
        rec = square_blink_recording([40], presses=[10**8])
        if damage == "nan_pupil":
            rec.frames[70].left_pupil_mm = math.nan
        elif damage == "zero_gaze":
            rec.frames[70].right_dir = (0.0, 0.0, 0.0)
        elif damage == "timestamp_past_int64":
            rec.frames[-1].timestamp_ns = 2**63
        elif damage == "press_past_int64":
            rec.button_presses.append(2**63)
        save_recording(rec, str(path))
        data = path.read_bytes()
        if damage == "presses_line":
            (tmp_path / "rec.presses").write_text("100000000\nsoon\n")
        elif damage == "non_ascii":
            path.write_bytes(data[:-20] + b"\xe9" + data[-19:])
        elif damage == "not_gzip":
            path.write_bytes(gzip.decompress(data))
        elif damage.startswith("flipped"):  # deflate data zlib rejects
            target = tmp_path / ("rec.presses.gz" if "presses" in damage
                                 else "rec.csv.gz")
            raw = bytearray(target.read_bytes())
            for i in range(len(raw) // 2, min(len(raw) // 2 + 60, len(raw) - 8)):
                raw[i] ^= 0xFF
            target.write_bytes(bytes(raw))
        elif damage.endswith("gzip"):
            path.write_bytes(data[:len(data) // 2])
        elif damage == "valid_column":
            path.write_bytes(data[:-2] + b"7\n")  # the last frame's valid flag
        elif damage in ("extra_column", "bad_metadata", "bad_header"):
            # The metadata line gains a token with no "=", a line a column.
            line, extra = {"bad_metadata": (0, b" loose"), "bad_header": (1, b",extra"),
                           "extra_column": (5, b",1")}[damage]
            lines = data.split(b"\n")
            lines[line] += extra
            path.write_bytes(b"\n".join(lines))
        assert run("stats", "--data", str(path)) == EXIT_DATA
        error = {"nan_pupil": "NonFiniteFeature",
                 "zero_gaze": "DegenerateDirection"}.get(damage, "RecordingFormatError")
        err = capsys.readouterr().err
        assert error in err
        if error == "RecordingFormatError":  # names the file the damage is in
            sidecar = {"presses_line": "rec.presses", "press_past_int64": "rec.presses",
                       "flipped_presses_gzip": "rec.presses.gz"}.get(damage)
            assert f"{tmp_path / sidecar if sidecar else path}:" in err
        if damage == "valid_column":
            assert f"line {len(rec.frames) + 2}: valid column '7'" in err

    def test_garbage_checkpoint_is_data_error(self, tmp_path):
        ckpt = tmp_path / "model.bnet"
        ckpt.write_bytes(b"XXXX" + bytes(40))
        rec = tmp_path / "rec.csv"
        save_recording(square_blink_recording([40]), str(rec))
        assert run("eval", "--checkpoint", str(ckpt),
                   "--test", str(rec)) == EXIT_DATA

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("command", ["eval", "serve"])
    def test_checkpoint_head_not_two_wide_is_data_error(self, tmp_path,
                                                        monkeypatch, capsys,
                                                        command, width):
        ckpt = ModelCheckpoint.from_net(tiny_net(20), 1, 0.5)
        head = ckpt.net.head
        in_dim = head.weight.value.shape[1]
        head.weight.value, head.bias.value = np.ones((width, in_dim)), np.zeros(width)
        path = str(tmp_path / "model.bnet")
        ckpt.save(path)
        assert _run_on_checkpoint(command, path, tmp_path, monkeypatch) == EXIT_DATA
        assert "CheckpointFormatError" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", MALFORMED_CHECKPOINTS)
    @pytest.mark.parametrize("command", ["eval", "serve"])
    def test_malformed_checkpoint_is_data_error(self, tmp_path, monkeypatch,
                                                capsys, command, kind):
        path = tmp_path / "model.bnet"
        path.write_bytes(malformed_checkpoint(kind))
        assert _run_on_checkpoint(command, str(path), tmp_path, monkeypatch) == EXIT_DATA
        assert "CheckpointFormatError" in capsys.readouterr().err

    def test_checkpoint_with_a_nan_batch_norm_eps_is_data_error(
            self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "model.bnet"
        path.write_bytes(checkpoint_with_stem_batch_norm(tiny_net(20), "eps", math.nan))
        assert _run_on_checkpoint("eval", str(path), tmp_path, monkeypatch) == EXIT_DATA
        assert "CheckpointFormatError" in capsys.readouterr().err

    def test_missing_input_is_io_error(self, tmp_path):
        assert run("stats", "--data",
                   str(tmp_path / "nowhere.csv")) == EXIT_IO

    def test_bad_listen_spec_is_usage(self, tmp_path):
        ckpt = str(tmp_path / "m.bnet")
        ModelCheckpoint.from_net(tiny_net(20), 1, 0.5).save(ckpt)
        assert run("serve", "--checkpoint", ckpt,
                   "--listen", "no-port-here") == EXIT_USAGE

    @pytest.mark.parametrize("command, flag, address", [
        ("serve", "--listen", "127.0.0.1:99999"),
        ("replay", "--connect", "127.0.0.1:-5"),
    ])
    def test_port_out_of_range_is_usage(self, tmp_path, capsys, command, flag,
                                        address):
        # Missing files would be I/O errors were they read before the port.
        other = {"serve": "--checkpoint", "replay": "--in"}[command]
        assert run(command, other, str(tmp_path / "missing"),
                   flag, address) == EXIT_USAGE
        assert "port must be in 0-65535" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval", "serve"])
    def test_lookback_option_is_gone(self, tmp_path, monkeypatch, command):
        # Were the option still accepted, the stub would return EXIT_OK.
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: EXIT_OK)
        required = {"train": ["--data", "d", "--out", "o"],
                    "eval": ["--checkpoint", "m.bnet", "--test", "t"],
                    "serve": ["--checkpoint", "m.bnet"]}[command]
        assert run(command, *required, "--lookback", "8") == EXIT_USAGE
        cfg = tmp_path / "old.cfg"
        cfg.write_text("lookback = 8\n")
        assert run(command, *required, "--config", str(cfg)) == EXIT_USAGE

    def test_ctrl_c_right_after_the_address_stops_serve(self, tmp_path,
                                                       monkeypatch, capsys):
        ckpt = str(tmp_path / "m.bnet")
        ModelCheckpoint.from_net(tiny_net(20), 1, 0.5).save(ckpt)

        def print_then_interrupt(*args, **kwargs):
            print(*args, **kwargs)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "print", print_then_interrupt, raising=False)
        assert run("serve", "--checkpoint", ckpt,
                   "--listen", "127.0.0.1:0") == EXIT_OK
        assert capsys.readouterr().out.startswith("listening on 127.0.0.1:")

    def test_out_of_range_band_is_usage(self, tmp_path):
        rec = tmp_path / "rec.csv"
        save_recording(square_blink_recording([40]), str(rec))
        assert run("calibrate", "--in", str(rec), "--band", "0.5") == EXIT_USAGE


def _serve_in_a_subprocess(tmp_path, ignore_sigint: bool) -> subprocess.Popen:
    """`blinkpipe serve` on a free port at --log-level info, started with
    SIGINT ignored when `ignore_sigint` (as a shell does for `cmd &`)."""
    ckpt = tmp_path / "m.bnet"
    ModelCheckpoint.from_net(tiny_net(20), 1, 0.5).save(ckpt)
    src = os.path.dirname(os.path.dirname(os.path.abspath(blinkpipe.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def ignore():
        signal.signal(signal.SIGINT, signal.SIG_IGN)

    return subprocess.Popen(
        [sys.executable, "-m", "blinkpipe.cli", "serve", "--checkpoint", str(ckpt),
         "--listen", "127.0.0.1:0", "--log-level", "info"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        preexec_fn=ignore if ignore_sigint else None)


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
@pytest.mark.parametrize("sig, ignore_sigint", [
    (signal.SIGTERM, False), (signal.SIGINT, True)],
    ids=["sigterm", "sigint_after_the_shell_ignored_it"])
def test_signal_stops_serve_and_closes_every_session(tmp_path, sig, ignore_sigint):
    proc = _serve_in_a_subprocess(tmp_path, ignore_sigint)
    clients = []
    try:
        killer = threading.Timer(30, proc.kill)  # bounds the readline below
        killer.start()
        try:
            line = proc.stdout.readline()
        finally:
            killer.cancel()
        assert line.startswith("listening on 127.0.0.1:"), line
        port = int(line.rsplit(":", 1)[1])
        # The blink ends on the last frame, so its answer means the server
        # has read everything that was sent.
        rec = square_blink_recording([30], closed_frames=10, n_frames=41)
        payload = b"".join(encode(gaze_msg_from_frame(vf))
                           for vf in validate_frames(rec.frames))
        for _ in range(2):
            clients.append(socket.create_connection(("127.0.0.1", port), timeout=10))
            clients[-1].sendall(payload)
        for client in clients:
            assert isinstance(read_message(client), PredictionMsg)
        proc.send_signal(sig)
        _, err = proc.communicate(timeout=10)
        assert proc.returncode == EXIT_OK, err
        for client in clients:
            read = 1
            while (msg := read_message(client)) is not None:  # to EOF: the server closed it
                read += isinstance(msg, PredictionMsg)
            # The close line counts every prediction the client read.
            port = client.getsockname()[1]
            assert f"session 127.0.0.1:{port} closed: 41 frames, {read} predictions" in err, err
    finally:
        for client in clients:
            client.close()
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("minutes = 0.25  # quarter minute\nparticipants = 2\n")
        out = str(tmp_path / "out")
        assert run("simulate", "--out", out, "--config", str(cfg)) == EXIT_OK
        rec = load_recording(os.path.join(out, "P01.csv"))
        assert len(rec.frames) == 3000

    def test_explicit_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("minutes = 0.25\n")
        out = str(tmp_path / "out")
        assert run("simulate", "--out", out, "--minutes", "0.1",
                   "--config", str(cfg)) == EXIT_OK
        rec = load_recording(os.path.join(out, "P00.csv"))
        assert len(rec.frames) == 1200

    def test_unknown_key_is_usage(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("minuets = 0.25\n")
        assert run("simulate", "--out", str(tmp_path / "x"),
                   "--config", str(cfg)) == EXIT_USAGE

    def test_malformed_line_is_usage(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("just some words\n")
        assert run("simulate", "--out", str(tmp_path / "x"),
                   "--config", str(cfg)) == EXIT_USAGE

    def test_missing_config_is_io_error(self, tmp_path):
        assert run("simulate", "--out", str(tmp_path / "x"),
                   "--config", str(tmp_path / "none.cfg")) == EXIT_IO

    @pytest.mark.parametrize("line, key", [
        ("epochs = 1.5", "epochs"),        # not an int
        ("arch = tiny", "arch"),           # not one of the choices
        ("log-level = loud", "log-level"),
        ("augment = many", "augment"),
        ("augment = -3", "augment"),       # a count below 0
        ("hard_mode = yes", "hard_mode"),  # a switch takes true or false
    ])
    def test_value_a_flag_would_reject_is_usage(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# defaults\n{line}\n")
        assert run("train", "--data", str(tmp_path / "d"), "--out", str(tmp_path / "o"),
                   "--config", str(cfg)) == EXIT_USAGE
        assert f"bad.cfg:2: {key}:" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_switch_from_config(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("minutes = 0.01\ngzip = TRUE\n")
        out = tmp_path / "out"
        assert run("simulate", "--out", str(out), "--config", str(cfg)) == EXIT_OK
        assert os.path.exists(out / "P00.csv.gz")

    @pytest.mark.parametrize("flag", [("--conf", "{}"), ("--config={}",)],
                             ids=["abbreviated", "equals_sign"])
    def test_config_flag_in_any_form_argparse_accepts(self, tmp_path, flag):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("participants = 2\nminutes = 0.01\n")
        out = tmp_path / "out"
        assert run("simulate", "--out", str(out),
                   *(part.format(cfg) for part in flag)) == EXIT_OK
        assert len(load_recording(str(out / "P01.csv")).frames) == 120

    def test_last_of_two_config_flags_is_read(self, tmp_path):
        first, last = tmp_path / "first.cfg", tmp_path / "last.cfg"
        first.write_text("minutes = 0.25\n")
        last.write_text("minutes = 0.01\n")
        out = tmp_path / "out"
        assert run("simulate", "--out", str(out), "--config", str(first),
                   "--config", str(last)) == EXIT_OK
        assert len(load_recording(str(out / "P00.csv")).frames) == 120


class TestCalibrate:
    def test_thresholds_from_bimodal_recording(self, tmp_path):
        rec = square_blink_recording([50, 150, 250, 350], closed_frames=30,
                                     n_frames=500)
        path = str(tmp_path / "rec.csv")
        save_recording(rec, path)
        out = str(tmp_path / "profile.json")
        assert run("calibrate", "--in", path, "--out", out) == EXIT_OK
        with open(out) as f:
            prof = json.load(f)
        assert 0.05 <= prof["closed_threshold_left"] <= 0.9
        assert 0.05 <= prof["closed_threshold_right"] <= 0.9
        assert prof["hysteresis_band"] == pytest.approx(0.05)

    def test_thresholds_are_computed_in_float64(self, tmp_path):
        # On this recording, two-means in float32 (the dtype of validated
        # columns) moves both thresholds in their eighth digit.
        rec, _ = generate_session(SimConfig(seed=4, duration_s=60.0))
        path = str(tmp_path / "rec.csv")
        save_recording(rec, path)
        out = str(tmp_path / "profile.json")
        assert run("calibrate", "--in", path, "--out", out) == EXIT_OK
        with open(out) as f:
            prof = json.load(f)
        rows = np.array([vf.values for vf in validate_frames(load_recording(path).frames)])
        assert rows.dtype == np.float64
        assert prof["closed_threshold_left"] == two_means_threshold(rows[:, 2])
        assert prof["closed_threshold_right"] == two_means_threshold(rows[:, 3])

    def test_never_closed_eye_falls_back_to_default(self, tmp_path, caplog):
        rec = square_blink_recording([], n_frames=200)
        path = str(tmp_path / "open.csv")
        save_recording(rec, path)
        with caplog.at_level("WARNING", logger="blinkpipe.cli"):
            assert run("calibrate", "--in", path) == EXIT_OK
        assert any("never closed" in r.message for r in caplog.records)

    def test_profile_feeds_other_commands(self, tmp_path):
        rec = square_blink_recording([50, 150, 250], closed_frames=30,
                                     n_frames=400)
        path = str(tmp_path / "rec.csv")
        save_recording(rec, path)
        prof = str(tmp_path / "profile.json")
        assert run("calibrate", "--in", path, "--out", prof) == EXIT_OK
        out = str(tmp_path / "stats.json")
        assert run("stats", "--data", path, "--profile", prof,
                   "--out", out) == EXIT_OK
        with open(out) as f:
            payload = json.load(f)
        assert payload["overall"]["n"] == 3

    @pytest.mark.parametrize("content", [
        "[1, 2]",
        '{"closed_threshold_left": 0.6,',
        '{"closed_threshold_left": "low", "closed_threshold_right": 0.6,'
        ' "hysteresis_band": 0.05}',
        '{"closed_threshold_left": 0.6, "hysteresis_band": 0.05}',
        '{"closed_threshold_left": 1.5, "closed_threshold_right": 0.6,'
        ' "hysteresis_band": 0.05}',
        '{"closed_threshold_left": NaN, "closed_threshold_right": 0.6,'
        ' "hysteresis_band": 0.05}',
    ], ids=["list", "syntax_error", "non_numeric", "missing_key", "out_of_range",
            "nan"])
    def test_malformed_profile_is_data_error(self, tmp_path, capsys, content):
        rec = str(tmp_path / "rec.csv")
        save_recording(square_blink_recording([40]), rec)
        prof = tmp_path / "profile.json"
        prof.write_text(content)
        assert run("stats", "--data", rec, "--profile", str(prof)) == EXIT_DATA
        err = capsys.readouterr().err
        assert "RecordingFormatError" in err and str(prof) in err


class TestStats:
    def test_overall_and_per_participant(self, tmp_path, capsys):
        d = str(tmp_path / "d")
        os.makedirs(d)
        for pid, starts in (("P00", [50, 150]), ("P01", [80])):
            rec = square_blink_recording(starts, n_frames=300,
                                         participant_id=pid)
            save_recording(rec, os.path.join(d, pid + ".csv"))
        assert run("stats", "--data", d) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["overall"]["n"] == 3
        assert payload["participants"]["P00"]["n"] == 2
        assert payload["participants"]["P01"]["n"] == 1


class TestFsmTrace:
    def test_blink_produces_selection_lines(self, tmp_path, capsys):
        rec = square_blink_recording([10], closed_frames=20, n_frames=40)
        path = str(tmp_path / "rec.csv")
        save_recording(rec, path)
        assert run("fsm-trace", "--in", path) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 40
        assert lines[0] == "0\tdefault\tnone\t0.0\t0.0"
        assert lines[10].split("\t")[1:3] == ["selection", "select"]
        assert lines[11].split("\t")[1:3] == ["selection", "none"]
        assert lines[30].split("\t")[1] == "default"

    def test_closed_frame_whose_gaze_cancels_keeps_the_held_ray(self, tmp_path,
                                                                capsys):
        # Both eyes closed and the two directions opposite: labeling and the
        # server accept such a frame, and its trace line is the same as if
        # both eyes had looked ahead.
        rec = square_blink_recording([10], closed_frames=20, n_frames=40)
        path = str(tmp_path / "rec.csv")
        save_recording(rec, path)
        assert run("fsm-trace", "--in", path) == EXIT_OK
        want = capsys.readouterr().out
        rec.frames[15] = dataclasses.replace(rec.frames[15],
                                             right_dir=(0.0, 0.0, -1.0))
        save_recording(rec, path)
        assert run("fsm-trace", "--in", path) == EXIT_OK
        assert capsys.readouterr().out == want

    def test_trace_to_file(self, tmp_path):
        rec = square_blink_recording([10], closed_frames=20, n_frames=40)
        path = str(tmp_path / "rec.csv")
        save_recording(rec, path)
        out = str(tmp_path / "trace.tsv")
        assert run("fsm-trace", "--in", path, "--out", out) == EXIT_OK
        with open(out) as f:
            assert len(f.read().splitlines()) == 40


class TestReplayCommand:
    def test_replay_against_running_server(self, tmp_path, capsys):
        rec = square_blink_recording([60, 140], closed_frames=12,
                                     n_frames=220)
        path = str(tmp_path / "rec.csv")
        save_recording(rec, path)
        net = tiny_net(30, seed=2)
        with BlinkServer(net, port=0, window_frames=30) as srv:
            rc = run("replay", "--in", path,
                     "--connect", f"127.0.0.1:{srv.port}", "--speed", "0")
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        for line in lines:
            end_ns, label, conf = line.split("\t")
            assert int(end_ns) > 0
            assert label in ("voluntary", "involuntary")
            assert 0.0 <= float(conf) <= 1.0

    def test_negative_speed_is_usage_and_sends_nothing(self, tmp_path, capsys):
        path = str(tmp_path / "rec.csv")
        save_recording(square_blink_recording([60], n_frames=120), path)
        with BlinkServer(tiny_net(30), port=0, window_frames=30) as srv:
            rc = run("replay", "--in", path,
                     "--connect", f"127.0.0.1:{srv.port}", "--speed", "-1")
            assert srv.sessions == []
        assert rc == EXIT_USAGE
        assert capsys.readouterr().out == ""


# Typed errors that never reach main(), so no exit code is chosen for them.
_ERRORS_THAT_STAY_INSIDE = {
    "NoGazeYet": "fsm-trace asks for the held gaze ray only after the "
                 "segmenter's update has processed a frame, which sets it",
    "ClientNotReading": "the server loop catches it and ends that client's "
                        "session only",
}


def test_every_typed_error_has_a_chosen_exit_code():
    # Without a place in cli._DATA_ERRORS a new error class would reach the
    # catch-all and exit 5, as if an invariant broke.
    for module in pkgutil.iter_modules(blinkpipe.__path__):
        importlib.import_module(f"blinkpipe.{module.name}")
    found, todo = set(), [BlinkPipeError]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("blinkpipe.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    names = {cls.__name__ for cls in found}
    assert set(_ERRORS_THAT_STAY_INSIDE) <= names
    unplaced = sorted(cls.__name__ for cls in found
                      if not issubclass(cls, cli._DATA_ERRORS)
                      and cls.__name__ not in _ERRORS_THAT_STAY_INSIDE)
    assert unplaced == []
