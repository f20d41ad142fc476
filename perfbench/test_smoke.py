"""Smoke test of the benchmark itself, on a tiny configuration.

    python3 -m pytest perfbench/test_smoke.py

Checks that every workload prints every metric BENCHMARK.json names, with
its unit, in both modes, and that a corrupted prediction stream fails the
output check. The tiny network (100-frame windows) keeps it to about a
minute; the numbers it prints mean nothing.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402
import run  # noqa: E402
import serving  # noqa: E402

common.use_tree_sources()

TINY_NET = dict(window_frames=100, stem_width=16, block_dims=((16, 16), (16, 8)))
TINY = {
    "live_paced": {"cfg": serving.ServingConfig(warmup_s=1.0, **TINY_NET)},
    "ingest_flood": {"cfg": serving.ServingConfig(flood_session_s=60.0, **TINY_NET)},
    "offline_train": {"config": dict(participants=3, minutes=0.5, epochs=2,
                                     **TINY_NET)},
}
SECONDS = 3.0


def _spec():
    return common.read_json(os.path.join(common.ROOT, "BENCHMARK.json"))


@pytest.fixture
def work(tmp_path):
    path = tmp_path / "work"
    path.mkdir()
    yield str(path)
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, work, capsys):
    res = run.run_workload(workload, 3, SECONDS, trace, work, **TINY[workload])
    lines = run.render(workload, res, trace, common.machine_info(3))
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, lines
    assert out["failed"] == 0 and out["attempted"] >= 1
    expected = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in out["metrics"].items()}
    for name, m in out["metrics"].items():
        assert isinstance(m["value"], float), name
        assert any(line.split()[:1] == [name] and m["unit"] in line.split()
                   for line in lines[:-1]), name


def test_workloads_in_spec_are_the_ones_run_knows():
    assert [w["name"] for w in _spec()["workloads"]] == list(run.WORKLOADS)


def _flip_one_label(received):
    from blinkpipe.core import BlinkLabel
    out = [list(stream) for stream in received]
    t, msg = out[0][-1]
    flipped = (BlinkLabel.INVOLUNTARY if msg.label is BlinkLabel.VOLUNTARY
               else BlinkLabel.VOLUNTARY)
    out[0][-1] = (t, dataclasses.replace(msg, label=flipped))
    return out


@pytest.mark.parametrize("workload", ["live_paced", "ingest_flood"])
def test_corrupted_prediction_stream_fails_the_check(workload, work):
    res = run.run_workload(workload, 3, SECONDS, False, work,
                           corrupt=_flip_one_label, **TINY[workload])
    assert res.failed >= 1
    assert not res.correct
    out = json.loads(run.render(workload, res, False, common.machine_info(3))[-1])
    assert out["correct"] is False and out["failed"] >= 1


def test_diverging_offline_repetition_fails_the_check(work):
    def corrupt(reps):
        reps[-1] = dict(reps[-1], digest="0" * 64)
        return reps

    res = run.run_workload("offline_train", 3, SECONDS, False, work,
                           corrupt=corrupt, **TINY["offline_train"])
    assert res.failed >= 1 and not res.correct
