"""The blinkpipe names that the benchmark under perfbench/ patches or reads.

perfbench/tracer.py wraps layer functions by name, serve_launcher.py times
the blink path by patching two of them, and offline_worker.py and
serve_launcher.py read a few attributes. A renamed name fails here, in
tier 1, instead of only in the benchmark's own smoke job. Nothing under
perfbench/ is changed; its modules are loaded from their files.
"""
from __future__ import annotations

import dataclasses
import importlib.util
import inspect
import pathlib

import numpy as np
import pytest

from blinkpipe import cli, dataset, net, proto, window

from conftest import square_blink_recording, tiny_net

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_offline_layers():
    rec = square_blink_recording([50, 120], closed_frames=12, n_frames=200)
    cut = dataset.materialize_windows(rec, dataset.label_blinks(rec), 30,
                                      window.DEFAULT_LOOKBACK_FRAMES, 1,
                                      np.random.default_rng(0))
    net.classify(tiny_net(30), cut[0].window)


def _run_serving_layers():
    rec = square_blink_recording([50, 120], closed_frames=12, n_frames=200)
    return proto.predictions_for_frames(proto.validate_frames(rec.frames),
                                        tiny_net(30), window_frames=30)


# The offline path validates, segments and buffers whole columns, so of its
# spans only the label and cut entry points, the cuts and the forward pass
# fire; the frame-by-frame layers fire on the serving path.
@pytest.mark.parametrize("install,run,spans", [
    ("install_offline", _run_offline_layers,
     ("dataset.label", "dataset.cut", "window.cut", "net.forward")),
    ("install_serving", _run_serving_layers,
     ("proto.ingest", "segmenter.update", "window.push", "window.cut",
      "net.forward")),
    ("install_inputs", _run_serving_layers, ("core.validate",)),
])
def test_tracer_span_sets_install_record_and_uninstall(install, run, spans):
    tracing = _load("tracer")
    tracer = tracing.Tracer()
    try:
        getattr(tracing, install)(tracer)
        patched = [(owner, attr, getattr(owner, attr))
                   for owner, attr, _ in tracer._undo]
        assert patched
        run()
    finally:
        tracer.uninstall()
    recorded = {name for name in tracer._dur if tracer.durations(name).size}
    assert recorded == set(spans)
    for owner, attr, wrapper in patched:
        assert getattr(owner, attr) is not wrapper, (owner, attr)


def test_serve_launcher_times_every_classified_blink(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # for its `import common`
    launcher = _load("serve_launcher")
    # time_blink_path patches for good; monkeypatch puts these back after.
    monkeypatch.setattr(window.HistoryBuffer, "snapshot_at_blink_end",
                        window.HistoryBuffer.snapshot_at_blink_end)
    monkeypatch.setattr(proto, "classify", proto.classify)
    rows = launcher.time_blink_path(proto, window)
    preds = _run_serving_layers()
    assert len(rows) == len(preds) == 2
    assert [row[0] for row in rows] == [p.blink_end_ns for p in preds]


def test_attributes_the_benchmark_workers_read():
    assert isinstance(window.DEFAULT_LOOKBACK_FRAMES, int)
    fields = {f.name for f in dataclasses.fields(proto.SessionStats)}
    assert {"frames_received", "frames_dropped", "predictions_sent",
            "max_queue_depth", "error"} <= fields
    assert proto.classify is net.classify
    # offline_worker.py passes these positionally.
    inspect.signature(dataset.materialize_windows).bind(
        "rec", [], 5000, window.DEFAULT_LOOKBACK_FRAMES, 1, None)


def test_serving_start_up_records_one_checkpoint_load(tmp_path):
    # serving.py reads net.checkpoint_load_ms from this span, so serve's
    # start-up must load through ModelCheckpoint.load, once.
    path = tmp_path / "model.bnet"
    net.ModelCheckpoint.from_net(tiny_net(30), 0, 0.0).save(path)
    tracing = _load("tracer")
    tracer = tracing.Tracer()
    try:
        tracing.install_serving(tracer)
        cli._net_from_checkpoint(str(path))
    finally:
        tracer.uninstall()
    assert tracer.durations("net.checkpoint_load").size == 1


def test_split_the_offline_worker_draws():
    ids = [f"P{i:02d}" for i in range(5)]
    spec = dataset.assign_participants(ids, dataset.SplitSpec(), 3)
    assert spec.train | spec.val | spec.test == set(ids)
    assert not (spec.train & spec.val or spec.train & spec.test or spec.val & spec.test)


def test_train_takes_the_offline_workers_keywords():
    inspect.signature(net.train).bind(
        [], [], epochs=1, seed=0, batch_size=32, checkpoint_dir="model",
        stem_width=16, block_dims=((16, 16),), log=print)


def test_net_built_as_the_serving_workload_builds_it():
    model = net.BlinkNet(input_dim=30 * 10, stem_width=16, block_dims=((16, 8),),
                         seed=4)
    assert model.input_dim == 300
    full = net.BlinkNet(input_dim=30 * 10, stem_width=128, block_dims=None, seed=4)
    assert full.input_dim == 300
