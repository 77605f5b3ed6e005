import gc
import io
import json
import re
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcompress import modelio
from groupcompress.cli import EXIT_FORMAT, main
from groupcompress.decompose import decompose_network
from groupcompress.errors import ModelFormatError, ShapeError
from groupcompress.fixtures import build_toy_cnn, build_toy_three
from groupcompress.model import (
    LAYER_KINDS,
    AffineParams,
    ConvWeights,
    FcParams,
    LayerSpec,
    NetworkSpec,
    PoolParams,
    array_fields,
    forward,
)
from groupcompress.modelio import load_model, save_model
from groupcompress.reconstruct import CalibrationSet
from groupcompress.schedule import build_plan

import oracles
from json_edits import cut_or_grow, edit_fields, same_json
from nets import pool_fc_net, residual_net


def build_net(seed=0):
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal((4, 3, 3, 3)) / 3.0
    b1 = rng.standard_normal(4)
    w2 = rng.standard_normal((4, 4, 3, 3)) / 3.0
    proj = rng.standard_normal((4, 4, 1, 1))
    fcw = rng.standard_normal((2, 64)) / 8.0
    return NetworkSpec(
        "roundtrip",
        (3, 8, 8),
        [
            LayerSpec(
                id="c1",
                kind="conv",
                stage="s8",
                conv=ConvWeights(3, 4, 3, stride=1, pad=1, weights=w1, bias=b1),
            ),
            LayerSpec(
                id="bn1",
                kind="channel_affine",
                affine=AffineParams(
                    4, scale=rng.standard_normal(4), shift=rng.standard_normal(4)
                ),
            ),
            LayerSpec(id="r1", kind="relu"),
            LayerSpec(
                id="c2",
                kind="conv",
                stage="s8",
                conv=ConvWeights(4, 4, 3, pad=1, weights=w2),
            ),
            LayerSpec(
                id="proj",
                kind="conv",
                input="r1",
                conv=ConvWeights(4, 4, 1, weights=proj),
                meta={"decomposed_from": "none", "rank_n": 2},
            ),
            LayerSpec(id="add", kind="add", input="c2", source="proj"),
            LayerSpec(id="mp", kind="maxpool", pool=PoolParams(2, 2)),
            LayerSpec(id="fc", kind="fc", fc=FcParams(64, 2, weights=fcw)),
        ],
    )


def build_wide_net(seed=0, out_features=10):
    """A conv, then an fc whose weights are a transposed view: an array that
    is not C-contiguous, which no blob writer may copy whole."""
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((256, out_features)).T
    return NetworkSpec(
        "wide",
        (4, 8, 8),
        [
            LayerSpec(
                id="c1",
                kind="conv",
                conv=ConvWeights(4, 4, 3, pad=1, weights=rng.standard_normal((4, 4, 3, 3))),
            ),
            LayerSpec(
                id="fc",
                kind="fc",
                fc=FcParams(256, out_features, weights, rng.standard_normal(out_features)),
            ),
        ],
    )


def arrays(net):
    """``(layer id, field, array)`` for every parameter array of ``net``."""
    for layer in net.layers:
        if LAYER_KINDS[layer.kind] is not None:
            params = getattr(layer, LAYER_KINDS[layer.kind][0])
            for name, *_ in array_fields(params):
                if getattr(params, name) is not None:
                    yield layer.id, name, getattr(params, name)


@pytest.fixture
def net():
    return build_net()


def test_roundtrip_preserves_forward(tmp_path, net):
    path = save_model(net, tmp_path / "model.json")
    loaded = load_model(path)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 8, 8))
    assert np.allclose(forward(net, x), forward(loaded, x), atol=0)
    assert loaded.layer("proj").meta == {"decomposed_from": "none", "rank_n": 2}
    assert loaded.layer("c1").stage == "s8"


def test_float32_storage_quantizes(tmp_path, net):
    path = save_model(net, tmp_path / "model.json")
    loaded = load_model(path)
    w = net.layer("c1").conv.weights
    lw = loaded.layer("c1").conv.weights
    assert np.allclose(w, lw, atol=1e-6)
    assert np.array_equal(lw, w.astype(np.float32).astype(np.float64))


def test_deterministic_bytes(tmp_path):
    p1 = save_model(build_net(), tmp_path / "a.json")
    p2 = save_model(build_net(), tmp_path / "b.json")
    assert p1.read_bytes().replace(b"a.bin", b"x.bin") == p2.read_bytes().replace(
        b"b.bin", b"x.bin"
    )
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_missing_field_named(tmp_path, net):
    path = save_model(net, tmp_path / "model.json")
    manifest = json.loads(path.read_text())
    del manifest["layers"][0]["c_out"]
    path.write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match="c_out"):
        load_model(path)


def test_bad_version_rejected(tmp_path, net):
    path = save_model(net, tmp_path / "model.json")
    manifest = json.loads(path.read_text())
    manifest["format_version"] = 99
    path.write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match="format_version"):
        load_model(path)


def test_empty_layer_list_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps(
            {
                "format_version": 1,
                "input_shape": [1, 2, 2],
                "blob": "model.bin",
                "layers": [],
            }
        )
    )
    (tmp_path / "model.bin").write_bytes(b"")
    with pytest.raises(ModelFormatError, match="no layers"):
        load_model(path)


def test_blob_length_mismatch_rejected(tmp_path, net):
    path = save_model(net, tmp_path / "model.json")
    manifest = json.loads(path.read_text())
    manifest["layers"][0]["weights"]["length"] -= 4
    path.write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match="length"):
        load_model(path)


def test_misaligned_offset_rejected(tmp_path):
    """An offset that is not a multiple of 4 would read float32 values
    across their boundaries: garbage weights, some of them NaN."""
    path = save_model(build_toy_three(0), tmp_path / "toy3.json")
    manifest = json.loads(path.read_text())
    manifest["layers"][0]["weights"]["offset"] += 2
    path.write_text(json.dumps(manifest))
    with pytest.raises(
        ModelFormatError, match="layer c1 weights: blob offset 2 is not 4-byte aligned"
    ):
        load_model(path)


def test_missing_blob_rejected(tmp_path, net):
    path = save_model(net, tmp_path / "model.json")
    (tmp_path / "model.bin").unlink()
    with pytest.raises(ModelFormatError, match="blob"):
        load_model(path)


def test_inconsistent_shapes_rejected(tmp_path, net):
    path = save_model(net, tmp_path / "model.json")
    manifest = json.loads(path.read_text())
    manifest["input_shape"] = [5, 8, 8]
    path.write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match="c1"):
        load_model(path)


def test_conv_after_fc_is_not_saved(tmp_path):
    # load_model would reject it, so save_model must not write it.
    net = NetworkSpec(
        "fc-conv",
        (1, 2, 2),
        [
            LayerSpec(id="fc", kind="fc", fc=FcParams(4, 4, np.eye(4), np.zeros(4))),
            LayerSpec(
                id="conv", kind="conv", conv=ConvWeights(4, 4, 1, weights=np.ones((4, 4, 1, 1)))
            ),
        ],
    )
    with pytest.raises(ShapeError, match="layer conv: needs a C x H x W input"):
        save_model(net, tmp_path / "model.json")
    assert list(tmp_path.iterdir()) == []


def test_shape_only_conv_is_not_saved(tmp_path):
    net = NetworkSpec("t", (3, 4, 4), [LayerSpec(id="c1", kind="conv", conv=ConvWeights(3, 4, 3))])
    with pytest.raises(ModelFormatError, match="^layer c1: cannot serialize conv without weights"):
        save_model(net, tmp_path / "model.json")
    assert list(tmp_path.iterdir()) == []


def test_interrupted_save_leaves_no_model(tmp_path, monkeypatch):
    path = save_model(build_net(seed=0), tmp_path / "model.json")

    def half_then_fail(obj, fh, **kwargs):
        fh.write('{"format_version": 1, "lay')
        raise OSError("disk full")

    monkeypatch.setattr(modelio.json, "dump", half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_model(build_net(seed=1), path)
    assert list(tmp_path.iterdir()) == []


class _FailAfterFirstWrite:
    """A file whose second ``write`` fails, as a full disk would."""

    def __init__(self, fh):
        self.fh = fh
        self.written = []

    def write(self, data):
        if self.written:
            raise OSError("disk full")
        self.written.append(len(bytes(data)))
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _wrap_blob_files(monkeypatch, mode: str, wrap) -> list:
    """Make ``modelio`` open each file it opens in ``mode`` (a blob) as
    ``wrap(path)``; the wrapped files are listed in the returned list."""
    blobs = []

    def open_blob(file, file_mode="r", *args, **kwargs):
        if file_mode != mode:
            return open(file, file_mode, *args, **kwargs)
        blobs.append(wrap(file))
        return blobs[-1]

    monkeypatch.setattr(modelio, "open", open_blob, raising=False)
    return blobs


def test_blob_write_interrupted_after_first_slice_leaves_no_file(tmp_path, monkeypatch):
    path = save_model(build_net(seed=0), tmp_path / "model.json")
    monkeypatch.setattr(modelio, "SLICE_VALUES", 16)
    blobs = _wrap_blob_files(monkeypatch, "wb", lambda file: _FailAfterFirstWrite(open(file, "wb")))
    with pytest.raises(OSError, match="disk full"):
        save_model(build_net(seed=1), path)
    assert [blob.written for blob in blobs] == [[16 * 4]]  # one slice, then the failure
    assert list(tmp_path.iterdir()) == []


def _truncate_argv(model, out) -> list[str]:
    """``compress`` of a ``pool_fc_net`` model with no reconstruction: c1 is
    the one planned layer, and every other tensor is copied unread."""
    return ["compress", str(model), "--degree", "constant", "--base-n", "1",
            "--no-reconstruct", "-o", str(out)]


def test_failed_load_leaves_no_open_blob(tmp_path, monkeypatch, net):
    """A load that fails after reading some tensor references closes its
    blob file, and so does a compress whose deferred read fails: an
    unclosed one would raise ResourceWarning when collected."""
    path = save_model(net, tmp_path / "model.json")
    manifest = json.loads(path.read_text())
    manifest["layers"][-1]["weights"]["length"] -= 4  # fc, the last tensor
    path.write_text(json.dumps(manifest))
    pool_path = save_model(pool_fc_net(0), tmp_path / "pool" / "model.json")
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(ModelFormatError, match="layer fc weights: blob length"):
            load_model(path)
        gc.collect()
        _wrap_blob_files(monkeypatch, "rb", lambda file: _FailingBlob(file, "short"))
        assert main(_truncate_argv(pool_path, tmp_path / "out")) == EXIT_FORMAT
        gc.collect()
    assert [hook.exc_value for hook in unraisable] == []


class _FailingBlob(io.BufferedReader):
    """A blob file whose reads from byte ``start`` on fail, as on an I/O
    error, or come up empty, as when the file shrinks after it was opened."""

    def __init__(self, path, fault, start=0):
        super().__init__(io.FileIO(path))
        self.fault, self.start = fault, start

    def readinto(self, buffer):
        if self.tell() < self.start:
            return super().readinto(buffer)
        if self.fault == "error":
            raise OSError(5, "Input/output error")
        return 0


@pytest.mark.parametrize(
    "fault, message",
    [("error", "cannot read blob: .*Input/output error"), ("short", "blob slice out of range")],
    ids=["io-error", "shrunk"],
)
def test_failing_blob_read_is_format_error(tmp_path, monkeypatch, capsys, net, fault, message):
    """A blob read fault raises ModelFormatError naming the tensor, and
    closes the blob file, wherever the read happens: on the first use of a
    loaded array, or in compress, as the planned c1 is read to be checked or
    as the unread fc2 is copied to the output. compress then exits 2 and
    leaves no model file."""
    path = save_model(net, tmp_path / "model.json")
    blobs = _wrap_blob_files(monkeypatch, "rb", lambda file: _FailingBlob(file, fault))
    loaded = load_model(path)
    with pytest.raises(ModelFormatError, match=f"layer c1 weights: {message}"):
        loaded.layer("c1").conv.weights
    assert len(blobs) == 1 and blobs[0].closed
    with pytest.raises(ModelFormatError, match="layer c1 bias: cannot read blob: closed"):
        loaded.layer("c1").conv.bias

    pool_path = save_model(pool_fc_net(0), tmp_path / "pool" / "model.json")
    offsets = {obj["id"]: obj["weights"]["offset"]
               for obj in json.loads(pool_path.read_text())["layers"] if "weights" in obj}
    for failing in ("c1", "fc2"):
        blobs = _wrap_blob_files(
            monkeypatch, "rb", lambda file: _FailingBlob(file, fault, offsets[failing]))
        out = tmp_path / failing
        assert main(_truncate_argv(pool_path, out)) == EXIT_FORMAT
        assert re.search(f"layer {failing} weights: {message}", capsys.readouterr().err)
        assert len(blobs) == 1 and blobs[0].closed
        assert not (out / "model.json").exists() and not (out / "model.bin").exists()


class _SwitchAfterSeek(io.BufferedReader):
    """A blob file whose ``seek`` waits, after it has moved, for a second
    thread to seek too (or for a short timeout), so that two threads reading
    at once both seek before either reads."""

    def __init__(self, path, barrier):
        super().__init__(io.FileIO(path))
        self.barrier = barrier

    def seek(self, *args):
        position = super().seek(*args)
        try:
            self.barrier.wait(timeout=0.5)
        except threading.BrokenBarrierError:
            pass  # the other thread holds the blob: it does not seek now
        return position


def test_first_reads_from_two_threads_read_their_own_tensors(tmp_path, monkeypatch):
    path = save_model(pool_fc_net(0), tmp_path / "model.json")
    serial = load_model(path)
    expected = {lid: serial.layer(lid).fc.weights for lid in ("fc1", "fc2")}
    barrier = threading.Barrier(2)
    _wrap_blob_files(monkeypatch, "rb", lambda file: _SwitchAfterSeek(file, barrier))
    loaded, read = load_model(path), {}

    def first_read(layer_id):
        read[layer_id] = loaded.layer(layer_id).fc.weights

    threads = [threading.Thread(target=first_read, args=(lid,)) for lid in expected]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert read.keys() == expected.keys()
    for layer_id, weights in expected.items():
        assert np.array_equal(read[layer_id], weights), layer_id


@pytest.mark.parametrize(
    "build", [build_toy_three, build_toy_cnn, build_wide_net], ids=["toy3", "toy4", "transposed"]
)
def test_streaming_io_matches_whole_blob_io(tmp_path, monkeypatch, build):
    """Saving slice by slice writes the bytes the whole-blob writer wrote,
    and loading slice by slice gives the arrays the whole-blob reader gave.
    Seven-value slices make most tensors span slices and end mid-slice."""
    net = build(0)
    with monkeypatch.context() as whole:
        whole.setattr(modelio, "_BlobWriter", oracles.WholeBlobWriter)
        whole.setattr(modelio, "_BlobReader", oracles.WholeBlobReader)
        expected_path = save_model(net, tmp_path / "whole" / "model.json")
        expected = load_model(expected_path)
    monkeypatch.setattr(modelio, "SLICE_VALUES", 7)
    assert any(a.size > 7 and a.size % 7 for _, _, a in arrays(net))
    path = save_model(net, tmp_path / "streamed" / "model.json")
    for suffix in (".json", ".bin"):
        assert path.with_suffix(suffix).read_bytes() == (
            expected_path.with_suffix(suffix).read_bytes()
        )
    loaded = list(arrays(load_model(expected_path)))
    assert [where for *where, _ in loaded] == [where for *where, _ in arrays(expected)]
    for (*where, got), (_, _, want) in zip(loaded, arrays(expected)):
        assert np.array_equal(got, want), where


@pytest.mark.parametrize(
    "build, skip",
    [(build_toy_three, ["c1"]), (build_toy_cnn, ["c1"]), (residual_net, ["c1"]), (pool_fc_net, [])],
    ids=["toy3", "toy4", "residual", "pool-fc"],
)
def test_deferred_reads_match_eager_load(tmp_path, monkeypatch, build, skip):
    """Each array of a load with deferred reads equals the eager loader's,
    and ``compress --no-reconstruct``, which copies the unplanned tensors
    unread, writes the files of eager load -> decompose_network ->
    save_model. Seven-value slices make most tensors span slices."""
    net = build(0)
    path = save_model(net, tmp_path / "model.json")
    plan = build_plan(net, "constant", 2, skip_layers=skip)
    plan_path = plan.save(tmp_path / "plan.json")
    assert any(layer.id not in plan.layer_ranks for layer in net.conv_layers())
    monkeypatch.setattr(modelio, "SLICE_VALUES", 7)
    monkeypatch.setattr(oracles.EagerBlobReader, "slice_values", 7)
    assert any(a.size > 7 and a.size % 7 for _, _, a in arrays(net))
    with monkeypatch.context() as eager:
        eager.setattr(modelio, "_BlobReader", oracles.EagerBlobReader)
        expected = load_model(path)
        compressed, _ = decompose_network(expected, plan.layer_ranks)
        expected_path = save_model(compressed, tmp_path / "eager" / "model.json")
    loaded = list(arrays(load_model(path)))
    assert [where for *where, _ in loaded] == [where for *where, _ in arrays(expected)]
    for (*where, got), (_, _, want) in zip(loaded, arrays(expected)):
        assert np.array_equal(got, want), where

    out = tmp_path / "deferred"
    argv = ["compress", str(path), "--plan", str(plan_path), "--no-reconstruct", "-o", str(out)]
    assert main(argv) == 0
    for name in ("model.json", "model.bin"):
        assert (out / name).read_bytes() == (expected_path.parent / name).read_bytes()


# What load and save may allocate beyond the model's own float64 arrays: the
# float32 buffer of SLICE_VALUES values, plus 1 MB for the manifest.
IO_SCRATCH_BYTES = 4 * modelio.SLICE_VALUES + (1 << 20)


@pytest.mark.parametrize("out_features", [8192, 4 * 8192], ids=["model", "model-4x"])
def test_load_and_save_hold_one_bounded_slice(tmp_path, out_features):
    """The bound does not grow with the model. Even at the smaller size, a
    contiguous copy of the fc weights (a transposed view of 16 MB), a
    float32 copy of every array or the whole blob (8 MB each) exceeds it."""
    net = build_wide_net(0, out_features)
    assert not net.layer("fc").fc.weights.flags.c_contiguous
    own = sum(a.nbytes for _, _, a in arrays(net))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        path = save_model(net, tmp_path / "wide.json")
        save_extra = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_model(path)
        read = sum(a.nbytes for _, _, a in arrays(loaded))  # reads every tensor
        load_extra = tracemalloc.get_traced_memory()[1] - before - own
    finally:
        tracemalloc.stop()
    assert read == own
    assert save_extra <= IO_SCRATCH_BYTES
    assert load_extra <= IO_SCRATCH_BYTES


@pytest.mark.parametrize(
    "save",
    [
        lambda path: CalibrationSet.synthetic((2, 3, 3), 2, seed=0).save(path),
        lambda path: build_plan(build_toy_three(0), "constant", 1).save(path),
    ],
    ids=["calibration", "plan"],
)
def test_interrupted_save_leaves_no_file(tmp_path, monkeypatch, save):
    """Whichever way the JSON is written, a save interrupted halfway
    through leaves no file of that name, never a half-written one."""
    path = save(tmp_path / "file.json")

    def half_dump(obj, fh, **kwargs):
        fh.write('{"format_version": 1, "co')
        raise OSError("disk full")

    def half_write_text(path, text, **kwargs):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text[: len(text) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", half_dump)
    monkeypatch.setattr(Path, "write_text", half_write_text)
    with pytest.raises(OSError, match="disk full"):
        save(path)
    assert list(tmp_path.iterdir()) == []


# float32 stores a magnitude from halfway between its largest finite value
# and 2**128 on as infinity.
_FLOAT32_MAX = float(np.finfo(np.float32).max)
_FLOAT32_INF_FROM = _FLOAT32_MAX + (2.0**128 - _FLOAT32_MAX) / 2


@pytest.mark.parametrize("value", [1e39, -1e39, _FLOAT32_INF_FROM, -1e300, np.nan])
def test_calibration_float32_cannot_hold_is_refused_before_any_write(tmp_path, value):
    samples = CalibrationSet.synthetic((2, 3, 3), 4, seed=0).samples
    samples[2, 1, 0, 2] = value
    with pytest.raises(ShapeError, match="beyond float32's range"):
        modelio.save_calibration(samples, tmp_path / "calib.json")
    if np.isfinite(value):
        with pytest.raises(ShapeError, match="beyond float32's range"):
            CalibrationSet(samples).save(tmp_path / "calib.json")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [_FLOAT32_MAX, np.nextafter(_FLOAT32_INF_FROM, 0.0)])
def test_calibration_at_the_float32_limit_loads_back_finite(tmp_path, value):
    samples = CalibrationSet.synthetic((2, 3, 3), 4, seed=0).samples
    samples[0, 0, 0, 0], samples[3, 1, 2, 2] = value, -value
    loaded = CalibrationSet.from_file(CalibrationSet(samples).save(tmp_path / "calib.json"))
    assert loaded.samples[0, 0, 0, 0] == -loaded.samples[3, 1, 2, 2] == _FLOAT32_MAX


@pytest.mark.parametrize("value", [1e39, -1e39, np.nan, np.inf])
def test_model_float32_cannot_hold_is_refused_before_any_write(tmp_path, value):
    net = build_toy_three(0)
    net.layer("c2").conv.weights[1, 0, 2, 1] = value
    with pytest.raises(ShapeError, match=r"^layer c2 weights: .* beyond float32's range"):
        save_model(net, tmp_path / "model.json")
    assert list(tmp_path.iterdir()) == []


def test_model_weight_of_float32_max_loads_back_exactly(tmp_path):
    net = build_toy_three(0)
    weights = net.layer("c2").conv.weights
    weights[0, 0, 0, 0], weights[-1, -1, -1, -1] = _FLOAT32_MAX, -_FLOAT32_MAX
    loaded = load_model(save_model(net, tmp_path / "model.json")).layer("c2").conv.weights
    assert np.array_equal(loaded, weights.astype(np.float32))
    assert loaded[0, 0, 0, 0] == -loaded[-1, -1, -1, -1] == _FLOAT32_MAX


# Keys a manifest may lack: optional layer fields.
_OPTIONAL_KEYS = {"input", "source", "stage", "decomposed_from", "rank_n"}


def _decoded(entry, manifest_path: Path, manifest: dict) -> np.ndarray:
    raw = (manifest_path.parent / manifest["blob"]).read_bytes()
    return np.frombuffer(raw, "<f4", count=entry["length"] // 4, offset=entry["offset"])


def _assert_same_fields(written: dict, written_path: Path, saved: dict, saved_path: Path):
    """``saved`` holds ``written``'s value in every field the format defines.
    Arrays are compared decoded, not by blob offset; a field ``written``
    leaves out is not compared (its default was used), and keys the format
    does not define, which are dropped on save, are not compared either."""
    for key in ("format_version", "name", "input_shape"):
        assert key not in written or same_json(saved[key], written[key]), key
    assert len(saved["layers"]) == len(written["layers"])
    for old, new in zip(written["layers"], saved["layers"]):
        for key in set(new) | _OPTIONAL_KEYS:
            where = f"layer {new['id']} {key}"
            if key not in new:  # an optional field saved only when set
                assert old.get(key) is None, where
            elif isinstance(new[key], dict):  # a blob reference
                assert np.array_equal(
                    _decoded(new[key], saved_path, saved),
                    _decoded(old[key], written_path, written),
                    equal_nan=True,
                ), where
            elif key in old:
                assert same_json(new[key], old[key]), where


@pytest.mark.parametrize("net", [build_toy_three(0), pool_fc_net(0)], ids=["toy3", "pool-fc"])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_manifest_or_blob_raises_only_model_format_error(net, data):
    """Any edit of a valid manifest's fields, or cut or growth of its bytes
    or of its blob, either raises ModelFormatError or loads a network that
    saves back to the same value in every field the format defines."""
    with tempfile.TemporaryDirectory() as tmp:
        path = save_model(net, Path(tmp) / "model.json")
        manifest = json.loads(path.read_text())
        edit_fields(data, manifest, _OPTIONAL_KEYS)
        path.write_bytes(cut_or_grow(data, json.dumps(manifest).encode(), "manifest"))
        blob = path.with_suffix(".bin")
        blob.write_bytes(cut_or_grow(data, blob.read_bytes(), "blob"))
        try:
            loaded = load_model(path)
        except ModelFormatError:
            return
        saved = save_model(loaded, Path(tmp) / "saved" / "model.json")
        _assert_same_fields(
            json.loads(path.read_bytes()), path, json.loads(saved.read_text()), saved
        )
