import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcompress import modelio
from groupcompress.errors import ModelFormatError, ShapeError
from groupcompress.fixtures import build_toy_three
from groupcompress.model import (
    AffineParams,
    ConvWeights,
    FcParams,
    LayerSpec,
    NetworkSpec,
    PoolParams,
    forward,
)
from groupcompress.modelio import load_model, save_model
from groupcompress.reconstruct import CalibrationSet
from groupcompress.schedule import build_plan

from json_edits import cut_or_grow, edit_fields


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


def test_interrupted_save_leaves_no_model(tmp_path, monkeypatch):
    path = save_model(build_net(seed=0), tmp_path / "model.json")

    def half_then_fail(obj, fh, **kwargs):
        fh.write('{"format_version": 1, "lay')
        raise OSError("disk full")

    monkeypatch.setattr(modelio.json, "dump", half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_model(build_net(seed=1), path)
    assert list(tmp_path.iterdir()) == []


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


# Keys a toy3 manifest may lack: optional layer fields.
_OPTIONAL_KEYS = {"input", "source", "stage", "decomposed_from", "rank_n"}
_TOY3 = build_toy_three(0)


def _same_json(a, b) -> bool:
    """Equal as JSON text, so 1, 1.0 and true differ."""
    return json.dumps(a) == json.dumps(b)


def _decoded(entry, manifest_path: Path, manifest: dict) -> np.ndarray:
    raw = (manifest_path.parent / manifest["blob"]).read_bytes()
    return np.frombuffer(raw, "<f4", count=entry["length"] // 4, offset=entry["offset"])


def _assert_same_fields(written: dict, written_path: Path, saved: dict, saved_path: Path):
    """``saved`` holds ``written``'s value in every field the format defines.
    Arrays are compared decoded, not by blob offset; a field ``written``
    leaves out is not compared (its default was used), and keys the format
    does not define, which are dropped on save, are not compared either."""
    for key in ("format_version", "name", "input_shape"):
        assert key not in written or _same_json(saved[key], written[key]), key
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
                assert _same_json(new[key], old[key]), where


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_manifest_or_blob_raises_only_model_format_error(data):
    """Any edit of a valid manifest's fields, or cut or growth of its bytes
    or of its blob, either raises ModelFormatError or loads a network that
    saves back to the same value in every field the format defines."""
    with tempfile.TemporaryDirectory() as tmp:
        path = save_model(_TOY3, Path(tmp) / "toy3.json")
        manifest = json.loads(path.read_text())
        edit_fields(data, manifest, _OPTIONAL_KEYS)
        path.write_bytes(cut_or_grow(data, json.dumps(manifest).encode(), "manifest"))
        blob = path.with_suffix(".bin")
        blob.write_bytes(cut_or_grow(data, blob.read_bytes(), "blob"))
        try:
            net = load_model(path)
        except ModelFormatError:
            return
        saved = save_model(net, Path(tmp) / "saved" / "toy3.json")
        _assert_same_fields(
            json.loads(path.read_bytes()), path, json.loads(saved.read_text()), saved
        )
