"""File formats: models and calibration sets (a JSON manifest plus a raw
float32 blob) and compression plans (JSON only).

Format (version 1)
------------------
``model.json``::

    {
      "format_version": 1,
      "name": "...",
      "input_shape": [C, H, W],
      "blob": "model.bin",
      "layers": [ ... ]
    }

Each layer object carries ``id``, ``kind`` and optionally ``stage`` and
``input`` (the id of the layer it reads; omitted means the previous layer).
Kind-specific fields are those of the kind's parameter record in ``model``
(``ConvWeights``, ``PoolParams``, ``FcParams``, ``AffineParams``), in
declaration order:

* conv: ``c_in, c_out, k, groups, stride, pad, weights, bias`` where
  ``weights``/``bias`` are ``{"offset": bytes, "length": bytes}`` into the
  blob (bias may be null). Optional provenance: ``decomposed_from``,
  ``rank_n``.
* maxpool / avgpool: ``k, stride, pad``.
* add: ``source`` (id of the joined layer).
* fc: ``in_features, out_features, weights, bias``.
* channel_affine: ``channels, scale, shift``.

The blob is little-endian float32, tensors in C order; conv weights are
(c_out, c_in/groups, k, k), fc weights (out_features, in_features). Offsets
and lengths are in bytes and must be 4-byte aligned.

A calibration manifest is ``{"format_version": 1, "count": N, "shape": [C,
H, W], "blob": "calib.bin"}``; its blob is the (N, C, H, W) samples. A plan
file is ``schedule.CompressionPlan.to_json()``, with no blob.

All three are read by ``read_json``: a missing, unreadable or malformed file
raises ModelFormatError (PlanError for a plan). ``json_integer`` checks
their integers, never truncating. ``write_json`` writes them, the blob
first and each file atomically, so an interrupted write leaves no file.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np

from .errors import ModelFormatError
from .model import LAYER_KINDS, PARAM_TYPES, LayerSpec, NetworkSpec, propagate_shapes

FORMAT_VERSION = 1


class _BlobWriter:
    def __init__(self):
        self.chunks: list[np.ndarray] = []
        self.offset = 0

    def put(self, array: np.ndarray | None) -> dict | None:
        if array is None:
            return None
        data = np.ascontiguousarray(array, dtype="<f4")
        entry = {"offset": self.offset, "length": data.nbytes}
        self.chunks.append(data)
        self.offset += data.nbytes
        return entry


class _BlobReader:
    def __init__(self, raw: bytes):
        self.raw = raw

    def get(self, entry, shape, field: str) -> np.ndarray | None:
        if entry is None:
            return None
        try:
            offset = json_integer(entry["offset"], f"{field} offset")
            length = json_integer(entry["length"], f"{field} length")
        except (TypeError, KeyError) as exc:
            raise ModelFormatError(f"{field}: malformed blob reference") from exc
        count = math.prod(shape)
        if length != 4 * count:
            raise ModelFormatError(
                f"{field}: blob length {length} bytes, expected {4 * count} for shape {shape}"
            )
        if offset < 0 or offset + length > len(self.raw):
            raise ModelFormatError(f"{field}: blob slice out of range")
        flat = np.frombuffer(self.raw, dtype="<f4", count=count, offset=offset)
        return flat.astype(np.float64).reshape(shape)


# Parameter arrays that may be null; every other array must be present.
_OPTIONAL_ARRAYS = ("bias",)
_META_KEYS = ("decomposed_from", "rank_n")


def _is_array(f) -> bool:
    return "shape" in f.metadata


def _layer_to_json(layer: LayerSpec, blob: _BlobWriter) -> dict:
    obj: dict = {"id": layer.id, "kind": layer.kind}
    for key in ("stage", "input", "source"):
        if getattr(layer, key) is not None:
            obj[key] = getattr(layer, key)
    attr = LAYER_KINDS[layer.kind]
    params = None if attr is None else getattr(layer, attr)
    for f in fields(params) if params is not None else ():
        value = getattr(params, f.name)
        if _is_array(f):
            if value is None and f.name not in _OPTIONAL_ARRAYS:
                raise ModelFormatError(
                    f"layer {layer.id}: cannot serialize {layer.kind} without {f.name}"
                )
            value = blob.put(value)
        obj[f.name] = value
    obj.update((key, layer.meta[key]) for key in _META_KEYS if key in layer.meta)
    return obj


def json_integer(value, field: str, minimum: int | None = None, error=ModelFormatError) -> int:
    """A JSON integer, at least ``minimum`` when given; a float, even a whole
    one, or a boolean raises ``error``, never truncated."""
    if type(value) is not int or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise error(f"{field} must be an integer{bound}, got {value!r}")
    return value


def _require(obj: dict, field: str, layer_id: str):
    if field not in obj:
        raise ModelFormatError(f"layer {layer_id}: missing field {field!r}")
    return obj[field]


def _params_from_json(cls, obj: dict, blob: _BlobReader, layer_id: str):
    """Read a parameter record field by field: scalars first, then the arrays,
    whose shapes follow from the scalars."""
    scalars = {}
    for f in fields(cls):
        if _is_array(f):
            continue
        if f.default is MISSING:
            value = _require(obj, f.name, layer_id)
        else:
            value = obj.get(f.name, f.default)
        scalars[f.name] = json_integer(value, f"layer {layer_id}: {f.name}")
    params = cls(**scalars)
    arrays = {}
    for f in fields(cls):
        if _is_array(f):
            entry = obj.get(f.name) if f.name in _OPTIONAL_ARRAYS else _require(
                obj, f.name, layer_id
            )
            shape = f.metadata["shape"](params)
            arrays[f.name] = blob.get(entry, shape, f"layer {layer_id} {f.name}")
    return replace(params, **arrays)


def _layer_from_json(obj, blob: _BlobReader) -> LayerSpec:
    layer_id = obj.get("id") if isinstance(obj, dict) else None
    if not isinstance(layer_id, str) or not layer_id:
        raise ModelFormatError("layer: missing or invalid field 'id'")
    kind = _require(obj, "kind", layer_id)
    for key in ("stage", "input", "source", "decomposed_from"):
        if obj.get(key) is not None and not isinstance(obj[key], str):
            raise ModelFormatError(f"layer {layer_id}: {key} must be a string")
    if "rank_n" in obj:
        json_integer(obj["rank_n"], f"layer {layer_id}: rank_n")
    try:
        if kind not in LAYER_KINDS:
            raise ModelFormatError(f"layer {layer_id}: unknown kind {kind!r}")
        attr = LAYER_KINDS[kind]
        params = {}
        if attr is not None:
            params[attr] = _params_from_json(PARAM_TYPES[attr], obj, blob, layer_id)
        return LayerSpec(
            id=layer_id,
            kind=kind,
            stage=obj.get("stage"),
            input=obj.get("input"),
            source=obj.get("source"),
            meta={key: obj[key] for key in _META_KEYS if key in obj},
            **params,
        )
    except ModelFormatError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise ModelFormatError(f"layer {layer_id}: {exc}") from exc


@contextmanager
def write_atomically(*paths: Path):
    """Yield one temporary path beside each of ``paths``. When the block
    completes, each is moved into place with ``os.replace``, in the given
    order; when it raises, they are deleted. A file at one of ``paths`` is
    therefore always complete: an interrupted writer leaves none, never a
    half-written one.

    Files already at ``paths`` are removed first. Kept until the rename,
    their unwritten pages would be flushed to disk while the new files are
    written: saving a 550 MB model over an earlier one took about twice as
    long that way."""
    for path in paths:
        path.unlink(missing_ok=True)
    temps = [p.with_name(f".{p.name}.{os.getpid()}.tmp") for p in paths]
    try:
        yield temps
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)


def write_json(path, document: dict, blob: _BlobWriter | None = None) -> Path:
    """Write ``document`` to ``path`` as indented JSON and, when given,
    ``blob`` to the file its ``"blob"`` field names beside it.

    Both files are written in full before either is moved into place, and
    the blob goes first, so a new manifest never names an unfinished blob.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    paths = [path] if blob is None else [path.parent / document["blob"], path]
    with write_atomically(*paths) as temps:
        if blob is not None:
            with open(temps[0], "wb") as fh:
                fh.writelines(blob.chunks)
        with open(temps[-1], "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
    return path


def read_json(path, kind: str, error=ModelFormatError):
    """The JSON document at ``path``. A file that is missing, unreadable
    (a directory), not UTF-8 or not JSON raises ``error`` naming ``kind``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise error(f"{kind} not found: {path}") from None
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"{kind} is not readable JSON: {exc}") from exc


def _read_manifest(path, kind: str, required: tuple) -> tuple[dict, _BlobReader]:
    """A version-1 manifest with the ``required`` fields, and its blob."""
    path = Path(path)
    manifest = read_json(path, kind)
    if not isinstance(manifest, dict):
        raise ModelFormatError(f"{kind}: not a JSON object")
    version = manifest.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ModelFormatError(
            f"{kind}: unsupported format_version {version!r} (expected {FORMAT_VERSION})"
        )
    for field in (*required, "blob"):
        if field not in manifest:
            raise ModelFormatError(f"{kind}: missing field {field!r}")
    if not isinstance(manifest["blob"], str):
        raise ModelFormatError(f"{kind}: bad blob name {manifest['blob']!r}")
    blob_path = path.parent / manifest["blob"]
    try:
        return manifest, _BlobReader(blob_path.read_bytes())
    except FileNotFoundError:
        raise ModelFormatError(f"{kind}: blob not found: {blob_path}") from None
    except (OSError, ValueError) as exc:  # a directory, or a name with a NUL byte
        raise ModelFormatError(f"{kind}: cannot read blob {blob_path}: {exc}") from exc


def _shape(value, field: str) -> tuple[int, int, int]:
    if not (isinstance(value, list) and len(value) == 3):
        raise ModelFormatError(f"{field} must be three integers >= 1, got {value!r}")
    return tuple(json_integer(v, field, 1) for v in value)


def save_model(net: NetworkSpec, manifest_path) -> Path:
    """Write ``<manifest_path>`` and its sibling ``.bin`` blob.

    The blob file name is the manifest name with a ``.bin`` suffix; writing
    is deterministic (same network -> identical bytes). Shapes are checked
    first, so a network that ``load_model`` would reject is not written.
    """
    propagate_shapes(net)
    manifest_path = Path(manifest_path)
    blob = _BlobWriter()
    layers = [_layer_to_json(layer, blob) for layer in net.layers]
    manifest = {
        "format_version": FORMAT_VERSION,
        "name": net.name,
        "input_shape": list(net.input_shape),
        "blob": manifest_path.with_suffix(".bin").name,
        "layers": layers,
    }
    return write_json(manifest_path, manifest, blob)


def load_model(manifest_path) -> NetworkSpec:
    """Load and validate a model; shape propagation runs as a consistency check."""
    manifest, reader = _read_manifest(manifest_path, "manifest", ("input_shape", "layers"))
    if not isinstance(manifest["layers"], list) or not manifest["layers"]:
        raise ModelFormatError("manifest: no layers")
    input_shape = _shape(manifest["input_shape"], "manifest: input_shape")
    layers = [_layer_from_json(obj, reader) for obj in manifest["layers"]]
    try:
        net = NetworkSpec(manifest.get("name", Path(manifest_path).stem), input_shape, layers)
        propagate_shapes(net)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    return net


def save_calibration(samples: np.ndarray, manifest_path) -> Path:
    """Write (count, C, H, W) ``samples`` as a calibration manifest and blob."""
    manifest_path = Path(manifest_path)
    blob = _BlobWriter()
    blob.put(samples)
    header = {
        "format_version": FORMAT_VERSION,
        "count": samples.shape[0],
        "shape": list(samples.shape[1:]),
        "blob": manifest_path.with_suffix(".bin").name,
    }
    return write_json(manifest_path, header, blob)


def load_calibration(manifest_path) -> np.ndarray:
    """The (count, C, H, W) samples of a calibration manifest."""
    kind = "calibration manifest"
    header, reader = _read_manifest(manifest_path, kind, ("count", "shape"))
    count = json_integer(header["count"], f"{kind}: count", 1)
    shape = _shape(header["shape"], f"{kind}: shape")
    whole = {"offset": 0, "length": len(reader.raw)}
    return reader.get(whole, (count, *shape), "calibration samples")
