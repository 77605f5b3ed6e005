"""Model serialization: JSON manifest plus a raw float32 weight blob.

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
"""

from __future__ import annotations

import json
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
            offset, length = int(entry["offset"]), int(entry["length"])
        except (TypeError, KeyError) as exc:
            raise ModelFormatError(f"{field}: malformed blob reference") from exc
        count = int(np.prod(shape))
        if length != 4 * count:
            raise ModelFormatError(
                f"{field}: blob length {length} != {4 * count} expected for shape {shape}"
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
            scalars[f.name] = int(_require(obj, f.name, layer_id))
        else:
            scalars[f.name] = int(obj.get(f.name, f.default))
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
    except (ValueError, TypeError) as exc:
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


def save_model(net: NetworkSpec, manifest_path) -> Path:
    """Write ``<manifest_path>`` and its sibling ``.bin`` blob.

    The blob file name is the manifest name with a ``.bin`` suffix; writing
    is deterministic (same network -> identical bytes). Shapes are checked
    first, so a network that ``load_model`` would reject is not written.
    """
    propagate_shapes(net)
    manifest_path = Path(manifest_path)
    blob_name = manifest_path.with_suffix(".bin").name
    blob = _BlobWriter()
    layers = [_layer_to_json(layer, blob) for layer in net.layers]
    manifest = {
        "format_version": FORMAT_VERSION,
        "name": net.name,
        "input_shape": list(net.input_shape),
        "blob": blob_name,
        "layers": layers,
    }
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    # Both files are written in full before either is moved into place, and
    # the blob goes first, so a new manifest never names an unfinished blob.
    blob_path = manifest_path.parent / blob_name
    with write_atomically(blob_path, manifest_path) as (tmp_blob, tmp_manifest):
        with open(tmp_blob, "wb") as fh:
            fh.writelines(blob.chunks)
        with open(tmp_manifest, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    return manifest_path


def load_model(manifest_path) -> NetworkSpec:
    """Load and validate a model; shape propagation runs as a consistency check."""
    manifest_path = Path(manifest_path)
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise ModelFormatError(f"manifest not found: {manifest_path}")
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"manifest is not valid JSON: {exc}") from exc

    if not isinstance(manifest, dict):
        raise ModelFormatError("manifest: not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported format_version {version!r} (expected {FORMAT_VERSION})"
        )
    for field in ("input_shape", "blob", "layers"):
        if field not in manifest:
            raise ModelFormatError(f"manifest: missing field {field!r}")
    if not isinstance(manifest["layers"], list) or not manifest["layers"]:
        raise ModelFormatError("manifest: no layers")
    input_shape = manifest["input_shape"]
    try:
        shape = tuple(int(v) for v in input_shape)
    except (ValueError, TypeError) as exc:
        raise ModelFormatError(f"manifest: bad input_shape {input_shape!r}") from exc
    if not isinstance(input_shape, list) or len(shape) != 3 or min(shape) < 1:
        raise ModelFormatError(f"manifest: bad input_shape {input_shape!r}")

    if not isinstance(manifest["blob"], str):
        raise ModelFormatError(f"manifest: bad blob name {manifest['blob']!r}")
    blob_path = manifest_path.parent / manifest["blob"]
    try:
        raw = blob_path.read_bytes()
    except FileNotFoundError:
        raise ModelFormatError(f"weight blob not found: {blob_path}")
    reader = _BlobReader(raw)

    layers = [_layer_from_json(obj, reader) for obj in manifest["layers"]]
    try:
        net = NetworkSpec(
            name=manifest.get("name", manifest_path.stem),
            input_shape=shape,
            layers=layers,
        )
        propagate_shapes(net)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    return net
