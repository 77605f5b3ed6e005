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
  blob. Optional provenance: ``decomposed_from``, ``rank_n``.
* maxpool / avgpool: ``k, stride, pad``.
* add: ``source`` (id of the joined layer).
* fc: ``in_features, out_features, weights, bias``.
* channel_affine: ``channels, scale, shift``.

The blob is little-endian float32, tensors in C order, each of the shape
its field declares (``model.array_fields``): conv weights are (c_out,
c_in/groups, k, k), fc weights (out_features, in_features). Only a bias
may be null; any other array that is null or missing is a ModelFormatError.
Offsets and lengths are in bytes and must be 4-byte aligned.

A calibration manifest is ``{"format_version": 1, "count": N, "shape": [C,
H, W], "blob": "calib.bin"}``; its blob is the (N, C, H, W) samples. A plan
file is ``schedule.CompressionPlan.to_json()``, with no blob.

All three are read by ``read_json``: a missing, unreadable or malformed file
raises ModelFormatError (PlanError for a plan). ``json_integer`` checks
their integers, never truncating. ``write_json`` writes them, the blob
first, with every file of one call in one ``write_atomically``, so an
interrupted write leaves none of them. ``compress`` writes its report in
the same call as the model it describes, after the blob.

Tensors are read on use. Load checks every blob reference against the
manifest and the blob's size, but reads no tensor: each array of the loaded
network is a ``model.Deferred`` that the blob file stays open for. The
first access of an array reads it straight into float64 and the record
keeps it; ``model.read_arrays`` reads it for one use only. Save converts
each array to float32 as it writes it, and copies each tensor that was
never read from the source blob as float32 bytes, with no float64 step.
An array of a model or a calibration set with a value float32 cannot
hold (NaN, infinite, or rounding to infinity: ``float32_holds``) raises
ShapeError naming the tensor, before any file is written. A copied
tensor is checked as it is copied: a value that is not finite raises
ShapeError naming the tensor, after the old files were removed, so no
model is left at the path. Any other ``Deferred`` array, such as the
factors of a pair that ``decompose.decompose_network`` made, is read as
it is written, and freed once written: save then factors one pair at a
time. ``decompose_network`` has already applied the float32 rule to
those factors, by a bound, before any file was touched; a failure while
one is factored (a LAPACK non-convergence) comes after the old files
were removed, and leaves no model at the path. Every read, copy and write
goes through one buffer of ``SLICE_VALUES`` float32 values, so load and
save hold one bounded slice beyond the arrays that were read, never a
second copy of the weights.

The blob file is read through the handle load opened, never reopened by
path, so saving over the model that was loaded works: ``write_atomically``
unlinks the old blob, and the open handle still reads it. The handle is
closed once no unread tensor of the model is left, and at once when a read
fails. A failed read, at load or on use, raises ModelFormatError naming
the tensor.
"""

from __future__ import annotations

import json
import math
import os
import threading
import weakref
from contextlib import contextmanager
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np

from .errors import ModelFormatError, ShapeError
from .model import (
    LAYER_KINDS, Deferred, LayerSpec, NetworkSpec, array_fields, propagate_shapes,
)

FORMAT_VERSION = 1


# Float32 values per step of a blob read or write: a 4 MB buffer.
SLICE_VALUES = 1 << 20


def float32_holds(low, high) -> bool:
    """Whether every value from ``low`` to ``high`` rounds to a finite
    float32 value: the one rule of what a blob can hold. Rounding is
    monotone, so the two ends decide, and a NaN end fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(np.float32([low, high])).all())


def check_float32(array, name: str) -> None:
    """ShapeError naming the tensor ``name`` unless ``float32_holds`` for
    the ``min`` and ``max`` of ``array``; None and an empty array pass."""
    if array is not None and array.size:
        low, high = array.min(), array.max()
        if not float32_holds(low, high):
            raise ShapeError(f"{name}: {low:.4g} to {high:.4g}, beyond float32's range")


class _BlobWriter:
    """Lays arrays out in a blob, holding each by reference, with its
    tensor's name, until ``write``. A ``Deferred`` array is laid out by its
    size, unread."""

    def __init__(self):
        self.arrays: list = []  # (array, name)
        self.offset = 0

    def put(self, array, name: str) -> dict | None:
        """Lay out ``array``, the tensor ``name``; ``check_float32`` checks it
        unless it is ``Deferred``."""
        if array is None:
            return None
        if not isinstance(array, Deferred):
            check_float32(array, name)
        entry = {"offset": self.offset, "length": 4 * array.size}
        self.arrays.append((array, name))
        self.offset += entry["length"]
        return entry

    def write(self, fh) -> None:
        """Write every array to ``fh`` as little-endian float32 in C order,
        converting a slice of at most SLICE_VALUES values at a time, so that
        no array, contiguous or not, is copied whole. An unread tensor is
        copied from its blob, a slice at a time; a slice with a value that
        is not finite raises ShapeError naming the tensor. Any other
        ``Deferred`` array is read here, once, checked by ``check_float32``
        and freed once it is written."""
        flags = ["external_loop", "buffered", "zerosize_ok"]
        for array, name in self.arrays:
            if isinstance(array, _BlobTensor):
                for part in array.slices():
                    if not np.isfinite(part).all():
                        raise ShapeError(f"{name}: non-finite value in a tensor copied unread")
                    fh.write(part)
                continue
            if isinstance(array, Deferred):
                array = array.read()
                check_float32(array, name)
            for part in np.nditer(
                array, flags, op_dtypes="<f4", casting="unsafe", order="C", buffersize=SLICE_VALUES
            ):
                fh.write(part)


class _BlobTensor(Deferred):
    """One tensor of the blob that ``reader`` has open, read when used."""

    def __init__(self, reader: _BlobReader, offset: int, shape: tuple, field: str):
        super().__init__(shape)
        self.reader, self.offset, self.field = reader, offset, field

    def slices(self):
        """The tensor's float32 values, each slice of at most SLICE_VALUES
        values read into the same buffer. Each slice is sought and read
        under the reader's lock, so threads may read tensors of one blob at
        the same time. A failed read closes the blob file and raises
        ModelFormatError."""
        fh = self.reader.fh
        buffer = np.empty(min(self.size, SLICE_VALUES), dtype="<f4")
        for start in range(0, self.size, SLICE_VALUES):
            part = buffer[: self.size - start]
            with self.reader.lock:
                if fh.closed:
                    raise ModelFormatError(
                        f"{self.field}: cannot read blob: closed after a failed read")
                try:
                    fh.seek(self.offset + 4 * start)
                    short = fh.readinto(part) != part.nbytes  # the file shrank
                except OSError as exc:
                    fh.close()
                    raise ModelFormatError(f"{self.field}: cannot read blob: {exc}") from exc
                if short:
                    fh.close()
                    raise ModelFormatError(f"{self.field}: blob slice out of range")
            yield part

    def read(self) -> np.ndarray:
        """The tensor as a new float64 array; a float64 copy of a float32
        value is exact."""
        out = np.empty(self.size)
        start = 0
        for part in self.slices():
            out[start : start + len(part)] = part
            start += len(part)
        return out.reshape(self.shape)


class _BlobReader:
    """Checks tensor references into an open blob file, and gives each
    tensor as a ``_BlobTensor``: the file stays open while one is left.
    ``lock`` guards the file position."""

    def __init__(self, fh):
        self.fh, self.lock = fh, threading.Lock()
        self.size = os.fstat(fh.fileno()).st_size

    def get(self, entry, shape, field: str) -> _BlobTensor | None:
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
        if offset < 0 or offset + length > self.size:
            raise ModelFormatError(f"{field}: blob slice out of range")
        if offset % 4:
            raise ModelFormatError(f"{field}: blob offset {offset} is not 4-byte aligned")
        return _BlobTensor(self, offset, tuple(shape), field)


_META_KEYS = ("decomposed_from", "rank_n")


def _layer_to_json(layer: LayerSpec, blob: _BlobWriter) -> dict:
    obj: dict = {"id": layer.id, "kind": layer.kind}
    for key in ("stage", "input", "source"):
        if getattr(layer, key) is not None:
            obj[key] = getattr(layer, key)
    if LAYER_KINDS[layer.kind] is not None:
        params = getattr(layer, LAYER_KINDS[layer.kind][0])
        arrays = list(array_fields(params))  # an unread tensor stays unread: save copies its bytes
        names = {name for name, *_ in arrays}
        obj.update((f.name, getattr(params, f.name)) for f in fields(params) if f.name not in names)
        for name, _, nullable, value in arrays:
            if value is None and not nullable:
                raise ModelFormatError(
                    f"layer {layer.id}: cannot serialize {layer.kind} without {name}"
                )
            obj[name] = blob.put(value, f"layer {layer.id} {name}")
    obj.update((key, layer.meta[key]) for key in _META_KEYS if key in layer.meta)
    return obj


def json_integer(value, field: str, minimum: int | None = None, error=ModelFormatError) -> int:
    """A JSON integer, at least ``minimum`` when given; a float, even a whole
    one, or a boolean raises ``error``, never truncated."""
    if type(value) is not int or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise error(f"{field} must be an integer{bound}, got {value!r}")
    return value


def _require(obj: dict, field: str, layer_id: str, default=MISSING):
    """``obj[field]``, or ``default`` when the field is missing; a field
    without a default may be neither missing nor null."""
    if obj.get(field) is None and default is MISSING:
        raise ModelFormatError(f"layer {layer_id}: missing or null field {field!r}")
    return obj.get(field, default)


def _params_from_json(cls, obj: dict, blob: _BlobReader, layer_id: str):
    """Read a parameter record field by field: scalars first, then the arrays,
    whose shapes follow from the scalars."""
    names = {name for name, *_ in array_fields(cls)}
    scalars = {}
    for f in fields(cls):
        if f.name not in names:
            value = _require(obj, f.name, layer_id, f.default)
            scalars[f.name] = json_integer(value, f"layer {layer_id}: {f.name}")
    params = cls(**scalars)
    arrays = {}
    for name, shape, nullable, _ in array_fields(params):
        entry = _require(obj, name, layer_id, None if nullable else MISSING)
        arrays[name] = blob.get(entry, shape, f"layer {layer_id} {name}")
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
        attr, cls = LAYER_KINDS[kind] or (None, None)
        params = {} if attr is None else {attr: _params_from_json(cls, obj, blob, layer_id)}
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


def write_json(path, document: dict, blob: _BlobWriter | None = None, then=()) -> Path:
    """Write ``document`` to ``path`` as indented JSON and, when given,
    ``blob`` to the file its ``"blob"`` field names beside it; then, for
    each ``(path, make)`` of ``then``, the document ``make()`` returns once
    the blob and ``document`` are written.

    Every file goes through one ``write_atomically`` call: all are written
    in full before any is moved into place, the blob first, so a new
    manifest never names an unfinished blob, and an interrupted write
    leaves none of them.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    documents = [(path, lambda: document), *then]
    blobs = [] if blob is None else [path.parent / document["blob"]]
    with write_atomically(*blobs, *(doc_path for doc_path, _ in documents)) as temps:
        if blob is not None:
            with open(temps[0], "wb") as fh:
                blob.write(fh)
        for tmp, (_, make) in zip(temps[len(blobs):], documents):
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(make(), fh, indent=2)
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


def _open_manifest(path, kind: str, required: tuple):
    """A version-1 manifest with the ``required`` fields, and its blob file,
    open for reading; the caller closes it."""
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
        return manifest, open(blob_path, "rb")
    except FileNotFoundError:
        raise ModelFormatError(f"{kind}: blob not found: {blob_path}") from None
    except (OSError, ValueError) as exc:  # a directory, or a name with a NUL byte
        raise ModelFormatError(f"{kind}: cannot read blob {blob_path}: {exc}") from exc


def _shape(value, field: str) -> tuple[int, int, int]:
    if not (isinstance(value, list) and len(value) == 3):
        raise ModelFormatError(f"{field} must be three integers >= 1, got {value!r}")
    return tuple(json_integer(v, field, 1) for v in value)


def save_model(net: NetworkSpec, manifest_path, then=()) -> Path:
    """Write ``<manifest_path>`` and its sibling ``.bin`` blob, and the
    documents of ``then`` after them, as ``write_json`` does.

    The blob file name is the manifest name with a ``.bin`` suffix; writing
    is deterministic (same network -> identical bytes). Each record checked
    its arrays' shapes when it was built; layer shapes, and that no required
    array is None, are checked here, so a network that ``load_model`` would
    reject is not written. A ``Deferred`` array is read as the blob is
    written, so a decomposed network's pairs are factored one at a time
    (``decompose.decompose_network``).
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
    return write_json(manifest_path, manifest, blob, then)


def load_model(manifest_path) -> NetworkSpec:
    """Load and validate a model; shape propagation runs as a consistency
    check. No tensor is read: each is read when first used (see the module
    docstring)."""
    manifest, fh = _open_manifest(manifest_path, "manifest", ("input_shape", "layers"))
    try:
        reader = _BlobReader(fh)
        weakref.finalize(reader, fh.close)  # run when no unread tensor is left
        if not isinstance(manifest["layers"], list) or not manifest["layers"]:
            raise ModelFormatError("manifest: no layers")
        input_shape = _shape(manifest["input_shape"], "manifest: input_shape")
        layers = [_layer_from_json(obj, reader) for obj in manifest["layers"]]
        try:
            net = NetworkSpec(manifest.get("name", Path(manifest_path).stem), input_shape, layers)
            propagate_shapes(net)
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from exc
    except BaseException:
        fh.close()
        raise
    return net


def save_calibration(samples: np.ndarray, manifest_path) -> Path:
    """Write (count, C, H, W) ``samples`` as a calibration manifest and blob."""
    manifest_path = Path(manifest_path)
    blob = _BlobWriter()
    blob.put(samples, "calibration samples")
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
    header, fh = _open_manifest(manifest_path, kind, ("count", "shape"))
    with fh:
        count = json_integer(header["count"], f"{kind}: count", 1)
        shape = _shape(header["shape"], f"{kind}: shape")
        reader = _BlobReader(fh)
        whole = {"offset": 0, "length": reader.size}
        return reader.get(whole, (count, *shape), "calibration samples").read()
