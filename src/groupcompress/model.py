"""Feed-forward CNN representation, forward execution and FLOPs accounting.

A network is an ordered list of layers forming a DAG with one input and one
output. Each layer consumes the previous layer's output unless it names an
explicit ``input``; ``add`` layers additionally read a named ``source``.
Supported kinds: conv, relu, maxpool, avgpool, add, fc, channel_affine.

FLOPs convention: two operations per multiply-accumulate, bias and
activations excluded. Only conv and fc layers carry FLOPs.

Layers run on sample-major batches: an activation is one float64
(N, C, H, W) array, or (N, features) after fc. A conv with G groups runs as
batched matrix products: the weights read as G stacked (c_out/G) x
(c_in/G * k^2) matrices, and the patches of a run of consecutive groups'
channels read, without a copy, as the same number of stacked
(c_in/G * k^2) x columns matrices (see ``linalg`` for the layout). A 1x1,
stride-1, unpadded conv reads its input itself as the patches, all groups
and samples in one product. Any other conv pads each sample once and builds
its patches in blocks of at most about PATCH_BYTES, so that they are read
back from cache, not memory, whatever the map size or N: runs of whole
groups when one group's patches fit, else one group over a run of output
rows (rows r..r' of the output read rows r*stride .. (r' - 1)*stride + k - 1
of the padded map). A run has at least ceil((c_in/G * k^2) / W_out) rows,
so that no product is narrower than it is deep, even where that exceeds the
budget. Each product writes straight into its groups' output rows.
PATCH_BYTES is 1 MiB, half of a core's L2 on the 2-vCPU Xeon (2 MiB L2 per
core, one BLAS thread) it was measured on: 0.5, 2 and 4 MiB were no faster
on the vgg16_a and resnet34 plan D forwards (see CHANGES.md).

Pooling pads each sample once, with -inf (max) or 0 (average), and folds
the k^2 views of ``linalg._window_views`` into its output with np.maximum or
np.add, in kernel row-major order; an average then divides by k^2. No
window array is built.

One step, ``_run``, runs every layer on a batch. The kind's shape rule
gives the output shape and checks it; the calling thread reads the layer's
parameter arrays (a first access may read the blob), allocates the output
and makes each share's scratch (one padded sample and one patch tile for a
conv, one padded sample for a pool); ``linalg._on_every_cpu`` then gives each
usable CPU one contiguous share of the samples. The kind's forward rule, a
kernel, writes its share's samples of the output, so the output is the same
to the bit whatever the CPU count, and a batch of one or a single CPU starts
no thread. A kernel writes only into arrays it is given, and calls only
private functions.

Specs are shared, not copied: a network derived from another keeps the
unchanged parameter arrays of its input. Code writes in place only to an
array it owns. A walk owns the outputs it allocated until it returns one
from ``_Walk.to``, which hands that array to the caller (who may overwrite
an output, as ``_Walk`` allows), or shares it with a fork. Only an
elementwise layer (relu, channel affine, add) writes in place, into an
input its walk owns and that no later layer reads.

The parameter records (``ConvWeights``, ``PoolParams``, ``FcParams``,
``AffineParams``) are frozen: ``dataclasses.replace`` is the one way to
change one, and it builds a new record. Each parameter array declares its
shape, and whether a saved model may hold null for it (only a bias may),
once, as an ``_ArrayField``; ``array_fields`` reads that schema for the
record check, ``reading`` and ``modelio``. A record makes each array it
is given float64 and checks its shape, once, when it is built; any array
may be None in memory (a shape-only network). An array may be ``Deferred``,
its shape and its reader, not read yet (``modelio.load_model`` defers every
tensor, and ``decompose.decompose_network`` every array of a (D, P) pair).
The first access of the field reads it and keeps the array, so a plain
walk reads each tensor once and keeps what it reads. ``reading`` is the one
way to read a record for one use: it keeps the arrays in the record for one
block and then defers them again. Reconstruction reads each source conv of
the original this way, once per run, for the chunks of samples that pass it;
``decompose`` reads each planned conv this way to check it and again to
factor it, and ``analyze`` each conv of a pair for its spectra.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import ShapeError


class Deferred:
    """A parameter array not read yet, of ``shape`` (``size`` values):
    ``read()`` returns it as a new float64 array each time, from the
    function ``read`` or a subclass's override. ``decompose`` reads each
    array of a pair from its ``_PairFactors``; ``modelio._BlobTensor``, a
    subclass, is one tensor of a loaded model. ``modelio._BlobWriter`` lays
    one out by its size and reads it only as it writes it."""

    def __init__(self, shape: tuple, read: Callable[[], np.ndarray] | None = None):
        self.shape, self.size, self._read = tuple(shape), math.prod(shape), read

    def read(self) -> np.ndarray:
        return self._read()


class _ArrayField:
    """A parameter array field, declared as its default: ``shape`` maps the
    record to the array's shape; ``nullable``, a saved model may hold null
    for it. The value is kept in the record's ``__dict__``, as
    ``_check_arrays`` left it; a ``Deferred`` one is replaced by its array
    on first access."""

    def __init__(self, shape: Callable, nullable: bool = False):
        self.shape, self.nullable = shape, nullable

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, record, owner=None):
        if record is None:
            return None  # the field's default
        value = record.__dict__[self.name]
        if isinstance(value, Deferred):
            value = record.__dict__[self.name] = value.read()
        return value

    def __set__(self, record, value):  # a data descriptor: reads go through __get__
        record.__dict__[self.name] = value


def array_fields(params):
    """``(name, shape, nullable, value)`` for each array field of the
    parameter record ``params``, in declaration order: the shape the field
    declares for ``params``, whether a saved model may hold null for it, and
    the stored value, which may be ``Deferred`` and is not read. Given a
    record class, it yields the same fields with shape and value None."""
    cls = params if isinstance(params, type) else type(params)
    for name, spec in vars(cls).items():
        if isinstance(spec, _ArrayField):
            if params is cls:
                yield name, None, spec.nullable, None
            else:
                yield name, spec.shape(params), spec.nullable, params.__dict__[name]


def _check_arrays(record) -> None:
    """The last step of a record's ``__post_init__``, after its dimension
    checks: each array the record was given becomes float64 (not copied if
    it is) of the shape its field declares, else ShapeError. None and a
    ``Deferred`` array, which its reader checks, stay as they are. Records
    are frozen, so no array is checked again: ``replace`` builds a new
    record."""
    for name, shape, _, value in array_fields(record):
        if value is not None and not isinstance(value, Deferred):
            value = np.asarray(value, dtype=np.float64)
            if value.shape != shape:
                raise ShapeError(f"{type(record).__name__} {name} shape {value.shape} != {shape}")
            record.__dict__[name] = value


@contextmanager
def reading(records):
    """Read each ``Deferred`` array of the parameter records ``records``
    into its record, once, and keep it there while the block runs, so that
    every access in the block, a nested ``reading`` included, shares that
    read; then put the ``Deferred`` back. Each record then holds what it held before, and
    the arrays read here are freed once no caller holds them."""
    unread = [(record, {name: value for name, _, _, value in array_fields(record)
                        if isinstance(value, Deferred)}) for record in records]
    try:
        for record, deferred in unread:
            for name in deferred:
                getattr(record, name)
        yield
    finally:
        for record, deferred in unread:
            record.__dict__.update(deferred)


class _Window:
    """Geometry shared by conv and pooling: a k x k window moved by
    ``stride`` over an input zero-padded by ``pad``."""

    def _check_window(self) -> None:
        if self.k < 1 or self.stride < 1 or self.pad < 0:
            raise ShapeError(
                f"need k >= 1, stride >= 1 and pad >= 0; got k={self.k}, "
                f"stride={self.stride}, pad={self.pad}"
            )

    def out_size(self, h: int, w: int) -> tuple[int, int]:
        h_out = (h + 2 * self.pad - self.k) // self.stride + 1
        w_out = (w + 2 * self.pad - self.k) // self.stride + 1
        return h_out, w_out


@dataclass(frozen=True)
class ConvWeights(_Window):
    """Weights and geometry of one convolutional layer."""

    c_in: int
    c_out: int
    k: int
    groups: int = 1
    stride: int = 1
    pad: int = 0
    weights: np.ndarray | None = _ArrayField(lambda c: (c.c_out, c.c_in // c.groups, c.k, c.k))
    bias: np.ndarray | None = _ArrayField(lambda c: (c.c_out,), nullable=True)

    def __post_init__(self):
        if self.c_in < 1 or self.c_out < 1 or self.k < 1:
            raise ShapeError("conv dimensions must be positive")
        self._check_window()
        if self.groups < 1 or self.c_in % self.groups or self.c_out % self.groups:
            raise ShapeError(
                f"groups={self.groups} must divide c_in={self.c_in} and c_out={self.c_out}"
            )
        _check_arrays(self)

    def weight_matrix(self) -> np.ndarray:
        """The (c_in * k^2) x c_out matrix form of the layer, rows in the
        patch row order of ``linalg._fill_tile`` (channel-major, then kernel
        row, then kernel column): a view of the weights when ungrouped, else
        a block-diagonal copy, group i's filters in block (i, i) and zeros
        elsewhere."""
        if self.weights is None:
            raise ShapeError("layer has no materialized weights")
        g, per_out = self.groups, self.c_out // self.groups
        if g == 1:
            return self.weights.reshape(self.c_out, -1).T
        rows = self.c_in // g * self.k * self.k
        out = np.zeros((g * rows, self.c_out))
        diagonal = np.arange(g)
        out.reshape(g, rows, g, per_out)[diagonal, :, diagonal] = (
            self.weights.reshape(g, per_out, rows).transpose(0, 2, 1)
        )
        return out


@dataclass(frozen=True)
class PoolParams(_Window):
    k: int
    stride: int
    pad: int = 0

    def __post_init__(self):
        self._check_window()
        if self.pad >= self.k:
            raise ShapeError(
                f"pool pad={self.pad} must be below k={self.k}: a window of "
                "padding alone has no value"
            )


@dataclass(frozen=True)
class FcParams:
    in_features: int
    out_features: int
    weights: np.ndarray | None = _ArrayField(lambda f: (f.out_features, f.in_features))
    bias: np.ndarray | None = _ArrayField(lambda f: (f.out_features,), nullable=True)

    __post_init__ = _check_arrays


@dataclass(frozen=True)
class AffineParams:
    """Per-channel scale and shift (inference-time batch norm stand-in)."""

    channels: int
    scale: np.ndarray | None = _ArrayField(lambda a: (a.channels,))
    shift: np.ndarray | None = _ArrayField(lambda a: (a.channels,))

    __post_init__ = _check_arrays


@dataclass
class LayerSpec:
    id: str
    kind: str
    stage: str | None = None
    input: str | None = None  # defaults to the previous layer
    source: str | None = None  # second operand of `add`
    conv: ConvWeights | None = None
    pool: PoolParams | None = None
    fc: FcParams | None = None
    affine: AffineParams | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ShapeError(f"layer {self.id}: unknown kind {self.kind!r}")


@dataclass
class NetworkSpec:
    name: str
    input_shape: tuple[int, int, int]  # C x H x W
    layers: list[LayerSpec]

    def __post_init__(self):
        self.input_shape = tuple(int(v) for v in self.input_shape)
        seen = set()
        for layer in self.layers:
            if layer.id in seen:
                raise ShapeError(f"duplicate layer id {layer.id!r}")
            seen.add(layer.id)

    def layer(self, layer_id: str) -> LayerSpec:
        for layer in self.layers:
            if layer.id == layer_id:
                return layer
        raise KeyError(f"no layer named {layer_id!r}")

    def conv_layers(self) -> list[LayerSpec]:
        return [l for l in self.layers if l.kind == "conv"]


# Per-kind rules, each run by ``_run`` (see the module docstring). Shape:
# (layer, one sample's input shape, earlier shapes) -> one sample's output
# shape, checked. Scratch: (layer, one sample's input shape, one sample's
# output shape) -> the scratch arrays of one share. Forward: (layer, a
# share's input batch, its batch of what an add reads as ``source``, else
# None, its output batch, *its scratch), writing the output batch. FLOPs:
# (layer, output shape) -> int, for the kinds that carry FLOPs.


def _spatial_shape(layer: LayerSpec, c: int, h_out: int, w_out: int) -> tuple:
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"layer {layer.id}: degenerate output {h_out}x{w_out}")
    return (c, h_out, w_out)


def _chw(layer: LayerSpec, in_shape: tuple) -> tuple:
    if len(in_shape) != 3:
        raise ShapeError(f"layer {layer.id}: needs a C x H x W input, got shape {in_shape}")
    return in_shape


def _conv_shape(layer, in_shape, shapes):
    conv = layer.conv
    c, h, w = _chw(layer, in_shape)
    if c != conv.c_in:
        raise ShapeError(f"layer {layer.id}: expects {conv.c_in} channels, got {c}")
    return _spatial_shape(layer, conv.c_out, *conv.out_size(h, w))


def _pool_shape(layer, in_shape, shapes):
    c, h, w = _chw(layer, in_shape)
    return _spatial_shape(layer, c, *layer.pool.out_size(h, w))


def _affine_shape(layer, in_shape, shapes):
    if _chw(layer, in_shape)[0] != layer.affine.channels:
        raise ShapeError(
            f"layer {layer.id}: affine over {layer.affine.channels} channels, "
            f"input has {in_shape[0]}"
        )
    return in_shape


def _add_shape(layer, in_shape, shapes):
    if layer.source is None or layer.source not in shapes:
        raise ShapeError(f"layer {layer.id}: add source must be an earlier layer")
    if shapes[layer.source] != in_shape:
        raise ShapeError(
            f"layer {layer.id}: add shapes differ {in_shape} vs {shapes[layer.source]}"
        )
    return in_shape


def _fc_shape(layer, in_shape, shapes):
    n_in = int(np.prod(in_shape))
    if n_in != layer.fc.in_features:
        raise ShapeError(
            f"layer {layer.id}: fc expects {layer.fc.in_features} features, got {n_in}"
        )
    return (layer.fc.out_features,)


PATCH_BYTES = 1 << 20  # the byte budget of one patch block; see the module docstring


def _patch_blocks(groups: int, rows: int, h_out: int, w_out: int):
    """The blocks a conv builds its patches in, as (first group, end group,
    first output row, end output row): runs of whole groups when one group's
    patches fit in PATCH_BYTES, else one group over runs of output rows."""
    group_bytes = rows * h_out * w_out * 8
    if group_bytes <= PATCH_BYTES:
        chunk = PATCH_BYTES // group_bytes
        for g in range(0, groups, chunk):
            yield g, min(g + chunk, groups), 0, h_out
        return
    # A tile is at least as wide (R * W_out columns) as it is deep (rows).
    tile = max(-(-rows // w_out), PATCH_BYTES // (rows * w_out * 8))
    for g in range(groups):
        for r in range(0, h_out, tile):
            yield g, g + 1, r, min(r + tile, h_out)


def _conv_forward(layer, x, other, out, padded=None, tile=None):
    conv = layer.conv
    groups, k, stride, pad = conv.groups, conv.k, conv.stride, conv.pad
    per_in, per_out = conv.c_in // groups, conv.c_out // groups
    n, _, h_out, w_out = out.shape
    rows = per_in * k * k
    weights = conv.weights.reshape(groups, per_out, rows)
    grouped = out.reshape(n, groups, per_out, h_out, w_out)
    if tile is None:
        # A 1x1, stride-1, unpadded conv (``_conv_scratch`` gives it no
        # tile): the patches are the input itself, every group in one product.
        patches = x.reshape(n, groups, rows, h_out * w_out)
        np.matmul(weights, patches, out=grouped.reshape(n, groups, per_out, -1))
    else:
        blocks = list(_patch_blocks(groups, rows, h_out, w_out))
        for sample, sample_out in zip(x, grouped):
            sample = linalg._pad_into(sample, padded, pad)
            for g, end, r, r_end in blocks:
                patches = linalg._fill_tile(tile, sample[g * per_in : end * per_in], k, stride,
                                            r, r_end)
                # Output rows r..r_end of each group are one run of memory.
                block_out = sample_out[g:end, :, r:r_end].reshape(end - g, per_out, -1, copy=False)
                np.matmul(weights[g:end], patches.reshape(end - g, rows, -1), out=block_out)
    if conv.bias is not None:
        out += conv.bias[:, None, None]


def _conv_scratch(layer, in_shape, out_shape):
    """One padded sample and one tile of the largest patch block, or nothing
    for a conv that reads its input as the patches."""
    conv = layer.conv
    if (conv.k, conv.stride, conv.pad) == (1, 1, 0):
        return ()
    rows = conv.c_in // conv.groups * conv.k ** 2
    tile_values = max((end - g) * rows * (r_end - r) * out_shape[2]
                      for g, end, r, r_end in _patch_blocks(conv.groups, rows, *out_shape[1:]))
    return linalg._pad_buffer(in_shape, conv.pad, 0.0), np.empty(tile_values)


def _pool_rules(fill: float, fold: Callable) -> tuple[Callable, Callable]:
    """The forward and scratch rules of a pool padded with ``fill``."""
    def forward(layer, x, other, out, padded):
        p = layer.pool
        for sample, sample_out in zip(x, out):
            views = linalg._window_views(
                linalg._pad_into(sample, padded, p.pad), p.k, p.stride, 0, out.shape[2]
            )
            np.copyto(sample_out, next(views))
            for view in views:
                fold(sample_out, view, out=sample_out)
        if fold is np.add:  # the mean of the k*k values, divided as np.mean does
            out /= p.k ** 2

    return forward, lambda layer, in_shape, out_shape: (
        linalg._pad_buffer(in_shape, layer.pool.pad, fill),)


def _fc_forward(layer, x, other, out):
    # A product per sample: one over the batch would round differently per N.
    np.matmul(layer.fc.weights, x.reshape(len(x), -1, 1), out=out[..., None])
    if layer.fc.bias is not None:
        out += layer.fc.bias


def _affine_forward(layer, x, other, out):
    np.multiply(x, layer.affine.scale[:, None, None], out=out)
    out += layer.affine.shift[:, None, None]


@dataclass(frozen=True)
class _Kind:
    """What one layer kind does. ``param`` is the LayerSpec attribute
    carrying the kind's parameters and their record class, or None."""

    param: tuple[str, type] | None
    shape: Callable
    forward: Callable
    scratch: Callable = lambda layer, in_shape, out_shape: ()
    flops: Callable | None = None
    in_place: bool = False  # elementwise: its output may be its input array


_KINDS = {
    "conv": _Kind(
        ("conv", ConvWeights), _conv_shape, _conv_forward, _conv_scratch,
        lambda layer, shape: flops_of_layer(layer.conv, shape[1], shape[2]),
    ),
    "relu": _Kind(None, lambda layer, s, shapes: s,
                  lambda layer, x, other, out: np.maximum(x, 0.0, out=out), in_place=True),
    "maxpool": _Kind(("pool", PoolParams), _pool_shape, *_pool_rules(-np.inf, np.maximum)),
    "avgpool": _Kind(("pool", PoolParams), _pool_shape, *_pool_rules(0.0, np.add)),
    "add": _Kind(None, _add_shape, lambda layer, x, other, out: np.add(x, other, out=out),
                 in_place=True),
    "fc": _Kind(("fc", FcParams), _fc_shape, _fc_forward,
                flops=lambda layer, _: flops_of_fc(layer.fc)),
    "channel_affine": _Kind(("affine", AffineParams), _affine_shape, _affine_forward,
                            in_place=True),
}
# Kind -> (the LayerSpec attribute carrying its parameters, their class), or None.
LAYER_KINDS = {kind: rule.param for kind, rule in _KINDS.items()}


def layer_inputs(net: NetworkSpec) -> dict[str, str | None]:
    """The id of the layer each layer reads, in network order. An omitted
    ``input`` means the previous layer; None means the network input."""
    inputs: dict[str, str | None] = {}
    prev_id = None
    for layer in net.layers:
        inputs[layer.id] = layer.input if layer.input is not None else prev_id
        prev_id = layer.id
    return inputs


def propagate_shapes(net: NetworkSpec) -> dict[str, tuple]:
    """Output shape of every layer; raises (naming the layer) on mismatch.

    Shapes are (C, H, W) except after fc, which yields (features,).
    """
    shapes: dict[str, tuple] = {}
    for layer, in_id in zip(net.layers, layer_inputs(net).values()):
        if in_id is not None and in_id not in shapes:
            raise ShapeError(f"layer {layer.id}: input {in_id!r} not defined earlier")
        in_shape = net.input_shape if in_id is None else shapes[in_id]
        shapes[layer.id] = _KINDS[layer.kind].shape(layer, in_shape, shapes)
    return shapes


def _run(layer: LayerSpec, x: np.ndarray, other: np.ndarray | None = None,
         out: np.ndarray | None = None) -> np.ndarray:
    """``layer``'s output on the batch ``x`` (for an add, and the batch
    ``other`` of its ``source``), as the module docstring says, written into
    ``out`` if given (``x`` itself for an ``in_place`` kind), else into a
    new array. A shape the kind's rule rejects, or a required parameter
    array that is None, raises ShapeError naming the layer."""
    kind = _KINDS[layer.kind]
    in_shape, earlier = x.shape[1:], {} if other is None else {layer.source: other.shape[1:]}
    out_shape = kind.shape(layer, in_shape, earlier)
    if kind.param is not None:
        params = getattr(layer, kind.param[0])
        for name, _, nullable, _ in array_fields(params):
            if getattr(params, name) is None and not nullable:  # reads a Deferred array
                raise ShapeError(f"layer {layer.id}: no materialized {name}")
    if out is None:
        out = np.empty((len(x), *out_shape))
    linalg._on_every_cpu(
        len(x),
        lambda lo, hi, *scratch: kind.forward(
            layer, x[lo:hi], None if other is None else other[lo:hi], out[lo:hi], *scratch),
        lambda: kind.scratch(layer, in_shape, out_shape),
    )
    return out


def shared_prefix(a: NetworkSpec, b: NetworkSpec) -> int:
    """How many leading layers ``a`` and ``b`` share. A shared layer stands
    at the same position in both, with the same id, kind, input and source,
    and holds the same parameter record (``is``), so that it reads only
    shared layers and gives the same output in both on the same batch."""
    count = 0
    for x, y in zip(a.layers, b.layers):
        param = _KINDS[x.kind].param
        if ((x.id, x.kind, x.input, x.source) != (y.id, y.kind, y.input, y.source)
                or param is not None and getattr(x, param[0]) is not getattr(y, param[0])):
            break
        count += 1
    return count


class _Walk:
    """A walk of ``net`` over the (N, C, H, W) batch ``x``, paused between
    layers: the next layer's position in ``net.layers``, the live outputs,
    each dropped once the last layer reading it has run, and the ids of the
    live outputs the walk owns. ``to`` resumes it, and ``fork`` starts a walk
    of another network from where it is. The walk owns each output it
    allocates until ``to`` returns it, as input or output, or a fork shares
    it. An ``in_place`` kind writes its output into its input when the walk
    owns that input, the layer is its last reader, and ``to`` does not stop
    at the layer (``to`` returns its input). So no array that a caller of
    ``to`` or another walk holds is written. The caller may overwrite a
    returned output in place; later layers then read the new values.
    Batches are (N, features) after fc."""

    def __init__(self, net: NetworkSpec, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1:] != net.input_shape:
            raise ShapeError(f"input shape {x.shape[1:]} != network input {net.input_shape}")
        self.net, self.x, self.next, self.outputs, self.owned = net, x, 0, {}, set()
        self.inputs = layer_inputs(net)
        self.position = {layer.id: i for i, layer in enumerate(net.layers)}
        self.last_reader = {read: i for i, layer in enumerate(net.layers)
                            for read in (self.inputs[layer.id], layer.source)}

    def index(self, layer_id: str) -> int:
        """``layer_id``'s position in network order; ShapeError if the layer
        is unknown or the walk has passed it."""
        stop = self.position.get(layer_id)
        if stop is None or stop < self.next:
            reason = "not found in network order" if stop is None else "already passed by this walk"
            raise ShapeError(f"layer {layer_id!r} {reason}")
        return stop

    def to(self, layer_id: str) -> tuple[np.ndarray, np.ndarray]:
        """Run the layers through ``layer_id``, checked by ``index`` before
        any layer runs, and return its input and output batches."""
        stop = self.index(layer_id)
        for i in range(self.next, stop + 1):
            layer = self.net.layers[i]
            in_id = self.inputs[layer.id]
            value = self.x if in_id is None else self.outputs[in_id]
            in_place = (_KINDS[layer.kind].in_place and i < stop and in_id in self.owned
                        and self.last_reader[in_id] == i)
            out = self.outputs[layer.id] = _run(layer, value, self.outputs.get(layer.source),
                                                value if in_place else None)
            self.owned.add(layer.id)
            for read in (in_id, layer.source):
                if self.last_reader.get(read) == i:
                    self.outputs.pop(read, None)
                    self.owned.discard(read)
        self.next = stop + 1
        self.owned.difference_update((in_id, layer_id))
        return value, out

    def fork(self, net: NetworkSpec) -> _Walk:
        """A walk of ``net`` over the same batch that starts where this walk
        is, holding the live outputs that ``net`` reads later; neither walk
        owns them. ``net`` must share (``shared_prefix``) each layer this
        walk has run, else ShapeError, and read no output this walk has
        dropped, which no network ``decompose_network`` derives from this
        walk's network does."""
        if shared_prefix(self.net, net) < self.next:
            raise ShapeError(f"{net.name!r} does not share the {self.next} layers walked")
        fork = _Walk(net, self.x)
        fork.next = self.next
        fork.outputs = {read: out for read, out in self.outputs.items()
                        if fork.last_reader.get(read, -1) >= self.next}
        self.owned.difference_update(fork.outputs)
        return fork


def forward(net: NetworkSpec, x) -> np.ndarray:
    """Run the network on one C x H x W input and return the final output."""
    return _Walk(net, np.asarray(x)[None]).to(net.layers[-1].id)[1][0]


def response_rows(out: np.ndarray) -> np.ndarray:
    """A layer's output batch as (positions x channels) rows: sample-major,
    then output position in the column order of ``linalg._fill_tile``. The
    result is column-major: sums over it, such as the default ridge, depend
    on the memory order in their last bits."""
    return np.moveaxis(out, 1, 0).reshape(out.shape[1], -1).T


def flops_of_layer(conv: ConvWeights, out_h: int, out_w: int) -> int:
    """FLOPs of one conv layer: 2 * (c_in/groups) * k^2 * c_out * out_h * out_w."""
    return 2 * (conv.c_in // conv.groups) * conv.k * conv.k * conv.c_out * out_h * out_w


def flops_of_fc(fc: FcParams) -> int:
    return 2 * fc.in_features * fc.out_features


def network_flops(net: NetworkSpec) -> tuple[int, dict[str, int]]:
    """Total FLOPs and a per-layer breakdown (conv and fc layers only)."""
    shapes = propagate_shapes(net)
    per_layer: dict[str, int] = {}
    for layer in net.layers:
        rule = _KINDS[layer.kind].flops
        if rule is not None:
            per_layer[layer.id] = rule(layer, shapes[layer.id])
    return sum(per_layer.values()), per_layer


def flops_ratio_fraction(c_out: int, k: int, n: int) -> Fraction:
    """Exact decomposed-to-original FLOPs ratio n/c_out + 1/k^2 as a Fraction."""
    return Fraction(n, c_out) + Fraction(1, k * k)

