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
the k^2 views of ``linalg.window_views`` into its output with np.maximum or
np.add, in kernel row-major order; an average then divides by k^2. No
window array is built.

Specs are shared, not copied: a network derived from another keeps the
unchanged parameter arrays of its input, and no code writes in place to an
array it did not allocate, except to a ``_walk`` output as ``_walk`` allows.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import ShapeError


def _array(shape: Callable):
    """A parameter array field; ``shape`` maps the record to the array's
    shape. The model file stores these fields in the weight blob."""
    return field(default=None, metadata={"shape": shape})


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


@dataclass
class ConvWeights(_Window):
    """Weights and geometry of one convolutional layer.

    ``weights`` has shape (c_out, c_in // groups, k, k) and may be None for
    shape-only networks (FLOPs counting without materialized parameters).
    """

    c_in: int
    c_out: int
    k: int
    groups: int = 1
    stride: int = 1
    pad: int = 0
    weights: np.ndarray | None = _array(lambda c: (c.c_out, c.c_in // c.groups, c.k, c.k))
    bias: np.ndarray | None = _array(lambda c: (c.c_out,))

    def __post_init__(self):
        if self.c_in < 1 or self.c_out < 1 or self.k < 1:
            raise ShapeError("conv dimensions must be positive")
        self._check_window()
        if self.groups < 1 or self.c_in % self.groups or self.c_out % self.groups:
            raise ShapeError(
                f"groups={self.groups} must divide c_in={self.c_in} and c_out={self.c_out}"
            )
        expected = (self.c_out, self.c_in // self.groups, self.k, self.k)
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if self.weights.shape != expected:
                raise ShapeError(
                    f"conv weights shape {self.weights.shape} != expected {expected}"
                )
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)
            if self.bias.shape != (self.c_out,):
                raise ShapeError(f"bias shape {self.bias.shape} != ({self.c_out},)")

    def weight_matrix(self) -> np.ndarray:
        """The (c_in * k^2) x c_out matrix form of an ungrouped layer.

        Row ordering matches the patch rows of ``linalg.patch_tile``
        (channel-major, then kernel row, then kernel column).
        """
        if self.groups != 1:
            raise ShapeError("weight_matrix is defined for groups == 1")
        if self.weights is None:
            raise ShapeError("layer has no materialized weights")
        return self.weights.reshape(self.c_out, -1).T


@dataclass
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


@dataclass
class FcParams:
    in_features: int
    out_features: int
    weights: np.ndarray | None = _array(lambda f: (f.out_features, f.in_features))
    bias: np.ndarray | None = _array(lambda f: (f.out_features,))


@dataclass
class AffineParams:
    """Per-channel scale and shift (inference-time batch norm stand-in)."""

    channels: int
    scale: np.ndarray | None = _array(lambda a: (a.channels,))
    shift: np.ndarray | None = _array(lambda a: (a.channels,))


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


# Per-kind rules. Shape: (layer, one sample's input shape, earlier shapes)
# -> one sample's output shape. Forward: (layer, input batch, the output
# batch an add reads as ``source``, else None) -> output batch. FLOPs:
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


def _conv_forward(layer, x, other=None):
    conv = layer.conv
    if x.shape[1] != conv.c_in:
        raise ShapeError(
            f"layer {layer.id}: expects {conv.c_in} channels, got {x.shape[1]}"
        )
    if conv.weights is None:
        raise ShapeError(f"layer {layer.id}: no materialized weights")
    groups, k, stride, pad = conv.groups, conv.k, conv.stride, conv.pad
    per_in, per_out = conv.c_in // groups, conv.c_out // groups
    c_out, h_out, w_out = _spatial_shape(layer, conv.c_out, *conv.out_size(*x.shape[2:]))
    rows = per_in * k * k
    weights = conv.weights.reshape(groups, per_out, rows)
    out = np.empty((len(x), groups, per_out, h_out, w_out))
    if (k, stride, pad) == (1, 1, 0):
        # The patches are the input itself: every group in one product.
        patches = x.reshape(len(x), groups, rows, h_out * w_out)
        np.matmul(weights, patches, out=out.reshape(len(x), groups, per_out, -1))
    else:
        blocks = list(_patch_blocks(groups, rows, h_out, w_out))
        for sample, sample_out in zip(x, out):
            padded = linalg.pad_map(sample, pad)
            for g, end, r, r_end in blocks:
                patches = linalg.patch_tile(padded[g * per_in : end * per_in], k, stride, r, r_end)
                # Output rows r..r_end of each group are one run of memory.
                block_out = sample_out[g:end, :, r:r_end].reshape(end - g, per_out, -1, copy=False)
                np.matmul(weights[g:end], patches.reshape(end - g, rows, -1), out=block_out)
    out = out.reshape(len(x), c_out, h_out, w_out)
    if conv.bias is not None:
        out += conv.bias[:, None, None]
    return out


def _pool_forward(fill: float, fold: Callable) -> Callable:
    def pool_sample(p: PoolParams, sample: np.ndarray, out: np.ndarray) -> None:
        # The views hold the padded sample, which is freed on return: one
        # padded sample is live at a time.
        views = linalg.window_views(
            linalg.pad_map(sample, p.pad, fill), p.k, p.stride, 0, out.shape[1]
        )
        np.copyto(out, next(views))
        for view in views:
            fold(out, view, out=out)

    def rule(layer, x, other):
        out = np.empty((len(x), *_pool_shape(layer, x.shape[1:], None)))
        for sample, sample_out in zip(x, out):
            pool_sample(layer.pool, sample, sample_out)
        if fold is np.add:  # the mean of the k*k values, divided as np.mean does
            out /= layer.pool.k ** 2
        return out

    return rule


def _add_forward(layer, x, other):
    if other is None or other.shape != x.shape:
        raise ShapeError(f"layer {layer.id}: bad add source {layer.source!r}")
    return x + other


def _fc_forward(layer, x, other):
    # A product per sample: one over the batch would round differently per N.
    out = (layer.fc.weights @ x.reshape(len(x), -1, 1))[..., 0]
    if layer.fc.bias is not None:
        out = out + layer.fc.bias
    return out


def _affine_forward(layer, x, other):
    aff = layer.affine
    out = x * aff.scale[:, None, None]
    out += aff.shift[:, None, None]  # in place: no second batch-sized temporary
    return out


@dataclass(frozen=True)
class _Kind:
    """What one layer kind does. ``param`` names the LayerSpec attribute
    carrying the kind's parameters."""

    param: str | None
    shape: Callable
    forward: Callable
    flops: Callable | None = None


_KINDS = {
    "conv": _Kind(
        "conv", _conv_shape, _conv_forward,
        lambda layer, shape: flops_of_layer(layer.conv, shape[1], shape[2]),
    ),
    "relu": _Kind(None, lambda layer, s, shapes: s, lambda layer, x, other: np.maximum(x, 0.0)),
    "maxpool": _Kind("pool", _pool_shape, _pool_forward(-np.inf, np.maximum)),
    "avgpool": _Kind("pool", _pool_shape, _pool_forward(0.0, np.add)),
    "add": _Kind(None, _add_shape, _add_forward),
    "fc": _Kind("fc", _fc_shape, _fc_forward, lambda layer, shape: flops_of_fc(layer.fc)),
    "channel_affine": _Kind("affine", _affine_shape, _affine_forward),
}
# Kind -> the LayerSpec attribute carrying its parameters (None: no parameters).
LAYER_KINDS = {kind: rule.param for kind, rule in _KINDS.items()}
PARAM_TYPES = {"conv": ConvWeights, "pool": PoolParams, "fc": FcParams, "affine": AffineParams}


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


def _walk(net: NetworkSpec, x):
    """Run the network on an (N, C, H, W) batch, layer by layer, and yield
    each layer, its input batch and its output batch, in network order.
    Batches are (N, features) after fc, and each conv patch matrix is one
    sample's (see the module docstring).

    The caller may overwrite the yielded output array in place before it
    resumes the walk; later layers then read the new values. An output is
    dropped once the last layer reading it has run.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4 or x.shape[1:] != net.input_shape:
        raise ShapeError(f"input shape {x.shape[1:]} != network input {net.input_shape}")
    inputs = layer_inputs(net)
    last_reader: dict[str, int] = {}
    for i, layer in enumerate(net.layers):
        for read in (inputs[layer.id], layer.source):
            last_reader[read] = i
    outputs: dict[str, np.ndarray] = {}
    for i, layer in enumerate(net.layers):
        in_id = inputs[layer.id]
        value = x if in_id is None else outputs[in_id]
        outputs[layer.id] = _KINDS[layer.kind].forward(layer, value, outputs.get(layer.source))
        yield layer, value, outputs[layer.id]
        for read in (in_id, layer.source):
            if last_reader.get(read) == i:
                outputs.pop(read, None)


def forward(net: NetworkSpec, x) -> np.ndarray:
    """Run the network on one C x H x W input and return the final output."""
    for _, _, out in _walk(net, np.asarray(x)[None]):
        pass
    return out[0]


def response_rows(out: np.ndarray) -> np.ndarray:
    """A layer's output batch as (positions x channels) rows in im2col row
    order (sample-major, then position), column-major: sums over it, such as
    the default ridge, depend on the memory order in their last bits."""
    return np.moveaxis(out, 1, 0).reshape(out.shape[1], -1).T


def stack_taps(net: NetworkSpec, samples, taps) -> dict[str, np.ndarray]:
    """Run the (N, C, H, W) batch ``samples`` up to the last layer in
    ``taps`` and return, per tapped layer, its output as ``response_rows``."""
    taps = set(taps)
    last = next(layer.id for layer in reversed(net.layers) if layer.id in taps)
    rows: dict[str, np.ndarray] = {}
    for layer, _, out in _walk(net, samples):
        if layer.id in taps:
            rows[layer.id] = response_rows(out)
        if layer.id == last:
            return rows


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

