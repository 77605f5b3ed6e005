"""Feed-forward CNN representation, forward execution and FLOPs accounting.

A network is an ordered list of layers forming a DAG with one input and one
output. Each layer consumes the previous layer's output unless it names an
explicit ``input``; ``add`` layers additionally read a named ``source``.
Supported kinds: conv, relu, maxpool, avgpool, add, fc, channel_affine.

FLOPs convention: two operations per multiply-accumulate, bias and
activations excluded. Only conv and fc layers carry FLOPs.

Specs are shared, not copied: a network derived from another keeps the
unchanged parameter arrays of its input, and no code writes to an array in
place.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
import warnings

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

        Row ordering matches im2col columns (channel-major, then kernel row,
        then kernel column).
        """
        if self.groups != 1:
            raise ShapeError("weight_matrix is defined for groups == 1")
        if self.weights is None:
            raise ShapeError("layer has no materialized weights")
        return self.weights.reshape(self.c_out, -1).T

    def group_matrix(self, g: int) -> np.ndarray:
        """Matrix form ((c_in/groups)*k^2 x c_out/groups) of one filter group."""
        if self.weights is None:
            raise ShapeError("layer has no materialized weights")
        per_group = self.c_out // self.groups
        block = self.weights[g * per_group : (g + 1) * per_group]
        return block.reshape(per_group, -1).T


@dataclass
class PoolParams(_Window):
    k: int
    stride: int
    pad: int = 0

    def __post_init__(self):
        self._check_window()


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


# Per-kind rules. Shape: (layer, input shape, earlier shapes) -> output shape.
# Forward: (layer, input, the output an add reads as ``source``, else None)
# -> output. FLOPs: (layer, output shape) -> int, for the kinds that carry
# FLOPs.


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


def _conv_forward(layer, x, other):
    conv = layer.conv
    if x.shape[0] != conv.c_in:
        raise ShapeError(
            f"layer {layer.id}: expects {conv.c_in} channels, got {x.shape[0]}"
        )
    per_group = conv.c_in // conv.groups
    pieces = [
        linalg.im2col(x[g * per_group : (g + 1) * per_group], conv.k, conv.stride, conv.pad)
        @ conv.group_matrix(g)
        for g in range(conv.groups)
    ]
    resp = pieces[0] if conv.groups == 1 else np.hstack(pieces)
    if conv.bias is not None:
        resp = resp + conv.bias
    return resp.T.reshape(conv.c_out, *conv.out_size(*x.shape[1:]))


def _pool_windows(pool: PoolParams, x: np.ndarray, fill: float) -> np.ndarray:
    c, h, w = x.shape
    h_out, w_out = pool.out_size(h, w)
    padded = np.full((c, h + 2 * pool.pad, w + 2 * pool.pad), fill)
    padded[:, pool.pad : pool.pad + h, pool.pad : pool.pad + w] = x
    windows = np.empty((pool.k * pool.k, c, h_out, w_out))
    idx = 0
    for ki in range(pool.k):
        for kj in range(pool.k):
            windows[idx] = padded[
                :,
                ki : ki + pool.stride * h_out : pool.stride,
                kj : kj + pool.stride * w_out : pool.stride,
            ]
            idx += 1
    return windows


def _add_forward(layer, x, other):
    if other is None or other.shape != x.shape:
        raise ShapeError(f"layer {layer.id}: bad add source {layer.source!r}")
    return x + other


def _fc_forward(layer, x, other):
    out = layer.fc.weights @ x.reshape(-1)
    if layer.fc.bias is not None:
        out = out + layer.fc.bias
    return out


def _affine_forward(layer, x, other):
    aff = layer.affine
    return x * aff.scale[:, None, None] + aff.shift[:, None, None]


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
    "maxpool": _Kind(
        "pool", _pool_shape,
        lambda layer, x, other: _pool_windows(layer.pool, x, -np.inf).max(axis=0),
    ),
    "avgpool": _Kind(
        "pool", _pool_shape,
        lambda layer, x, other: _pool_windows(layer.pool, x, 0.0).mean(axis=0),
    ),
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


def _walk(net: NetworkSpec, xs: list):
    """Run the network on a list of C x H x W float64 inputs in lockstep,
    layer by layer. Yields each layer, the list of its inputs and the list of
    its outputs, one entry per sample, in network order.

    The caller may replace the entries of the yielded output list before it
    resumes the walk; later layers then read the replacements. An output is
    dropped once the last layer reading it has run.
    """
    for x in xs:
        if x.shape != net.input_shape:
            raise ShapeError(f"input shape {x.shape} != network input {net.input_shape}")
    inputs = layer_inputs(net)
    last_reader: dict[str, int] = {}
    for i, layer in enumerate(net.layers):
        for read in (inputs[layer.id], layer.source):
            last_reader[read] = i
    outputs: dict[str, list[np.ndarray]] = {}
    for i, layer in enumerate(net.layers):
        in_id = inputs[layer.id]
        values = xs if in_id is None else outputs[in_id]
        others = outputs.get(layer.source, [None] * len(xs))
        rule = _KINDS[layer.kind].forward
        outputs[layer.id] = [rule(layer, x, other) for x, other in zip(values, others)]
        yield layer, values, outputs[layer.id]
        for read in (in_id, layer.source):
            if last_reader.get(read) == i:
                outputs.pop(read, None)


def forward(net: NetworkSpec, x) -> np.ndarray:
    """Run the network on one C x H x W input and return the final output."""
    for _, _, (out,) in _walk(net, [np.asarray(x, dtype=np.float64)]):
        pass
    return out


def response_rows(outputs: list) -> np.ndarray:
    """Stack per-sample layer outputs as (positions x channels) rows aligned
    with im2col row order: sample-major, then spatial position."""
    return np.vstack(
        [out.reshape(out.shape[0], -1).T if out.ndim == 3 else out[None, :] for out in outputs]
    )


def stack_taps(net: NetworkSpec, samples, taps) -> dict[str, np.ndarray]:
    """Run each sample up to the last layer in ``taps`` and stack, per tapped
    layer, its output as ``response_rows``. Samples are walked one at a time,
    so only one sample's activations are live at once."""
    taps = set(taps)
    last = next(layer.id for layer in reversed(net.layers) if layer.id in taps)
    outs: dict[str, list] = {tap: [] for tap in taps}
    for sample in samples:
        for layer, _, (out,) in _walk(net, [np.asarray(sample, dtype=np.float64)]):
            if layer.id in taps:
                outs[layer.id].append(out)
            if layer.id == last:
                break
    return {tap: response_rows(o) for tap, o in outs.items()}


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


def flops_ratio_decomposed(c_in: int, c_out: int, k: int, n: int) -> float:
    """FLOPs ratio of the (group conv, pointwise) pair relative to the
    original layer. Equals flops(D) + flops(P) over flops(original) exactly.

    Warns when the ratio is >= 1 (the decomposition would not compress).
    """
    if not 1 <= n <= c_in:
        raise ValueError(f"n must be in [1, c_in={c_in}], got {n}")
    if c_in % n:
        raise ValueError(f"n={n} must divide c_in={c_in}")
    ratio = flops_ratio_fraction(c_out, k, n)
    if ratio >= 1:
        warnings.warn(
            f"decomposition with n={n}, c_out={c_out}, k={k} is non-compressing "
            f"(ratio {float(ratio):.3f})",
            UserWarning,
            stacklevel=2,
        )
    return float(ratio)
