"""Decompose a regular convolution into a filter-group + pointwise pair.

The weight matrix W of an ungrouped k x k convolution, in im2col ordering,
has shape (c_in * k^2) x c_out. Splitting its rows into c_in / n channel
blocks gives sub-matrices W_i of shape (n * k^2) x c_out; truncating each to
its best rank-n approximation D_i @ P_i^T and assembling the D_i block-
diagonally yields

    W  ~=  D @ P,

where D is realized by a group convolution (c_in filters of n x k x k,
c_in / n groups, original stride and padding) and P by a 1 x 1 convolution
(c_in -> c_out, stride 1, no padding) that also carries the original bias.
No nonlinearity sits between the two layers.

The c_in / n blocks of a layer are factored as one (c_in / n) x (n * k^2) x
c_out stack in a single SVD call; each block's factors, and so the
serialized model, are byte-identical to those of a separate SVD per block.

Singular values are absorbed into D (D_i = U_i * sigma, P_i = V_i); this
split is fixed so serialized decompositions stay portable and P stays
well conditioned for response reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import DecompositionError, ModelFormatError, NumericalError, ShapeError
from .model import ConvWeights, LayerSpec, NetworkSpec, layer_inputs


def _divisors(value: int) -> list[int]:
    return [d for d in range(1, value + 1) if value % d == 0]


def partition_blocks(w: ConvWeights, n: int) -> np.ndarray:
    """The layer's weight matrix as a stack of its c_in / n row blocks: a
    (c_in / n) x (n*k^2) x c_out view, no copy.

    Stacking the blocks vertically reproduces the weight matrix exactly.
    """
    if w.groups != 1:
        raise DecompositionError("only ungrouped layers can be partitioned")
    if w.weights is None:
        raise DecompositionError("layer has no materialized weights")
    if not 1 <= n <= w.c_in or w.c_in % n:
        raise DecompositionError(
            f"n={n} must divide c_in={w.c_in}; valid choices: {_divisors(w.c_in)}"
        )
    return w.weight_matrix().reshape(w.c_in // n, n * w.k * w.k, w.c_out)


@dataclass
class GroupDecomposition:
    """The (D, P) layer pair replacing one convolution.

    ``d_layer``: group conv, c_in -> c_in, kernel k, c_in/n groups, original
    stride/pad. ``p_layer``: 1x1 conv, c_in -> c_out, carrying the bias.
    ``block_truncation_errors[i]`` equals sqrt(sum of discarded sigma^2) for
    block i.
    """

    n: int
    d_layer: ConvWeights
    p_layer: ConvWeights
    block_truncation_errors: np.ndarray

    @property
    def total_truncation_error(self) -> float:
        return float(np.sqrt(np.sum(self.block_truncation_errors**2)))

    def d_matrix(self) -> np.ndarray:
        """Assembled block-diagonal D, shape (c_in * k^2) x c_in."""
        return group_conv_matrix(self.d_layer)

    def p_matrix(self) -> np.ndarray:
        """Assembled P, shape c_in x c_out."""
        return self.p_layer.weight_matrix()

    def composed_matrix(self) -> np.ndarray:
        """D @ P, same shape as the original weight matrix."""
        return self.d_matrix() @ self.p_matrix()


def decompose_layer(
    w: ConvWeights, n: int, force_pointwise: bool = False
) -> GroupDecomposition:
    """Best rank-n per-block factorization of an ungrouped convolution.

    1x1 layers are rejected by default: with k == 1 the structure reduces to
    a plain channel SVD and the FLOPs ratio n/c_out + 1 never compresses.
    Pass ``force_pointwise=True`` to decompose them anyway.
    """
    if w.k == 1 and not force_pointwise:
        raise DecompositionError(
            "refusing to decompose a 1x1 convolution (no compression); "
            "pass force_pointwise=True to override"
        )
    res = linalg.svd(partition_blocks(w, n))
    k, c_in, c_out = w.k, w.c_in, w.c_out
    kept = min(n, res.rank)
    # Zeros beyond `kept` pad blocks whose rank bound min(n*k^2, c_out) is
    # below n. Column m of block i of d is the filter for output channel i*n + m.
    d = np.zeros((c_in // n, n * k * k, n))
    d[..., :kept] = res.u[..., :kept] * res.singular_values[:, None, :kept]
    p = np.zeros((c_in // n, n, c_out))
    p[:, :kept] = res.vt[:, :kept]
    errors = np.sqrt(np.sum(res.singular_values[:, n:] ** 2, axis=1))

    d_layer = ConvWeights(
        c_in=c_in,
        c_out=c_in,
        k=k,
        groups=c_in // n,
        stride=w.stride,
        pad=w.pad,
        weights=d.transpose(0, 2, 1).reshape(c_in, n, k, k),
        bias=None,
    )
    p_layer = ConvWeights(
        c_in=c_in,
        c_out=c_out,
        k=1,
        groups=1,
        stride=1,
        pad=0,
        weights=p.reshape(c_in, c_out).T.reshape(c_out, c_in, 1, 1),
        bias=None if w.bias is None else w.bias.copy(),
    )
    return GroupDecomposition(
        n=n,
        d_layer=d_layer,
        p_layer=p_layer,
        block_truncation_errors=errors,
    )


def group_conv_matrix(conv: ConvWeights) -> np.ndarray:
    """Block-diagonal matrix form of a group convolution, shape
    (c_in * k^2) x c_out; the off-block entries are structurally zero."""
    if conv.weights is None:
        raise DecompositionError("layer has no materialized weights")
    g, per_out = conv.groups, conv.c_out // conv.groups
    rows = conv.c_in // g * conv.k * conv.k
    out = np.zeros((g * rows, conv.c_out))
    # Group i's filters are block (i, i) of the (G, rows, G, per_out) view.
    diagonal = np.arange(g)
    out.reshape(g, rows, g, per_out)[diagonal, :, diagonal] = (
        conv.weights.reshape(g, per_out, rows).transpose(0, 2, 1)
    )
    return out


def decomposed_jacobian_rank(c_in: int, c_out: int, n: int) -> int:
    """Rank of the assembled D @ P with full-rank blocks: min(c_in, c_out),
    independent of n."""
    if c_in < 1 or c_out < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    return min(c_in, c_out)


def d_layer_id(layer_id: str) -> str:
    return f"{layer_id}.d"


def p_layer_id(layer_id: str) -> str:
    return f"{layer_id}.p"


def decomposed_pairs(net: NetworkSpec) -> list[tuple[str, LayerSpec, LayerSpec]]:
    """(source id, D layer, P layer) for every decomposed conv, in network
    order, found by the ``decomposed_from`` provenance both layers carry. D
    must be a conv and P a 1x1 ungrouped conv reading all of D's channels; a
    ``rank_n`` must be D's c_in / groups. Anything else is a ModelFormatError."""
    found: dict[str, list[LayerSpec]] = {}
    for layer in net.layers:
        src = layer.meta.get("decomposed_from")
        if src:
            found.setdefault(src, []).append(layer)
    inputs = layer_inputs(net)
    for src, layers in found.items():
        if len(layers) != 2:
            raise ModelFormatError(
                f"{len(layers)} layers carry the provenance decomposed_from={src!r}"
            )
        d, p = layers
        n = d.conv.c_in // d.conv.groups if d.kind == "conv" else None
        if not (n and p.kind == "conv" and inputs[p.id] == d.id and p.conv.k == 1
                and p.conv.groups == 1 and p.conv.c_in == d.conv.c_out
                and all(layer.meta.get("rank_n", n) == n for layer in layers)):
            raise ModelFormatError(
                f"decomposed_from={src!r}: {d.id!r}, {p.id!r} are not a conv D and a 1x1 "
                "ungrouped conv reading all of D's channels, with rank_n = D's c_in / groups"
            )
    return [(src, d, p) for src, (d, p) in found.items()]


def decompose_network(
    net: NetworkSpec,
    layer_ranks: dict[str, int],
    force_pointwise: bool = False,
) -> tuple[NetworkSpec, dict[str, GroupDecomposition]]:
    """Replace every conv named in ``layer_ranks`` by its (D, P) pair.

    The D layer keeps the original layer's stage and input; the P layer is
    named ``<id>.p`` and all later references to the original id are
    redirected to it. Provenance (source id and n) is recorded on both
    layers. Every other layer keeps its parameter records and arrays.
    """
    ids = {l.id for l in net.layers}
    missing = [lid for lid in layer_ranks if lid not in ids]
    if missing:
        raise DecompositionError(f"layers not in network: {missing}")
    not_conv = [l.id for l in net.layers if l.id in layer_ranks and l.kind != "conv"]
    if not_conv:
        raise DecompositionError(f"planned layers are not convolutions: {not_conv}")
    planned = [l.id for l in net.layers if l.id in layer_ranks]
    taken = ids - set(planned)
    for lid in planned:
        for new_id in (d_layer_id(lid), p_layer_id(lid)):
            if new_id in taken:
                raise DecompositionError(
                    f"layer {lid}: its decomposed layer id {new_id!r} is already taken"
                )
            taken.add(new_id)

    new_layers: list[LayerSpec] = []
    decompositions: dict[str, GroupDecomposition] = {}
    renamed: dict[str, str] = {}

    def remap(ref: str | None) -> str | None:
        return renamed.get(ref, ref) if ref is not None else None

    for layer in net.layers:
        layer = replace(layer, input=remap(layer.input), source=remap(layer.source))
        if layer.id not in layer_ranks:
            new_layers.append(layer)
            continue
        n = layer_ranks[layer.id]
        try:
            decomp = decompose_layer(layer.conv, n, force_pointwise=force_pointwise)
        except (DecompositionError, ShapeError, NumericalError) as exc:
            raise type(exc)(f"layer {layer.id}: {exc}") from exc
        decompositions[layer.id] = decomp
        provenance = {"decomposed_from": layer.id, "rank_n": n}
        new_layers.append(
            LayerSpec(
                id=d_layer_id(layer.id),
                kind="conv",
                stage=layer.stage,
                input=layer.input,
                conv=decomp.d_layer,
                meta=dict(provenance),
            )
        )
        new_layers.append(
            LayerSpec(
                id=p_layer_id(layer.id),
                kind="conv",
                stage=layer.stage,
                conv=decomp.p_layer,
                meta=dict(provenance),
            )
        )
        renamed[layer.id] = p_layer_id(layer.id)

    return (
        NetworkSpec(name=net.name, input_shape=net.input_shape, layers=new_layers),
        decompositions,
    )
