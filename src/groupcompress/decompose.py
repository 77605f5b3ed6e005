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
No nonlinearity sits between the two layers. ``pair_layers`` is the one
definition of this pair's geometry: the decomposer fills its weights in,
plan prediction counts its FLOPs, and loaded pairs are checked against it.

The c_in / n blocks of a layer form one (c_in / n) x (n * k^2) x c_out
stack. It is factored on every usable CPU (``linalg._on_every_cpu``), one
contiguous part of the blocks per CPU. Each part writes its own rows of the
layer's D, P and truncation-error arrays, which are allocated in their
final layout. A block's rank-n factors come from the eigendecomposition of
its smaller Gram matrix (``linalg._leading_factors``), with the same bits
in any part, so the serialized model is the same whatever the CPU count,
and no singular triplet that the truncation drops is computed. Layers are
factored one after another in network order, so only one layer's factors
are in memory at a time. The whole stack is validated in the calling
thread before any part is factored.

Singular values are absorbed into D (D_i = U_i * sigma, P_i = V_i); this
split is fixed so serialized decompositions stay portable and P stays
well conditioned for response reconstruction.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import linalg
from .errors import DecompositionError, ModelFormatError, NumericalError, ShapeError
from .model import ConvWeights, LayerSpec, NetworkSpec, layer_inputs, read_arrays

if TYPE_CHECKING:
    from .reconstruct import ReconstructionFit


def divisors(value: int) -> list[int]:
    return [d for d in range(1, value + 1) if value % d == 0]


def pair_layers(conv: ConvWeights, n: int) -> tuple[ConvWeights, ConvWeights]:
    """The shape-only (D, P) pair that replaces ungrouped ``conv`` at rank n.

    This is the one definition of the pair. D: group conv, c_in -> c_in,
    conv's kernel, stride and padding, c_in / n groups. P: 1x1 conv, c_in ->
    c_out, stride 1, no padding. Their FLOPs are exactly n/c_out + 1/k^2 of
    conv's.
    """
    if conv.groups != 1:
        raise DecompositionError("only ungrouped layers can be decomposed")
    if not 1 <= n <= conv.c_in or conv.c_in % n:
        raise DecompositionError(
            f"n={n} must divide c_in={conv.c_in}; valid choices: {divisors(conv.c_in)}"
        )
    d = ConvWeights(conv.c_in, conv.c_in, conv.k, groups=conv.c_in // n,
                    stride=conv.stride, pad=conv.pad)
    return d, ConvWeights(conv.c_in, conv.c_out, 1)


def partition_blocks(w: ConvWeights, n: int) -> np.ndarray:
    """The layer's weight matrix as a stack of its c_in / n row blocks: a
    (c_in / n) x (n*k^2) x c_out view, no copy.

    Stacking the blocks vertically reproduces the weight matrix exactly.
    """
    pair_layers(w, n)
    return w.weight_matrix().reshape(w.c_in // n, n * w.k * w.k, w.c_out)


@dataclass
class GroupDecomposition:
    """The (D, P) layer pair replacing one convolution: ``pair_layers``
    with the factors filled in, and the original bias on ``p_layer``.
    ``block_truncation_errors[i]`` is sqrt(sum of discarded sigma^2) for
    block i, within sqrt(min(n * k^2, c_out) * eps) ||W_i||_F: on a rank-
    deficient block its sum of eigenvalues loses digits (2.2e-8 ||W_i||_F
    on a rank-1 18 x 32 block), on a block of full rank it is within 1e-9.
    """

    n: int
    d_layer: ConvWeights
    p_layer: ConvWeights
    block_truncation_errors: np.ndarray

    @property
    def total_truncation_error(self) -> float:
        return float(np.sqrt(np.sum(self.block_truncation_errors**2)))

    def composed_matrix(self) -> np.ndarray:
        """D @ P, same shape as the original weight matrix: D block-diagonal,
        (c_in * k^2) x c_in, P c_in x c_out (``ConvWeights.weight_matrix``)."""
        return self.d_layer.weight_matrix() @ self.p_layer.weight_matrix()


@dataclass(eq=False)
class DecomposedPair:
    """One decomposed conv: its id ``source`` and the (D, P) layers that
    replace it. ``block_truncation_errors`` are ``GroupDecomposition``'s
    (None for a pair read back from a saved model), and ``fit`` is its
    ``reconstruct.ReconstructionFit`` (None until reconstruction). ``p`` is
    the P layer as decomposed; a fit merges into a copy of it."""

    source: str
    d: LayerSpec
    p: LayerSpec
    block_truncation_errors: np.ndarray | None = None
    fit: ReconstructionFit | None = None

    @property
    def n(self) -> int:
        """The rank: D's input channels per group."""
        return self.d.conv.c_in // self.d.conv.groups

    @property
    def total_truncation_error(self) -> float:
        return float(np.sqrt(np.sum(self.block_truncation_errors**2)))


def _checked_stack(w: ConvWeights, n: int, force_pointwise: bool) -> np.ndarray:
    """The validated block stack of ``w`` at rank n, ready to factor."""
    if w.k == 1 and not force_pointwise:
        raise DecompositionError(
            "refusing to decompose a 1x1 convolution (no compression); "
            "pass force_pointwise=True to override"
        )
    return linalg._check_entries(partition_blocks(w, n), "a")


def decompose_layer(
    w: ConvWeights, n: int, force_pointwise: bool = False
) -> GroupDecomposition:
    """Best rank-n per-block factorization of an ungrouped convolution.

    1x1 layers are rejected by default: with k == 1 the structure reduces to
    a plain channel SVD and the FLOPs ratio n/c_out + 1 never compresses.
    Pass ``force_pointwise=True`` to decompose them anyway.
    """
    stack = _checked_stack(w, n, force_pointwise)
    k, c_in, c_out = w.k, w.c_in, w.c_out
    blocks = c_in // n
    d = np.zeros((c_in, n, k, k))
    p = np.zeros((c_out, c_in, 1, 1))
    errors = np.empty(blocks)
    # Views of block i's rows in the final layouts: d_rows[i, m] is the
    # filter of D's output channel i*n + m, p_rows[i, m] is P's input
    # channel i*n + m.
    d_rows = d.reshape(blocks, n, n * k * k)
    p_rows = p.reshape(c_out, blocks, n).transpose(1, 2, 0)

    def factor_part(lo: int, hi: int) -> None:
        d_part, p_part, errors[lo:hi] = linalg._leading_factors(stack[lo:hi], n)
        # Zeros beyond `kept` pad blocks whose rank bound min(n*k^2, c_out)
        # is below n.
        kept = p_part.shape[1]
        d_rows[lo:hi, :kept] = d_part.transpose(0, 2, 1)
        p_rows[lo:hi, :kept] = p_part

    linalg._on_every_cpu(blocks, factor_part)

    d_layer, p_layer = pair_layers(w, n)
    return GroupDecomposition(
        n=n,
        d_layer=replace(d_layer, weights=d),
        p_layer=replace(p_layer, weights=p, bias=None if w.bias is None else w.bias.copy()),
        block_truncation_errors=errors,
    )


def decomposed_pairs(net: NetworkSpec, original: NetworkSpec) -> list[DecomposedPair]:
    """The ``DecomposedPair`` of every decomposed conv, in network order,
    found by the ``decomposed_from`` provenance both layers carry. P must
    read D, a ``rank_n`` must be the pair's n, and the two must be
    ``pair_layers`` of the conv that the provenance names in ``original``
    (weights and biases are not compared). Anything else is a
    ModelFormatError."""
    convs = {l.id: l.conv for l in original.conv_layers()}
    found: dict[str, list[LayerSpec]] = {}
    for layer in net.layers:
        src = layer.meta.get("decomposed_from")
        if src:
            found.setdefault(src, []).append(layer)
    inputs = layer_inputs(net)
    pairs = []
    for src, layers in found.items():
        if len(layers) != 2:
            raise ModelFormatError(
                f"{len(layers)} layers carry the provenance decomposed_from={src!r}"
            )
        d, p = layers
        pair = DecomposedPair(src, d, p)
        n = pair.n if d.kind == p.kind == "conv" else None
        try:
            geometry = pair_layers(convs[src], n) if n and src in convs else None
        except DecompositionError:
            geometry = None
        if not (geometry and inputs[p.id] == d.id
                and geometry == tuple(replace(l.conv, weights=None, bias=None) for l in layers)
                and all(layer.meta.get("rank_n", n) == n for layer in layers)):
            raise ModelFormatError(
                f"decomposed_from={src!r}: {d.id!r}, {p.id!r} are not the (D, P) pair of a "
                "conv of that name in the original model, with P reading D and rank_n = "
                "D's c_in / groups"
            )
        pairs.append(pair)
    return pairs


@contextmanager
def _naming_layer(layer_id: str):
    try:
        yield
    except (DecompositionError, ShapeError, NumericalError) as exc:
        raise type(exc)(f"layer {layer_id}: {exc}") from exc


def decompose_network(
    net: NetworkSpec,
    layer_ranks: dict[str, int],
    force_pointwise: bool = False,
) -> tuple[NetworkSpec, list[DecomposedPair]]:
    """Replace every conv named in ``layer_ranks`` by its (D, P) pair, and
    return the new network and the ``DecomposedPair`` of each, in network
    order.

    The D layer keeps the original layer's stage and input; the P layer is
    named ``<id>.p`` and all later references to the original id are
    redirected to it. Provenance (source id and n) is recorded on both
    layers. Every other layer keeps its parameter records, and an array of
    theirs that was not read (``model.Deferred``) stays unread.

    Every planned layer is checked, its weights included, before the first
    SVD; an error names the first failing layer in network order. A planned
    conv's arrays are read with ``read_arrays``, once for the check and
    once to factor, and never kept in ``net``: besides the (D, P) factors
    of the layers done so far, only the layer being checked or factored is
    held, and the peak memory is set by the largest planned layer.
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
        for new_id in (f"{lid}.d", f"{lid}.p"):
            if new_id in taken:
                raise DecompositionError(
                    f"layer {lid}: its decomposed layer id {new_id!r} is already taken"
                )
            taken.add(new_id)
    for lid in planned:
        with _naming_layer(lid):
            _checked_stack(read_arrays(net.layer(lid).conv), layer_ranks[lid], force_pointwise)

    new_layers: list[LayerSpec] = []
    pairs: list[DecomposedPair] = []
    renamed: dict[str, str] = {}
    for layer in net.layers:
        layer = replace(layer, input=renamed.get(layer.input, layer.input),
                        source=renamed.get(layer.source, layer.source))
        if layer.id not in layer_ranks:
            new_layers.append(layer)
            continue
        n = layer_ranks[layer.id]
        with _naming_layer(layer.id):
            decomp = decompose_layer(read_arrays(layer.conv), n, force_pointwise)
        provenance = {"decomposed_from": layer.id, "rank_n": n}
        pair = DecomposedPair(
            layer.id,
            LayerSpec(id=f"{layer.id}.d", kind="conv", stage=layer.stage, input=layer.input,
                      conv=decomp.d_layer, meta=dict(provenance)),
            LayerSpec(id=f"{layer.id}.p", kind="conv", stage=layer.stage,
                      conv=decomp.p_layer, meta=dict(provenance)),
            decomp.block_truncation_errors,
        )
        pairs.append(pair)
        new_layers += [pair.d, pair.p]
        renamed[layer.id] = pair.p.id

    return NetworkSpec(name=net.name, input_shape=net.input_shape, layers=new_layers), pairs
