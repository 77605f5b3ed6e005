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
layer's D, P and truncation-error arrays in place, in their final layout,
and stages nothing per block. A block's rank-n factors come from the
eigendecomposition of its smaller Gram matrix (``linalg._leading_factors``),
with the same bits in any part, so the serialized model is the same
whatever the CPU count, and no singular triplet that the truncation drops
is computed. The whole stack is validated in the calling thread first.

``decompose_network`` keeps no factors. It checks each planned layer in
network order as it builds its pair (``_PairFactors.check``), factoring
there only a layer whose bound of D float32 cannot hold, from the same
read. Each array of a pair is a ``model.Deferred`` read from one
factorization of the source conv, ``_PairFactors.factor``, the tool's one
factoring call, run on the conv read for it alone (``model.reading``)
when the first of them is read; ``decomposed_pairs`` then finds the
pairs, as for every run. ``modelio.save_model`` reads each array as it
writes it, so a truncation run holds one layer's factors, not all of
them. A reconstruction walk reads a pair's arrays while the source conv
is read for it, so the pair is factored from that read.

Singular values are absorbed into D (D_i = U_i * sigma, P_i = V_i); this
split is fixed so serialized decompositions stay portable and P stays
well conditioned for response reconstruction.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from . import linalg
from .errors import DecompositionError, ModelFormatError, NumericalError, ShapeError
from .model import (
    ConvWeights, Deferred, LayerSpec, NetworkSpec, array_fields, layer_inputs, reading,
)
from .modelio import check_float32, float32_holds

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


class _PairFactors:
    """One factorization of the planned conv ``source`` at rank n, which
    its pair's arrays (D's weights, P's weights and P's bias, each a
    ``Deferred`` over ``take``) share; ``check`` checks the conv as the
    pair is built. The first read of any factors the conv, read for that
    call alone (``factor``); the others wait in ``unread``. An array read
    again is factored again, to the same bits. ``errors`` are the block
    truncation errors, None until first factored."""

    def __init__(self, source: str, conv: ConvWeights, n: int, force_pointwise: bool):
        self.source, self.conv, self.n, self.force_pointwise = source, conv, n, force_pointwise
        self.unread: dict[str, np.ndarray | None] = {}
        self.errors: np.ndarray | None = None

    def check(self) -> None:
        """Check the conv at rank n as ``decompose_layer`` would, and apply
        ``modelio``'s float32 rule to the bias P copies, from one read of
        the conv. No value of a block's D = W V (V orthonormal) exceeds the
        block's Frobenius norm, given here a margin for rounding, and P's
        values are at most 1. The norms are the entry check too: only where
        one is not finite are the entries checked, to name the bad one. Only
        where float32 cannot hold D's bound is the conv factored, in the
        same read, to check D itself; the factors are dropped."""
        with reading([self.conv]):
            with _naming_layer(self.source):
                stack = _block_stack(self.conv, self.n, self.force_pointwise)
                largest = math.sqrt(np.einsum("bij,bij->b", stack, stack).max())
                if not math.isfinite(largest):
                    linalg._check_entries(stack, "a")
            check_float32(self.conv.bias, f"layer {self.source}.p bias")
            if not float32_holds(-1.001 * largest, 1.001 * largest):
                check_float32(self.factor().d_layer.weights, f"layer {self.source}.d weights")

    def factor(self) -> GroupDecomposition:
        with _naming_layer(self.source), reading([self.conv]):
            decomp = decompose_layer(self.conv, self.n, self.force_pointwise)
        self.errors = decomp.block_truncation_errors
        return decomp

    def take(self, name: str) -> np.ndarray:
        if name not in self.unread:
            decomp = self.factor()
            self.unread = {"d weights": decomp.d_layer.weights,
                           "p weights": decomp.p_layer.weights, "p bias": decomp.p_layer.bias}
        return self.unread.pop(name)

    def deferred(self, record: ConvWeights, layer: str, names=("weights",)) -> ConvWeights:
        """``record`` with each array ``names`` lists read from this
        factorization, as ``layer``'s ("d" or "p")."""
        return replace(record, **{name: Deferred(shape, partial(self.take, f"{layer} {name}"))
                                  for name, shape, _, _ in array_fields(record) if name in names})


@dataclass(eq=False)
class DecomposedPair:
    """One decomposed conv, as ``decomposed_pairs`` finds it: its id
    ``source`` and the (D, P) layers that replace it. ``fit`` is its
    ``reconstruct.ReconstructionFit`` (None until reconstruction); ``factors``,
    attached by ``decompose_network``, the factorization its arrays share
    (else None). ``p`` is the P layer as decomposed; a fit merges into a copy."""

    source: str
    d: LayerSpec
    p: LayerSpec
    fit: ReconstructionFit | None = None
    factors: _PairFactors | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        """The rank: D's input channels per group."""
        return self.d.conv.c_in // self.d.conv.groups

    @property
    def block_truncation_errors(self) -> np.ndarray | None:
        """``GroupDecomposition``'s, known once the pair has been factored:
        reading them first factors it. None for a pair read back from a
        saved model."""
        if self.factors is None:
            return None
        if self.factors.errors is None:
            self.factors.factor()
        return self.factors.errors

    total_truncation_error = GroupDecomposition.total_truncation_error


def _block_stack(w: ConvWeights, n: int, force_pointwise: bool) -> np.ndarray:
    """The block stack of ``w`` at rank n; its entries are not checked."""
    if w.k == 1 and not force_pointwise:
        raise DecompositionError(
            "refusing to decompose a 1x1 convolution (no compression); "
            "pass force_pointwise=True to override"
        )
    return partition_blocks(w, n)


def decompose_layer(
    w: ConvWeights, n: int, force_pointwise: bool = False
) -> GroupDecomposition:
    """Best rank-n per-block factorization of an ungrouped convolution.

    1x1 layers are rejected by default: with k == 1 the structure reduces to
    a plain channel SVD and the FLOPs ratio n/c_out + 1 never compresses.
    Pass ``force_pointwise=True`` to decompose them anyway.
    """
    stack = linalg._check_entries(_block_stack(w, n, force_pointwise), "a")
    k, c_in, c_out = w.k, w.c_in, w.c_out
    blocks, kept = c_in // n, min(n, c_out)
    d = np.zeros((c_in, n, k, k))
    p = np.zeros((c_out, c_in, 1, 1))
    errors = np.empty(blocks)
    # Views of block i's rows in the final layouts: d_rows[i, m] is the
    # filter of D's output channel i*n + m, p_rows[i, m] is P's input
    # channel i*n + m. Rows from `kept` on stay zero: they pad blocks whose
    # rank bound min(n*k^2, c_out) is below n.
    d_rows = d.reshape(blocks, n, n * k * k)[:, :kept]
    p_rows = p.reshape(c_out, blocks, n).transpose(1, 2, 0)[:, :kept]

    def factor_part(lo: int, hi: int) -> None:
        errors[lo:hi] = linalg._leading_factors(stack[lo:hi], n, d_rows[lo:hi], p_rows[lo:hi])

    linalg._on_every_cpu(blocks, factor_part)

    d_layer, p_layer = pair_layers(w, n)
    return GroupDecomposition(
        n=n,
        d_layer=replace(d_layer, weights=d),
        p_layer=replace(p_layer, weights=p, bias=None if w.bias is None else w.bias.copy()),
        block_truncation_errors=errors,
    )


def decomposed_pairs(net: NetworkSpec, original: NetworkSpec) -> list[DecomposedPair]:
    """The ``DecomposedPair`` of every conv of ``original`` that ``net``
    decomposes, in network order; the one place a pair is built. A pair is
    two layers ``net`` adds to ``original`` with ``decomposed_from``
    provenance: a layer ``original`` holds is shared, as an earlier round's
    pair is. P must read D, a ``rank_n`` must be the pair's n, and the two
    must be ``pair_layers`` of the conv the provenance names in ``original``
    (weights and biases are not compared), else a ModelFormatError."""
    convs = {l.id: l.conv for l in original.conv_layers()}
    held = {l.id for l in original.layers}
    found: dict[str, list[LayerSpec]] = {}
    for layer in net.layers:
        src = layer.meta.get("decomposed_from")
        if src and layer.id not in held:
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
    return the new network and its ``decomposed_pairs`` against ``net``,
    each with its ``_PairFactors`` attached; a pair ``net`` already holds
    is a shared layer like any other.

    The D layer keeps the original layer's stage and input; the P layer is
    named ``<id>.p`` and all later references to the original id are
    redirected to it. Provenance (source id and n) is recorded on both
    layers. Every other layer keeps its parameter records, and an array of
    theirs that was not read (``model.Deferred``) stays unread.

    No factors are kept here (see the module docstring). The plan's ids
    are checked first; then each planned layer, in network order, by its
    ``_PairFactors.check`` as its pair is built, so an error names the first
    failing layer, and a save refuses a pair before it touches any file.
    A planned conv is read for the check and for each factoring alone
    (``model.reading``). Reconstruction reads it into ``net`` only while its
    walks pass the conv, so the pair is factored from that read rather
    than from a second one.
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

    new_layers: list[LayerSpec] = []
    factored: dict[str, _PairFactors] = {}
    renamed: dict[str, str] = {}
    for layer in net.layers:
        layer = replace(layer, input=renamed.get(layer.input, layer.input),
                        source=renamed.get(layer.source, layer.source))
        if layer.id not in layer_ranks:
            new_layers.append(layer)
            continue
        n = layer_ranks[layer.id]
        factors = factored[layer.id] = _PairFactors(layer.id, layer.conv, n, force_pointwise)
        factors.check()
        d, p = pair_layers(layer.conv, n)
        # P has weights, and a bias where the source conv has one.
        p_arrays = [name for name, *_, value in array_fields(layer.conv) if value is not None]
        provenance = {"decomposed_from": layer.id, "rank_n": n}
        new_layers += [
            LayerSpec(id=f"{layer.id}.d", kind="conv", stage=layer.stage, input=layer.input,
                      conv=factors.deferred(d, "d"), meta=dict(provenance)),
            LayerSpec(id=f"{layer.id}.p", kind="conv", stage=layer.stage,
                      conv=factors.deferred(p, "p", p_arrays), meta=dict(provenance)),
        ]
        renamed[layer.id] = f"{layer.id}.p"

    result = NetworkSpec(name=net.name, input_shape=net.input_shape, layers=new_layers)
    pairs = decomposed_pairs(result, net)
    for pair in pairs:
        pair.factors = factored[pair.source]
    return result, pairs
