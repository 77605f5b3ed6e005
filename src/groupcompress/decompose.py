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

``decompose_network`` checks every planned layer but factors none: each
pair's arrays are ``model.Deferred`` and share one factorization of the
source conv, run when the first of them is read. ``modelio.save_model``
reads each as it writes it, so a truncation run factors and writes one
pair at a time, and holds one layer's factors, not all of them.
Reconstruction's walks read a pair's arrays when they reach it, while
the source conv is read for them (``model.reading``), so the pair is
factored from that read.

Singular values are absorbed into D (D_i = U_i * sigma, P_i = V_i); this
split is fixed so serialized decompositions stay portable and P stays
well conditioned for response reconstruction.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from . import linalg
from .errors import DecompositionError, ModelFormatError, NumericalError, ShapeError
from .model import (
    ConvWeights, Deferred, LayerSpec, NetworkSpec, array_fields, layer_inputs, read_arrays,
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
    """One factorization of the planned conv ``source`` at rank n, shared by
    its pair's deferred arrays (``_Factor``): D's weights, P's weights and
    P's bias. The first read of any of them runs ``decompose_layer`` on
    ``read_arrays(conv)``, and each of the others is held only until it is
    read. An array read again is factored again, to the same bits.
    ``errors`` are the block truncation errors, None until the first
    factoring."""

    def __init__(self, source: str, conv: ConvWeights, n: int, force_pointwise: bool):
        self.source, self.conv, self.n, self.force_pointwise = source, conv, n, force_pointwise
        self.unread: dict[str, np.ndarray | None] = {}
        self.errors: np.ndarray | None = None

    def factor(self) -> None:
        with _naming_layer(self.source):
            decomp = decompose_layer(read_arrays(self.conv), self.n, self.force_pointwise)
        self.unread = {"d weights": decomp.d_layer.weights,
                       "p weights": decomp.p_layer.weights, "p bias": decomp.p_layer.bias}
        self.errors = decomp.block_truncation_errors

    def take(self, name: str) -> np.ndarray:
        if name not in self.unread:
            self.factor()
        return self.unread.pop(name)

    def deferred(self, record: ConvWeights, layer: str, names=("weights",)) -> ConvWeights:
        """``record`` with each array ``names`` lists read from this
        factorization, as ``layer``'s ("d" or "p")."""
        return replace(record, **{name: _Factor(self, f"{layer} {name}", shape)
                                  for name, shape, _, _ in array_fields(record) if name in names})


class _Factor(Deferred):
    """One array of a pair, read from its ``_PairFactors``."""

    def __init__(self, factors: _PairFactors, name: str, shape: tuple):
        super().__init__(shape)
        self.factors, self.name = factors, name

    def read(self) -> np.ndarray:
        return self.factors.take(self.name)


@dataclass(eq=False)
class DecomposedPair:
    """One decomposed conv: its id ``source`` and the (D, P) layers that
    replace it. ``fit`` is its ``reconstruct.ReconstructionFit`` (None
    until reconstruction), and ``factors`` the factorization its arrays
    share (None for a pair read back from a saved model). ``p`` is the P
    layer as decomposed; a fit merges into a copy of it."""

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

    @property
    def total_truncation_error(self) -> float:
        return float(np.sqrt(np.sum(self.block_truncation_errors**2)))


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


def _checked_layer(conv: ConvWeights, layer_id: str, n: int, force_pointwise: bool) -> bool:
    """Check the planned conv ``layer_id``, read, at rank n, as
    ``decompose_layer`` would, and apply ``modelio``'s float32 rule to the
    bias P copies, all with no SVD. Return whether float32 holds a bound of
    D's values: D = W V with V orthonormal, so no value of a block's D
    exceeds the block's Frobenius norm (here given a margin for rounding),
    and P's values are at most 1. The norms are the entry check too: they
    are finite where every entry is, so each entry is checked, to name a
    non-finite one, only where they are not."""
    with _naming_layer(layer_id):
        stack = _block_stack(conv, n, force_pointwise)
        largest = math.sqrt(np.einsum("bij,bij->b", stack, stack).max())
        if not math.isfinite(largest):
            linalg._check_entries(stack, "a")
    check_float32(conv.bias, f"layer {layer_id}.p bias")
    return float32_holds(-1.001 * largest, 1.001 * largest)


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

    No layer is factored here: a pair's D weights, P weights and P bias are
    ``Deferred`` arrays that share one ``_PairFactors`` (see the module
    docstring). What can fail is checked first, for every planned layer,
    before the first SVD; an error names the first failing layer in network
    order. That includes ``modelio``'s float32 rule (``_checked_layer``), so
    that a save refuses a pair before it touches any file: a layer is
    factored here only where the rule fails for a bound of D's values. A
    planned conv's arrays are read with ``read_arrays``, once for the check
    and once to factor, and never kept in ``net``. Reconstruction reads
    them into ``net`` only while its walks pass the conv (``model.reading``),
    so the pair is factored from that read rather than from a second one.
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
    beyond = [lid for lid in planned if not _checked_layer(
        read_arrays(net.layer(lid).conv), lid, layer_ranks[lid], force_pointwise)]
    for lid in beyond:
        with _naming_layer(lid):
            d = decompose_layer(read_arrays(net.layer(lid).conv), layer_ranks[lid],
                                force_pointwise).d_layer.weights
        check_float32(d, f"layer {lid}.d weights")

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
        factors = _PairFactors(layer.id, layer.conv, n, force_pointwise)
        d, p = pair_layers(layer.conv, n)
        # P has weights, and a bias where the source conv has one.
        p_arrays = [name for name, *_, value in array_fields(layer.conv) if value is not None]
        provenance = {"decomposed_from": layer.id, "rank_n": n}
        pair = DecomposedPair(
            layer.id,
            LayerSpec(id=f"{layer.id}.d", kind="conv", stage=layer.stage, input=layer.input,
                      conv=factors.deferred(d, "d"), meta=dict(provenance)),
            LayerSpec(id=f"{layer.id}.p", kind="conv", stage=layer.stage,
                      conv=factors.deferred(p, "p", p_arrays), meta=dict(provenance)),
            factors=factors,
        )
        pairs.append(pair)
        new_layers += [pair.d, pair.p]
        renamed[layer.id] = pair.p.id

    return NetworkSpec(name=net.name, input_shape=net.input_shape, layers=new_layers), pairs
