"""Least-squares response reconstruction for decomposed layers.

After truncation the compressed response Y* drifts from the original
response Y, and errors accumulate front to back. For each decomposed layer
we solve

    A = argmin || Y - Y* @ A ||_F^2   (optionally ridge-regularized,
                                       optionally with an intercept)

and fold A into the pointwise layer: P' = P @ A, so the layer count does
not change. Y* is taken from the *compressed* prefix by default, so the
regression also compensates upstream error (asymmetric reconstruction); a
symmetric variant that evaluates (D, P) on the original network's inputs is
available for comparison.

Each solve reads its rows one calibration sample at a time, in sample
order, into statistics (``linalg.LeastSquares``): the Gram matrix of
[Y* 1] and [Y* 1]^T Y for the ridge solve (the default), or the R factor
of a TSQR of [Y* 1 | Y] for ridge 0. No solve stacks the rows of all
samples, and the written bytes do not depend on how many samples a walk
holds at once. The merged P then runs on each chunk's P input, and the
residual after the solve is read from that output, the layer as deeper
layers will run it.

Layers must be processed front to back: when layer L is solved, every
earlier decomposed layer is already in its final merged form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import linalg
from .decompose import DecomposedPair, decomposed_pairs
from .errors import CalibrationWarning, ShapeError
from .model import (
    ConvWeights, LayerSpec, NetworkSpec, _run, _Walk, propagate_shapes, reading, response_rows,
    shared_prefix,
)
from .modelio import load_calibration, save_calibration


@dataclass
class CalibrationSet:
    """Input samples used to probe layer responses.

    ``samples`` has shape (count, C, H, W). Synthetic sets draw i.i.d.
    standard normal values from a fixed seed, which keeps runs reproducible
    and is sufficient for checking the linear solve.
    """

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 4:
            raise ShapeError(
                f"calibration samples must be (count, C, H, W), got {self.samples.ndim}-D"
            )
        if self.count < 1:
            raise ShapeError("a calibration set needs at least one sample")
        linalg._check_entries(self.samples, "calibration samples")

    @property
    def count(self) -> int:
        return self.samples.shape[0]

    @property
    def sample_shape(self) -> tuple[int, int, int]:
        return tuple(self.samples.shape[1:])

    def chunks(self):
        """Views of ``samples`` in sample order, one sample per usable CPU
        each (the last may hold fewer), so that each layer of a chunk runs
        on every CPU: the one chunk size of every walk over the set."""
        size = linalg._usable_cpus()
        return (self.samples[lo : lo + size] for lo in range(0, self.count, size))

    @classmethod
    def synthetic(cls, shape, count: int, seed: int = 0) -> "CalibrationSet":
        rng = np.random.default_rng(seed)
        return cls(samples=rng.standard_normal((count, *shape)))

    @classmethod
    def from_file(cls, manifest_path) -> "CalibrationSet":
        return cls(samples=load_calibration(manifest_path))

    def save(self, manifest_path) -> Path:
        return save_calibration(self.samples, manifest_path)


def collect_responses(
    original: NetworkSpec,
    compressed: NetworkSpec,
    calib: CalibrationSet,
    layer_id: str,
    symmetric: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """(Y, Y*) for one decomposed layer, rows aligned sample by sample.

    Y is the original layer's pre-activation response. Y* is the output of
    the corresponding pointwise layer in the compressed network (default),
    or, with ``symmetric=True``, of the (D, P) pair applied to the original
    layer's input, ignoring upstream drift. The walks are those of
    ``reconstruct_network``, one pair per chunk (``CalibrationSet.chunks``),
    each dropped at the pair: only the chunks' Y and Y* are held.
    """
    if layer_id not in {layer.id for layer in original.conv_layers()}:
        raise ShapeError(f"layer {layer_id!r} not found as a convolution in original network")
    pair = next((p for p in decomposed_pairs(compressed, original) if p.source == layer_id), None)
    if pair is None:
        raise ShapeError(f"layer {layer_id!r} is not decomposed in the compressed network")
    y, y_star = zip(*_chunk_outputs(pair.p, (
        _pair_outputs(*_walks(original, compressed, chunk, symmetric), pair)
        for chunk in calib.chunks())))
    y = response_rows(np.concatenate(y))  # frees Y's chunks before Y*'s are joined
    return y, response_rows(np.concatenate(y_star))


def _sum_of_squares(rows: np.ndarray) -> float:
    """The sum of the squared entries, in bits that, unlike those of
    ``np.linalg.norm``, do not depend on the BLAS thread count."""
    return float(np.einsum("ij,ij->", rows, rows))


def default_ridge(fit: linalg.LeastSquares, c_out: int) -> float:
    """Conditioning default: 1e-6 * trace(Y*^T Y*) / c_out, read from the
    Gram matrix of a fit whose first ``c_out`` design columns are Y*."""
    return 1e-6 * float(np.trace(fit.gram[:c_out, :c_out])) / c_out


def _design(y_star: np.ndarray, intercept: bool) -> np.ndarray:
    """The design rows of a solve: [Y* 1], or Y* without an intercept."""
    return np.hstack([y_star, np.ones((y_star.shape[0], 1))]) if intercept else y_star


def _mixing(solution: np.ndarray, intercept: bool) -> tuple[np.ndarray, np.ndarray]:
    """The mixing matrix A and the bias correction of a solution for the
    design ``_design``; without an intercept the correction is zero."""
    if intercept:
        return solution[:-1], solution[-1]
    return solution, np.zeros(solution.shape[1])


def solve_reconstruction(
    y,
    y_star,
    ridge: float,
    intercept: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve for the mixing matrix A (c_out x c_out) and a bias correction:
    the solve of ``reconstruct_network`` (``linalg.LeastSquares``) on one
    block of rows.

    ``ridge`` 0.0 gives the plain unconstrained regression. Without an
    intercept the returned correction is zero.
    """
    y = linalg.as_matrix(y, "y")
    y_star = linalg.as_matrix(y_star, "y_star")
    if y.shape != y_star.shape:
        raise ShapeError(f"responses misaligned: {y.shape} vs {y_star.shape}")
    rows, c_out = y_star.shape
    if thin := _thin_rows(rows, c_out, intercept):
        warnings.warn(thin, CalibrationWarning, stacklevel=2)
    fit = linalg.LeastSquares(c_out + (1 if intercept else 0), exact=ridge == 0)
    fit.add(_design(y_star, intercept), y)
    return _mixing(fit.solve(ridge), intercept)


def merge_pointwise_weights(p: ConvWeights, a: np.ndarray, bias_delta: np.ndarray) -> ConvWeights:
    """Fold the mixing matrix into a pointwise layer: P' = P @ A,
    bias' = A^T b + delta."""
    a = linalg.as_matrix(a, "a")
    if a.shape != (p.c_out, p.c_out):
        raise ShapeError(f"A must be {p.c_out}x{p.c_out}, got {a.shape}")
    p_mat = p.weight_matrix() @ a  # (c_in, c_out)
    bias = (np.zeros(p.c_out) if p.bias is None else a.T @ p.bias) + bias_delta
    return replace(p, weights=p_mat.T.reshape(p.c_out, p.c_in, 1, 1), bias=bias)


@dataclass(frozen=True)
class ReconstructionFit:
    """One pair's solve, its fields named and ordered like the keys they
    become in a ``report.json`` layer row. ``residual_before`` and
    ``residual_after`` are ||Y - Y*||_F and ||Y - P'(x)||_F over
    ``sample_rows`` rows, P'(x) being the merged layer's output as the walk
    runs it (Y* A + delta, up to rounding); on the identity fallback P' is
    P, and they are equal."""

    residual_before: float
    residual_after: float
    ridge: float
    sample_rows: int
    identity_fallback: bool


def _walks(original: NetworkSpec, compressed: NetworkSpec, samples, symmetric: bool):
    """The walks (``model._Walk``) of the batch ``samples`` that
    ``_pair_outputs`` resumes: the original network's and, unless
    ``symmetric``, the compressed network's. The two networks agree up to
    the first layer they do not share (``model.shared_prefix``), so the
    original walk runs those layers alone, and the compressed walk is its
    fork after them. ``reconstruct_network`` keeps one such pair of walks
    per chunk of samples."""
    original_walk = _Walk(original, samples)
    if symmetric:
        return original_walk, None
    shared = shared_prefix(original, compressed)
    if shared:
        original_walk.to(original.layers[shared - 1].id)
    return original_walk, original_walk.fork(compressed)


def _pair_outputs(original_walk, compressed_walk, pair: DecomposedPair):
    """Resume the walks (``model._Walk``) at one pair and return P's input,
    the source conv's output Y and P's output Y*. Without a compressed walk
    (symmetric mode), P's input is D run on the source conv's input, and Y*
    is None: ``_chunk_outputs`` makes it when it is read."""
    conv_input, y_output = original_walk.to(pair.source)
    if compressed_walk is None:
        return _run(pair.d, conv_input), y_output, None
    p_input, star_output = compressed_walk.to(pair.p.id)
    return p_input, y_output, star_output


def _chunk_outputs(p: LayerSpec, outputs, run: bool = False):
    """Yield Y and Y* of each chunk's ``_pair_outputs``, Y* being the
    pointwise layer ``p`` on P's input. A chunk's Y* array is read as it
    is, unless ``run`` is set: then ``p`` runs into it first. Where the
    chunk holds none, ``p`` runs into a new one."""
    for p_input, y_output, star_output in outputs:
        if run or star_output is None:
            star_output = _run(p, p_input, out=star_output)
        yield y_output, star_output


def _residual(chunks, fit: linalg.LeastSquares | None = None, intercept: bool = True) -> float:
    """||Y - Y*||_F over the chunks' (Y, Y*) (``_chunk_outputs``), summed
    exactly sample by sample, in sample order: a sum of squares taken from
    the statistics would lose about half the digits of a small residual.
    Each sample's ``response_rows`` also go into ``fit``, if given."""
    total = 0.0
    for y_output, star_output in chunks:
        for i in range(y_output.shape[0]):
            y, y_star = response_rows(y_output[i : i + 1]), response_rows(star_output[i : i + 1])
            if fit is not None:
                fit.add(_design(y_star, intercept), y)
            total += _sum_of_squares(y - y_star)
    return math.sqrt(total)


def _thin_rows(rows: int, c_out: int, intercept: bool, layer="", given="") -> str | None:
    """The rows rule of one solve: ShapeError if there are fewer rows than
    unknowns, else the CalibrationWarning message if there are fewer than
    10 per output channel. ``layer`` starts both messages, and ``given``
    says where the rows came from in the error's."""
    needed = c_out + (1 if intercept else 0)
    if rows < needed:
        raise ShapeError(f"{layer}{given}{rows} response rows for {needed} unknown columns; "
                         "collect more calibration samples")
    if rows < 10 * c_out:
        return f"{layer}only {rows} rows for {c_out} output channels; recommend >= {10 * c_out}"


def check_rows(net: NetworkSpec, layer_ids, count: int, intercept: bool) -> list[str]:
    """Every solve needs at least as many response rows as unknowns: checked
    from the output shapes of the convs of ``net`` that ``layer_ids`` names,
    in network order, before any forward pass or SVD. Other ids are left to
    the plan check. If every layer passes, return the CalibrationWarning
    message of each layer given fewer than 10 rows per output channel,
    which names it."""
    shapes, layer_ids, thin = propagate_shapes(net), set(layer_ids), []
    for layer_id in (l.id for l in net.conv_layers() if l.id in layer_ids):
        c_out, h, w = shapes[layer_id]
        if message := _thin_rows(count * h * w, c_out, intercept, f"layer {layer_id}: ",
                                 f"{count} calibration samples give "):
            thin.append(message)
    return thin


def reconstruct_network(
    original: NetworkSpec,
    compressed: NetworkSpec,
    calib: CalibrationSet,
    ridge: float | None = None,
    intercept: bool = True,
    symmetric: bool = False,
) -> tuple[NetworkSpec, list[ReconstructionFit]]:
    """Reconstruct every decomposed layer, front to back, merging each A
    into its pointwise layer before moving deeper. Returns the merged
    network and the ``ReconstructionFit`` of each pair, in network order.

    The calibration samples go in the set's chunks
    (``CalibrationSet.chunks``), and each chunk walks each network once
    (``_walks``), resumed at each pair. Only the maps that deeper layers
    read stay live for every sample; a layer the walks pass between pairs,
    such as a resnet stem, is live for one chunk at a time. The original
    network's walk gives Y at each source conv, and P's input is D's output:
    in the asymmetric (default) mode the compressed network's walk gives it,
    and P's output Y*, at each P layer; in symmetric mode D runs on the
    source conv's input in the original walk, the compressed network is not
    walked, and each chunk's Y* is made when it is read
    (``_chunk_outputs``), so a chunk holds D's output, not Y*. One pass over
    the samples feeds the solve and sums ||Y - Y*||^2.

    After the solve, the merged layer runs on each chunk's P input straight
    into the chunk's Y* array (a new one in symmetric mode), so deeper
    layers see the compressed prefix in its final form, and
    ``residual_after`` is summed from that output. ``ridge=None`` solves
    each layer with the ``default_ridge`` of its Y*. Identity is always
    feasible, so a solve is only accepted when it does not increase the
    fitting residual; otherwise the unmerged P runs into the same arrays
    again, and the layer keeps its plain truncated form
    (``identity_fallback``).

    Each pair's source conv in ``original`` is read once per run, with
    ``model.reading``, for the chunks that pass it; for a
    ``decompose_network`` output, its pair is factored from that read.
    After the last chunk has passed it, its record is deferred again. So
    the weights of at most one source conv are held at a time, and the
    loaded original keeps none of them once the run ends. Any other record,
    read by either walk, stays read.
    """
    if ridge is not None:
        linalg.check_ridge(ridge)
    pairs = decomposed_pairs(compressed, original)
    for message in check_rows(original, [pair.source for pair in pairs], calib.count, intercept):
        warnings.warn(message, CalibrationWarning, stacklevel=2)
    result = NetworkSpec(compressed.name, compressed.input_shape, list(compressed.layers))
    position = {layer.id: i for i, layer in enumerate(result.layers)}
    chunks = [_walks(original, compressed, chunk, symmetric) for chunk in calib.chunks()]
    fits: list[ReconstructionFit] = []
    for pair in pairs:
        with reading([original.layer(pair.source).conv]):
            outputs = [_pair_outputs(*walks, pair) for walks in chunks]
        c_out = pair.p.conv.c_out
        fit = linalg.LeastSquares(c_out + (1 if intercept else 0), exact=ridge == 0)
        before = _residual(_chunk_outputs(pair.p, outputs), fit, intercept)
        used_ridge = default_ridge(fit, c_out) if ridge is None else ridge
        a, delta = _mixing(fit.solve(used_ridge), intercept)
        # The merged P runs into each chunk's Y* array, which deeper layers read.
        merged = replace(pair.p, conv=merge_pointwise_weights(pair.p.conv, a, delta))
        after = _residual(_chunk_outputs(merged, outputs, run=True))
        fallback = after > before
        if fallback:
            merged, after = pair.p, _residual(_chunk_outputs(pair.p, outputs, run=True))
        result.layers[position[pair.p.id]] = merged
        fits.append(ReconstructionFit(before, after, used_ridge, fit.rows, fallback))
        outputs = None  # release this pair's activations before the walks move on
    return result, fits
