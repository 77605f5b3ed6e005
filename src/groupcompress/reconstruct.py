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
    ConvWeights, NetworkSpec, _run, _Walk, propagate_shapes, response_rows, shared_prefix,
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
    ``reconstruct_network``: the layers both networks share run once.
    """
    if layer_id not in {layer.id for layer in original.conv_layers()}:
        raise ShapeError(f"layer {layer_id!r} not found as a convolution in original network")
    pairs = {pair.source: pair for pair in decomposed_pairs(compressed, original)}
    if layer_id not in pairs:
        raise ShapeError(f"layer {layer_id!r} is not decomposed in the compressed network")
    walks = _walks(original, compressed, calib.samples, symmetric)
    _, y_output, star_output = _pair_outputs(*walks, pairs[layer_id])
    y, y_star = response_rows(y_output), response_rows(star_output)
    if y.shape != y_star.shape:
        raise ShapeError(
            f"misaligned responses for {layer_id}: {y.shape} vs {y_star.shape}"
        )
    return y, y_star


def _sum_of_squares(rows: np.ndarray) -> float:
    """The sum of the squared entries, in bits that, unlike those of
    ``np.linalg.norm``, do not depend on the BLAS thread count."""
    return float(np.einsum("ij,ij->", rows, rows))


def default_ridge(y_star: np.ndarray) -> float:
    """Conditioning default: 1e-6 * trace(Y*^T Y*) / c_out."""
    return 1e-6 * _sum_of_squares(y_star) / y_star.shape[1]


def solve_reconstruction(
    y,
    y_star,
    ridge: float,
    intercept: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve for the mixing matrix A (c_out x c_out) and a bias correction.

    ``ridge`` 0.0 gives the plain unconstrained regression. Without an
    intercept the returned correction is zero.
    """
    y = linalg.as_matrix(y, "y")
    y_star = linalg.as_matrix(y_star, "y_star")
    if y.shape != y_star.shape:
        raise ShapeError(f"responses misaligned: {y.shape} vs {y_star.shape}")
    rows, c_out = y_star.shape
    needed = c_out + (1 if intercept else 0)
    if rows < needed:
        raise ShapeError(
            f"{rows} response rows for {needed} unknown columns; "
            "collect more calibration samples"
        )
    if rows < 10 * c_out:
        warnings.warn(
            f"only {rows} rows for {c_out} output channels; recommend >= {10 * c_out}",
            CalibrationWarning,
            stacklevel=2,
        )
    if intercept:
        design = np.hstack([y_star, np.ones((rows, 1))])
        solution = linalg.solve_least_squares(design, y, ridge=ridge)
        return solution[:-1], solution[-1]
    solution = linalg.solve_least_squares(y_star, y, ridge=ridge)
    return solution, np.zeros(c_out)


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
    ``residual_after`` are ||Y - Y*||_F and ||Y - Y* A - delta||_F over
    ``sample_rows`` rows; on the identity fallback they are equal."""

    residual_before: float
    residual_after: float
    ridge: float
    sample_rows: int
    identity_fallback: bool


def _walks(original: NetworkSpec, compressed: NetworkSpec, samples, symmetric: bool):
    """The walks (``model._Walk``) that ``_pair_outputs`` resumes: the
    original network's and, unless ``symmetric``, the compressed network's.
    The two networks agree up to the first layer they do not share
    (``model.shared_prefix``), so the original walk runs those layers alone,
    and the compressed walk is its fork after them."""
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
    (symmetric mode), P's input is None and Y* is the pair applied to the
    source conv's input."""
    conv_input, y_output = original_walk.to(pair.source)
    if compressed_walk is None:
        return None, y_output, _run(pair.p, _run(pair.d, conv_input))
    p_input, star_output = compressed_walk.to(pair.p.id)
    return p_input, y_output, star_output


def check_rows(net: NetworkSpec, layer_ids, count: int, intercept: bool) -> None:
    """Every solve needs at least as many response rows as unknowns: checked
    from the output shapes of the convs of ``net`` that ``layer_ids`` names,
    in network order, before any forward pass or SVD. Other ids are left to
    the plan check."""
    shapes, layer_ids = propagate_shapes(net), set(layer_ids)
    for layer_id in (l.id for l in net.conv_layers() if l.id in layer_ids):
        c_out, h, w = shapes[layer_id]
        rows, needed = count * h * w, c_out + (1 if intercept else 0)
        if rows < needed:
            raise ShapeError(
                f"layer {layer_id}: {count} calibration samples give {rows} response "
                f"rows for {needed} unknown columns; collect more calibration samples"
            )


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

    Each network is walked once (``model._Walk``), all calibration samples
    as one batch, resumed at each pair. The original network's walk gives Y
    at each source conv. In the asymmetric (default) mode the compressed
    network's walk gives Y* at each P layer. It is a fork of the original
    walk after the leading layers the two networks share, which therefore
    run once (in ``compress``, every layer before the first pair). After the
    solve, the merged layer's output on D's output overwrites the walk's P
    output in place, so deeper layers see the compressed prefix in its final
    form. In symmetric
    mode Y* is the pair applied to the source conv's input in the original
    walk, and the compressed network is not walked.

    ``ridge=None`` solves each layer with the ``default_ridge`` of its Y*.
    Identity is always feasible, so a solve is only accepted when it does
    not increase the fitting residual; otherwise the layer keeps its plain
    truncated form (``identity_fallback``).
    """
    if ridge is not None:
        linalg.check_ridge(ridge)
    pairs = decomposed_pairs(compressed, original)
    check_rows(original, [pair.source for pair in pairs], calib.count, intercept)
    result = NetworkSpec(compressed.name, compressed.input_shape, list(compressed.layers))
    position = {layer.id: i for i, layer in enumerate(result.layers)}
    original_walk, compressed_walk = _walks(original, compressed, calib.samples, symmetric)
    fits: list[ReconstructionFit] = []
    for pair in pairs:
        p_input, y_output, star_output = _pair_outputs(original_walk, compressed_walk, pair)
        y, y_star = response_rows(y_output), response_rows(star_output)
        used_ridge = default_ridge(y_star) if ridge is None else ridge
        a, delta = solve_reconstruction(y, y_star, ridge=used_ridge, intercept=intercept)
        before = math.sqrt(_sum_of_squares(y - y_star))
        rest = y_star @ a  # then Y - Y* A - delta, in the same array
        np.subtract(y, rest, out=rest)
        rest -= delta
        after = math.sqrt(_sum_of_squares(rest))
        fallback = after > before
        if fallback:
            after = before
        else:
            merged = replace(pair.p, conv=merge_pointwise_weights(pair.p.conv, a, delta))
            result.layers[position[pair.p.id]] = merged
            if not symmetric:
                # Deeper layers read the merged layer's output.
                star_output[...] = _run(merged, p_input)
        fits.append(ReconstructionFit(before, after, used_ridge, y.shape[0], fallback))
        # Release this pair's activations before the walks move on.
        y_output = p_input = star_output = y = y_star = rest = None
    return result, fits
