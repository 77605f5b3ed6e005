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
from .decompose import decomposed_pairs
from .errors import CalibrationWarning, ShapeError
from .model import ConvWeights, NetworkSpec, _conv_forward, _walk, propagate_shapes, response_rows
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
    layer's input, ignoring upstream drift.
    """
    kinds = {layer.id: layer.kind for layer in original.layers}
    if kinds.get(layer_id) != "conv":
        raise ShapeError(f"layer {layer_id!r} not found as a convolution in original network")
    pairs = {src: (d, p) for src, d, p in decomposed_pairs(compressed)}
    if layer_id not in pairs:
        raise ShapeError(f"layer {layer_id!r} is not decomposed in the compressed network")
    d_layer, p_layer = pairs[layer_id]
    conv_input, y_output = _advance(_walk(original, calib.samples), layer_id)
    if symmetric:
        star_output = _conv_forward(p_layer, _conv_forward(d_layer, conv_input))
    else:
        _, star_output = _advance(_walk(compressed, calib.samples), p_layer.id)
    y, y_star = response_rows(y_output), response_rows(star_output)
    if y.shape != y_star.shape:
        raise ShapeError(
            f"misaligned responses for {layer_id}: {y.shape} vs {y_star.shape}"
        )
    return y, y_star


def default_ridge(y_star: np.ndarray) -> float:
    """Conditioning default: 1e-6 * trace(Y*^T Y*) / c_out."""
    c_out = y_star.shape[1]
    return 1e-6 * float(np.einsum("ij,ij->", y_star, y_star)) / c_out


def solve_reconstruction(
    y,
    y_star,
    ridge: float | None = None,
    intercept: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve for the mixing matrix A (c_out x c_out) and a bias correction.

    ``ridge=None`` applies the scale-aware default; pass 0.0 for the plain
    unconstrained regression. Without an intercept the returned correction
    is zero.
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
    if ridge is None:
        ridge = default_ridge(y_star)

    if intercept:
        design = np.hstack([y_star, np.ones((rows, 1))])
        solution = linalg.solve_least_squares(design, y, ridge=ridge)
        return solution[:-1], solution[-1]
    solution = linalg.solve_least_squares(y_star, y, ridge=ridge)
    return solution, np.zeros(c_out)


def merge_pointwise_weights(
    p: ConvWeights, a: np.ndarray, bias_delta: np.ndarray | None = None
) -> ConvWeights:
    """Fold the mixing matrix into a pointwise layer: P' = P @ A,
    bias' = A^T b + delta."""
    a = linalg.as_matrix(a, "a")
    if a.shape != (p.c_out, p.c_out):
        raise ShapeError(f"A must be {p.c_out}x{p.c_out}, got {a.shape}")
    p_mat = p.weight_matrix() @ a  # (c_in, c_out)
    bias = np.zeros(p.c_out) if p.bias is None else a.T @ p.bias
    if bias_delta is not None:
        bias = bias + bias_delta
    return replace(p, weights=p_mat.T.reshape(p.c_out, p.c_in, 1, 1), bias=bias)


@dataclass
class LayerReconstructionReport:
    layer_id: str
    rank_n: int
    sample_rows: int
    ridge: float
    residual_before: float
    residual_after: float
    used_identity_fallback: bool = False


def _advance(walk, layer_id: str) -> tuple[np.ndarray, np.ndarray]:
    """Step ``walk`` (a ``model._walk``) to ``layer_id``; its input and output."""
    for layer, value, out in walk:
        if layer.id == layer_id:
            return value, out
        del value, out  # so the walk can drop them before the next layer
    raise ShapeError(f"layer {layer_id!r} not found in network order")


def _check_rows(compressed: NetworkSpec, pairs, count: int, intercept: bool) -> None:
    """Every solve needs at least as many response rows as unknowns; checked
    from shapes alone, before any forward pass."""
    shapes = propagate_shapes(compressed)
    for layer_id, _, p_layer in pairs:
        c_out, h, w = shapes[p_layer.id]
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
) -> tuple[NetworkSpec, list[LayerReconstructionReport]]:
    """Reconstruct every decomposed layer, front to back, merging each A
    into its pointwise layer before moving deeper.

    Each network is walked once, all calibration samples as one batch. The
    original network's walk gives Y at each source conv. In the asymmetric
    (default) mode the compressed network's walk gives Y* at each P layer;
    after the solve, the merged layer's output on D's output overwrites the
    walk's P output in place, so deeper layers see the compressed prefix in
    its final form. In symmetric mode Y* is the pair applied to the source
    conv's input in the original walk, and the compressed network is not
    walked.

    Identity is always feasible, so a solve is only accepted when it does
    not increase the fitting residual; otherwise the layer keeps its plain
    truncated form (recorded in the report).
    """
    if ridge is not None and not (math.isfinite(ridge) and ridge >= 0):
        raise ValueError(f"ridge must be a finite number >= 0, got {ridge}")
    pairs = decomposed_pairs(compressed)
    _check_rows(compressed, pairs, calib.count, intercept)
    result = NetworkSpec(compressed.name, compressed.input_shape, list(compressed.layers))
    position = {layer.id: i for i, layer in enumerate(result.layers)}
    original_walk = _walk(original, calib.samples)
    compressed_walk = None if symmetric else _walk(compressed, calib.samples)
    reports: list[LayerReconstructionReport] = []
    for layer_id, d_layer, p_layer in pairs:
        conv_input, y_output = _advance(original_walk, layer_id)
        if symmetric:
            star_output = _conv_forward(p_layer, _conv_forward(d_layer, conv_input))
        else:
            p_input, star_output = _advance(compressed_walk, p_layer.id)
        y, y_star = response_rows(y_output), response_rows(star_output)
        used_ridge = default_ridge(y_star) if ridge is None else ridge
        a, delta = solve_reconstruction(y, y_star, ridge=used_ridge, intercept=intercept)
        residual_before = float(np.linalg.norm(y - y_star))
        residual_after = float(np.linalg.norm(y - y_star @ a - delta))
        fallback = residual_after > residual_before
        if fallback:
            residual_after = residual_before
        else:
            merged = replace(p_layer, conv=merge_pointwise_weights(p_layer.conv, a, delta))
            result.layers[position[p_layer.id]] = merged
            if not symmetric:
                # Deeper layers read the merged layer's output.
                star_output[...] = _conv_forward(merged, p_input)
        reports.append(
            LayerReconstructionReport(
                layer_id=layer_id,
                rank_n=int(p_layer.meta.get("rank_n", 0)),
                sample_rows=y.shape[0],
                ridge=used_ridge,
                residual_before=residual_before,
                residual_after=residual_after,
                used_identity_fallback=fallback,
            )
        )
        # Release this pair's activations before the walks move on.
        conv_input = y_output = p_input = star_output = y = y_star = None
    return result, reports
