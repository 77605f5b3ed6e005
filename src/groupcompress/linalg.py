"""Dense matrix kernels: multiply, SVD, linear least squares, im2col.

All routines take and return plain numpy arrays and compute in float64,
regardless of the precision weights were stored in. Shapes are validated at
the boundary so callers higher up the pipeline can assume clean inputs.

im2col column ordering is fixed: for an input of C channels and kernel size
k, column index ``c*k*k + ki*k + kj`` holds channel ``c``, kernel row ``ki``,
kernel column ``kj``. Row index is ``oy*W_out + ox``. Serialized
decompositions rely on this ordering; do not change it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, RankDeficiencyWarning, ShapeError


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a validated 2-D float64 array (finite, non-empty)."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got {arr.ndim}-D")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``a = u @ diag(singular_values) @ vt``.

    ``u`` is m x r, ``vt`` is r x n with r = min(m, n); singular values are
    sorted descending and nonnegative.
    """

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray

    @property
    def rank(self) -> int:
        return self.singular_values.shape[0]

    def truncate(self, rank: int) -> "SvdResult":
        """Keep the leading ``rank`` singular triplets."""
        if not 1 <= rank <= self.rank:
            raise ShapeError(f"rank must be in [1, {self.rank}], got {rank}")
        return SvdResult(
            u=self.u[:, :rank],
            singular_values=self.singular_values[:rank],
            vt=self.vt[:rank, :],
        )

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.singular_values) @ self.vt


def matmul(a, b) -> np.ndarray:
    """Matrix product a @ b with shape validation."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"inner dimensions differ: a is {a.shape[0]}x{a.shape[1]}, "
            f"b is {b.shape[0]}x{b.shape[1]}"
        )
    return a @ b


def svd(a) -> SvdResult:
    """Thin singular value decomposition of a dense matrix.

    Raises NumericalError (with the matrix dimensions in the message) if the
    underlying iteration fails to converge.
    """
    a = as_matrix(a, "a")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD did not converge for {a.shape[0]}x{a.shape[1]} matrix: {exc}"
        ) from exc
    return SvdResult(u=u, singular_values=s, vt=vt)


def solve_least_squares(design, targets, ridge: float = 0.0) -> np.ndarray:
    """Solve ``min_A ||targets - design @ A||_F^2 + ridge * ||A||_F^2``.

    With ridge = 0 this returns the pseudo-inverse (minimum-norm) solution;
    a rank-deficient design then emits RankDeficiencyWarning. A design with
    fewer rows than columns is underdetermined and also warns.
    """
    design = as_matrix(design, "design")
    targets = as_matrix(targets, "targets")
    if design.shape[0] != targets.shape[0]:
        raise ShapeError(
            f"design has {design.shape[0]} rows but targets has {targets.shape[0]}"
        )
    if ridge < 0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    if design.shape[0] < design.shape[1]:
        warnings.warn(
            f"design has fewer rows ({design.shape[0]}) than columns "
            f"({design.shape[1]}); the solution is underdetermined",
            RankDeficiencyWarning,
            stacklevel=2,
        )

    try:
        if ridge != 0.0:
            # Normal equations are well conditioned once regularized.
            gram = design.T @ design
            gram[np.diag_indices_from(gram)] += ridge
            return np.linalg.solve(gram, design.T @ targets)
        solution, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"least-squares solve failed for {design.shape[0]}x{design.shape[1]} "
            f"design (ridge {ridge}): {exc}"
        ) from exc
    if rank < design.shape[1]:
        warnings.warn(
            f"design is rank deficient (rank {rank} < {design.shape[1]} "
            "columns); returning the minimum-norm solution",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    return solution


def im2col(image, k: int, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Rearrange k x k sliding windows of a C x H x W map into matrix rows.

    Returns an (H_out * W_out) x (C * k * k) matrix; see the module docstring
    for the fixed row/column ordering. Out-of-bounds positions introduced by
    zero padding contribute zeros.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3:
        raise ShapeError(f"image must be C x H x W, got {image.ndim}-D")
    if k < 1:
        raise ShapeError(f"kernel size must be >= 1, got {k}")
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ShapeError(f"pad must be >= 0, got {pad}")

    c, h, w = image.shape
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w + 2 * pad - k) // stride + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(
            f"degenerate output size {h_out}x{w_out} for input {h}x{w}, "
            f"k={k}, stride={stride}, pad={pad}"
        )

    if pad > 0:
        padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
        padded[:, pad : pad + h, pad : pad + w] = image
    else:
        padded = image

    # One strided slice per kernel offset; cheaper than gathering per window.
    cols = np.empty((c, k, k, h_out, w_out), dtype=np.float64)
    for ki in range(k):
        for kj in range(k):
            cols[:, ki, kj] = padded[
                :,
                ki : ki + stride * h_out : stride,
                kj : kj + stride * w_out : stride,
            ]
    return cols.transpose(3, 4, 0, 1, 2).reshape(h_out * w_out, c * k * k)


def numerical_rank(a, rel_threshold: float = 1e-8) -> int:
    """Count singular values above rel_threshold times the largest one."""
    s = svd(a).singular_values
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_threshold * s[0]))
