"""Dense matrix kernels: multiply, SVD, linear least squares, windows.

All routines take and return plain numpy arrays and compute in float64,
regardless of the precision weights were stored in. Shapes are validated at
the boundary so callers higher up the pipeline can assume clean inputs.

Patch layout is fixed. ``patch_tile`` gives the k x k patches of output
rows start..stop of a C x H x W map padded once by ``pad_map``, as a
(C*k*k) x ((stop - start)*W_out) matrix: row ``c*k*k + ki*k + kj`` holds
channel ``c``, kernel row ``ki``, kernel column ``kj`` (channel-major), and
column ``(oy - start)*W_out + ox`` the output position. The rows of any
channel range are one contiguous block, which is what lets a group conv take
one group's patches as a reshape, and the tiles of consecutive row ranges,
side by side, are the patch matrix of the whole map. Serialized
decompositions rely on this ordering; do not change it. ``window_views`` is
the one place a window is sliced: it yields the k*k strided views of a
padded map that ``patch_tile`` copies and pooling reduces.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, RankDeficiencyWarning, ShapeError


def _check_entries(arr: np.ndarray, name: str) -> np.ndarray:
    if min(arr.shape) < 1:
        raise ShapeError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} contains non-finite entries")
    return arr


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a validated 2-D float64 array (finite, non-empty)."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got {arr.ndim}-D")
    return _check_entries(arr, name)


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``a = u @ diag(singular_values) @ vt`` of a matrix, or of
    each matrix in a stack.

    For an m x n matrix ``u`` is m x r and ``vt`` is r x n with r = min(m, n);
    a stack (..., m, n) adds its leading axes to all three factors, and
    ``rank``, ``truncate`` and ``reconstruct`` act on the trailing axes.
    Singular values are sorted descending and nonnegative.
    """

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray

    @property
    def rank(self) -> int:
        return self.singular_values.shape[-1]

    def truncate(self, rank: int) -> "SvdResult":
        """Keep the leading ``rank`` singular triplets."""
        if not 1 <= rank <= self.rank:
            raise ShapeError(f"rank must be in [1, {self.rank}], got {rank}")
        return SvdResult(
            u=self.u[..., :rank],
            singular_values=self.singular_values[..., :rank],
            vt=self.vt[..., :rank, :],
        )

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.singular_values[..., None, :]) @ self.vt


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
    """Thin singular value decomposition of a dense matrix, or of every
    matrix in a stack (..., m, n), in one LAPACK call.

    Each matrix of a stack gets exactly the factors, to the bit, that it
    would get alone. Raises NumericalError (with the array's shape in the
    message) if the underlying iteration fails to converge.
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim < 2:
        raise ShapeError(f"a must be a matrix or a stack of matrices, got {arr.ndim}-D")
    _check_entries(arr, "a")
    try:
        u, s, vt = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        shape = "x".join(map(str, arr.shape))
        kind = "matrix" if arr.ndim == 2 else "stack"
        raise NumericalError(f"SVD did not converge for {shape} {kind}: {exc}") from exc
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


def pad_map(image, pad: int, fill: float = 0.0) -> np.ndarray:
    """A C x H x W map framed by ``pad`` rows and columns of ``fill`` on each
    side, as a fresh array; for pad = 0, the map itself."""
    image = np.asarray(image, dtype=np.float64)
    if pad == 0:
        return image
    c, h, w = image.shape
    padded = np.full((c, h + 2 * pad, w + 2 * pad), fill)
    padded[:, pad : pad + h, pad : pad + w] = image
    return padded


def window_views(padded: np.ndarray, k: int, stride: int, start: int, stop: int):
    """Yield the k * k strided views of a padded C x H x W map that hold
    kernel offset (ki, kj) of every k x k window of output rows start..stop,
    each a C x (stop - start) x W_out view, in (ki, kj) row-major order.
    Output row r reads padded rows r*stride .. r*stride + k - 1. The layers
    check the window geometry (``model._Window``)."""
    rows, w_out = stop - start, (padded.shape[2] - k) // stride + 1
    # One strided slice per kernel offset; cheaper than gathering per window.
    for ki in range(k):
        for kj in range(k):
            top = start * stride + ki
            yield padded[:, top : top + stride * rows : stride, kj : kj + stride * w_out : stride]


def patch_tile(padded, k: int, stride: int, start: int, stop: int) -> np.ndarray:
    """The patches of output rows start..stop of a map already padded by
    ``pad_map``, as a fresh C-contiguous (C * k * k) x ((stop - start) *
    W_out) matrix in the layout of the module docstring. The tile reads
    padded rows start*stride .. (stop - 1)*stride + k - 1 only."""
    padded = np.asarray(padded, dtype=np.float64)
    c, h, w = padded.shape
    h_out = (h - k) // stride + 1
    if not 0 <= start < stop <= h_out:
        raise ShapeError(f"output rows {start}..{stop} are not a range of 0..{h_out}")
    tile = np.empty((c, k * k, stop - start, (w - k) // stride + 1))
    for offset, view in enumerate(window_views(padded, k, stride, start, stop)):
        tile[:, offset] = view
    return tile.reshape(c * k * k, -1)


def numerical_rank(a, rel_threshold: float = 1e-8) -> int:
    """Count singular values above rel_threshold times the largest one."""
    s = svd(a).singular_values
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_threshold * s[0]))
