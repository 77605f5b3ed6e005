"""Dense matrix kernels: SVD, rank-n factors, least-squares statistics, windows.

All routines take and return plain numpy arrays and compute in float64,
regardless of the precision weights were stored in. Shapes are validated at
the boundary so callers higher up the pipeline can assume clean inputs.

Patch layout is fixed. ``_fill_tile`` gives the k x k patches of output
rows start..stop of a C x H x W map padded once by ``_pad_into``, as a
(C*k*k) x ((stop - start)*W_out) matrix: row ``c*k*k + ki*k + kj`` holds
channel ``c``, kernel row ``ki``, kernel column ``kj`` (channel-major), and
column ``(oy - start)*W_out + ox`` the output position. The rows of any
channel range are one contiguous block, which is what lets a group conv take
one group's patches as a reshape, and the tiles of consecutive row ranges,
side by side, are the patch matrix of the whole map. Serialized
decompositions rely on this ordering; do not change it. ``_window_views``
is the one place a window is sliced: it yields the k*k strided views of a
padded map that ``_fill_tile`` copies and pooling reduces.

``_on_every_cpu`` is the one way work runs on several CPUs: decompose's
block factors and ``model._run``, which runs every layer of a batch. Code
run in a share calls only the private functions here
(``_leading_factors``, ``_pad_into``, ``_fill_tile``, ``_window_views``).
"""

from __future__ import annotations

import math
import os
import warnings
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

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


def _svd(a, compute_uv: bool):
    arr = as_matrix(a, "a")
    try:
        return np.linalg.svd(arr, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD did not converge for {arr.shape[0]}x{arr.shape[1]} matrix: {exc}") from exc


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin singular value decomposition ``(u, s, vt)`` of a dense matrix
    that ``as_matrix`` accepts, ``s`` descending. Raises NumericalError
    (with the matrix's shape in the message) if the underlying iteration
    fails to converge.
    """
    return _svd(a, True)


def singular_values(a) -> np.ndarray:
    """``svd``'s descending ``s`` alone, with its checks and NumericalError."""
    return _svd(a, False)


def _leading_factors(stack: np.ndarray, n: int, d: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Write the rank-n truncation D @ P of each m x c matrix W of a finite,
    non-empty (b, m, c) float64 stack into the caller's views, D^T into
    ``d`` (b, r, m) and P into ``p`` (b, r, c), r = min(n, m, c), as a thin
    SVD gives them (D = U sigma, P = V^T) up to signs and rounding, and
    return the truncation errors (b,). Tall W: V from the eigenvectors of
    the Gram matrix W^T W, D^T = V^T W^T. Wide W: U from those of W W^T and
    Y = U^T W, whose rows Y / sigma would lose their orthogonality as sigma
    falls, so P = Q^T and D^T = R U^T from Y^T = Q R, diag(R) >= 0. An error
    is the square root of the sum of the discarded eigenvalues, each clipped
    at 0. Each matrix gets the same bits in any stack. No D or P is staged,
    and the Gram matrix is freed once ``eigh`` has read it. Private, as
    worker threads call it (``_on_every_cpu``).
    """
    tall, stack_t = stack.shape[1] >= stack.shape[2], stack.transpose(0, 2, 1)
    try:
        eigenvalues, vectors = np.linalg.eigh(stack_t @ stack if tall else stack @ stack_t)
    except np.linalg.LinAlgError as exc:
        shape = "x".join(map(str, stack.shape))
        raise NumericalError(
            f"eigendecomposition did not converge for {shape} stack: {exc}") from exc
    r = min(n, vectors.shape[-1])
    leading = np.flip(vectors[..., -r:], -1)
    if tall:
        np.matmul(leading.transpose(0, 2, 1), stack_t, out=d)
        p[...] = leading.transpose(0, 2, 1)
    else:
        q, upper = np.linalg.qr(stack_t @ leading)
        signs = np.where(np.diagonal(upper, axis1=1, axis2=2) < 0, -1.0, 1.0)[..., None]
        np.matmul(upper * signs, leading.transpose(0, 2, 1), out=d)
        np.multiply(q.transpose(0, 2, 1), signs, out=p)
    return np.sqrt(np.sum(np.clip(eigenvalues[:, :-r], 0.0, None), axis=1))


class LeastSquares:
    """The problem ``min_A ||T - X A||_F^2 + ridge * ||A||_F^2`` of a design X
    (rows x ``columns``) and targets T, kept as statistics of their rows,
    which ``add`` takes one block at a time. The statistics' bits depend on
    the blocks' bits and order only, not on where the blocks came from.

    ``exact`` keeps the R factor of a TSQR of [X | T] (Demmel et al., SIAM
    J. Sci. Comput. 2012): each block is factored with the R so far, and
    ``solve`` (ridge 0) runs ``lstsq`` on R's X and T columns. That is the
    stacked problem's minimizer, without squaring X's condition number, and
    its rank test is the stacked X's: singular values at most eps *
    max(rows, columns) times the largest count as zero. A rank-deficient X
    gives the minimum-norm solution and a RankDeficiencyWarning. Otherwise
    it keeps the Gram matrix X^T X (``gram``) and X^T T, and ``solve`` takes
    the normal equations, which are well conditioned once regularized. At
    ridge 0 (the default ridge of an all-zero Y*, say) it takes ``lstsq`` of
    the Gram matrix at the same rcond, which then tests squared singular
    values."""

    def __init__(self, columns: int, exact: bool):
        self.columns, self.exact, self.rows = columns, exact, 0
        self.r = self.gram = self.cross = None

    def add(self, design: np.ndarray, targets: np.ndarray) -> None:
        """Add rows of X (``design``) and the same rows of T (``targets``)."""
        if self.exact:
            block = np.hstack([design, targets])
            self.r = np.linalg.qr(block if self.r is None else np.vstack([self.r, block]),
                                  mode="r")
        elif self.gram is None:
            self.gram, self.cross = design.T @ design, design.T @ targets
        else:
            self.gram += design.T @ design
            self.cross += design.T @ targets
        self.rows += design.shape[0]

    def solve(self, ridge: float) -> np.ndarray:
        """The minimizer A, columns x targets; NumericalError if LAPACK fails."""
        check_ridge(ridge)
        if self.exact and ridge:
            raise ValueError(f"an exact (TSQR) solve takes ridge 0, got {ridge}")
        p = self.columns
        try:
            if ridge:
                gram = self.gram.copy()
                gram[np.diag_indices_from(gram)] += ridge
                return np.linalg.solve(gram, self.cross)
            lhs, rhs = (self.r[:, :p], self.r[:, p:]) if self.exact else (self.gram, self.cross)
            rcond = np.finfo(np.float64).eps * max(self.rows, p)
            solution, _, rank, _ = np.linalg.lstsq(lhs, rhs, rcond=rcond)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"least-squares solve failed for {self.rows}x{p} design (ridge {ridge}): {exc}"
            ) from exc
        if rank < p:
            warnings.warn(
                f"design is rank deficient (rank {rank} < {p} columns); "
                "returning the minimum-norm solution",
                RankDeficiencyWarning,
                stacklevel=2,
            )
        return solution


def check_ridge(ridge: float) -> float:
    """``ridge`` if it is a finite number >= 0, else ValueError."""
    if not (math.isfinite(ridge) and ridge >= 0):
        raise ValueError(f"ridge must be a finite number >= 0, got {ridge}")
    return ridge


def _pad_buffer(shape: tuple, pad: int, fill: float) -> np.ndarray | None:
    """Scratch for ``_pad_into``: a C x (H + 2 pad) x (W + 2 pad) array of
    ``fill`` for C x H x W maps, or None for pad = 0."""
    if pad == 0:
        return None
    c, h, w = shape
    return np.full((c, h + 2 * pad, w + 2 * pad), fill)


def _pad_into(image: np.ndarray, padded: np.ndarray | None, pad: int) -> np.ndarray:
    """The C x H x W ``image`` framed by ``pad`` rows and columns on each
    side: written into the inside of ``padded`` (a ``_pad_buffer``, whose
    frame of fill values is never written), or ``image`` itself for
    pad = 0."""
    if pad == 0:
        return image
    c, h, w = image.shape
    padded[:, pad : pad + h, pad : pad + w] = image
    return padded


def _window_views(padded: np.ndarray, k: int, stride: int, start: int, stop: int):
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


def _fill_tile(buffer: np.ndarray, padded: np.ndarray, k: int, stride: int, start: int,
               stop: int) -> np.ndarray:
    """The patches of output rows start..stop of a map padded by
    ``_pad_into``, in the layout of the module docstring: a (C * k * k) x
    ((stop - start) * W_out) matrix written into the leading values of the
    1-D float64 ``buffer`` and returned as a C-contiguous view of them. It
    reads padded rows start*stride .. (stop - 1)*stride + k - 1 only."""
    c, w = padded.shape[0], padded.shape[2]
    rows, w_out = stop - start, (w - k) // stride + 1
    tile = buffer[: c * k * k * rows * w_out].reshape(c, k * k, rows, w_out)
    for offset, view in enumerate(_window_views(padded, k, stride, start, stop)):
        tile[:, offset] = view
    return tile.reshape(c * k * k, -1)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_every_cpu(count: int, work: Callable, scratch: Callable = tuple) -> None:
    """Call ``work(lo, hi, *scratch())`` on one contiguous share lo..hi of
    range(count) per usable CPU, or one per item when there are fewer items,
    all at the same time. The calling thread calls ``scratch`` for every
    share, then works on the first share and a worker thread on each other
    one, so one share starts no thread. (Scratch made on a worker thread
    would stay resident in that thread's glibc malloc arena once freed, out
    of the calling thread's reach: 7 MB more peak RSS in a resnet34
    reconstruction at N = 4, the stem pool's padded sample.) It returns
    once every share has finished, also when one raises, and then raises
    the calling thread's error, else the first failed worker's. ``work``
    writes only into arrays it is given, and calls only private functions:
    a span tracer that wraps every public function keeps one span stack per
    process, which concurrent calls would break. Its callers are
    ``model._run``, for each layer of a batch, and
    ``decompose.decompose_layer``."""
    parts = max(1, min(_usable_cpus(), count))
    shares = [(count * i // parts, count * (i + 1) // parts, *scratch()) for i in range(parts)]
    if parts == 1:
        work(*shares[0])
        return
    with ThreadPoolExecutor(parts - 1) as pool:
        # The pool starts one thread per submitted share, and leaving the
        # block waits for every share, also when one fails.
        rest = [pool.submit(work, *share) for share in shares[1:]]
        work(*shares[0])
        for future in rest:
            future.result()


def numerical_rank(a, rel_threshold: float = 1e-8) -> int:
    """Count singular values above rel_threshold times the largest one."""
    s = singular_values(a)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_threshold * s[0]))
