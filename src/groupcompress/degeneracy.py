"""Rank and spectrum diagnostics for compressed layers.

For a linear layer the input-output Jacobian is the weight matrix itself,
and for a decomposed pair it is the product of the two weight matrices. A
rank-deficient Jacobian throttles gradient flow, so we compare three
decomposition strategies at equal FLOPs:

* channel SVD truncated to c_d components: Jacobian rank c_d,
* spatial split into k x 1 and 1 x k filters with c_d' intermediate
  channels: rank min(c_d' * k, c_out),
* filter-group + pointwise (this package): rank min(c_in, c_out),
  independent of how hard the layer is compressed.

Equal-FLOPs widths:

    c_d      = (c_in k^2 n + c_in c_out) / (c_in k^2 + c_out)
    c_d' k   = (c_in k^2 n + c_in c_out) / (c_in + c_out)

Widths are reported as reals. An integer rank floors them, and is at most
the rank bound min(c_in k^2, c_out) of the weight matrix.
The comparisons R1 < R_ours (for n < c_in) and R2 < R_ours (for
n < c_in / k^2) assume the usual regime c_in <= c_out < c_in k^2 with k > 1.

Filter correlations are per-sample statistics (``ChannelCorrelation``), so
their bits do not depend on the CPU count: ``tools/output_digests.py``'s
one-CPU rerun of ``analyze --correlation`` checks that.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import linalg
from .errors import ShapeError
from .model import flops_ratio_fraction


@dataclass(frozen=True)
class StrategyRankReport:
    c_in: int
    c_out: int
    k: int
    n: int
    flops_ratio: float
    c_d: float
    c_d_prime_k: float
    rank_svd: int
    rank_spatial: int
    rank_group: int


def equal_flops_ranks(c_in: int, c_out: int, k: int, n: int) -> StrategyRankReport:
    """Jacobian ranks of the three strategies at the same compression ratio."""
    if min(c_in, c_out, k, n) < 1:
        raise ValueError("dimensions must be positive")
    numerator = c_in * k * k * n + c_in * c_out
    c_d = numerator / (c_in * k * k + c_out)
    c_d_prime_k = numerator / (c_in + c_out)
    return StrategyRankReport(
        c_in=c_in,
        c_out=c_out,
        k=k,
        n=n,
        flops_ratio=float(flops_ratio_fraction(c_out, k, n)),
        c_d=c_d,
        c_d_prime_k=c_d_prime_k,
        rank_svd=min(int(np.floor(c_d)), c_in * k * k, c_out),
        rank_spatial=min(int(np.floor(c_d_prime_k)), c_out),
        rank_group=min(c_in, c_out),
    )


@dataclass(frozen=True)
class EnergyCurve:
    """Cumulative spectral energy of a (possibly composed) weight matrix.

    ``cumulative_energy[i]`` is the fraction of total energy carried by the
    leading i+1 singular values; it is nondecreasing and ends at 1.
    """

    singular_values: np.ndarray
    cumulative_energy: np.ndarray
    mode: str = "squared"


def energy_curve(singular_values, mode: str = "squared") -> EnergyCurve:
    """Build the curve from a descending spectrum.

    ``mode="squared"`` accumulates sigma^2 (variance explained, the
    default); ``mode="sigma"`` accumulates plain singular values.
    """
    s = np.asarray(singular_values, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("singular_values must be a non-empty 1-D array")
    if np.any(s < 0) or np.any(np.diff(s) > 0):
        raise ValueError("singular_values must be nonnegative and descending")
    if mode == "squared":
        weights = s**2
    elif mode == "sigma":
        weights = s
    else:
        raise ValueError(f"mode must be 'squared' or 'sigma', got {mode!r}")
    total = float(weights.sum())
    if total == 0.0:
        raise ShapeError("zero matrix has no energy curve")
    return EnergyCurve(
        singular_values=s, cumulative_energy=np.cumsum(weights) / total, mode=mode
    )


def jacobian_energy_curve(*matrices, mode: str = "squared") -> EnergyCurve:
    """Energy curve of a layer's Jacobian.

    Pass one matrix for a plain layer or several to compose a decomposed
    chain (e.g. the assembled D and P); the Jacobian of the linear chain is
    their product.
    """
    if not matrices:
        raise ValueError("need at least one matrix")
    composed = linalg.as_matrix(matrices[0], "matrix")
    for m in matrices[1:]:
        m = linalg.as_matrix(m, "matrix")
        if composed.shape[1] != m.shape[0]:
            raise ShapeError(
                f"inner dimensions differ: {composed.shape[0]}x{composed.shape[1]} "
                f"times {m.shape[0]}x{m.shape[1]}"
            )
        composed = composed @ m
    return energy_curve(linalg.singular_values(composed), mode=mode)


def strategy_energy_curves(weight_matrix, d_matrix, p_matrix, rank_svd: int, mode="squared"):
    """The ``EnergyCurve``s of one decomposed conv: of its weight matrix W, of
    the assembled D times P, and of W's rank-``rank_svd`` truncation (the
    channel-SVD baseline). By Eckart-Young the truncation's spectrum is W's
    leading ``rank_svd`` singular values, then exact zeros, so each matrix
    is factored once, for its singular values alone."""
    s = linalg.singular_values(weight_matrix)
    if not 1 <= rank_svd <= s.size:
        raise ShapeError(f"rank must be in [1, {s.size}], got {rank_svd}")
    baseline = np.concatenate([s[:rank_svd], np.zeros(s.size - rank_svd)])
    return (energy_curve(s, mode), jacobian_energy_curve(d_matrix, p_matrix, mode=mode),
            energy_curve(baseline, mode))


def svd_strategy_matrix(weight_matrix, rank: int) -> np.ndarray:
    """Rank-``rank`` truncation of a weight matrix (the channel-SVD baseline)."""
    u, s, vt = linalg.svd(weight_matrix)
    if not 1 <= rank <= s.size:
        raise ShapeError(f"rank must be in [1, {s.size}], got {rank}")
    return (u[:, :rank] * s[:rank]) @ vt[:rank]


@dataclass
class CorrelationReport:
    """Absolute Pearson correlations between two layers' channel activations.

    ``matrix[i, j]`` correlates group-output channel i with pointwise-output
    channel j. In-block entries are those where both channels fall in the
    same filter group.
    """

    matrix: np.ndarray
    zero_variance_channels: list[tuple[str, int]]
    mean_in_block: float
    mean_out_block: float


class ChannelCorrelation:
    """Correlations of a group conv's output channels with those of the
    pointwise output it reads, kept as statistics of aligned rows that
    ``add`` takes a block at a time: the row count, each channel's mean and
    centered sum of squares, and the centered cross products. Each block is
    merged in by the update of Chan, Golub and LeVeque ("Algorithms for
    computing the sample variance", 1983): the bits depend on the blocks'
    bits and order only."""

    count, mean, squares, cross = 0, None, None, None

    def add(self, group_rows: np.ndarray, point_rows: np.ndarray) -> None:
        """Add rows (rows x channels) of the group and pointwise outputs;
        ValueError if their row counts differ."""
        rows, split = np.hstack([group_rows, point_rows]), group_rows.shape[1]
        mean = rows.mean(axis=0)
        centered = rows - mean
        squares = np.einsum("ij,ij->j", centered, centered)
        squares[np.ptp(rows, axis=0) == 0] = 0.0  # a constant's mean may be inexact
        cross = centered[:, :split].T @ centered[:, split:]
        if self.count:
            total = self.count + len(rows)
            shift, weight = mean - self.mean, self.count * len(rows) / total
            mean = self.mean + shift * (len(rows) / total)
            squares += self.squares + shift * shift * weight
            cross += self.cross + np.outer(shift[:split], shift[split:]) * weight
        self.count += len(rows)
        self.mean, self.squares, self.cross = mean, squares, cross

    def report(self, block_size: int) -> CorrelationReport:
        """The absolute correlations and their means in and out of filter
        groups of ``block_size`` channels. A zero-variance channel
        correlates 0 with every channel and is flagged, pointwise first."""
        if not np.all(np.isfinite(self.cross)):
            raise ShapeError("channel activations contain non-finite entries")
        group, point = np.split(np.sqrt(self.squares), [len(self.cross)])
        flagged = [(label, int(i)) for label, roots in (("point", point), ("group", group))
                   for i in np.flatnonzero(roots == 0.0)]
        scale = np.outer(group, point)
        corr = np.divide(np.abs(self.cross), scale, out=np.zeros_like(scale), where=scale > 0)
        in_block = np.equal.outer(np.arange(len(group)) // block_size,
                                  np.arange(len(point)) // block_size)
        mean_out = float(corr[~in_block].mean()) if (~in_block).any() else 0.0
        return CorrelationReport(corr, flagged, float(corr[in_block].mean()), mean_out)


def write_csv(path, header: list | None, rows) -> Path:
    """Write ``header`` (None: no header row), then ``rows``, as CSV to
    ``path``, in ``analyze`` a temporary file of one ``write_atomically`` set."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)
    return Path(path)


def write_energy_csv(path, curve: EnergyCurve) -> Path:
    return write_csv(path, ["index", "sigma", "cumulative_energy"], (
        [i, repr(float(s)), repr(float(e))]
        for i, (s, e) in enumerate(zip(curve.singular_values, curve.cumulative_energy))
    ))


def write_rank_report_csv(path, reports: list[StrategyRankReport], labels: list[str]) -> Path:
    """One row per report, in the column ``layer`` its label."""
    header = ["layer"] + list(asdict(reports[0])) if reports else ["layer"]
    return write_csv(path, header, (
        [label, *asdict(report).values()] for label, report in zip(labels, reports)
    ))


def write_correlation_csv(path, report: CorrelationReport) -> Path:
    return write_csv(path, None, ([repr(float(v)) for v in row] for row in report.matrix))
