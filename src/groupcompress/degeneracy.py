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

    def to_row(self) -> dict:
        return asdict(self)


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
    return energy_curve(linalg.svd(composed)[1], mode=mode)


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
    channel j. With ``block_size`` set, in-block entries are those where both
    channels fall in the same filter group.
    """

    matrix: np.ndarray
    zero_variance_channels: list[tuple[str, int]]
    block_size: int | None = None
    mean_in_block: float | None = None
    mean_out_block: float | None = None


def filter_correlation(
    point_responses,
    group_responses,
    block_size: int | None = None,
) -> CorrelationReport:
    """Correlate channel activations of a group conv with those of the
    preceding pointwise conv, over aligned (samples x positions) rows.

    Zero-variance channels yield zero correlation and are flagged rather
    than propagating NaNs.
    """
    point = linalg.as_matrix(point_responses, "point_responses")
    group = linalg.as_matrix(group_responses, "group_responses")
    if point.shape[0] != group.shape[0]:
        raise ValueError(
            f"row counts differ: {point.shape[0]} vs {group.shape[0]} "
            "(responses must come from the same calibration rows)"
        )
    flagged: list[tuple[str, int]] = []

    def standardize(mat, label):
        centered = mat - mat.mean(axis=0)
        std = centered.std(axis=0)
        dead = std == 0.0
        for idx in np.flatnonzero(dead):
            flagged.append((label, int(idx)))
        std[dead] = 1.0
        out = centered / std
        out[:, dead] = 0.0
        return out

    zp = standardize(point, "point")
    zg = standardize(group, "group")
    corr = np.abs(zg.T @ zp) / point.shape[0]

    mean_in = mean_out = None
    if block_size is not None:
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        gi = np.arange(corr.shape[0])[:, None] // block_size
        pj = np.arange(corr.shape[1])[None, :] // block_size
        in_mask = gi == pj
        mean_in = float(corr[in_mask].mean())
        mean_out = float(corr[~in_mask].mean()) if (~in_mask).any() else 0.0
    return CorrelationReport(
        matrix=corr,
        zero_variance_channels=flagged,
        block_size=block_size,
        mean_in_block=mean_in,
        mean_out_block=mean_out,
    )


def write_csv(path, header: list | None, rows) -> Path:
    """Write ``header`` (None: no header row) and then ``rows`` as CSV."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)
    return path


def write_energy_csv(path, curve: EnergyCurve) -> Path:
    return write_csv(path, ["index", "sigma", "cumulative_energy"], (
        [i, repr(float(s)), repr(float(e))]
        for i, (s, e) in enumerate(zip(curve.singular_values, curve.cumulative_energy))
    ))


def write_rank_report_csv(path, reports: list[StrategyRankReport], labels: list[str]) -> Path:
    """One row per report, in the column ``layer`` its label."""
    header = ["layer"] + list(reports[0].to_row()) if reports else ["layer"]
    return write_csv(path, header, (
        [label, *report.to_row().values()] for label, report in zip(labels, reports)
    ))


def write_correlation_csv(path, report: CorrelationReport) -> Path:
    return write_csv(path, None, ([repr(float(v)) for v in row] for row in report.matrix))
