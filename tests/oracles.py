"""Independent reference implementations used to check the library.

These are deliberately naive (triple loops, eigendecompositions, explicit
pseudo-inverses), or the slower kernels a faster one replaced, and share
no code with the package under test. The exceptions are
``solve_least_squares``, the stacked solver that ``linalg.LeastSquares``
replaced: it reuses the package's input checks (``as_matrix``,
``check_ridge``);
``per_layer_reconstruction``, the loop the one-pass reconstruction
replaced, with the stacked solve (``stacked_reconstruction_solve``) that
the per-sample statistics replaced: it reuses the package's responses and
merge, and checks the walk and the statistics;
``residual_pass_reconstruction``, the pair loop before the residual came
from the merged P's output: it reuses the package's walks, statistics and
merge, and checks the residuals and what deeper pairs read after a
fallback;
``unshared_walk``, the walk before forks and in-place layers: it reuses
the package's layer step, and checks the walk's sharing rules; and
``eager_decompose_network``, the decomposition before pairs were factored
on first use: it reuses the package's ``decompose_layer``, and checks
when and how often a pair is factored. ``staged_leading_factors`` and
``staged_decompose`` are the block factoring before it wrote its factors in
place: they share no code with the package, and check that the in-place
factors have the same bits. ``full_svd_energy_curves`` is ``analyze``'s
spectra before it took singular values alone: a full SVD of W, of its
rank-r truncation (``svd_strategy_matrix``) and of D times P, through the
package's ``energy_curve``. ``stack_taps`` and ``filter_correlation`` are
``analyze --correlation`` before it kept per-sample statistics: one walk of
the whole batch that stacks every tap's rows (``model._Walk``), and the
correlation of two whole row stacks (returning the package's
``CorrelationReport``). ``whole_batch_collect_responses`` is
``collect_responses`` before it walked the set's chunks: one pair of walks
(``reconstruct._walks``) of the whole batch. ``read_arrays`` is the
package's copy-on-read of a parameter record before ``model.reading``
became the one way to read a record for one use.
"""

import math
import os
import warnings
from dataclasses import replace

import numpy as np

from groupcompress import linalg
from groupcompress.decompose import decompose_layer, decomposed_pairs
from groupcompress.degeneracy import CorrelationReport, energy_curve, svd_strategy_matrix
from groupcompress.errors import NumericalError, RankDeficiencyWarning, ShapeError
from groupcompress.linalg import LeastSquares, _usable_cpus, as_matrix, check_ridge
from groupcompress.model import (
    Deferred, LayerSpec, NetworkSpec, _run, _Walk, array_fields, layer_inputs, response_rows,
)
from groupcompress.reconstruct import (
    ReconstructionFit,
    _chunk_outputs,
    _design,
    _mixing,
    _pair_outputs,
    _walks,
    collect_responses,
    default_ridge,
    merge_pointwise_weights,
)


def read_arrays(params):
    """A copy of the parameter record ``params`` with every array read. A
    ``Deferred`` array is read into the copy alone and stays deferred in
    ``params``: it is freed with the copy."""
    return replace(params, **{
        name: value.read() if isinstance(value, Deferred) else value
        for name, _, _, value in array_fields(params)
    })


def singular_values_via_gram(a):
    """Singular values as square roots of eigenvalues of A^T A (descending)."""
    a = np.asarray(a, dtype=np.float64)
    gram = a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
    eigvals = np.linalg.eigvalsh(gram)
    eigvals = np.clip(eigvals, 0.0, None)
    return np.sqrt(eigvals[::-1])


def pinv_solve(design, targets):
    """Least-squares solution through an explicit SVD pseudo-inverse."""
    design = np.asarray(design, dtype=np.float64)
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    cutoff = max(design.shape) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    inv_s = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return vt.T @ (inv_s[:, None] * (u.T @ np.asarray(targets, dtype=np.float64)))


def solve_least_squares(design, targets, ridge: float = 0.0) -> np.ndarray:
    """Solve ``min_A ||targets - design @ A||_F^2 + ridge * ||A||_F^2`` on
    the stacked rows: the solver ``linalg.LeastSquares`` replaced.

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
    check_ridge(ridge)
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


def stacked_reconstruction_solve(y, y_star, ridge, intercept=True):
    """The mixing matrix A and bias correction of ``solve_reconstruction``,
    from the stacked rows of Y and Y* through ``solve_least_squares``.
    ``ridge=None`` takes 1e-6 * ||Y*||_F^2 / c_out. Returns A, the
    correction and the ridge used."""
    c_out = y_star.shape[1]
    if ridge is None:
        ridge = 1e-6 * float(np.einsum("ij,ij->", y_star, y_star)) / c_out
    if not intercept:
        return solve_least_squares(y_star, y, ridge=ridge), np.zeros(c_out), ridge
    design = np.hstack([y_star, np.ones((y_star.shape[0], 1))])
    solution = solve_least_squares(design, y, ridge=ridge)
    return solution[:-1], solution[-1], ridge


def direct_conv(image, weights, bias=None, stride=1, pad=0, groups=1):
    """Nested-loop 2-D convolution (cross-correlation, zero padded).

    image:   (c_in, h, w)
    weights: (c_out, c_in // groups, k, k)
    returns: (c_out, h_out, w_out)
    """
    image = np.asarray(image, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    c_in, h, w = image.shape
    c_out, c_in_g, k, _ = weights.shape
    assert c_in % groups == 0 and c_out % groups == 0
    assert c_in_g == c_in // groups

    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w + 2 * pad - k) // stride + 1
    out = np.zeros((c_out, h_out, w_out))
    out_per_group = c_out // groups
    for o in range(c_out):
        g = o // out_per_group
        for oy in range(h_out):
            for ox in range(w_out):
                acc = 0.0
                for ci in range(c_in_g):
                    c = g * c_in_g + ci
                    for ki in range(k):
                        for kj in range(k):
                            iy = oy * stride - pad + ki
                            ix = ox * stride - pad + kj
                            if 0 <= iy < h and 0 <= ix < w:
                                acc += image[c, iy, ix] * weights[o, ci, ki, kj]
                out[o, oy, ox] = acc
        if bias is not None:
            out[o] += bias[o]
    return out


def block_truncation_energy(block, n):
    """Sum of squared discarded singular values after a rank-n cut,
    obtained from the eigenvalues of the Gram matrix (independent of any
    SVD routine in the package)."""
    block = np.asarray(block, dtype=np.float64)
    gram = block.T @ block if block.shape[0] >= block.shape[1] else block @ block.T
    eigvals = np.clip(np.linalg.eigvalsh(gram), 0.0, None)[::-1]
    return float(np.sum(eigvals[n:]))


def per_block_decompose(weights, n):
    """Rank-n factors of an ungrouped conv with weights (c_out, c_in, k, k),
    one SVD per channel block of its (c_in * k^2) x c_out weight matrix:
    D weights (c_in, n, k, k), P weights (c_out, c_in, 1, 1) and the
    per-block truncation errors. Singular values go into D; a block whose
    rank bound min(n * k^2, c_out) is below n is padded with zeros. The
    per-block loop the stacked decomposition replaced, kept as its
    reference."""
    weights = np.asarray(weights, dtype=np.float64)
    c_out, c_in, k, _ = weights.shape
    matrix = weights.reshape(c_out, -1).T
    rows = n * k * k
    d_weights = np.zeros((c_in, n, k, k))
    p_matrix = np.zeros((c_in, c_out))
    errors = np.zeros(c_in // n)
    for i in range(c_in // n):
        u, s, vt = np.linalg.svd(matrix[i * rows : (i + 1) * rows], full_matrices=False)
        kept = min(n, s.shape[0])
        d_block = u[:, :kept] * s[:kept]
        p_block = vt[:kept]
        if kept < n:
            d_block = np.hstack([d_block, np.zeros((rows, n - kept))])
            p_block = np.vstack([p_block, np.zeros((n - kept, c_out))])
        # Column m of d_block is the filter for output channel i*n + m.
        d_weights[i * n : (i + 1) * n] = d_block.T.reshape(n, n, k, k)
        p_matrix[i * n : (i + 1) * n] = p_block
        errors[i] = float(np.sqrt(np.sum(s[n:] ** 2)))
    return d_weights, p_matrix.T.reshape(c_out, c_in, 1, 1), errors


def staged_leading_factors(stack, n):
    """The rank-n truncation D @ P of each m x c matrix W of a finite,
    non-empty (b, m, c) float64 stack: D (b, m, r), P (b, r, c), r = min(n,
    m, c), as a thin SVD gives them up to signs and rounding (D = U sigma,
    P = V^T), and the truncation errors (b,). Tall W: V from the eigenvectors
    of W^T W, D = W V. Wide W: U from those of W W^T and Y = U^T W, whose
    rows Y / sigma would lose their orthogonality as sigma falls, so P = Q^T
    and D = U R^T from Y^T = Q R, diag(R) >= 0. An error is the square root
    of the sum of the discarded eigenvalues, each clipped at 0. Each matrix
    gets the same bits in any stack. The package's ``_leading_factors``
    before it wrote D and P into the caller's arrays, unchanged.
    """
    tall = stack.shape[1] >= stack.shape[2]
    gram = stack.transpose(0, 2, 1) @ stack if tall else stack @ stack.transpose(0, 2, 1)
    try:
        eigenvalues, vectors = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        shape = "x".join(map(str, stack.shape))
        raise NumericalError(
            f"eigendecomposition did not converge for {shape} stack: {exc}") from exc
    r = min(n, gram.shape[-1])
    leading = np.flip(vectors[..., -r:], -1)
    errors = np.sqrt(np.sum(np.clip(eigenvalues[:, : gram.shape[-1] - r], 0.0, None), axis=1))
    if tall:
        return stack @ leading, leading.transpose(0, 2, 1), errors
    q, upper = np.linalg.qr(stack.transpose(0, 2, 1) @ leading)
    signs = np.where(np.diagonal(upper, axis1=1, axis2=2) < 0, -1.0, 1.0)[..., None]
    return leading @ (upper * signs).transpose(0, 2, 1), q.transpose(0, 2, 1) * signs, errors


def staged_decompose(weights, n):
    """D weights (c_in, n, k, k), P weights (c_out, c_in, 1, 1) and block
    truncation errors of an ungrouped conv with weights (c_out, c_in, k, k)
    at rank n, as ``decompose_layer`` made them before it factored in place:
    ``staged_leading_factors`` of the whole block stack, then copied into
    the final layouts, with zeros padding blocks whose rank bound min(n *
    k^2, c_out) is below n."""
    c_out, c_in, k, _ = weights.shape
    blocks = c_in // n
    stack = weights.reshape(c_out, -1).T.reshape(blocks, n * k * k, c_out)
    d, p = np.zeros((c_in, n, k, k)), np.zeros((c_out, c_in, 1, 1))
    d_part, p_part, errors = staged_leading_factors(stack, n)
    kept = p_part.shape[1]
    d.reshape(blocks, n, n * k * k)[:, :kept] = d_part.transpose(0, 2, 1)
    p.reshape(c_out, blocks, n).transpose(1, 2, 0)[:, :kept] = p_part
    return d, p, errors


def im2col_rows(image, k, stride, pad):
    """Patch matrix of one zero-padded (c, h, w) image: one row per output
    position in row-major order; columns run channel-major, then kernel row,
    then kernel column."""
    image = np.asarray(image, dtype=np.float64)
    c, h, w = image.shape
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad))
    padded[:, pad : pad + h, pad : pad + w] = image
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w + 2 * pad - k) // stride + 1
    rows = []
    for oy in range(h_out):
        for ox in range(w_out):
            window = padded[:, oy * stride : oy * stride + k, ox * stride : ox * stride + k]
            rows.append(window.reshape(-1))
    return np.array(rows)


def block_diagonal_matrix(weights, groups):
    """(c_in * k^2) x c_out matrix of a group conv with weights
    (c_out, c_in // groups, k, k); zero outside the diagonal blocks."""
    weights = np.asarray(weights, dtype=np.float64)
    c_out, c_in_g, k, _ = weights.shape
    rows, cols = c_in_g * k * k, c_out // groups
    out = np.zeros((rows * groups, c_out))
    for g in range(groups):
        block = weights[g * cols : (g + 1) * cols].reshape(cols, -1).T
        out[g * rows : (g + 1) * rows, g * cols : (g + 1) * cols] = block
    return out


def symmetric_pair_response(layer_input, d, p):
    """Rows of a (D, P) pair applied to one input map as one dense product,
    im2col(x) @ D @ P + b: the symmetric-reconstruction response. ``d`` is
    the group conv, ``p`` the 1x1 conv (anything with the ConvWeights
    attributes)."""
    patches = im2col_rows(layer_input, d.weights.shape[-1], d.stride, d.pad)
    p_matrix = np.asarray(p.weights, dtype=np.float64).reshape(p.weights.shape[0], -1).T
    out = patches @ block_diagonal_matrix(d.weights, d.groups) @ p_matrix
    return out if p.bias is None else out + p.bias


def per_group_conv(image, weights, bias=None, stride=1, pad=0, groups=1):
    """Group convolution one filter group at a time: a patch matrix and a
    product per group, the groups' columns side by side. The loop the
    batched conv kernel replaced, kept as its reference."""
    image = np.asarray(image, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    c_out, c_in_g, k, _ = weights.shape
    per_out = c_out // groups
    pieces = [
        im2col_rows(image[g * c_in_g : (g + 1) * c_in_g], k, stride, pad)
        @ weights[g * per_out : (g + 1) * per_out].reshape(per_out, -1).T
        for g in range(groups)
    ]
    resp = np.hstack(pieces)
    if bias is not None:
        resp = resp + bias
    h_out = (image.shape[1] + 2 * pad - k) // stride + 1
    w_out = (image.shape[2] + 2 * pad - k) // stride + 1
    return resp.T.reshape(c_out, h_out, w_out)


def chunked_group_conv(image, weights, bias=None, stride=1, pad=0, groups=1):
    """Group convolution in chunks of max(1, c_out // (c_in/groups * k^2))
    groups: each chunk pads its own channels, builds its whole patch matrix
    and runs one batched product, one matrix per group. The chunk rule the
    row-tiled conv kernel replaced, kept as its reference."""
    image = np.asarray(image, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    c_out, c_in_g, k, _ = weights.shape
    per_out, rows = c_out // groups, c_in_g * k * k
    h_out = (image.shape[1] + 2 * pad - k) // stride + 1
    w_out = (image.shape[2] + 2 * pad - k) // stride + 1
    stacked = weights.reshape(groups, per_out, rows)
    out = np.empty((groups, per_out, h_out * w_out))
    chunk = max(1, c_out // rows)
    for g in range(0, groups, chunk):
        end = min(g + chunk, groups)
        padded = np.pad(image[g * c_in_g : end * c_in_g], ((0, 0), (pad, pad), (pad, pad)))
        # (channels, h_out, w_out, k, k) -> (channels, k, k, h_out, w_out)
        windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(1, 2))
        windows = windows[:, ::stride, ::stride].transpose(0, 3, 4, 1, 2)
        np.matmul(stacked[g:end], windows.reshape(end - g, rows, -1), out=out[g:end])
    out = out.reshape(c_out, h_out, w_out)
    return out if bias is None else out + np.asarray(bias)[:, None, None]


def direct_pool(image, k, stride, pad, mode):
    """Nested-loop max or average pooling over a (c, h, w) image. Padded
    positions never win a max and count as zeros in an average."""
    image = np.asarray(image, dtype=np.float64)
    c, h, w = image.shape
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w + 2 * pad - k) // stride + 1
    out = np.empty((c, h_out, w_out))
    for ch in range(c):
        for oy in range(h_out):
            for ox in range(w_out):
                values = [
                    image[ch, iy, ix]
                    for iy in range(oy * stride - pad, oy * stride - pad + k)
                    for ix in range(ox * stride - pad, ox * stride - pad + k)
                    if 0 <= iy < h and 0 <= ix < w
                ]
                out[ch, oy, ox] = max(values) if mode == "max" else sum(values) / (k * k)
    return out


def reference_forward(net, x):
    """One (c, h, w) sample through ``net``, layer by layer: ``per_group_conv``
    and ``direct_pool`` for convolution and pooling, plain numpy for the
    other kinds. The per-sample walk the batched one replaced, kept as its
    reference."""
    outputs, prev = {}, None
    for layer in net.layers:
        in_id = layer.input if layer.input is not None else prev
        value = np.asarray(x, dtype=np.float64) if in_id is None else outputs[in_id]
        if layer.kind == "conv":
            c = layer.conv
            out = per_group_conv(value, c.weights, c.bias, c.stride, c.pad, c.groups)
        elif layer.kind in ("maxpool", "avgpool"):
            p = layer.pool
            out = direct_pool(value, p.k, p.stride, p.pad, layer.kind[:3])
        elif layer.kind == "relu":
            out = np.maximum(value, 0.0)
        elif layer.kind == "add":
            out = value + outputs[layer.source]
        elif layer.kind == "fc":
            out = layer.fc.weights @ value.reshape(-1)
            if layer.fc.bias is not None:
                out = out + layer.fc.bias
        elif layer.kind == "channel_affine":
            a = layer.affine
            out = value * a.scale[:, None, None] + a.shift[:, None, None]
        else:
            raise ValueError(f"no reference for layer kind {layer.kind!r}")
        outputs[layer.id] = out
        prev = layer.id
    return outputs[prev]


class WholeBlobWriter:
    """The blob writer streaming replaced: a little-endian float32 copy of
    every array, all held until one write. It has the interface of
    ``modelio._BlobWriter``, so a test can save through it; it checks no
    value's range."""

    def __init__(self):
        self.chunks = []
        self.offset = 0

    def put(self, array, name):
        if array is None:
            return None
        data = np.ascontiguousarray(array, dtype="<f4")
        entry = {"offset": self.offset, "length": data.nbytes}
        self.chunks.append(data)
        self.offset += data.nbytes
        return entry

    def write(self, fh):
        fh.writelines(self.chunks)


class WholeBlobReader:
    """The blob reader streaming replaced: the whole blob read as one bytes
    object, each tensor converted from it. It has the interface of
    ``modelio._BlobReader`` for well-formed files, so a test can load
    through it."""

    def __init__(self, fh):
        self.raw = fh.read()
        self.size = len(self.raw)

    def get(self, entry, shape, field):
        if entry is None:
            return None
        count = int(np.prod(shape))
        assert entry["length"] == 4 * count, field
        flat = np.frombuffer(self.raw, dtype="<f4", count=count, offset=entry["offset"])
        return flat.astype(np.float64).reshape(shape)


class EagerBlobReader:
    """The blob reader deferred reads replaced: every tensor read at load,
    straight into its float64 array through a float32 buffer of at most
    ``slice_values`` values. It has the interface of ``modelio._BlobReader``
    for well-formed files, so a test can load through it."""

    slice_values = 1 << 20

    def __init__(self, fh):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size

    def get(self, entry, shape, field):
        if entry is None:
            return None
        count = int(np.prod(shape))
        assert entry["length"] == 4 * count, field
        out = np.empty(count)
        buffer = np.empty(min(count, self.slice_values), dtype="<f4")
        self.fh.seek(entry["offset"])
        for start in range(0, count, self.slice_values):
            part = buffer[: count - start]
            assert self.fh.readinto(part) == part.nbytes, field
            out[start : start + len(part)] = part
        return out.reshape(shape)


def unshared_walk(net, xs):
    """Every layer's output batch on the batch ``xs``, by layer id: each
    layer run by ``model._run`` into a new array, and every output kept, so
    that no array is shared or written twice."""
    outputs = {}
    for layer, in_id in zip(net.layers, layer_inputs(net).values()):
        value = np.asarray(xs, dtype=np.float64) if in_id is None else outputs[in_id]
        outputs[layer.id] = _run(layer, value, outputs.get(layer.source))
    return outputs


def per_layer_reconstruction(
    original, compressed, calib, ridge=None, intercept=True, symmetric=False
):
    """Reference for ``reconstruct_network``: for every pair in turn, re-run
    both networks from the input (``collect_responses``), solve on the
    stacked rows (``stacked_reconstruction_solve``) and merge. Returns the
    merged network and each pair's ``ReconstructionFit``."""
    result = NetworkSpec(compressed.name, compressed.input_shape, list(compressed.layers))
    position = {layer.id: i for i, layer in enumerate(result.layers)}
    fits = []
    for pair in decomposed_pairs(compressed, original):
        y, y_star = collect_responses(original, result, calib, pair.source, symmetric=symmetric)
        a, delta, used_ridge = stacked_reconstruction_solve(y, y_star, ridge, intercept)
        before, after = (float(np.sqrt(np.einsum("ij,ij->", gap, gap)))
                         for gap in (y - y_star, y - y_star @ a - delta))
        fallback = after > before
        if not fallback:
            merged = merge_pointwise_weights(pair.p.conv, a, delta)
            result.layers[position[pair.p.id]] = replace(pair.p, conv=merged)
        fits.append(ReconstructionFit(
            before, before if fallback else after, used_ridge, y.shape[0], fallback))
    return result, fits


def residual_pass_reconstruction(
    original, compressed, calib, ridge=None, intercept=True, symmetric=False
):
    """Reference for ``reconstruct_network``: its pair loop before the
    residual came from the merged P's output. The same chunks of samples
    and walks (``reconstruct._walks``) give each chunk's P input, Y and Y*;
    symmetric mode's Y* is the whole pair run on the source conv's input.
    The solve reads every sample's rows into the same statistics; a second
    pass over them sums ||Y - Y*||^2 and ||Y - Y* A - delta||^2. Only a
    kept merge runs, into each chunk's Y* array, and only in the asymmetric
    mode. Returns the merged network and each pair's ``ReconstructionFit``."""
    result = NetworkSpec(compressed.name, compressed.input_shape, list(compressed.layers))
    position = {layer.id: i for i, layer in enumerate(result.layers)}
    per_chunk = _usable_cpus()
    chunks = [_walks(original, compressed, calib.samples[lo : lo + per_chunk], symmetric)
              for lo in range(0, calib.count, per_chunk)]
    fits = []
    for pair in decomposed_pairs(compressed, original):
        outputs = []
        for original_walk, compressed_walk in chunks:
            conv_input, y_output = original_walk.to(pair.source)
            if compressed_walk is None:
                outputs.append((None, y_output, _run(pair.p, _run(pair.d, conv_input))))
            else:
                p_input, star_output = compressed_walk.to(pair.p.id)
                outputs.append((p_input, y_output, star_output))
        rows = [(response_rows(y_output[i : i + 1]), response_rows(star_output[i : i + 1]))
                for _, y_output, star_output in outputs for i in range(len(y_output))]
        c_out = pair.p.conv.c_out
        fit = LeastSquares(c_out + (1 if intercept else 0), exact=ridge == 0)
        for y, y_star in rows:
            fit.add(_design(y_star, intercept), y)
        used_ridge = default_ridge(fit, c_out) if ridge is None else ridge
        a, delta = _mixing(fit.solve(used_ridge), intercept)
        before = after = 0.0
        for y, y_star in rows:
            before += float(np.einsum("ij,ij->", y - y_star, y - y_star))
            rest = y - y_star @ a - delta
            after += float(np.einsum("ij,ij->", rest, rest))
        before, after = math.sqrt(before), math.sqrt(after)
        fallback = after > before
        if fallback:
            after = before
        else:
            merged = replace(pair.p, conv=merge_pointwise_weights(pair.p.conv, a, delta))
            result.layers[position[pair.p.id]] = merged
            if not symmetric:
                for p_input, _, star_output in outputs:
                    _run(merged, p_input, out=star_output)
        fits.append(ReconstructionFit(before, after, used_ridge, fit.rows, fallback))
    return result, fits


def whole_batch_collect_responses(original, compressed, calib, layer_id, symmetric=False):
    """Reference for ``collect_responses``: (Y, Y*) of the pair of
    ``layer_id`` from one pair of walks of the whole batch of samples."""
    if layer_id not in {layer.id for layer in original.conv_layers()}:
        raise ShapeError(f"layer {layer_id!r} not found as a convolution in original network")
    pairs = {pair.source: pair for pair in decomposed_pairs(compressed, original)}
    if layer_id not in pairs:
        raise ShapeError(f"layer {layer_id!r} is not decomposed in the compressed network")
    walks, pair = _walks(original, compressed, calib.samples, symmetric), pairs[layer_id]
    [(y_output, star_output)] = _chunk_outputs(pair.p, [_pair_outputs(*walks, pair)])
    return response_rows(y_output), response_rows(star_output)


def eager_decompose_network(net, layer_ranks, force_pointwise=False):
    """Reference for ``decompose_network``: each planned conv factored at
    once, in network order, with the same layer ids, inputs and provenance,
    and every array of every pair held. Returns the network and each
    source conv's block truncation errors, by id. It checks no input."""
    layers, errors, renamed = [], {}, {}
    for layer in net.layers:
        layer = replace(layer, input=renamed.get(layer.input, layer.input),
                        source=renamed.get(layer.source, layer.source))
        if layer.id not in layer_ranks:
            layers.append(layer)
            continue
        n = layer_ranks[layer.id]
        decomp = decompose_layer(read_arrays(layer.conv), n, force_pointwise)
        provenance = {"decomposed_from": layer.id, "rank_n": n}
        layers += [
            LayerSpec(id=f"{layer.id}.d", kind="conv", stage=layer.stage, input=layer.input,
                      conv=decomp.d_layer, meta=dict(provenance)),
            LayerSpec(id=f"{layer.id}.p", kind="conv", stage=layer.stage,
                      conv=decomp.p_layer, meta=dict(provenance)),
        ]
        errors[layer.id] = decomp.block_truncation_errors
        renamed[layer.id] = f"{layer.id}.p"
    return NetworkSpec(net.name, net.input_shape, layers), errors


def full_svd_energy_curves(w_mat, d_mat, p_mat, rank, mode="squared"):
    """The original, group and channel-SVD baseline curves of one pair, as
    ``analyze`` made them with a full (u, s, vt) SVD of each matrix."""
    def curve(matrix):
        return energy_curve(np.linalg.svd(matrix, full_matrices=False)[1], mode=mode)
    return (curve(w_mat), curve(np.asarray(d_mat) @ np.asarray(p_mat)),
            curve(svd_strategy_matrix(w_mat, rank)))


def stack_taps(net: NetworkSpec, samples, taps) -> dict[str, np.ndarray]:
    """Run the (N, C, H, W) batch ``samples`` up to the last layer in
    ``taps`` and return, per tapped layer, its output as ``response_rows``."""
    walk = _Walk(net, samples)
    return {tap: response_rows(walk.to(tap)[1]) for tap in sorted(set(taps), key=walk.index)}


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
    return CorrelationReport(corr, flagged, mean_in_block=mean_in, mean_out_block=mean_out)
