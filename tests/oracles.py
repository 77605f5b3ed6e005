"""Independent reference implementations used to check the library.

These are deliberately naive (triple loops, eigendecompositions, explicit
pseudo-inverses) and share no code with the package under test.
"""

import numpy as np


def naive_matmul(a, b):
    """Triple-loop matrix product."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, inner = a.shape
    _, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(inner):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


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
