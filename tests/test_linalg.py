import numpy as np
import pytest

from groupcompress import linalg
from groupcompress.degeneracy import svd_strategy_matrix
from groupcompress.errors import NumericalError, RankDeficiencyWarning, ShapeError

from oracles import (
    direct_conv, im2col_rows, pinv_solve, singular_values_via_gram, solve_least_squares,
)


class TestSvd:
    def test_diagonal(self):
        _, s, _ = linalg.svd(np.diag([3.0, 1.0]))
        assert np.allclose(s, [3.0, 1.0])

    def test_orthogonal_has_unit_values(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        _, s, _ = linalg.svd(q)
        assert np.allclose(s, np.ones(6), atol=1e-10)

    def test_values_match_gram_eigen_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((18, 4))
        _, s, _ = linalg.svd(a)
        assert np.allclose(s, singular_values_via_gram(a), atol=1e-9)

    def test_factor_orthonormality(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((9, 5))
        u, _, vt = linalg.svd(a)
        assert np.allclose(u.T @ u, np.eye(5), atol=1e-10)
        assert np.allclose(vt @ vt.T, np.eye(5), atol=1e-10)

    def test_reconstruction(self):
        rng = np.random.default_rng(4)
        for shape in [(5, 5), (8, 3), (3, 8)]:
            a = rng.standard_normal(shape)
            u, s, vt = linalg.svd(a)
            rel = np.linalg.norm((u * s) @ vt - a) / np.linalg.norm(a)
            assert rel <= 1e-10

    def test_descending_order(self):
        rng = np.random.default_rng(5)
        _, s, _ = linalg.svd(rng.standard_normal((10, 6)))
        assert np.all(np.diff(s) <= 0)
        assert np.all(s >= 0)

    def test_eckart_young_exhaustive_small(self):
        # The channel-SVD baseline's truncation error must equal sqrt(sum
        # of discarded sigma^2) for every rank, on matrices up to 8x8.
        rng = np.random.default_rng(6)
        for m in range(1, 9):
            for n in range(1, 9):
                a = rng.standard_normal((m, n))
                _, s, _ = linalg.svd(a)
                for r in range(1, min(m, n) + 1):
                    err = np.linalg.norm(a - svd_strategy_matrix(a, r))
                    expected = float(np.sqrt(np.sum(s[r:] ** 2)))
                    assert err == pytest.approx(expected, abs=1e-10)

    def test_nonconvergence_translated(self, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", boom)
        with pytest.raises(NumericalError, match="4x3 matrix"):
            linalg.svd(np.ones((4, 3)))

    @pytest.mark.parametrize("shape", [(9, 4), (4, 9), (6, 6), (1, 5)])
    def test_singular_values_are_svds_values(self, shape):
        a = np.random.default_rng(sum(shape)).standard_normal(shape)
        s = linalg.singular_values(a)
        np.testing.assert_allclose(s, linalg.svd(a)[1], rtol=0, atol=1e-13 * s[0])
        assert np.all(np.diff(s) <= 0) and s.shape == (min(shape),)

    def test_singular_values_nonconvergence_translated(self, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", boom)
        with pytest.raises(NumericalError, match="4x3 matrix"):
            linalg.singular_values(np.ones((4, 3)))

    def test_leading_factors_nonconvergence_names_the_stack(self, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", boom)
        with pytest.raises(NumericalError, match="5x4x3 stack"):
            linalg._leading_factors(np.ones((5, 4, 3)), 1, np.empty((5, 1, 4)),
                                    np.empty((5, 1, 3)))

    @pytest.mark.parametrize(
        "a, message",
        [
            (np.ones(3), "1-D"),
            (np.ones((0, 3)), "non-empty"),
            (np.array([[1.0, np.nan]]), "non-finite"),
        ],
    )
    @pytest.mark.parametrize("svd", [linalg.svd, linalg.singular_values])
    def test_bad_input_is_shape_error(self, a, message, svd):
        with pytest.raises(ShapeError, match=message):
            svd(a)


class TestLeastSquares:
    def test_self_regression_gives_identity(self):
        rng = np.random.default_rng(10)
        y = rng.standard_normal((20, 4))
        a = solve_least_squares(y, y, ridge=0.0)
        assert np.allclose(a, np.eye(4), atol=1e-10)

    def test_orthonormal_design(self):
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((30, 5)))
        targets = rng.standard_normal((30, 3))
        a = solve_least_squares(q, targets, ridge=0.0)
        assert np.allclose(a, q.T @ targets, atol=1e-10)

    def test_matches_pinv_oracle(self):
        rng = np.random.default_rng(12)
        design = rng.standard_normal((50, 4))
        targets = rng.standard_normal((50, 3))
        a = solve_least_squares(design, targets, ridge=0.0)
        assert np.allclose(a, pinv_solve(design, targets), atol=1e-9)

    def test_ridge_shrinks_solution(self):
        rng = np.random.default_rng(13)
        design = rng.standard_normal((40, 6))
        targets = rng.standard_normal((40, 2))
        a0 = solve_least_squares(design, targets, ridge=0.0)
        a1 = solve_least_squares(design, targets, ridge=10.0)
        assert np.linalg.norm(a1) < np.linalg.norm(a0)

    def test_ridge_solution_solves_regularized_normal_equations(self):
        rng = np.random.default_rng(14)
        design = rng.standard_normal((25, 5))
        targets = rng.standard_normal((25, 4))
        ridge = 0.37
        a = solve_least_squares(design, targets, ridge=ridge)
        lhs = design.T @ design @ a + ridge * a
        assert np.allclose(lhs, design.T @ targets, atol=1e-10)

    def test_rank_deficient_warns_and_returns_min_norm(self):
        rng = np.random.default_rng(15)
        base = rng.standard_normal((30, 2))
        design = np.hstack([base, base[:, :1] + base[:, 1:]])  # rank 2
        targets = rng.standard_normal((30, 2))
        with pytest.warns(RankDeficiencyWarning):
            a = solve_least_squares(design, targets, ridge=0.0)
        assert np.allclose(a, pinv_solve(design, targets), atol=1e-9)

    def test_underdetermined_warns(self):
        with pytest.warns(RankDeficiencyWarning, match="fewer rows"):
            solve_least_squares(np.ones((2, 5)), np.ones((2, 1)), ridge=1.0)

    def test_residual_never_beats_identity(self):
        # With equal column counts the identity map is always feasible.
        rng = np.random.default_rng(16)
        for trial in range(20):
            n_cols = int(rng.integers(1, 6))
            rows = int(rng.integers(n_cols + 1, 40))
            design = rng.standard_normal((rows, n_cols))
            targets = design + 0.1 * rng.standard_normal((rows, n_cols))
            a = solve_least_squares(design, targets, ridge=0.0)
            res = np.linalg.norm(targets - design @ a)
            res_identity = np.linalg.norm(targets - design)
            assert res <= res_identity + 1e-12

    @pytest.mark.parametrize("ridge, routine", [(0.0, "lstsq"), (1.0, "solve")])
    def test_solver_failure_is_numerical_error(self, monkeypatch, ridge, routine):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, routine, boom)
        with pytest.raises(NumericalError, match="20x4"):
            solve_least_squares(np.ones((20, 4)), np.ones((20, 2)), ridge=ridge)

    def test_row_mismatch(self):
        with pytest.raises(ShapeError, match="rows"):
            solve_least_squares(np.ones((4, 2)), np.ones((5, 2)))

    @pytest.mark.parametrize("ridge", [-1.0, float("nan"), float("inf"), -float("inf")])
    def test_ridge_that_is_not_finite_and_nonnegative_raises(self, ridge):
        rng = np.random.default_rng(17)
        design, targets = rng.standard_normal((20, 4)), rng.standard_normal((20, 2))
        with pytest.raises(ValueError, match="ridge must be a finite number >= 0"):
            solve_least_squares(design, targets, ridge=ridge)


class TestLeastSquaresStatistics:
    """``linalg.LeastSquares`` against the stacked solve it replaced
    (``oracles.solve_least_squares``), over blocks of uneven sizes: one
    block narrower than the columns, one of a single row."""

    BLOCKS = (1, 7, 2, 50)

    @classmethod
    def fitted(cls, design, targets, exact):
        fit = linalg.LeastSquares(design.shape[1], exact=exact)
        for block in np.split(np.arange(len(design)), np.cumsum(cls.BLOCKS)[:-1]):
            fit.add(design[block], targets[block])
        assert fit.rows == len(design)
        return fit

    @pytest.mark.parametrize("exact, ridge", [(True, 0.0), (False, 0.37)], ids=["tsqr", "gram"])
    def test_matches_the_stacked_solve(self, exact, ridge):
        rng = np.random.default_rng(20)
        design, targets = rng.standard_normal((60, 5)), rng.standard_normal((60, 3))
        a = self.fitted(design, targets, exact).solve(ridge)
        assert np.allclose(a, solve_least_squares(design, targets, ridge=ridge), atol=1e-10)

    def test_tsqr_keeps_digits_the_normal_equations_lose(self):
        # cond(X) = 1e7: the Gram matrix squares it to 1e14.
        rng = np.random.default_rng(21)
        u, _ = np.linalg.qr(rng.standard_normal((60, 4)))
        design = u @ np.diag([1.0, 1e-3, 1e-5, 1e-7])
        want = rng.standard_normal((4, 2))
        a = self.fitted(design, design @ want, exact=True).solve(0.0)
        assert np.allclose(a, want, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("exact", [True, False], ids=["tsqr", "gram"])
    def test_rank_deficient_warns_and_returns_min_norm(self, exact):
        # Gram mode at ridge 0: the default ridge of an all-zero response.
        rng = np.random.default_rng(22)
        base = rng.standard_normal((60, 2))
        design = np.hstack([base, base[:, :1] + base[:, 1:]])  # rank 2
        if not exact:
            design = np.hstack([np.zeros((60, 3)), np.ones((60, 1))])  # rank 1
        targets = rng.standard_normal((60, 2))
        fit = self.fitted(design, targets, exact)
        with pytest.warns(RankDeficiencyWarning, match=f"rank {2 if exact else 1} < "):
            a = fit.solve(0.0)
        assert np.allclose(a, pinv_solve(design, targets), atol=1e-9)

    def test_exact_solve_refuses_a_ridge(self):
        design = np.random.default_rng(23).standard_normal((20, 3))
        with pytest.raises(ValueError, match="ridge 0"):
            self.fitted(design, design, exact=True).solve(1.0)

    @pytest.mark.parametrize("ridge", [-1.0, float("nan"), float("inf")])
    def test_ridge_that_is_not_finite_and_nonnegative_raises(self, ridge):
        design = np.random.default_rng(24).standard_normal((60, 3))
        with pytest.raises(ValueError, match="ridge must be a finite number >= 0"):
            self.fitted(design, design, exact=False).solve(ridge)

    @pytest.mark.parametrize("exact, ridge, routine",
                             [(True, 0.0, "lstsq"), (False, 0.0, "lstsq"), (False, 1.0, "solve")])
    def test_solver_failure_is_numerical_error(self, monkeypatch, exact, ridge, routine):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        fit = self.fitted(np.ones((60, 4)), np.ones((60, 2)), exact)
        monkeypatch.setattr(np.linalg, routine, boom)
        with pytest.raises(NumericalError, match="60x4"):
            fit.solve(ridge)


def pad_map(img, pad, fill=0.0):
    """``img`` padded as the kernels pad it: into a ``_pad_buffer``."""
    return linalg._pad_into(img, linalg._pad_buffer(img.shape, pad, fill), pad)


def patch_tile(padded, k, stride, start, stop):
    """The tile of output rows start..stop, in a buffer with room to spare."""
    c, _, w = padded.shape
    buffer = np.full(c * k * k * (stop - start) * ((w - k) // stride + 1) + 5, np.nan)
    return linalg._fill_tile(buffer, padded, k, stride, start, stop)


def patches(img, k, stride, pad):
    """The patch matrix of a whole map: one tile of all its output rows."""
    h_out = (img.shape[1] + 2 * pad - k) // stride + 1
    return patch_tile(pad_map(img, pad), k, stride, 0, h_out)


class TestIm2col:
    """The patch layout on hand-made maps: one column per output position."""

    def test_whole_image_window(self):
        rng = np.random.default_rng(20)
        img = rng.standard_normal((1, 3, 3))
        out = patches(img, k=3, stride=1, pad=0)
        assert out.shape == (9, 1)
        assert np.array_equal(out[:, 0], img.reshape(-1))

    def test_disjoint_tiling(self):
        rng = np.random.default_rng(21)
        img = rng.standard_normal((1, 4, 4))
        out = patches(img, k=2, stride=2, pad=0)
        assert out.shape == (4, 4)
        tiles = [
            img[0, 0:2, 0:2],
            img[0, 0:2, 2:4],
            img[0, 2:4, 0:2],
            img[0, 2:4, 2:4],
        ]
        for column, tile in zip(out.T, tiles):
            assert np.array_equal(column, tile.reshape(-1))

    def test_column_ordering_is_channel_major(self):
        # Mark one element per (channel, ki, kj) and check its row.
        c, k = 2, 2
        img = np.zeros((c, 2, 2))
        img[1, 0, 1] = 5.0  # channel 1, kernel row 0, kernel col 1
        out = patches(img, k=k, stride=1, pad=0)
        row = 1 * k * k + 0 * k + 1
        assert out[row, 0] == 5.0
        assert np.count_nonzero(out) == 1

    def test_matmul_equals_direct_convolution(self):
        rng = np.random.default_rng(22)
        img = rng.standard_normal((3, 8, 8))
        weights = rng.standard_normal((5, 3, 3, 3))
        via_matmul = weights.reshape(5, -1) @ patches(img, k=3, stride=1, pad=1)
        assert np.allclose(via_matmul.reshape(5, 8, 8), direct_conv(img, weights, pad=1), atol=1e-12)


class TestPatchColumns:
    """``_fill_tile`` and ``_window_views`` against the nested-loop patches."""

    @pytest.mark.parametrize("k, stride, pad", [(3, 1, 1), (2, 2, 0), (3, 2, 1), (1, 2, 0)])
    def test_channel_major_layout(self, k, stride, pad):
        rng = np.random.default_rng(23)
        img = rng.standard_normal((3, 7, 6))
        out = patches(img, k, stride, pad)
        assert out.flags.c_contiguous
        assert np.array_equal(out, im2col_rows(img, k, stride, pad).T)

    def test_pointwise_is_a_view(self):
        img = np.random.default_rng(24).standard_normal((4, 5, 6))
        [view] = linalg._window_views(img, 1, 1, 0, 5)
        assert np.shares_memory(view, img)
        assert np.array_equal(view, img)

    def test_windows_pad_with_fill(self):
        img = np.ones((2, 2, 2))
        views = list(linalg._window_views(pad_map(img, 1, fill=-np.inf), 3, 1, 0, 2))
        windows = np.stack(views, axis=1).reshape(2, 3, 3, 2, 2)  # views in (ki, kj) order
        # Output (0, 0) sees padding in its top row and left column.
        assert np.all(windows[:, 0, :, 0, 0] == -np.inf)
        assert np.all(windows[:, :, 0, 0, 0] == -np.inf)
        assert np.all(windows[:, 1:, 1:, 0, 0] == 1.0)

    @pytest.mark.parametrize("k, stride, pad, cuts", [
        (3, 1, 1, (0, 3, 4, 7)),  # a tile of one row in the middle
        (3, 2, 1, (0, 1, 4)),  # stride 2: tiles read overlapping map rows
        (2, 2, 0, (0, 2, 3)),  # no padding: the map itself
        (3, 1, 3, (0, 1, 8, 9)),  # the first and last tiles read only padding
    ])
    def test_tiles_side_by_side_are_the_patch_columns(self, k, stride, pad, cuts):
        img = np.random.default_rng(25).standard_normal((3, 7 if pad < 3 else 5, 6))
        padded = pad_map(img, pad)
        tiles = [patch_tile(padded, k, stride, r, r_end) for r, r_end in zip(cuts, cuts[1:])]
        assert all(tile.flags.c_contiguous for tile in tiles)
        assert np.array_equal(np.hstack(tiles), im2col_rows(img, k, stride, pad).T)

    def test_pad_map_pads_once_or_not_at_all(self):
        img = np.arange(8.0).reshape(2, 2, 2)
        assert pad_map(img, 0) is img
        padded = pad_map(img, 2, fill=-1.0)
        assert padded.shape == (2, 6, 6)
        assert np.array_equal(padded[:, 2:4, 2:4], img)
        assert np.sum(padded == -1.0) == 2 * (36 - 4)


def test_numerical_rank():
    rng = np.random.default_rng(30)
    u, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    s = np.array([4.0, 2.0, 1.0, 1e-12, 0.0, 0.0])
    a = u[:, :6] @ np.diag(s) @ v.T
    assert linalg.numerical_rank(a) == 3


class TestOnEveryCpu:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    @pytest.mark.parametrize("count", [0, 1, 2, 7])
    def test_one_contiguous_share_per_cpu_or_item(self, monkeypatch, count, cpus):
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
        scratch, shares = iter(range(100)), []
        linalg._on_every_cpu(count, lambda lo, hi, tag: shares.append((lo, hi, tag)),
                             lambda: (next(scratch),))
        shares.sort()
        assert len(shares) == max(1, min(cpus, count))
        assert shares[0][0] == 0 and shares[-1][1] == count
        assert all(hi - lo in (count // len(shares), -(-count // len(shares)))
                   for lo, hi, _ in shares)
        assert all(a[1] == b[0] for a, b in zip(shares, shares[1:]))
        # One scratch per share.
        assert sorted(tag for _, _, tag in shares) == list(range(len(shares)))
