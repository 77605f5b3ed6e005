import numpy as np
import pytest

from groupcompress import linalg
from groupcompress.errors import NumericalError, RankDeficiencyWarning, ShapeError

from oracles import direct_conv, im2col_rows, naive_matmul, pinv_solve, singular_values_via_gram


class TestMatmul:
    def test_identity(self):
        b = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(linalg.matmul(np.eye(3), b), b)

    def test_hand_computed(self):
        a = [[1.0, 2.0], [3.0, 4.0]]
        b = [[0.0], [1.0]]
        assert np.array_equal(linalg.matmul(a, b), [[2.0], [4.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((5, 3))
        assert np.allclose(linalg.matmul(a, b), naive_matmul(a, b), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="inner dimensions"):
            linalg.matmul(np.ones((2, 3)), np.ones((4, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ShapeError, match="non-finite"):
            linalg.matmul(np.array([[np.nan, 1.0]]), np.ones((2, 1)))


class TestSvd:
    def test_diagonal(self):
        res = linalg.svd(np.diag([3.0, 1.0]))
        assert np.allclose(res.singular_values, [3.0, 1.0])

    def test_orthogonal_has_unit_values(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        res = linalg.svd(q)
        assert np.allclose(res.singular_values, np.ones(6), atol=1e-10)

    def test_values_match_gram_eigen_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((18, 4))
        res = linalg.svd(a)
        assert np.allclose(res.singular_values, singular_values_via_gram(a), atol=1e-9)

    def test_factor_orthonormality(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((9, 5))
        res = linalg.svd(a)
        assert np.allclose(res.u.T @ res.u, np.eye(5), atol=1e-10)
        assert np.allclose(res.vt @ res.vt.T, np.eye(5), atol=1e-10)

    def test_reconstruction(self):
        rng = np.random.default_rng(4)
        for shape in [(5, 5), (8, 3), (3, 8)]:
            a = rng.standard_normal(shape)
            res = linalg.svd(a)
            rel = np.linalg.norm(res.reconstruct() - a) / np.linalg.norm(a)
            assert rel <= 1e-10

    def test_descending_order(self):
        rng = np.random.default_rng(5)
        s = linalg.svd(rng.standard_normal((10, 6))).singular_values
        assert np.all(np.diff(s) <= 0)
        assert np.all(s >= 0)

    def test_eckart_young_exhaustive_small(self):
        # Truncation error must equal sqrt(sum of discarded sigma^2) for
        # every rank, on matrices up to 8x8.
        rng = np.random.default_rng(6)
        for m in range(1, 9):
            for n in range(1, 9):
                a = rng.standard_normal((m, n))
                res = linalg.svd(a)
                for r in range(1, min(m, n) + 1):
                    approx = res.truncate(r).reconstruct()
                    err = np.linalg.norm(a - approx)
                    expected = float(np.sqrt(np.sum(res.singular_values[r:] ** 2)))
                    assert err == pytest.approx(expected, abs=1e-10)

    def test_nonconvergence_translated(self, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", boom)
        with pytest.raises(NumericalError, match="4x3 matrix"):
            linalg.svd(np.ones((4, 3)))
        with pytest.raises(NumericalError, match="5x4x3 stack"):
            linalg.svd(np.ones((5, 4, 3)))

    def test_stack_matches_each_matrix_alone(self):
        rng = np.random.default_rng(8)
        for shape in [(4, 5, 3), (3, 2, 7), (2, 3, 6, 6)]:
            a = rng.standard_normal(shape)
            res = linalg.svd(a)
            rel = np.linalg.norm(res.reconstruct() - a) / np.linalg.norm(a)
            assert rel <= 1e-10
            assert res.rank == min(shape[-2:])
            for index in np.ndindex(*shape[:-2]):
                alone = linalg.svd(a[index])
                assert np.array_equal(res.u[index], alone.u)
                assert np.array_equal(res.singular_values[index], alone.singular_values)
                assert np.array_equal(res.vt[index], alone.vt)
            cut = res.truncate(1)
            assert cut.u.shape == (*shape[:-1], 1) and cut.vt.shape == (*shape[:-2], 1, shape[-1])

    @pytest.mark.parametrize(
        "a, message",
        [
            (np.ones(3), "1-D"),
            (np.ones((2, 0, 3)), "non-empty"),
            (np.array([[[1.0, np.nan]]]), "non-finite"),
        ],
    )
    def test_bad_input_is_shape_error(self, a, message):
        with pytest.raises(ShapeError, match=message):
            linalg.svd(a)


class TestLeastSquares:
    def test_self_regression_gives_identity(self):
        rng = np.random.default_rng(10)
        y = rng.standard_normal((20, 4))
        a = linalg.solve_least_squares(y, y, ridge=0.0)
        assert np.allclose(a, np.eye(4), atol=1e-10)

    def test_orthonormal_design(self):
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((30, 5)))
        targets = rng.standard_normal((30, 3))
        a = linalg.solve_least_squares(q, targets, ridge=0.0)
        assert np.allclose(a, q.T @ targets, atol=1e-10)

    def test_matches_pinv_oracle(self):
        rng = np.random.default_rng(12)
        design = rng.standard_normal((50, 4))
        targets = rng.standard_normal((50, 3))
        a = linalg.solve_least_squares(design, targets, ridge=0.0)
        assert np.allclose(a, pinv_solve(design, targets), atol=1e-9)

    def test_ridge_shrinks_solution(self):
        rng = np.random.default_rng(13)
        design = rng.standard_normal((40, 6))
        targets = rng.standard_normal((40, 2))
        a0 = linalg.solve_least_squares(design, targets, ridge=0.0)
        a1 = linalg.solve_least_squares(design, targets, ridge=10.0)
        assert np.linalg.norm(a1) < np.linalg.norm(a0)

    def test_ridge_solution_solves_regularized_normal_equations(self):
        rng = np.random.default_rng(14)
        design = rng.standard_normal((25, 5))
        targets = rng.standard_normal((25, 4))
        ridge = 0.37
        a = linalg.solve_least_squares(design, targets, ridge=ridge)
        lhs = design.T @ design @ a + ridge * a
        assert np.allclose(lhs, design.T @ targets, atol=1e-10)

    def test_rank_deficient_warns_and_returns_min_norm(self):
        rng = np.random.default_rng(15)
        base = rng.standard_normal((30, 2))
        design = np.hstack([base, base[:, :1] + base[:, 1:]])  # rank 2
        targets = rng.standard_normal((30, 2))
        with pytest.warns(RankDeficiencyWarning):
            a = linalg.solve_least_squares(design, targets, ridge=0.0)
        assert np.allclose(a, pinv_solve(design, targets), atol=1e-9)

    def test_underdetermined_warns(self):
        with pytest.warns(RankDeficiencyWarning, match="fewer rows"):
            linalg.solve_least_squares(np.ones((2, 5)), np.ones((2, 1)), ridge=1.0)

    def test_residual_never_beats_identity(self):
        # With equal column counts the identity map is always feasible.
        rng = np.random.default_rng(16)
        for trial in range(20):
            n_cols = int(rng.integers(1, 6))
            rows = int(rng.integers(n_cols + 1, 40))
            design = rng.standard_normal((rows, n_cols))
            targets = design + 0.1 * rng.standard_normal((rows, n_cols))
            a = linalg.solve_least_squares(design, targets, ridge=0.0)
            res = np.linalg.norm(targets - design @ a)
            res_identity = np.linalg.norm(targets - design)
            assert res <= res_identity + 1e-12

    @pytest.mark.parametrize("ridge, routine", [(0.0, "lstsq"), (1.0, "solve")])
    def test_solver_failure_is_numerical_error(self, monkeypatch, ridge, routine):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, routine, boom)
        with pytest.raises(NumericalError, match="20x4"):
            linalg.solve_least_squares(np.ones((20, 4)), np.ones((20, 2)), ridge=ridge)

    def test_row_mismatch(self):
        with pytest.raises(ShapeError, match="rows"):
            linalg.solve_least_squares(np.ones((4, 2)), np.ones((5, 2)))


def patches(img, k, stride, pad):
    """The patch matrix of a whole map: one tile of all its output rows."""
    h_out = (img.shape[1] + 2 * pad - k) // stride + 1
    return linalg.patch_tile(linalg.pad_map(img, pad), k, stride, 0, h_out)


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
    """``patch_tile`` and ``window_views`` against the nested-loop patches."""

    @pytest.mark.parametrize("k, stride, pad", [(3, 1, 1), (2, 2, 0), (3, 2, 1), (1, 2, 0)])
    def test_channel_major_layout(self, k, stride, pad):
        rng = np.random.default_rng(23)
        img = rng.standard_normal((3, 7, 6))
        out = patches(img, k, stride, pad)
        assert out.flags.c_contiguous
        assert np.array_equal(out, im2col_rows(img, k, stride, pad).T)

    def test_pointwise_is_a_view(self):
        img = np.random.default_rng(24).standard_normal((4, 5, 6))
        [view] = linalg.window_views(img, 1, 1, 0, 5)
        assert np.shares_memory(view, img)
        assert np.array_equal(view, img)

    def test_windows_pad_with_fill(self):
        img = np.ones((2, 2, 2))
        views = list(linalg.window_views(linalg.pad_map(img, 1, fill=-np.inf), 3, 1, 0, 2))
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
        padded = linalg.pad_map(img, pad)
        tiles = [linalg.patch_tile(padded, k, stride, r, r_end) for r, r_end in zip(cuts, cuts[1:])]
        assert all(tile.flags.c_contiguous for tile in tiles)
        assert np.array_equal(np.hstack(tiles), im2col_rows(img, k, stride, pad).T)

    def test_pad_map_pads_once_or_not_at_all(self):
        img = np.arange(8.0).reshape(2, 2, 2)
        assert linalg.pad_map(img, 0) is img
        padded = linalg.pad_map(img, 2, fill=-1.0)
        assert padded.shape == (2, 6, 6)
        assert np.array_equal(padded[:, 2:4, 2:4], img)
        assert np.sum(padded == -1.0) == 2 * (36 - 4)

    @pytest.mark.parametrize("start, stop", [(-1, 2), (2, 2), (3, 1), (0, 6)])
    def test_tile_outside_the_output_rows_raises(self, start, stop):
        with pytest.raises(ShapeError, match="output rows"):
            linalg.patch_tile(np.zeros((1, 7, 7)), 3, 1, start, stop)


def test_numerical_rank():
    rng = np.random.default_rng(30)
    u, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    s = np.array([4.0, 2.0, 1.0, 1e-12, 0.0, 0.0])
    a = u[:, :6] @ np.diag(s) @ v.T
    assert linalg.numerical_rank(a) == 3
