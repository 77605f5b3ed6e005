import numpy as np
import pytest

from groupcompress import linalg
from groupcompress.errors import NumericalError, RankDeficiencyWarning, ShapeError

from oracles import direct_conv, naive_matmul, pinv_solve, singular_values_via_gram


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
        with pytest.raises(NumericalError, match="4x3"):
            linalg.svd(np.ones((4, 3)))


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


class TestIm2col:
    def test_whole_image_window(self):
        rng = np.random.default_rng(20)
        img = rng.standard_normal((1, 3, 3))
        out = linalg.im2col(img, k=3, stride=1, pad=0)
        assert out.shape == (1, 9)
        assert np.array_equal(out[0], img.reshape(-1))

    def test_disjoint_tiling(self):
        rng = np.random.default_rng(21)
        img = rng.standard_normal((1, 4, 4))
        out = linalg.im2col(img, k=2, stride=2, pad=0)
        assert out.shape == (4, 4)
        tiles = [
            img[0, 0:2, 0:2],
            img[0, 0:2, 2:4],
            img[0, 2:4, 0:2],
            img[0, 2:4, 2:4],
        ]
        for row, tile in zip(out, tiles):
            assert np.array_equal(row, tile.reshape(-1))

    def test_column_ordering_is_channel_major(self):
        # Mark one element per (channel, ki, kj) and check its column.
        c, k = 2, 2
        img = np.zeros((c, 2, 2))
        img[1, 0, 1] = 5.0  # channel 1, kernel row 0, kernel col 1
        out = linalg.im2col(img, k=k, stride=1, pad=0)
        col = 1 * k * k + 0 * k + 1
        assert out[0, col] == 5.0

    def test_matmul_equals_direct_convolution(self):
        rng = np.random.default_rng(22)
        img = rng.standard_normal((3, 8, 8))
        weights = rng.standard_normal((5, 3, 3, 3))
        patches = linalg.im2col(img, k=3, stride=1, pad=1)
        w_mat = weights.reshape(5, -1).T
        via_matmul = (patches @ w_mat).T.reshape(5, 8, 8)
        assert np.allclose(via_matmul, direct_conv(img, weights, pad=1), atol=1e-12)

    def test_degenerate_output_raises(self):
        with pytest.raises(ShapeError, match="degenerate"):
            linalg.im2col(np.ones((1, 2, 2)), k=5, stride=1, pad=0)


def test_numerical_rank():
    rng = np.random.default_rng(30)
    u, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    s = np.array([4.0, 2.0, 1.0, 1e-12, 0.0, 0.0])
    a = u[:, :6] @ np.diag(s) @ v.T
    assert linalg.numerical_rank(a) == 3
