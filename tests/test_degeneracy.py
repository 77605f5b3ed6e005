import numpy as np
import pytest

from groupcompress import linalg
from groupcompress.decompose import decompose_layer
from groupcompress.degeneracy import (
    energy_curve,
    equal_flops_ranks,
    filter_correlation,
    jacobian_energy_curve,
    svd_strategy_matrix,
    write_correlation_csv,
    write_csv,
    write_energy_csv,
    write_rank_report_csv,
)
from groupcompress.errors import ShapeError
from groupcompress.model import ConvWeights


def random_tuple_in_regime(rng, max_cin=32, max_k=5):
    """Dims in the regime c_in <= c_out < c_in * k^2, k > 1, n | c_in."""
    k = int(rng.choice([2, 3, 5][: max_k // 2 + 1]))
    c_in = int(rng.integers(2, max_cin + 1))
    c_out = int(rng.integers(c_in, c_in * k * k))
    divisors = [d for d in range(1, c_in + 1) if c_in % d == 0]
    n = int(rng.choice(divisors))
    return c_in, c_out, k, n


class TestEqualFlopsRanks:
    def test_hand_computed_case(self):
        report = equal_flops_ranks(256, 256, 3, 16)
        assert report.c_d == pytest.approx(102400 / 2560)
        assert report.rank_svd == 40
        assert report.c_d_prime_k == pytest.approx(102400 / 512)
        assert report.rank_spatial == 200
        assert report.rank_group == 256
        assert report.rank_svd < report.rank_group
        assert report.rank_spatial < report.rank_group  # n=16 < 256/9

    def test_boundary_n_equals_c_in(self):
        report = equal_flops_ranks(64, 64, 3, 64)
        assert report.c_d == pytest.approx(64.0)
        assert report.rank_svd == report.rank_group == 64

    def test_rank_inequalities_over_random_regime(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            c_in, c_out, k, n = random_tuple_in_regime(rng)
            report = equal_flops_ranks(c_in, c_out, k, n)
            if n < c_in:
                assert report.rank_svd < report.rank_group
            if n < c_in / k**2:
                assert report.rank_spatial < report.rank_group

    def test_equal_flops_identity(self):
        # flops(SVD strategy at real-valued c_d) == flops(group strategy at n)
        rng = np.random.default_rng(1)
        for _ in range(100):
            c_in, c_out, k, n = random_tuple_in_regime(rng)
            report = equal_flops_ranks(c_in, c_out, k, n)
            svd_cost = c_in * k * k * report.c_d + report.c_d * c_out
            group_cost = c_in * k * k * n + c_in * c_out
            assert svd_cost == pytest.approx(group_cost, rel=1e-12)

    def test_svd_rank_is_within_the_weight_matrix_rank(self):
        # c_d = 156 / 39 = 4, above the rank 3 of a 36 x 3 weight matrix
        # (the toy4 fixture's last conv, at n = c_in).
        report = equal_flops_ranks(4, 3, 3, 4)
        assert report.c_d == pytest.approx(4.0)
        assert report.rank_svd == 3
        w = np.random.default_rng(2).standard_normal((36, 3))
        assert np.allclose(svd_strategy_matrix(w, report.rank_svd), w)
        rng = np.random.default_rng(3)
        for _ in range(200):
            c_in, c_out, k = (int(v) for v in rng.integers(1, 9, size=3))
            n = int(rng.choice([d for d in range(1, c_in + 1) if c_in % d == 0]))
            report = equal_flops_ranks(c_in, c_out, k, n)
            assert 1 <= report.rank_svd <= min(c_in * k * k, c_out)

    def test_rank_group_independent_of_n(self):
        ranks = {equal_flops_ranks(32, 64, 3, n).rank_group for n in (1, 2, 4, 8, 16, 32)}
        assert ranks == {32}


class TestEnergyCurve:
    def test_identity_matrix_linear_curve(self):
        curve = jacobian_energy_curve(np.eye(6))
        assert np.allclose(curve.cumulative_energy, (np.arange(6) + 1) / 6)

    def test_monotone_and_ends_at_one(self):
        rng = np.random.default_rng(2)
        curve = jacobian_energy_curve(rng.standard_normal((20, 8)))
        assert np.all(np.diff(curve.cumulative_energy) >= -1e-15)
        assert curve.cumulative_energy[-1] == pytest.approx(1.0, abs=1e-12)

    def test_truncated_matrix_saturates_at_rank(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((36, 16))
        rank = 5
        curve = jacobian_energy_curve(svd_strategy_matrix(w, rank))
        assert curve.cumulative_energy[rank - 1] == pytest.approx(1.0, abs=1e-12)
        assert curve.cumulative_energy[rank - 2] < 1.0 - 1e-6

    def test_sigma_mode_differs(self):
        rng = np.random.default_rng(4)
        s = np.sort(rng.uniform(0.5, 3.0, size=6))[::-1]
        sq = energy_curve(s, mode="squared")
        si = energy_curve(s, mode="sigma")
        assert not np.allclose(sq.cumulative_energy, si.cumulative_energy)
        assert si.cumulative_energy[-1] == pytest.approx(1.0, abs=1e-12)

    def test_composed_pair_rank(self):
        rng = np.random.default_rng(5)
        w = ConvWeights(8, 12, 3, pad=1, weights=rng.standard_normal((12, 8, 3, 3)))
        decomp = decompose_layer(w, 2)
        curve = jacobian_energy_curve(decomp.d_layer.weight_matrix(),
                                      decomp.p_layer.weight_matrix())
        nonzero = np.count_nonzero(
            curve.singular_values > 1e-8 * curve.singular_values[0]
        )
        assert nonzero == 8  # min(c_in, c_out), despite n=2

    def test_group_keeps_more_rank_than_svd_at_equal_flops(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            c_in, c_out, k, n = random_tuple_in_regime(rng, max_cin=12, max_k=3)
            if n == c_in:
                n = max(1, c_in // 2)
                if c_in % n:
                    continue
            w = ConvWeights(
                c_in, c_out, k, weights=rng.standard_normal((c_out, c_in, k, k))
            )
            report = equal_flops_ranks(c_in, c_out, k, n)
            if report.rank_svd < 1:
                continue
            svd_curve = jacobian_energy_curve(
                svd_strategy_matrix(w.weight_matrix(), report.rank_svd)
            )
            decomp = decompose_layer(w, n)
            group_curve = jacobian_energy_curve(decomp.composed_matrix())
            svd_nonzero = np.count_nonzero(
                svd_curve.singular_values > 1e-8 * svd_curve.singular_values[0]
            )
            group_nonzero = np.count_nonzero(
                group_curve.singular_values > 1e-8 * group_curve.singular_values[0]
            )
            assert svd_nonzero == report.rank_svd
            assert group_nonzero == min(c_in, c_out)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero matrix"):
            jacobian_energy_curve(np.zeros((3, 3)))

    def test_chain_is_the_product_of_its_factors(self):
        rng = np.random.default_rng(11)
        a, b, c = (rng.standard_normal(shape) for shape in [(7, 5), (5, 4), (4, 6)])
        curve = jacobian_energy_curve(a, b, c)
        assert np.array_equal(curve.singular_values, np.linalg.svd(a @ b @ c)[1])

    def test_inner_dimensions_must_agree(self):
        with pytest.raises(ShapeError, match="inner dimensions differ"):
            jacobian_energy_curve(np.ones((2, 3)), np.ones((4, 2)))

    def test_non_finite_factor_rejected(self):
        with pytest.raises(ShapeError, match="non-finite"):
            jacobian_energy_curve(np.ones((1, 2)), np.array([[np.nan], [1.0]]))

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            energy_curve(np.array([2.0, 1.0]), mode="cubed")


class TestSvdStrategyMatrix:
    def test_is_the_truncated_svd_formula(self):
        rng = np.random.default_rng(12)
        for shape in [(9, 4), (4, 9), (6, 6)]:
            w = rng.standard_normal(shape)
            u, s, vt = np.linalg.svd(w, full_matrices=False)
            for rank in range(1, min(shape) + 1):
                expected = (u[:, :rank] * s[:rank]) @ vt[:rank]
                assert np.array_equal(svd_strategy_matrix(w, rank), expected)

    @pytest.mark.parametrize("rank", [0, 4])
    def test_rank_outside_one_to_min_dimension_rejected(self, rank):
        with pytest.raises(ShapeError, match=r"rank must be in \[1, 3\]"):
            svd_strategy_matrix(np.ones((5, 3)), rank)


class TestFilterCorrelation:
    def test_identity_pipeline_has_unit_diagonal(self):
        rng = np.random.default_rng(7)
        point = rng.standard_normal((500, 6))
        report = filter_correlation(point, point.copy(), block_size=1)
        assert np.allclose(np.diag(report.matrix), 1.0, atol=1e-12)
        assert report.mean_in_block == pytest.approx(1.0, abs=1e-12)

    def test_independent_channels_decorrelate(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((10_000, 8))
        b = rng.standard_normal((10_000, 8))
        report = filter_correlation(a, b)
        assert report.matrix.max() < 0.1

    def test_decomposed_layer_block_structure(self):
        # Feed a pointwise output through relu then a group conv (n = 2);
        # in-block correlations must dominate.
        rng = np.random.default_rng(9)
        c = 8
        n = 2
        point_out = rng.standard_normal((4000, c))
        activated = np.maximum(point_out, 0.0)
        w = ConvWeights(c, 12, 1, weights=rng.standard_normal((12, c, 1, 1)))
        decomp = decompose_layer(w, n, force_pointwise=True)
        group_out = activated @ decomp.d_layer.weight_matrix()  # k=1: patches are the rows
        report = filter_correlation(point_out, group_out, block_size=n)
        assert report.mean_in_block > report.mean_out_block

    def test_zero_variance_flagged(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((100, 3))
        b = rng.standard_normal((100, 3))
        b[:, 1] = 4.2
        report = filter_correlation(a, b)
        assert ("group", 1) in report.zero_variance_channels
        assert np.allclose(report.matrix[1, :], 0.0)
        assert np.all(np.isfinite(report.matrix))

    def test_misaligned_rows_rejected(self):
        with pytest.raises(ValueError, match="row counts"):
            filter_correlation(np.ones((5, 2)), np.ones((6, 2)))


class TestCsvEmission:
    def test_energy_csv(self, tmp_path):
        curve = energy_curve(np.array([3.0, 2.0, 1.0]))
        path = write_energy_csv(tmp_path / "curve.csv", curve)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,sigma,cumulative_energy"
        assert len(lines) == 4
        assert lines[1].startswith("0,3.0,")

    def test_rank_csv(self, tmp_path):
        reports = [equal_flops_ranks(16, 32, 3, 4)]
        path = write_rank_report_csv(tmp_path / "ranks.csv", reports, labels=["c1"])
        lines = path.read_text().strip().splitlines()
        assert "rank_group" in lines[0]
        assert lines[1].startswith("c1,16,32,3,4,")

    def test_interrupted_write_leaves_no_file(self, tmp_path):
        path = write_csv(tmp_path / "ranks.csv", ["layer"], [["c1"]])

        def half_rows():
            yield ["c1"]
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_csv(path, ["layer"], half_rows())
        assert list(tmp_path.iterdir()) == []

    def test_correlation_csv(self, tmp_path):
        rng = np.random.default_rng(11)
        report = filter_correlation(
            rng.standard_normal((50, 3)), rng.standard_normal((50, 2))
        )
        path = write_correlation_csv(tmp_path / "corr.csv", report)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert len(lines[0].split(",")) == 3
