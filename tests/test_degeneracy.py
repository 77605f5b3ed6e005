import numpy as np
import pytest

from groupcompress import linalg
from groupcompress.decompose import decompose_layer
from groupcompress.degeneracy import (
    ChannelCorrelation,
    energy_curve,
    equal_flops_ranks,
    jacobian_energy_curve,
    strategy_energy_curves,
    svd_strategy_matrix,
    write_correlation_csv,
    write_energy_csv,
    write_rank_report_csv,
)
from groupcompress.errors import ShapeError
from groupcompress.model import ConvWeights

from oracles import filter_correlation, full_svd_energy_curves


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
        assert np.array_equal(curve.singular_values, np.linalg.svd(a @ b @ c, compute_uv=False))

    def test_inner_dimensions_must_agree(self):
        with pytest.raises(ShapeError, match="inner dimensions differ"):
            jacobian_energy_curve(np.ones((2, 3)), np.ones((4, 2)))

    def test_non_finite_factor_rejected(self):
        with pytest.raises(ShapeError, match="non-finite"):
            jacobian_energy_curve(np.ones((1, 2)), np.array([[np.nan], [1.0]]))

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            energy_curve(np.array([2.0, 1.0]), mode="cubed")

    @pytest.mark.parametrize("call, message", [
        (lambda: equal_flops_ranks(0, 4, 3, 1), "dimensions must be positive"),
        (lambda: energy_curve([]), "must be a non-empty 1-D array"),
        (lambda: energy_curve([1.0, 2.0]), "must be nonnegative and descending"),
        (lambda: jacobian_energy_curve(), "need at least one matrix"),
    ], ids=["ranks-zero-dimension", "curve-empty", "curve-ascending", "jacobian-no-matrix"])
    def test_bad_argument_is_value_error(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


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


def correlation_of(group, point, block_size=1, blocks=1):
    """The ``ChannelCorrelation`` report of two row stacks, added in
    ``blocks`` consecutive blocks of rows."""
    stats = ChannelCorrelation()
    for g, p in zip(np.array_split(group, blocks), np.array_split(point, blocks)):
        stats.add(g, p)
    return stats.report(block_size)


class TestChannelCorrelation:
    def test_identity_pipeline_has_unit_diagonal(self):
        rng = np.random.default_rng(7)
        point = rng.standard_normal((500, 6))
        report = correlation_of(point.copy(), point, blocks=5)
        assert np.allclose(np.diag(report.matrix), 1.0, atol=1e-12)
        assert report.mean_in_block == pytest.approx(1.0, abs=1e-12)

    def test_independent_channels_decorrelate(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((10_000, 8))
        b = rng.standard_normal((10_000, 8))
        report = correlation_of(b, a, blocks=10)
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
        report = correlation_of(group_out, point_out, block_size=n, blocks=8)
        assert report.mean_in_block > report.mean_out_block

    def test_zero_variance_flagged(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((100, 3))
        b = rng.standard_normal((100, 3))
        a[:, 2] = 0.0
        b[:, 1] = 4.2  # its column mean, summed row by row, is not exactly 4.2
        report = correlation_of(b, a, blocks=4)
        assert report.zero_variance_channels == [("point", 2), ("group", 1)]
        assert np.all(report.matrix[1, :] == 0.0) and np.all(report.matrix[:, 2] == 0.0)
        assert np.all(np.isfinite(report.matrix))

    def test_misaligned_rows_rejected(self):
        with pytest.raises(ValueError, match="dimensions"):
            ChannelCorrelation().add(np.ones((5, 2)), np.ones((6, 2)))

    def test_non_finite_rows_rejected(self):
        stats = ChannelCorrelation()
        with np.errstate(invalid="ignore"):
            stats.add(np.array([[1.0], [np.inf]]), np.ones((2, 1)))
        with pytest.raises(ShapeError, match="non-finite"):
            stats.report(1)

    @pytest.mark.parametrize("blocks", [1, 3, 40])
    def test_matches_the_whole_stack_oracle(self, blocks):
        # Rows far from zero mean: the merge must not lose the digits that
        # a one-pass sum of squares would.
        rng = np.random.default_rng(12)
        point = 1e3 + rng.standard_normal((120, 5)) @ rng.standard_normal((5, 5))
        group = np.maximum(point, 1e3) @ rng.standard_normal((5, 6)) - 50.0
        report = correlation_of(group, point, block_size=2, blocks=blocks)
        want = filter_correlation(point, group, block_size=2)
        np.testing.assert_allclose(report.matrix, want.matrix, rtol=0, atol=1e-12)
        assert report.mean_in_block == pytest.approx(want.mean_in_block, rel=0, abs=1e-12)
        assert report.mean_out_block == pytest.approx(want.mean_out_block, rel=0, abs=1e-12)
        assert report.zero_variance_channels == want.zero_variance_channels


def random_matrix(rng, shape, rank=None):
    """A standard normal matrix of ``shape``, or a product of rank ``rank``."""
    if rank is None:
        return rng.standard_normal(shape)
    return rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))


class TestStrategyEnergyCurves:
    @pytest.mark.parametrize("mode", ["squared", "sigma"])
    @pytest.mark.parametrize("shape, rank_w, rank_svd", [
        ((36, 8), None, 3),  # tall W
        ((18, 12), None, 12),  # tall W, rank_svd at its largest
        ((9, 16), None, 4),  # wide W (1x1 conv, c_in < c_out)
        ((27, 10), 4, 6),  # rank-deficient W, rank_svd beyond its rank
        ((8, 20), 3, 2),  # wide and rank-deficient
    ])
    def test_match_the_full_svd_path(self, shape, rank_w, rank_svd, mode):
        rng = np.random.default_rng(sum(shape) + (rank_w or 0))
        w = random_matrix(rng, shape, rank_w)
        d, p = random_matrix(rng, (shape[0], 7)), random_matrix(rng, (7, shape[1]))
        got = strategy_energy_curves(w, d, p, rank_svd, mode)
        want = full_svd_energy_curves(w, d, p, rank_svd, mode)
        for new, old in zip(got, want, strict=True):
            assert new.mode == old.mode == mode
            assert new.singular_values.shape == old.singular_values.shape
            np.testing.assert_allclose(new.singular_values, old.singular_values, rtol=0,
                                       atol=1e-12 * old.singular_values[0])
            np.testing.assert_allclose(new.cumulative_energy, old.cumulative_energy, rtol=0,
                                       atol=1e-12)

    def test_baseline_is_the_leading_values_then_zeros(self):
        w = np.random.default_rng(13).standard_normal((20, 6))
        original, _, baseline = strategy_energy_curves(w, w, np.eye(6), 2)
        assert np.array_equal(baseline.singular_values[:2], original.singular_values[:2])
        assert np.all(baseline.singular_values[2:] == 0.0)
        assert np.all(baseline.cumulative_energy[1:] == baseline.cumulative_energy[1])

    def test_no_singular_vectors_are_formed(self, monkeypatch):
        def no_vectors(*args, compute_uv=True, **kwargs):
            assert not compute_uv, "a full SVD was taken"
            return svd(*args, compute_uv=compute_uv, **kwargs)

        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", no_vectors)
        w = np.random.default_rng(14).standard_normal((12, 5))
        strategy_energy_curves(w, w, np.eye(5), 3)

    @pytest.mark.parametrize("rank", [0, 6])
    def test_rank_outside_one_to_min_dimension_rejected(self, rank):
        with pytest.raises(ShapeError, match=r"rank must be in \[1, 5\]"):
            strategy_energy_curves(np.ones((9, 5)), np.ones((9, 1)), np.ones((1, 5)), rank)


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

    def test_correlation_csv(self, tmp_path):
        rng = np.random.default_rng(11)
        point, group = rng.standard_normal((50, 3)), rng.standard_normal((50, 2))
        report = correlation_of(group, point)
        path = write_correlation_csv(tmp_path / "corr.csv", report)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert len(lines[0].split(",")) == 3
