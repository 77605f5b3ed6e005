import json
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from groupcompress import decompose, linalg
from groupcompress.cli import main
from groupcompress.decompose import (
    GroupDecomposition,
    decompose_layer,
    decompose_network,
    decomposed_pairs,
    pair_layers,
    partition_blocks,
)
from groupcompress.errors import DecompositionError, ModelFormatError
from groupcompress.fixtures import build_toy_cnn, build_toy_three
from groupcompress.model import (
    ConvWeights,
    Deferred,
    LayerSpec,
    NetworkSpec,
    array_fields,
    flops_of_layer,
    flops_ratio_fraction,
    forward,
    network_flops,
    read_arrays,
)
from groupcompress.modelio import load_model, save_model
from groupcompress.schedule import CompressionPlan

from nets import pool_fc_net, residual_net
from oracles import (
    block_diagonal_matrix, block_truncation_energy, eager_decompose_network, im2col_rows,
    per_block_decompose, staged_decompose,
)


def random_conv(rng, c_in, c_out, k, bias=True, stride=1, pad=None):
    return ConvWeights(
        c_in=c_in,
        c_out=c_out,
        k=k,
        stride=stride,
        pad=(k // 2 if pad is None else pad),
        weights=rng.standard_normal((c_out, c_in, k, k)),
        bias=rng.standard_normal(c_out) if bias else None,
    )


class TestPartition:
    def test_single_group_is_whole_matrix(self):
        rng = np.random.default_rng(0)
        w = random_conv(rng, 4, 6, 3)
        blocks = partition_blocks(w, 4)
        assert len(blocks) == 1
        assert np.array_equal(blocks[0], w.weight_matrix())

    def test_depthwise_partition_of_1x1(self):
        rng = np.random.default_rng(1)
        w = random_conv(rng, 4, 5, 1)
        blocks = partition_blocks(w, 1)
        assert len(blocks) == 4
        for i, block in enumerate(blocks):
            assert block.shape == (1, 5)
            assert np.array_equal(block[0], w.weight_matrix()[i])

    def test_restack_reproduces_weight_matrix(self):
        rng = np.random.default_rng(2)
        w = random_conv(rng, 6, 7, 3)
        blocks = partition_blocks(w, 2)
        assert np.array_equal(np.vstack(blocks), w.weight_matrix())

    def test_indivisible_n_lists_divisors(self):
        rng = np.random.default_rng(3)
        w = random_conv(rng, 6, 4, 3)
        with pytest.raises(DecompositionError, match=r"\[1, 2, 3, 6\]"):
            partition_blocks(w, 4)

    def test_grouped_layer_rejected(self):
        w = ConvWeights(4, 4, 3, groups=2, weights=np.zeros((4, 2, 3, 3)))
        with pytest.raises(DecompositionError, match="ungrouped"):
            partition_blocks(w, 2)

    def test_blocks_are_a_view_of_the_weights(self):
        rng = np.random.default_rng(19)
        w = random_conv(rng, 6, 5, 3)
        blocks = partition_blocks(w, 3)
        assert blocks.shape == (2, 27, 5)
        assert np.shares_memory(blocks, w.weights)


def conv_with_blocks(rng, c_in, c_out, k, n, blocks="random", stride=1):
    """A random conv whose rank-n channel blocks are then made ``blocks``:
    "random", "zero", "rank-1" (every filter equal to the first, so the
    whole weight matrix has rank 1) or "geometric" (each block's singular
    values spaced geometrically from 1 down to 1e-3)."""
    w = random_conv(rng, c_in, c_out, k, stride=stride)
    stack = partition_blocks(w, n)  # a view: writing it writes the weights
    if blocks == "zero":
        stack[...] = 0.0
    elif blocks == "rank-1":
        stack[...] = stack[..., :1]
    elif blocks == "geometric":
        u, s, vt = np.linalg.svd(stack, full_matrices=False)
        stack[...] = (u * np.geomspace(1.0, 1e-3, s.shape[-1])) @ vt
    return w


def assert_matches_per_block_oracle(decomp, w, n):
    """The factors of ``decomp`` against one SVD per block, up to the signs
    the two algorithms may choose: each block's D_i P_i within 1e-11
    ||W_i||_F, D's column norms within 1e-12 sigma_1, P's rows orthonormal
    to 1e-12 wherever D's column is not zero, and the errors within the
    bound that ``GroupDecomposition`` states (and 1e-9 relative on blocks
    of full rank)."""
    stack = partition_blocks(w, n)
    blocks, m, c_out = stack.shape
    d_weights, p_weights, errors = per_block_decompose(w.weights, n)

    def factors(d, p):
        return d.reshape(blocks, n, m), p.reshape(c_out, blocks, n).transpose(1, 2, 0)

    d_rows, p_rows = factors(decomp.d_layer.weights, decomp.p_layer.weights)
    oracle_d, oracle_p = factors(d_weights, p_weights)
    bound = np.sqrt(min(m, c_out) * np.finfo(np.float64).eps)
    for i, block in enumerate(stack):
        scale = np.linalg.norm(block)
        gap = d_rows[i].T @ p_rows[i] - oracle_d[i].T @ oracle_p[i]
        assert np.linalg.norm(gap) <= 1e-11 * scale
        sigma = np.linalg.norm(d_rows[i], axis=1)
        oracle_sigma = np.linalg.norm(oracle_d[i], axis=1)
        assert np.all(np.abs(sigma - oracle_sigma) <= 1e-12 * oracle_sigma[0])
        p = p_rows[i][sigma > 0]
        assert np.allclose(p @ p.T, np.eye(len(p)), rtol=0, atol=1e-12)
        assert abs(decomp.block_truncation_errors[i] - errors[i]) <= bound * scale
        if np.linalg.matrix_rank(block) == min(m, c_out):
            assert decomp.block_truncation_errors[i] == pytest.approx(errors[i], rel=1e-9)


class TestStackedDecomposition:
    """One eigendecomposition per block of a layer's stacked blocks against
    one SVD per block, and the same bits whatever the CPU count."""

    @pytest.mark.parametrize(
        "c_in, c_out, k, n, stride, force, blocks",
        [
            (6, 5, 3, 6, 1, False, "random"),  # n = c_in: one block
            (8, 12, 3, 1, 1, False, "random"),  # depthwise D
            (8, 10, 3, 2, 2, False, "random"),  # stride 2
            (8, 6, 1, 4, 1, True, "random"),  # forced 1x1
            (8, 2, 3, 4, 1, False, "random"),  # c_out < n: the rank bound pads with zeros
            (4, 3, 1, 4, 1, True, "random"),  # 1x1 with c_out < n
            (8, 5, 3, 2, 1, False, "zero"),  # tall blocks (n k^2 >= c_out)
            (8, 12, 3, 1, 1, False, "zero"),  # wide blocks (n k^2 < c_out)
            (4, 32, 3, 2, 1, False, "rank-1"),  # 32 identical filters, wide
            (8, 32, 3, 4, 1, False, "rank-1"),  # 32 identical filters, tall
            (4, 24, 3, 2, 1, False, "geometric"),
            (8, 4, 3, 2, 1, False, "geometric"),
            (8, 2, 3, 4, 1, False, "rank-1"),  # c_out < n
            (8, 6, 1, 4, 1, True, "geometric"),  # forced 1x1, every sigma kept
        ],
        ids=["one-block", "depthwise", "stride-2", "forced-1x1", "padded", "padded-1x1",
             "zero-tall", "zero-wide", "rank-1-wide", "rank-1-tall", "geometric-wide",
             "geometric-tall", "rank-1-padded", "geometric-forced-1x1"],
    )
    def test_matches_per_block_oracle(self, c_in, c_out, k, n, stride, force, blocks):
        rng = np.random.default_rng(c_in * 100 + c_out * 10 + n)
        w = conv_with_blocks(rng, c_in, c_out, k, n, blocks, stride=stride)
        decomp = decompose_layer(w, n, force_pointwise=force)
        assert_matches_per_block_oracle(decomp, w, n)
        assert decomp.d_layer.stride == stride

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize(
        "c_in, c_out, k, n, blocks",
        [(6, 5, 3, 6, "random"), (4, 5, 3, 2, "random"), (3, 7, 3, 1, "random"),
         (7, 4, 3, 1, "random"), (14, 1, 3, 2, "random"), (7, 12, 3, 1, "rank-1"),
         (10, 20, 3, 2, "geometric"), (5, 12, 3, 1, "zero")],
        ids=["1-block", "2-blocks", "3-blocks", "7-blocks", "7-blocks-padded",
             "7-blocks-rank-1", "5-blocks-geometric", "5-blocks-zero"],
    )
    def test_parts_match_per_block_oracle(
        self, monkeypatch, workers, c_in, c_out, k, n, blocks
    ):
        # Uneven cuts, layers with fewer blocks than workers, and more
        # workers than cores, switching threads as often as they can.
        w = conv_with_blocks(np.random.default_rng(c_in * 10 + n), c_in, c_out, k, n, blocks)
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 1)
        one_part = decompose_layer(w, n)
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            decomp = decompose_layer(w, n)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(decomp.d_layer.weights, one_part.d_layer.weights)
        assert np.array_equal(decomp.p_layer.weights, one_part.p_layer.weights)
        assert np.array_equal(decomp.block_truncation_errors, one_part.block_truncation_errors)
        assert_matches_per_block_oracle(decomp, w, n)

    @pytest.mark.parametrize("groups", [1, 2, 8])
    def test_group_conv_matrix_matches_per_group_oracle(self, groups):
        rng = np.random.default_rng(20 + groups)
        weights = rng.standard_normal((16, 8 // groups, 3, 3))
        conv = ConvWeights(8, 16, 3, groups=groups, weights=weights)
        matrix = conv.weight_matrix()
        assert np.array_equal(matrix, block_diagonal_matrix(weights, groups))
        # Ungrouped, the matrix is a view of the weights; grouped, a copy.
        assert np.shares_memory(matrix, weights) == (groups == 1)


class TestFactoredInPlace:
    """Factors written straight into the layer's D and P arrays against the
    staged path they replaced (``oracles.staged_decompose``)."""

    @pytest.mark.parametrize("workers", [1, 2, 5])
    @pytest.mark.parametrize(
        "c_in, c_out, k, n, force, blocks",
        [
            (12, 5, 3, 2, False, "random"),  # tall blocks (n k^2 >= c_out)
            (12, 24, 3, 2, False, "random"),  # wide blocks (n k^2 < c_out)
            (12, 24, 3, 2, False, "rank-1"),  # wide, every sigma but one zero
            (20, 2, 3, 4, False, "random"),  # rank bound 2 < n: zero-padded rows
            (10, 6, 1, 2, True, "random"),  # forced 1x1
        ],
        ids=["tall", "wide", "rank-1-wide", "padded", "forced-1x1"],
    )
    def test_same_bits_as_staged_factors(
        self, monkeypatch, workers, c_in, c_out, k, n, force, blocks
    ):
        w = conv_with_blocks(np.random.default_rng(c_in * 10 + c_out), c_in, c_out, k, n, blocks)
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: workers)
        decomp = decompose_layer(w, n, force_pointwise=force)
        d, p, errors = staged_decompose(w.weights, n)
        assert np.array_equal(decomp.d_layer.weights, d)
        assert np.array_equal(decomp.p_layer.weights, p)
        assert np.array_equal(decomp.block_truncation_errors, errors)

    def test_factoring_holds_one_d(self, monkeypatch):
        # Tall blocks (n k^2 >= c_out), and 8 n > c_out, so that the entry
        # check's boolean copy of W is smaller than D: a second D-sized
        # array live at any time exceeds the bound.
        c_in, c_out, k, n = 64, 24, 3, 4
        w = random_conv(np.random.default_rng(27), c_in, c_out, k)
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 1)
        d_bytes, p_bytes = 8 * c_in * n * k * k, 8 * c_out * c_in
        gram_bytes = 8 * (c_in // n) * c_out * c_out  # and as much for its eigenvectors
        check_bytes = c_out * c_in * k * k
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            decompose_layer(w, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= d_bytes + p_bytes + 2 * gram_bytes + check_bytes


class TestDecomposeLayer:
    def test_full_rank_recovery(self):
        # c_out <= n guarantees every block has rank <= n, so the
        # decomposition is exact.
        rng = np.random.default_rng(4)
        w = random_conv(rng, 6, 4, 3)
        decomp = decompose_layer(w, 6)
        rel = np.linalg.norm(
            decomp.composed_matrix() - w.weight_matrix()
        ) / np.linalg.norm(w.weight_matrix())
        assert rel <= 1e-10
        assert decomp.total_truncation_error <= 1e-10 * np.linalg.norm(w.weight_matrix())

    def test_pointwise_rejected_by_default(self):
        rng = np.random.default_rng(5)
        w = random_conv(rng, 4, 4, 1)
        with pytest.raises(DecompositionError, match="1x1"):
            decompose_layer(w, 2)
        decomp = decompose_layer(w, 2, force_pointwise=True)
        assert decomp.d_layer.k == 1

    def test_truncation_error_matches_gram_oracle(self):
        rng = np.random.default_rng(6)
        w = random_conv(rng, 8, 16, 3)
        n = 2
        decomp = decompose_layer(w, n)
        blocks = partition_blocks(w, n)
        total_sq = 0.0
        for i, block in enumerate(blocks):
            expected_sq = block_truncation_energy(block, n)
            assert decomp.block_truncation_errors[i] ** 2 == pytest.approx(
                expected_sq, rel=1e-9
            )
            # The reported error is also the actual Frobenius gap of the block.
            approx = decomp.composed_matrix()[
                i * n * 9 : (i + 1) * n * 9
            ]
            actual = np.linalg.norm(block - approx)
            assert decomp.block_truncation_errors[i] == pytest.approx(actual, rel=1e-9)
            total_sq += expected_sq
        assert decomp.total_truncation_error**2 == pytest.approx(total_sq, rel=1e-9)

    def test_d_is_exactly_block_diagonal(self):
        rng = np.random.default_rng(7)
        w = random_conv(rng, 8, 10, 3)
        decomp = decompose_layer(w, 2)
        d = decomp.d_layer.weight_matrix()
        rows, n, k = 2 * 9, 2, 3
        for i in range(4):
            block = d[i * rows : (i + 1) * rows, i * n : (i + 1) * n].copy()
            d[i * rows : (i + 1) * rows, i * n : (i + 1) * n] = 0.0
            assert np.count_nonzero(block) > 0
        assert np.count_nonzero(d) == 0  # all off-block entries exactly zero

    def test_monotone_error_in_n(self):
        rng = np.random.default_rng(8)
        w = random_conv(rng, 8, 12, 3)
        errors = [decompose_layer(w, n).total_truncation_error for n in (1, 2, 4, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_blocks_are_eckart_young_optimal(self):
        rng = np.random.default_rng(9)
        w = random_conv(rng, 6, 9, 3)
        n = 3
        decomp = decompose_layer(w, n)
        composed = decomp.composed_matrix()
        for i, block in enumerate(partition_blocks(w, n)):
            u, s, vt = np.linalg.svd(block, full_matrices=False)
            best = (u[:, :n] * s[:n]) @ vt[:n]
            assert np.allclose(
                composed[i * n * 9 : (i + 1) * n * 9], best, atol=1e-10
            )

    def test_forward_equivalence_at_full_rank(self):
        rng = np.random.default_rng(10)
        w = random_conv(rng, 6, 4, 3, stride=2, pad=1)
        decomp = decompose_layer(w, 6)
        net_orig = NetworkSpec("o", (6, 9, 9), [LayerSpec(id="c", kind="conv", conv=w)])
        net_pair = NetworkSpec(
            "d",
            (6, 9, 9),
            [
                LayerSpec(id="c.d", kind="conv", conv=decomp.d_layer),
                LayerSpec(id="c.p", kind="conv", conv=decomp.p_layer),
            ],
        )
        for _ in range(5):
            x = rng.standard_normal((6, 9, 9))
            a = forward(net_orig, x)
            b = forward(net_pair, x)
            assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(a)

    def test_truncated_forward_error_bounded_by_operator_norm(self):
        rng = np.random.default_rng(11)
        w = random_conv(rng, 8, 12, 3, bias=False)
        n = 2
        decomp = decompose_layer(w, n)
        gap = w.weight_matrix() - decomp.composed_matrix()
        op_norm = np.linalg.svd(gap, compute_uv=False)[0]
        x = rng.standard_normal((8, 7, 7))
        patches = im2col_rows(x, 3, 1, 1)
        y = patches @ w.weight_matrix()
        y_star = patches @ decomp.composed_matrix()
        assert np.linalg.norm(y - y_star) <= op_norm * np.linalg.norm(patches) + 1e-9

    def test_bias_carried_on_p(self):
        rng = np.random.default_rng(12)
        w = random_conv(rng, 4, 6, 3)
        decomp = decompose_layer(w, 2)
        assert decomp.d_layer.bias is None
        assert np.array_equal(decomp.p_layer.bias, w.bias)
        assert decomp.d_layer.stride == w.stride and decomp.d_layer.pad == w.pad
        assert decomp.p_layer.stride == 1 and decomp.p_layer.pad == 0

    def test_pair_flops_match_ratio_formula(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            c_in = int(rng.choice([2, 4, 6, 8, 12]))
            c_out = int(rng.integers(1, 20))
            k = int(rng.choice([2, 3, 5]))
            n = int(rng.choice([d for d in range(1, c_in + 1) if c_in % d == 0]))
            w = random_conv(rng, c_in, c_out, k, bias=False)
            decomp = decompose_layer(w, n)
            oh, ow = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            pair = flops_of_layer(decomp.d_layer, oh, ow) + flops_of_layer(
                decomp.p_layer, oh, ow
            )
            orig = flops_of_layer(w, oh, ow)
            assert pair == orig * flops_ratio_fraction(c_out, k, n)


    @pytest.mark.parametrize("stride, pad", [(1, 1), (2, 1), (2, 0)])
    def test_pair_has_pair_layers_geometry(self, stride, pad):
        w = random_conv(np.random.default_rng(23), 6, 5, 3, stride=stride, pad=pad)
        decomp = decompose_layer(w, 2)
        shapes = tuple(replace(c, weights=None, bias=None)
                       for c in (decomp.d_layer, decomp.p_layer))
        assert shapes == pair_layers(w, 2)
        assert (shapes[0].stride, shapes[0].pad) == (stride, pad)


class TestJacobianRank:
    def test_numerical_rank_of_assembled_product(self):
        rng = np.random.default_rng(14)
        w = random_conv(rng, 8, 12, 3, bias=False)
        decomp = decompose_layer(w, 2)
        assert linalg.numerical_rank(decomp.composed_matrix()) == 8


def read_pairs(decomposed):
    """``decompose_network``'s result, once each pair's arrays were read,
    which factors the pairs (D first, so each once) in network order."""
    for pair in decomposed[1]:
        read_arrays(pair.d.conv), read_arrays(pair.p.conv)
    return decomposed


class TestDecomposeNetwork:
    def build(self, rng):
        w1 = random_conv(rng, 4, 4, 3)
        w2 = random_conv(rng, 4, 6, 3)
        return NetworkSpec(
            "net",
            (4, 8, 8),
            [
                LayerSpec(id="c1", kind="conv", stage="s0", conv=w1),
                LayerSpec(id="r1", kind="relu"),
                LayerSpec(id="c2", kind="conv", stage="s0", conv=w2),
                LayerSpec(id="add", kind="add", source="c1"),
            ],
        )

    def test_structure_and_references(self):
        rng = np.random.default_rng(15)
        net = self.build(rng)
        # `add` joins c2's 6-channel output with c1's 4 channels: invalid, so
        # drop it for this test and use a plain chain.
        net.layers = net.layers[:3]
        compressed, pairs = decompose_network(net, {"c1": 2, "c2": 2})
        ids = [l.id for l in compressed.layers]
        assert ids == ["c1.d", "c1.p", "r1", "c2.d", "c2.p"]
        assert compressed.layer("c1.d").meta == {"decomposed_from": "c1", "rank_n": 2}
        assert [(pair.source, pair.d.id, pair.p.id, pair.n) for pair in pairs] == [
            ("c1", "c1.d", "c1.p", 2), ("c2", "c2.d", "c2.p", 2)
        ]
        for pair in pairs:
            assert pair.d is compressed.layer(pair.d.id) and pair.p is compressed.layer(pair.p.id)
            assert pair.block_truncation_errors.shape == (net.layer(pair.source).conv.c_in // 2,)
            assert pair.fit is None

    def test_add_source_redirected_to_pointwise(self):
        rng = np.random.default_rng(16)
        w1 = random_conv(rng, 4, 4, 3)
        w2 = random_conv(rng, 4, 4, 3)
        net = NetworkSpec(
            "net",
            (4, 8, 8),
            [
                LayerSpec(id="c1", kind="conv", conv=w1),
                LayerSpec(id="c2", kind="conv", conv=w2),
                LayerSpec(id="add", kind="add", source="c1"),
            ],
        )
        compressed, _ = decompose_network(net, {"c1": 4, "c2": 4})
        assert compressed.layer("add").source == "c1.p"
        x = rng.standard_normal((4, 8, 8))
        a = forward(net, x)
        b = forward(compressed, x)
        assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(a)

    def test_flops_drop_matches_prediction(self):
        rng = np.random.default_rng(17)
        net = self.build(rng)
        net.layers = net.layers[:3]
        compressed, _ = decompose_network(net, {"c2": 2})
        total_before, per_before = network_flops(net)
        total_after, per_after = network_flops(compressed)
        ratio = flops_ratio_fraction(6, 3, 2)
        assert per_after["c2.d"] + per_after["c2.p"] == per_before["c2"] * ratio
        assert per_after["c1"] == per_before["c1"]

    def test_each_stack_factored_once_in_at_most_one_part_per_cpu(self, monkeypatch):
        net = self.build(np.random.default_rng(21))
        net.layers = net.layers[:3]
        ranks = {"c1": 1, "c2": 2}
        factors = linalg._leading_factors
        for workers in (1, 2, 3, 5):
            parts = []

            def recording_factors(a, n, d, p):
                parts.append(a.copy())
                return factors(a, n, d, p)

            monkeypatch.setattr(linalg, "_leading_factors", recording_factors)
            monkeypatch.setattr(linalg, "_usable_cpus", lambda: workers)
            read_pairs(decompose_network(net, ranks))
            stacks = [partition_blocks(net.layer(lid).conv, n) for lid, n in ranks.items()]
            # Every part is a part of c1 or c2, and c1's all come first.
            shapes = [stack.shape[1:] for stack in stacks]
            assert [part.shape[1:] for part in parts] == sorted(
                (part.shape[1:] for part in parts), key=shapes.index)
            for stack in stacks:
                mine = [part for part in parts if part.shape[1:] == stack.shape[1:]]
                assert 1 <= len(mine) <= workers
                # Parts in stack order, by where each one's first block sits.
                mine.sort(key=lambda part: next(
                    i for i, block in enumerate(stack) if np.array_equal(block, part[0])))
                assert np.array_equal(np.concatenate(mine), stack)

    def test_one_cpu_or_one_block_starts_no_thread(self, monkeypatch):
        net = self.build(np.random.default_rng(24))
        net.layers = net.layers[:3]

        def no_thread(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 1)
        one_cpu, _ = read_pairs(decompose_network(net, {"c1": 1, "c2": 1}))
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 5)
        one_block, _ = read_pairs(decompose_network(net, {"c1": 4, "c2": 4}))
        assert [l.id for l in one_cpu.layers] == [l.id for l in one_block.layers]

    @pytest.mark.parametrize(
        "edits",
        [
            {"c1.p": {"meta": {}}, "r1": {"meta": {"decomposed_from": "c1"}}},
            {"c1.p": {"meta": {}}, "c2.d": {"meta": {"decomposed_from": "c1"}}},
            {"c1.p": {"input": "r1"}},
            {"c1.p": {"meta": {"decomposed_from": "c1", "rank_n": 1}}},
            {"c1.p": {"conv": {"stride": 2}}},
            {"c1.p": {"conv": {"pad": 1}}},
            {"c1.d": {"conv": {"c_out": 8, "weights": None}},
             "c1.p": {"conv": {"c_in": 8, "weights": None}}},
        ],
        ids=["p-is-relu", "p-not-1x1", "p-reads-other", "rank_n-mismatch", "p-stride-2",
             "p-pad-1", "d-widens"],
    )
    def test_malformed_pair_is_format_error(self, edits):
        net = self.build(np.random.default_rng(22))
        net.layers = net.layers[:3]
        compressed, _ = decompose_network(net, {"c1": 2, "c2": 2})
        pairs = decomposed_pairs(compressed, net)
        assert [(pair.source, pair.d.id, pair.p.id, pair.n) for pair in pairs] == [
            ("c1", "c1.d", "c1.p", 2), ("c2", "c2.d", "c2.p", 2)
        ]
        assert all(pair.block_truncation_errors is None for pair in pairs)
        def edited(layer):  # a "conv" edit replaces fields of the layer's conv
            fields = dict(edits.get(layer.id, {}))
            if "conv" in fields:
                fields["conv"] = replace(layer.conv, **fields["conv"])
            return replace(layer, **fields)

        compressed.layers = [edited(l) for l in compressed.layers]
        with pytest.raises(ModelFormatError, match="decomposed_from='c1'"):
            decomposed_pairs(compressed, net)

    def test_planned_convs_are_read_for_one_use(self, tmp_path):
        """A planned conv of a loaded model is read without being kept in
        the input network, and every other tensor stays unread, in the input
        network and in the output's shared records."""
        net = load_model(save_model(build_toy_cnn(seed=0), tmp_path / "toy4.json"))
        compressed, _ = decompose_network(net, {"c2": 2, "c3": 2})
        for layer in (*net.conv_layers(), compressed.layer("c1"), compressed.layer("c4")):
            assert all(isinstance(value, Deferred) for *_, value in array_fields(layer.conv))

    def test_unknown_layer_rejected(self):
        rng = np.random.default_rng(18)
        net = self.build(rng)
        with pytest.raises(DecompositionError, match="nope"):
            decompose_network(net, {"nope": 2})


def pointwise_net(seed=0):
    """A 3x3 conv without bias, then a 1x1 conv with one."""
    rng = np.random.default_rng(seed)
    return NetworkSpec("pointwise", (4, 5, 5), [
        LayerSpec(id="c1", kind="conv", conv=random_conv(rng, 4, 6, 3, bias=False)),
        LayerSpec(id="r1", kind="relu"),
        LayerSpec(id="pw", kind="conv", conv=random_conv(rng, 6, 8, 1)),
    ])


def near_float32_net(seed=0):
    """One conv whose single block has singular values 2.5e38 to 1e38: its
    Frobenius norm, 3.7e38, is beyond float32, while D's values are not."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((36, 4)))[0]
    matrix = q * np.array([2.5e38, 2e38, 1.5e38, 1e38])
    conv = ConvWeights(4, 4, 3, pad=1, weights=matrix.T.reshape(4, 4, 3, 3),
                       bias=rng.standard_normal(4))
    return NetworkSpec("near-float32", (4, 5, 5), [LayerSpec(id="c1", kind="conv", conv=conv)])


class TestFactoredOnFirstRead:
    """``decompose_network`` defers each pair's factoring to the first read
    of one of its arrays; ``oracles.eager_decompose_network`` factors every
    pair at once. Both give the same layers, arrays and files."""

    CASES = {  # build, layer ranks, force_pointwise
        "toy3": (build_toy_three, {"c1": 1, "c2": 2, "c3": 4}, False),
        "toy4": (build_toy_cnn, {"c1": 2, "c2": 1, "c3": 4, "c4": 2}, False),
        "residual": (residual_net, {"c1": 1, "c2": 2, "sc": 4, "c3": 2}, False),
        "pool-fc": (pool_fc_net, {"c1": 1}, False),
        "pointwise": (pointwise_net, {"c1": 2, "pw": 3}, True),
        # Factored once in the check, to check D, then again when read.
        "near-float32": (near_float32_net, {"c1": 4}, False),
    }

    @pytest.fixture(params=["one-cpu", "every-cpu"])
    def cpus(self, request, monkeypatch):
        if request.param == "one-cpu":
            monkeypatch.setattr(linalg, "_usable_cpus", lambda: 1)

    @pytest.mark.parametrize("name", CASES)
    def test_arrays_match_the_eager_oracle(self, cpus, name):
        build, ranks, force = self.CASES[name]
        net = build(0)
        expected, errors = eager_decompose_network(net, ranks, force)
        compressed, pairs = decompose_network(net, ranks, force)

        def structure(network):
            return [(l.id, l.kind, l.stage, l.input, l.source, l.meta) for l in network.layers]

        assert structure(compressed) == structure(expected)
        assert [pair.source for pair in pairs] == list(errors)
        for pair in pairs:
            for layer in (pair.d, pair.p):
                # The first read factors the pair; the attribute read, a
                # second one of the same array, factors it again.
                once, want = read_arrays(layer.conv), expected.layer(layer.id).conv
                for field, *_, value in array_fields(want):
                    for got in (getattr(once, field), getattr(layer.conv, field)):
                        assert (got is None if value is None
                                else np.array_equal(got, value)), (layer.id, field)
            assert np.array_equal(pair.block_truncation_errors, errors[pair.source])

    @pytest.mark.parametrize("name", CASES)
    def test_truncation_writes_the_eager_bytes(self, cpus, name, tmp_path):
        build, ranks, force = self.CASES[name]
        path = save_model(build(0), tmp_path / "model.json")
        plan = CompressionPlan("constant", 1, {}, ranks).save(tmp_path / "plan.json")
        out = tmp_path / "out"
        assert main(["compress", str(path), "--plan", str(plan), "--no-reconstruct",
                     *(["--force-1x1"] if force else []), "-o", str(out)]) == 0
        compressed, errors = eager_decompose_network(load_model(path), ranks, force)
        eager = save_model(compressed, tmp_path / "eager" / "model.json")
        for file_name in ("model.json", "model.bin"):
            assert (out / file_name).read_bytes() == (eager.parent / file_name).read_bytes()
        rows = json.loads((out / "report.json").read_text())["layers"]
        assert {row["layer"]: row["block_truncation_errors"] for row in rows} == {
            source: errors[source].tolist() for source in errors}
