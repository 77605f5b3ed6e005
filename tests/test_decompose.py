from dataclasses import replace

import numpy as np
import pytest

from groupcompress import linalg
from groupcompress.decompose import (
    GroupDecomposition,
    decompose_layer,
    decompose_network,
    decomposed_pairs,
    group_conv_matrix,
    pair_layers,
    partition_blocks,
)
from groupcompress.errors import DecompositionError, ModelFormatError
from groupcompress.model import (
    ConvWeights,
    LayerSpec,
    NetworkSpec,
    flops_of_layer,
    flops_ratio_fraction,
    forward,
    network_flops,
)

from oracles import (
    block_diagonal_matrix, block_truncation_energy, im2col_rows, per_block_decompose,
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


class TestStackedDecomposition:
    """One SVD over a layer's stacked blocks against one SVD per block."""

    @pytest.mark.parametrize(
        "c_in, c_out, k, n, stride, force",
        [
            (6, 5, 3, 6, 1, False),  # n = c_in: one block
            (8, 12, 3, 1, 1, False),  # depthwise D
            (8, 10, 3, 2, 2, False),  # stride 2
            (8, 6, 1, 4, 1, True),  # forced 1x1
            (8, 2, 3, 4, 1, False),  # c_out < n: the rank bound pads with zeros
            (4, 3, 1, 4, 1, True),  # 1x1 with c_out < n
        ],
        ids=["one-block", "depthwise", "stride-2", "forced-1x1", "padded", "padded-1x1"],
    )
    def test_matches_per_block_oracle(self, c_in, c_out, k, n, stride, force):
        rng = np.random.default_rng(c_in * 100 + c_out * 10 + n)
        w = random_conv(rng, c_in, c_out, k, stride=stride)
        decomp = decompose_layer(w, n, force_pointwise=force)
        d_weights, p_weights, errors = per_block_decompose(w.weights, n)
        assert np.array_equal(decomp.d_layer.weights, d_weights)
        assert np.array_equal(decomp.p_layer.weights, p_weights)
        assert np.array_equal(decomp.block_truncation_errors, errors)
        assert decomp.d_layer.stride == stride

    @pytest.mark.parametrize("groups", [1, 2, 8])
    def test_group_conv_matrix_matches_per_group_oracle(self, groups):
        rng = np.random.default_rng(20 + groups)
        weights = rng.standard_normal((16, 8 // groups, 3, 3))
        conv = ConvWeights(8, 16, 3, groups=groups, weights=weights)
        assert np.array_equal(group_conv_matrix(conv), block_diagonal_matrix(weights, groups))


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
        d = decomp.d_matrix()
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
        compressed, decomps = decompose_network(net, {"c1": 2, "c2": 2})
        ids = [l.id for l in compressed.layers]
        assert ids == ["c1.d", "c1.p", "r1", "c2.d", "c2.p"]
        assert compressed.layer("c1.d").meta == {"decomposed_from": "c1", "rank_n": 2}
        assert set(decomps) == {"c1", "c2"}

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

    def test_one_svd_call_per_planned_layer(self, monkeypatch):
        rng = np.random.default_rng(21)
        net = self.build(rng)
        net.layers = net.layers[:3]
        calls = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        decompose_network(net, {"c1": 1, "c2": 2})
        assert calls == [(4, 9, 4), (2, 18, 6)]

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
        pairs = decomposed_pairs(compressed)
        assert [(src, d.id, p.id) for src, d, p in pairs] == [
            ("c1", "c1.d", "c1.p"), ("c2", "c2.d", "c2.p")
        ]
        def edited(layer):  # a "conv" edit replaces fields of the layer's conv
            fields = dict(edits.get(layer.id, {}))
            if "conv" in fields:
                fields["conv"] = replace(layer.conv, **fields["conv"])
            return replace(layer, **fields)

        compressed.layers = [edited(l) for l in compressed.layers]
        with pytest.raises(ModelFormatError, match="decomposed_from='c1'"):
            decomposed_pairs(compressed)

    def test_unknown_layer_rejected(self):
        rng = np.random.default_rng(18)
        net = self.build(rng)
        with pytest.raises(DecompositionError, match="nope"):
            decompose_network(net, {"nope": 2})
