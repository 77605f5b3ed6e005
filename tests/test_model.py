import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcompress import linalg, model
from groupcompress.decompose import decompose_network, pair_layers
from groupcompress.errors import DecompositionError, ShapeError
from groupcompress.fixtures import build_toy_cnn, build_toy_three
from groupcompress.model import (
    AffineParams,
    ConvWeights,
    FcParams,
    LayerSpec,
    NetworkSpec,
    PoolParams,
    flops_of_layer,
    flops_ratio_fraction,
    forward,
    layer_inputs,
    network_flops,
    propagate_shapes,
    stack_taps,
)

from nets import pool_fc_net, residual_net
from oracles import (
    chunked_group_conv, direct_conv, direct_pool, im2col_rows, per_group_conv,
    reference_forward,
)


def conv_layer(layer_id, weights, bias=None, stride=1, pad=0, groups=1, stage=None):
    c_out, c_in_g, k, _ = weights.shape
    return LayerSpec(
        id=layer_id,
        kind="conv",
        stage=stage,
        conv=ConvWeights(
            c_in=c_in_g * groups,
            c_out=c_out,
            k=k,
            groups=groups,
            stride=stride,
            pad=pad,
            weights=weights,
            bias=bias,
        ),
    )


class TestForward:
    def test_delta_kernel_is_identity(self):
        c = 3
        w = np.zeros((c, c, 3, 3))
        for i in range(c):
            w[i, i, 1, 1] = 1.0
        net = NetworkSpec("t", (c, 5, 5), [conv_layer("conv", w, pad=1)])
        rng = np.random.default_rng(0)
        x = rng.standard_normal((c, 5, 5))
        assert np.allclose(forward(net, x), x, atol=1e-12)

    def test_depthwise_all_ones_on_constant_input(self):
        c = 4
        w = np.ones((c, 1, 3, 3))
        net = NetworkSpec(
            "t", (c, 6, 6), [conv_layer("conv", w, pad=1, groups=c)]
        )
        out = forward(net, np.ones((c, 6, 6)))
        assert np.allclose(out[:, 1:-1, 1:-1], 9.0)
        assert np.allclose(out[:, 0, 0], 4.0)  # corners see a 2x2 window

    def test_two_conv_net_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(1)
        w1 = rng.standard_normal((5, 3, 3, 3)) / 3.0
        b1 = rng.standard_normal(5)
        w2 = rng.standard_normal((4, 5, 3, 3)) / 3.0
        net = NetworkSpec(
            "t",
            (3, 8, 8),
            [
                conv_layer("c1", w1, bias=b1, pad=1),
                LayerSpec(id="r1", kind="relu"),
                conv_layer("c2", w2, stride=2, pad=1),
            ],
        )
        x = rng.standard_normal((3, 8, 8))
        expected = direct_conv(
            np.maximum(direct_conv(x, w1, bias=b1, pad=1), 0.0), w2, stride=2, pad=1
        )
        assert np.allclose(forward(net, x), expected, atol=1e-10)

    def test_grouped_strided_conv_matches_oracle(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((6, 2, 3, 3))
        net = NetworkSpec(
            "t", (4, 7, 7), [conv_layer("c", w, stride=2, pad=1, groups=2)]
        )
        x = rng.standard_normal((4, 7, 7))
        assert np.allclose(
            forward(net, x), direct_conv(x, w, stride=2, pad=1, groups=2), atol=1e-10
        )

    def test_residual_add_and_affine(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((3, 3, 3, 3)) / 3.0
        scale = rng.standard_normal(3)
        shift = rng.standard_normal(3)
        net = NetworkSpec(
            "t",
            (3, 5, 5),
            [
                conv_layer("c1", w, pad=1),
                LayerSpec(
                    id="bn1",
                    kind="channel_affine",
                    affine=AffineParams(3, scale=scale, shift=shift),
                ),
                LayerSpec(id="add", kind="add", source="c1"),
            ],
        )
        x = rng.standard_normal((3, 5, 5))
        c1 = direct_conv(x, w, pad=1)
        expected = (c1 * scale[:, None, None] + shift[:, None, None]) + c1
        assert np.allclose(forward(net, x), expected, atol=1e-12)

    def test_pools_and_fc(self):
        rng = np.random.default_rng(4)
        fcw = rng.standard_normal((3, 4))
        net = NetworkSpec(
            "t",
            (1, 4, 4),
            [
                LayerSpec(id="mp", kind="maxpool", pool=PoolParams(k=2, stride=2)),
                LayerSpec(
                    id="fc",
                    kind="fc",
                    fc=FcParams(4, 3, weights=fcw, bias=np.zeros(3)),
                ),
            ],
        )
        x = rng.standard_normal((1, 4, 4))
        pooled = np.array(
            [
                [x[0, :2, :2].max(), x[0, :2, 2:].max()],
                [x[0, 2:, :2].max(), x[0, 2:, 2:].max()],
            ]
        )
        assert np.allclose(forward(net, x), fcw @ pooled.reshape(-1))

    def test_global_avgpool(self):
        net = NetworkSpec(
            "t", (2, 3, 3), [LayerSpec(id="ap", kind="avgpool", pool=PoolParams(3, 1))]
        )
        x = np.arange(18.0).reshape(2, 3, 3)
        out = forward(net, x)
        assert out.shape == (2, 1, 1)
        assert np.allclose(out[:, 0, 0], x.reshape(2, -1).mean(axis=1))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((4, 3, 3, 3))
        net = NetworkSpec("t", (3, 6, 6), [conv_layer("c", w, pad=1)])
        x = rng.standard_normal((3, 6, 6))
        a = forward(net, x)
        b = forward(net, x)
        assert np.array_equal(a, b)

    def test_stack_taps_rows_match_im2col_product(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((4, 3, 3, 3))
        net = NetworkSpec(
            "t", (3, 6, 6), [conv_layer("c", w, pad=1), LayerSpec(id="r", kind="relu")]
        )
        samples = rng.standard_normal((2, 3, 6, 6))
        rows = stack_taps(net, samples, ["c"])["c"]
        w_mat = net.layer("c").conv.weight_matrix()
        expected = np.vstack([im2col_rows(x, 3, 1, 1) @ w_mat for x in samples])
        assert rows.shape == (72, 4)
        assert np.allclose(rows, expected)

    def test_shape_mismatch_names_layer(self):
        w = np.zeros((2, 3, 3, 3))
        net = NetworkSpec("t", (4, 5, 5), [conv_layer("bad", w, pad=1)])
        with pytest.raises(ShapeError, match="bad"):
            forward(net, np.zeros((4, 5, 5)))

    def test_input_shape_checked(self):
        net = NetworkSpec("t", (1, 3, 3), [LayerSpec(id="r", kind="relu")])
        with pytest.raises(ShapeError, match="input shape"):
            forward(net, np.zeros((2, 3, 3)))


def rel_err(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


class TestBatchedConv:
    """The conv kernel against the per-group loop."""

    @pytest.mark.parametrize(
        "c_in, c_out, k, groups, stride, pad, bias",
        [
            (25, 25, 3, 25, 1, 1, True),  # depthwise
            (10, 40, 3, 10, 1, 1, True),  # four filters a group
            (12, 18, 3, 3, 2, 1, True),  # stride 2, pad 1
            (12, 8, 1, 4, 1, 0, True),  # 1x1: the patches are a view
            (6, 6, 3, 1, 1, 1, False),  # ungrouped, bias None
            (16, 16, 5, 16, 2, 2, False),  # depthwise 5x5, stride 2, bias None
        ],
        ids=["depthwise", "partial-chunk", "stride2-pad1", "k1-view", "ungrouped-nobias",
             "depthwise-k5-stride2"],
    )
    def test_random_layer_matches_per_group_loop(self, c_in, c_out, k, groups, stride, pad, bias):
        rng = np.random.default_rng(c_in * 100 + c_out + k)
        w = rng.standard_normal((c_out, c_in // groups, k, k))
        b = rng.standard_normal(c_out) if bias else None
        net = NetworkSpec(
            "t", (c_in, 9, 11), [conv_layer("c", w, bias=b, stride=stride, pad=pad, groups=groups)]
        )
        x = rng.standard_normal((c_in, 9, 11))
        want = per_group_conv(x, w, bias=b, stride=stride, pad=pad, groups=groups)
        got = forward(net, x)
        assert got.shape == want.shape
        assert rel_err(got, want) <= 1e-10

    @pytest.mark.parametrize(
        "build", [build_toy_three, build_toy_cnn, residual_net], ids=["toy3", "toy4", "residual"]
    )
    @pytest.mark.parametrize("decomposed", [False, True], ids=["original", "decomposed"])
    def test_whole_forward_matches_per_group_loop(self, monkeypatch, build, decomposed):
        net = build(0)
        if decomposed:
            net, _ = decompose_network(net, {l.id: 1 for l in net.conv_layers()})
        x = np.random.default_rng(7).standard_normal(net.input_shape)
        got = forward(net, x)

        def oracle(layer, batch, other):
            c = layer.conv
            return np.stack(
                [per_group_conv(x, c.weights, c.bias, c.stride, c.pad, c.groups) for x in batch]
            )

        conv_rule = dataclasses.replace(model._KINDS["conv"], forward=oracle)
        monkeypatch.setitem(model._KINDS, "conv", conv_rule)
        assert rel_err(got, forward(net, x)) <= 1e-10


def tiled_conv_blocks(groups, per_in, per_out, k, stride, pad, h, w, budget, seed=0):
    """Run ``_conv_forward`` on two random samples with the patch budget set
    to ``budget`` bytes, check each sample against the chunked and the
    per-group kernels, and return the blocks the conv used."""
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((groups * per_out, per_in, k, k))
    bias = rng.standard_normal(groups * per_out)
    layer = conv_layer("c", weights, bias=bias, stride=stride, pad=pad, groups=groups)
    xs = rng.standard_normal((2, groups * per_in, h, w))
    h_out, w_out = layer.conv.out_size(h, w)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "PATCH_BYTES", budget)
        got = model._conv_forward(layer, xs)
        blocks = list(model._patch_blocks(groups, per_in * k * k, h_out, w_out))
    for x, out in zip(xs, got):
        for oracle in (chunked_group_conv, per_group_conv):
            assert rel_err(out, oracle(x, weights, bias, stride, pad, groups)) <= 1e-10
    return blocks


class TestTiledConv:
    """Patch blocks of whole groups or of a group's output rows, bounded by
    PATCH_BYTES, against the chunk-per-groups and the per-group kernels."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_chunked_and_per_group_kernels(self, data):
        groups, per_in, per_out = (data.draw(st.integers(1, n)) for n in (6, 4, 4))
        k = data.draw(st.integers(1, 4))
        stride = data.draw(st.sampled_from([1, 2]))
        pad = data.draw(st.integers(0, 3))
        h, w = (data.draw(st.integers(max(1, k - 2 * pad), 12)) for _ in range(2))
        budget = data.draw(st.sampled_from([8, 300, 2000, 10_000, 1 << 20]))
        blocks = tiled_conv_blocks(groups, per_in, per_out, k, stride, pad, h, w, budget,
                                   seed=data.draw(st.integers(0, 2**16)))
        rows = per_in * k * k
        h_out, w_out = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
        # Every (group, output row) once, in order.
        assert [(g, r) for g0, end, r0, r1 in blocks for g in range(g0, end)
                for r in range(r0, r1)] == [(g, r) for g in range(groups) for r in range(h_out)]
        for g0, end, r0, r1 in blocks:
            # Within budget, unless one group's tile is as wide as it is deep.
            nbytes = (end - g0) * rows * (r1 - r0) * w_out * 8
            assert nbytes <= budget or (end - g0 == 1 and r1 - r0 <= -(-rows // w_out))
            if r1 < h_out:
                assert (r1 - r0) * w_out >= rows

    def test_stride2_row_tiles(self):
        blocks = tiled_conv_blocks(2, 2, 3, 3, 2, 1, 13, 13, budget=3100)
        assert [b[2:] for b in blocks[:3]] == [(0, 3), (3, 6), (6, 7)]

    def test_padding_at_a_tile_edge(self):
        # Output rows of one row each over a 4-row map padded by 3: tiles 1
        # and 2 start inside the top padding, and the last reads only the
        # bottom padding.
        blocks = tiled_conv_blocks(3, 1, 2, 3, 1, 3, 4, 12, budget=8)
        assert [b[2:] for b in blocks if b[0] == 0] == [(r, r + 1) for r in range(8)]

    def test_last_tile_of_one_row(self):
        blocks = tiled_conv_blocks(1, 1, 2, 3, 1, 1, 7, 10, budget=2200)
        assert [b[2:] for b in blocks] == [(0, 3), (3, 6), (6, 7)]

    def test_group_larger_than_budget(self):
        # 27 rows x 64 positions is 13,824 bytes a group; a 4-row tile is the
        # narrowest as wide as it is deep, though it exceeds the budget.
        blocks = tiled_conv_blocks(3, 3, 2, 3, 1, 1, 8, 8, budget=5000)
        assert blocks == [(g, g + 1, r, min(r + 4, 8)) for g in range(3) for r in (0, 4)]

    def test_depthwise_block_of_many_groups(self):
        # 9 rows x 36 positions is 2,592 bytes a group: five groups a block.
        blocks = tiled_conv_blocks(24, 1, 1, 3, 1, 1, 6, 6, budget=5 * 2592 + 100)
        assert blocks == [(g, min(g + 5, 24), 0, 6) for g in range(0, 24, 5)]

    def test_pointwise_reads_the_input_itself(self, monkeypatch):
        def no_tile(*args):
            raise AssertionError("a 1x1 conv built a patch tile")

        monkeypatch.setattr(linalg, "patch_tile", no_tile)
        tiled_conv_blocks(4, 3, 2, 1, 1, 0, 5, 7, budget=8)


class TestBatchWalk:
    """A walk over a batch of samples against walks over one sample each."""

    @pytest.mark.parametrize(
        "build", [build_toy_three, build_toy_cnn, residual_net, pool_fc_net],
        ids=["toy3", "toy4", "residual", "pool-fc-affine"],
    )
    def test_batch_matches_one_sample_walks(self, build):
        net = build(0)
        xs = np.random.default_rng(9).standard_normal((5, *net.input_shape))
        batch = {layer.id: out for layer, _, out in model._walk(net, xs)}
        singles = [{layer.id: out for layer, _, out in model._walk(net, x[None])} for x in xs]
        for layer in net.layers:
            stacked = np.concatenate([single[layer.id] for single in singles])
            assert batch[layer.id].shape == (5, *propagate_shapes(net)[layer.id])
            assert np.array_equal(batch[layer.id], stacked), layer.id
        for x, out in zip(xs, batch[net.layers[-1].id]):
            want = reference_forward(net, x)
            assert rel_err(forward(net, x), want) <= 1e-10
            assert np.array_equal(forward(net, x), out)


class TestPooling:
    @pytest.mark.parametrize("seed", range(12))
    def test_padded_pools_match_nested_loops(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        pool = PoolParams(k=k, stride=int(rng.integers(1, 4)), pad=int(rng.integers(1, k)))
        shape = (int(rng.integers(1, 4)), int(rng.integers(k, 10)), int(rng.integers(k, 10)))
        x = rng.standard_normal(shape)
        for kind, mode in (("maxpool", "max"), ("avgpool", "avg")):
            net = NetworkSpec("t", shape, [LayerSpec(id="p", kind=kind, pool=pool)])
            got = forward(net, x)
            want = direct_pool(x, pool.k, pool.stride, pool.pad, mode)
            if mode == "max":
                assert np.array_equal(got, want)
            else:
                assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_pools_match_nested_loops_on_batches(self, data):
        k, stride = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        pad = data.draw(st.integers(0, k - 1))
        sides = st.integers(max(1, k - 2 * pad), 12)  # at least one output row
        h, w = data.draw(sides), data.draw(sides)
        xs = np.random.default_rng(data.draw(st.integers(0, 99))).standard_normal(
            (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)), h, w)
        )
        self.check_against_nested_loops(PoolParams(k, stride, pad), xs)

    def test_global_7x7_average_of_resnet34(self):
        xs = np.random.default_rng(13).standard_normal((1, 512, 7, 7))
        self.check_against_nested_loops(PoolParams(7, 1), xs)

    @staticmethod
    def check_against_nested_loops(pool, xs):
        for kind, mode in (("maxpool", "max"), ("avgpool", "avg")):
            out = model._KINDS[kind].forward(LayerSpec(id="p", kind=kind, pool=pool), xs, None)
            want = np.stack([direct_pool(x, pool.k, pool.stride, pool.pad, mode) for x in xs])
            if mode == "max":
                assert np.array_equal(out, want)
            else:
                assert np.allclose(out, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", ["maxpool", "avgpool"])
    def test_scratch_is_a_padded_sample_not_a_window_array(self, kind):
        # The resnet34 stem pool over a batch of two: the windows of one
        # sample alone would take 14.5 MB.
        xs = np.random.default_rng(14).standard_normal((2, 64, 112, 112))
        layer = LayerSpec(id="p", kind=kind, pool=PoolParams(3, 2, pad=1))
        tracemalloc.start()
        try:
            out = model._KINDS[kind].forward(layer, xs, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        padded_sample = 64 * 114 * 114 * 8
        assert peak <= out.nbytes + 2 * padded_sample

    def test_padding_as_wide_as_the_window_is_rejected(self):
        with pytest.raises(ShapeError, match="pad=2 must be below k=2"):
            PoolParams(2, 1, pad=2)


class TestShapePropagation:
    def test_downsample_branch(self):
        # Projection shortcut: both the main path and the 1x1 projection read
        # the same earlier layer; the add joins them.
        rng = np.random.default_rng(7)
        w0 = rng.standard_normal((3, 3, 3, 3))
        w1 = rng.standard_normal((4, 3, 3, 3))
        proj = rng.standard_normal((4, 3, 1, 1))
        net = NetworkSpec(
            "t",
            (3, 8, 8),
            [
                conv_layer("stem", w0, pad=1),
                conv_layer("c1", w1, stride=2, pad=1),
                conv_layer("proj", proj, stride=2),
                LayerSpec(id="add", kind="add", input="c1", source="proj"),
            ],
        )
        net.layer("proj").input = "stem"
        assert layer_inputs(net) == {"stem": None, "c1": "stem", "proj": "stem", "add": "c1"}
        shapes = propagate_shapes(net)
        assert shapes["c1"] == (4, 4, 4)
        assert shapes["proj"] == (4, 4, 4)
        assert shapes["add"] == (4, 4, 4)

        x = rng.standard_normal((3, 8, 8))
        stem = direct_conv(x, w0, pad=1)
        expected = direct_conv(stem, w1, stride=2, pad=1) + direct_conv(
            stem, proj, stride=2
        )
        assert np.allclose(forward(net, x), expected, atol=1e-10)

    def test_residual_block_shapes(self):
        rng = np.random.default_rng(8)
        w1 = rng.standard_normal((4, 4, 3, 3))
        w2 = rng.standard_normal((4, 4, 3, 3))
        net = NetworkSpec(
            "t",
            (4, 8, 8),
            [
                conv_layer("c1", w1, pad=1),
                LayerSpec(id="r1", kind="relu"),
                conv_layer("c2", w2, pad=1),
                LayerSpec(id="add", kind="add", source="c1"),
            ],
        )
        shapes = propagate_shapes(net)
        assert shapes["add"] == (4, 8, 8)

    def test_add_shape_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        w1 = rng.standard_normal((4, 4, 3, 3))
        w2 = rng.standard_normal((6, 4, 3, 3))
        net = NetworkSpec(
            "t",
            (4, 8, 8),
            [
                conv_layer("c1", w1, pad=1),
                conv_layer("c2", w2, pad=1),
                LayerSpec(id="add", kind="add", source="c1"),
            ],
        )
        with pytest.raises(ShapeError, match="add"):
            propagate_shapes(net)

    def test_degenerate_output_raises(self):
        # A 3-row window over 2 rows leaves no output row.
        conv = conv_layer("tall", np.ones((1, 1, 3, 3)))
        pool = LayerSpec(id="tall", kind="maxpool", pool=PoolParams(3, 1))
        for layer in (conv, pool):
            net = NetworkSpec("t", (1, 2, 5), [layer])
            with pytest.raises(ShapeError, match="layer tall: degenerate output 0x3"):
                propagate_shapes(net)
            with pytest.raises(ShapeError, match="layer tall: degenerate output 0x3"):
                forward(net, np.ones((1, 2, 5)))


class TestFlops:
    def test_unit_case(self):
        conv = ConvWeights(c_in=1, c_out=1, k=1)
        assert flops_of_layer(conv, 1, 1) == 2

    def test_hand_computed_64_channels(self):
        conv = ConvWeights(c_in=64, c_out=64, k=3)
        assert flops_of_layer(conv, 56, 56) == 231_211_008

    def test_grouped_layer(self):
        conv = ConvWeights(c_in=8, c_out=8, k=3, groups=4)
        assert flops_of_layer(conv, 5, 5) == 2 * 2 * 9 * 8 * 25

    def test_network_totals(self):
        rng = np.random.default_rng(10)
        w = rng.standard_normal((4, 3, 3, 3))
        fcw = rng.standard_normal((2, 4))
        net = NetworkSpec(
            "t",
            (3, 4, 4),
            [
                conv_layer("c", w, pad=1),
                LayerSpec(id="ap", kind="avgpool", pool=PoolParams(4, 1)),
                LayerSpec(id="fc", kind="fc", fc=FcParams(4, 2, weights=fcw)),
            ],
        )
        total, per_layer = network_flops(net)
        assert per_layer["c"] == 2 * 3 * 9 * 4 * 16
        assert per_layer["fc"] == 2 * 4 * 2
        assert total == per_layer["c"] + per_layer["fc"]

    def test_ratio_exactness_against_integer_flops(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = int(rng.choice([1, 2, 3, 5]))
            c_in = int(rng.integers(1, 33))
            divisors = [d for d in range(1, c_in + 1) if c_in % d == 0]
            n = int(rng.choice(divisors))
            c_out = int(rng.integers(1, 65))
            out_h = int(rng.integers(1, 20))
            out_w = int(rng.integers(1, 20))
            original = ConvWeights(c_in=c_in, c_out=c_out, k=k)
            f_orig = flops_of_layer(original, out_h, out_w)
            f_pair = sum(flops_of_layer(c, out_h, out_w) for c in pair_layers(original, n))
            assert Fraction(f_pair, f_orig) == flops_ratio_fraction(c_out, k, n)
            # The float ratio is the correctly rounded value of the same
            # rational, so plain float division must agree bit for bit.
            assert f_pair / f_orig == float(flops_ratio_fraction(c_out, k, n))

    def test_invalid_n_rejected(self):
        conv = ConvWeights(c_in=6, c_out=8, k=3)
        for n in (4, 0, 7):
            with pytest.raises(DecompositionError, match=r"must divide c_in=6; .*\[1, 2, 3, 6\]"):
                pair_layers(conv, n)
