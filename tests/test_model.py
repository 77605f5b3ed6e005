import dataclasses
import re
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcompress import linalg, model, modelio
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
    response_rows,
    shared_prefix,
)
from groupcompress.modelio import load_model, save_model

from nets import on_conv_forward, pool_fc_net, residual_net, walk_outputs
from oracles import (
    chunked_group_conv, direct_conv, direct_pool, im2col_rows, per_group_conv,
    reference_forward, stack_taps, unshared_walk,
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

    def test_stack_taps_unknown_tap_fails_before_any_layer_runs(self, monkeypatch):
        net, ran = residual_net(), []
        on_conv_forward(monkeypatch, ran.append)
        with pytest.raises(ShapeError, match="^layer 'nosuch' not found in network order$"):
            stack_taps(net, np.zeros((2, *net.input_shape)), ["c3", "nosuch"])
        assert not ran

    def test_shape_mismatch_names_layer(self):
        w = np.zeros((2, 3, 3, 3))
        net = NetworkSpec("t", (4, 5, 5), [conv_layer("bad", w, pad=1)])
        with pytest.raises(ShapeError, match="bad"):
            forward(net, np.zeros((4, 5, 5)))

    def test_input_shape_checked(self):
        net = NetworkSpec("t", (1, 3, 3), [LayerSpec(id="r", kind="relu")])
        with pytest.raises(ShapeError, match="input shape"):
            forward(net, np.zeros((2, 3, 3)))

    @pytest.mark.parametrize(
        "layer, field",
        [
            (LayerSpec(id="c", kind="conv", conv=ConvWeights(2, 3, 3, pad=1)), "weights"),
            (LayerSpec(id="f", kind="fc", fc=FcParams(32, 5)), "weights"),
            (LayerSpec(id="bn", kind="channel_affine",
                       affine=AffineParams(2, shift=np.zeros(2))), "scale"),
            (LayerSpec(id="bn", kind="channel_affine",
                       affine=AffineParams(2, scale=np.ones(2))), "shift"),
        ],
        ids=["conv-weights", "fc-weights", "affine-scale", "affine-shift"],
    )
    def test_shape_only_layer_names_layer_and_field(self, layer, field):
        net = NetworkSpec("t", (2, 4, 4), [layer])
        with pytest.raises(ShapeError, match=f"^layer {layer.id}: no materialized {field}$"):
            forward(net, np.zeros((2, 4, 4)))


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

        def oracle(layer, batch, other, out, *scratch):
            c = layer.conv
            out[...] = [per_group_conv(x, c.weights, c.bias, c.stride, c.pad, c.groups)
                        for x in batch]

        conv_rule = dataclasses.replace(model._KINDS["conv"], forward=oracle)
        monkeypatch.setitem(model._KINDS, "conv", conv_rule)
        assert rel_err(got, forward(net, x)) <= 1e-10


def tiled_conv_blocks(groups, per_in, per_out, k, stride, pad, h, w, budget, seed=0):
    """Run a conv layer (``model._run``) on two random samples with the
    patch budget set to ``budget`` bytes, check each sample against the
    chunked and the per-group kernels, and return the blocks the conv used."""
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((groups * per_out, per_in, k, k))
    bias = rng.standard_normal(groups * per_out)
    layer = conv_layer("c", weights, bias=bias, stride=stride, pad=pad, groups=groups)
    xs = rng.standard_normal((2, groups * per_in, h, w))
    h_out, w_out = layer.conv.out_size(h, w)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "PATCH_BYTES", budget)
        got = model._run(layer, xs)
        blocks = list(model._patch_blocks(groups, per_in * k * k, h_out, w_out))
    for x, out in zip(xs, got):
        for oracle in (chunked_group_conv, per_group_conv):
            assert rel_err(out, oracle(x, weights, bias, stride, pad, groups)) <= 1e-10
    return blocks


def traced_run(monkeypatch, layer, xs, cpus):
    """``model._run(layer, xs)`` on ``cpus`` CPUs, and the peak of the
    memory that tracemalloc traced while it ran."""
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
    tracemalloc.start()
    try:
        out = model._run(layer, xs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

        monkeypatch.setattr(linalg, "_fill_tile", no_tile)
        tiled_conv_blocks(4, 3, 2, 1, 1, 0, 5, 7, budget=8)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_scratch_is_a_padded_sample_and_a_tile_per_share(self, monkeypatch, cpus):
        # The resnet34 stem conv over a batch of two: the patches of one
        # sample alone would take 14.8 MB. Each CPU's share of the batch
        # holds one padded sample and one tile of 7 output rows; 64 KiB is
        # left for the Python objects of the run and its threads.
        rng = np.random.default_rng(15)
        layer = conv_layer("conv1", rng.standard_normal((64, 3, 7, 7)),
                           bias=rng.standard_normal(64), stride=2, pad=3)
        xs = rng.standard_normal((2, 3, 224, 224))
        out, peak = traced_run(monkeypatch, layer, xs, cpus)
        rows = 3 * 7 * 7
        tile = max((end - g) * rows * (r_end - r) * 112 * 8
                   for g, end, r, r_end in model._patch_blocks(1, rows, 112, 112))
        padded_sample = 3 * 230 * 230 * 8
        assert peak <= out.nbytes + cpus * (padded_sample + tile) + (64 << 10)


class TestBatchWalk:
    """A walk over a batch of samples against walks over one sample each."""

    @pytest.mark.parametrize(
        "build", [build_toy_three, build_toy_cnn, residual_net, pool_fc_net],
        ids=["toy3", "toy4", "residual", "pool-fc-affine"],
    )
    def test_batch_matches_one_sample_walks(self, build):
        net = build(0)
        xs = np.random.default_rng(9).standard_normal((5, *net.input_shape))
        batch = walk_outputs(net, xs)
        singles = [walk_outputs(net, x[None]) for x in xs]
        for layer in net.layers:
            stacked = np.concatenate([single[layer.id] for single in singles])
            assert batch[layer.id].shape == (5, *propagate_shapes(net)[layer.id])
            assert np.array_equal(batch[layer.id], stacked), layer.id
        for x, out in zip(xs, batch[net.layers[-1].id]):
            want = reference_forward(net, x)
            assert rel_err(forward(net, x), want) <= 1e-10
            assert np.array_equal(forward(net, x), out)


class TestResumableWalk:
    """A walk (``model._Walk``) stopped and resumed, or run over slices of
    the samples, against one uninterrupted walk of the whole batch."""

    NETS = {
        "residual": residual_net,
        "toy4-decomposed": lambda: decompose_network(build_toy_cnn(0), {"c1": 2, "c2": 1})[0],
    }

    @pytest.mark.parametrize("name", list(NETS))
    def test_stopped_and_resumed_matches_uninterrupted(self, name):
        net = self.NETS[name]()
        xs = np.random.default_rng(4).standard_normal((4, *net.input_shape))
        last = net.layers[-1].id
        value, out = model._Walk(net, xs).to(last)
        stepped = walk_outputs(net, xs)
        assert np.array_equal(stepped[last], out)
        for layer in net.layers[:-1]:
            walk = model._Walk(net, xs)
            assert np.array_equal(walk.to(layer.id)[1], stepped[layer.id]), layer.id
            resumed_value, resumed_out = walk.to(last)
            assert np.array_equal(resumed_value, value), layer.id
            assert np.array_equal(resumed_out, out), layer.id

    @pytest.mark.parametrize("name", list(NETS))
    def test_walks_of_slices_give_slices_of_every_output(self, name):
        net, count = self.NETS[name](), 7
        xs = np.random.default_rng(5).standard_normal((count, *net.input_shape))
        whole = walk_outputs(net, xs)
        for size in (1, 2, count - 3):
            slices = [walk_outputs(net, xs[lo:lo + size]) for lo in range(0, count, size)]
            for layer in net.layers:
                joined = np.concatenate([outputs[layer.id] for outputs in slices])
                assert np.array_equal(joined, whole[layer.id]), (size, layer.id)

    def test_unknown_or_passed_layer_fails_before_any_layer_runs(self, monkeypatch):
        net = residual_net()
        xs = np.random.default_rng(6).standard_normal((3, *net.input_shape))
        walk, ran = model._Walk(net, xs), []
        walk.to("c2")
        on_conv_forward(monkeypatch, ran.append)
        with pytest.raises(ShapeError, match="^layer 'nosuch' not found in network order$"):
            walk.to("nosuch")
        for passed in ("c1", "c2"):
            with pytest.raises(ShapeError, match=f"^layer '{passed}' already passed by this walk$"):
                walk.to(passed)
        assert not ran
        # A refused layer leaves the walk where it was.
        assert np.array_equal(walk.to("c3")[1], walk_outputs(net, xs)["c3"])


def branch_net(seed=0):
    """A relu whose input a later layer reads too: ``r1`` and the add ``a``
    (as its source) both read ``c1``."""
    rng = np.random.default_rng(seed)
    return NetworkSpec("branch", (2, 5, 5), [
        conv_layer("c1", rng.standard_normal((3, 2, 3, 3)), rng.standard_normal(3), pad=1),
        LayerSpec(id="r1", kind="relu"),
        LayerSpec(id="a", kind="add", source="c1"),
        conv_layer("c2", rng.standard_normal((2, 3, 3, 3)), pad=1),
    ])


class TestForkedWalk:
    """Walks that fork (``model._Walk.fork``) and run elementwise layers in
    place, against ``oracles.unshared_walk``, which shares and overwrites
    nothing. Every array a walk returned, or shares with a fork, keeps its
    values while both walks run on."""

    NETS = {
        "toy3": lambda: build_toy_three(0),
        "toy4": lambda: build_toy_cnn(0),
        "residual": residual_net,
        "pool-fc-affine": pool_fc_net,
        "branch": branch_net,
    }

    @pytest.mark.parametrize("cpus", [1, None], ids=["one-cpu", "every-cpu"])
    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("name", list(NETS))
    def test_forks_and_stops_match_unshared_walk(self, monkeypatch, name, count, cpus):
        if cpus is not None:
            monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
        net = self.NETS[name]()
        xs = np.random.default_rng(count).standard_normal((count, *net.input_shape))
        given = xs.copy()
        want = unshared_walk(net, xs)
        inputs, ids = layer_inputs(net), [layer.id for layer in net.layers]
        last = ids[-1]
        for x, out in zip(xs, want[last]):
            assert rel_err(out, reference_forward(net, x)) <= 1e-10
        for split in range(len(ids)):
            for stop in ids[split:]:
                walk = model._Walk(net, xs)
                if split:
                    walk.to(ids[split - 1])
                forked = walk.fork(net)
                value, out = forked.to(stop)
                held = value.copy(), out.copy()
                in_id = inputs[stop]
                assert np.array_equal(value, xs if in_id is None else want[in_id]), (split, stop)
                assert np.array_equal(out, want[stop]), (split, stop)
                for resumed in (forked, walk):
                    if resumed.next < len(ids):
                        assert np.array_equal(resumed.to(last)[1], want[last]), (split, stop)
                assert np.array_equal(value, held[0]) and np.array_equal(out, held[1])
        assert np.array_equal(xs, given)

    @staticmethod
    def in_place_layers(monkeypatch):
        """The ids of the layers run in place from here on, in run order."""
        run, written = model._run, []

        def recorded(layer, x, other=None, out=None):
            if out is x:
                written.append(layer.id)
            return run(layer, x, other, out)

        monkeypatch.setattr(model, "_run", recorded)
        return written

    @pytest.mark.parametrize("stop, in_place", [
        ("c3", ["r1", "a", "r2"]), ("a", ["r1"]), ("r2", ["r1", "a"]),
    ])
    def test_an_elementwise_layer_writes_an_owned_input_read_last(
        self, monkeypatch, stop, in_place
    ):
        net, written = residual_net(), self.in_place_layers(monkeypatch)
        model._Walk(net, np.random.default_rng(2).standard_normal((2, *net.input_shape))).to(stop)
        assert written == in_place

    def test_shared_arrays_are_not_written_in_place(self, monkeypatch):
        # Forked after c1, both walks read c1's output through r1, its
        # last reader in each; neither owns it.
        net, written = residual_net(), self.in_place_layers(monkeypatch)
        walk = model._Walk(net, np.random.default_rng(3).standard_normal((2, *net.input_shape)))
        walk.to("c1")
        forked = walk.fork(net)
        walk.to("c3")
        forked.to("c3")
        assert written == ["a", "r2", "a", "r2"]

    def test_prefix_shares_records_not_equal_copies(self):
        net = residual_net()
        compressed = decompose_network(net, {"c2": 1, "c3": 1})[0]
        assert shared_prefix(net, compressed) == 2  # c1 and r1
        assert shared_prefix(net, net) == len(net.layers)
        copied = [dataclasses.replace(l, conv=dataclasses.replace(l.conv)) if l.conv else l
                  for l in net.layers]
        assert shared_prefix(net, NetworkSpec(net.name, net.input_shape, copied)) == 0

    def test_fork_past_an_unshared_layer_is_refused(self):
        net = residual_net()
        compressed = decompose_network(net, {"c2": 1, "c3": 1})[0]
        walk = model._Walk(net, np.zeros((1, *net.input_shape)))
        walk.to("r1")
        walk.fork(compressed)
        walk.to("c2")
        with pytest.raises(ShapeError, match="does not share the 3 layers walked"):
            walk.fork(compressed)

    @pytest.mark.parametrize("name, ranks, taps", [
        ("toy3", {"c1": 1, "c2": 1}, ["c1.p", "c2.d"]),  # a relu reads P last
        ("pool-fc-affine", {"c1": 1}, ["c1.p", "mp"]),  # a channel affine reads P last
    ])
    def test_one_sample_taps_keep_their_rows(self, name, ranks, taps):
        # At N = 1 response_rows is a view of the tapped output, which the
        # elementwise layer after P reads last: the pre-activation taps of
        # ``analyze --correlation --corr-pre-activation``.
        net = decompose_network(self.NETS[name](), ranks)[0]
        xs = np.random.default_rng(7).standard_normal((1, *net.input_shape))
        stacked, want = stack_taps(net, xs, taps), unshared_walk(net, xs)
        for tap in taps:
            assert np.array_equal(stacked[tap], response_rows(want[tap])), tap


def _no_thread(thread):
    raise AssertionError("a thread was started")


class TestSplitWalk:
    """A walk whose batch rules split the samples over CPUs against the
    one-CPU walk. Each walk runs on a freshly loaded model, so that every
    array is first read inside a batch rule."""

    NETS = {
        "toy4": lambda: build_toy_cnn(0),
        "toy4-decomposed": lambda: decompose_network(build_toy_cnn(0), {"c1": 2, "c2": 1})[0],
        "residual": residual_net,
        "pool-fc-affine": pool_fc_net,
    }

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    @pytest.mark.parametrize("count", [2, 7])
    @pytest.mark.parametrize("name", list(NETS))
    def test_matches_one_cpu_walk(self, tmp_path, monkeypatch, name, count, cpus):
        path = save_model(self.NETS[name](), tmp_path / "model.json")
        xs = np.random.default_rng(count).standard_normal((count, *load_model(path).input_shape))

        def outputs(workers):
            monkeypatch.setattr(linalg, "_usable_cpus", lambda: workers)
            return walk_outputs(load_model(path), xs)

        serial = outputs(1)
        # Switch threads as often as they can.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            split = outputs(cpus)
        finally:
            sys.setswitchinterval(interval)
        assert list(split) == list(serial)
        for layer_id, out in serial.items():
            assert np.array_equal(split[layer_id], out), layer_id

    def test_parameters_are_read_once_each_on_the_calling_thread(self, tmp_path, monkeypatch):
        read, reads = modelio._BlobTensor.read, []

        def recorded(tensor):
            reads.append((tensor, threading.current_thread()))
            return read(tensor)

        monkeypatch.setattr(modelio._BlobTensor, "read", recorded)
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 3)
        for build in (pool_fc_net, residual_net):
            net = load_model(save_model(build(), tmp_path / f"{build.__name__}.json"))
            deferred = [value for layer in net.layers
                        for params in (layer.conv, layer.fc, layer.affine) if params is not None
                        for *_, value in model.array_fields(params) if value is not None]
            reads.clear()
            walk_outputs(net, np.random.default_rng(5).standard_normal((5, *net.input_shape)))
            assert all(thread is threading.main_thread() for _, thread in reads)
            assert sorted(map(id, (tensor for tensor, _ in reads))) == sorted(map(id, deferred))

    def test_one_sample_or_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(threading.Thread, "start", _no_thread)
        for net in (residual_net(), pool_fc_net()):
            xs = np.random.default_rng(3).standard_normal((4, *net.input_shape))
            monkeypatch.setattr(linalg, "_usable_cpus", lambda: 5)
            forward(net, xs[0])
            monkeypatch.setattr(linalg, "_usable_cpus", lambda: 1)
            walk_outputs(net, xs)


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
            out = model._run(LayerSpec(id="p", kind=kind, pool=pool), xs)
            want = np.stack([direct_pool(x, pool.k, pool.stride, pool.pad, mode) for x in xs])
            if mode == "max":
                assert np.array_equal(out, want)
            else:
                assert np.allclose(out, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", ["maxpool", "avgpool"])
    def test_scratch_is_a_padded_sample_not_a_window_array(self, monkeypatch, kind):
        self.check_scratch(monkeypatch, kind, cpus=1)

    @pytest.mark.parametrize("kind", ["maxpool", "avgpool"])
    def test_scratch_is_a_padded_sample_per_share(self, monkeypatch, kind):
        self.check_scratch(monkeypatch, kind, cpus=2)

    @staticmethod
    def check_scratch(monkeypatch, kind, cpus):
        # The resnet34 stem pool over a batch of two: the windows of one
        # sample alone would take 14.5 MB. Each CPU's share of the batch
        # holds one padded sample.
        xs = np.random.default_rng(14).standard_normal((2, 64, 112, 112))
        layer = LayerSpec(id="p", kind=kind, pool=PoolParams(3, 2, pad=1))
        out, peak = traced_run(monkeypatch, layer, xs, cpus)
        padded_sample = 64 * 114 * 114 * 8
        assert peak <= out.nbytes + cpus * padded_sample + padded_sample

    def test_padding_as_wide_as_the_window_is_rejected(self):
        with pytest.raises(ShapeError, match="pad=2 must be below k=2"):
            PoolParams(2, 1, pad=2)


class TestParameterRecords:
    @pytest.mark.parametrize(
        "make, named",
        [
            (lambda: ConvWeights(3, 4, 3, weights=np.zeros((4, 3, 3, 2))), "ConvWeights weights"),
            (lambda: ConvWeights(3, 4, 3, bias=np.zeros(3)), "ConvWeights bias"),
            (lambda: FcParams(2, 3, np.zeros((2, 2))), "FcParams weights"),
            (lambda: FcParams(2, 3, bias=np.zeros(2)), "FcParams bias"),
            (lambda: AffineParams(3, scale=np.ones(2)), "AffineParams scale"),
            (lambda: AffineParams(3, shift=np.ones((3, 1))), "AffineParams shift"),
        ],
        ids=["conv-weights", "conv-bias", "fc-weights", "fc-bias", "affine-scale",
             "affine-shift"],
    )
    def test_misshaped_array_is_shape_error_at_construction(self, make, named):
        with pytest.raises(ShapeError, match=f"{named} shape"):
            make()

    def test_arrays_become_float64_without_copying_float64(self):
        weights = np.ones((3, 2))
        fc = FcParams(2, 3, weights, bias=[1, 2, 3])
        assert fc.weights is weights
        assert fc.bias.dtype == np.float64
        affine = AffineParams(2, scale=np.ones(2, dtype=np.float32), shift=None)
        assert affine.scale.dtype == np.float64 and affine.shift is None

    @pytest.mark.parametrize(
        "make, field, misshaped, named",
        [
            (lambda: ConvWeights(3, 4, 3), "weights", np.zeros((4, 3, 3, 2)), "ConvWeights weights"),
            (lambda: ConvWeights(3, 4, 3), "bias", np.zeros(3), "ConvWeights bias"),
            (lambda: FcParams(2, 3), "weights", np.zeros((2, 2)), "FcParams weights"),
            (lambda: FcParams(2, 3), "bias", np.zeros(2), "FcParams bias"),
            (lambda: AffineParams(3), "scale", np.ones(2), "AffineParams scale"),
            (lambda: AffineParams(3), "shift", np.ones((3, 1)), "AffineParams shift"),
        ],
        ids=["conv-weights", "conv-bias", "fc-weights", "fc-bias", "affine-scale",
             "affine-shift"],
    )
    def test_array_assigned_after_construction_is_refused(self, make, field, misshaped, named):
        # A record is frozen: ``replace`` builds a new one, checked as
        # construction checks it, and assignment is refused.
        shape = next(shape for name, shape, _, _ in model.array_fields(make()) if name == field)
        kept = np.ones(shape)
        record = dataclasses.replace(make(), **{field: kept})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, np.zeros(shape))
        assert getattr(record, field) is kept
        text = f"{named} shape {misshaped.shape} != {shape}"
        with pytest.raises(ShapeError, match=re.escape(text)):
            dataclasses.replace(record, **{field: misshaped})

    def test_reading_holds_each_deferred_array_for_the_block_alone(self):
        # Within the block every access shares one read; after it, raised
        # out of or not, the record holds its ``Deferred`` again and an
        # array it was given stays as it was. A ``Deferred`` reads by a
        # subclass's ``read`` or by the function it is given.
        reads = []

        class Counted(model.Deferred):
            def read(self):
                reads.append(self)
                return np.arange(self.size, dtype=float).reshape(self.shape)

        def read_fc():
            reads.append(fc_weights)
            return np.ones((2, 4))

        weights, bias = Counted((4, 3, 3, 3)), np.ones(4)
        fc_weights = model.Deferred((2, 4), read_fc)
        record = ConvWeights(3, 4, 3, weights=weights, bias=bias)
        fc = FcParams(4, 2, weights=fc_weights)
        with model.reading([record, fc]):
            held = record.weights
            assert record.weights is held and fc.weights is fc.weights
        assert reads == [weights, fc_weights]
        with pytest.raises(KeyError), model.reading([record, fc]):
            raise KeyError("the block failed")
        assert record.__dict__["weights"] is weights and record.bias is bias
        assert fc.__dict__["weights"] is fc_weights
        assert reads == [weights, fc_weights] * 2

    def test_weight_matrix_of_shape_only_conv_is_shape_error(self):
        with pytest.raises(ShapeError, match="^layer has no materialized weights$"):
            ConvWeights(3, 4, 3).weight_matrix()

    def test_dimension_errors_come_before_array_checks(self):
        with pytest.raises(ShapeError, match="groups=0 must divide"):
            ConvWeights(4, 4, 3, groups=0, weights=np.zeros((4, 4, 3, 3)))
        with pytest.raises(ShapeError, match="conv dimensions must be positive"):
            ConvWeights(0, 4, 3, weights=np.zeros((4, 4, 3, 3)))


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

    @pytest.mark.parametrize("build, layer_id, edit, message", [
        (pool_fc_net, "bn", lambda l: dataclasses.replace(l, affine=AffineParams(5)),
         "layer bn: affine over 5 channels, input has 4"),
        (residual_net, "a", lambda l: dataclasses.replace(l, source="c3"),
         "layer a: add source must be an earlier layer"),
        (pool_fc_net, "fc1", lambda l: dataclasses.replace(l, fc=FcParams(53, 5)),
         "layer fc1: fc expects 53 features, got 54"),
    ], ids=["affine-channels", "add-source-later", "fc-features"])
    def test_misfit_layer_is_shape_error_naming_it(self, build, layer_id, edit, message):
        net = build(0)
        net.layers = [edit(l) if l.id == layer_id else l for l in net.layers]
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            propagate_shapes(net)


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
