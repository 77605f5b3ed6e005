import warnings
from fractions import Fraction

import numpy as np
import pytest

from groupcompress import linalg
from groupcompress.errors import ShapeError
from groupcompress.model import (
    AffineParams,
    ConvWeights,
    FcParams,
    LayerSpec,
    NetworkSpec,
    PoolParams,
    flops_of_layer,
    flops_ratio_decomposed,
    flops_ratio_fraction,
    forward,
    layer_inputs,
    network_flops,
    propagate_shapes,
    stack_taps,
)

from oracles import direct_conv


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
        expected = np.vstack([linalg.im2col(x, 3, 1, 1) @ w_mat for x in samples])
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

    def test_ratio_depthwise_case(self):
        ratio = flops_ratio_decomposed(512, 512, 3, 1)
        assert ratio == pytest.approx(1 / 9 + 1 / 512, rel=1e-12)

    def test_ratio_hand_computed(self):
        assert flops_ratio_decomposed(16, 256, 3, 16) == pytest.approx(
            16 / 256 + 1 / 9, rel=1e-12
        )

    def test_non_compressing_flagged(self):
        with pytest.warns(UserWarning, match="non-compressing"):
            ratio = flops_ratio_decomposed(8, 8, 1, 8)
        assert ratio > 1.0

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
            d_layer = ConvWeights(c_in=c_in, c_out=c_in, k=k, groups=c_in // n)
            p_layer = ConvWeights(c_in=c_in, c_out=c_out, k=1)
            f_orig = flops_of_layer(original, out_h, out_w)
            f_pair = flops_of_layer(d_layer, out_h, out_w) + flops_of_layer(
                p_layer, out_h, out_w
            )
            assert Fraction(f_pair, f_orig) == flops_ratio_fraction(c_out, k, n)
            # The float ratio is the correctly rounded value of the same
            # rational, so plain float division must agree bit for bit.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # some draws are non-compressing
                assert f_pair / f_orig == flops_ratio_decomposed(c_in, c_out, k, n)

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            flops_ratio_decomposed(6, 8, 3, 4)
        with pytest.raises(ValueError, match="n must be"):
            flops_ratio_decomposed(6, 8, 3, 0)
