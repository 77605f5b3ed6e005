"""Synthetic model builders: toy CNNs and standard architectures.

Weights are random with a fixed seed (or omitted entirely for shape-only
FLOPs work), so complexity accounting runs without any pretrained files.

Stage labels follow the *input* spatial resolution of each convolution. For
a stride-2 convolution at a stage boundary this assigns the shallower
stage, which is the convention the per-stage rank schedules assume; the
1x1 projection shortcuts share the label of the block they guard but are
exempt from planning anyway.
"""

from __future__ import annotations

import numpy as np

from .model import (
    AffineParams,
    ConvWeights,
    FcParams,
    LayerSpec,
    NetworkSpec,
    PoolParams,
)


def _conv(rng, layer_id, c_in, c_out, k, stride=1, pad=0, stage=None, input_=None,
          bias=False):
    weights = None
    bias_vec = None
    if rng is not None:
        scale = np.sqrt(2.0 / (c_in * k * k))
        weights = rng.standard_normal((c_out, c_in, k, k)) * scale
        if bias:
            bias_vec = 0.1 * rng.standard_normal(c_out)
    return LayerSpec(
        id=layer_id,
        kind="conv",
        stage=stage,
        input=input_,
        conv=ConvWeights(
            c_in, c_out, k, stride=stride, pad=pad, weights=weights, bias=bias_vec
        ),
    )


def _affine(rng, layer_id, channels):
    scale = shift = None
    if rng is not None:
        scale = 1.0 + 0.1 * rng.standard_normal(channels)
        shift = 0.1 * rng.standard_normal(channels)
    return LayerSpec(
        id=layer_id,
        kind="channel_affine",
        affine=AffineParams(channels, scale=scale, shift=shift),
    )


def _fc(rng, layer_id, n_in, n_out):
    weights = bias = None
    if rng is not None:
        weights = rng.standard_normal((n_out, n_in)) * np.sqrt(1.0 / n_in)
        bias = np.zeros(n_out)
    return LayerSpec(id=layer_id, kind="fc", fc=FcParams(n_in, n_out, weights, bias))


def build_toy_cnn(seed: int = 0) -> NetworkSpec:
    """4-conv toy network with non-increasing widths.

    Every layer has c_out <= c_in, so each weight block has rank at most
    c_in and the n = c_in decomposition recovers the layer exactly.
    """
    rng = np.random.default_rng(seed)
    layers = [
        _conv(rng, "c1", 4, 4, 3, pad=1, stage="s8", bias=True),
        LayerSpec(id="r1", kind="relu"),
        _conv(rng, "c2", 4, 4, 3, pad=1, stage="s8", bias=True),
        LayerSpec(id="mp", kind="maxpool", pool=PoolParams(2, 2)),
        LayerSpec(id="r2", kind="relu"),
        _conv(rng, "c3", 4, 4, 3, pad=1, stage="s4", bias=True),
        LayerSpec(id="r3", kind="relu"),
        _conv(rng, "c4", 4, 3, 3, pad=1, stage="s4", bias=True),
    ]
    return NetworkSpec("toy4", (4, 8, 8), layers)


def build_toy_three(seed: int = 0) -> NetworkSpec:
    """3-conv toy network used for reconstruction exercises."""
    rng = np.random.default_rng(seed)
    layers = [
        _conv(rng, "c1", 3, 6, 3, pad=1, stage="s6", bias=True),
        LayerSpec(id="r1", kind="relu"),
        _conv(rng, "c2", 6, 8, 3, pad=1, stage="s6", bias=True),
        LayerSpec(id="r2", kind="relu"),
        _conv(rng, "c3", 8, 8, 3, pad=1, stage="s6", bias=True),
    ]
    return NetworkSpec("toy3", (3, 6, 6), layers)


def _basic_block(rng, layers, prefix, prev_id, c_in, c_out, stride, in_stage, out_stage):
    """Two 3x3 convs with affine/relu and a residual join; a strided block
    gets a 1x1 projection shortcut."""
    a = f"{prefix}a"
    layers.append(
        _conv(rng, a, c_in, c_out, 3, stride=stride, pad=1, stage=in_stage,
              input_=prev_id)
    )
    layers.append(_affine(rng, f"{prefix}a_bn", c_out))
    layers.append(LayerSpec(id=f"{prefix}a_relu", kind="relu"))
    layers.append(_conv(rng, f"{prefix}b", c_out, c_out, 3, pad=1, stage=out_stage))
    layers.append(_affine(rng, f"{prefix}b_bn", c_out))
    if stride != 1 or c_in != c_out:
        layers.append(
            _conv(rng, f"{prefix}proj", c_in, c_out, 1, stride=stride,
                  stage=in_stage, input_=prev_id)
        )
        layers.append(_affine(rng, f"{prefix}proj_bn", c_out))
        shortcut = f"{prefix}proj_bn"
    else:
        shortcut = prev_id
    layers.append(
        LayerSpec(id=f"{prefix}add", kind="add", input=f"{prefix}b_bn", source=shortcut)
    )
    layers.append(LayerSpec(id=f"{prefix}relu", kind="relu"))
    return f"{prefix}relu"


def build_resnet34(seed: int | None = 0) -> NetworkSpec:
    """ResNet-34 for 3 x 224 x 224 inputs. ``seed=None`` builds a shape-only
    network (no weights) for FLOPs accounting."""
    rng = None if seed is None else np.random.default_rng(seed)
    layers: list[LayerSpec] = [
        _conv(rng, "conv1", 3, 64, 7, stride=2, pad=3, stage="conv1"),
        _affine(rng, "bn1", 64),
        LayerSpec(id="relu1", kind="relu"),
        LayerSpec(id="maxpool", kind="maxpool", pool=PoolParams(3, 2, pad=1)),
    ]
    prev = "maxpool"
    plan = [
        ("conv2", 3, 64, 64, 1, "conv2_x", "conv2_x"),
        ("conv3", 4, 64, 128, 2, "conv2_x", "conv3_x"),
        ("conv4", 6, 128, 256, 2, "conv3_x", "conv4_x"),
        ("conv5", 3, 256, 512, 2, "conv4_x", "conv5_x"),
    ]
    for name, blocks, c_in, c_out, first_stride, in_stage, out_stage in plan:
        for b in range(1, blocks + 1):
            stride = first_stride if b == 1 else 1
            block_in = c_in if b == 1 else c_out
            block_in_stage = in_stage if b == 1 else out_stage
            prev = _basic_block(
                rng, layers, f"{name}_{b}", prev, block_in, c_out, stride,
                block_in_stage, out_stage,
            )
    layers.append(LayerSpec(id="avgpool", kind="avgpool", pool=PoolParams(7, 1)))
    layers.append(_fc(rng, "fc", 512, 1000))
    return NetworkSpec("resnet34", (3, 224, 224), layers)


def build_vgg16(seed: int | None = 0) -> NetworkSpec:
    """VGG-16 (configuration D) for 3 x 224 x 224 inputs."""
    rng = None if seed is None else np.random.default_rng(seed)
    cfg = [
        ("conv1", [64, 64]),
        ("conv2", [128, 128]),
        ("conv3", [256, 256, 256]),
        ("conv4", [512, 512, 512]),
        ("conv5", [512, 512, 512]),
    ]
    layers: list[LayerSpec] = []
    c_in = 3
    for stage_idx, (name, widths) in enumerate(cfg, start=1):
        for i, c_out in enumerate(widths, start=1):
            layers.append(
                _conv(rng, f"{name}_{i}", c_in, c_out, 3, pad=1,
                      stage=f"{name}_x", bias=True)
            )
            layers.append(LayerSpec(id=f"{name}_{i}_relu", kind="relu"))
            c_in = c_out
        layers.append(
            LayerSpec(id=f"pool{stage_idx}", kind="maxpool", pool=PoolParams(2, 2))
        )
    layers.append(_fc(rng, "fc6", 512 * 7 * 7, 4096))
    layers.append(LayerSpec(id="fc6_relu", kind="relu"))
    layers.append(_fc(rng, "fc7", 4096, 4096))
    layers.append(LayerSpec(id="fc7_relu", kind="relu"))
    layers.append(_fc(rng, "fc8", 4096, 1000))
    return NetworkSpec("vgg16", (3, 224, 224), layers)


BUILDERS = {
    "toy4": build_toy_cnn,
    "toy3": build_toy_three,
    "resnet34": build_resnet34,
    "vgg16": build_vgg16,
}
