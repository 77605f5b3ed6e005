"""Small test networks shared by several test modules, and a hook on the
forward pass."""

import numpy as np

from groupcompress import model
from groupcompress.model import (
    AffineParams, ConvWeights, FcParams, LayerSpec, NetworkSpec, PoolParams,
)


def on_conv_forward(monkeypatch, hook):
    """Call ``hook(layer)`` each time a walk (``model._Walk.to``, so every
    forward pass) runs a conv layer, before the layer runs. A walk runs each
    conv once, through ``model._run``, whatever number of CPU shares that
    cuts its batch into."""
    run = model._run

    def hooked(layer, x, other=None, out=None):
        if layer.kind == "conv":
            hook(layer)
        return run(layer, x, other, out)

    monkeypatch.setattr(model, "_run", hooked)


def walk_outputs(net, xs):
    """Every layer's output batch, by layer id, from one walk of ``net`` over
    the batch ``xs`` stopped at each layer in turn."""
    walk = model._Walk(net, xs)
    return {layer.id: walk.to(layer.id)[1] for layer in net.layers}


def residual_net(seed=0):
    """A 3x3 conv chain with a residual join. The shortcut conv ``sc`` names
    its input (``r1``, not the previous layer), and ``c3`` reads the
    activation of the add."""
    rng = np.random.default_rng(seed)

    def conv(layer_id, c_in, c_out, input_=None):
        weights = rng.standard_normal((c_out, c_in, 3, 3)) / (3 * c_in**0.5)
        return LayerSpec(
            id=layer_id, kind="conv", input=input_,
            conv=ConvWeights(c_in, c_out, 3, pad=1, weights=weights,
                             bias=0.1 * rng.standard_normal(c_out)),
        )

    layers = [
        conv("c1", 3, 4),
        LayerSpec(id="r1", kind="relu"),
        conv("c2", 4, 4),
        conv("sc", 4, 4, input_="r1"),
        LayerSpec(id="a", kind="add", input="c2", source="sc"),
        LayerSpec(id="r2", kind="relu"),
        conv("c3", 4, 4),
    ]
    return NetworkSpec("residual", (3, 6, 6), layers)


def toy_net(seed=0, widths=(3, 6, 8, 8), size=6):
    """Conv/relu chain; final conv has no activation after it."""
    rng = np.random.default_rng(seed)
    layers = []
    for i, (c_in, c_out) in enumerate(zip(widths, widths[1:])):
        layers.append(
            LayerSpec(
                id=f"c{i + 1}",
                kind="conv",
                stage="s0",
                conv=ConvWeights(
                    c_in,
                    c_out,
                    3,
                    pad=1,
                    weights=rng.standard_normal((c_out, c_in, 3, 3)) / (3 * c_in**0.5),
                    bias=0.1 * rng.standard_normal(c_out),
                ),
            )
        )
        if i + 2 < len(widths):
            layers.append(LayerSpec(id=f"r{i + 1}", kind="relu"))
    return NetworkSpec("toy", (widths[0], size, size), layers)


def pool_fc_net(seed=0):
    """Every layer kind but add: a conv and a channel affine, a padded max
    pool, a grouped conv, an average pool, then fc, relu and an fc without
    bias."""
    rng = np.random.default_rng(seed)
    layers = [
        LayerSpec(id="c1", kind="conv", conv=ConvWeights(
            3, 4, 3, pad=1, weights=rng.standard_normal((4, 3, 3, 3)) / 5,
            bias=rng.standard_normal(4))),
        LayerSpec(id="bn", kind="channel_affine", affine=AffineParams(
            4, scale=rng.standard_normal(4), shift=rng.standard_normal(4))),
        LayerSpec(id="r1", kind="relu"),
        LayerSpec(id="mp", kind="maxpool", pool=PoolParams(3, 2, pad=1)),
        LayerSpec(id="g", kind="conv", conv=ConvWeights(
            4, 6, 3, groups=2, pad=1, weights=rng.standard_normal((6, 2, 3, 3)) / 4)),
        LayerSpec(id="ap", kind="avgpool", pool=PoolParams(2, 1)),
        LayerSpec(id="fc1", kind="fc", fc=FcParams(
            54, 5, weights=rng.standard_normal((5, 54)) / 7, bias=rng.standard_normal(5))),
        LayerSpec(id="r2", kind="relu"),
        LayerSpec(id="fc2", kind="fc", fc=FcParams(5, 3, weights=rng.standard_normal((3, 5)))),
    ]
    return NetworkSpec("pool-fc", (3, 7, 7), layers)
