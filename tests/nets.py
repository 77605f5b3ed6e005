"""Small test networks shared by several test modules."""

import numpy as np

from groupcompress.model import ConvWeights, LayerSpec, NetworkSpec


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
