"""In-process timing probes: whole-network inference and one row per
decomposed conv.

Both run the program's public ``forward``. The per-conv probe wraps each
conv, and each D and P, in a one-layer ``NetworkSpec`` and times it, median
of ``reps`` interleaved repeats, on a seeded random input of the layer's
input shape; FLOPs and the predicted ratio ``n/c_out + 1/k^2`` are computed
here, not taken from the program.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

from groupcompress.model import LayerSpec, NetworkSpec, forward, propagate_shapes

import refclock


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


class Inference:
    """Interleaved timing of the original and the compressed network on the
    held-out samples, in one or more blocks.

    Each block starts with an untimed warm-up pair, then runs timing rounds,
    alternating which network runs first, until its budget is spent. The
    sample index runs on across blocks. A reference-kernel tick is timed
    before each block's first forward and after every forward; a forward's
    time over the mean of the ticks on either side of it, times ``REF_S``,
    is its time in reference seconds. The first pass over the samples also
    gives the relative output error."""

    def __init__(self, held_out: np.ndarray):
        self.held_out = held_out
        self.times = {"orig": [], "comp": []}
        self.comp_ref_s: list[float] = []
        self.ticks: list[float] = []
        self.rel_errs: list[float] = []
        self.finite = True
        self.rounds = 0

    def block(self, original, compressed, budget_s: float, min_rounds: int,
              max_rounds: int = 200) -> None:
        nets = {"orig": original, "comp": compressed}
        forward(original, self.held_out[0])
        forward(compressed, self.held_out[0])
        ticks = [refclock.tick()]
        start = time.perf_counter()
        rounds = 0
        while rounds < min_rounds or (
                rounds < max_rounds and time.perf_counter() - start < budget_s):
            x = self.held_out[self.rounds % len(self.held_out)]
            outputs = {}
            for key in (("comp", "orig") if self.rounds % 2 else ("orig", "comp")):
                t, outputs[key] = timed(forward, nets[key], x)
                self.times[key].append(t)
                ticks.append(refclock.tick())
                if key == "comp":
                    self.comp_ref_s.append(t / ((ticks[-2] + ticks[-1]) / 2) * refclock.REF_S)
            y, y_star = outputs["orig"], outputs["comp"]
            if self.rounds < len(self.held_out):
                self.finite &= bool(np.all(np.isfinite(y)) and np.all(np.isfinite(y_star)))
                self.rel_errs.append(float(np.linalg.norm(y - y_star) / np.linalg.norm(y)))
            self.rounds += 1
            rounds += 1
        self.ticks += ticks

    def result(self) -> dict:
        orig, comp = self.times["orig"], self.times["comp"]
        return {
            "rounds": self.rounds,
            "orig_times_s": orig,
            "comp_times_s": comp,
            "ref_ticks_s": self.ticks,
            "infer_s": statistics.median(self.comp_ref_s),
            "infer_raw_s": statistics.median(comp),
            "infer_orig_s": statistics.median(orig),
            "infer_speedup": statistics.median(o / c for o, c in zip(orig, comp)),
            "output_rel_err": statistics.median(self.rel_errs),
            "finite": self.finite,
        }


def input_shapes(net: NetworkSpec) -> dict[str, tuple]:
    """Input shape of every layer."""
    out_shapes = propagate_shapes(net)
    shapes, prev = {}, None
    for layer in net.layers:
        src = layer.input if layer.input is not None else prev
        shapes[layer.id] = net.input_shape if src is None else out_shapes[src]
        prev = layer.id
    return shapes


def conv_flops(conv, out_hw: int) -> int:
    return 2 * (conv.c_in // conv.groups) * conv.k * conv.k * conv.c_out * out_hw


def im2col_mb(net: NetworkSpec) -> float:
    """Bytes of the float64 im2col matrices one forward builds (computed)."""
    out_shapes = propagate_shapes(net)
    total = 0
    for layer in net.conv_layers():
        _, h, w = out_shapes[layer.id]
        total += h * w * layer.conv.c_in * layer.conv.k ** 2 * 8
    return total / 1e6


def _one_layer(layer: LayerSpec, shape) -> NetworkSpec:
    return NetworkSpec(f"probe-{layer.id}", shape,
                       [LayerSpec(id=layer.id, kind="conv", conv=layer.conv)])


def conv_rows(original: NetworkSpec, compressed: NetworkSpec,
              rng: np.random.Generator, reps: int) -> tuple[list[dict], float]:
    """One row per decomposed conv (original, D and P times, measured and
    predicted ratio, GFLOP/s), plus the summed one-layer time of every
    compressed conv that was not decomposed."""
    in_orig, in_comp = input_shapes(original), input_shapes(compressed)
    pairs: dict[str, list[LayerSpec]] = {}
    others = []
    for layer in compressed.conv_layers():
        src = layer.meta.get("decomposed_from")
        if src:
            pairs.setdefault(src, []).append(layer)
        else:
            others.append(layer)

    rows = []
    for src, (d, p) in pairs.items():
        o = original.layer(src)
        x = rng.standard_normal(in_orig[src])
        nets = [_one_layer(o, in_orig[src]), _one_layer(d, in_comp[d.id]),
                _one_layer(p, in_comp[p.id])]
        p_in = forward(nets[1], x)
        args = [x, x, p_in]
        times = [[], [], []]
        for _ in range(reps):
            for j in range(3):
                times[j].append(timed(forward, nets[j], args[j])[0])
        t_o, t_d, t_p = (statistics.median(t) for t in times)
        hw = p_in.shape[1] * p_in.shape[2]
        f_o, f_d, f_p = conv_flops(o.conv, hw), conv_flops(d.conv, hw), conv_flops(p.conv, hw)
        n = d.conv.c_in // d.conv.groups
        predicted = Fraction(n, o.conv.c_out) + Fraction(1, o.conv.k ** 2)
        measured = (t_d + t_p) / t_o
        rows.append({
            "layer": src, "c_in": o.conv.c_in, "c_out": o.conv.c_out, "k": o.conv.k,
            "stride": o.conv.stride, "n": n, "out_hw": hw,
            "flops_orig": f_o, "flops_d": f_d, "flops_p": f_p,
            "orig_s": t_o, "d_s": t_d, "p_s": t_p,
            "ratio_measured": measured, "ratio_predicted": float(predicted),
            "gap": measured / float(predicted),
            "gflops_orig": f_o / t_o / 1e9, "gflops_d": f_d / t_d / 1e9,
            "gflops_p": f_p / t_p / 1e9,
        })

    other_s = 0.0
    for layer in others:
        net = _one_layer(layer, in_comp[layer.id])
        x = rng.standard_normal(in_comp[layer.id])
        other_s += statistics.median(timed(forward, net, x)[0] for _ in range(reps))
    return rows, other_s
