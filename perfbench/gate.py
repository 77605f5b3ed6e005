"""Correctness gate that does not rely on the code under test.

Model manifests are parsed here directly (JSON plus a little-endian float32
blob, as documented in the model format) instead of through
``groupcompress.modelio``; FLOPs identities are computed with ``Fraction``;
the reference factorization is numpy's own SVD. A failed check is recorded
and counted, never raised, so one failure does not hide the others.
"""

from __future__ import annotations

import filecmp
import json
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

# float32 storage keeps ~7 significant digits; products of two stored
# factors stay well inside this relative Frobenius error.
BLOCK_RTOL = 1e-5
BLOCK_SAMPLES = 16


class Gate:
    """Counts operations (compress runs and checks) and their failures."""

    def __init__(self):
        self.ops: list[dict] = []

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not op["ok"] for op in self.ops)

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ops.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
        return bool(ok)

    def check(self, name: str, fn, *args) -> bool:
        """Run ``fn(*args)``; it passes unless it raises."""
        try:
            detail = fn(*args)
        except Exception as exc:  # a failed check is data, not a crash
            traceback.print_exc(file=sys.stderr)
            return self.record(name, False, f"{type(exc).__name__}: {exc}")
        return self.record(name, True, detail or "")


class CheckError(AssertionError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def read_manifest(path: Path) -> dict:
    manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    manifest["_dir"] = str(Path(path).parent)
    manifest["_by_id"] = {layer["id"]: layer for layer in manifest["layers"]}
    return manifest


def conv_weights(manifest: dict, layer: dict) -> np.ndarray:
    """(c_out, c_in/groups, k, k) float64 weights read straight from the blob."""
    ref = layer["weights"]
    shape = (layer["c_out"], layer["c_in"] // layer.get("groups", 1), layer["k"], layer["k"])
    with open(Path(manifest["_dir"]) / manifest["blob"], "rb") as fh:
        fh.seek(ref["offset"])
        raw = fh.read(ref["length"])
    _require(len(raw) == 4 * int(np.prod(shape)), f"{layer['id']}: blob slice size")
    return np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)


def decomposed_pairs(manifest: dict) -> list[tuple[str, dict, dict]]:
    """(source id, D layer, P layer) by provenance, in network order."""
    found: dict[str, list[dict]] = {}
    for layer in manifest["layers"]:
        src = layer.get("decomposed_from")
        if src:
            found.setdefault(src, []).append(layer)
    for src, layers in found.items():
        _require(len(layers) == 2, f"{src}: {len(layers)} layers carry its provenance")
    return [(src, d, p) for src, (d, p) in found.items()]


def pair_geometry_and_flops(original: dict, compressed: dict, report: dict) -> str:
    """D and P have the geometry the paper prescribes, and every reported
    pair's FLOPs ratio equals n/c_out + 1/k^2 exactly."""
    pairs = decomposed_pairs(compressed)
    rows = {row["layer"]: row for row in report["layers"]}
    _require(sorted(rows) == sorted(src for src, _, _ in pairs),
             "report layers differ from the decomposed pairs in the model")
    for src, d, p in pairs:
        o = original["_by_id"][src]
        n, c_in, c_out, k = rows[src]["n"], o["c_in"], o["c_out"], o["k"]
        _require(
            (d["c_in"], d["c_out"], d["k"], d.get("groups", 1), d.get("stride", 1), d.get("pad", 0))
            == (c_in, c_in, k, c_in // n, o.get("stride", 1), o.get("pad", 0)),
            f"{src}: D geometry",
        )
        _require((p["c_in"], p["c_out"], p["k"], p.get("groups", 1)) == (c_in, c_out, 1, 1),
                 f"{src}: P geometry")
        measured = Fraction(rows[src]["flops_after"], rows[src]["flops_before"])
        _require(measured == Fraction(n, c_out) + Fraction(1, k * k),
                 f"{src}: flops ratio {measured} != {n}/{c_out} + 1/{k * k}")
    return f"{len(pairs)} pairs"


def block_factors(original: dict, compressed: dict, reconstructed: bool,
                  rng: np.random.Generator) -> str:
    """For a seeded sample of blocks: D_i P_i equals numpy's rank-n truncation
    of the original block (truncation only), or, after reconstruction has
    rewritten P, D_i's column norms equal the block's leading n singular
    values."""
    pairs = decomposed_pairs(compressed)
    worst = 0.0
    picks = rng.integers(0, len(pairs), size=BLOCK_SAMPLES)
    for pick in sorted(set(int(i) for i in picks)):
        src, d, p = pairs[pick]
        o = original["_by_id"][src]
        k, c_out = o["k"], o["c_out"]
        n = d["c_in"] // d["groups"]
        w_mat = conv_weights(original, o).reshape(c_out, -1).T
        d_w = conv_weights(compressed, d)
        p_mat = conv_weights(compressed, p).reshape(c_out, -1).T
        i = int(rng.integers(0, o["c_in"] // n))
        block = w_mat[i * n * k * k:(i + 1) * n * k * k]
        d_block = d_w[i * n:(i + 1) * n].reshape(n, -1).T
        u, s, vt = np.linalg.svd(block, full_matrices=False)
        if reconstructed:
            err = np.max(np.abs(np.linalg.norm(d_block, axis=0) - s[:n])) / s[0]
        else:
            reference = (u[:, :n] * s[:n]) @ vt[:n]
            approx = d_block @ p_mat[i * n:(i + 1) * n]
            err = np.linalg.norm(approx - reference) / np.linalg.norm(block)
        _require(err <= BLOCK_RTOL, f"{src} block {i}: relative error {err:.3g}")
        worst = max(worst, float(err))
    return f"worst relative error {worst:.3g}"


def residuals_shrink(report: dict) -> str:
    bad = [row["layer"] for row in report["layers"]
           if not row["residual_after"] <= row["residual_before"]]
    _require(not bad, f"residual grew on {bad}")
    return f"{len(report['layers'])} layers"


def require_differs(path: Path, other: bytes) -> str:
    _require(Path(path).read_bytes() != other, f"{path} equals the other seed's bytes")
    return ""


def same_bytes(a: Path, b: Path) -> str:
    _require(filecmp.cmp(a, b, shallow=False), f"{a} and {b} differ")
    return ""
