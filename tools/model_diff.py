#!/usr/bin/env python3
"""Count the values that differ between the model blobs and forward outputs
of two trees.

Usage::

    python3 tools/model_diff.py A B

A and B are output trees written by ``tools/output_digests.py`` (or any two
directories). For every ``model.bin`` (little-endian float32) and every
``*.f64`` file (little-endian float64, such as the forward outputs) found at
the same relative path under both, it prints the number of values whose
bits differ, the number of values, the largest relative difference
|a - b| / max(|a|, |b|) over the differing values, and the norm-wise
relative difference ||a - b|| / ||b|| over the whole file. A last-bit change
to a value that nearly cancels inflates the first; the second tells such
rounding apart from drift of the whole file. A file of another size in
one tree is reported as such. Files are read a slice at a time, so the vgg16
models need no more than a few tens of MB. The exit status is 0 when every
pair is identical and 1 otherwise, as with ``diff``.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

SLICE = 1 << 22  # values read at a time
# File name pattern -> the little-endian type of its values.
VALUE_TYPES = {"model.bin": np.dtype("<f4"), "*.f64": np.dtype("<f8")}


def compare(a_path: Path, b_path: Path, dtype: np.dtype) -> tuple[int, int, float, float]:
    """(differing values, values, largest relative difference, norm-wise
    relative difference) of two files of the same size holding values of
    ``dtype``."""
    a_all = np.memmap(a_path, dtype=dtype, mode="r")
    b_all = np.memmap(b_path, dtype=dtype, mode="r")
    bits = f"<u{dtype.itemsize}"
    differing, worst, diff_sq, b_sq = 0, 0.0, 0.0, 0.0
    for start in range(0, len(a_all), SLICE):
        a = np.asarray(a_all[start : start + SLICE])
        b = np.asarray(b_all[start : start + SLICE])
        b64 = b.astype(np.float64)
        b_sq += float(np.dot(b64, b64))
        diff = a.view(bits) != b.view(bits)
        if not diff.any():
            continue
        differing += int(diff.sum())
        a64, b64 = a[diff].astype(np.float64), b64[diff]
        scale = np.maximum(np.abs(a64), np.abs(b64))
        diff_sq += float(np.dot(a64 - b64, a64 - b64))
        with np.errstate(invalid="ignore"):
            worst = max(worst, float(np.nanmax(np.abs(a64 - b64) / scale, initial=0.0)))
    norm_wise = math.sqrt(diff_sq / b_sq) if b_sq else math.inf
    return differing, len(a_all), worst, norm_wise if differing else 0.0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    root_a, root_b = map(Path, argv)
    same = True
    for pattern, dtype in VALUE_TYPES.items():
        for a_path in sorted(root_a.rglob(pattern)):
            rel = a_path.relative_to(root_a)
            b_path = root_b / rel
            if not b_path.is_file():
                continue
            if a_path.stat().st_size != b_path.stat().st_size:
                print(f"{rel.as_posix()}: sizes differ "
                      f"({a_path.stat().st_size:,} vs {b_path.stat().st_size:,} bytes)")
                same = False
                continue
            differing, count, worst, norm_wise = compare(a_path, b_path, dtype)
            same = same and differing == 0
            print(f"{rel.as_posix()}: {differing:,} of {count:,} {dtype.name} values differ, "
                  f"largest relative difference {worst:.3g}, "
                  f"norm-wise {norm_wise:.3g}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
