#!/usr/bin/env python3
"""Count the float32 values that differ between the model blobs of two trees.

Usage::

    python3 tools/model_diff.py A B

A and B are output trees written by ``tools/output_digests.py`` (or any two
directories). For every ``model.bin`` found at the same relative path under
both, it prints the number of float32 values whose bits differ, the number
of values, and the largest relative difference |a - b| / max(|a|, |b|)
over the differing values. A blob of another size in one tree is reported
as such. Blobs are read a slice at a time, so the vgg16 models need no more
than a few tens of MB. The exit status is 0 when every pair is identical and
1 otherwise, as with ``diff``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

SLICE = 1 << 22  # values read at a time


def compare(a_path: Path, b_path: Path) -> tuple[int, int, float]:
    """(differing values, values, largest relative difference) of two
    little-endian float32 blobs of the same size."""
    a_all = np.memmap(a_path, dtype="<f4", mode="r")
    b_all = np.memmap(b_path, dtype="<f4", mode="r")
    differing, worst = 0, 0.0
    for start in range(0, len(a_all), SLICE):
        a = np.asarray(a_all[start : start + SLICE])
        b = np.asarray(b_all[start : start + SLICE])
        diff = a.view("<u4") != b.view("<u4")
        if not diff.any():
            continue
        differing += int(diff.sum())
        a64, b64 = a[diff].astype(np.float64), b[diff].astype(np.float64)
        scale = np.maximum(np.abs(a64), np.abs(b64))
        with np.errstate(invalid="ignore"):
            worst = max(worst, float(np.nanmax(np.abs(a64 - b64) / scale, initial=0.0)))
    return differing, len(a_all), worst


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    root_a, root_b = map(Path, argv)
    same = True
    for a_path in sorted(root_a.rglob("model.bin")):
        rel = a_path.relative_to(root_a)
        b_path = root_b / rel
        if not b_path.is_file():
            continue
        if a_path.stat().st_size != b_path.stat().st_size:
            print(f"{rel.as_posix()}: sizes differ "
                  f"({a_path.stat().st_size:,} vs {b_path.stat().st_size:,} bytes)")
            same = False
            continue
        differing, count, worst = compare(a_path, b_path)
        same = same and differing == 0
        print(f"{rel.as_posix()}: {differing:,} of {count:,} float32 values differ, "
              f"largest relative difference {worst:.3g}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
