#!/usr/bin/env python3
"""Run a fixed set of groupcompress commands and print a sha256 per file.

Usage::

    python3 tools/output_digests.py OUT_DIR

The commands run in OUT_DIR, on relative paths, so a path recorded in an
output (``report.json``'s calibration source) is the same string wherever
OUT_DIR is. They are:

* the inputs (fixture model, plan file, calibration set) of the benchmark
  workloads ``res34-d-truncate``, ``vgg16-a-truncate`` and ``res34-recon``,
  written by ``perfbench.workloads.prepare``, and each workload's
  ``compress`` command;
* ``compress --degree constant --base-n 1 --calib-seed 41`` on toy3 and
  toy4, plain and with each of ``--symmetric-reconstruction``, ``--ridge 0``
  and ``--no-intercept``;
* ``analyze`` of each of those compressed toy models against its original,
  plain and with ``--correlation --calib-count 8``.

Beside each compressed model it also writes the compressed and the original
network's output on one seeded sample, as raw little-endian float64
(``forward_compressed.f64``, ``forward_original.f64``), so that a change to
forward bits shows up in the listing; ``tools/model_diff.py`` counts the
values that differ.

The package and ``perfbench`` are imported from the checkout that holds this
script. Every file under OUT_DIR is then listed as ``<sha256>  <path>``,
sorted by path: run it on two checkouts and ``diff`` the listings to check
that a change keeps every byte written. The vgg16 workload needs about
2 GB of memory and 1.5 GB of disk.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("res34-d-truncate", "vgg16-a-truncate", "res34-recon")
WORKLOAD_SEED = 1
FORWARD_SEED = 2
TOY_VARIANTS = {
    "plain": (),
    "symmetric": ("--symmetric-reconstruction",),
    "ridge0": ("--ridge", "0"),
    "no-intercept": ("--no-intercept",),
}
ANALYZE_VARIANTS = {
    "analyze": (),
    "analyze-correlation": ("--correlation", "--calib-count", "8"),
}


def groupcompress(*argv) -> None:
    subprocess.run([sys.executable, "-m", "groupcompress", *map(str, argv)],
                   check=True, stdout=subprocess.DEVNULL)


def write_forwards(original: Path, out_dir: Path) -> None:
    """Write the outputs of ``original`` and of ``out_dir/model.json`` on one
    seeded sample into ``out_dir``, one model loaded at a time."""
    import numpy as np
    from groupcompress.model import forward
    from groupcompress.modelio import load_model

    def output(path: Path) -> np.ndarray:
        net = load_model(path)
        sample = np.random.default_rng(FORWARD_SEED).standard_normal(net.input_shape)
        return forward(net, sample)

    for name, path in (("original", original), ("compressed", out_dir / "model.json")):
        output(path).astype("<f8").tofile(out_dir / f"forward_{name}.f64")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    # Before numpy loads, as in the benchmark: one BLAS thread, and every
    # child imports the package from this checkout.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS as BENCH, prepare

    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    for name in WORKLOADS:
        inputs = prepare(BENCH[name], WORKLOAD_SEED, Path(name))
        groupcompress(*inputs.compress_argv(BENCH[name], Path(name) / "out"))
        write_forwards(inputs.model, Path(name) / "out")
    for toy in ("toy3", "toy4"):
        groupcompress("gen-fixtures", toy, "-o", "fixtures")
        for variant, flags in TOY_VARIANTS.items():
            groupcompress("compress", f"fixtures/{toy}.json", "-o", f"{toy}/{variant}",
                          "--degree", "constant", "--base-n", "1", "--calib-seed", "41",
                          *flags)
            write_forwards(Path(f"fixtures/{toy}.json"), Path(toy) / variant)
            for analysis, analyze_flags in ANALYZE_VARIANTS.items():
                groupcompress("analyze", f"fixtures/{toy}.json", f"{toy}/{variant}/model.json",
                              "-o", f"{toy}/{variant}/{analysis}", *analyze_flags)
    for path in sorted(p for p in Path().rglob("*") if p.is_file()):
        with open(path, "rb") as fh:
            print(f"{hashlib.file_digest(fh, 'sha256').hexdigest()}  {path.as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
