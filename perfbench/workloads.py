"""Workloads and their seeded set-up.

Every input the program sees is a file written here: the fixture model, the
plan file, the calibration manifest and the held-out samples. The workload
seed drives the calibration set, the held-out samples (never used for
calibration), the probe inputs and the gate's sample of blocks, each from
its own random stream.

The fixture weights are built from one fixed seed per workload, as a user
compresses one given model. Across fixture seeds the final-output error of
``res34-recon`` varies twofold (0.014 to 0.029 on resnet34 with the
15-layer plan), a property of random-weight networks that would swamp any
change a later version makes to reconstruction quality.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from groupcompress.fixtures import BUILDERS
from groupcompress.modelio import save_model
from groupcompress.reconstruct import CalibrationSet

FIXTURE_SEED = 0
# Independent random streams derived from the workload seed.
STREAM_CALIB, STREAM_HELD_OUT, STREAM_PROBE, STREAM_BLOCKS = 1, 2, 3, 4


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str  # key of groupcompress.fixtures.BUILDERS
    compress_args: tuple[str, ...]
    plan_args: tuple[str, ...] = ()  # `groupcompress plan` flags; empty means none
    calib_count: int = 0  # 0: no calibration set (truncation only)
    held_out: int = 16
    # Untraced inference blocks, between compress processes. The models stay
    # loaded from the first block to the last.
    infer_blocks: int = 1


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # Its compressed forward is a Python loop over thousands of groups,
        # whose speed against the reference kernel drifts with the machine
        # over tens of seconds: three blocks spread it across the run.
        Workload("res34-d-truncate", "resnet34",
                 ("--preset", "ours_res34_d", "--no-reconstruct"), infer_blocks=3),
        Workload("vgg16-a-truncate", "vgg16",
                 ("--preset", "vgg16_a", "--no-reconstruct"),
                 # ~2 s per original/compressed pair; one block, so that its
                 # 2 GB of loaded models are never held beside a compress
                 # process of 3.3 GB
                 held_out=5),
        Workload("res34-recon", "resnet34", (),
                 plan_args=("--degree", "constant", "--base-n", "8",
                            "--skip-stage", "conv1", "--skip-stage", "conv4_x",
                            "--skip-stage", "conv5_x"),
                 calib_count=4),
    )
}

# Same code paths on the toy networks, for the benchmark's own smoke check:
# a plan file with reconstruction, and a plan file with truncation only.
SMOKE_WORKLOADS = {
    w.name: w
    for w in (
        Workload("toy3-recon", "toy3", (),
                 plan_args=("--degree", "constant", "--base-n", "1"), calib_count=4,
                 infer_blocks=2),
        Workload("toy4-truncate", "toy4", ("--no-reconstruct",),
                 plan_args=("--degree", "constant", "--base-n", "2")),
    )
}


@dataclass(frozen=True)
class Inputs:
    model: Path
    plan: Path | None
    calib: Path | None
    held_out: Path

    def compress_argv(self, workload: Workload, out_dir: Path) -> list[str]:
        argv = ["compress", str(self.model), "-o", str(out_dir), *workload.compress_args]
        if self.plan is not None:
            argv += ["--plan", str(self.plan)]
        if self.calib is not None:
            argv += ["--calib", str(self.calib)]
        return argv


def stream(seed: int, which: int) -> np.random.Generator:
    return np.random.default_rng([seed, which])


def calibration_samples(workload: Workload, input_shape, seed: int) -> np.ndarray:
    return stream(seed, STREAM_CALIB).standard_normal((workload.calib_count, *input_shape))


def prepare(workload: Workload, seed: int, work: Path) -> Inputs:
    """Write every input of one workload run into ``work``."""
    net = BUILDERS[workload.fixture](FIXTURE_SEED)
    model = save_model(net, work / "fixture" / f"{workload.fixture}.json")
    plan = calib = None
    if workload.plan_args:
        plan = work / "plan.json"
        subprocess.run(
            [sys.executable, "-m", "groupcompress", "plan", str(model),
             "-o", str(plan), *workload.plan_args],
            check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
    if workload.calib_count:
        samples = calibration_samples(workload, net.input_shape, seed)
        calib = CalibrationSet(samples).save(work / "calib" / "calib.json")
    held_out = work / "held_out.npy"
    np.save(held_out, stream(seed, STREAM_HELD_OUT).standard_normal(
        (workload.held_out, *net.input_shape)))
    return Inputs(model=model, plan=plan, calib=calib, held_out=held_out)


def fsync_tree(path: Path) -> None:
    """Flush the files under ``path`` so write-back does not leak into the
    next timed step."""
    for p in sorted(path.rglob("*")):
        if p.is_file():
            fd = os.open(p, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
