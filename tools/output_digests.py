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
* ``analyze`` of the ``res34-recon`` compressed model against its original,
  plain and with ``--correlation --calib-count 4``: the singular values of
  15 resnet34 layers and their (D, P) pairs, and the correlation walks of
  that network, one per chunk of samples;
* the ``res34-recon`` command with ``--symmetric-reconstruction``: its
  stride-2 pair ``conv3_1a`` has a D output half the size of its P
  output, 64 channels against 128;
* ``compress --degree constant --base-n 1 --calib-seed 41`` on toy3 and
  toy4, plain and with each of ``--symmetric-reconstruction``, ``--ridge 0``
  and ``--no-intercept``;
* ``analyze`` of each of those compressed toy models against its original:
  plain, with ``--correlation --calib-count 8``, with those flags and
  ``--corr-pre-activation``, and with ``--energy-sigma``;
* ``compress --degree constant --base-n 1 --calib-seed 41 --calib-count
  7`` on toy3, plain and with ``--ridge 0``: on 2 to 6 CPUs, seven samples
  leave the last chunk of a reconstruction short;
* ``compress --plan --calib-seed 41`` on toy3 with a plan of
  ``--degree constant --base-n 1 --skip-layer c1``, plain and with
  ``--symmetric-reconstruction``: the asymmetric run shares toy3's first
  layers between the original and the compressed network, so its
  compressed walk starts past layer 0;
* ``compress --plan --calib-seed 41`` on toy4 with a plan of ``--degree
  quarter --base-n 1 --stage-cap s4=2``, whose cap lowers stage s4's n;
* two rounds of ``compress --plan --calib-seed 41 --calib-count 40`` on
  toy3, each with a plan of ``--degree constant --base-n 1``: round 1
  decomposes c1, round 2 the c2 of round 1's output, which already holds a
  pair, and fits only the pair it adds; then ``analyze`` of round 2 against
  round 1 (c2's pair) and against toy3 (both pairs);
* ``compress --plan --force-1x1 --no-reconstruct`` on the resnet34 fixture
  with a plan file that ranks one 3x3 conv and three 1x1 projection
  shortcuts, which no schedule plans (``FORCE_1X1_RANKS``);
* ``compress --preset ours_res34_d --calib-count 16`` on the resnet34
  fixture: reconstruction of every decomposed conv of the network, the
  run whose memory the original's source convs weigh on most (about 6 s
  and 200 MB of peak RSS on a 2-vCPU Xeon).

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

Every child runs with the BLAS thread variables removed from its
environment, as a user runs the tool, which then pins BLAS to one thread
itself. After the listing, each command that runs on several CPUs runs
again in a child process limited to one CPU, writing into a temporary
directory outside OUT_DIR: every ``compress``, which factors its layers'
blocks and, unless ``--no-reconstruct`` is given, walks the calibration
samples in chunks of one sample per CPU, and every ``analyze
--correlation``, which walks the samples in the same chunks and adds each
sample's rows to per-sample statistics. Each file it writes is compared
with the same file under OUT_DIR; if any differs, its path is printed to
stderr and the exit status is 1, since the result must depend neither on
the CPU count nor on the size of a walk's chunks. Nor may it depend on the
BLAS thread count, which without the tool's pin would follow the CPU count.
"""

from __future__ import annotations

import functools
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("res34-d-truncate", "vgg16-a-truncate", "res34-recon")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
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
    "analyze-pre-activation": ("--correlation", "--corr-pre-activation", "--calib-count", "8"),
    "analyze-energy-sigma": ("--energy-sigma",),
}
SKIP_C1_VARIANTS = {key: TOY_VARIANTS[key] for key in ("plain", "symmetric")}
CALIB7_VARIANTS = {key: ("--calib-count", "7", *TOY_VARIANTS[key]) for key in ("plain", "ridge0")}
ROUND_SKIPS = {"round1": ("c2", "c3"), "round2": ("c3",)}  # the layers each round does not plan
ROUND_FLAGS = ("--calib-count", "40")
RECON_ANALYZE_VARIANTS = {  # of the res34-recon output
    "analyze": (),
    "analyze-correlation": ("--correlation", "--calib-count", "4"),
}
FORCE_1X1_RANKS = {"conv3_1a": 8, "conv3_1proj": 8, "conv4_1proj": 8, "conv5_1proj": 8}
WHOLE_NETWORK_FLAGS = ("--preset", "ours_res34_d", "--calib-count", "16")


def groupcompress(*argv, cpus: set[int] | None = None) -> None:
    """Run the CLI in a child process with the BLAS thread variables removed
    from its environment, on ``cpus`` only if given."""
    env = {name: value for name, value in os.environ.items() if name not in BLAS_THREAD_VARS}
    subprocess.run([sys.executable, "-m", "groupcompress", *map(str, argv)],
                   check=True, stdout=subprocess.DEVNULL, env=env,
                   preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus))


def one_cpu_differences(runs) -> list[Path]:
    """Rerun each ``(output dir, argv for an output dir)`` of ``runs`` on one
    CPU into a temporary directory, and return the path under OUT_DIR of
    each file the rerun wrote differently."""
    differ = []
    with tempfile.TemporaryDirectory() as rerun_root:
        for out_dir, argv in runs:
            rerun = Path(rerun_root) / out_dir
            groupcompress(*argv(rerun), cpus={min(os.sched_getaffinity(0))})
            for path in sorted(p for p in rerun.rglob("*") if p.is_file()):
                original = out_dir / path.relative_to(rerun)
                if not original.is_file() or original.read_bytes() != path.read_bytes():
                    differ.append(original)
    return differ


def toy_compress_argv(toy: str, flags: tuple, out_dir: Path) -> list:
    return ["compress", f"fixtures/{toy}.json", "-o", out_dir, "--degree", "constant",
            "--base-n", "1", "--calib-seed", "41", *flags]


def planned_compress_argv(model: str, plan: Path, flags: tuple, out_dir: Path) -> list:
    return ["compress", model, "-o", out_dir, "--plan", plan, "--calib-seed", "41", *flags]


def forced_compress_argv(model: Path, plan: Path, out_dir: Path) -> list:
    return ["compress", model, "-o", out_dir, "--plan", plan, "--force-1x1", "--no-reconstruct"]


def whole_network_argv(model: Path, out_dir: Path) -> list:
    return ["compress", model, "-o", out_dir, *WHOLE_NETWORK_FLAGS]


def flagged_argv(argv_for, flags: tuple, out_dir: Path) -> list:
    return [*argv_for(out_dir), *flags]


def analyze_argv(original: Path, compressed: Path, flags: tuple, out_dir: Path) -> list:
    return ["analyze", original, compressed, "-o", out_dir, *flags]


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
    # Before numpy loads, as in the benchmark: one BLAS thread for the
    # forward outputs written here, and every child imports the package
    # from this checkout.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from groupcompress.schedule import CompressionPlan
    from perfbench.workloads import WORKLOADS as BENCH, prepare

    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    threaded = []  # (output dir, argv for an output dir) of each command run on several CPUs

    def run(argv_for, out_dir: Path) -> None:
        argv = argv_for(out_dir)
        groupcompress(*argv)
        if argv[0] == "compress" or "--correlation" in argv:
            threaded.append((out_dir, argv_for))

    models = {}
    for name in WORKLOADS:
        inputs = prepare(BENCH[name], WORKLOAD_SEED, Path(name))
        models[name] = inputs.model
        out_dir = Path(name) / "out"
        run(functools.partial(inputs.compress_argv, BENCH[name]), out_dir)
        write_forwards(inputs.model, out_dir)
        if name == "res34-recon":
            for analysis, flags in RECON_ANALYZE_VARIANTS.items():
                run(functools.partial(analyze_argv, inputs.model, out_dir / "model.json", flags),
                    out_dir / analysis)
            symmetric = Path(name) / "symmetric"
            run(functools.partial(flagged_argv, functools.partial(
                inputs.compress_argv, BENCH[name]), TOY_VARIANTS["symmetric"]), symmetric)
            write_forwards(inputs.model, symmetric)
    for toy in ("toy3", "toy4"):
        groupcompress("gen-fixtures", toy, "-o", "fixtures")
        for variant, flags in TOY_VARIANTS.items():
            run(functools.partial(toy_compress_argv, toy, flags), Path(toy) / variant)
            write_forwards(Path(f"fixtures/{toy}.json"), Path(toy) / variant)
            for analysis, analyze_flags in ANALYZE_VARIANTS.items():
                run(functools.partial(analyze_argv, Path(f"fixtures/{toy}.json"),
                                      Path(toy) / variant / "model.json", analyze_flags),
                    Path(toy) / variant / analysis)
    for variant, flags in CALIB7_VARIANTS.items():
        run(functools.partial(toy_compress_argv, "toy3", flags), Path("toy3-calib7") / variant)
        write_forwards(Path("fixtures/toy3.json"), Path("toy3-calib7") / variant)
    skip_c1, toy3 = Path("toy3-skip-c1"), "fixtures/toy3.json"
    groupcompress("plan", toy3, "--degree", "constant", "--base-n", "1", "--skip-layer", "c1",
                  "-o", skip_c1 / "plan.json")
    for variant, flags in SKIP_C1_VARIANTS.items():
        run(functools.partial(planned_compress_argv, toy3, skip_c1 / "plan.json", flags),
            skip_c1 / variant)
        write_forwards(Path(toy3), skip_c1 / variant)
    rounds, model = Path("toy3-rounds"), Path(toy3)
    for name, skips in ROUND_SKIPS.items():
        plan = rounds / f"{name}-plan.json"
        groupcompress("plan", model, "--degree", "constant", "--base-n", "1",
                      *(arg for layer in skips for arg in ("--skip-layer", layer)), "-o", plan)
        run(functools.partial(planned_compress_argv, model, plan, ROUND_FLAGS), rounds / name)
        write_forwards(model, rounds / name)
        model = rounds / name / "model.json"
    for analysis, original in (("analyze-round1", rounds / "round1" / "model.json"),
                               ("analyze-toy3", Path(toy3))):
        run(functools.partial(analyze_argv, original, model, ()), rounds / "round2" / analysis)
    capped, toy4 = Path("toy4-stage-cap"), "fixtures/toy4.json"
    groupcompress("plan", toy4, "--degree", "quarter", "--base-n", "1", "--stage-cap", "s4=2",
                  "-o", capped / "plan.json")
    run(functools.partial(planned_compress_argv, toy4, capped / "plan.json", ()), capped / "plain")
    write_forwards(Path(toy4), capped / "plain")
    forced, resnet34 = Path("res34-force-1x1"), models["res34-d-truncate"]
    CompressionPlan("constant", 8, {}, FORCE_1X1_RANKS).save(forced / "plan.json")
    run(functools.partial(forced_compress_argv, resnet34, forced / "plan.json"), forced / "plain")
    write_forwards(resnet34, forced / "plain")
    whole = Path("res34-whole-recon") / "plain"
    run(functools.partial(whole_network_argv, resnet34), whole)
    write_forwards(resnet34, whole)
    for path in sorted(p for p in Path().rglob("*") if p.is_file()):
        with open(path, "rb") as fh:
            print(f"{hashlib.file_digest(fh, 'sha256').hexdigest()}  {path.as_posix()}")
    differ = one_cpu_differences(threaded)
    for path in differ:
        print(f"{path.as_posix()}: bytes differ when rerun on one CPU", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
