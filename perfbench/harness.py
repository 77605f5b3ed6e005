"""One benchmark run of one workload, and the smoke check.

Imported by ``run.py`` after it has put the checkout's ``src`` on the path
and fixed the BLAS thread count.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from groupcompress.model import network_flops
from groupcompress.modelio import load_model
from groupcompress.schedule import CompressionPlan, predict_flops

import gate as checks
import probes
import refclock
import tracer
from metrics import END_TO_END, PER_LAYER
from workloads import (
    SMOKE_WORKLOADS, STREAM_BLOCKS, STREAM_PROBE, WORKLOADS, Workload,
    calibration_samples, fsync_tree, prepare, stream,
)

SETUP_REPS = 3
# Shares of --seconds spent on compress processes and on inference, without
# and with tracing; the traced run also runs the traced child and the probe.
COMPRESS_SHARE = {False: 0.6, True: 0.25}
INFER_SHARE = {False: 0.4, True: 0.2}
MIN_INFER_ROUNDS = {False: 5, True: 3}
PROBE_REPS = 3
GAP_TICKS = 5  # reference-kernel ticks between two compress processes
CHILD_TIMEOUT_S = 150
HERE = Path(__file__).resolve().parent


@dataclass
class ChildRun:
    code: int
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    warnings: int
    ref_s: float = 0.0  # reference-kernel time around the process (compress_loop)


_launcher: subprocess.Popen | None = None


def run_child(argv: list[str], stderr_path: Path) -> ChildRun:
    """Run one process to completion through ``launcher.py``, which starts
    it from a small address space; resources come from os.wait4 on it
    alone."""
    global _launcher
    if _launcher is None:
        _launcher = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    _launcher.stdin.write(json.dumps([argv, str(stderr_path), CHILD_TIMEOUT_S]) + "\n")
    _launcher.stdin.flush()
    reply = _launcher.stdout.readline()
    if not reply:
        raise RuntimeError(f"launcher exited with code {_launcher.wait()}")
    text = stderr_path.read_text(errors="replace")
    return ChildRun(**json.loads(reply),
                    warnings=sum("Warning" in line for line in text.splitlines()))


def stop_launcher() -> None:
    global _launcher
    if _launcher is not None:
        _launcher.stdin.close()
        _launcher.wait(timeout=CHILD_TIMEOUT_S + 10)
        _launcher = None


def machine_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "controls": "CPU frequency, core pinning and other machine settings are "
                    "not controlled by the benchmark",
    }


def _sha256(path: Path | None) -> str | None:
    return None if path is None else hashlib.sha256(path.read_bytes()).hexdigest()


def _size_mb(*paths: Path) -> float:
    return sum(p.stat().st_size for p in paths) / 1e6


def compress_loop(cmd: list[str], out: Path, work: Path, budget_s: float,
                  gate: checks.Gate) -> list[ChildRun]:
    """Fresh compress processes, at least one, until the budget would be
    overrun. The reference kernel is timed before the first process and
    after each one; a process's ``ref_s`` is the mean of the times on
    either side of it."""
    runs: list[ChildRun] = []
    start = time.perf_counter()
    ref_before = refclock.ref_time(GAP_TICKS)
    while not runs or (
            time.perf_counter() - start + runs[-1].wall_s <= budget_s):
        shutil.rmtree(out, ignore_errors=True)
        run = run_child(cmd, work / "compress.stderr")
        gate.record("compress_exit_0", run.code == 0, f"exit {run.code}")
        if out.exists():
            fsync_tree(out)
        ref_after = refclock.ref_time(GAP_TICKS)
        run.ref_s = (ref_before + ref_after) / 2
        ref_before = ref_after
        runs.append(run)
    return runs


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work_root: Path) -> tuple[dict, dict]:
    """Returns (result line, full record).

    Untraced: set-up x3, then compress processes alternating with the
    workload's inference blocks, so that both kinds of sample span the whole
    run, then the output checks. Traced: set-up, compress processes, the
    traced compress, one inference block and the per-conv probe, then the
    output checks.
    """
    work = work_root / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    gate = checks.Gate()

    setup_times = []
    for _ in range(1 if trace else SETUP_REPS):
        start = time.perf_counter()
        inputs = prepare(workload, seed, work / "inputs")
        setup_times.append(time.perf_counter() - start)
        gc.collect()
    fsync_tree(work / "inputs")
    original_manifest = checks.read_manifest(inputs.model)
    if workload.calib_count:
        other = calibration_samples(workload, original_manifest["input_shape"], seed + 1)
        gate.check("calib_differs_across_seeds", checks.require_differs,
                   inputs.calib.with_suffix(".bin"), np.asarray(other, dtype="<f4").tobytes())

    out = work / "out"
    cmd = [sys.executable, "-m", "groupcompress", *inputs.compress_argv(workload, out)]
    blocks = 1 if trace else workload.infer_blocks
    compress_segment = seconds * COMPRESS_SHARE[trace] / (1 if trace else blocks + 1)
    runs = compress_loop(cmd, out, work, compress_segment, gate)

    spans = traced_run = None
    if trace:
        traced_out = work / "traced_out"
        spans_path = work / "spans.json"
        traced_run = run_child(
            [sys.executable, str(HERE / "tracer.py"), str(spans_path),
             *inputs.compress_argv(workload, traced_out)],
            work / "traced.stderr")
        gate.record("traced_compress_exit_0", traced_run.code == 0, f"exit {traced_run.code}")
        gate.check("traced_model_identical", checks.same_bytes,
                   out / "model.bin", traced_out / "model.bin")
        spans = json.loads(spans_path.read_text())["spans"]
        span_summary = {}
        gate.check("spans_nest", lambda: span_summary.update(tracer.summarize(spans)))

    try:
        compressed = load_model(out / "model.json")
    except Exception as exc:  # counted as a failed check, then the run stops
        gate.record("model_reloads", False, f"{type(exc).__name__}: {exc}")
        raise RuntimeError(f"{workload.name}: no usable model; checks: {gate.ops}") from exc
    gate.record("model_reloads", True)
    original = load_model(inputs.model)
    held_out = np.load(inputs.held_out)
    inference = probes.Inference(held_out)
    min_rounds = -(-max(MIN_INFER_ROUNDS[trace], len(held_out)) // blocks)
    for block in range(blocks):
        if block:
            runs += compress_loop(cmd, out, work, compress_segment, gate)
        inference.block(original, compressed, seconds * INFER_SHARE[trace] / blocks,
                        min_rounds)
    inference = inference.result()
    gate.record("outputs_finite", inference["finite"])
    flops_ratio = network_flops(compressed)[0] / network_flops(original)[0]
    if trace:
        rows, other_conv_s = probes.conv_rows(original, compressed,
                                              stream(seed, STREAM_PROBE), PROBE_REPS)
    else:
        del original, compressed  # the last compress processes get the memory
        gc.collect()
        runs += compress_loop(cmd, out, work, compress_segment, gate)

    report = json.loads((out / "report.json").read_text())
    compressed_manifest = checks.read_manifest(out / "model.json")
    reconstructed = bool(report["reconstruction"]["enabled"])
    gate.check("pair_flops_identity", checks.pair_geometry_and_flops,
               original_manifest, compressed_manifest, report)
    gate.check("block_factors_match_svd", checks.block_factors,
               original_manifest, compressed_manifest, reconstructed,
               stream(seed, STREAM_BLOCKS))
    if reconstructed:
        gate.check("residuals_shrink", checks.residuals_shrink, report)

    compress_raw_s = statistics.median(r.wall_s for r in runs)
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine_record(),
        "inputs_sha256": {"calib": _sha256(inputs.calib and inputs.calib.with_suffix(".bin")),
                          "plan": _sha256(inputs.plan)},
        "setup_s": setup_times,
        "compress_runs": [vars(r) for r in runs],
        "inference": inference,
        "flops_ratio": flops_ratio,
        "compress_raw_s": compress_raw_s,
    }
    if not trace:
        values = {
            "setup_s": statistics.median(setup_times),
            "compress_s": statistics.median(r.wall_s / r.ref_s for r in runs) * refclock.REF_S,
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
            "infer_s": inference["infer_s"],
            "infer_speedup": inference["infer_speedup"],
            "flops_ratio": flops_ratio,
            "output_rel_err": inference["output_rel_err"],
            "model_mb": _size_mb(out / "model.bin"),
            "success_rate": 1 - gate.failed / gate.attempted,
        }
        specs = END_TO_END
    else:
        plan = CompressionPlan.from_json(report["plan"])
        values = layer_metrics(
            inputs, out, report, original, compressed, plan, runs,
            traced_run, spans, inference, rows, other_conv_s, compress_raw_s)
        specs = PER_LAYER
        record["conv_rows"] = rows
        record["span_summary"] = span_summary
        record["traced_run"] = vars(traced_run)
        os.replace(spans_path, work_root / "results" / f"{workload.name}-seed{seed}.spans.json")
    record["checks"] = gate.ops
    metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in specs}
    record["metrics"] = metrics
    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed, "metrics": metrics}
    shutil.rmtree(work, ignore_errors=True)
    return result, record


def layer_metrics(inputs, out, report, original, compressed, plan, runs,
                  traced_run, spans, inference, rows, other_conv_s, compress_raw_s) -> dict:
    load_s = tracer.total(spans, "modelio.load_model")
    save_s = tracer.total(spans, "modelio.save_model")
    read_mb = _size_mb(inputs.model, inputs.model.with_suffix(".bin"))
    write_mb = _size_mb(out / "model.json", out / "model.bin")
    decompose_s = tracer.total(spans, "decompose.decompose_network")
    svd_blocks = sum(original.layer(lid).conv.c_in // n for lid, n in plan.layer_ranks.items())
    c_out = {layer.id: layer.conv.c_out for layer in original.conv_layers()}
    recon_rows = [row for row in report["layers"] if "residual_after" in row]
    conv_s = sum(r["orig_s"] for r in rows)
    d_s = sum(r["d_s"] for r in rows)
    p_s = sum(r["p_s"] for r in rows)
    flops = {key: sum(r[key] for r in rows) for key in ("flops_orig", "flops_d", "flops_p")}
    measured = (d_s + p_s) / conv_s
    predicted = (flops["flops_d"] + flops["flops_p"]) / flops["flops_orig"]
    return {
        "cli.cpu_s": statistics.median(r.cpu_s for r in runs),
        "cli.overhead_s": traced_run.wall_s - tracer.children_total(spans, "cli.run_compress"),
        "cli.warnings": max(r.warnings for r in runs),
        "modelio.load_s": load_s,
        "modelio.save_s": save_s,
        "modelio.read_mb": read_mb,
        "modelio.write_mb": write_mb,
        "modelio.read_mb_per_s": read_mb / load_s,
        "modelio.write_mb_per_s": write_mb / save_s,
        "schedule.plan_s": (tracer.total(spans, "schedule.plan_from_preset")
                            + tracer.total(spans, "schedule.CompressionPlan.load")),
        "schedule.planned_layers": len(plan.layer_ranks),
        "schedule.predict_exact": int(predict_flops(original, plan)
                                      == network_flops(compressed)[0]),
        "decompose.decompose_s": decompose_s,
        "decompose.svd_blocks": svd_blocks,
        "decompose.us_per_block": decompose_s / svd_blocks * 1e6,
        "reconstruct.reconstruct_s": tracer.total(spans, "reconstruct.reconstruct_network"),
        "reconstruct.collect_s": tracer.total(spans, "reconstruct.collect_responses"),
        "reconstruct.solve_s": tracer.total(spans, "reconstruct.solve_reconstruction"),
        "reconstruct.forward_passes": tracer.count_under(
            spans, "model.forward", "reconstruct.reconstruct_network"),
        "reconstruct.response_mb": max(
            (2 * row["sample_rows"] * c_out[row["layer"]] * 8 / 1e6 for row in recon_rows),
            default=0.0),
        "reconstruct.fallbacks": sum(bool(row["identity_fallback"]) for row in recon_rows),
        "reconstruct.residual_ratio": statistics.median(
            [row["residual_after"] / row["residual_before"] for row in recon_rows] or [1.0]),
        "model.infer_orig_s": inference["infer_orig_s"],
        "model.conv_s": conv_s,
        "model.dp_s": d_s + p_s,
        "model.d_s": d_s,
        "model.p_s": p_s,
        "model.dp_ratio_measured": measured,
        "model.dp_ratio_predicted": predicted,
        "model.dp_gap": measured / predicted,
        "model.worst_pair_gap": max(r["gap"] for r in rows),
        "model.conv_gflops": flops["flops_orig"] / conv_s / 1e9,
        "model.d_gflops": flops["flops_d"] / d_s / 1e9,
        "model.p_gflops": flops["flops_p"] / p_s / 1e9,
        "model.nonconv_s": inference["infer_raw_s"] - (d_s + p_s + other_conv_s),
        "linalg.im2col_mb_orig": probes.im2col_mb(original),
        "linalg.im2col_mb_comp": probes.im2col_mb(compressed),
        "trace.overhead_s": traced_run.wall_s - compress_raw_s,
    }


def _print_summary(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']}")
    print("# machine: " + json.dumps(record["machine"]))
    for op in record["checks"]:
        print(f"# check {'ok  ' if op['ok'] else 'FAIL'} {op['name']} {op['detail']}")
    for name, metric in record["metrics"].items():
        print(f"{name:<30} {metric['value']:>16.6g} {metric['unit']}")
    if "conv_rows" in record:
        print(f"{'layer':<12}{'n':>4}{'orig ms':>10}{'D ms':>9}{'P ms':>9}"
              f"{'measured':>10}{'predicted':>10}{'gap':>7}{'GF/s o/D/P':>18}")
        for r in record["conv_rows"]:
            print(f"{r['layer']:<12}{r['n']:>4}{r['orig_s'] * 1e3:>10.3f}"
                  f"{r['d_s'] * 1e3:>9.3f}{r['p_s'] * 1e3:>9.3f}"
                  f"{r['ratio_measured']:>10.3f}{r['ratio_predicted']:>10.3f}{r['gap']:>7.2f}"
                  f"{r['gflops_orig']:>6.1f}/{r['gflops_d']:.1f}/{r['gflops_p']:.1f}")
        print("# layer self time (s): " + json.dumps(
            {k: round(v, 4) for k, v in record["span_summary"].get("layer_self_s", {}).items()}))


def _save_record(work_root: Path, record: dict) -> None:
    results = work_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")


def main(args, work_root: Path) -> int:
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    (work_root / "results").mkdir(parents=True, exist_ok=True)
    for name in names:
        result, record = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                      bool(args.trace), work_root)
        _save_record(work_root, record)
        _print_summary(record)
        print(json.dumps(result))
    return 0


def smoke(root: Path, work_root: Path) -> int:
    """Same code paths on the toy networks; exits non-zero on any mismatch."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if declared != [(m.name, m.unit, m.better) for m in ours]:
            problems.append(f"BENCHMARK.json {key} differs from perfbench/metrics.py")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from perfbench/workloads.py")
    (work_root / "results").mkdir(parents=True, exist_ok=True)
    records = {}
    for workload in SMOKE_WORKLOADS.values():
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            result, record = run_workload(workload, seed, 1.0, bool(trace), work_root)
            records[workload.name, seed, trace] = record
            want = spec["per_layer" if trace else "end_to_end"]
            got = result["metrics"]
            for m in want:
                if got.get(m["name"], {}).get("unit") != m["unit"]:
                    problems.append(f"{workload.name} trace={trace}: {m['name']} missing "
                                    f"or not in {m['unit']}")
            if set(got) != {m["name"] for m in want}:
                problems.append(f"{workload.name} trace={trace}: extra metrics")
            if not result["correct"]:
                problems.append(f"{workload.name} seed={seed} trace={trace}: gate failed")
            if trace and not any(op["name"] == "spans_nest" and op["ok"]
                                 for op in record["checks"]):
                problems.append(f"{workload.name}: spans do not nest")
    a, b = records["toy3-recon", 1, 0], records["toy3-recon", 2, 0]
    if a["inputs_sha256"]["calib"] == b["inputs_sha256"]["calib"]:
        problems.append("two seeds gave the same calibration bytes")
    for name in ("flops_ratio", "model_mb"):
        if a["metrics"][name]["value"] != b["metrics"][name]["value"]:
            problems.append(f"{name} changed with the seed")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0
