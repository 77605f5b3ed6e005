"""The benchmark's metrics: name, unit, direction and what each one means.

``BENCHMARK.json`` lists the same names, units and directions (plus the
regression bound of each end-to-end metric); the smoke mode checks that the
two agree. ``BENCHMARK.json`` admits no other keys, so the map from each
per-layer metric to the end-to-end metric it should move, and the workload
where the move shows, is kept here in ``moves``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    meaning: str
    moves: str = ""  # per-layer metrics: end-to-end metric and workload it moves


END_TO_END = (
    Metric("setup_s", "s", "lower",
           "median of three set-ups: build the fixture, write the model, plan "
           "file, calibration set and held-out samples"),
    Metric("compress_s", "s", "lower",
           "median wall time of one fresh `groupcompress compress` process, "
           "exec to exit (at least two processes per run), in reference "
           "seconds: each process over the reference kernel's time around it, "
           "times refclock.REF_S"),
    Metric("peak_rss_mb", "MB", "lower",
           "median peak RSS of the compress process alone (os.wait4), started "
           "from launcher.py so that no peak of the benchmark's own is inherited"),
    Metric("infer_s", "s", "lower",
           "median time of one forward of the written compressed model on one "
           "held-out sample, after a warm-up pair, in reference seconds: each "
           "forward over the reference kernel's time around it, times "
           "refclock.REF_S"),
    Metric("infer_speedup", "ratio", "higher",
           "median of original-over-compressed forward time, timed interleaved "
           "in one process on the same held-out samples"),
    Metric("flops_ratio", "ratio", "lower",
           "network_flops(compressed) / network_flops(original); exact"),
    Metric("output_rel_err", "ratio", "lower",
           "median ||f(x) - f*(x)|| / ||f(x)|| over held-out samples never used "
           "for calibration; deterministic per seed"),
    Metric("model_mb", "MB", "lower", "size of the written model.bin"),
    Metric("success_rate", "ratio", "higher",
           "1 - failed/attempted; an operation is a compress run or a "
           "correctness check"),
)

_R34D = "on res34-d-truncate"
_VGG = "on vgg16-a-truncate"
_RECON = "on res34-recon"

PER_LAYER = (
    # cli
    Metric("cli.cpu_s", "s", "lower", "user+sys CPU of the compress process",
           f"compress_s when parallelism trades CPU for wall time, {_VGG} and {_RECON}"),
    Metric("cli.overhead_s", "s", "lower",
           "traced compress process wall time minus its stage spans (the calls "
           "run_compress makes): interpreter start, imports, report.json",
           f"compress_s {_R34D}"),
    Metric("cli.warnings", "count", "lower", "warning lines on the compress stderr",
           f"guard; none expected {_R34D}"),
    # modelio
    Metric("modelio.load_s", "s", "lower", "time in load_model",
           f"compress_s and peak_rss_mb {_VGG}; little change {_R34D}"),
    Metric("modelio.save_s", "s", "lower", "time in save_model",
           f"compress_s and peak_rss_mb {_VGG}"),
    Metric("modelio.read_mb", "MB", "lower", "bytes of the input model (json + bin)",
           f"modelio.load_s {_VGG}"),
    Metric("modelio.write_mb", "MB", "lower", "bytes of the written model (json + bin)",
           f"modelio.save_s {_VGG}"),
    Metric("modelio.read_mb_per_s", "MB/s", "higher", "read_mb / load_s",
           f"compress_s {_VGG}"),
    Metric("modelio.write_mb_per_s", "MB/s", "higher", "write_mb / save_s",
           f"compress_s {_VGG}"),
    # schedule
    Metric("schedule.plan_s", "s", "lower",
           "time in plan_from_preset or CompressionPlan.load", "guard; ~1 ms everywhere"),
    Metric("schedule.planned_layers", "count", "higher", "layers in the plan",
           "guard; must not move"),
    Metric("schedule.predict_exact", "count", "higher",
           "1 when predict_flops equals the measured FLOPs of the written model",
           "guard; must stay 1"),
    # decompose
    Metric("decompose.decompose_s", "s", "lower", "time in decompose_network",
           f"compress_s {_R34D} (7,104 tiny SVDs); {_VGG} is LAPACK-bound"),
    Metric("decompose.svd_blocks", "count", "lower", "sum of c_in/n (computed)",
           "guard; fixed by the plan"),
    Metric("decompose.us_per_block", "us", "lower", "decompose_s / svd_blocks",
           f"compress_s {_R34D}; no change predicted {_VGG}"),
    # reconstruct
    Metric("reconstruct.reconstruct_s", "s", "lower", "time in reconstruct_network",
           f"compress_s and peak_rss_mb {_RECON}; bypassed by the truncate workloads"),
    Metric("reconstruct.collect_s", "s", "lower", "time in collect_responses",
           f"compress_s {_RECON} (~97% of reconstruction is repeated forward)"),
    Metric("reconstruct.solve_s", "s", "lower", "time in solve_reconstruction",
           f"compress_s {_RECON}"),
    Metric("reconstruct.forward_passes", "count", "lower",
           "forward calls under reconstruct_network (2 x layers x samples)",
           f"compress_s {_RECON}"),
    Metric("reconstruct.response_mb", "MB", "lower",
           "largest Y plus Y* stack, float64 (computed)", f"peak_rss_mb {_RECON}"),
    Metric("reconstruct.fallbacks", "count", "lower",
           "layers that kept the truncated P (report.json)", f"output_rel_err {_RECON}"),
    Metric("reconstruct.residual_ratio", "ratio", "lower",
           "median residual_after / residual_before (report.json); 1 when "
           "reconstruction is bypassed", f"output_rel_err {_RECON}"),
    # model
    Metric("model.infer_orig_s", "s", "lower", "median forward of the original model",
           f"infer_speedup {_R34D} and {_VGG}"),
    Metric("model.conv_s", "s", "lower",
           "original decomposed convs, each as a one-layer network through forward",
           f"infer_speedup {_R34D}"),
    Metric("model.dp_s", "s", "lower", "model.d_s + model.p_s",
           f"infer_s and infer_speedup {_R34D}; little change {_VGG}"),
    Metric("model.d_s", "s", "lower", "the D (group) convs, one layer at a time",
           f"infer_s {_R34D} (depthwise, c_in groups)"),
    Metric("model.p_s", "s", "lower", "the P (1x1) convs, one layer at a time",
           f"infer_s {_VGG}"),
    Metric("model.dp_ratio_measured", "ratio", "lower", "dp_s / conv_s",
           f"infer_speedup {_R34D}"),
    Metric("model.dp_ratio_predicted", "ratio", "lower",
           "FLOPs(D+P) / FLOPs(conv) over the decomposed layers, exact",
           "guard; fixed by the plan"),
    Metric("model.dp_gap", "ratio", "lower",
           "dp_ratio_measured / dp_ratio_predicted; 1 means FLOPs became time",
           f"infer_s and infer_speedup {_R34D}"),
    Metric("model.worst_pair_gap", "ratio", "lower", "largest per-pair gap",
           f"infer_s {_R34D}"),
    Metric("model.conv_gflops", "GFLOP/s", "higher", "FLOPs / conv_s",
           f"model.infer_orig_s {_VGG}"),
    Metric("model.d_gflops", "GFLOP/s", "higher", "FLOPs / d_s",
           f"infer_s {_R34D}"),
    Metric("model.p_gflops", "GFLOP/s", "higher", "FLOPs / p_s", f"infer_s {_VGG}"),
    Metric("model.nonconv_s", "s", "lower",
           "infer_s minus the summed one-layer times of every compressed conv",
           f"infer_s {_R34D}"),
    # linalg
    Metric("linalg.im2col_mb_orig", "MB", "lower",
           "im2col bytes one original forward materialises (computed)",
           f"explains model.dp_gap {_R34D}"),
    Metric("linalg.im2col_mb_comp", "MB", "lower",
           "im2col bytes one compressed forward materialises (computed)",
           f"explains model.dp_gap {_R34D}"),
    # the tracer itself
    Metric("trace.overhead_s", "s", "lower",
           "traced compress process wall time minus compress_s",
           "keeps the traced numbers honest; no end-to-end effect"),
)
