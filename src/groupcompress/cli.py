"""Command-line front end: inspect, plan, compress, analyze, gen-fixtures.

Exit codes: 0 success, 2 model/format error, 3 plan error, 4 numerical
failure, 1 anything else.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

from .decompose import decompose_network, decomposed_pairs, group_conv_matrix, is_pair
from .degeneracy import (
    equal_flops_ranks,
    filter_correlation,
    jacobian_energy_curve,
    svd_strategy_matrix,
    write_correlation_csv,
    write_energy_csv,
    write_rank_report_csv,
)
from .errors import (
    DecompositionError,
    ModelFormatError,
    NumericalError,
    PlanError,
    ShapeError,
)
from .fixtures import BUILDERS
from .model import NetworkSpec, layer_inputs, network_flops, propagate_shapes, stack_taps
from .modelio import load_model, save_model, write_json
from .reconstruct import CalibrationSet, reconstruct_network
from .schedule import (
    CompressionPlan, build_plan, list_presets, plan_from_preset, predict_flops,
)

EXIT_OK = 0
EXIT_GENERIC = 1
EXIT_FORMAT = 2
EXIT_PLAN = 3
EXIT_NUMERIC = 4


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _ridge(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _one_plan_source(args) -> None:
    """Reject flags that name more than one plan source: a plan file, a
    preset, or a schedule (--degree, --base-n and the flags that shape it)."""
    flags = ("plan", "preset", "degree", "base_n", "stage_cap", "skip_stage", "skip_layer")
    given = [name for name in flags if getattr(args, name, None) is not None]
    if len({name if name in ("plan", "preset") else "schedule" for name in given}) > 1:
        named = ", ".join("--" + name.replace("_", "-") for name in given)
        raise PlanError(f"give one plan source: a plan file, a preset or a schedule; got {named}")


def _resolve_plan(net: NetworkSpec, args) -> CompressionPlan:
    if args.plan:
        plan = CompressionPlan.load(args.plan)
        # The report echoes the file's prediction: it must be this network's.
        predicted = plan.predicted_flops
        if predicted is not None and predicted != (actual := predict_flops(net, plan)):
            raise PlanError(
                f"plan file predicts {predicted:,} FLOPs, but its layer ranks give "
                f"{actual:,} on this model"
            )
        return plan
    if args.preset is not None:
        return plan_from_preset(net, args.preset)
    if args.degree is not None and args.base_n is not None:
        return build_plan(net, args.degree, args.base_n)
    raise PlanError("no plan given: pass --plan, --preset, or --degree/--base-n")


def _calibration(args, input_shape) -> tuple[CalibrationSet, dict]:
    if args.calib:
        calib = CalibrationSet.from_file(args.calib)
        info = {"source": str(Path(args.calib)), "count": calib.count}
    else:
        calib = CalibrationSet.synthetic(input_shape, args.calib_count, seed=args.calib_seed)
        info = {"source": "synthetic", "seed": args.calib_seed, "count": args.calib_count}
    if calib.sample_shape != tuple(input_shape):
        raise ShapeError(
            f"calibration shape {calib.sample_shape} != model input {tuple(input_shape)}"
        )
    return calib, info


def run_compress(args) -> dict:
    """plan -> decompose -> (optional) reconstruct -> serialize + report.

    ``args`` carries the ``compress`` subcommand's parsed flags.
    """
    _one_plan_source(args)
    net = load_model(args.model)
    plan = _resolve_plan(net, args)
    flops_before, per_before = network_flops(net)

    compressed, decomps = decompose_network(
        net, plan.layer_ranks, force_pointwise=args.force_1x1
    )

    recon_reports = {}
    calib_info = None
    reconstruct = not args.no_reconstruct and bool(plan.layer_ranks)
    if reconstruct:
        calib, calib_info = _calibration(args, net.input_shape)
        compressed, reports = reconstruct_network(
            net,
            compressed,
            calib,
            ridge=args.ridge,
            intercept=not args.no_intercept,
            symmetric=args.symmetric_reconstruction,
        )
        recon_reports = {r.layer_id: r for r in reports}

    flops_after, per_after = network_flops(compressed)
    pairs = {src: (d, p) for src, d, p in decomposed_pairs(compressed)}
    layer_rows = []
    for layer_id, n in plan.layer_ranks.items():
        decomp = decomps[layer_id]
        d_layer, p_layer = pairs[layer_id]
        row = {
            "layer": layer_id,
            "n": n,
            "truncation_error": decomp.total_truncation_error,
            "block_truncation_errors": [
                float(e) for e in decomp.block_truncation_errors
            ],
            "flops_before": per_before[layer_id],
            "flops_after": per_after[d_layer.id] + per_after[p_layer.id],
        }
        recon = recon_reports.get(layer_id)
        if recon is not None:
            row.update(
                residual_before=recon.residual_before,
                residual_after=recon.residual_after,
                ridge=recon.ridge,
                sample_rows=recon.sample_rows,
                identity_fallback=recon.used_identity_fallback,
            )
        layer_rows.append(row)

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = save_model(compressed, out_dir / "model.json")
    report = {
        "model": net.name,
        "plan": plan.to_json(),
        "reconstruction": {
            "enabled": reconstruct,
            "symmetric": args.symmetric_reconstruction,
            "intercept": not args.no_intercept,
            "calibration": calib_info,
        },
        "flops_before": flops_before,
        "flops_after": flops_after,
        "flops_ratio": flops_after / flops_before,
        "layers": layer_rows,
        "output_model": model_path.name,
    }
    write_json(out_dir / "report.json", report)
    return report


def cmd_inspect(args) -> int:
    net = load_model(args.model)
    shapes = propagate_shapes(net)
    total, per_layer = network_flops(net)
    header = f"{'layer':<18}{'kind':<15}{'stage':<10}{'output':<16}{'flops':>14}"
    print(header)
    print("-" * len(header))
    for layer in net.layers:
        shape = "x".join(str(v) for v in shapes[layer.id])
        flops = per_layer.get(layer.id, 0)
        stage = layer.stage or "-"
        flops_text = f"{flops:,}" if flops else "-"
        print(f"{layer.id:<18}{layer.kind:<15}{stage:<10}{shape:<16}{flops_text:>14}")
    print("-" * len(header))
    print(f"{'total':<59}{total:>14,}")
    return EXIT_OK


def cmd_plan(args) -> int:
    _one_plan_source(args)
    net = load_model(args.model)
    if args.preset:
        plan = plan_from_preset(net, args.preset)
    else:
        if not args.degree or args.base_n is None:
            raise PlanError("pass --preset or both --degree and --base-n")
        try:  # build_plan checks the stages and values
            caps = {s: int(n) for s, _, n in (f.partition("=") for f in args.stage_cap or [])}
        except ValueError:
            raise PlanError(f"--stage-cap expects STAGE=N, got {args.stage_cap}") from None
        plan = build_plan(
            net,
            args.degree,
            args.base_n,
            stage_caps=caps,
            skip_stages=args.skip_stage or [],
            skip_layers=args.skip_layer or [],
        )
    plan.save(args.output)
    print(f"plan written to {args.output}")
    print(f"stage ranks: {plan.stage_ns}")
    print(f"predicted flops: {plan.predicted_flops:,}")
    for note in plan.adjustments:
        print(f"note: {note}")
    return EXIT_OK


def cmd_compress(args) -> int:
    report = run_compress(args)
    print(
        f"compressed {report['model']}: "
        f"{report['flops_before']:,} -> {report['flops_after']:,} flops "
        f"(x{report['flops_before'] / max(report['flops_after'], 1):.2f})"
    )
    print(f"outputs in {Path(args.output)}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    original = load_model(args.model)
    compressed = load_model(args.compressed)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    mode = "sigma" if args.energy_sigma else "squared"

    pairs = decomposed_pairs(compressed)
    if not pairs:
        raise PlanError(f"{args.compressed}: no decomposed layers to analyze")
    convs = {layer.id: layer.conv for layer in original.conv_layers()}
    for src, d_layer, p_layer in pairs:
        if src not in convs or not is_pair(convs[src], d_layer.conv, p_layer.conv):
            raise ModelFormatError(
                f"decomposed_from={src!r}: {d_layer.id!r}, {p_layer.id!r} are not the "
                f"(D, P) pair of a conv of that name in {args.model}"
            )
    if args.correlation:
        if not args.calib and args.calib_count is None:
            raise PlanError(
                "correlation analysis needs calibration data: "
                "pass --calib FILE or --calib-count N"
            )
        calib, _ = _calibration(args, compressed.input_shape)

    rank_reports = []
    labels = []
    for src, d_layer, p_layer in pairs:
        conv = convs[src]
        n = d_layer.conv.c_in // d_layer.conv.groups
        report = equal_flops_ranks(conv.c_in, conv.c_out, conv.k, n)
        rank_reports.append(report)
        labels.append(src)

        w_mat = conv.weight_matrix()
        write_energy_csv(
            out_dir / f"energy_{src}_original.csv",
            jacobian_energy_curve(w_mat, mode=mode),
        )
        write_energy_csv(
            out_dir / f"energy_{src}_group.csv",
            jacobian_energy_curve(
                group_conv_matrix(d_layer.conv), p_layer.conv.weight_matrix(),
                mode=mode,
            ),
        )
        if report.rank_svd >= 1:
            write_energy_csv(
                out_dir / f"energy_{src}_svd_baseline.csv",
                jacobian_energy_curve(
                    svd_strategy_matrix(w_mat, report.rank_svd), mode=mode
                ),
            )
    write_rank_report_csv(out_dir / "ranks.csv", rank_reports, labels=labels)

    if args.correlation:
        summary_rows = _correlation_analysis(
            compressed, pairs, calib, out_dir, pre_activation=args.corr_pre_activation
        )
        if summary_rows:
            with open(out_dir / "correlation_summary.csv", "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(summary_rows[0]))
                writer.writeheader()
                writer.writerows(summary_rows)

    print(f"analysis written to {out_dir}")
    return EXIT_OK


def _pointwise_feeding(
    compressed: NetworkSpec, inputs: dict, d_layer, pointwise_ids: set[str]
) -> tuple[str, str] | None:
    """Walk back from a group conv through activations to the decomposed
    pointwise conv (one of ``pointwise_ids``) that feeds it. ``inputs`` is
    ``layer_inputs(compressed)``. Returns (pointwise_id, post_activation_tap_id)
    or None if anything else (another conv, pooling, joins) intervenes."""
    tap_id = in_id = inputs[d_layer.id]  # the map the group conv actually consumes
    while in_id is not None:
        prev = compressed.layer(in_id)
        if prev.kind == "conv":
            return (prev.id, tap_id) if prev.id in pointwise_ids else None
        if prev.kind not in ("relu", "channel_affine"):
            return None
        in_id = inputs[in_id]
    return None


def _correlation_analysis(compressed, pairs, calib, out_dir, pre_activation=False):
    """Correlate each group conv's output with the output maps of the
    pointwise conv feeding it (post-activation by default). Every tap comes
    from one walk of the network."""
    inputs = layer_inputs(compressed)
    pointwise_ids = {p_layer.id for _, _, p_layer in pairs}
    fed = []
    for src, d_layer, _ in pairs:
        found = _pointwise_feeding(compressed, inputs, d_layer, pointwise_ids)
        if found is not None:
            point_id, post_act_id = found
            fed.append((src, d_layer, point_id, point_id if pre_activation else post_act_id))
    if not fed:
        return []
    taps = [layer_id for _, d_layer, _, tap in fed for layer_id in (tap, d_layer.id)]
    stacked = stack_taps(compressed, calib.samples, taps)
    rows = []
    for src, d_layer, point_id, tap_point in fed:
        point, group = stacked[tap_point], stacked[d_layer.id]
        if point.shape[0] != group.shape[0]:
            continue  # strided group conv; rows misalign
        n = d_layer.conv.c_in // d_layer.conv.groups
        report = filter_correlation(point, group, block_size=n)
        write_correlation_csv(out_dir / f"correlation_{src}.csv", report)
        rows.append(
            {
                "layer": src,
                "pointwise": point_id,
                "tap": tap_point,
                "n": n,
                "mean_in_block": report.mean_in_block,
                "mean_out_block": report.mean_out_block,
                "zero_variance_channels": len(report.zero_variance_channels),
            }
        )
    return rows


def cmd_gen_fixtures(args) -> int:
    if args.name not in BUILDERS:
        raise ModelFormatError(
            f"unknown fixture {args.name!r}; available: {sorted(BUILDERS)}"
        )
    net = BUILDERS[args.name](args.seed)
    out_dir = Path(args.output)
    path = save_model(net, out_dir / f"{args.name}.json")
    total, _ = network_flops(net)
    print(f"{args.name}: {len(net.layers)} layers, {total:,} flops")
    print(f"written to {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupcompress",
        description="Decompose CNN convolutions into filter-group + pointwise pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inspect = sub.add_parser("inspect", help="print the layer table and FLOPs")
    p_inspect.add_argument("model")
    p_inspect.set_defaults(func=cmd_inspect)

    p_plan = sub.add_parser("plan", help="build and save a compression plan")
    p_plan.add_argument("model")
    p_plan.add_argument("--preset", choices=list_presets())
    p_plan.add_argument("--degree", choices=["constant", "half", "quarter"])
    p_plan.add_argument("--base-n", type=int)
    p_plan.add_argument("--stage-cap", action="append", metavar="STAGE=N")
    p_plan.add_argument("--skip-stage", action="append", metavar="STAGE")
    p_plan.add_argument("--skip-layer", action="append", metavar="LAYER")
    p_plan.add_argument("-o", "--output", required=True)
    p_plan.set_defaults(func=cmd_plan)

    p_comp = sub.add_parser("compress", help="decompose, reconstruct and serialize")
    p_comp.add_argument("model")
    p_comp.add_argument("-o", "--output", required=True, help="output directory")
    p_comp.add_argument("--plan")
    p_comp.add_argument("--preset", choices=list_presets())
    p_comp.add_argument("--degree", choices=["constant", "half", "quarter"])
    p_comp.add_argument("--base-n", type=int)
    p_comp.add_argument("--calib", help="calibration manifest (json)")
    p_comp.add_argument("--calib-seed", type=int, default=0)
    p_comp.add_argument("--calib-count", type=_positive_int, default=128)
    p_comp.add_argument("--ridge", type=_ridge, default=None)
    p_comp.add_argument("--no-reconstruct", action="store_true")
    p_comp.add_argument("--no-intercept", action="store_true")
    p_comp.add_argument("--symmetric-reconstruction", action="store_true")
    p_comp.add_argument("--force-1x1", action="store_true")
    p_comp.set_defaults(func=cmd_compress)

    p_an = sub.add_parser("analyze", help="emit energy/rank/correlation CSVs")
    p_an.add_argument("model")
    p_an.add_argument("compressed")
    p_an.add_argument("-o", "--output", required=True, help="output directory")
    p_an.add_argument("--correlation", action="store_true")
    p_an.add_argument("--calib")
    p_an.add_argument("--calib-seed", type=int, default=0)
    p_an.add_argument("--calib-count", type=_positive_int, default=None)
    p_an.add_argument("--energy-sigma", action="store_true",
                      help="accumulate sigma instead of sigma^2")
    p_an.add_argument("--corr-pre-activation", action="store_true",
                      help="correlate raw pointwise outputs instead of the "
                      "post-activation maps")
    p_an.set_defaults(func=cmd_analyze)

    p_gen = sub.add_parser("gen-fixtures", help="write synthetic models")
    p_gen.add_argument("name", choices=sorted(BUILDERS))
    p_gen.add_argument("-o", "--output", required=True, help="output directory")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_gen_fixtures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (PlanError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PLAN
    except (NumericalError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:  # pragma: no cover - last resort
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GENERIC


if __name__ == "__main__":
    sys.exit(main())
