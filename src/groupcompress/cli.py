"""Command-line front end: inspect, plan, compress, analyze, gen-fixtures.

Exit codes (``_EXIT_CODES``): 0 success, 2 model/format error, 3 plan
error, 4 numerical failure, 1 anything else. What needs no model (counts,
seeds, the ridge, flags that the run will not read, an ``-o``
that cannot be written: a file or a path under one where a directory goes,
a directory where a file goes) is a usage error at parse time, exit 2;
``compress`` reads its calibration set, and checks that it gives each solve
enough rows, before the first SVD.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import linalg
from .decompose import _naming_layer, decompose_network, decomposed_pairs
from .degeneracy import (
    equal_flops_ranks,
    filter_correlation,
    jacobian_energy_curve,
    svd_strategy_matrix,
    write_correlation_csv,
    write_csv,
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
from .model import (
    NetworkSpec, layer_inputs, network_flops, propagate_shapes, read_arrays, stack_taps,
)
from .modelio import load_model, save_model, write_json
from .reconstruct import CalibrationSet, check_rows, reconstruct_network
from .schedule import (
    CompressionPlan, build_plan, list_presets, plan_from_preset, predict_flops,
)

EXIT_OK = 0
EXIT_GENERIC = 1
EXIT_FORMAT = 2
EXIT_PLAN = 3
EXIT_NUMERIC = 4


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return parse


def _ridge(text: str) -> float:
    """An argparse type: a ridge that ``linalg.check_ridge`` accepts."""
    try:
        return linalg.check_ridge(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _output_dir(text: str) -> str:
    """An argparse type: a directory path, which need not exist yet, but
    whose nearest existing ancestor (itself included) is a directory."""
    existing = next(p for p in (Path(text), *Path(text).parents) if os.path.exists(p))
    if not existing.is_dir():
        raise argparse.ArgumentTypeError(f"{existing} exists and is not a directory")
    return text


def _output_file(text: str) -> str:
    """An argparse type: a file path that is not a directory, in a directory
    that ``_output_dir`` accepts."""
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text} is a directory")
    _output_dir(str(Path(text).parent))
    return text


def _one_plan_source(args) -> None:
    """Reject flags that name more than one plan source: a plan file, a
    preset, or a schedule (--degree, --base-n and the flags that shape it)."""
    flags = ("plan", "preset", "degree", "base_n", "stage_cap", "skip_stage", "skip_layer")
    given = [name for name in flags if getattr(args, name, None) is not None]
    if len({name if name in ("plan", "preset") else "schedule" for name in given}) > 1:
        named = ", ".join("--" + name.replace("_", "-") for name in given)
        raise PlanError(f"give one plan source: a plan file, a preset or a schedule; got {named}")


def _resolve_plan(net: NetworkSpec, args) -> CompressionPlan:
    """The plan from the one source given: a plan file (``compress`` only), a
    preset, or a schedule of --degree and --base-n, shaped by --stage-cap,
    --skip-stage and --skip-layer where the subcommand has them."""
    if getattr(args, "plan", None):
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
        stage_cap, skip_stage, skip_layer = (
            getattr(args, name, None) or [] for name in ("stage_cap", "skip_stage", "skip_layer"))
        try:  # build_plan checks the stages and values
            caps = {s: int(n) for s, _, n in (f.partition("=") for f in stage_cap)}
        except ValueError:
            raise PlanError(f"--stage-cap expects STAGE=N, got {stage_cap}") from None
        return build_plan(net, args.degree, args.base_n, caps, skip_stage, skip_layer)
    sources = "--plan, --preset" if "plan" in args else "--preset"
    raise PlanError(f"no plan given: pass {sources}, or both --degree and --base-n")


def _calibration(args, input_shape, default_count=None) -> tuple[CalibrationSet, dict]:
    """The set that --calib names, or else --calib-count samples
    (``default_count`` when not given) from --calib-seed (0 when not given)."""
    count = default_count if args.calib_count is None else args.calib_count
    if args.calib:
        calib = CalibrationSet.from_file(args.calib)
        info = {"source": str(Path(args.calib)), "count": calib.count}
    elif count is None:
        raise PlanError("no calibration data: pass --calib FILE or --calib-count N")
    else:
        info = {"source": "synthetic", "seed": args.calib_seed or 0, "count": count}
        calib = CalibrationSet.synthetic(input_shape, count, seed=info["seed"])
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
    reconstruct = not args.no_reconstruct and bool(plan.layer_ranks)
    calib, calib_info = _calibration(args, net.input_shape, 128) if reconstruct else (None, None)
    if reconstruct:
        check_rows(net, plan.layer_ranks, calib.count, not args.no_intercept)

    compressed, pairs = decompose_network(net, plan.layer_ranks, force_pointwise=args.force_1x1)
    if reconstruct:
        compressed, fits = reconstruct_network(
            net, compressed, calib, ridge=args.ridge, intercept=not args.no_intercept,
            symmetric=args.symmetric_reconstruction,
        )
        for pair, fit in zip(pairs, fits, strict=True):
            pair.fit = fit

    flops_after, per_after = network_flops(compressed)
    layer_rows = [
        {
            "layer": pair.source,
            "n": pair.n,
            "truncation_error": pair.total_truncation_error,
            "block_truncation_errors": pair.block_truncation_errors.tolist(),
            "flops_before": per_before[pair.source],
            "flops_after": per_after[pair.d.id] + per_after[pair.p.id],
            **(asdict(pair.fit) if pair.fit else {}),
        }
        for pair in pairs
    ]

    out_dir = Path(args.output)
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
    plan = _resolve_plan(load_model(args.model), args)
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
    mode = "sigma" if args.energy_sigma else "squared"

    pairs = decomposed_pairs(compressed, original)
    if not pairs:
        raise PlanError(f"{args.compressed}: no decomposed layers to analyze")
    if args.correlation:
        calib, _ = _calibration(args, compressed.input_shape)

    rank_reports = []
    for pair in pairs:
        # Read for this pair alone: the original's weights are not read again.
        src, conv = pair.source, read_arrays(original.layer(pair.source).conv)
        report = equal_flops_ranks(conv.c_in, conv.c_out, conv.k, pair.n)
        rank_reports.append(report)
        w_mat = conv.weight_matrix()
        with _naming_layer(src):
            write_energy_csv(out_dir / f"energy_{src}_original.csv",
                             jacobian_energy_curve(w_mat, mode=mode))
            write_energy_csv(out_dir / f"energy_{src}_group.csv", jacobian_energy_curve(
                pair.d.conv.weight_matrix(), pair.p.conv.weight_matrix(), mode=mode))
            # equal_flops_ranks keeps 1 <= rank_svd <= min(w_mat.shape).
            write_energy_csv(out_dir / f"energy_{src}_svd_baseline.csv", jacobian_energy_curve(
                svd_strategy_matrix(w_mat, report.rank_svd), mode=mode))
    write_rank_report_csv(out_dir / "ranks.csv", rank_reports, [pair.source for pair in pairs])

    if args.correlation:
        summary_rows = _correlation_analysis(
            compressed, pairs, calib, out_dir, pre_activation=args.corr_pre_activation
        )
        if summary_rows:
            write_csv(out_dir / "correlation_summary.csv", list(summary_rows[0]),
                      [list(row.values()) for row in summary_rows])

    print(f"analysis written to {out_dir}")
    return EXIT_OK


def _correlation_analysis(compressed, pairs, calib, out_dir, pre_activation=False):
    """Correlate each group conv's output with the output maps of the
    decomposed pointwise conv that feeds it through activations alone
    (post-activation by default). A pair whose maps differ in output
    positions, as a strided group conv's do, has no aligned rows and is
    skipped. The taps of the pairs kept come from one walk of the network."""
    inputs, shapes = layer_inputs(compressed), propagate_shapes(compressed)
    kinds = {layer.id: layer.kind for layer in compressed.layers}
    pointwise_ids = {pair.p.id for pair in pairs}
    fed = []
    for pair in pairs:
        post_act_id = point_id = inputs[pair.d.id]  # the map the group conv consumes
        while kinds.get(point_id) in ("relu", "channel_affine"):
            point_id = inputs[point_id]
        tap = point_id if pre_activation else post_act_id
        if point_id in pointwise_ids and shapes[tap][1:] == shapes[pair.d.id][1:]:
            fed.append((pair, point_id, tap))
    if not fed:
        return []
    taps = [layer_id for pair, _, tap in fed for layer_id in (tap, pair.d.id)]
    stacked = stack_taps(compressed, calib.samples, taps)
    rows = []
    for pair, point_id, tap in fed:
        report = filter_correlation(stacked[tap], stacked[pair.d.id], block_size=pair.n)
        write_correlation_csv(out_dir / f"correlation_{pair.source}.csv", report)
        rows.append(
            {
                "layer": pair.source,
                "pointwise": point_id,
                "tap": tap,
                "n": pair.n,
                "mean_in_block": report.mean_in_block,
                "mean_out_block": report.mean_out_block,
                "zero_variance_channels": len(report.zero_variance_channels),
            }
        )
    return rows


def cmd_gen_fixtures(args) -> int:
    net = BUILDERS[args.name](args.seed)  # argparse's choices are the builders
    out_dir = Path(args.output)
    path = save_model(net, out_dir / f"{args.name}.json")
    total, _ = network_flops(net)
    print(f"{args.name}: {len(net.layers)} layers, {total:,} flops")
    print(f"written to {path}")
    return EXIT_OK


def _add_schedule_flags(parser) -> None:
    """--preset, or a schedule of --degree and --base-n."""
    parser.add_argument("--preset", choices=list_presets())
    parser.add_argument("--degree", choices=["constant", "half", "quarter"])
    parser.add_argument("--base-n", type=int)


def _add_calib_flags(parser) -> None:
    """--calib, or --calib-count seeded samples. ``_calibration`` sets their
    defaults, so that ``_check_unread_flags`` sees which were given."""
    parser.add_argument("--calib", help="calibration manifest (json)")
    parser.add_argument("--calib-seed", type=_int_at_least(0))
    parser.add_argument("--calib-count", type=_int_at_least(1))


def _check_unread_flags(parser, args) -> None:
    """A flag this run does not read is a usage error: a calibration flag,
    --ridge, --no-intercept or --symmetric-reconstruction with ``compress
    --no-reconstruct``; a calibration flag or --corr-pre-activation with
    ``analyze`` without --correlation; and --calib-count or --calib-seed
    beside --calib."""
    flags = ("--calib", "--calib-count", "--calib-seed", "--corr-pre-activation",
             "--no-intercept", "--ridge", "--symmetric-reconstruction")
    values = (getattr(args, flag[2:].replace("-", "_"), None) for flag in flags)
    given = [flag for flag, value in zip(flags, values) if value is not None and value is not False]
    if args.command == "compress" and args.no_reconstruct:
        unread, why = given, "reads these only when it reconstructs"
    elif args.command == "analyze" and not args.correlation:
        unread, why = given, "reads these only with --correlation"
    else:  # only compress and analyze take these flags
        unread = [flag for flag in given if flag.startswith("--calib-") and "--calib" in given]
        why = "takes its samples from --calib"
    if unread:
        parser.error(f"{', '.join(unread)}: {args.command} {why}")


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
    _add_schedule_flags(p_plan)
    p_plan.add_argument("--stage-cap", action="append", metavar="STAGE=N")
    p_plan.add_argument("--skip-stage", action="append", metavar="STAGE")
    p_plan.add_argument("--skip-layer", action="append", metavar="LAYER")
    p_plan.add_argument("-o", "--output", type=_output_file, required=True)
    p_plan.set_defaults(func=cmd_plan)

    p_comp = sub.add_parser("compress", help="decompose, reconstruct and serialize")
    p_comp.add_argument("model")
    p_comp.add_argument("-o", "--output", type=_output_dir, required=True,
                        help="output directory")
    p_comp.add_argument("--plan")
    _add_schedule_flags(p_comp)
    _add_calib_flags(p_comp)
    p_comp.add_argument("--ridge", type=_ridge, default=None)
    p_comp.add_argument("--no-reconstruct", action="store_true")
    p_comp.add_argument("--no-intercept", action="store_true")
    p_comp.add_argument("--symmetric-reconstruction", action="store_true")
    p_comp.add_argument("--force-1x1", action="store_true")
    p_comp.set_defaults(func=cmd_compress)

    p_an = sub.add_parser("analyze", help="emit energy/rank/correlation CSVs")
    p_an.add_argument("model")
    p_an.add_argument("compressed")
    p_an.add_argument("-o", "--output", type=_output_dir, required=True,
                      help="output directory")
    p_an.add_argument("--correlation", action="store_true")
    _add_calib_flags(p_an)
    p_an.add_argument("--energy-sigma", action="store_true",
                      help="accumulate sigma instead of sigma^2")
    p_an.add_argument("--corr-pre-activation", action="store_true",
                      help="correlate raw pointwise outputs instead of the "
                      "post-activation maps")
    p_an.set_defaults(func=cmd_analyze)

    p_gen = sub.add_parser("gen-fixtures", help="write synthetic models")
    p_gen.add_argument("name", choices=sorted(BUILDERS))
    p_gen.add_argument("-o", "--output", type=_output_dir, required=True,
                       help="output directory")
    p_gen.add_argument("--seed", type=_int_at_least(0), default=0)
    p_gen.set_defaults(func=cmd_gen_fixtures)
    return parser


# The first entry whose types match the exception gives the exit code.
_EXIT_CODES = (
    (ModelFormatError, EXIT_FORMAT),
    ((PlanError, DecompositionError), EXIT_PLAN),
    ((NumericalError, ShapeError), EXIT_NUMERIC),
    (Exception, EXIT_GENERIC),
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_unread_flags(parser, args)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
