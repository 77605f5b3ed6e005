"""Command-line front end: inspect, plan, compress, analyze, gen-fixtures.

Exit codes (``_EXIT_CODES``): 0 success, 2 model/format error, 3 plan
error, 4 numerical failure, 1 anything else. ``_FLAGS`` is the one table
of flags: the subcommands that take each, its default, and when a run
reads it. What needs no model (counts, seeds, the ridge, a flag the run
will not read, an ``-o`` that cannot be written) is a usage error at parse
time, exit 2. ``compress`` reads its calibration set, and checks that it
gives each solve enough rows, before the first SVD.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import linalg, model
from .decompose import _naming_layer, decompose_network, decomposed_pairs
from .degeneracy import (
    ChannelCorrelation,
    CorrelationReport,
    equal_flops_ranks,
    strategy_energy_curves,
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
    NetworkSpec, layer_inputs, network_flops, propagate_shapes, reading, response_rows,
)
from .modelio import load_model, save_model, write_atomically
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


# When a run reads a flag, the ``read`` of its ``_FLAGS`` row: "always";
# "fit", only when the run fits, which is ``compress`` when it reconstructs
# and ``analyze`` with --correlation; "samples", as "fit" but never beside
# --calib, whose file gives the samples; or as one of the plan sources.
_PLAN_SOURCES = ("plan file", "preset", "schedule")
_PLANNING, _FITTING = ("plan", "compress"), ("compress", "analyze")
_STORE_TRUE = {"action": "store_true"}

# One row per flag: its name, the subcommands that take it, its default (a
# dict where it differs by subcommand), when a run reads it, and argparse's
# type or action. ``main`` fills in the default of each flag not given.
_FLAGS = (
    ("--plan", ("compress",), None, "plan file", {}),
    ("--preset", _PLANNING, None, "preset", {"choices": list_presets()}),
    ("--degree", _PLANNING, None, "schedule", {"choices": ["constant", "half", "quarter"]}),
    ("--base-n", _PLANNING, None, "schedule", {"type": _int_at_least(1)}),
    ("--stage-cap", ("plan",), (), "schedule", {"action": "append", "metavar": "STAGE=N"}),
    ("--skip-stage", ("plan",), (), "schedule", {"action": "append", "metavar": "STAGE"}),
    ("--skip-layer", ("plan",), (), "schedule", {"action": "append", "metavar": "LAYER"}),
    ("--calib", _FITTING, None, "fit", {"help": "calibration manifest (json)"}),
    ("--calib-count", _FITTING, {"compress": 128}, "samples", {"type": _int_at_least(1)}),
    ("--calib-seed", _FITTING, 0, "samples", {"type": _int_at_least(0)}),
    ("--ridge", ("compress",), None, "fit", {"type": _ridge}),
    ("--no-reconstruct", ("compress",), False, "always", _STORE_TRUE),
    ("--no-intercept", ("compress",), False, "fit", _STORE_TRUE),
    ("--symmetric-reconstruction", ("compress",), False, "fit", _STORE_TRUE),
    ("--force-1x1", ("compress",), False, "always", _STORE_TRUE),
    ("--correlation", ("analyze",), False, "always", _STORE_TRUE),
    ("--energy-sigma", ("analyze",), False, "always",
     {**_STORE_TRUE, "help": "accumulate sigma instead of sigma^2"}),
    ("--corr-pre-activation", ("analyze",), False, "fit",
     {**_STORE_TRUE, "help": "correlate raw pointwise outputs instead of the "
      "post-activation maps"}),
    ("--seed", ("gen-fixtures",), 0, "always", {"type": _int_at_least(0)}),
)


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _unread_flags(given, fits: bool) -> list[str]:
    """The flags of ``given`` that the run does not read, sorted: each "fit"
    and "samples" flag unless it ``fits``, and each "samples" flag beside --calib."""
    return sorted(flag for flag, _, _, read, _ in _FLAGS if flag in given and (
        (read in ("fit", "samples") and not fits) or (read == "samples" and "--calib" in given)))


def _check_unread_flags(parser, args) -> None:
    """A flag this run does not read is a usage error. Whether ``compress``
    fits also depends on its plan: ``run_compress`` checks that once it has
    read the plan."""
    fits = args.correlation if args.command == "analyze" else not args.no_reconstruct
    if unread := _unread_flags(args.given, fits):
        why = "takes its samples from --calib" if fits else {
            "compress": "reads these only when it reconstructs",
            "analyze": "reads these only with --correlation"}[args.command]
        parser.error(f"{', '.join(unread)}: {args.command} {why}")


def _one_plan_source(args) -> None:
    """Reject flags that name more than one plan source."""
    given = {flag: read for flag, _, _, read, _ in _FLAGS
             if read in _PLAN_SOURCES and flag in args.given}
    if len(set(given.values())) > 1:
        raise PlanError("give one plan source: a plan file, a preset or a schedule; "
                        f"got {', '.join(given)}")


def _resolve_plan(net: NetworkSpec, args) -> CompressionPlan:
    """The plan from the one source given: a plan file, a preset, or a
    schedule of --degree and --base-n, shaped by the schedule's other flags."""
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
        try:  # build_plan checks the stages and values
            caps = {s: int(n) for s, _, n in (f.partition("=") for f in args.stage_cap)}
        except ValueError:
            raise PlanError(f"--stage-cap expects STAGE=N, got {args.stage_cap}") from None
        return build_plan(net, args.degree, args.base_n, caps, args.skip_stage, args.skip_layer)
    sources = ", ".join(flag for flag, commands, _, read, _ in _FLAGS
                        if read in ("plan file", "preset") and args.command in commands)
    raise PlanError(f"no plan given: pass {sources}, or both --degree and --base-n")


def _calibration(args, input_shape) -> tuple[CalibrationSet, dict]:
    """The set that --calib names, or else --calib-count samples from --calib-seed."""
    if args.calib:
        calib = CalibrationSet.from_file(args.calib)
        info = {"source": str(Path(args.calib)), "count": calib.count}
    elif args.calib_count is None:
        raise PlanError("no calibration data: pass --calib FILE or --calib-count N")
    else:
        info = {"source": "synthetic", "seed": args.calib_seed, "count": args.calib_count}
        calib = CalibrationSet.synthetic(input_shape, args.calib_count, seed=args.calib_seed)
    if calib.sample_shape != tuple(input_shape):
        raise ShapeError(
            f"calibration shape {calib.sample_shape} != model input {tuple(input_shape)}"
        )
    return calib, info


def run_compress(args) -> dict:
    """plan -> decompose -> (optional) reconstruct -> serialize + report.

    ``args`` carries the ``compress`` subcommand's parsed flags. The model
    and ``report.json`` are written in one ``modelio.write_json`` call, so
    an interrupted run leaves the old set of files, the new one or none.
    """
    _one_plan_source(args)
    net = load_model(args.model)
    plan = _resolve_plan(net, args)
    if not plan.layer_ranks and (unread := _unread_flags(args.given, fits=False)):
        raise PlanError(f"{', '.join(unread)}: the plan decomposes no layer, so compress "
                        "reads none of these")
    flops_before, per_before = network_flops(net)
    reconstruct = not args.no_reconstruct and bool(plan.layer_ranks)
    calib, calib_info = _calibration(args, net.input_shape) if reconstruct else (None, None)
    if reconstruct:
        # reconstruct_network checks again, and warns of thin layers then.
        check_rows(net, plan.layer_ranks, calib.count, not args.no_intercept, warn=False)

    compressed, pairs = decompose_network(net, plan.layer_ranks, force_pointwise=args.force_1x1)
    if reconstruct:
        compressed, fits = reconstruct_network(
            net, compressed, calib, ridge=args.ridge, intercept=not args.no_intercept,
            symmetric=args.symmetric_reconstruction,
        )
        for pair, fit in zip(pairs, fits, strict=True):
            pair.fit = fit

    flops_after, per_after = network_flops(compressed)
    out_dir = Path(args.output)
    model_path = out_dir / "model.json"
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
        "layers": [],
        "output_model": model_path.name,
    }

    def with_layer_rows() -> dict:
        # Written after the blob, whose write factors each pair that
        # reconstruction has not: only then are its truncation errors known.
        report["layers"] = [
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
        return report

    save_model(compressed, model_path, then=[(out_dir / "report.json", with_layer_rows)])
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
    """Write the run's CSVs in one ``modelio.write_atomically`` call, every
    path known before the first write: an interrupted run leaves none of
    the set in ``-o``, and files there that it does not write as they were."""
    original = load_model(args.model)
    compressed = load_model(args.compressed)
    out_dir = Path(args.output)
    mode = "sigma" if args.energy_sigma else "squared"

    pairs = decomposed_pairs(compressed, original)
    if not pairs:
        raise PlanError(f"{args.compressed}: no decomposed layers to analyze")
    fed, calib = [], None
    if args.correlation:
        calib, _ = _calibration(args, compressed.input_shape)
        fed = _aligned_taps(compressed, pairs, pre_activation=args.corr_pre_activation)
        if not fed:
            print("note: no correlation_*.csv written: no decomposed pair's group conv reads a "
                  "decomposed pointwise conv's maps at its own output positions", file=sys.stderr)
    names = [f"energy_{pair.source}_{curve}" for pair in pairs
             for curve in ("original", "group", "svd_baseline")]
    names += ["ranks", *(f"correlation_{pair.source}" for pair, _, _ in fed)]
    names += ["correlation_summary"] if fed else []
    out_dir.mkdir(parents=True, exist_ok=True)
    with write_atomically(*(out_dir / f"{name}.csv" for name in names)) as temps:
        files, rank_reports = iter(temps), []
        for pair in pairs:
            conv = original.layer(pair.source).conv
            report = equal_flops_ranks(conv.c_in, conv.c_out, conv.k, pair.n)
            rank_reports.append(report)
            # Read for this pair alone and freed: only the --correlation walk
            # reads D and P again.
            convs = [conv, pair.d.conv, pair.p.conv]
            with _naming_layer(pair.source), reading(convs):
                # equal_flops_ranks keeps 1 <= rank_svd <= min(W's shape).
                for curve in strategy_energy_curves(
                        *(c.weight_matrix() for c in convs), report.rank_svd, mode):
                    write_energy_csv(next(files), curve)
        write_rank_report_csv(next(files), rank_reports, [pair.source for pair in pairs])
        summary = []
        for (pair, point_id, tap), report in zip(fed, _correlations(compressed, fed, calib)):
            write_correlation_csv(next(files), report)
            summary.append([pair.source, point_id, tap, pair.n, report.mean_in_block,
                            report.mean_out_block, len(report.zero_variance_channels)])
        if summary:
            write_csv(next(files), ["layer", "pointwise", "tap", "n", "mean_in_block",
                                    "mean_out_block", "zero_variance_channels"], summary)

    print(f"analysis written to {out_dir}")
    return EXIT_OK


def _aligned_taps(compressed, pairs, pre_activation=False):
    """(pair, pointwise id, tap) for each pair whose group conv reads the
    output maps of a decomposed pointwise conv through activations alone,
    the tap being those maps (post-activation, the default) or the
    pointwise conv's output. A pair whose maps differ in output positions,
    as a strided group conv's do, has no aligned rows and is skipped."""
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
    return fed


def _correlations(compressed, fed, calib) -> list[CorrelationReport]:
    """Each ``_aligned_taps`` entry's correlations, group output against
    tap: one walk of ``compressed`` per chunk of ``calib`` adds each
    sample's ``response_rows``, in sample order, to the pair's
    ``ChannelCorrelation``, so no bit depends on the chunk size. A chunk's
    tapped map is held until the last pair that reads it (``last``: pairs
    come in network order) has added it."""
    position = {layer.id: i for i, layer in enumerate(compressed.layers)}
    last = {layer_id: position[pair.d.id] for pair, _, tap in fed for layer_id in (tap, pair.d.id)}
    stats = [ChannelCorrelation() for _ in fed]
    for chunk in calib.chunks() if fed else ():
        walk, held = model._Walk(compressed, chunk), {}
        for layer_id in sorted(last, key=position.get):
            held[layer_id] = walk.to(layer_id)[1]
            for stat, (pair, _, tap) in zip(stats, fed):
                for i in range(len(chunk)) if pair.d.id == layer_id else ():
                    stat.add(response_rows(held[layer_id][i : i + 1]),
                             response_rows(held[tap][i : i + 1]))
            held = {key: out for key, out in held.items() if last[key] > position[layer_id]}
    return [stat.report(pair.n) for stat, (pair, _, _) in zip(stats, fed)]


def cmd_gen_fixtures(args) -> int:
    net = BUILDERS[args.name](args.seed)  # argparse's choices are the builders
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
    p_plan.add_argument("-o", "--output", type=_output_file, required=True)
    p_plan.set_defaults(func=cmd_plan)

    p_comp = sub.add_parser("compress", help="decompose, reconstruct and serialize")
    p_comp.add_argument("model")
    p_comp.add_argument("-o", "--output", type=_output_dir, required=True,
                        help="output directory")
    p_comp.set_defaults(func=cmd_compress)

    p_an = sub.add_parser("analyze", help="emit energy/rank/correlation CSVs")
    p_an.add_argument("model")
    p_an.add_argument("compressed")
    p_an.add_argument("-o", "--output", type=_output_dir, required=True,
                      help="output directory")
    p_an.set_defaults(func=cmd_analyze)

    p_gen = sub.add_parser("gen-fixtures", help="write synthetic models")
    p_gen.add_argument("name", choices=sorted(BUILDERS))
    p_gen.add_argument("-o", "--output", type=_output_dir, required=True,
                       help="output directory")
    p_gen.set_defaults(func=cmd_gen_fixtures)

    # A flag not given stays out of ``args``, so that ``main`` sees which were.
    for flag, commands, _, _, kwargs in _FLAGS:
        for command in commands:
            sub.choices[command].add_argument(flag, default=argparse.SUPPRESS, **kwargs)
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
    # The table flags given; then each flag not given takes its default.
    args.given = {flag for flag, *_ in _FLAGS if _dest(flag) in vars(args)}
    for flag, _, default, _, _ in _FLAGS:
        vars(args).setdefault(_dest(flag), default.get(args.command)
                              if isinstance(default, dict) else default)
    _check_unread_flags(parser, args)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
