import csv
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from groupcompress import cli, decompose, degeneracy, linalg, model, modelio
from groupcompress.cli import (
    EXIT_FORMAT,
    EXIT_GENERIC,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PLAN,
    main,
)
from groupcompress.fixtures import build_toy_cnn, build_toy_three
from groupcompress.degeneracy import ChannelCorrelation, write_correlation_csv
from groupcompress.errors import CalibrationWarning, NumericalError
from groupcompress.model import (
    ConvWeights, FcParams, LayerSpec, NetworkSpec, forward, propagate_shapes, response_rows,
)
from groupcompress.modelio import load_model, save_model
from groupcompress.reconstruct import CalibrationSet
from groupcompress.schedule import CompressionPlan, build_plan

from nets import on_conv_forward, pool_fc_net, residual_net, toy_net
from oracles import filter_correlation, read_arrays, stack_taps


def non_finite_calibration(samples, path):
    """A calibration file of ``samples``, which hold a non-finite value that
    ``save_calibration`` refuses: a finite set of their shape is saved and
    its blob overwritten with them."""
    path = modelio.save_calibration(np.zeros_like(samples), path)
    path.with_suffix(".bin").write_bytes(samples.astype("<f4").tobytes())
    return path


def nan_weight_model(net, layer_id, path):
    """``net`` saved at ``path`` with a NaN as the first weight of
    ``layer_id``, which ``save_model`` refuses: the finite model is saved
    and the NaN written into its blob."""
    path = save_model(net, path)
    layer = next(obj for obj in json.loads(path.read_text())["layers"] if obj["id"] == layer_id)
    with open(path.with_suffix(".bin"), "r+b") as fh:
        fh.seek(layer["weights"]["offset"])
        fh.write(np.array([np.nan], "<f4").tobytes())
    return path


@pytest.fixture
def toy3_path(tmp_path):
    return save_model(build_toy_three(seed=0), tmp_path / "toy3.json")


@pytest.fixture
def toy4_path(tmp_path):
    return save_model(build_toy_cnn(seed=0), tmp_path / "toy4.json")


class TestInspect:
    def test_prints_table_and_total(self, toy3_path, capsys):
        assert main(["inspect", str(toy3_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "c1" in out and "total" in out
        assert "84,240" in out

    def test_missing_model_is_format_error(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "none.json")]) == EXIT_FORMAT
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage",
        [
            lambda path: path.unlink() or path.mkdir(),
            lambda path: path.write_bytes(path.read_bytes().replace(b'"toy3"', b'"toy\xff"')),
            lambda path: path.write_text("[" * 100_000),
        ],
        ids=["directory", "non-utf8", "nested-too-deep"],
    )
    def test_unreadable_manifest_is_format_error(self, toy3_path, capsys, damage):
        damage(toy3_path)
        assert main(["inspect", str(toy3_path)]) == EXIT_FORMAT
        assert "manifest is not readable JSON" in capsys.readouterr().err

    def test_single_conv_model(self, tmp_path, capsys):
        from groupcompress.model import ConvWeights, LayerSpec, NetworkSpec

        rng = np.random.default_rng(0)
        net = NetworkSpec(
            "one",
            (2, 5, 5),
            [
                LayerSpec(
                    id="only",
                    kind="conv",
                    conv=ConvWeights(
                        2, 3, 3, pad=1, weights=rng.standard_normal((3, 2, 3, 3))
                    ),
                )
            ],
        )
        path = save_model(net, tmp_path / "one.json")
        assert main(["inspect", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"{2 * 2 * 9 * 3 * 25:,}" in out  # 2*(c_in/g)*k^2*c_out*h*w

    def test_empty_layer_list_is_format_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "input_shape": [1, 2, 2],
                    "blob": "empty.bin",
                    "layers": [],
                }
            )
        )
        (tmp_path / "empty.bin").write_bytes(b"")
        assert main(["inspect", str(path)]) == EXIT_FORMAT
        assert "no layers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda m: m["layers"][0].update(stride=0),
            lambda m: m["layers"][0].update(c_in="abc"),
            lambda m: m.update(input_shape="abc"),
            lambda m: m["layers"].__setitem__(1, 7),
            lambda m: m["layers"][0].update(pad=-1),
            lambda m: m.update(blob=7),
            lambda m: m["layers"][0].update(c_in=float("inf")),
            lambda m: m.update(input_shape=[3, float("inf"), 6]),
            lambda m: m["layers"][1].update(input=["c1"]),
            lambda m: m.update(blob=""),
            lambda m: m["layers"][0].update(stride=1.9),
            lambda m: m.update(input_shape=[3.9, 6, 6]),
            lambda m: m["layers"][0].update(groups=True),
            lambda m: m["layers"][0]["weights"].update(offset=0.0),
            lambda m: m["layers"][0].update(rank_n=1.5),
            lambda m: m["layers"][0].update(decomposed_from=["c1"]),
            lambda m: m["layers"].__setitem__(
                1, {"id": "r1", "kind": "maxpool", "k": 2, "stride": 1, "pad": 2}
            ),
            lambda m: m["layers"][0]["weights"].update(offset=2),
            lambda m: m["layers"][0].update(weights=None),
        ],
        ids=[
            "stride-0", "c_in-abc", "input_shape-abc", "layer-not-object", "pad-negative",
            "blob-not-name", "c_in-inf", "input_shape-inf", "input-list", "blob-directory",
            "stride-float", "input_shape-float", "groups-bool", "offset-float",
            "rank_n-float", "decomposed_from-list", "pool-pad-not-below-k",
            "offset-misaligned", "weights-null",
        ],
    )
    def test_malformed_manifest_value_is_format_error(self, toy3_path, mutate, capsys):
        manifest = json.loads(toy3_path.read_text())
        mutate(manifest)
        toy3_path.write_text(json.dumps(manifest))
        assert main(["inspect", str(toy3_path)]) == EXIT_FORMAT
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate, message", [
        (lambda m: m["layers"][1].update(id="c1"), "duplicate layer id 'c1'"),
        (lambda m: m["layers"][0].update(input="c3"), "layer c1: input 'c3' not defined earlier"),
    ], ids=["duplicate-id", "input-not-earlier"])
    def test_layer_order_error_is_format_error_naming_it(self, toy3_path, mutate, message,
                                                         capsys):
        manifest = json.loads(toy3_path.read_text())
        mutate(manifest)
        toy3_path.write_text(json.dumps(manifest))
        assert main(["inspect", str(toy3_path)]) == EXIT_FORMAT
        assert message in capsys.readouterr().err


class TestPlan:
    def test_preset_plan_roundtrip(self, toy3_path, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        code = main(
            [
                "plan",
                str(toy3_path),
                "--degree",
                "constant",
                "--base-n",
                "2",
                "-o",
                str(plan_path),
            ]
        )
        assert code == EXIT_OK
        plan = json.loads(plan_path.read_text())
        assert plan["layer_ranks"] == {"c1": 1, "c2": 2, "c3": 2}

    def test_missing_plan_args_is_plan_error(self, toy3_path, tmp_path, capsys):
        code = main(["plan", str(toy3_path), "-o", str(tmp_path / "p.json")])
        assert code == EXIT_PLAN

    @pytest.mark.parametrize(
        "command, flags, sources",
        [("plan", [], "--preset"), ("plan", ["--degree", "half"], "--preset"),
         ("compress", [], "--plan, --preset"), ("compress", ["--base-n", "2"], "--plan, --preset")],
        ids=["plan", "plan-degree-only", "compress", "compress-base-n-only"],
    )
    def test_no_plan_source_names_the_subcommands_sources(
        self, toy3_path, tmp_path, capsys, command, flags, sources
    ):
        """``plan`` and ``compress`` resolve a plan through one function; its
        message names only flags the subcommand has."""
        out = tmp_path / "out"
        assert main([command, str(toy3_path), "-o", str(out), *flags]) == EXIT_PLAN
        err = capsys.readouterr().err
        assert f"no plan given: pass {sources}, or both --degree and --base-n" in err
        assert not out.exists()

    def test_stage_caps_flag(self, toy4_path, tmp_path):
        plan_path = tmp_path / "plan.json"
        code = main(
            [
                "plan",
                str(toy4_path),
                "--degree",
                "quarter",
                "--base-n",
                "1",
                "--stage-cap",
                "s4=2",
                "-o",
                str(plan_path),
            ]
        )
        assert code == EXIT_OK
        plan = json.loads(plan_path.read_text())
        assert plan["stage_ns"] == {"s8": 1, "s4": 2}

    @pytest.mark.parametrize(
        "cap, named",
        [("foo", "--stage-cap"), ("s6=x", "--stage-cap"), ("s6=0", "s6"),
         ("nosuch=2", "'nosuch'")],
    )
    def test_bad_stage_cap_is_plan_error(self, toy3_path, tmp_path, capsys, cap, named):
        plan_path = tmp_path / "plan.json"
        code = main(["plan", str(toy3_path), "--degree", "constant", "--base-n", "1",
                     "--stage-cap", cap, "-o", str(plan_path)])
        assert code == EXIT_PLAN
        assert named in capsys.readouterr().err
        assert not plan_path.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [(["--degree", "constant", "--base-n", "1"], "--preset, --degree, --base-n"),
         (["--stage-cap", "s6=1"], "--preset, --stage-cap"),
         (["--skip-stage", "s6"], "--preset, --skip-stage"),
         (["--skip-layer", "c1"], "--preset, --skip-layer")],
        ids=["degree-base-n", "stage-cap", "skip-stage", "skip-layer"],
    )
    def test_schedule_flags_beside_a_preset_are_plan_error(
        self, toy3_path, tmp_path, capsys, flags, named
    ):
        plan_path = tmp_path / "plan.json"
        code = main(["plan", str(toy3_path), "--preset", "vgg16_a", *flags,
                     "-o", str(plan_path)])
        assert code == EXIT_PLAN
        assert f"one plan source: a plan file, a preset or a schedule; got {named}" in (
            capsys.readouterr().err
        )
        assert not plan_path.exists()

    def test_unknown_skip_layer_is_plan_error(self, toy3_path, tmp_path, capsys):
        plan_path = tmp_path / "p.json"
        code = main(["plan", str(toy3_path), "--degree", "constant", "--base-n", "1",
                     "--skip-layer", "nosuch", "-o", str(plan_path)])
        assert code == EXIT_PLAN
        assert "'nosuch'" in capsys.readouterr().err
        assert not plan_path.exists()


def test_inspect_and_plan_read_no_tensor(toy4_path, tmp_path, capsys, monkeypatch):
    """Both need shapes alone: with every blob read failing, they print the
    same lines and write the same plan file."""
    commands = [["inspect", str(toy4_path)],
                ["plan", str(toy4_path), "--degree", "half", "--base-n", "1", "-o"]]
    outputs = []
    for fail in (False, True):
        if fail:
            def no_read(tensor):
                raise AssertionError(f"{tensor.field} was read")
            monkeypatch.setattr(modelio._BlobTensor, "slices", no_read)
        plan_path = tmp_path / f"plan-{fail}.json"
        for argv in commands:
            assert main(argv + [str(plan_path)] * (argv[0] == "plan")) == EXIT_OK
        printed = capsys.readouterr().out.replace(str(plan_path), "PLAN")
        outputs.append((printed, plan_path.read_bytes()))
    assert outputs[0] == outputs[1]


def _with_blob(floats, **fields):
    """A calibration-manifest edit that sets ``fields`` and writes a blob of
    ``floats`` float32 zeros: the size the edited fields imply."""

    def mutate(manifest, directory):
        manifest.update(fields)
        (directory / manifest["blob"]).write_bytes(bytes(4 * floats))

    return mutate


class TestCompress:
    def test_lossless_at_full_rank(self, toy4_path, tmp_path):
        out_dir = tmp_path / "out"
        code = main(
            [
                "compress",
                str(toy4_path),
                "-o",
                str(out_dir),
                "--degree",
                "constant",
                "--base-n",
                "4",
                "--no-reconstruct",
            ]
        )
        assert code == EXIT_OK
        original = load_model(toy4_path)
        compressed = load_model(out_dir / "model.json")
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal((4, 8, 8))
            a = forward(original, x)
            b = forward(compressed, x)
            # The decomposition itself is exact at n = c_in; the residual
            # here is float32 storage quantization of D and P on disk.
            assert np.linalg.norm(a - b) <= 1e-5 * max(np.linalg.norm(a), 1e-30)

    def test_determinism_byte_identical(self, toy3_path, tmp_path):
        outs = []
        for name in ("run1", "run2"):
            out_dir = tmp_path / name
            code = main(
                [
                    "compress",
                    str(toy3_path),
                    "-o",
                    str(out_dir),
                    "--degree",
                    "constant",
                    "--base-n",
                    "1",
                    "--calib-seed",
                    "7",
                    "--calib-count",
                    "48",
                ]
            )
            assert code == EXIT_OK
            outs.append(out_dir)
        for name in ("model.json", "model.bin", "report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_reconstruction_reduces_residual(self, toy3_path, tmp_path):
        reports = {}
        for flag, name in ((True, "with"), (False, "without")):
            out_dir = tmp_path / name
            argv = [
                "compress",
                str(toy3_path),
                "-o",
                str(out_dir),
                "--degree",
                "constant",
                "--base-n",
                "1",
            ]
            argv += ["--calib-count", "64"] if flag else ["--no-reconstruct"]
            assert main(argv) == EXIT_OK
            reports[name] = json.loads((out_dir / "report.json").read_text())

        # Same truncation either way; reconstruction must not hurt the fit.
        with_recon = reports["with"]["layers"]
        assert all(
            l["residual_after"] <= l["residual_before"] + 1e-12 for l in with_recon
        )
        assert "residual_after" not in reports["without"]["layers"][0]

        original = load_model(toy3_path)
        calib_samples = np.random.default_rng(0).standard_normal((64, 3, 6, 6))

        def calib_error(out_name):
            net = load_model(tmp_path / out_name / "model.json")
            err = 0.0
            for x in calib_samples:
                err += np.sum((forward(original, x) - forward(net, x)) ** 2)
            return err

        assert calib_error("with") <= calib_error("without")

    ROW_KEYS = ["layer", "n", "truncation_error", "block_truncation_errors", "flops_before",
                "flops_after"]
    FIT_KEYS = ["residual_before", "residual_after", "ridge", "sample_rows", "identity_fallback"]

    @pytest.mark.parametrize("reconstruct", [True, False], ids=["reconstruct", "truncate"])
    def test_report_rows_keys_and_network_order(self, toy3_path, tmp_path, reconstruct):
        """Each layer row has exactly these keys, in this order. Rows follow
        network order, also for a plan file that lists the convs in reverse,
        which writes the model bytes of the plan in order."""
        plan_path = tmp_path / "plan.json"
        assert main(["plan", str(toy3_path), "--degree", "constant", "--base-n", "1",
                     "-o", str(plan_path)]) == EXIT_OK
        plan = json.loads(plan_path.read_text())
        reversed_path = tmp_path / "reversed.json"
        reversed_path.write_text(json.dumps(
            {**plan, "layer_ranks": dict(reversed(plan["layer_ranks"].items()))}))
        mode = ["--calib-count", "48"] if reconstruct else ["--no-reconstruct"]
        outs = {name: tmp_path / name for name in ("in-order", "reversed")}
        for name, path in (("in-order", plan_path), ("reversed", reversed_path)):
            assert main(["compress", str(toy3_path), "--plan", str(path), *mode,
                         "-o", str(outs[name])]) == EXIT_OK
        keys = self.ROW_KEYS + (self.FIT_KEYS if reconstruct else [])
        for name, out in outs.items():
            report = json.loads((out / "report.json").read_text())
            ranks = ["c1", "c2", "c3"] if name == "in-order" else ["c3", "c2", "c1"]
            assert list(report["plan"]["layer_ranks"]) == ranks
            assert [row["layer"] for row in report["layers"]] == ["c1", "c2", "c3"]
            for row in report["layers"]:
                assert list(row) == keys
                assert type(row["n"]) is int
                if reconstruct:
                    assert type(row["sample_rows"]) is int
                    assert type(row["identity_fallback"]) is bool
        for file_name in ("model.json", "model.bin"):
            assert (outs["in-order"] / file_name).read_bytes() == (
                outs["reversed"] / file_name).read_bytes()

    def test_unflagged_calibration_is_128_samples_from_seed_0(self, toy3_path, tmp_path):
        outs = {name: tmp_path / name for name in ("unflagged", "flagged")}
        for name, flags in (("unflagged", []), ("flagged", ["--calib-count", "128",
                                                           "--calib-seed", "0"])):
            assert main(["compress", str(toy3_path), "--degree", "constant", "--base-n", "1",
                         *flags, "-o", str(outs[name])]) == EXIT_OK
        report = json.loads((outs["unflagged"] / "report.json").read_text())
        assert report["reconstruction"]["calibration"] == {
            "source": "synthetic", "seed": 0, "count": 128}
        for file_name in ("model.json", "model.bin", "report.json"):
            assert (outs["unflagged"] / file_name).read_bytes() == (
                outs["flagged"] / file_name).read_bytes()

    def test_unflagged_reconstruction_settings_in_report(self, toy3_path, tmp_path):
        out = tmp_path / "o"
        assert main(["compress", str(toy3_path), "--degree", "constant", "--base-n", "1",
                     "--calib-count", "8", "-o", str(out)]) == EXIT_OK
        assert json.loads((out / "report.json").read_text())["reconstruction"] == {
            "enabled": True, "symmetric": False, "intercept": True,
            "calibration": {"source": "synthetic", "seed": 0, "count": 8}}

    def test_report_content(self, toy3_path, tmp_path):
        out_dir = tmp_path / "out"
        main(
            [
                "compress",
                str(toy3_path),
                "-o",
                str(out_dir),
                "--degree",
                "half",
                "--base-n",
                "1",
                "--calib-count",
                "48",
            ]
        )
        report = json.loads((out_dir / "report.json").read_text())
        assert report["flops_after"] < report["flops_before"]
        for row in report["layers"]:
            assert row["flops_after"] < row["flops_before"]
            assert row["truncation_error"] >= 0.0
            assert row["ridge"] > 0.0
        assert report["reconstruction"]["calibration"]["source"] == "synthetic"

    def test_id_collision_is_plan_error_before_any_svd(self, tmp_path, capsys, monkeypatch):
        # A relu named like the pointwise layer that decomposing c1 would add.
        net = build_toy_three(seed=0)
        layers = [replace(l, id="c1.p") if l.id == "r1" else l for l in net.layers]
        path = save_model(NetworkSpec(net.name, net.input_shape, layers), tmp_path / "m.json")

        def no_svd(stack, n, d, p):
            raise AssertionError("SVD ran before the id check")

        monkeypatch.setattr("groupcompress.linalg._leading_factors", no_svd)
        code = main(
            ["compress", str(path), "-o", str(tmp_path / "o"), "--degree", "constant",
             "--base-n", "1", "--no-reconstruct"]
        )
        assert code == EXIT_PLAN
        err = capsys.readouterr().err
        assert "layer c1:" in err and "'c1.p'" in err

    def test_non_finite_weight_is_numeric_error_naming_layer(self, tmp_path, capsys):
        path = nan_weight_model(build_toy_three(seed=0), "c1", tmp_path / "m.json")
        out_dir = tmp_path / "o"
        code = main(
            ["compress", str(path), "-o", str(out_dir), "--degree", "constant",
             "--base-n", "1", "--no-reconstruct"]
        )
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "layer c1:" in err and "non-finite" in err
        assert not (out_dir / "model.bin").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--ridge", "0.5"],
         ["--ridge", "0.5", "--no-intercept", "--symmetric-reconstruction", "--calib-count", "3"]],
        ids=["ridge", "ridge-no-intercept-symmetric-count"])
    def test_plan_of_no_layer_reads_no_reconstruction_flag(self, toy3_path, tmp_path, capsys,
                                                            monkeypatch, flags):
        plan, out_dir = tmp_path / "plan.json", tmp_path / "o"
        assert main(["plan", str(toy3_path), "-o", str(plan), "--degree", "constant",
                     "--base-n", "1", "--skip-layer", "c1", "--skip-layer", "c2",
                     "--skip-layer", "c3"]) == EXIT_OK
        argv = ["compress", str(toy3_path), "-o", str(out_dir), "--plan", str(plan)]
        with monkeypatch.context() as refuse:
            def no_read(*args, **kwargs):
                raise AssertionError("a sample was drawn or a tensor read")
            refuse.setattr(modelio._BlobTensor, "slices", no_read)
            refuse.setattr(CalibrationSet, "synthetic", no_read)
            capsys.readouterr()
            assert main([*argv, *flags]) == EXIT_PLAN
        given = ", ".join(sorted(flag for flag in flags if flag.startswith("--")))
        assert f"{given}: the plan decomposes no layer" in capsys.readouterr().err
        assert not out_dir.exists()
        assert main(argv) == EXIT_OK

    def test_non_finite_weight_copied_unread_is_numeric_error(self, tmp_path, capsys):
        # c3 is not planned, so its weights go from blob to blob unread: they
        # are checked as they are copied, after the old files went.
        path = nan_weight_model(build_toy_three(seed=0), "c3", tmp_path / "m.json")
        plan, out_dir = tmp_path / "plan.json", tmp_path / "o"
        assert main(["plan", str(path), "-o", str(plan), "--degree", "constant", "--base-n", "1",
                     "--skip-layer", "c3"]) == EXIT_OK
        code = main(["compress", str(path), "-o", str(out_dir), "--plan", str(plan),
                     "--no-reconstruct"])
        assert code == EXIT_NUMERIC
        assert "layer c3 weights:" in capsys.readouterr().err
        assert not (out_dir / "model.bin").exists() and not (out_dir / "model.json").exists()

    def test_pair_beyond_float32_is_numeric_error_leaving_earlier_outputs(
        self, toy3_path, tmp_path, capsys
    ):
        # All-finite float32 weights of +-3e38 give c2's D layer singular
        # values that float32 cannot hold.
        out_dir = tmp_path / "o"
        argv = ["--degree", "constant", "--base-n", "2", "--no-reconstruct", "-o", str(out_dir)]
        assert main(["compress", str(toy3_path), *argv]) == EXIT_OK
        earlier = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert sorted(earlier) == ["model.bin", "model.json", "report.json"]
        net = build_toy_three(seed=0)
        weights = net.layer("c2").conv.weights
        weights[...] = np.where(weights < 0, -3e38, 3e38)
        path = save_model(net, tmp_path / "huge.json")
        capsys.readouterr()
        assert main(["compress", str(path), *argv]) == EXIT_NUMERIC
        assert "layer c2.d weights:" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == earlier

    def test_non_finite_last_layer_fails_before_any_svd(self, tmp_path, capsys, monkeypatch):
        path = nan_weight_model(build_toy_three(seed=0), "c3", tmp_path / "m.json")

        def no_svd(stack, n, d, p):
            raise AssertionError("SVD ran before the weights were checked")

        monkeypatch.setattr("groupcompress.linalg._leading_factors", no_svd)
        out_dir = tmp_path / "o"
        code = main(
            ["compress", str(path), "-o", str(out_dir), "--degree", "constant",
             "--base-n", "1", "--no-reconstruct"]
        )
        assert code == EXIT_NUMERIC
        assert "layer c3: a contains non-finite entries" in capsys.readouterr().err
        assert not (out_dir / "model.bin").exists()

    def test_first_failing_layer_in_network_order_is_named(self, tmp_path, capsys):
        # Every c1 weight 3e38 gives its D values of 7.35e38, beyond float32,
        # and c3's blob holds a NaN. Each layer is checked, D included,
        # before the next one, so c1 is the layer named.
        net = build_toy_three(seed=0)
        weights = net.layer("c1").conv.weights
        weights[...] = np.full(weights.shape, 3e38)
        path = nan_weight_model(net, "c3", tmp_path / "m.json")
        code = main(["compress", str(path), "-o", str(tmp_path / "o"), "--degree", "constant",
                     "--base-n", "1", "--no-reconstruct"])
        assert code == EXIT_NUMERIC
        assert "layer c1.d weights:" in capsys.readouterr().err

    def test_failing_part_names_layer_and_leaves_no_worker_running(
        self, toy3_path, tmp_path, capsys, monkeypatch
    ):
        # c2 is cut into three parts of its six blocks. The part holding
        # its last block fails at once while the others are still running.
        stack = decompose.partition_blocks(load_model(toy3_path).layer("c2").conv, 1)
        factors = linalg._leading_factors
        finished = []

        def failing_factors(a, n, d, p):
            if a.shape[1:] == stack.shape[1:] and np.array_equal(a[-1], stack[-1]):
                raise NumericalError("SVD did not converge")
            time.sleep(0.2)
            result = factors(a, n, d, p)
            finished.append(a.shape)
            return result

        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(linalg, "_leading_factors", failing_factors)
        threads_before = set(threading.enumerate())
        out_dir = tmp_path / "o"
        code = main(
            ["compress", str(toy3_path), "-o", str(out_dir), "--degree", "constant",
             "--base-n", "1", "--no-reconstruct"]
        )
        assert code == EXIT_NUMERIC
        assert "layer c2: SVD did not converge" in capsys.readouterr().err
        assert not (out_dir / "model.bin").exists()
        # c1's three parts and c2's two others ran to the end; c3 never started.
        assert finished.count((1, 9, 6)) == 3 and finished.count((2, 9, 8)) == 2
        assert len(finished) == 5
        assert set(threading.enumerate()) == threads_before

    def test_factoring_failure_in_the_save_leaves_no_set(
        self, toy3_path, tmp_path, capsys, monkeypatch
    ):
        """A pair is factored as the blob is written, after the old files at
        -o were removed: a LAPACK failure there exits 4 and leaves none of
        the set."""
        out_dir = tmp_path / "o"
        argv = ["compress", str(toy3_path), "--degree", "constant", "--base-n", "1",
                "--no-reconstruct", "-o", str(out_dir)]
        assert main(argv) == EXIT_OK

        def no_convergence(stack, n, d, p):
            raise NumericalError("eigendecomposition did not converge")

        monkeypatch.setattr(linalg, "_leading_factors", no_convergence)
        capsys.readouterr()
        assert main(argv) == EXIT_NUMERIC
        assert "layer c1: eigendecomposition did not converge" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    def test_failing_walk_share_exits_numeric_and_leaves_no_worker_running(
        self, toy4_path, tmp_path, capsys, monkeypatch
    ):
        # Three CPUs: the eight calibration samples go in chunks of three,
        # and the first conv of the first chunk's original walk runs on
        # three shares of one sample each. The share holding sample 2 fails
        # at once while the other two are still running.
        net = load_model(toy4_path)
        samples = CalibrationSet.synthetic(net.input_shape, 8, seed=41).samples
        pad_into, finished = linalg._pad_into, []

        def slow_or_failing(image, padded, pad):
            if np.array_equal(image, samples[2]):
                raise NumericalError("share failed")
            time.sleep(0.1)
            finished.append(next(i for i, x in enumerate(samples) if np.array_equal(x, image)))
            return pad_into(image, padded, pad)

        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(linalg, "_pad_into", slow_or_failing)
        threads_before = set(threading.enumerate())
        out_dir = tmp_path / "o"
        code = main(
            ["compress", str(toy4_path), "-o", str(out_dir), "--degree", "constant",
             "--base-n", "1", "--calib-count", "8", "--calib-seed", "41"]
        )
        assert code == EXIT_NUMERIC
        assert "share failed" in capsys.readouterr().err
        assert not (out_dir / "model.bin").exists()
        assert sorted(finished) == [0, 1]
        assert set(threading.enumerate()) == threads_before

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs two CPUs",
    )
    def test_one_cpu_writes_the_same_bytes(self, toy3_path, toy4_path, tmp_path):
        # Each run is a child process; "one" restricts it to one CPU before
        # numpy loads, which sizes its BLAS thread pool then. The BLAS
        # thread variables are removed, so the tool's own default is what
        # pins BLAS, as when a user runs it.
        script = (
            "import os, sys\n"
            "if sys.argv[1] == 'one':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from groupcompress import linalg\n"
            "from groupcompress.cli import main\n"
            "assert (linalg._usable_cpus() == 1) == (sys.argv[1] == 'one')\n"
            "sys.exit(main(sys.argv[2:]))\n"
        )
        blas = {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        env = {name: value for name, value in os.environ.items() if name not in blas}
        env["PYTHONPATH"] = str(Path(decompose.__file__).parents[1])
        commands = {
            "toy4-reconstruct": [toy4_path, "--calib-count", "8"],
            "toy3-reconstruct": [toy3_path, "--calib-seed", "41"],
            "toy4-truncate": [toy4_path, "--no-reconstruct"],
        }
        for name, (model, *flags) in commands.items():
            outputs = {}
            for cpus in ("one", "all"):
                out_dir = tmp_path / name / cpus
                subprocess.run(
                    [sys.executable, "-c", script, cpus, "compress", str(model), "-o",
                     str(out_dir), "--degree", "constant", "--base-n", "1", *flags],
                    env=env, check=True, timeout=120,
                )
                outputs[cpus] = {path.name: path.read_bytes() for path in out_dir.iterdir()}
            assert sorted(outputs["one"]) == ["model.bin", "model.json", "report.json"]
            assert outputs["one"] == outputs["all"], name

    @pytest.mark.parametrize(
        "mode", [["--no-reconstruct"], ["--calib-count", "8"]], ids=["truncation", "reconstruction"]
    )
    def test_output_over_the_input_model(self, tmp_path, mode):
        """compress -o the directory of its input ``model.json`` writes the
        files it writes elsewhere. c4 is not planned, so it is copied from
        the input blob after that file was unlinked to make room."""
        model_path = save_model(build_toy_cnn(seed=0), tmp_path / "in" / "model.json")
        plan = build_plan(build_toy_cnn(seed=0), "constant", 2, skip_layers=["c4"])
        argv = ["compress", str(model_path), "--plan", str(plan.save(tmp_path / "plan.json")),
                *mode, "-o"]
        assert main(argv + [str(tmp_path / "elsewhere")]) == EXIT_OK
        assert main(argv + [str(model_path.parent)]) == EXIT_OK
        for name in ("model.json", "model.bin", "report.json"):
            assert (model_path.parent / name).read_bytes() == (
                tmp_path / "elsewhere" / name).read_bytes()

    def test_truncation_reads_only_the_planned_layers(self, tmp_path, monkeypatch):
        """c1 is the one planned layer. Its arrays are read twice, once to
        be checked and once to be factored; every other tensor is copied to
        the output unread, so a read of one fails the run. The files
        written are those of a run that reads freely, and the blob file is
        closed when the run is over."""
        model_path = save_model(pool_fc_net(0), tmp_path / "pool.json")
        argv = ["compress", str(model_path), "--degree", "constant", "--base-n", "1",
                "--no-reconstruct", "-o"]
        assert main(argv + [str(tmp_path / "free")]) == EXIT_OK
        read, reads, opened = modelio._BlobTensor.read, [], []

        def planned_only(tensor):
            reads.append(tensor.field)
            if not tensor.field.startswith("layer c1 "):
                raise AssertionError(f"{tensor.field} was read")
            return read(tensor)

        def open_blob(file, mode="r", *args, **kwargs):
            opened.append(open(file, mode, *args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(modelio._BlobTensor, "read", planned_only)
        monkeypatch.setattr(modelio, "open", open_blob, raising=False)
        assert main(argv + [str(tmp_path / "out")]) == EXIT_OK
        assert reads == ["layer c1 weights", "layer c1 bias"] * 2
        assert all(fh.closed for fh in opened)
        for name in ("model.json", "model.bin", "report.json"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "free" / name).read_bytes()

    def test_truncation_memory_is_set_by_the_planned_layer(self, tmp_path):
        """Truncating a conv before a large fc tail allocates less than the
        tail's float64 size, the same at two tail sizes: within the (D, P)
        pair, a few copies of the planned layer and the I/O slice."""
        c, size, n = 64, 4, 8
        conv = ConvWeights(c, c, 3, pad=1, weights=np.ones((c, c, 3, 3)))
        peaks, tails = [], []
        for out_features in (2048, 8192):
            fc = FcParams(c * size * size, out_features,
                          weights=np.ones((out_features, c * size * size), dtype=np.float32))
            net = NetworkSpec("tail", (c, size, size), [
                LayerSpec(id="c1", kind="conv", conv=conv),
                LayerSpec(id="fc", kind="fc", fc=fc),
            ])
            model_path = save_model(net, tmp_path / f"{out_features}.json")
            del net, fc
            tails.append(8 * c * size * size * out_features)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                code = main(["compress", str(model_path), "--degree", "constant", "--base-n",
                             str(n), "--no-reconstruct", "-o", str(tmp_path / str(out_features))])
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
            assert code == EXIT_OK
        layer = conv.weights.nbytes
        d_and_p = 8 * (c * n * 9 + c * c)
        slice_and_manifest = 4 * modelio.SLICE_VALUES + (1 << 20)
        assert max(peaks) < min(tails)
        assert abs(peaks[1] - peaks[0]) < layer
        assert max(peaks) <= d_and_p + 4 * layer + slice_and_manifest

    def test_truncation_memory_does_not_grow_with_the_planned_layers(self, tmp_path, monkeypatch):
        """Four identical planned convs take the memory of one, within one
        pair's D and P: the save factors and writes one pair at a time. One
        CPU, so that no two shares' scratch overlap by chance, and a first
        run untraced, so that both traced runs find the same caches."""
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 1)
        c, n = 256, 32
        conv = ConvWeights(c, c, 3, pad=1, weights=np.random.default_rng(0).standard_normal(
            (c, c, 3, 3)), bias=np.ones(c))
        ids = ["c1", "c2", "c3", "c4"]
        net = NetworkSpec("chain", (c, 4, 4), [
            LayerSpec(id=layer_id, kind="conv", conv=conv) for layer_id in ids])
        model_path = save_model(net, tmp_path / "chain.json")
        del net, conv
        peaks = []
        for planned in (ids[:1], ids[:1], ids):
            plan = CompressionPlan("constant", n, {}, dict.fromkeys(planned, n)).save(
                tmp_path / "plan.json")
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                code = main(["compress", str(model_path), "--plan", str(plan), "--no-reconstruct",
                             "-o", str(tmp_path / str(len(peaks)))])
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
            assert code == EXIT_OK
        d_and_p = 8 * (c * n * 9 + c * c)
        assert abs(peaks[2] - peaks[1]) < d_and_p

    def test_non_conv_plan_is_plan_error_before_any_svd(
        self, toy3_path, tmp_path, capsys, monkeypatch
    ):
        def no_svd(stack, n, d, p):
            raise AssertionError("SVD ran before the plan check")

        monkeypatch.setattr("groupcompress.linalg._leading_factors", no_svd)
        # A relu, and an id that is no layer, with reconstruction on: the
        # calibration row check leaves both to the plan check.
        for planned in ("r1", "nosuch"):
            plan = CompressionPlan("constant", 1, {}, {"c1": 1, planned: 1})
            plan = plan.save(tmp_path / f"plan-{planned}.json")
            out_dir = tmp_path / planned
            code = main(["compress", str(toy3_path), "-o", str(out_dir), "--plan", str(plan)])
            assert code == EXIT_PLAN
            assert f"'{planned}'" in capsys.readouterr().err
            assert not (out_dir / "model.bin").exists()

    @pytest.mark.parametrize(
        "field, value, named",
        [("layer_ranks", [1, 1, 1], "layer_ranks"), ("stage_ns", [1], "stage_ns"),
         ("layer_ranks", {"c1": 1.5, "c2": 1, "c3": 1}, "layer_ranks['c1']"),
         ("degree", 7, "degree"), ("skipped_layers", "abc", "skipped_layers"),
         ("adjustments", "xy", "adjustments"), ("predicted_flops", "many", "predicted_flops"),
         ("predicted_flops", -1, "predicted_flops"), ("base_n", -7, "base_n"),
         ("stage_ns", {"s6": 0}, "stage_ns['s6']"),
         ("predicted_flops", 5, "predicts 5 FLOPs, but its layer ranks give 20,376")],
        ids=["layer_ranks-list", "stage_ns-list", "rank-not-integer", "degree-unknown",
             "skipped_layers-string", "adjustments-string", "predicted_flops-string",
             "predicted_flops-negative", "base_n-below-1", "stage_n-below-1",
             "predicted_flops-not-the-plans"],
    )
    def test_malformed_plan_file_is_plan_error(
        self, toy3_path, tmp_path, capsys, monkeypatch, field, value, named
    ):
        plan = CompressionPlan("constant", 1, {"s6": 1}, {"c1": 1, "c2": 1, "c3": 1}).to_json()
        plan[field] = value
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))

        def no_svd(stack, n, d, p):
            raise AssertionError("SVD ran before the plan check")

        monkeypatch.setattr("groupcompress.linalg._leading_factors", no_svd)
        out_dir = tmp_path / "o"
        code = main(["compress", str(toy3_path), "-o", str(out_dir), "--plan", str(plan_path)])
        assert code == EXIT_PLAN
        assert named in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [(["--plan", "PLAN", "--degree", "constant", "--base-n", "1"],
          "--plan, --degree, --base-n"),
         (["--plan", "PLAN", "--preset", "vgg16_a"], "--plan, --preset"),
         (["--preset", "vgg16_a", "--degree", "constant", "--base-n", "1"],
          "--preset, --degree, --base-n")],
        ids=["plan-and-schedule", "plan-and-preset", "preset-and-schedule"],
    )
    def test_two_plan_sources_are_plan_error_before_any_svd(
        self, toy3_path, tmp_path, capsys, monkeypatch, flags, named
    ):
        plan = CompressionPlan("constant", 1, {"s6": 1}, {"c1": 1, "c2": 1, "c3": 1})
        plan_path = plan.save(tmp_path / "plan.json")

        def no_svd(stack, n, d, p):
            raise AssertionError("SVD ran before the plan source check")

        monkeypatch.setattr("groupcompress.linalg._leading_factors", no_svd)
        out_dir = tmp_path / "o"
        flags = [str(plan_path) if flag == "PLAN" else flag for flag in flags]
        code = main(["compress", str(toy3_path), "-o", str(out_dir), *flags])
        assert code == EXIT_PLAN
        assert f"got {named}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "calib, code, message",
        [("missing", EXIT_FORMAT, "calibration"),
         ("wrong-shape", EXIT_NUMERIC, "calibration shape (2, 6, 6)"),
         ("non-finite", EXIT_NUMERIC, "calibration samples contains non-finite entries")],
        ids=["missing", "wrong-shape", "non-finite"],
    )
    def test_calibration_is_read_before_any_svd(
        self, toy3_path, tmp_path, capsys, monkeypatch, calib, code, message
    ):
        calib_path = tmp_path / "calib.json"
        if calib == "wrong-shape":
            CalibrationSet.synthetic((2, 6, 6), 8, seed=3).save(calib_path)
        elif calib == "non-finite":
            samples = CalibrationSet.synthetic((3, 6, 6), 48, seed=3).samples
            samples[5, 1, 2, 3] = np.nan
            non_finite_calibration(samples, calib_path)

        def no_svd(stack, n, d, p):
            raise AssertionError("SVD ran before the calibration set was read")

        monkeypatch.setattr("groupcompress.linalg._leading_factors", no_svd)
        out_dir = tmp_path / "o"
        assert main(["compress", str(toy3_path), "-o", str(out_dir), "--degree", "constant",
                     "--base-n", "1", "--calib", str(calib_path)]) == code
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("layer_id, field", [("bn", "scale"), ("fc2", "weights")])
    def test_null_required_array_fails_before_any_svd(
        self, tmp_path, capsys, monkeypatch, layer_id, field
    ):
        path = save_model(pool_fc_net(0), tmp_path / "m.json")
        manifest = json.loads(path.read_text())
        next(l for l in manifest["layers"] if l["id"] == layer_id)[field] = None
        path.write_text(json.dumps(manifest))

        def no_svd(stack, n, d, p):
            raise AssertionError("SVD ran before the model was checked")

        monkeypatch.setattr("groupcompress.linalg._leading_factors", no_svd)
        out_dir = tmp_path / "o"
        assert main(["compress", str(path), "-o", str(out_dir), "--degree", "constant",
                     "--base-n", "1", "--calib-count", "4"]) == EXIT_FORMAT
        assert f"layer {layer_id}: missing or null field '{field}'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_plan_is_plan_error(self, toy3_path, tmp_path):
        assert (
            main(["compress", str(toy3_path), "-o", str(tmp_path / "o")]) == EXIT_PLAN
        )

    def test_calibration_file_input(self, toy3_path, tmp_path):
        calib_path = CalibrationSet.synthetic((3, 6, 6), 40, seed=3).save(
            tmp_path / "calib.json"
        )
        out_dir = tmp_path / "out"
        code = main(
            [
                "compress",
                str(toy3_path),
                "-o",
                str(out_dir),
                "--degree",
                "constant",
                "--base-n",
                "1",
                "--calib",
                str(calib_path),
            ]
        )
        assert code == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        assert report["reconstruction"]["calibration"]["count"] == 40

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda m, d: (d / m["blob"]).unlink(),
            lambda m, d: m.update(blob=7),
            lambda m, d: m.update(count="x"),
            lambda m, d: m.update(shape=["x", 6, 6]),
            _with_blob(0, count=0),
            lambda m, d: list(m),  # the field names, in a list
            _with_blob(40 * 3, shape=[-1, -1, 3]),
            _with_blob(40 * 36, shape=[6, 6]),
            _with_blob(3 * 6 * 6, count=1.7),
        ],
        ids=["blob-missing", "blob-not-name", "count-x", "shape-x", "count-0", "header-list",
             "shape-negative", "shape-2d", "count-float"],
    )
    def test_malformed_calibration_is_format_error(self, toy3_path, tmp_path, mutate, capsys):
        """``mutate`` edits the manifest in place, or returns a replacement."""
        calib_path = CalibrationSet.synthetic((3, 6, 6), 40, seed=3).save(
            tmp_path / "calib.json"
        )
        manifest = json.loads(calib_path.read_text())
        replacement = mutate(manifest, tmp_path)
        calib_path.write_text(json.dumps(manifest if replacement is None else replacement))
        code = main(
            ["compress", str(toy3_path), "-o", str(tmp_path / "o"), "--degree", "constant",
             "--base-n", "1", "--calib", str(calib_path)]
        )
        assert code == EXIT_FORMAT
        assert "calibration" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_calibration_count_below_one_is_usage_error(self, toy3_path, tmp_path, count):
        with pytest.raises(SystemExit) as exc:
            main(["compress", str(toy3_path), "-o", str(tmp_path / "o"), "--degree",
                  "constant", "--base-n", "1", "--calib-count", count])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("ridge", ["-1", "nan", "inf"])
    def test_bad_ridge_is_usage_error(self, toy3_path, tmp_path, ridge):
        with pytest.raises(SystemExit) as exc:
            main(["compress", str(toy3_path), "-o", str(tmp_path / "o"), "--degree",
                  "constant", "--base-n", "1", "--calib-count", "8", f"--ridge={ridge}"])
        assert exc.value.code == 2
        assert not (tmp_path / "o" / "model.bin").exists()

    def test_too_few_calibration_rows_fail_before_any_forward(
        self, tmp_path, capsys, monkeypatch
    ):
        # One 3x3 sample gives 9 rows: enough for c1 and c2, not for c3.
        path = save_model(toy_net(seed=41, widths=(3, 6, 8, 16), size=3), tmp_path / "m.json")

        def no_forward(layer):
            raise AssertionError("a forward pass ran before the row check")

        def no_svd(stack, n, d, p):
            raise AssertionError("SVD ran before the row check")

        on_conv_forward(monkeypatch, no_forward)
        monkeypatch.setattr("groupcompress.linalg._leading_factors", no_svd)
        out_dir = tmp_path / "o"
        code = main(["compress", str(path), "-o", str(out_dir), "--degree", "constant",
                     "--base-n", "1", "--calib-count", "1"])
        assert code == EXIT_NUMERIC
        assert "layer c3:" in capsys.readouterr().err
        assert not (out_dir / "model.bin").exists()

    def test_thin_layers_warn_once_each_before_any_forward(self, toy3_path, tmp_path,
                                                           monkeypatch):
        # Two 6x6 samples give 72 rows: 10 per output channel for c1's 6,
        # fewer for the 8 of c2 and c3. Both compress and the reconstruction
        # check the rows; each thin layer warns once, before the first conv
        # forward.
        warned_at_forwards = []
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            on_conv_forward(monkeypatch, lambda layer: warned_at_forwards.append(len(record)))
            code = main(["compress", str(toy3_path), "-o", str(tmp_path / "o"), "--degree",
                         "constant", "--base-n", "1", "--calib-count", "2"])
        assert code == EXIT_OK
        thin = [(i, str(w.message).split(":")[0]) for i, w in enumerate(record)
                if w.category is CalibrationWarning]
        assert [layer for _, layer in thin] == ["layer c2", "layer c3"]
        assert all(i < warned_at_forwards[0] for i, _ in thin)

    def test_interrupted_report_write_leaves_no_report(self, toy3_path, tmp_path, monkeypatch):
        out_dir = tmp_path / "o"
        args = ["compress", str(toy3_path), "-o", str(out_dir), "--degree", "constant",
                "--base-n", "1", "--calib-count", "4"]
        assert main(args) == EXIT_OK

        # Break the report's write, whether it goes through json.dump or
        # Path.write_text, halfway through. The model files are written whole
        # before it, but the report goes in the same atomic write as the
        # model, so none of the three is left.
        dump, write_text = json.dump, Path.write_text

        def half_dump(obj, fh, **kwargs):
            if "report" not in Path(fh.name).name:
                return dump(obj, fh, **kwargs)
            fh.write('{"model": "to')
            raise OSError("disk full")

        def half_write_text(path, text, **kwargs):
            if "report" not in path.name:
                return write_text(path, text, **kwargs)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", half_dump)
        monkeypatch.setattr(Path, "write_text", half_write_text)
        assert main(args) != EXIT_OK
        assert sorted(p.name for p in out_dir.iterdir()) == []

    @pytest.mark.parametrize("file_name", ["model.bin", "model.json", "report.json"])
    @pytest.mark.parametrize("mode", [["--no-reconstruct"], ["--calib-count", "8"]],
                             ids=["truncation", "reconstruction"])
    def test_interrupted_run_leaves_old_new_or_no_set(
        self, toy3_path, tmp_path, monkeypatch, file_name, mode
    ):
        """An interrupt while one of the three files is half-written leaves
        the old set byte-identical, the new set, or none of the set. Files
        of other names are left alone."""
        out_dir, new_dir = tmp_path / "o", tmp_path / "new"
        argv = ["compress", str(toy3_path), "--degree", "constant", *mode, "--base-n"]
        assert main([*argv, "1", "-o", str(out_dir)]) == EXIT_OK
        assert main([*argv, "2", "-o", str(new_dir)]) == EXIT_OK
        (out_dir / "notes.txt").write_text("kept")

        def files(directory):
            return {p.name: p.read_bytes() for p in directory.iterdir() if p.name != "notes.txt"}

        old, new = files(out_dir), files(new_dir)
        assert sorted(old) == ["model.bin", "model.json", "report.json"] and old != new

        class HalfWritten:
            """A file whose first write goes half to disk, then is interrupted."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise KeyboardInterrupt

        def interrupting_open(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            return HalfWritten(fh) if Path(file).name.startswith(f".{file_name}.") else fh

        monkeypatch.setattr(modelio, "open", interrupting_open, raising=False)
        with pytest.raises(KeyboardInterrupt):
            main([*argv, "2", "-o", str(out_dir)])
        assert files(out_dir) in (old, new, {})
        assert (out_dir / "notes.txt").read_text() == "kept"

    def test_wrong_calibration_shape_is_numeric_error(self, toy3_path, tmp_path):
        calib_path = CalibrationSet.synthetic((2, 6, 6), 40, seed=3).save(
            tmp_path / "calib.json"
        )
        code = main(
            [
                "compress",
                str(toy3_path),
                "-o",
                str(tmp_path / "o"),
                "--degree",
                "constant",
                "--base-n",
                "1",
                "--calib",
                str(calib_path),
            ]
        )
        assert code == EXIT_NUMERIC


class TestAnalyze:
    @pytest.fixture
    def compressed_dir(self, toy3_path, tmp_path):
        out_dir = tmp_path / "out"
        main(
            [
                "compress",
                str(toy3_path),
                "-o",
                str(out_dir),
                "--degree",
                "constant",
                "--base-n",
                "2",
                "--calib-count",
                "48",
            ]
        )
        return out_dir

    @pytest.mark.parametrize(
        "fault",
        ["p-is-relu", "rank_n-mismatch", "p-stride-2", "from-relu", "from-missing", "other-model"],
    )
    def test_malformed_decomposed_pair_is_format_error(
        self, toy3_path, toy4_path, compressed_dir, tmp_path, capsys, fault
    ):
        """Every pair must be pair_layers of the original conv it names,
        checked before any output is written."""
        path = compressed_dir / "model.json"
        manifest = json.loads(path.read_text())
        layers = {layer["id"]: layer for layer in manifest["layers"]}
        src = {"from-relu": "r1", "from-missing": "zz"}.get(fault, "c1")
        if fault == "p-is-relu":  # c1's provenance moved from its P layer to r1
            for key in ("decomposed_from", "rank_n"):
                layers["r1"][key] = layers["c1.p"].pop(key)
        elif fault == "rank_n-mismatch":  # c1.d has c_in / groups = 1
            layers["c1.d"]["rank_n"] = layers["c1.p"]["rank_n"] = 3
        elif fault == "p-stride-2":
            layers["c1.p"]["stride"] = 2
        elif fault.startswith("from-"):  # names a relu, or no layer, of the original
            layers["c1.d"]["decomposed_from"] = layers["c1.p"]["decomposed_from"] = src
        path.write_text(json.dumps(manifest))
        original = toy4_path if fault == "other-model" else toy3_path  # toy4's c1 is 4 -> 4
        analysis = tmp_path / "a"
        code = main(["analyze", str(original), str(path), "-o", str(analysis)])
        assert code == EXIT_FORMAT
        assert f"decomposed_from={src!r}" in capsys.readouterr().err
        assert not analysis.exists()

    def test_csv_bundle(self, toy3_path, compressed_dir, tmp_path):
        analysis = tmp_path / "analysis"
        code = main(
            [
                "analyze",
                str(toy3_path),
                str(compressed_dir / "model.json"),
                "-o",
                str(analysis),
            ]
        )
        assert code == EXIT_OK
        assert (analysis / "ranks.csv").exists()
        for layer in ("c1", "c2", "c3"):
            assert (analysis / f"energy_{layer}_original.csv").exists()
            assert (analysis / f"energy_{layer}_group.csv").exists()

        def saturation_index(name):
            rows = (analysis / name).read_text().strip().splitlines()[1:]
            for row in rows:
                idx, _, energy = row.split(",")
                if float(energy) >= 1.0 - 1e-9:
                    return int(idx)
            return len(rows) - 1

        # The channel-SVD baseline saturates at its truncation rank; the
        # group decomposition keeps the full min(c_in, c_out) spectrum.
        assert saturation_index("energy_c3_svd_baseline.csv") < saturation_index(
            "energy_c3_group.csv"
        )

    def test_source_weights_are_read_for_one_use(self, toy3_path, compressed_dir, tmp_path,
                                                 monkeypatch):
        # Each source conv's weights, and its D and P weights, are read for
        # its curves and freed: neither loaded model keeps any of them.
        loaded = []

        def load_model(path):
            loaded.append(modelio.load_model(path))
            return loaded[-1]

        monkeypatch.setattr("groupcompress.cli.load_model", load_model)
        assert main(["analyze", str(toy3_path), str(compressed_dir / "model.json"), "-o",
                     str(tmp_path / "analysis")]) == EXIT_OK
        original, compressed = loaded
        for layer_id in ("c1", "c2", "c3"):
            for net, read_id in ((original, layer_id), (compressed, f"{layer_id}.d"),
                                 (compressed, f"{layer_id}.p")):
                assert isinstance(net.layer(read_id).conv.__dict__["weights"], model.Deferred)

    def test_pair_that_does_not_compress(self, toy4_path, tmp_path):
        # At n = c_in = 4 toy4's c4, a 36 x 3 weight matrix, has an
        # equal-FLOPs SVD width c_d of 4, above the matrix's rank.
        out_dir, analysis = tmp_path / "c", tmp_path / "a"
        assert main(["compress", str(toy4_path), "-o", str(out_dir), "--degree", "constant",
                     "--base-n", "4", "--no-reconstruct"]) == EXIT_OK
        code = main(["analyze", str(toy4_path), str(out_dir / "model.json"), "-o", str(analysis)])
        assert code == EXIT_OK
        with open(analysis / "ranks.csv", newline="") as fh:
            rows = {row["layer"]: row for row in csv.DictReader(fh)}
        assert list(rows) == ["c1", "c2", "c3", "c4"]
        assert (rows["c4"]["c_d"], rows["c4"]["rank_svd"]) == ("4.0", "3")
        baseline = np.loadtxt(analysis / "energy_c4_svd_baseline.csv", delimiter=",", skiprows=1)
        assert len(baseline) == 3 and baseline[-1, 2] == pytest.approx(1.0)

    def test_correlation_requires_calibration(self, toy3_path, compressed_dir, tmp_path, capsys):
        code = main(
            [
                "analyze",
                str(toy3_path),
                str(compressed_dir / "model.json"),
                "-o",
                str(tmp_path / "a"),
                "--correlation",
            ]
        )
        assert code == EXIT_PLAN
        assert "no calibration data: pass --calib FILE or --calib-count N" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "a").exists()

    def test_correlation_outputs(self, toy3_path, compressed_dir, tmp_path):
        analysis = tmp_path / "analysis"
        code = main(
            [
                "analyze",
                str(toy3_path),
                str(compressed_dir / "model.json"),
                "-o",
                str(analysis),
                "--correlation",
                "--calib-count",
                "100",
            ]
        )
        assert code == EXIT_OK
        assert (analysis / "correlation_summary.csv").exists()
        summary = (analysis / "correlation_summary.csv").read_text().splitlines()
        assert len(summary) == 3  # header + c2, c3

    def test_wrong_calibration_shape_fails_before_any_output(
        self, toy3_path, compressed_dir, tmp_path, capsys
    ):
        calib_path = CalibrationSet.synthetic((2, 6, 6), 20, seed=3).save(
            tmp_path / "calib.json"
        )
        analysis = tmp_path / "analysis"
        code = main(
            ["analyze", str(toy3_path), str(compressed_dir / "model.json"), "-o",
             str(analysis), "--correlation", "--calib", str(calib_path)]
        )
        assert code == EXIT_NUMERIC
        assert "calibration shape" in capsys.readouterr().err
        assert not analysis.exists()

    def test_non_finite_calibration_fails_before_any_walk(
        self, toy3_path, compressed_dir, tmp_path, capsys, monkeypatch
    ):
        samples = CalibrationSet.synthetic((3, 6, 6), 20, seed=3).samples
        samples[0, 0, 0, 0] = np.inf
        calib_path = non_finite_calibration(samples, tmp_path / "calib.json")

        class NoWalk(model._Walk):
            def __init__(self, net, x):
                raise AssertionError("a walk started before the calibration set was checked")

        monkeypatch.setattr(model, "_Walk", NoWalk)
        analysis = tmp_path / "analysis"
        code = main(
            ["analyze", str(toy3_path), str(compressed_dir / "model.json"), "-o",
             str(analysis), "--correlation", "--calib", str(calib_path)]
        )
        assert code == EXIT_NUMERIC
        assert "calibration samples contains non-finite entries" in capsys.readouterr().err
        assert not analysis.exists()

    def test_zero_weight_matrix_is_numeric_error_naming_layer(self, tmp_path, capsys):
        # c2 with all-zero weights compresses, but its matrix has no energy curve.
        net = build_toy_three(seed=0)
        net.layer("c2").conv.weights[...] = 0.0
        path = save_model(net, tmp_path / "m.json")
        out_dir, analysis = tmp_path / "c", tmp_path / "a"
        assert main(["compress", str(path), "-o", str(out_dir), "--degree", "constant",
                     "--base-n", "1", "--no-reconstruct"]) == EXIT_OK
        capsys.readouterr()
        code = main(["analyze", str(path), str(out_dir / "model.json"), "-o", str(analysis)])
        assert code == EXIT_NUMERIC
        assert "layer c2: zero matrix has no energy curve" in capsys.readouterr().err

    def test_correlation_walk_stops_at_joins(self, tmp_path):
        # c2 and the shortcut sc read r1, the activation of c1's pointwise
        # layer; c3 reads through an add, and c1 reads the network input.
        path = save_model(residual_net(seed=0), tmp_path / "res.json")
        out_dir = tmp_path / "out"
        assert main(
            ["compress", str(path), "-o", str(out_dir), "--degree", "constant",
             "--base-n", "1", "--calib-count", "20"]
        ) == EXIT_OK
        analysis = tmp_path / "analysis"
        assert main(
            ["analyze", str(path), str(out_dir / "model.json"), "-o", str(analysis),
             "--correlation", "--calib-count", "20"]
        ) == EXIT_OK
        assert sorted(p.name for p in analysis.glob("correlation_*")) == [
            "correlation_c2.csv", "correlation_sc.csv", "correlation_summary.csv"
        ]
        summary = (analysis / "correlation_summary.csv").read_text().splitlines()
        assert [row.split(",")[:3] for row in summary[1:]] == [
            ["c2", "c1.p", "r1"], ["sc", "c1.p", "r1"]
        ]

    @pytest.mark.parametrize("flags", [[], ["--corr-pre-activation"]], ids=["post", "pre"])
    def test_correlation_skips_pairs_whose_rows_differ(self, tmp_path, flags):
        # c2 has stride 2: its D reads r1, the 6x6 activation of c1's P, and
        # writes 3x3 maps, so no row of the one lines up with a row of the
        # other. c3's D reads c2's P through r2, both 3x3.
        net = toy_net(seed=5, widths=(3, 4, 4, 4))
        net.layers[2] = replace(net.layers[2], conv=replace(net.layers[2].conv, stride=2))
        path = save_model(net, tmp_path / "strided.json")
        out_dir = tmp_path / "out"
        assert main(
            ["compress", str(path), "-o", str(out_dir), "--degree", "constant",
             "--base-n", "1", "--no-reconstruct"]
        ) == EXIT_OK
        analysis = tmp_path / "analysis"
        assert main(
            ["analyze", str(path), str(out_dir / "model.json"), "-o", str(analysis),
             "--correlation", "--calib-count", "8", *flags]
        ) == EXIT_OK
        assert sorted(p.name for p in analysis.glob("correlation_*")) == [
            "correlation_c3.csv", "correlation_summary.csv"
        ]
        summary = (analysis / "correlation_summary.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in summary[1:]] == ["c3"]

    @pytest.mark.parametrize("flags", [[], ["--corr-pre-activation"]], ids=["post", "pre"])
    def test_correlation_walks_the_network_once_per_chunk(
        self, toy3_path, compressed_dir, tmp_path, monkeypatch, flags
    ):
        # Three samples per chunk: 8 samples make chunks of 3, 3 and 2.
        walks = []

        class CountingWalk(model._Walk):
            def __init__(self, net, x):
                walks.append(len(x))
                super().__init__(net, x)

        monkeypatch.setattr(model, "_Walk", CountingWalk)
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 3)
        analysis = tmp_path / "analysis"
        assert main(
            ["analyze", str(toy3_path), str(compressed_dir / "model.json"), "-o",
             str(analysis), "--correlation", "--calib-count", "8", *flags]
        ) == EXIT_OK
        assert walks == [3, 3, 2]
        # Each pair's CSV is byte-identical to one from statistics of its
        # own walk of the whole batch, fed one sample at a time.
        compressed = load_model(compressed_dir / "model.json")
        samples = CalibrationSet.synthetic(compressed.input_shape, 8, seed=0).samples
        summary = (analysis / "correlation_summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in summary] == ["c2", "c3"]
        for row in summary:
            src, _, tap, n = row.split(",")[:4]
            walk, stats = model._Walk(compressed, samples), ChannelCorrelation()
            point, group = walk.to(tap)[1], walk.to(f"{src}.d")[1]
            for i in range(len(samples)):
                stats.add(response_rows(group[i : i + 1]), response_rows(point[i : i + 1]))
            write_correlation_csv(tmp_path / "expected.csv", stats.report(int(n)))
            expected = (tmp_path / "expected.csv").read_bytes()
            assert (analysis / f"correlation_{src}.csv").read_bytes() == expected
        assert walks == [3, 3, 2] + [8] * len(summary)

    def test_correlation_with_no_fed_pair_says_so(self, toy3_path, tmp_path, capsys):
        # c1 alone is decomposed, so no pair's D reads a decomposed P's maps.
        plan = tmp_path / "plan.json"
        assert main(["plan", str(toy3_path), "--degree", "constant", "--base-n", "1",
                     "--skip-layer", "c2", "--skip-layer", "c3", "-o", str(plan)]) == EXIT_OK
        out_dir = tmp_path / "out"
        assert main(["compress", str(toy3_path), "--plan", str(plan), "--calib-count", "8",
                     "-o", str(out_dir)]) == EXIT_OK
        capsys.readouterr()
        analysis = tmp_path / "an"
        assert main(["analyze", str(toy3_path), str(out_dir / "model.json"), "-o",
                     str(analysis), "--correlation", "--calib-count", "8"]) == EXIT_OK
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("note: no correlation_*.csv written: ")
        assert not list(analysis.glob("correlation_*"))
        assert (analysis / "ranks.csv").exists()

    @staticmethod
    def with_dead_channels(net):
        """``net`` with channel 0 of its first P output all -1, so that a
        relu reading it is dead there, and channel 0 of its second D output
        all zeros: the zero-variance channels of the second pair's
        correlation."""
        layers = list(net.layers)
        d_at = [i for i, layer in enumerate(layers) if layer.id.endswith(".d")][1]
        d = read_arrays(layers[d_at].conv)
        weights = d.weights.copy()
        weights[0] = 0.0
        layers[d_at] = replace(layers[d_at], conv=replace(d, weights=weights, bias=None))
        p_at = next(i for i, layer in enumerate(layers) if layer.id.endswith(".p"))
        p = read_arrays(layers[p_at].conv)
        weights, bias = p.weights.copy(), np.zeros(p.c_out) if p.bias is None else p.bias.copy()
        weights[0], bias[0] = 0.0, -1.0
        layers[p_at] = replace(layers[p_at], conv=replace(p, weights=weights, bias=bias))
        return NetworkSpec(net.name, net.input_shape, layers)

    @pytest.mark.parametrize("pre_activation", [False, True], ids=["post", "pre"])
    @pytest.mark.parametrize("name", ["toy3", "toy4", "residual"])
    def test_correlation_statistics_match_the_whole_stack_oracle(
        self, name, pre_activation, monkeypatch
    ):
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 2)
        net = {"toy3": build_toy_three, "toy4": build_toy_cnn, "residual": residual_net}[name](0)
        compressed, pairs = decompose.decompose_network(
            net, {layer.id: 2 if layer.conv.c_in % 2 == 0 else 1 for layer in net.conv_layers()})
        compressed = self.with_dead_channels(compressed)
        pairs = decompose.decomposed_pairs(compressed, net)
        calib = CalibrationSet.synthetic(net.input_shape, 5, seed=3)
        fed = cli._aligned_taps(compressed, pairs, pre_activation=pre_activation)
        assert fed
        dead = set()
        for (pair, _, tap), report in zip(fed, cli._correlations(compressed, fed, calib),
                                          strict=True):
            stacked = stack_taps(compressed, calib.samples, [tap, pair.d.id])
            want = filter_correlation(stacked[tap], stacked[pair.d.id], block_size=pair.n)
            np.testing.assert_allclose(report.matrix, want.matrix, rtol=0, atol=1e-12)
            assert report.mean_in_block == pytest.approx(want.mean_in_block, rel=0, abs=1e-12)
            assert report.mean_out_block == pytest.approx(want.mean_out_block, rel=0, abs=1e-12)
            assert report.zero_variance_channels == want.zero_variance_channels
            dead.update(report.zero_variance_channels)
        # The zeroed D channel, and the P channel that is -1 before its relu.
        assert ("group", 0) in dead
        assert ("point", 0) in dead

    def test_correlation_memory_does_not_grow_with_the_samples(self, monkeypatch):
        """The correlation pass holds one chunk's maps at a time: from 4 to
        20 samples its peak grows by less than one chunk's maps, every
        layer's output counted. A whole-batch pass would hold 16 more
        samples of every tapped map."""
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 2)
        net = toy_net(seed=1, widths=(3, 8, 8, 8, 8), size=16)
        compressed, pairs = decompose.decompose_network(
            net, {layer.id: 1 for layer in net.conv_layers()})
        fed = cli._aligned_taps(compressed, pairs)
        one_chunk = 2 * 8 * sum(math.prod(shape) for shape in propagate_shapes(compressed).values())
        tapped = 8 * sum(math.prod(propagate_shapes(compressed)[layer_id])
                         for pair, _, tap in fed for layer_id in (tap, pair.d.id))
        assert 16 * tapped > one_chunk  # so the bound tells the two passes apart
        peaks = []
        for count in (4, 4, 20):
            calib = CalibrationSet.synthetic(net.input_shape, count, seed=0)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                cli._correlations(compressed, fed, calib)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        assert peaks[2] - peaks[1] < one_chunk

    @pytest.mark.parametrize("fail_at", [1, 5, 10, 13])
    def test_interrupted_run_leaves_none_of_its_set(
        self, toy3_path, compressed_dir, tmp_path, monkeypatch, capsys, fail_at
    ):
        # toy3's run writes 13 CSVs: 3 curves for each of 3 pairs, ranks.csv,
        # 2 correlation matrices and the summary.
        argv = ["analyze", str(toy3_path), str(compressed_dir / "model.json"), "-o",
                str(tmp_path / "a"), "--correlation", "--calib-count", "8"]
        assert main(argv) == EXIT_OK
        written = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert len(written) == 13
        notes = tmp_path / "a" / "notes.txt"
        notes.write_bytes(b"kept\x00 as is\n")
        calls, write_csv = [], degeneracy.write_csv

        def failing_write_csv(path, header, rows):
            calls.append(path)
            if len(calls) == fail_at:
                raise OSError("disk full")
            return write_csv(path, header, rows)

        monkeypatch.setattr(degeneracy, "write_csv", failing_write_csv)
        monkeypatch.setattr(cli, "write_csv", failing_write_csv)
        capsys.readouterr()
        assert main(argv) == EXIT_GENERIC
        assert "disk full" in capsys.readouterr().err
        assert len(calls) == fail_at
        assert [p.name for p in (tmp_path / "a").iterdir()] == ["notes.txt"]
        assert notes.read_bytes() == b"kept\x00 as is\n"
        monkeypatch.setattr(degeneracy, "write_csv", write_csv)
        monkeypatch.setattr(cli, "write_csv", write_csv)
        assert main(argv) == EXIT_OK
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == sorted(
            [*written, "notes.txt"])

    def test_analyze_takes_no_full_svd(self, toy3_path, compressed_dir, tmp_path, monkeypatch):
        def values_only(*args, compute_uv=True, **kwargs):
            assert not compute_uv, "a full SVD was taken"
            return svd(*args, compute_uv=compute_uv, **kwargs)

        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", values_only)
        assert main(["analyze", str(toy3_path), str(compressed_dir / "model.json"), "-o",
                     str(tmp_path / "a"), "--correlation", "--calib-count", "4"]) == EXIT_OK

    def test_uncompressed_model_is_plan_error(self, toy3_path, tmp_path):
        code = main(
            ["analyze", str(toy3_path), str(toy3_path), "-o", str(tmp_path / "a")]
        )
        assert code == EXIT_PLAN


class TestRounds:
    """``compress`` and ``analyze`` of a model that already holds pairs:
    round 1 decomposes toy3's c1, round 2 the c2 of round 1's output. Each
    fits and analyzes only the pairs it adds to the model it is given."""

    def compress(self, model, skip, out_dir, *flags):
        plan = out_dir.with_suffix(".plan.json")
        skips = [arg for layer in skip for arg in ("--skip-layer", layer)]
        assert main(["plan", str(model), "--degree", "constant", "--base-n", "1", *skips,
                     "-o", str(plan)]) == EXIT_OK
        return main(["compress", str(model), "--plan", str(plan), "-o", str(out_dir), *flags])

    @pytest.fixture
    def round1(self, toy3_path, tmp_path):
        out_dir = tmp_path / "r1"
        assert self.compress(toy3_path, ("c2", "c3"), out_dir, "--calib-count", "40") == EXIT_OK
        return out_dir

    @pytest.fixture
    def round2(self, round1, tmp_path):
        out_dir = tmp_path / "r2"
        assert self.compress(round1 / "model.json", ("c3",), out_dir,
                             "--calib-count", "40") == EXIT_OK
        return out_dir

    def test_second_round_fits_only_its_own_pair(self, round1, round2):
        first, second = (json.loads((out / "report.json").read_text()) for out in (round1, round2))
        assert [row["layer"] for row in second["layers"]] == ["c2"]
        row = second["layers"][0]
        assert row["residual_after"] < row["residual_before"]
        assert second["flops_before"] == first["flops_after"] == 75_816

    @pytest.mark.parametrize("original, layers", [("r1", ["c2"]), ("toy3", ["c1", "c2"])])
    def test_analyze_of_a_second_round(self, toy3_path, round2, tmp_path, original, layers):
        model = toy3_path if original == "toy3" else tmp_path / "r1" / "model.json"
        analysis = tmp_path / "a"
        assert main(["analyze", str(model), str(round2 / "model.json"), "-o",
                     str(analysis)]) == EXIT_OK
        with open(analysis / "ranks.csv", newline="") as fh:
            assert [row["layer"] for row in csv.DictReader(fh)] == layers
        assert sorted(p.name for p in analysis.glob("energy_*.csv")) == sorted(
            f"energy_{layer}_{curve}.csv" for layer in layers
            for curve in ("original", "group", "svd_baseline"))

    def test_rounds_write_the_bytes_of_one_round(self, toy3_path, tmp_path):
        # Round 1's pair is copied as float32 bytes, unread, and round 2
        # does not take it for one of its own pairs.
        r1, r2, both = tmp_path / "r1", tmp_path / "r2", tmp_path / "both"
        assert self.compress(toy3_path, ("c2", "c3"), r1, "--no-reconstruct") == EXIT_OK
        assert self.compress(r1 / "model.json", ("c3",), r2, "--no-reconstruct") == EXIT_OK
        assert self.compress(toy3_path, ("c3",), both, "--no-reconstruct") == EXIT_OK
        for name in ("model.json", "model.bin"):
            assert (r2 / name).read_bytes() == (both / name).read_bytes(), name


class TestPointwiseConv:
    """--force-1x1 and --energy-sigma on a network whose last conv is 1x1."""

    @pytest.fixture
    def compress_argv(self, tmp_path):
        rng = np.random.default_rng(50)
        layers = [
            LayerSpec(id="c1", kind="conv", conv=ConvWeights(
                3, 4, 3, pad=1, weights=rng.standard_normal((4, 3, 3, 3)))),
            LayerSpec(id="r1", kind="relu"),
            LayerSpec(id="pw", kind="conv", conv=ConvWeights(
                4, 6, 1, weights=rng.standard_normal((6, 4, 1, 1)), bias=rng.standard_normal(6))),
        ]
        model = save_model(NetworkSpec("pointwise", (3, 5, 5), layers), tmp_path / "pw.json")
        plan = CompressionPlan("constant", 2, {}, {"pw": 2}).save(tmp_path / "plan.json")
        return ["compress", str(model), "--plan", str(plan), "--no-reconstruct", "-o"]

    def test_force_1x1_decomposes_a_pointwise_conv(self, compress_argv, tmp_path, capsys):
        assert main([*compress_argv, str(tmp_path / "refused")]) == EXIT_PLAN
        assert "refusing to decompose a 1x1 convolution" in capsys.readouterr().err
        assert not (tmp_path / "refused" / "model.bin").exists()
        assert main([*compress_argv, str(tmp_path / "forced"), "--force-1x1"]) == EXIT_OK
        original = load_model(compress_argv[1])
        compressed = load_model(tmp_path / "forced" / "model.json")
        assert [layer.id for layer in compressed.layers] == ["c1", "r1", "pw.d", "pw.p"]
        d = compressed.layer("pw.d").conv
        assert (d.k, d.groups) == (1, 2)
        # Each 2 x 6 block of the 4 x 6 weight matrix has rank <= n = 2.
        x = np.random.default_rng(51).standard_normal(original.input_shape)
        assert np.allclose(forward(compressed, x), forward(original, x), atol=1e-10)

    def test_energy_sigma_accumulates_sigma(self, compress_argv, tmp_path):
        assert main([*compress_argv, str(tmp_path / "c"), "--force-1x1"]) == EXIT_OK
        analyze = ["analyze", compress_argv[1], str(tmp_path / "c" / "model.json"), "-o"]
        assert main([*analyze, str(tmp_path / "squared")]) == EXIT_OK
        assert main([*analyze, str(tmp_path / "sigma"), "--energy-sigma"]) == EXIT_OK
        for name in ("original", "group", "svd_baseline"):
            curves = {}
            for mode, weight in (("squared", np.square), ("sigma", np.asarray)):
                rows = np.loadtxt(tmp_path / mode / f"energy_pw_{name}.csv", delimiter=",",
                                  skiprows=1, ndmin=2)
                weights = weight(rows[:, 1])
                assert np.allclose(rows[:, 2], np.cumsum(weights) / weights.sum(), rtol=1e-12)
                curves[mode] = rows
            assert np.array_equal(curves["squared"][:, 1], curves["sigma"][:, 1])
            assert not np.allclose(curves["squared"][:-1, 2], curves["sigma"][:-1, 2])


class TestUsageErrors:
    """Input that needs no model fails at parse time with exit 2, before a
    model is loaded."""

    @pytest.fixture
    def no_load(self, monkeypatch):
        def load_model(path):
            raise AssertionError("a model was loaded before the usage check")

        monkeypatch.setattr("groupcompress.cli.load_model", load_model)

    @staticmethod
    def argv(command, model, out):
        return {
            "compress": ["compress", model, "-o", out, "--degree", "constant", "--base-n", "1"],
            "analyze": ["analyze", model, model, "-o", out, "--correlation"],
            "gen-fixtures": ["gen-fixtures", "toy3", "-o", out],
        }[command]

    @pytest.mark.parametrize(
        "command, flag",
        [("compress", "--calib-seed"), ("analyze", "--calib-seed"), ("gen-fixtures", "--seed")],
    )
    def test_negative_seed(self, toy3_path, tmp_path, capsys, no_load, command, flag):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([*self.argv(command, str(toy3_path), str(out)), flag, "-1"])
        assert exc.value.code == 2
        assert "must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags",
        [(command, flags) for command in ("compress", "analyze")
         for flags in (["--calib", "calib.json"], ["--calib-count", "8"], ["--calib-seed", "0"],
                       ["--calib-seed", "3", "--calib-count", "8"])]
        + [("compress", ["--ridge", "0.5"]), ("compress", ["--ridge", "0"]),
           ("compress", ["--no-intercept"]), ("compress", ["--symmetric-reconstruction"]),
           ("compress", ["--ridge", "0.5", "--no-intercept", "--symmetric-reconstruction"]),
           ("analyze", ["--corr-pre-activation"]),
           ("analyze", ["--corr-pre-activation", "--calib-count", "8"])],
        ids=[f"{command}-{name}" for command in ("compress", "analyze")
             for name in ("calib", "count", "seed", "seed-and-count")]
        + ["compress-ridge", "compress-ridge-0", "compress-no-intercept", "compress-symmetric",
           "compress-ridge-no-intercept-symmetric", "analyze-pre-activation",
           "analyze-pre-activation-and-count"])
    def test_calibration_flags_the_run_will_not_use(
        self, toy3_path, tmp_path, capsys, no_load, command, flags
    ):
        # compress --no-reconstruct, and analyze without --correlation: the
        # calibration flags, and the flags of the fit or the correlation.
        out = tmp_path / "o"
        argv = {
            "compress": ["compress", str(toy3_path), "-o", str(out), "--degree", "constant",
                         "--base-n", "1", "--no-reconstruct"],
            "analyze": ["analyze", str(toy3_path), str(toy3_path), "-o", str(out)],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, *flags])
        assert exc.value.code == 2
        given = ", ".join(sorted(flag for flag in flags if flag.startswith("--")))
        assert f"{given}: {command} " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--calib-count", "8"], ["--calib-seed", "0"],
                  ["--calib-seed", "3", "--calib-count", "8"]],
        ids=["count", "seed", "seed-and-count"])
    @pytest.mark.parametrize("command", ["compress", "analyze"])
    def test_calibration_count_or_seed_beside_calib(
        self, toy3_path, tmp_path, capsys, no_load, command, flags
    ):
        # compress when it reconstructs, and analyze --correlation: the
        # file gives the samples.
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([*self.argv(command, str(toy3_path), str(out)), "--calib", "calib.json", *flags])
        assert exc.value.code == 2
        given = ", ".join(sorted(flag for flag in flags if flag.startswith("--")))
        assert f"{given}: {command} takes its samples from --calib" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-a-file"])
    @pytest.mark.parametrize("command", ["compress", "analyze", "gen-fixtures"])
    def test_output_naming_a_file(self, toy3_path, tmp_path, capsys, no_load, command, below):
        out = tmp_path / "o"
        out.write_text("kept")
        with pytest.raises(SystemExit) as exc:
            main(self.argv(command, str(toy3_path), str(out / below)))
        assert exc.value.code == 2
        assert f"{out} exists and is not a directory" in capsys.readouterr().err
        assert out.read_text() == "kept"

    @pytest.mark.parametrize("kind", ["directory", "under-a-file"])
    def test_plan_output_that_is_no_file(self, toy3_path, tmp_path, capsys, no_load, kind):
        out = tmp_path / "o"
        if kind == "directory":
            out.mkdir()
            target, message = out, f"{out} is a directory"
        else:
            out.write_text("kept")
            target, message = out / "plan.json", f"{out} exists and is not a directory"
        with pytest.raises(SystemExit) as exc:
            main(["plan", str(toy3_path), "--degree", "constant", "--base-n", "1",
                  "-o", str(target)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert (not list(out.iterdir())) if kind == "directory" else out.read_text() == "kept"


    @pytest.mark.parametrize("base_n", ["0", "-3"])
    @pytest.mark.parametrize("command", ["plan", "compress"])
    def test_base_n_below_one(self, toy3_path, tmp_path, capsys, no_load, command, base_n):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, str(toy3_path), "--degree", "constant", "--base-n", base_n,
                  "-o", str(out)])
        assert exc.value.code == 2
        assert f"argument --base-n: must be at least 1, got {base_n}" in capsys.readouterr().err
        assert not out.exists()


_TRUNCATE = "compress {model} -o {out} --degree constant --base-n 1 --no-reconstruct"
_FIT = "compress {model} -o {out} --degree constant --base-n 1"
_EMPTY_PLAN = "compress {model} -o {out} --plan {empty_plan}"
_ANALYZE = "analyze {model} {model} -o {out}"


@pytest.mark.parametrize("argv, code, message", [
    # compress --no-reconstruct
    (f"{_TRUNCATE} --calib calib.json", 2, "--calib: compress reads these only when it"),
    (f"{_TRUNCATE} --calib-count 8", 2, "--calib-count: compress reads these only when it"),
    (f"{_TRUNCATE} --calib-seed 0", 2, "--calib-seed: compress reads these only when it"),
    (f"{_TRUNCATE} --ridge 0.5", 2, "--ridge: compress reads these only when it"),
    (f"{_TRUNCATE} --no-intercept", 2, "--no-intercept: compress reads these only when it"),
    (f"{_TRUNCATE} --symmetric-reconstruction", 2,
     "--symmetric-reconstruction: compress reads these only when it reconstructs"),
    # compress that reconstructs, beside --calib
    (f"{_FIT} --calib calib.json --calib-count 8", 2,
     "--calib-count: compress takes its samples from --calib"),
    (f"{_FIT} --calib calib.json --calib-seed 0", 2,
     "--calib-seed: compress takes its samples from --calib"),
    # compress with a plan that decomposes no layer
    (f"{_EMPTY_PLAN} --calib calib.json", 3, "--calib: the plan decomposes no layer"),
    (f"{_EMPTY_PLAN} --calib-count 8", 3, "--calib-count: the plan decomposes no layer"),
    (f"{_EMPTY_PLAN} --calib-seed 0", 3, "--calib-seed: the plan decomposes no layer"),
    (f"{_EMPTY_PLAN} --ridge 0.5", 3, "--ridge: the plan decomposes no layer"),
    (f"{_EMPTY_PLAN} --no-intercept", 3, "--no-intercept: the plan decomposes no layer"),
    (f"{_EMPTY_PLAN} --symmetric-reconstruction", 3,
     "--symmetric-reconstruction: the plan decomposes no layer, so compress reads none"),
    # compress with a second plan source, or half a schedule
    (f"{_EMPTY_PLAN} --preset vgg16_a", 3, "got --plan, --preset"),
    (f"{_EMPTY_PLAN} --degree constant", 3, "got --plan, --degree"),
    (f"{_EMPTY_PLAN} --base-n 1", 3, "got --plan, --base-n"),
    (f"{_FIT} --preset vgg16_a", 3, "got --preset, --degree, --base-n"),
    ("compress {model} -o {out} --degree constant", 3, "no plan given: pass --plan, --preset"),
    ("compress {model} -o {out} --base-n 1", 3, "no plan given: pass --plan, --preset"),
    # compress with a value that is no integer
    ("compress {model} -o {out} --degree constant --base-n x", 2,
     "argument --base-n: not an integer: 'x'"),
    # analyze without --correlation
    (f"{_ANALYZE} --calib calib.json", 2, "--calib: analyze reads these only with"),
    (f"{_ANALYZE} --calib-count 8", 2, "--calib-count: analyze reads these only with"),
    (f"{_ANALYZE} --calib-seed 0", 2, "--calib-seed: analyze reads these only with"),
    (f"{_ANALYZE} --corr-pre-activation", 2,
     "--corr-pre-activation: analyze reads these only with --correlation"),
    # analyze --correlation, beside --calib
    (f"{_ANALYZE} --correlation --calib calib.json --calib-count 8", 2,
     "--calib-count: analyze takes its samples from --calib"),
    (f"{_ANALYZE} --correlation --calib calib.json --calib-seed 0", 2,
     "--calib-seed: analyze takes its samples from --calib"),
])
def test_unread_flag_is_refused_before_any_read(toy3_path, tmp_path, capsys, monkeypatch,
                                                 argv, code, message):
    """Each flag of ``compress`` and ``analyze``, in each run that does not
    read it: exit 2 at parse time, or exit 3 once the plan is known, before
    any tensor, calibration file or sample is read."""
    paths = {"model": toy3_path, "out": tmp_path / "o", "empty_plan": tmp_path / "plan.json"}
    assert main(["plan", str(toy3_path), "--degree", "constant", "--base-n", "1",
                 "--skip-layer", "c1", "--skip-layer", "c2", "--skip-layer", "c3",
                 "-o", str(paths["empty_plan"])]) == EXIT_OK

    def no_read(*args, **kwargs):
        raise AssertionError("a tensor, calibration file or sample was read")

    for name, owner in (("slices", modelio._BlobTensor), ("synthetic", CalibrationSet),
                        ("from_file", CalibrationSet)):
        monkeypatch.setattr(owner, name, no_read)
    capsys.readouterr()
    try:
        exit_code = main([word.format(**paths) for word in argv.split()])
    except SystemExit as exc:
        exit_code = exc.code
    assert exit_code == code
    assert message in capsys.readouterr().err
    assert not paths["out"].exists()


class TestGenFixtures:
    def test_toy_fixture_roundtrip(self, tmp_path, capsys):
        code = main(["gen-fixtures", "toy4", "-o", str(tmp_path), "--seed", "5"])
        assert code == EXIT_OK
        net = load_model(tmp_path / "toy4.json")
        assert len(net.conv_layers()) == 4

    def test_resnet34_fixture_flops(self, tmp_path, capsys):
        code = main(["gen-fixtures", "resnet34", "-o", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "7,327,522,816" in out

    def test_resnet34_preset_d_measured_flops(self, tmp_path):
        # Depthwise-degree compression of the full network: the *measured*
        # FLOPs of the decomposed model must land on the published value.
        from groupcompress.model import network_flops

        assert main(["gen-fixtures", "resnet34", "-o", str(tmp_path)]) == EXIT_OK
        code = main(
            [
                "compress",
                str(tmp_path / "resnet34.json"),
                "-o",
                str(tmp_path / "d"),
                "--preset",
                "ours_res34_d",
                "--no-reconstruct",
            ]
        )
        assert code == EXIT_OK
        compressed = load_model(tmp_path / "d" / "model.json")
        total, _ = network_flops(compressed)
        assert abs(total - 1.11e9) <= 0.02 * 1.11e9

    def test_fixture_determinism(self, tmp_path):
        main(["gen-fixtures", "toy3", "-o", str(tmp_path / "a"), "--seed", "3"])
        main(["gen-fixtures", "toy3", "-o", str(tmp_path / "b"), "--seed", "3"])
        assert (tmp_path / "a/toy3.bin").read_bytes() == (
            tmp_path / "b/toy3.bin"
        ).read_bytes()
