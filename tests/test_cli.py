import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from groupcompress import model
from groupcompress.cli import (
    EXIT_FORMAT,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PLAN,
    main,
)
from groupcompress.fixtures import build_toy_cnn, build_toy_three
from groupcompress.degeneracy import filter_correlation, write_correlation_csv
from groupcompress.model import NetworkSpec, forward, stack_taps
from groupcompress.modelio import load_model, save_model
from groupcompress.reconstruct import CalibrationSet
from groupcompress.schedule import CompressionPlan

from nets import on_conv_forward, residual_net, toy_net


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
        ],
        ids=[
            "stride-0", "c_in-abc", "input_shape-abc", "layer-not-object", "pad-negative",
            "blob-not-name", "c_in-inf", "input_shape-inf", "input-list", "blob-directory",
            "stride-float", "input_shape-float", "groups-bool", "offset-float",
            "rank_n-float", "decomposed_from-list", "pool-pad-not-below-k",
        ],
    )
    def test_malformed_manifest_value_is_format_error(self, toy3_path, mutate, capsys):
        manifest = json.loads(toy3_path.read_text())
        mutate(manifest)
        toy3_path.write_text(json.dumps(manifest))
        assert main(["inspect", str(toy3_path)]) == EXIT_FORMAT
        assert "error" in capsys.readouterr().err


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
                "--calib-count",
                "64",
            ]
            if not flag:
                argv.append("--no-reconstruct")
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

        def no_svd(a):
            raise AssertionError("SVD ran before the id check")

        monkeypatch.setattr("groupcompress.linalg.svd", no_svd)
        code = main(
            ["compress", str(path), "-o", str(tmp_path / "o"), "--degree", "constant",
             "--base-n", "1", "--no-reconstruct"]
        )
        assert code == EXIT_PLAN
        err = capsys.readouterr().err
        assert "layer c1:" in err and "'c1.p'" in err

    def test_non_finite_weight_is_numeric_error_naming_layer(self, tmp_path, capsys):
        net = build_toy_three(seed=0)
        net.layer("c1").conv.weights[0, 0, 0, 0] = np.nan
        path = save_model(net, tmp_path / "m.json")
        out_dir = tmp_path / "o"
        code = main(
            ["compress", str(path), "-o", str(out_dir), "--degree", "constant",
             "--base-n", "1", "--no-reconstruct"]
        )
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "layer c1:" in err and "non-finite" in err
        assert not (out_dir / "model.bin").exists()

    def test_non_conv_plan_is_plan_error_before_any_svd(
        self, toy3_path, tmp_path, capsys, monkeypatch
    ):
        plan = CompressionPlan("constant", 1, {}, {"c1": 1, "r1": 1})
        plan = plan.save(tmp_path / "plan.json")

        def no_svd(a):
            raise AssertionError("SVD ran before the plan check")

        monkeypatch.setattr("groupcompress.linalg.svd", no_svd)
        out_dir = tmp_path / "o"
        code = main(["compress", str(toy3_path), "-o", str(out_dir), "--plan", str(plan)])
        assert code == EXIT_PLAN
        assert "'r1'" in capsys.readouterr().err
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

        def no_svd(a):
            raise AssertionError("SVD ran before the plan check")

        monkeypatch.setattr("groupcompress.linalg.svd", no_svd)
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

        def no_svd(a):
            raise AssertionError("SVD ran before the plan source check")

        monkeypatch.setattr("groupcompress.linalg.svd", no_svd)
        out_dir = tmp_path / "o"
        flags = [str(plan_path) if flag == "PLAN" else flag for flag in flags]
        code = main(["compress", str(toy3_path), "-o", str(out_dir), *flags])
        assert code == EXIT_PLAN
        assert f"got {named}" in capsys.readouterr().err
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

        on_conv_forward(monkeypatch, no_forward)
        out_dir = tmp_path / "o"
        code = main(["compress", str(path), "-o", str(out_dir), "--degree", "constant",
                     "--base-n", "1", "--calib-count", "1"])
        assert code == EXIT_NUMERIC
        assert "layer c3:" in capsys.readouterr().err
        assert not (out_dir / "model.bin").exists()

    def test_interrupted_report_write_leaves_no_report(self, toy3_path, tmp_path, monkeypatch):
        out_dir = tmp_path / "o"
        args = ["compress", str(toy3_path), "-o", str(out_dir), "--degree", "constant",
                "--base-n", "1", "--calib-count", "4"]
        assert main(args) == EXIT_OK

        # Break the report's write, whether it goes through json.dump or
        # Path.write_text, halfway through; the model files are written whole.
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
        assert sorted(p.name for p in out_dir.iterdir()) == ["model.bin", "model.json"]

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
        assert not list(analysis.iterdir())

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
        assert "calibration" in capsys.readouterr().err

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
        assert not list(analysis.iterdir())

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
    def test_correlation_walks_the_network_once(
        self, toy3_path, compressed_dir, tmp_path, monkeypatch, flags
    ):
        walks = []
        walk = model._walk

        def counting_walk(net, x):
            walks.append(net.name)
            return walk(net, x)

        monkeypatch.setattr(model, "_walk", counting_walk)
        analysis = tmp_path / "analysis"
        assert main(
            ["analyze", str(toy3_path), str(compressed_dir / "model.json"), "-o",
             str(analysis), "--correlation", "--calib-count", "8", *flags]
        ) == EXIT_OK
        assert len(walks) == 1
        # Each pair's CSV is byte-identical to one from a walk of its own.
        compressed = load_model(compressed_dir / "model.json")
        samples = CalibrationSet.synthetic(compressed.input_shape, 8, seed=0).samples
        summary = (analysis / "correlation_summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in summary] == ["c2", "c3"]
        for row in summary:
            src, _, tap, n = row.split(",")[:4]
            stacked = stack_taps(compressed, samples, [tap, f"{src}.d"])
            report = filter_correlation(stacked[tap], stacked[f"{src}.d"], block_size=int(n))
            write_correlation_csv(tmp_path / "expected.csv", report)
            expected = (tmp_path / "expected.csv").read_bytes()
            assert (analysis / f"correlation_{src}.csv").read_bytes() == expected
        assert len(walks) == 1 + len(summary)

    def test_uncompressed_model_is_plan_error(self, toy3_path, tmp_path):
        code = main(
            ["analyze", str(toy3_path), str(toy3_path), "-o", str(tmp_path / "a")]
        )
        assert code == EXIT_PLAN


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
