import functools
import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


model_diff = load_tool("model_diff")
output_digests = load_tool("output_digests")


def write_blob(path: Path, values) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    np.asarray(values, dtype="<f4").tofile(path)


class TestModelDiff:
    def test_counts_differing_values_and_largest_relative_difference(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(model_diff, "SLICE", 3)  # the changes span slices
        values = np.arange(1.0, 9.0)
        changed = values.copy()
        changed[[1, 6]] = [2.5, 7.0 * (1 + 1e-6)]
        write_blob(tmp_path / "a" / "same" / "model.bin", values)
        write_blob(tmp_path / "b" / "same" / "model.bin", values)
        write_blob(tmp_path / "a" / "changed" / "model.bin", values)
        write_blob(tmp_path / "b" / "changed" / "model.bin", changed)
        write_blob(tmp_path / "a" / "only-a" / "model.bin", values)
        assert model_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "changed/model.bin: 2 of 8 float32 values differ, "
            "largest relative difference 0.2, norm-wise 0.0348",
            "same/model.bin: 0 of 8 float32 values differ, "
            "largest relative difference 0, norm-wise 0",
        ]

    def test_identical_trees_exit_0_and_sizes_are_compared(self, tmp_path, capsys):
        write_blob(tmp_path / "a" / "model.bin", [1.0, -0.0])
        write_blob(tmp_path / "b" / "model.bin", [1.0, -0.0])
        assert model_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        write_blob(tmp_path / "b" / "model.bin", [1.0])
        assert model_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        assert "sizes differ (8 vs 4 bytes)" in capsys.readouterr().out

    def test_float64_files_are_compared_as_float64(self, tmp_path, capsys):
        values = np.array([1.0, -2.0, 3.0])
        changed = values.copy()
        changed[2] = np.nextafter(3.0, 4.0)  # a difference float32 cannot hold
        for root, data in (("a", values), ("b", changed)):
            (tmp_path / root / "toy3").mkdir(parents=True)
            data.astype("<f8").tofile(tmp_path / root / "toy3" / "forward_compressed.f64")
            values.astype("<f8").tofile(tmp_path / root / "toy3" / "forward_original.f64")
        assert model_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "toy3/forward_compressed.f64: 1 of 3 float64 values differ, "
            "largest relative difference 1.48e-16, norm-wise 1.19e-16",
            "toy3/forward_original.f64: 0 of 3 float64 values differ, "
            "largest relative difference 0, norm-wise 0",
        ]


def test_one_cpu_rerun_names_each_file_written_differently(tmp_path, monkeypatch):
    # As the tool's main sets them: it runs in its output directory, on
    # relative paths, with one BLAS thread, and the package of this checkout.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    output_digests.groupcompress("gen-fixtures", "toy3", "-o", "fixtures")
    argv_for = functools.partial(output_digests.toy_compress_argv, "toy3", ())
    out_dir = Path("toy3")
    output_digests.groupcompress(*argv_for(out_dir))
    runs = [(out_dir, argv_for)]
    assert output_digests.one_cpu_differences(runs) == []
    model = out_dir / "model.bin"
    data = bytearray(model.read_bytes())
    data[len(data) // 2] ^= 1
    model.write_bytes(data)
    assert output_digests.one_cpu_differences(runs) == [model]


def test_children_run_with_the_blas_thread_variables_removed(monkeypatch):
    # The tool pins BLAS itself, so no child may inherit a caller's pin.
    envs = []
    monkeypatch.setattr(output_digests.subprocess, "run", lambda argv, **kw: envs.append(kw["env"]))
    for name in output_digests.BLAS_THREAD_VARS:
        monkeypatch.setenv(name, "1")
    output_digests.groupcompress("inspect", "model.json")
    output_digests.groupcompress("inspect", "model.json", cpus={0})
    assert len(envs) == 2
    assert not any(name in env for env in envs for name in output_digests.BLAS_THREAD_VARS)
