import itertools
import json
import math
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcompress import linalg, modelio, reconstruct
from groupcompress.decompose import decompose_layer, decompose_network, decomposed_pairs
from groupcompress.errors import CalibrationWarning, ModelFormatError, ShapeError
from groupcompress.fixtures import build_toy_cnn, build_toy_three
from groupcompress.model import (
    LAYER_KINDS, ConvWeights, Deferred, LayerSpec, NetworkSpec, array_fields, forward,
    layer_inputs, propagate_shapes,
)
from groupcompress.modelio import load_model, save_model
from groupcompress.reconstruct import (
    CalibrationSet,
    collect_responses,
    merge_pointwise_weights,
    reconstruct_network,
    solve_reconstruction,
)

from json_edits import cut_or_grow, edit_fields
from nets import on_conv_forward, residual_net, toy_net
from oracles import (
    per_layer_reconstruction, pinv_solve, residual_pass_reconstruction, symmetric_pair_response,
)


class TestCalibrationSet:
    def test_empty_set_rejected(self):
        with pytest.raises(ShapeError, match="at least one sample"):
            CalibrationSet(np.zeros((0, 3, 6, 6)))

    def test_synthetic_deterministic(self):
        a = CalibrationSet.synthetic((3, 6, 6), 5, seed=42)
        b = CalibrationSet.synthetic((3, 6, 6), 5, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_file_roundtrip(self, tmp_path):
        calib = CalibrationSet.synthetic((2, 4, 4), 7, seed=1)
        path = calib.save(tmp_path / "calib.json")
        loaded = CalibrationSet.from_file(path)
        assert loaded.count == 7
        assert loaded.sample_shape == (2, 4, 4)
        assert np.allclose(loaded.samples, calib.samples, atol=1e-6)

    @pytest.mark.parametrize("cpus, sizes", [(1, [1] * 7), (2, [2, 2, 2, 1]), (3, [3, 3, 1]),
                                             (7, [7]), (9, [7])])
    def test_chunks_are_views_of_one_sample_per_cpu(self, monkeypatch, cpus, sizes):
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
        calib = CalibrationSet.synthetic((2, 3, 3), 7, seed=4)
        chunks = list(calib.chunks())
        assert [len(chunk) for chunk in chunks] == sizes
        assert all(chunk.base is calib.samples for chunk in chunks)
        assert np.array_equal(np.concatenate(chunks), calib.samples)

    def test_truncated_blob_rejected(self, tmp_path):
        calib = CalibrationSet.synthetic((2, 4, 4), 3, seed=1)
        path = calib.save(tmp_path / "calib.json")
        blob = tmp_path / "calib.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(ModelFormatError, match="bytes"):
            CalibrationSet.from_file(path)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_calibration_raises_only_model_format_error(data):
    """Any edit of a calibration manifest's fields, or cut or growth of its
    bytes or of its blob, either loads or raises ModelFormatError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = CalibrationSet.synthetic((2, 3, 3), 2, seed=0).save(Path(tmp) / "calib.json")
        header = json.loads(path.read_text())
        edit_fields(data, header)
        path.write_bytes(cut_or_grow(data, json.dumps(header).encode(), "manifest"))
        blob = path.with_suffix(".bin")
        blob.write_bytes(cut_or_grow(data, blob.read_bytes(), "blob"))
        try:
            CalibrationSet.from_file(path)
        except ModelFormatError:
            pass


class TestCollectResponses:
    def test_lossless_prefix_gives_equal_responses(self):
        net = toy_net(seed=1, widths=(4, 4, 4))
        compressed, _ = decompose_network(net, {"c1": 4, "c2": 4})
        calib = CalibrationSet.synthetic((4, 6, 6), 4, seed=2)
        for layer_id in ("c1", "c2"):
            y, y_star = collect_responses(net, compressed, calib, layer_id)
            assert np.linalg.norm(y - y_star) <= 1e-8 * np.linalg.norm(y)

    def test_first_layer_has_no_upstream_error(self):
        # At the first decomposed layer Y* must equal patches @ D @ P + bias.
        net = toy_net(seed=3, widths=(3, 6, 6))
        compressed, _ = decompose_network(net, {"c1": 1, "c2": 2})
        calib = CalibrationSet.synthetic((3, 6, 6), 3, seed=4)
        y, y_star = collect_responses(net, compressed, calib, "c1")
        y_sym, y_star_sym = collect_responses(net, compressed, calib, "c1", symmetric=True)
        assert np.allclose(y, y_sym)
        assert np.allclose(y_star, y_star_sym, atol=1e-10)

    def test_asymmetric_differs_downstream(self):
        # After a truncated first layer, the compressed-prefix responses at
        # the second layer differ from the symmetric (original-input) ones.
        net = toy_net(seed=5, widths=(3, 6, 6))
        compressed, _ = decompose_network(net, {"c1": 1, "c2": 2})
        calib = CalibrationSet.synthetic((3, 6, 6), 3, seed=6)
        _, y_star_asym = collect_responses(net, compressed, calib, "c2")
        _, y_star_sym = collect_responses(net, compressed, calib, "c2", symmetric=True)
        assert np.linalg.norm(y_star_asym - y_star_sym) > 1e-6

    @pytest.mark.parametrize("build", [build_toy_cnn, residual_net], ids=["toy4", "residual"])
    def test_symmetric_matches_dense_pair_oracle(self, build):
        # Downstream of truncated layers, symmetric Y* is still the pair
        # applied to the original network's input at the layer.
        net = build(0)
        compressed, _ = decompose_network(net, {l.id: 1 for l in net.conv_layers()})
        calib = CalibrationSet.synthetic(net.input_shape, 3, seed=9)
        inputs = layer_inputs(net)
        ids = [l.id for l in net.layers]
        for pair in decomposed_pairs(compressed, net)[1:]:
            upto = ids.index(inputs[pair.source]) + 1
            prefix = NetworkSpec(net.name, net.input_shape, net.layers[:upto])
            expected = np.vstack(
                [symmetric_pair_response(forward(prefix, x), pair.d.conv, pair.p.conv)
                 for x in calib.samples]
            )
            _, y_star = collect_responses(net, compressed, calib, pair.source, symmetric=True)
            assert np.linalg.norm(y_star - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("build", [build_toy_cnn, residual_net], ids=["toy4", "residual"])
    def test_asymmetric_matches_compressed_prefix_oracle(self, build):
        # Asymmetric Y* is P's output in the compressed network: each sample
        # run on its own through the compressed layers up to P.
        net = build(0)
        compressed, _ = decompose_network(net, {l.id: 1 for l in net.conv_layers()})
        calib = CalibrationSet.synthetic(net.input_shape, 3, seed=9)
        ids = [l.id for l in compressed.layers]
        for pair in decomposed_pairs(compressed, net):
            upto = ids.index(pair.p.id) + 1
            prefix = NetworkSpec(net.name, net.input_shape, compressed.layers[:upto])
            expected = np.vstack(
                [forward(prefix, x).reshape(pair.p.conv.c_out, -1).T for x in calib.samples]
            )
            _, y_star = collect_responses(net, compressed, calib, pair.source)
            assert np.linalg.norm(y_star - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_not_decomposed_layer_rejected(self):
        net = toy_net(seed=7, widths=(3, 6, 6))
        compressed, _ = decompose_network(net, {"c1": 1})
        calib = CalibrationSet.synthetic((3, 6, 6), 2, seed=8)
        with pytest.raises(ShapeError, match="not decomposed"):
            collect_responses(net, compressed, calib, "c2")
        with pytest.raises(ShapeError, match="not found"):
            collect_responses(net, compressed, calib, "missing")


class TestSolveReconstruction:
    def test_identity_when_responses_match(self):
        rng = np.random.default_rng(10)
        y = rng.standard_normal((200, 4))
        a, delta = solve_reconstruction(y, y, ridge=0.0)
        assert np.allclose(a, np.eye(4), atol=1e-9)
        assert np.allclose(delta, 0.0, atol=1e-9)

    def test_recovers_planted_mixing_matrix(self):
        rng = np.random.default_rng(11)
        y_star = rng.standard_normal((500, 5))
        m = rng.standard_normal((5, 5))
        y = y_star @ m
        a, delta = solve_reconstruction(y, y_star, ridge=0.0)
        assert np.allclose(a, m, atol=1e-8)
        assert np.allclose(delta, 0.0, atol=1e-8)

    def test_matches_pinv_oracle_under_noise(self):
        rng = np.random.default_rng(12)
        y_star = rng.standard_normal((300, 4))
        noise = 0.05 * rng.standard_normal((300, 4))
        y = y_star + noise
        a, _ = solve_reconstruction(y, y_star, ridge=0.0, intercept=False)
        assert np.allclose(a, pinv_solve(y_star, y), atol=1e-9)
        residual = np.linalg.norm(y - y_star @ a)
        assert residual <= np.linalg.norm(noise) + 1e-12
        assert residual < np.linalg.norm(y - y_star)

    def test_intercept_absorbs_offset(self):
        rng = np.random.default_rng(13)
        y_star = rng.standard_normal((400, 3))
        offset = np.array([1.0, -2.0, 0.5])
        y = y_star + offset
        a, delta = solve_reconstruction(y, y_star, ridge=0.0)
        assert np.allclose(a, np.eye(3), atol=1e-8)
        assert np.allclose(delta, offset, atol=1e-8)

    def test_too_few_rows_advises_more_samples(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ShapeError, match="calibration samples"):
            solve_reconstruction(
                rng.standard_normal((3, 4)), rng.standard_normal((3, 4)), ridge=0.0
            )

    def test_thin_sampling_warns(self):
        rng = np.random.default_rng(15)
        y = rng.standard_normal((25, 4))
        with pytest.warns(CalibrationWarning):
            solve_reconstruction(y, y, ridge=0.0)

    @pytest.mark.parametrize("intercept", [True, False])
    @pytest.mark.parametrize("ridge", [float("nan"), float("inf")])
    def test_ridge_that_is_not_finite_raises(self, ridge, intercept):
        y = np.random.default_rng(16).standard_normal((100, 4))
        with pytest.raises(ValueError, match="ridge must be a finite number >= 0"):
            solve_reconstruction(y, y, ridge=ridge, intercept=intercept)


class TestMerge:
    def test_identity_merge_is_noop(self):
        rng = np.random.default_rng(20)
        w = ConvWeights(
            4, 6, 3, pad=1, weights=rng.standard_normal((6, 4, 3, 3)),
            bias=rng.standard_normal(6),
        )
        decomp = decompose_layer(w, 2)
        merged = merge_pointwise_weights(decomp.p_layer, np.eye(6), np.zeros(6))
        assert np.allclose(merged.weights, decomp.p_layer.weights, atol=1e-12)
        assert np.allclose(merged.bias, decomp.p_layer.bias, atol=1e-12)

    def test_merge_equals_separate_mixing_layer(self):
        rng = np.random.default_rng(21)
        w = ConvWeights(
            6, 5, 3, pad=1, weights=rng.standard_normal((5, 6, 3, 3)),
            bias=rng.standard_normal(5),
        )
        decomp = decompose_layer(w, 3)
        a = rng.standard_normal((5, 5))
        delta = rng.standard_normal(5)
        merged = merge_pointwise_weights(decomp.p_layer, a, delta)
        net_merged = NetworkSpec(
            "m",
            (6, 7, 7),
            [
                LayerSpec(id="d", kind="conv", conv=decomp.d_layer),
                LayerSpec(id="p", kind="conv", conv=merged),
            ],
        )
        for _ in range(3):
            x = rng.standard_normal((6, 7, 7))
            via_merged = forward(net_merged, x)
            net_split = NetworkSpec(
                "s",
                (6, 7, 7),
                [
                    LayerSpec(id="d", kind="conv", conv=decomp.d_layer),
                    LayerSpec(id="p", kind="conv", conv=decomp.p_layer),
                ],
            )
            y_sep = forward(net_split, x)
            mixed = np.einsum("chw,cd->dhw", y_sep, a) + delta[:, None, None]
            assert np.allclose(via_merged, mixed, atol=1e-10)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(22)
        w = ConvWeights(4, 6, 3, pad=1, weights=rng.standard_normal((6, 4, 3, 3)))
        decomp = decompose_layer(w, 2)
        with pytest.raises(ShapeError, match="6x6"):
            merge_pointwise_weights(decomp.p_layer, np.eye(4), np.zeros(4))


class TestReconstructNetwork:
    def test_residuals_never_increase(self):
        net = toy_net(seed=30, widths=(3, 6, 8, 8))
        compressed, _ = decompose_network(net, {"c1": 1, "c2": 1, "c3": 1})
        calib = CalibrationSet.synthetic((3, 6, 6), 60, seed=31)
        merged, reports = reconstruct_network(net, compressed, calib)
        assert len(reports) == 3
        for report in reports:
            assert report.residual_after <= report.residual_before + 1e-12

    def test_reconstruction_helps_on_calibration_data(self):
        net = toy_net(seed=32, widths=(3, 6, 8, 8))
        compressed, _ = decompose_network(net, {"c1": 1, "c2": 1, "c3": 1})
        calib = CalibrationSet.synthetic((3, 6, 6), 60, seed=33)
        merged, reports = reconstruct_network(net, compressed, calib)
        # Final-layer fit must strictly improve for a truncated net.
        assert reports[-1].residual_after < reports[-1].residual_before

        def total_output_error(candidate):
            err = 0.0
            for sample in calib.samples:
                err += np.sum((forward(net, sample) - forward(candidate, sample)) ** 2)
            return np.sqrt(err)

        assert total_output_error(merged) < total_output_error(compressed)

    def test_held_out_error_improves(self):
        net = toy_net(seed=34, widths=(3, 6, 6))
        compressed, _ = decompose_network(net, {"c1": 1, "c2": 2})
        fit = CalibrationSet.synthetic((3, 6, 6), 80, seed=35)
        held_out = CalibrationSet.synthetic((3, 6, 6), 40, seed=36)
        merged, _ = reconstruct_network(net, compressed, fit)

        def held_out_error(candidate):
            err = 0.0
            for sample in held_out.samples:
                err += np.sum((forward(net, sample) - forward(candidate, sample)) ** 2)
            return np.sqrt(err)

        assert held_out_error(merged) <= held_out_error(compressed)

    def test_deterministic_given_seed(self):
        net = toy_net(seed=37, widths=(3, 6, 6))
        results = []
        for _ in range(2):
            compressed, _ = decompose_network(net, {"c1": 1, "c2": 2})
            calib = CalibrationSet.synthetic((3, 6, 6), 30, seed=38)
            merged, _ = reconstruct_network(net, compressed, calib)
            results.append(merged.layer("c2.p").conv.weights.copy())
        assert np.array_equal(results[0], results[1])

    def test_sequential_contract_earlier_layers_final(self):
        # The second layer's report must reflect the *merged* first layer:
        # reconstructing c1 changes c2's pre-merge residual.
        net = toy_net(seed=39, widths=(3, 6, 6))
        compressed, _ = decompose_network(net, {"c1": 1, "c2": 2})
        calib = CalibrationSet.synthetic((3, 6, 6), 50, seed=40)
        _, reports = reconstruct_network(net, compressed, calib)
        y, y_star_unmerged = collect_responses(net, compressed, calib, "c2")
        unmerged_before = float(np.linalg.norm(y - y_star_unmerged))
        assert reports[1].residual_before != pytest.approx(unmerged_before, rel=1e-6)


def test_reported_n_is_the_pairs_when_manifest_omits_rank_n(tmp_path):
    """rank_n is optional provenance: a pair's n comes from D, and the
    loaded pairs reconstruct."""
    net = build_toy_three(seed=5)
    compressed, _ = decompose_network(net, {"c1": 1, "c2": 2, "c3": 4})
    path = save_model(compressed, tmp_path / "model.json")
    manifest = json.loads(path.read_text())
    for layer in manifest["layers"]:
        layer.pop("rank_n", None)
    path.write_text(json.dumps(manifest))
    loaded = load_model(path)
    assert [pair.n for pair in decomposed_pairs(loaded, net)] == [1, 2, 4]
    calib = CalibrationSet.synthetic(net.input_shape, 40, seed=6)
    _, fits = reconstruct_network(net, loaded, calib)
    assert len(fits) == 3


def force_fallback(monkeypatch, call: int = 2):
    """Make the ``call``-th ``linalg.LeastSquares.solve`` from now on
    return A = -I and a zero bias correction, a merge that raises any
    nonzero residual, so that its pair falls back."""
    solve, calls = linalg.LeastSquares.solve, itertools.count(1)

    def forced(fit, ridge):
        solution = solve(fit, ridge)
        return -np.eye(*solution.shape) if next(calls) == call else solution

    monkeypatch.setattr(linalg.LeastSquares, "solve", forced)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("symmetric", [False, True], ids=["asymmetric", "symmetric"])
def test_fallback_matches_the_residual_pass(monkeypatch, cpus, symmetric):
    # Pair c2 falls back. The unmerged P then runs into the arrays that
    # the merged P wrote, so c3 reads the same bits as when no merged P
    # ran (the residual pass), and the fits agree; residual_after differs
    # in rounding only, where it comes from the merged P's output rather
    # than from Y* A + delta. Seven samples, so chunks of two leave one
    # short.
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
    net = build_toy_three(0)
    compressed, _ = decompose_network(net, {l.id: 1 for l in net.conv_layers()})
    calib = CalibrationSet.synthetic(net.input_shape, 7, seed=29)
    force_fallback(monkeypatch)
    got, got_fits = reconstruct_network(net, compressed, calib, symmetric=symmetric)
    force_fallback(monkeypatch)
    want, want_fits = residual_pass_reconstruction(net, compressed, calib, symmetric=symmetric)
    assert [fit.identity_fallback for fit in got_fits] == [False, True, False]
    for got_fit, want_fit in zip(got_fits, want_fits, strict=True):
        assert replace(got_fit, residual_after=0.0) == replace(want_fit, residual_after=0.0)
        assert math.isclose(got_fit.residual_after, want_fit.residual_after, rel_tol=1e-12)
    for got_layer, want_layer in zip(got.conv_layers(), want.conv_layers(), strict=True):
        assert np.array_equal(got_layer.conv.weights, want_layer.conv.weights)
        assert np.array_equal(got_layer.conv.bias, want_layer.conv.bias)
    assert got.layer("c2.p").conv is compressed.layer("c2.p").conv


class TestOnePass:
    """reconstruct_network walks each network once per chunk of samples and
    gives exactly what the per-layer loop gives."""

    @pytest.mark.filterwarnings("ignore::groupcompress.errors.RankDeficiencyWarning")
    @pytest.mark.parametrize(
        "options",
        [{}, {"symmetric": True}, {"ridge": 0.0}, {"intercept": False}],
        ids=["default", "symmetric", "ridge0", "no-intercept"],
    )
    @pytest.mark.parametrize(
        "build, first",
        [(build, first) for first in (0, 1) for build in (build_toy_three, build_toy_cnn, residual_net)],
        ids=[f"{name}{plan}" for plan in ("", "-from-second-conv")
             for name in ("toy3", "toy4", "residual")],
    )
    def test_matches_per_layer_loop(self, build, options, first):
        # The statistics sum the rows in another order than the stacked
        # solve, so values agree to 1e-8 relative, and the choices exactly.
        net = build(0)
        compressed, _ = decompose_network(net, {l.id: 1 for l in net.conv_layers()[first:]})
        calib = CalibrationSet.synthetic(net.input_shape, 12, seed=17)
        merged, reports = reconstruct_network(net, compressed, calib, **options)
        expected, expected_reports = per_layer_reconstruction(net, compressed, calib, **options)
        assert len(reports) == len(expected_reports)
        for got, want in zip(reports, expected_reports):
            assert (got.sample_rows, got.identity_fallback) == (
                want.sample_rows, want.identity_fallback)
            for field in ("residual_before", "residual_after", "ridge"):
                assert math.isclose(getattr(got, field), getattr(want, field), rel_tol=1e-8)
        assert [l.id for l in merged.layers] == [l.id for l in expected.layers]
        for got, want in zip(merged.layers, expected.layers):
            if got.kind == "conv":
                for array in ("weights", "bias"):
                    got_array, want_array = getattr(got.conv, array), getattr(want.conv, array)
                    if want_array is None:
                        assert got_array is None
                        continue
                    assert np.linalg.norm(got_array - want_array) <= 1e-8 * np.linalg.norm(
                        want_array)

    @pytest.mark.filterwarnings("ignore::groupcompress.errors.RankDeficiencyWarning")
    @pytest.mark.parametrize(
        "options",
        [{}, {"symmetric": True}, {"ridge": 0.0}, {"intercept": False}],
        ids=["default", "symmetric", "ridge0", "no-intercept"],
    )
    def test_bytes_do_not_depend_on_the_chunk_size(self, monkeypatch, options):
        # Chunks of one sample, of five (the last one ragged) and one chunk
        # of every sample: the statistics take the samples one at a time,
        # in order, so the merged weights and fits are the same bits.
        net = residual_net()
        compressed, _ = decompose_network(net, {l.id: 1 for l in net.conv_layers()})
        calib = CalibrationSet.synthetic(net.input_shape, 12, seed=17)
        runs = []
        for cpus in (1, 5, calib.count):
            monkeypatch.setattr(linalg, "_usable_cpus", lambda cpus=cpus: cpus)
            runs.append(reconstruct_network(net, compressed, calib, **options))
        (merged, fits), rest = runs[0], runs[1:]
        for other, other_fits in rest:
            assert other_fits == fits
            for got, want in zip(other.conv_layers(), merged.conv_layers(), strict=True):
                assert np.array_equal(got.conv.weights, want.conv.weights)
                assert np.array_equal(got.conv.bias, want.conv.bias)

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("symmetric, first", [(False, 0), (False, 1), (True, 0)],
                             ids=["every-conv", "from-second-conv", "symmetric"])
    def test_each_conv_runs_once_per_chunk(self, monkeypatch, cpus, symmetric, first):
        # The samples go in chunks of one per CPU, and each chunk's walks run
        # each conv once: the original network's, and in the asymmetric mode
        # the compressed network's. Planned from c2 on, both networks start
        # with c1 and r1: the compressed walk forks from the original's after
        # them, so the stem conv c1 runs once per chunk, not once per network.
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
        net = residual_net()
        compressed, _ = decompose_network(net, {l.id: 1 for l in net.conv_layers()[first:]})
        calib = CalibrationSet.synthetic(net.input_shape, 3, seed=19)
        calls = []
        on_conv_forward(monkeypatch, lambda layer: calls.append(layer.id))
        reconstruct_network(net, compressed, calib, symmetric=symmetric)
        chunks = -(-calib.count // cpus)
        convs = {l.id for n in ([net] if symmetric else [net, compressed]) for l in n.conv_layers()}
        assert Counter(calls) == Counter(dict.fromkeys(convs, chunks))

    @pytest.mark.parametrize("fallback", [False, True], ids=["merged", "fallback"])
    @pytest.mark.parametrize("first", [0, 1], ids=["every-conv", "from-second-conv"])
    def test_merged_layer_writes_into_the_walk_output(self, monkeypatch, first, fallback):
        # Each merged P layer runs straight into the array each chunk's
        # compressed walk returned as P's output, which deeper layers then
        # read. Where the second pair is made to fall back, its unmerged P
        # then runs into the same arrays. One CPU, so three samples make
        # three chunks.
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 1)
        net = residual_net()
        compressed, pairs = decompose_network(
            net, {l.id: 1 for l in net.conv_layers()[first:]})
        calib = CalibrationSet.synthetic(net.input_shape, 3, seed=19)
        if fallback:
            force_fallback(monkeypatch)
        pair_outputs, run = reconstruct._pair_outputs, reconstruct._run
        returned, runs = {}, []

        def recording_pair_outputs(original_walk, compressed_walk, pair):
            outputs = pair_outputs(original_walk, compressed_walk, pair)
            returned.setdefault(pair.p.id, []).append(outputs[2])
            return outputs

        def recording_run(layer, x, other=None, out=None):
            runs.append((layer, out))
            return run(layer, x, other, out)

        monkeypatch.setattr(reconstruct, "_pair_outputs", recording_pair_outputs)
        monkeypatch.setattr(reconstruct, "_run", recording_run)
        _, fits = reconstruct_network(net, compressed, calib)
        assert [fit.identity_fallback for fit in fits] == [
            fallback and i == 1 for i in range(len(pairs))]
        assert all(len(returned[pair.p.id]) == calib.count for pair in pairs)
        expected = [(pair.p.id, unmerged, out) for pair, fit in zip(pairs, fits)
                    for unmerged in (False, True)[: 1 + fit.identity_fallback]
                    for out in returned[pair.p.id]]
        assert len(runs) == len(expected)
        for (layer, out), (p_id, unmerged, target) in zip(runs, expected):
            assert layer.id == p_id and out is target
            assert (layer is compressed.layer(p_id)) == unmerged

    @pytest.mark.parametrize("ridge", [-1.0, float("nan"), float("inf")])
    def test_bad_ridge_fails_before_any_forward(self, monkeypatch, ridge):
        net = build_toy_three(0)
        compressed, _ = decompose_network(net, {l.id: 1 for l in net.conv_layers()})

        def no_forward(layer):
            raise AssertionError("a forward pass ran before the ridge check")

        on_conv_forward(monkeypatch, no_forward)
        with pytest.raises(ValueError, match="ridge must be a finite number >= 0"):
            reconstruct_network(net, compressed, CalibrationSet.synthetic(net.input_shape, 8),
                                ridge=ridge)

    def test_too_few_rows_fail_before_any_forward(self, monkeypatch):
        # One 3x3 sample gives 9 rows: enough for c1 and c2, not for c3's
        # 16 channels plus intercept.
        net = toy_net(seed=41, widths=(3, 6, 8, 16), size=3)
        compressed, _ = decompose_network(net, {"c1": 1, "c2": 1, "c3": 1})

        def no_forward(layer):
            raise AssertionError("a forward pass ran before the row check")

        on_conv_forward(monkeypatch, no_forward)
        with pytest.raises(ShapeError, match="layer c3: 1 calibration samples give 9 "):
            reconstruct_network(net, compressed, CalibrationSet.synthetic((3, 3, 3), 1))

    def test_thin_layers_warn_before_any_forward(self, monkeypatch):
        # Two 6x6 samples give 72 rows: 10 per output channel for c1's 6,
        # fewer for the 8 of c2 and c3. The warnings come from the shapes,
        # so they come although every conv forward fails.
        net = build_toy_three(0)
        compressed, _ = decompose_network(net, {l.id: 1 for l in net.conv_layers()})

        def no_forward(layer):
            raise AssertionError("a conv forward ran")

        on_conv_forward(monkeypatch, no_forward)
        with pytest.warns(CalibrationWarning) as record, pytest.raises(AssertionError):
            reconstruct_network(net, compressed, CalibrationSet.synthetic(net.input_shape, 2))
        assert [str(w.message) for w in record if w.category is CalibrationWarning] == [
            f"layer {layer_id}: only 72 rows for 8 output channels; recommend >= 80"
            for layer_id in ("c2", "c3")]


def read_and_hold(net):
    """Read every parameter array of ``net`` through its field, so that its
    record keeps it: what a walk of the original did before reconstruction
    read each source conv for one pass."""
    for layer in net.layers:
        if LAYER_KINDS[layer.kind]:
            params = getattr(layer, LAYER_KINDS[layer.kind][0])
            for name, *_ in array_fields(params):
                getattr(params, name)
    return net


def source_tensors(pairs):
    """The blob fields of the planned source convs' tensors, as
    ``modelio.load_model`` names them."""
    return [f"layer {pair.source} {name}" for pair in pairs for name in ("weights", "bias")]


class TestSourcesReadForOnePass:
    """The original walk reads each planned source conv once per run, for
    the chunks that pass it, and the loaded original keeps none of them."""

    @pytest.mark.filterwarnings("ignore::groupcompress.errors.RankDeficiencyWarning")
    @pytest.mark.parametrize(
        "options",
        [{}, {"symmetric": True}, {"ridge": 0.0}, {"intercept": False}],
        ids=["default", "symmetric", "ridge0", "no-intercept"],
    )
    @pytest.mark.parametrize("build", [residual_net, build_toy_cnn], ids=["residual", "toy4"])
    def test_same_bits_and_reads_as_held_records(self, tmp_path, monkeypatch, build, options):
        # Seven samples in chunks of 1, 2 and 5: 7, 4 and 2 chunks, the
        # last two short. The same run on an original whose records were
        # read up front and held gives the same bits, and each source
        # tensor is read once whatever the chunk count: the pair is factored
        # while the chunks pass its source, from the same read.
        path = save_model(build(0), tmp_path / "net.json")
        calib = CalibrationSet.synthetic(load_model(path).input_shape, 7, seed=23)
        reads = Counter()
        blob_read = modelio._BlobTensor.read

        def counted_read(tensor):
            reads[tensor.field] += 1
            return blob_read(tensor)

        monkeypatch.setattr(modelio._BlobTensor, "read", counted_read)
        for cpus in (1, 2, 5):
            monkeypatch.setattr(linalg, "_usable_cpus", lambda cpus=cpus: cpus)
            held = read_and_hold(load_model(path))
            held_compressed, _ = decompose_network(held, {l.id: 1 for l in held.conv_layers()})
            want, want_fits = reconstruct_network(held, held_compressed, calib, **options)
            net = load_model(path)
            compressed, pairs = decompose_network(net, {l.id: 1 for l in net.conv_layers()})
            reads.clear()
            got, got_fits = reconstruct_network(net, compressed, calib, **options)
            assert got_fits == want_fits
            for got_layer, want_layer in zip(got.conv_layers(), want.conv_layers(), strict=True):
                assert np.array_equal(got_layer.conv.weights, want_layer.conv.weights)
                assert np.array_equal(got_layer.conv.bias, want_layer.conv.bias)
            sources = source_tensors(pairs)
            assert {field: reads[field] for field in sources} == dict.fromkeys(sources, 1)
            for pair in pairs:
                record = net.layer(pair.source).conv
                assert all(isinstance(value, Deferred) for *_, value in array_fields(record))


def live_values(net, layer_id):
    """Values per sample of the outputs a walk of ``net`` holds once it has
    run ``layer_id``: that layer's, and each one a later layer reads."""
    shapes, inputs = propagate_shapes(net), layer_inputs(net)
    ids = [layer.id for layer in net.layers]
    stop = ids.index(layer_id)
    read_later = {read for layer in net.layers[stop + 1 :]
                  for read in (inputs[layer.id], layer.source)}
    return sum(math.prod(shapes[i]) for i in ids[: stop + 1] if i == layer_id or i in read_later)


@pytest.mark.parametrize("symmetric", [False, True], ids=["asymmetric", "symmetric"])
def test_memory_per_sample_is_the_live_maps(monkeypatch, symmetric):
    """Each added sample costs the maps the walks hold at a pair, and D's
    output, which the merged P runs on: the rows of a solve are never
    stacked over the samples. In symmetric mode only the original network
    is walked, and a chunk holds D's output, not P's. One CPU, so chunks
    of one sample, and a first run untraced, so that both traced runs find
    the same caches."""
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 1)
    net = residual_net(width=16, size=12)
    compressed, pairs = decompose_network(net, {l.id: 1 for l in net.conv_layers()})
    shapes = propagate_shapes(compressed)
    per_sample = 8 * max(
        live_values(net, pair.source) + math.prod(shapes[pair.d.id])
        + (0 if symmetric else live_values(compressed, pair.p.id)) for pair in pairs)
    # Each chunk's walks also hold Python objects (layer tables, array
    # headers): a few KB, less than half of any pair's response map,
    # while one stack of a pair's rows adds a whole response map per sample.
    margin = 8 * min(math.prod(shapes[pair.p.id]) for pair in pairs) // 2
    peaks = []
    for count in (4, 4, 20):
        calib = CalibrationSet.synthetic(net.input_shape, count, seed=20)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            reconstruct_network(net, compressed, calib, symmetric=symmetric)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    assert peaks[2] - peaks[1] <= (20 - 4) * (per_sample + margin)


def test_memory_holds_one_source_conv_at_a_time(tmp_path, monkeypatch):
    """Reconstruction reads each planned source conv of a loaded original
    for the chunks that pass it and drops it after them, so its peak
    exceeds that of the same run on an original whose records were read
    and held up front by at most the largest source conv: its float64
    arrays, the float32 buffer its read fills, and the margin per sample
    of ``test_memory_per_sample_is_the_live_maps``. The maps, scratch and
    statistics, the same in both runs, cancel. A wide net on small maps,
    so that each source conv outweighs the live maps, and one CPU."""
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 1)
    path = save_model(residual_net(width=64, size=4), tmp_path / "wide.json")
    calib = CalibrationSet.synthetic((3, 4, 4), 8, seed=20)

    def traced_peak(held: bool) -> int:
        net = load_model(path)
        compressed, _ = decompose_network(net, {l.id: 1 for l in net.conv_layers()})
        read_and_hold(compressed)  # D and P, read by the walks of either run
        if held:
            read_and_hold(net)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            reconstruct_network(net, compressed, calib)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    net = load_model(path)
    compressed, pairs = decompose_network(net, {l.id: 1 for l in net.conv_layers()})
    largest = max((net.layer(pair.source).conv for pair in pairs),
                  key=lambda conv: conv.weights.size)
    read_buffer = 4 * min(largest.weights.size, modelio.SLICE_VALUES)
    margin = 8 * min(math.prod(shape) for layer_id, shape in propagate_shapes(
        compressed).items() if layer_id.endswith(".p")) // 2
    with pytest.warns(CalibrationWarning):
        traced_peak(held=False)  # unused, so that both compared runs find the same caches
        extra = traced_peak(held=False) - traced_peak(held=True)
    assert extra <= largest.weights.nbytes + largest.bias.nbytes + read_buffer + (
        calib.count * margin)


class TestOriginalMustMatch:
    """Each (D, P) pair must be the pair of the conv it names in the original
    network, checked before either network is walked."""

    @staticmethod
    def mismatched(fault):
        net = toy_net(seed=43, widths=(3, 6, 6, 6))
        compressed, _ = decompose_network(net, {"c1": 1, "c2": 2})
        if fault == "missing":  # the original names its second conv x2
            layers = [replace(l, id="x2") if l.id == "c2" else l for l in net.layers]
            return NetworkSpec(net.name, net.input_shape, layers), compressed
        return toy_net(seed=43, widths=(3, 6, 8, 6)), compressed  # c2 is 6 -> 8

    @pytest.mark.parametrize("fault", ["missing", "wider"])
    def test_mismatched_original_fails_before_any_forward(self, monkeypatch, fault):
        original, compressed = self.mismatched(fault)
        calib = CalibrationSet.synthetic((3, 6, 6), 8, seed=44)

        def no_forward(layer):
            raise AssertionError("a forward pass ran before the pair check")

        on_conv_forward(monkeypatch, no_forward)
        with pytest.raises(ModelFormatError, match="decomposed_from='c2'"):
            reconstruct_network(original, compressed, calib)
        with pytest.raises(ModelFormatError, match="decomposed_from='c2'"):
            collect_responses(original, compressed, calib, "c1")


class TestSharing:
    """Outputs share the arrays of unchanged layers; inputs are never written."""

    @staticmethod
    def saved_bytes(net, path):
        save_model(net, path)
        return path.read_bytes(), path.with_suffix(".bin").read_bytes()

    def test_inputs_unchanged_and_untouched_layers_shared(self, tmp_path):
        net = build_toy_three(seed=0)
        original_bytes = self.saved_bytes(net, tmp_path / "orig.json")
        compressed, _ = decompose_network(net, {"c1": 1, "c2": 2})
        compressed_bytes = self.saved_bytes(compressed, tmp_path / "comp.json")
        calib = CalibrationSet.synthetic(net.input_shape, 40, seed=1)
        merged, _ = reconstruct_network(net, compressed, calib)

        assert self.saved_bytes(net, tmp_path / "orig.json") == original_bytes
        assert self.saved_bytes(compressed, tmp_path / "comp.json") == compressed_bytes
        for derived in (compressed, merged):
            assert np.shares_memory(
                derived.layer("c3").conv.weights, net.layer("c3").conv.weights
            )
        assert np.shares_memory(
            merged.layer("c1.d").conv.weights, compressed.layer("c1.d").conv.weights
        )
