import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcompress.decompose import decompose_network
from groupcompress.errors import PlanError
from groupcompress.fixtures import build_resnet34, build_toy_three, build_vgg16
from groupcompress.model import network_flops
from groupcompress import schedule
from groupcompress.schedule import (
    CompressionPlan,
    build_plan,
    list_presets,
    load_preset,
    plan_from_preset,
    predict_flops,
    stage_order,
)

from json_edits import cut_or_grow, edit_fields, same_json


@pytest.fixture(scope="module")
def resnet():
    return build_resnet34(seed=None)


@pytest.fixture(scope="module")
def vgg():
    return build_vgg16(seed=None)


class TestBuildPlan:
    def test_quarter_geometric_progression(self, resnet):
        plan = build_plan(resnet, "quarter", 8, skip_stages=["conv1", "conv5_x"])
        assert plan.stage_ns == {"conv2_x": 8, "conv3_x": 32, "conv4_x": 128}
        sequence = list(plan.stage_ns.values())
        assert all(b == 4 * a for a, b in zip(sequence, sequence[1:]))

    def test_half_geometric_progression(self):
        net = build_toy_three()
        # Two labels so fake a deeper net via resnet stages instead.
        resnet = build_resnet34(seed=None)
        plan = build_plan(resnet, "half", 4, skip_stages=["conv1"])
        assert list(plan.stage_ns.values()) == [4, 8, 16, 32]

    def test_constant(self, resnet):
        plan = build_plan(resnet, "constant", 1, skip_stages=["conv1"])
        assert set(plan.stage_ns.values()) == {1}
        assert all(n == 1 for n in plan.layer_ranks.values())

    def test_skip_stage_excluded(self, resnet):
        plan = build_plan(resnet, "quarter", 8, skip_stages=["conv1", "conv5_x"])
        conv5_layers = [
            l.id
            for l in resnet.conv_layers()
            if l.stage == "conv5_x" and l.conv.k > 1
        ]
        assert conv5_layers
        assert not any(l in plan.layer_ranks for l in conv5_layers)
        assert set(conv5_layers) <= set(plan.skipped_layers)

    def test_pointwise_convs_never_planned(self, resnet):
        plan = build_plan(resnet, "quarter", 1, skip_stages=["conv1"])
        for layer in resnet.conv_layers():
            if layer.conv.k == 1:
                assert layer.id not in plan.layer_ranks

    def test_divisor_clamp(self):
        net = build_toy_three(seed=0)  # widths 3 -> 6 -> 8 -> 8, one stage
        plan = build_plan(net, "constant", 4)
        # c1 has c_in=3: clamp 4 -> 3; c2 has c_in=6: clamp 4 -> 3; c3 c_in=8: 4 ok
        assert plan.layer_ranks == {"c1": 3, "c2": 3, "c3": 4}
        assert len(plan.adjustments) == 2

    def test_stage_caps(self, resnet):
        plan = build_plan(
            resnet, "quarter", 1, stage_caps={"conv4_x": 8}, skip_stages=["conv1"]
        )
        assert plan.stage_ns["conv4_x"] == 8
        assert plan.stage_ns["conv5_x"] == 64
        assert any("capped" in a for a in plan.adjustments)

    def test_unknown_degree_and_stage(self, resnet):
        with pytest.raises(PlanError, match="degree"):
            build_plan(resnet, "slope", 1)
        with pytest.raises(PlanError, match="skip stages"):
            build_plan(resnet, "quarter", 1, skip_stages=["conv9_x"])

    @pytest.mark.parametrize(
        "caps, named",
        [({"conv9_x": 8}, "conv9_x"), ({"conv4_x": 0}, "conv4_x"),
         ({"conv4_x": 8.0}, "conv4_x"), ({"conv4_x": True}, "conv4_x")],
        ids=["unknown-stage", "zero", "float", "bool"],
    )
    def test_bad_stage_caps(self, resnet, monkeypatch, caps, named):
        with pytest.raises(PlanError, match=named):
            build_plan(resnet, "quarter", 1, stage_caps=caps)
        # Presets go through the same check.
        preset = {"network": "resnet34", "degree": "quarter", "base_n": 1, "stage_caps": caps}
        monkeypatch.setattr(schedule, "load_preset", lambda name: preset)
        with pytest.raises(PlanError, match=named):
            plan_from_preset(resnet, "bad")

    def test_stage_order_is_depth_order(self, resnet):
        assert stage_order(resnet) == [
            "conv1",
            "conv2_x",
            "conv3_x",
            "conv4_x",
            "conv5_x",
        ]

    def test_unlabeled_network_gets_resolution_stages(self):
        # Without manifest labels, pooling delimits stages; a stride-2 conv
        # at the boundary schedules with the stage it reads from.
        rng = np.random.default_rng(0)

        def conv(lid, c_in, c_out, stride=1):
            from groupcompress.model import ConvWeights, LayerSpec

            return LayerSpec(
                id=lid,
                kind="conv",
                conv=ConvWeights(
                    c_in, c_out, 3, stride=stride, pad=1,
                    weights=rng.standard_normal((c_out, c_in, 3, 3)),
                ),
            )

        from groupcompress.model import LayerSpec, NetworkSpec, PoolParams

        net = NetworkSpec(
            "plain",
            (4, 16, 16),
            [
                conv("a", 4, 8),
                LayerSpec(id="p1", kind="maxpool", pool=PoolParams(2, 2)),
                conv("b", 8, 8),
                conv("c", 8, 16, stride=2),
                conv("d", 16, 16),
            ],
        )
        assert stage_order(net) == ["s16x16", "s8x8", "s4x4"]
        plan = build_plan(net, "quarter", 1)
        assert plan.stage_ns == {"s16x16": 1, "s8x8": 4, "s4x4": 16}
        # The strided conv reads the 8x8 map, so it takes that stage's n.
        assert plan.layer_ranks["c"] == 4
        assert plan.layer_ranks["d"] == 16


class TestPredictFlops:
    def test_empty_plan_is_original(self, resnet):
        plan = CompressionPlan("constant", 1, {}, {})
        total, _ = network_flops(resnet)
        assert predict_flops(resnet, plan) == total

    def test_single_layer_ratio(self):
        net = build_toy_three(seed=0)
        plan = CompressionPlan("constant", 1, {"s6": 1}, {"c3": 1})
        total, per = network_flops(net)
        predicted = predict_flops(net, plan)
        # c3: 8 -> 8 channels, k=3: ratio 1/8 + 1/9
        expected = total - per["c3"] + per["c3"] * (1 / 8 + 1 / 9)
        assert predicted == pytest.approx(expected, rel=1e-12)

    def test_prediction_matches_measured_decomposition(self):
        net = build_toy_three(seed=1)
        plan = build_plan(net, "constant", 2)
        compressed, _ = decompose_network(net, plan.layer_ranks)
        measured, _ = network_flops(compressed)
        assert plan.predicted_flops == measured

    def test_degree_ordering(self, resnet):
        flops = {
            degree: build_plan(resnet, degree, 2, skip_stages=["conv1"]).predicted_flops
            for degree in ("constant", "half", "quarter")
        }
        assert flops["constant"] <= flops["half"] <= flops["quarter"]


class TestPresets:
    def test_all_presets_load(self):
        names = list_presets()
        assert {"ours_res34_a", "ours_res34_b", "ours_res34_c", "ours_res34_d"} <= set(
            names
        )
        assert {"vgg16_a", "vgg16_b", "vgg16_c", "vgg16_d"} <= set(names)
        for name in names:
            assert "degree" in load_preset(name)

    def test_unknown_preset(self, resnet):
        with pytest.raises(PlanError, match="unknown preset"):
            plan_from_preset(resnet, "nope")

    def test_wrong_network_rejected(self, resnet):
        with pytest.raises(PlanError, match="targets network"):
            plan_from_preset(resnet, "vgg16_a")

    @pytest.mark.parametrize(
        "preset,target",
        [
            ("ours_res34_a", 3.98e9),
            ("ours_res34_b", 2.58e9),
            ("ours_res34_c", 1.44e9),
            ("ours_res34_d", 1.11e9),
        ],
    )
    def test_resnet34_preset_flops(self, resnet, preset, target):
        plan = plan_from_preset(resnet, preset)
        assert abs(plan.predicted_flops - target) <= 0.02 * target
        assert not plan.adjustments  # power-of-two widths: clamps never fire

    def test_resnet34_preset_stage_values(self, resnet):
        plan = plan_from_preset(resnet, "ours_res34_a")
        assert plan.stage_ns == {"conv2_x": 8, "conv3_x": 32, "conv4_x": 128}
        plan_d = plan_from_preset(resnet, "ours_res34_d")
        assert set(plan_d.stage_ns.values()) == {1}

    @pytest.mark.parametrize(
        "preset,reduction",
        [
            ("vgg16_a", 0.5699),
            ("vgg16_b", 0.7786),
            ("vgg16_c", 0.8135),
            ("vgg16_d", 0.8580),
        ],
    )
    def test_vgg16_preset_reductions(self, vgg, preset, reduction):
        baseline, _ = network_flops(vgg)
        plan = plan_from_preset(vgg, preset)
        implied = baseline * (1 - reduction)
        assert abs(plan.predicted_flops - implied) <= 0.02 * implied


class TestPlanFile:
    def test_roundtrip(self, tmp_path):
        net = build_toy_three(seed=2)
        plan = build_plan(net, "constant", 2)
        path = plan.save(tmp_path / "plan.json")
        loaded = CompressionPlan.load(path)
        assert loaded.layer_ranks == plan.layer_ranks
        assert loaded.predicted_flops == plan.predicted_flops

    def test_missing_file(self, tmp_path):
        with pytest.raises(PlanError, match="not found"):
            CompressionPlan.load(tmp_path / "none.json")

    def test_invalid_n_caught_at_predict(self):
        net = build_toy_three(seed=3)
        plan = CompressionPlan("constant", 5, {"s6": 5}, {"c2": 5})
        with pytest.raises(PlanError, match="invalid n"):
            predict_flops(net, plan)


_TOY3_PLAN = build_plan(build_toy_three(0), "constant", 1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_plan_file_raises_only_plan_error(data):
    """Any edit of a saved plan's fields, or cut or growth of its bytes,
    either raises PlanError or loads a plan that saves back to the same
    value in every field the file gave (a field it left out takes its
    default; keys the format does not define are dropped)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = _TOY3_PLAN.save(Path(tmp) / "plan.json")
        plan = json.loads(path.read_text())
        edit_fields(data, plan)
        path.write_bytes(cut_or_grow(data, json.dumps(plan).encode(), "plan"))
        try:
            loaded = CompressionPlan.load(path)
        except PlanError:
            return
        written = json.loads(path.read_bytes())
        saved = json.loads(loaded.save(Path(tmp) / "saved.json").read_text())
        for key, value in saved.items():
            assert key not in written or same_json(value, written[key]), key
