"""Per-layer rank schedules and FLOPs prediction.

A schedule assigns each compressed stage a target rank n, growing with
depth: Constant keeps n fixed, Half doubles it per stage, Quarter
quadruples it. Stage caps can pin individual stages below the geometric
value, and the per-layer n is always clamped down to a divisor of that
layer's input channel count.

Layers exempt from planning: non-conv layers, 1x1 convolutions, already
grouped convolutions, and anything named in the skip lists.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path

from .decompose import divisors, pair_layers
from .errors import DecompositionError, PlanError
from .model import NetworkSpec, flops_of_layer, layer_inputs, network_flops, propagate_shapes
from .modelio import json_integer, read_json, write_json

DEGREES = {"constant": 1, "half": 2, "quarter": 4}


@dataclass
class CompressionPlan:
    """Resolved per-layer ranks plus the schedule that produced them."""

    degree: str
    base_n: int
    stage_ns: dict[str, int]
    layer_ranks: dict[str, int]
    skipped_layers: list[str] = field(default_factory=list)
    adjustments: list[str] = field(default_factory=list)
    predicted_flops: int | None = None

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "CompressionPlan":
        try:
            degree, flops = obj["degree"], obj.get("predicted_flops")
            if not (isinstance(degree, str) and degree in DEGREES):
                raise PlanError(f"degree must be one of {sorted(DEGREES)}, got {degree!r}")
            if flops is not None:
                json_integer(flops, "predicted_flops", 0, PlanError)
            return cls(
                degree=degree,
                base_n=json_integer(obj["base_n"], "base_n", 1, PlanError),
                stage_ns=_integers(obj["stage_ns"], "stage_ns", 1),
                layer_ranks=_integers(obj["layer_ranks"], "layer_ranks"),
                skipped_layers=_strings(obj.get("skipped_layers", []), "skipped_layers"),
                adjustments=_strings(obj.get("adjustments", []), "adjustments"),
                predicted_flops=flops,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanError(f"malformed plan: {exc}") from exc

    def save(self, path) -> Path:
        return write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "CompressionPlan":
        return cls.from_json(read_json(path, "plan file", PlanError))


def _integers(value, name: str, minimum: int | None = None) -> dict[str, int]:
    """A plan field mapping names (stages or layers) to integers, each at
    least ``minimum`` when given."""
    if not isinstance(value, dict):
        raise PlanError(f"{name} must map names to integers, got {value!r}")
    return {k: json_integer(v, f"{name}[{k!r}]", minimum, PlanError) for k, v in value.items()}


def _strings(value, name: str) -> list[str]:
    """A plan field listing strings (layer ids or notes)."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise PlanError(f"{name} must be a list of strings, got {value!r}")
    return value


def derive_stages(net: NetworkSpec) -> dict[str, str]:
    """Default stage labels for convs, keyed by input spatial resolution.

    Pooling (and any other resolution change) delimits stages; a stride-2
    conv at a boundary belongs to the stage it reads from. Manifest labels,
    when present, take precedence over this derivation.
    """
    shapes = propagate_shapes(net)
    inputs = layer_inputs(net)
    labels: dict[str, str] = {}
    for layer in net.conv_layers():
        in_id = inputs[layer.id]
        _, h, w = net.input_shape if in_id is None else shapes[in_id]
        labels[layer.id] = f"s{h}x{w}"
    return labels


def _conv_stages(net: NetworkSpec) -> dict[str, str]:
    """Stage label of each staged conv: the manifest labels, or the derived
    ones when no conv is labeled."""
    labeled = {l.id: l.stage for l in net.conv_layers() if l.stage is not None}
    return labeled or derive_stages(net)


def _plannable(layer, stages: dict[str, str]) -> bool:
    """Eligible for decomposition: ungrouped, k > 1, staged."""
    return layer.conv.k != 1 and layer.conv.groups == 1 and layer.id in stages


def stage_order(net: NetworkSpec, stages: dict[str, str]) -> list[str]:
    """Stage labels of plannable convs, in first-appearance order."""
    plannable = (stages[l.id] for l in net.conv_layers() if _plannable(l, stages))
    return list(dict.fromkeys(plannable))


def build_plan(
    net: NetworkSpec,
    degree: str,
    base_n: int,
    stage_caps: dict[str, int] | None = None,
    skip_stages: tuple | list = (),
    skip_layers: tuple | list = (),
) -> CompressionPlan:
    """Assign n = base_n * r^s to the s-th compressed stage (r per degree),
    apply stage caps, then clamp each layer's n to a divisor of its c_in.

    Adjustments (caps or divisor clamps) are reported on the plan, never
    fatal. Unknown stage names in the skip list or the caps, unknown layer
    ids in the skip list, and caps below 1, are planning errors.
    """
    degree = degree.lower()
    if degree not in DEGREES:
        raise PlanError(f"unknown degree {degree!r}; choose one of {sorted(DEGREES)}")
    if base_n < 1:
        raise PlanError(f"base_n must be >= 1, got {base_n}")
    stage_caps = dict(stage_caps or {})
    ratio = DEGREES[degree]

    stages = _conv_stages(net)
    order = stage_order(net, stages)
    unknown = [s for s in [*skip_stages, *stage_caps] if s not in order]
    if unknown:
        raise PlanError(f"skip stages or stage caps not present in network: {unknown}")
    unknown = sorted(set(skip_layers) - {l.id for l in net.layers})
    if unknown:
        raise PlanError(f"skip layers not present in network: {unknown}")
    for stage, cap in stage_caps.items():
        json_integer(cap, f"stage {stage}: cap", 1, PlanError)
    compressed_stages = [s for s in order if s not in set(skip_stages)]

    stage_ns: dict[str, int] = {}
    adjustments: list[str] = []
    for s_idx, stage in enumerate(compressed_stages):
        n = base_n * ratio**s_idx
        cap = stage_caps.get(stage)
        if cap is not None and n > cap:
            adjustments.append(f"stage {stage}: n {n} capped to {cap}")
            n = cap
        stage_ns[stage] = n

    layer_ranks: dict[str, int] = {}
    skipped: list[str] = []
    skip_layer_set = set(skip_layers)
    for layer in net.conv_layers():
        conv = layer.conv
        stage = stages.get(layer.id)
        if layer.id in skip_layer_set or stage not in stage_ns or not _plannable(layer, stages):
            skipped.append(layer.id)
            continue
        n = stage_ns[stage]
        clamped = max(d for d in divisors(conv.c_in) if d <= n)
        if clamped != n:
            adjustments.append(
                f"layer {layer.id}: n {n} clamped to {clamped} (c_in={conv.c_in})"
            )
        layer_ranks[layer.id] = clamped

    plan = CompressionPlan(
        degree=degree,
        base_n=base_n,
        stage_ns=stage_ns,
        layer_ranks=layer_ranks,
        skipped_layers=skipped,
        adjustments=adjustments,
    )
    plan.predicted_flops = predict_flops(net, plan)
    return plan


def predict_flops(net: NetworkSpec, plan: CompressionPlan) -> int:
    """Total FLOPs of the planned network, without materializing weights.

    A planned conv counts as the ``pair_layers`` pair the decomposer builds,
    so the predicted count equals the measured count of the decomposed
    network exactly. An n that does not divide the conv's c_in is a
    PlanError.
    """
    shapes = propagate_shapes(net)
    _, per_layer = network_flops(net)
    total = 0
    for layer in net.layers:
        if layer.id not in per_layer:
            continue
        if layer.kind == "conv" and layer.id in plan.layer_ranks:
            try:
                pair = pair_layers(layer.conv, plan.layer_ranks[layer.id])
            except DecompositionError as exc:
                raise PlanError(f"layer {layer.id}: invalid n: {exc}") from exc
            _, h_out, w_out = shapes[layer.id]
            total += sum(flops_of_layer(conv, h_out, w_out) for conv in pair)
        else:
            total += per_layer[layer.id]
    return total


def list_presets() -> list[str]:
    files = resources.files("groupcompress.presets")
    return sorted(p.name[: -len(".json")] for p in files.iterdir() if p.name.endswith(".json"))


def load_preset(name: str) -> dict:
    """Preset schedule parameters shipped with the package."""
    files = resources.files("groupcompress.presets")
    candidate = files / f"{name}.json"
    try:
        text = candidate.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise PlanError(f"unknown preset {name!r}; available: {list_presets()}")
    return json.loads(text)


def plan_from_preset(net: NetworkSpec, name: str) -> CompressionPlan:
    preset = load_preset(name)
    if preset.get("network") not in (None, net.name):
        raise PlanError(
            f"preset {name!r} targets network {preset.get('network')!r}, got {net.name!r}"
        )
    return build_plan(
        net,
        degree=preset["degree"],
        base_n=int(preset["base_n"]),
        stage_caps=preset.get("stage_caps"),
        skip_stages=preset.get("skip_stages", ()),
        skip_layers=preset.get("skip_layers", ()),
    )
