"""Compress CNN weights into filter-group + pointwise convolution pairs."""

__version__ = "0.1.0"

from .decompose import (  # noqa: F401
    GroupDecomposition,
    decompose_layer,
    decompose_network,
    decomposed_jacobian_rank,
    decomposed_pairs,
    partition_blocks,
)
from .degeneracy import (  # noqa: F401
    EnergyCurve,
    StrategyRankReport,
    equal_flops_ranks,
    filter_correlation,
    jacobian_energy_curve,
)
from .model import (  # noqa: F401
    ConvWeights,
    LayerSpec,
    NetworkSpec,
    flops_of_layer,
    flops_ratio_decomposed,
    forward,
    network_flops,
)
from .modelio import load_model, save_model  # noqa: F401
from .reconstruct import (  # noqa: F401
    CalibrationSet,
    collect_responses,
    merge_pointwise_weights,
    reconstruct_network,
    solve_reconstruction,
)
from .schedule import (  # noqa: F401
    CompressionPlan,
    build_plan,
    plan_from_preset,
    predict_flops,
)
