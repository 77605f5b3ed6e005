"""Compress CNN weights into filter-group + pointwise convolution pairs."""

import os

# The tool spreads its work over the CPUs itself, so BLAS defaults to one
# thread (a caller's setting wins). It acts only before numpy loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

__version__ = "0.1.0"

from .decompose import (  # noqa: F401
    DecomposedPair,
    GroupDecomposition,
    decompose_layer,
    decompose_network,
    decomposed_pairs,
    pair_layers,
    partition_blocks,
)
from .degeneracy import (  # noqa: F401
    EnergyCurve,
    StrategyRankReport,
    equal_flops_ranks,
    jacobian_energy_curve,
)
from .model import (  # noqa: F401
    ConvWeights,
    LayerSpec,
    NetworkSpec,
    flops_of_layer,
    forward,
    network_flops,
)
from .modelio import load_model, save_model  # noqa: F401
from .reconstruct import (  # noqa: F401
    CalibrationSet,
    ReconstructionFit,
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
