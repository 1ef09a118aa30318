"""Magnitude pruning of layered networks with guaranteed topological
consistency, plus a multi-head-attention GCN harness to exercise it."""

from .network import (
    LayeredNetwork,
    MaskTensor,
    PruningBudget,
    apply_mask,
    budget,
    forward,
    masked_forward,
    total_connections,
)
from .pruner import PruneSpec, prune, standard_mp, stochastic_mp, tc_mp
from .surrogate import SurrogateTable, build_table
from .topology import (
    ConsistencyReport,
    consistency_report,
    trim_to_consistent,
)

__all__ = [
    "LayeredNetwork",
    "MaskTensor",
    "PruningBudget",
    "apply_mask",
    "budget",
    "forward",
    "masked_forward",
    "total_connections",
    "PruneSpec",
    "prune",
    "standard_mp",
    "stochastic_mp",
    "tc_mp",
    "SurrogateTable",
    "build_table",
    "ConsistencyReport",
    "consistency_report",
    "trim_to_consistent",
]
