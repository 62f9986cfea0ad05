"""detclust: deterministic coresets, sketches and small-instance solvers
for Euclidean (k, z)-clustering."""

from .bicriteria import BicriteriaResult, bicriteria, constant_factor_approx
from .datasets import far_point_instance, gaussian_blobs, ring_mixture
from .dimreduce import (
    CostPreservingSketch,
    WitnessParams,
    build_net,
    cost_preserving_sketch,
    derandomized_jl,
)
from .epsapprox import (
    SetApproximation,
    ball_test_family,
    halving_approx,
    uniform_sample_approx,
    verify_set_approx,
)
from .errors import BudgetError, InputError
from .geometry import (
    CenterSet,
    ClusteringParams,
    ExtendedPointSet,
    Partition,
    WeightedPointSet,
    center_grid,
    partition_cost,
    power_cost,
    power_triangle_bound,
    solve_1center,
    solve_1center_constrained,
)
from .io import (
    PointFileHeader,
    read_coreset,
    read_points,
    read_sketch,
    write_coreset,
    write_points,
    write_sketch,
)
from .linmap import LinearMap, pair_distortions
from .partition import (
    PartitionCoresetResult,
    build,
    verify_partition_coreset,
)
from .rings import (
    OffsetCoreset,
    RingDecomposition,
    epsilon_prime,
    euclidean_pipeline,
    greedy_seeding,
    ring_coreset,
    ring_decompose,
    verify_offset_coreset,
)
from .solve import (
    SolveResult,
    approx_solve,
    bicriteria_solve,
    enumerate_partitions,
    exact_solve,
    partition_count,
)
from .summation import tree_sum

__all__ = [
    "BicriteriaResult",
    "BudgetError",
    "CenterSet",
    "ClusteringParams",
    "CostPreservingSketch",
    "ExtendedPointSet",
    "InputError",
    "LinearMap",
    "OffsetCoreset",
    "Partition",
    "PartitionCoresetResult",
    "PointFileHeader",
    "RingDecomposition",
    "SetApproximation",
    "SolveResult",
    "WeightedPointSet",
    "WitnessParams",
    "approx_solve",
    "ball_test_family",
    "bicriteria",
    "bicriteria_solve",
    "build",
    "build_net",
    "center_grid",
    "constant_factor_approx",
    "cost_preserving_sketch",
    "derandomized_jl",
    "enumerate_partitions",
    "epsilon_prime",
    "euclidean_pipeline",
    "exact_solve",
    "far_point_instance",
    "gaussian_blobs",
    "greedy_seeding",
    "halving_approx",
    "pair_distortions",
    "partition_cost",
    "partition_count",
    "power_cost",
    "power_triangle_bound",
    "read_coreset",
    "read_points",
    "read_sketch",
    "ring_coreset",
    "ring_decompose",
    "ring_mixture",
    "solve_1center",
    "solve_1center_constrained",
    "tree_sum",
    "uniform_sample_approx",
    "verify_offset_coreset",
    "verify_partition_coreset",
    "verify_set_approx",
    "write_coreset",
    "write_points",
    "write_sketch",
]

__version__ = "0.1.0"
