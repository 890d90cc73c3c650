"""Exact-arithmetic machinery for general-position representative systems.

Point configurations live in rational d-space and every predicate is decided
exactly over the integers (homogeneous coordinates, fraction-free
elimination). On top of the geometry sit the simplicial side (completions,
neighborhood complexes, nerves, the q-star property, rational Betti numbers)
and the matroid side (intersection, uniformity complexes), tied together by
the solvers and bound formulas in genpos.solver.

The integer linear algebra kernels are pure Python (genpos._kernels.pure);
kernel_backend() names them.
"""

from genpos.complexes import (
    SimplicialComplex,
    QStarResult,
    closure,
    completion,
    find_colorful_face,
    induced,
    is_q_star,
    join,
    neighborhood,
    nerve,
    skeleton,
    star,
)
from genpos.errors import (
    BudgetExceeded,
    ConstructionError,
    DimensionMismatch,
    DocumentError,
    GenposError,
    OracleError,
)
from genpos.geometry import (
    Point,
    PointMultiset,
    affinely_independent,
    extend_gp,
    gp_number,
    in_general_position,
)
from genpos.homology import BettiProfile, betti_up_to, is_homologically_k_connected
from genpos.matroids import (
    AffineMatroid,
    ExplicitMatroid,
    IndependenceOracle,
    PartitionMatroid,
    UniformMatroid,
    is_uniform,
    matroid_intersection,
    max_uniform_size,
    rank,
    uniformity_complex,
)
from genpos.solver import (
    BoundTable,
    ConditionReport,
    PointFamily,
    SgprResult,
    SubsetCheck,
    bound_table,
    check_condition,
    connectivity_bound,
    counterexample_family,
    extension_bound,
    general_position_complex,
    greedy_bound,
    independence_complex,
    representative_bound,
    solve_exhaustive,
    solve_greedy,
    solve_matroid_intersection,
    uniform_connectivity_bound,
)

__version__ = "0.1.0"


def kernel_backend():
    """Name of the integer kernel implementation: always 'pure'."""
    return "pure"


__all__ = [
    "__version__",
    "kernel_backend",
    # errors
    "GenposError",
    "DimensionMismatch",
    "BudgetExceeded",
    "OracleError",
    "ConstructionError",
    "DocumentError",
    # geometry
    "Point",
    "PointMultiset",
    "affinely_independent",
    "in_general_position",
    "gp_number",
    "extend_gp",
    # complexes
    "SimplicialComplex",
    "QStarResult",
    "closure",
    "star",
    "neighborhood",
    "completion",
    "induced",
    "skeleton",
    "join",
    "nerve",
    "is_q_star",
    "find_colorful_face",
    # homology
    "BettiProfile",
    "betti_up_to",
    "is_homologically_k_connected",
    # matroids
    "IndependenceOracle",
    "AffineMatroid",
    "PartitionMatroid",
    "UniformMatroid",
    "ExplicitMatroid",
    "rank",
    "matroid_intersection",
    "is_uniform",
    "max_uniform_size",
    "uniformity_complex",
    # solver
    "PointFamily",
    "SubsetCheck",
    "ConditionReport",
    "SgprResult",
    "BoundTable",
    "extension_bound",
    "greedy_bound",
    "connectivity_bound",
    "representative_bound",
    "uniform_connectivity_bound",
    "bound_table",
    "check_condition",
    "solve_greedy",
    "solve_exhaustive",
    "solve_matroid_intersection",
    "counterexample_family",
    "general_position_complex",
    "independence_complex",
]
