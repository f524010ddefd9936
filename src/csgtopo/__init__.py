"""Topology optimization over polygonal primitives combined through a
differentiable Boolean operation tree: geometry projection, tree evaluation,
plane-stress FEA with SIMP, analytic sensitivities, and an MMA driver."""

from .csg import (CsgTree, OPERATOR_NAMES, combine, combine_grad_operand,
                  combine_grad_weights, evaluate_tree_values, prune, snap, softmax_encode)
# geometry before fea: loading scipy.special ahead of scipy.sparse and
# scipy.linalg measured about 20 ms faster for a fresh `import csgtopo`
from .geometry import (DensityField, PolygonParams, ProjectionConfig, base_angles,
                       halfspace_sdf, polygon_sdf, project_density, rasterize_primitive,
                       threshold)
from .fea import (BoundaryConditions, Material, Mesh, SingularSystemError,
                  SolveResult, analyze, assemble, element_stiffness_template,
                  simp_modulus, solve, volume_constraint)
from .config import BENCHMARKS, ConfigError, MmaConfig, ProblemSpec
from .mma import MmaState, kkt_residual, mma_update
from .problem import (Model, OptimizeResult, RunHistory, SolverAbort, builtin_problem,
                      initialize, optimize)
from .sensitivity import fd_check

__version__ = "0.1.0"
