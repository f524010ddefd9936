"""Topology optimization over polygonal primitives combined through a
differentiable Boolean operation tree: geometry projection, tree evaluation,
plane-stress FEA with SIMP, analytic sensitivities, and an MMA driver.

The kernels are importable from their own modules."""

from .config import ConfigError, MmaConfig, ProblemSpec
from .mma import MmaState, kkt_residual, mma_update
from .problem import Model, OptimizeResult, SolverAbort, initialize, optimize
from .sensitivity import fd_check

__version__ = "0.1.0"
