"""Iterative local block-diagonalization of gapped lattice Hamiltonians."""

from .geometry import (
    LatticeSpec,
    Rect,
    compare_step,
    count_shapes,
    enumerate_steps,
    g_set,
    minimal_rectangle,
)
from .tensor import (
    LocalOp,
    add_embedded,
    embed,
    hermitian_spectrum,
)
from .model import ModelSpec, build_hamiltonian, initial_interactions, random_model
from .schwinger import (
    GapError,
    StepOperators,
    assemble_g,
    check_g_gap,
    lie_schwinger_series,
    majorants,
    radius_lower_bound,
)
from .flow import (
    FlowState,
    Tolerances,
    apply_step,
    assemble_hamiltonian,
    consistency_check,
    norm_decay_audit,
    regime_of,
    run_flow,
)
from .expansion import (
    Branch,
    BranchExpansion,
    PathOfRects,
    branch_sum,
    build_gamma,
    closed_path,
    decompose_components,
    direction_count,
    enumerate_branches,
    weighted_branch_sum,
)
from .verify import (
    inequality_suite,
    verify_main_theorem,
)

__version__ = "0.1.0"
