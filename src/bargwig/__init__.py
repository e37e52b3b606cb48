"""bargwig: Wigner quasi-probability functions from Bargmann-representation
derivatives.

The core engine evaluates the paper's Hermitian quadratic form over the
stack of Bargmann derivatives, with no integration and no truncation,
through its exact factorization as Royer's displaced parity, summed pair
by pair of the state's members; the paper's form itself,
configuration-space and phase-space quadrature oracles, Laguerre/Gaussian
closed forms, and basis-geometry identities validate it.
"""

__version__ = "0.1.0"

from .phase import BasisParams, qp_from_z, wirtinger_derivatives, z_from_qp
from .special import hermite_psi, laguerre
from .states import (
    CoherentState,
    FockState,
    StateSpec,
    Superposition,
    bargmann,
    cat_state,
    derivative_tower,
    exact_degree,
    norm_squared,
    overlap,
    position_wavefunction,
    state_from_json,
    superposition,
)
from .core import (
    TruncationError,
    TruncationPolicy,
    build_F,
    choose_truncation,
    wigner_closed_coherent_crossb,
    wigner_closed_coherent_gaussian,
    wigner_closed_fock,
    wigner_series,
)
from .oracles import (
    OracleConvergenceError,
    QuadratureSpec,
    quadrature_nodes,
    wigner_config_integral,
    wigner_phase_integral,
)
from .geometry import check_b_independence, check_identity_crossb
from .grid import METHODS, GridAxis, WignerGrid, evaluate_grid

__all__ = [
    "__version__",
    "BasisParams",
    "qp_from_z",
    "wirtinger_derivatives",
    "z_from_qp",
    "hermite_psi",
    "laguerre",
    "CoherentState",
    "FockState",
    "StateSpec",
    "Superposition",
    "bargmann",
    "cat_state",
    "derivative_tower",
    "exact_degree",
    "norm_squared",
    "overlap",
    "position_wavefunction",
    "state_from_json",
    "superposition",
    "TruncationError",
    "TruncationPolicy",
    "build_F",
    "choose_truncation",
    "wigner_closed_coherent_crossb",
    "wigner_closed_coherent_gaussian",
    "wigner_closed_fock",
    "wigner_series",
    "OracleConvergenceError",
    "QuadratureSpec",
    "quadrature_nodes",
    "wigner_config_integral",
    "wigner_phase_integral",
    "check_b_independence",
    "check_identity_crossb",
    "METHODS",
    "GridAxis",
    "WignerGrid",
    "evaluate_grid",
]
