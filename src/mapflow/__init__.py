"""mapflow: Nambu-Hamiltonian flows generated by invertible maps.

A differentiable invertible map of n-dimensional phase space induces an
ODE flow in which one initial value plays the role of time while n-1
conserved Hamiltonians pin down the orbit.  This package constructs those
Hamiltonians (in closed form for the built-in catalog, by quadrature in
general), integrates the flows, and verifies numerically that the flow
reproduces the map and conserves the Hamiltonians.
"""

from .core import (
    Jet,
    MapDescriptor,
    as_state,
    compose,
    compose_sequence,
    det,
    grad,
    jacobian,
    nambu_bracket,
    sample_points,
)
from .flows import (
    FlowSystem,
    IntegratorConfig,
    Trajectory,
    build_hamiltonians,
    check_det_condition,
    flow_system,
    integrate,
    integrate_flow,
    nambu_rhs,
    source_rhs,
)
from .harness import (
    composition_check,
    conservation_scan,
    qp4_normalization_report,
    verify_correspondence,
)
from .maps import build_flow, build_map, catalog_ids

__version__ = "0.1.0"

__all__ = [
    "Jet",
    "MapDescriptor",
    "FlowSystem",
    "IntegratorConfig",
    "Trajectory",
    "as_state",
    "build_flow",
    "build_hamiltonians",
    "build_map",
    "catalog_ids",
    "check_det_condition",
    "compose",
    "compose_sequence",
    "composition_check",
    "conservation_scan",
    "det",
    "flow_system",
    "grad",
    "integrate",
    "integrate_flow",
    "jacobian",
    "nambu_bracket",
    "nambu_rhs",
    "qp4_normalization_report",
    "sample_points",
    "source_rhs",
    "verify_correspondence",
]
