"""Closed forms and checks that only the tests use as references."""

from mapflow.core import float_value, jet_log


def chain_residual(spec, state):
    """Largest violation of the defining relations by a state."""
    worst = 0.0
    for k in range(state.m - 1):
        lhs = state.q[k]
        rhs = spec.alpha(state.q[k + 1]) - spec.beta(state.q[k + 2])
        worst = max(worst, abs(float_value(lhs) - float_value(rhs)))
    return worst


def kdv2_hamiltonian_source(r):
    """The kdv2 conserved quantity written over source coordinates."""

    def ham(state):
        x, y = state
        return r * jet_log(x) + (1.0 / r - r) * jet_log(r + y + r * x * y)

    return ham


def kdv2_source_velocity(r):
    """Closed-form dx/dy along which the Hamiltonian's explicit y-dependence
    cancels."""

    def rhs(state):
        x, y = state
        return x * (r * r - 1) * (1 + r * x) / (r * (r * r + r * y + x * y))

    return rhs
