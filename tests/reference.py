"""Closed forms and checks that only the tests use as references."""

from mapflow import core, maps
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


def squash_kdv3():
    """kdv3 after squashing z: det J = 1/(1+z)^2 depends on the time slot z,
    so a level-set Newton on it moves x and y with a 2x2 Cramer solve."""
    squash = core.MapDescriptor(
        name="squash",
        dimension=3,
        params={},
        forward_fn=lambda s: (s[0], s[1], s[2] / (1 + s[2])),
        inverse_fn=lambda s: (s[0], s[1], s[2] / (1 - s[2])),
        forward_guards=(("1+z", lambda p: 1 + p[2]),),
        inverse_guards=(("1-Z", lambda p: 1 - p[2]),),
        det_j=lambda s: 1 / (1 + s[2]) ** 2,
    )
    return core.compose_sequence([squash, maps.kdv3()], name="squash-kdv3")
