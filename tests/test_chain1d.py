"""Three-term chain tests: propagation, determinants, Hamilton equations."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from mapflow import chain1d, maps
from mapflow.chain1d import (
    ChainSpec,
    canonical_pair,
    chain_coefficients,
    chain_det_A,
    chain_det_barA,
    chain_propagate,
    chain_resolve_up,
    henon_chain_closed_hamiltonian,
    henon_chain_spec,
    chain_to_henon_point,
    verify_chain_hamilton,
)
from mapflow.errors import SingularPointError
from reference import chain_residual


def dense_A(diag, sup):
    """Dense tridiagonal with ones on the subdiagonal, for the oracle."""
    n = len(diag)
    m = np.zeros((n, n))
    for i in range(n):
        m[i, i] = diag[i]
        if i + 1 < n:
            m[i, i + 1] = sup[i]
            m[i + 1, i] = 1.0
    return m


def dense_barA(diag, sub):
    n = len(diag)
    m = np.zeros((n, n))
    for i in range(n):
        m[i, i] = diag[i]
        if i + 1 < n:
            m[i, i + 1] = 1.0
            m[i + 1, i] = sub[i]
    return m


# ---------------------------------------------------------------------------
# propagation


def test_chain_propagate_quadratic_example():
    spec = henon_chain_spec(2, c=0.0)
    state = chain_propagate(spec, 2.0, 1.0, a=5.0)
    # q0 = alpha(q1) - beta(q2) = (1 + 2) - 2 = 1 regardless of a
    assert state.q == (1.0, 1.0, 2.0)
    assert state.a == 5.0
    assert chain_residual(spec, state) < 1e-12


def test_chain_propagate_degenerate_beta_zero():
    spec = ChainSpec(
        m=3, alpha=lambda q: 2.0 * q, beta=lambda q: 0.0 * q, label="degenerate"
    )
    state = chain_propagate(spec, 1.0, 3.0, a=0.0)
    # with beta = 0 each value is just alpha of its neighbour
    assert state.q[1] == 6.0
    assert state.q[0] == 12.0


def test_chain_coefficients_name_a_vanishing_beta_derivative():
    spec = ChainSpec(
        m=3, alpha=lambda q: 2.0 * q, beta=lambda q: 0.0 * q, label="degenerate"
    )
    state = chain_propagate(spec, 1.0, 3.0, a=0.0)
    with pytest.raises(SingularPointError, match="beta'"):
        chain_coefficients(spec, state)


def test_chain_propagate_names_a_link_pole():
    spec = ChainSpec(m=3, alpha=lambda q: 1.0 / q, beta=lambda q: q, label="pole")
    with pytest.raises(SingularPointError, match="link evaluation at k=1") as exc:
        chain_propagate(spec, 1.0, 0.0, a=0.0)
    assert isinstance(exc.value.__cause__, ZeroDivisionError)


def test_chain_propagate_lets_a_programming_error_through():
    spec = ChainSpec(m=3, alpha=lambda q: q.upper(), beta=lambda q: q)
    with pytest.raises(AttributeError):
        chain_propagate(spec, 1.0, 2.0, 0.0)


def test_chain_propagate_names_an_overflow():
    # q_2 = alpha(0) - 1e200 = -1e200, and q_1 = alpha(q_2) squares it past
    # the float range
    spec = henon_chain_spec(4)
    with pytest.raises(SingularPointError, match="at k=1: non-finite result") as exc:
        chain_propagate(spec, 1e200, 0.0, a=0.0)
    assert exc.value.label == SingularPointError.NON_FINITE


def test_chain_resolve_up_inverts_propagation():
    spec = henon_chain_spec(4, c=0.3)
    state = chain_propagate(spec, 0.7, -0.4, a=0.2)
    rebuilt = chain_resolve_up(spec, state.q[0], state.q[1], a=0.2)
    assert max(abs(a - b) for a, b in zip(rebuilt.q, state.q)) < 1e-12


def test_chain_resolve_up_requires_beta_inverse():
    spec = ChainSpec(m=2, alpha=lambda q: q, beta=lambda q: q)
    with pytest.raises(ValueError):
        chain_resolve_up(spec, 0.0, 1.0, a=0.0)


# ---------------------------------------------------------------------------
# determinant recurrences


def test_det_A_single_entry_and_empty():
    assert chain_det_A([3.5], []) == 3.5
    assert chain_det_A([], []) == 1.0


def test_det_A_index_error():
    with pytest.raises(IndexError):
        chain_det_A([1.0, 2.0], [])


def test_det_A_matches_dense_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        diag = rng.uniform(-2, 2, n)
        sup = rng.uniform(-2, 2, max(n - 1, 0))
        want = float(np.linalg.det(dense_A(diag, sup)))
        got = chain_det_A(diag, sup)
        assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_det_barA_matches_dense_oracle():
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        diag = rng.uniform(-2, 2, n)
        sub = rng.uniform(-2, 2, max(n - 1, 0))
        want = float(np.linalg.det(dense_barA(diag, sub)))
        got = chain_det_barA(diag, sub)
        assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_bar_identity_scaling():
    # with abar_k = a_k c_k and unit-over-c off-diagonals, the bar
    # determinant is the plain one scaled by the product of the c's
    rng = np.random.default_rng(44)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        a = rng.uniform(-2, 2, n)
        c = rng.uniform(0.5, 2.0, n)
        b = 1.0 / c[:-1] if n > 1 else np.zeros(0)
        bar = chain_det_barA(a * c, c[1:])
        plain = chain_det_A(a, b)
        want = float(np.prod(c)) * plain
        assert abs(bar - want) <= 1e-10 * (1 + abs(want))


def test_det_A_triangular_when_b_vanishes():
    diag = [2.0, -1.5, 3.0, 0.5]
    assert chain_det_A(diag, [0.0, 0.0, 0.0]) == pytest.approx(math.prod(diag))


def test_chain_coefficients_boundaries_and_values():
    spec = henon_chain_spec(3, c=0.7)
    state = chain_propagate(spec, 1.2, -0.3, a=0.4)
    coeffs = chain_coefficients(spec, state)
    m = state.m
    assert coeffs.b[0] == 0.0
    assert coeffs.c[m + 1] == 0.0
    # quadratic alpha: a_k = 2 q_k + 2; identity beta: b_k = c_k = 1
    for k in range(m + 2):
        qk = state.q[k] if k <= m else state.a
        assert coeffs.a[k] == pytest.approx(2 * qk + 2)
    for k in range(1, m + 1):
        assert coeffs.b[k] == 1.0
        assert coeffs.c[k] == 1.0
        assert coeffs.abar[k] == coeffs.a[k]


def test_constraint_on_canonical_momentum():
    # p = q_{m-1} - q_{m+1}: c_m * dp/dq_{m+1} + dp/dq_{m-1} = c_m * (-1) + 1
    spec = henon_chain_spec(2)
    state = chain_propagate(spec, 1.0, 0.5, a=0.1)
    coeffs = chain_coefficients(spec, state)
    assert coeffs.c[state.m] * (-1.0) + 1.0 == 0.0


# ---------------------------------------------------------------------------
# Hamiltonians


def test_chain_hamiltonian_rejects_nonunit_beta():
    spec = ChainSpec(
        m=2,
        alpha=lambda q: q * q,
        beta=lambda q: 2.0 * q,
        beta_inverse=lambda q: q / 2.0,
    )
    state = chain_propagate(spec, 1.0, 1.0, a=0.0)
    with pytest.raises(ValueError):
        verify_chain_hamilton(spec, state)


def test_closed_hamiltonian_value_example():
    # m=2, c=0, q1=1, q2=2: q0 = 1 and (p+a+1)^2 - q - 1 = 4 - 2 - 1 = 1
    q, p, a = 2.0, 1.0, 0.0
    assert henon_chain_closed_hamiltonian(2, q, p, a) == 1.0


@pytest.mark.parametrize("m", [2, 3])
def test_closed_hamiltonian_matches_propagation(m):
    rng = np.random.default_rng(45)
    spec = henon_chain_spec(m, c=0.0)
    for _ in range(100):
        q, p, a = rng.uniform(-2, 2, 3)
        state = chain_propagate(spec, float(q), float(p + a), float(a))
        closed = henon_chain_closed_hamiltonian(m, q, p, a)
        assert abs(closed - state.q[0]) <= 1e-10 * (1 + abs(state.q[0]))


@pytest.mark.parametrize("m", [2, 3])
def test_closed_hamiltonian_matches_propagation_nonzero_c(m):
    rng = np.random.default_rng(46)
    c = 0.8
    spec = henon_chain_spec(m, c=c)
    for _ in range(50):
        q, p, a = rng.uniform(-2, 2, 3)
        state = chain_propagate(spec, float(q), float(p + a), float(a))
        closed = henon_chain_closed_hamiltonian(m, q, p, a, c)
        assert abs(closed - state.q[0]) <= 1e-10 * (1 + abs(state.q[0]))


def test_closed_hamiltonian_unsupported_m():
    with pytest.raises(ValueError):
        henon_chain_closed_hamiltonian(4, 1.0, 1.0, 0.0)


@pytest.mark.parametrize("m", [2, 3])
def test_chain_maps_onto_planar_quadratic_hamiltonian_exactly(m):
    """Exact (Fraction) equality with the planar-map conserved quantity.

    The shift q -> q + 1 turns the chain into the b = 1 planar map with
    constant term c + 1; its conserved quantity, evaluated at the image
    point (p+a+1, q+1), exceeds the chain Hamiltonian by exactly one.
    """
    cases = [
        (Fraction(2), Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(3, 7), Fraction(-2, 5), Fraction(1, 3), Fraction(0)),
        (Fraction(-1, 2), Fraction(5, 4), Fraction(-3, 8), Fraction(2, 3)),
    ]
    for q, p, a, c in cases:
        spec = henon_chain_spec(m, c)
        state = chain_propagate(spec, q, p + a, a)
        closed = henon_chain_closed_hamiltonian(m, q, p, a, c)
        X, Y = chain_to_henon_point(q, p, a)
        planar = maps.henon_hamiltonian(m, 1, c + 1)((X, Y))
        assert state.q[0] == closed == planar - 1


# ---------------------------------------------------------------------------
# Hamilton equations


def test_verify_chain_hamilton_example_state():
    spec = henon_chain_spec(2, c=0.0)
    state = chain_propagate(spec, 2.0, 1.0, a=0.0)
    report = verify_chain_hamilton(spec, state)
    assert report.passed
    assert report.err_dq < 1e-6
    assert report.err_dp < 1e-6
    assert report.err_bar_a < 1e-6
    # m=2 closed form gives dq/dq1 = 2(p+a+1) = 4 and dp/dq1 = 1
    assert report.dq_dq1 == pytest.approx(4.0, rel=1e-6)
    assert report.dp_dq1 == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("m", [2, 3])
def test_verify_chain_hamilton_random_states(m):
    rng = np.random.default_rng(47)
    spec = henon_chain_spec(m, c=0.0)
    for _ in range(20):
        q, p, a = rng.uniform(-1.5, 1.5, 3)
        state = chain_propagate(spec, float(q), float(p + a), float(a))
        report = verify_chain_hamilton(spec, state)
        assert report.passed, report


def test_verify_chain_hamilton_at_m4():
    # seeding q_1 leaves only the upward re-solve's rounding: 2.7e-12 here
    rng = random.Random(1)
    spec = henon_chain_spec(4, c=0.0)
    for _ in range(20):
        q_m, q_m1 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        assert verify_chain_hamilton(spec, chain_propagate(spec, q_m, q_m1, 0.0)).passed


def test_longer_chain_gradient_equals_determinant():
    """For m = 4 the jet gradient of the propagated bottom value must equal
    the tridiagonal determinant response exactly."""
    rng = np.random.default_rng(48)
    spec = henon_chain_spec(4, c=0.0)
    from mapflow.core import Jet

    for _ in range(20):
        q, p, a = (float(v) for v in rng.uniform(-1.5, 1.5, 3))
        state = chain_propagate(spec, q, p + a, a)
        jet_state = chain_propagate(spec, Jet(q, (1.0, 0.0)), Jet(p + a, (0.0, 1.0)), a)
        dh_dp = jet_state.q[0].partials[1]
        coeffs = chain_coefficients(spec, state)
        bar = chain_det_barA(coeffs.abar[1 : state.m], coeffs.c[2 : state.m])
        assert abs(dh_dp - bar) <= 1e-10 * (1 + abs(bar))


def test_canonical_pair_convention():
    spec = henon_chain_spec(3)
    state = chain_propagate(spec, 1.5, 0.9, a=0.4)
    q, p = canonical_pair(state)
    assert q == 1.5
    assert p == pytest.approx(0.5)


def test_chain_spec_rejects_short_chain():
    with pytest.raises(ValueError):
        henon_chain_spec(1)
