"""One-dimensional three-term chains q_k = alpha(q_{k+1}) - beta(q_{k+2}).

A chain of length m is determined by its two top values (q_m, q_{m-1})
plus the boundary parameter a standing in for q_{m+1}, which is not a
dynamical variable.  Sensitivity of the top of the chain to the bottom
value q_1 is governed by tridiagonal determinants built from the local
derivatives of alpha and beta; for chains whose beta is the identity the
bottom value q_0 is itself the conserved Hamiltonian of the induced
(q, p) = (q_m, q_{m-1} - a) motion with q_1 as time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import float_value, grad, jet_rows
from .errors import SingularPointError


@dataclass(frozen=True)
class ChainSpec:
    """Chain length and the pair of differentiable link functions.

    ``beta_inverse`` is required for re-solving the chain upward (from the
    q_0 side), which the Hamilton-equation verification needs.
    """

    m: int
    alpha: Callable
    beta: Callable
    beta_inverse: Callable | None = None
    label: str = "chain"

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("chain length m must be at least 2")


@dataclass(frozen=True)
class ChainState:
    """Values q_0..q_m plus the parameter a = q_{m+1}."""

    q: tuple
    a: float

    @property
    def m(self):
        return len(self.q) - 1


def henon_chain_spec(m, c=0.0):
    """The chain generated by the quadratic action: alpha(q) = q^2 + 2q + c,
    beta = identity."""
    return ChainSpec(
        m=m,
        alpha=lambda q: q * q + 2 * q + c,
        beta=lambda q: q,
        beta_inverse=lambda q: q,
        label=f"henon-chain[m={m},c={c}]",
    )


def _derivative(fn, x):
    ((slope,),) = jet_rows(lambda s: (fn(s[0]),), (x,))
    return slope


def chain_propagate(spec, q_m, q_m1, a):
    """Fill q_{m-2}..q_0 downward from the top pair; a is carried along.

    Accepts floats or jets in (q_m, q_m1); the parameter a never enters
    the recursion itself.
    """
    m = spec.m
    q = [None] * (m + 1)
    q[m] = q_m
    q[m - 1] = q_m1
    for k in range(m - 2, -1, -1):
        try:
            q[k] = spec.alpha(q[k + 1]) - spec.beta(q[k + 2])
        except Exception as exc:
            raise SingularPointError(spec.label, f"link evaluation at k={k}") from exc
    return ChainState(q=tuple(q), a=a)


def chain_resolve_up(spec, q0, q1, a):
    """Fill q_2..q_m upward from the bottom pair via beta_inverse."""
    if spec.beta_inverse is None:
        raise ValueError(f"{spec.label} has no beta_inverse; cannot solve upward")
    m = spec.m
    q = [None] * (m + 1)
    q[0] = q0
    q[1] = q1
    for k in range(m - 1):
        q[k + 2] = spec.beta_inverse(spec.alpha(q[k + 1]) - q[k])
    return ChainState(q=tuple(q), a=a)


def hamiltonian_gradient(spec, q, p, a):
    """(dq_0/dq, dq_0/dp) of the chain propagated from the canonical pair."""
    return grad(lambda s: chain_propagate(spec, s[0], s[1], a).q[0], (q, p + a))


def chain_residual(spec, state):
    """Largest violation of the defining relations by a state."""
    worst = 0.0
    for k in range(state.m - 1):
        lhs = state.q[k]
        rhs = spec.alpha(state.q[k + 1]) - spec.beta(state.q[k + 2])
        worst = max(worst, abs(float_value(lhs) - float_value(rhs)))
    return worst


@dataclass(frozen=True)
class ChainCoefficients:
    """Link derivatives along a state, with the boundary zeros applied.

    a[k] = alpha'(q_k), b[k] = beta'(q_{k+1}), c[k] = 1/beta'(q_{k+1}) and
    abar[k] = a[k] * c[k], for k = 0..m+1 where defined; b[0] = 0 and
    c[m+1] = 0 because q_{-1} and q_{m+2} are not variables.
    """

    a: tuple
    b: tuple
    c: tuple
    abar: tuple


def chain_coefficients(spec, state):
    m = state.m
    qs = list(state.q) + [state.a]  # index 0..m+1
    a = [_derivative(spec.alpha, qs[k]) for k in range(m + 2)]
    b = [0.0] * (m + 2)
    c = [0.0] * (m + 2)
    for k in range(m + 1):
        bk = _derivative(spec.beta, qs[k + 1])
        b[k] = bk
        if bk == 0.0:
            raise SingularPointError(spec.label, f"beta'(q_{k + 1})")
        c[k] = 1.0 / bk
    b[0] = 0.0
    c[m + 1] = 0.0
    abar = [a[k] * c[k] for k in range(m + 2)]
    return ChainCoefficients(a=tuple(a), b=tuple(b), c=tuple(c), abar=tuple(abar))


def tridiag_det(diag, off):
    """Tridiagonal determinant by the three-term recurrence.

    ``diag`` holds the diagonal entries d_k..d_l and ``off`` the products
    of the off-diagonal pairs, one fewer; only those products enter the
    determinant.  For the A determinant they are the superdiagonal
    b_k..b_{l-1} against a unit subdiagonal, for the companion barA the
    subdiagonal c_{k+1}..c_l against a unit superdiagonal.  An empty
    diagonal is the l = k - 1 convention and gives 1.
    """
    diag = tuple(diag)
    off = tuple(off)
    if len(off) != max(len(diag) - 1, 0):
        raise IndexError(
            f"need one fewer off-diagonal coefficient: got {len(diag)} "
            f"diagonal and {len(off)} off-diagonal entries"
        )
    if not diag:
        return 1.0
    prev2 = 1.0
    prev = diag[0]
    for i in range(1, len(diag)):
        prev, prev2 = diag[i] * prev - off[i - 1] * prev2, prev
    return prev


# the chain's A and barA determinants are both this recurrence
chain_det_A = tridiag_det
chain_det_barA = tridiag_det


def canonical_pair(state):
    """(q, p) = (q_m, q_{m-1} - q_{m+1})."""
    return state.q[-1], state.q[-2] - state.a


def _require_unit_volume(spec, state):
    coeffs = chain_coefficients(spec, state)
    for k in range(1, state.m):
        if abs(coeffs.c[k] - 1.0) > 1e-12:
            raise ValueError(
                f"{spec.label}: Hamiltonian available in closed form only for "
                "chains with unit beta derivative along the state"
            )


def chain_hamiltonian(spec, state):
    """Conserved quantity of the (q, p) motion: the bottom value q_0.

    Only valid when the product of the c coefficients is one (beta is the
    identity along the state), which covers the quadratic-action chain.
    """
    _require_unit_volume(spec, state)
    return state.q[0]


def henon_chain_closed_hamiltonian(m, q, p, a, c=0.0):
    """Closed form of q_0 in the canonical variables for m in {2, 3}.

    Derived by unwinding the recursion with alpha(u) = u^2 + 2u + c:
    m = 2:  (p+a+1)^2 - 1 + c - q
    m = 3:  ((p+a+1)^2 + c - q)^2 - 1 + c - (p+a)
    """
    w = p + a + 1
    if m == 2:
        return w**2 - 1 + c - q
    if m == 3:
        return (w**2 + c - q) ** 2 - 1 + c - (p + a)
    raise ValueError(f"no closed-form chain Hamiltonian for m={m}")


def chain_to_henon_point(q, p, a):
    """Image-space point of the equivalent planar quadratic map.

    Shifting every chain value by one turns the three-term recursion into
    the b = 1 planar map with constant term c + 1; the chain Hamiltonian
    equals that map's conserved quantity at (p+a+1, q+1), minus one.
    Exact over Fraction inputs.
    """
    return (p + a + 1, q + 1)


@dataclass(frozen=True)
class ChainHamiltonReport:
    """Finite-difference verification of dq/dq_1 = dH/dp, dp/dq_1 = -dH/dq."""

    m: int
    q: float
    p: float
    a: float
    dq_dq1: float
    dp_dq1: float
    dh_dp: float
    dh_dq: float
    bar_a_1_m1: float
    err_dq: float
    err_dp: float
    err_bar_a: float
    passed: bool


def verify_chain_hamilton(spec, state, rel_tol=1e-6):
    """Check the Hamilton equations of the chain at a state.

    dq/dq_1 and dp/dq_1 come from central differences, re-solving the
    chain upward with q_1 perturbed and q_0 held fixed; dH/dq and dH/dp
    come from jet differentiation of the propagated q_0.  The dq/dq_1
    response is also compared against the tridiagonal determinant
    built from the abar and c coefficients.
    """
    _require_unit_volume(spec, state)
    m = state.m
    q0 = state.q[0]
    q1 = state.q[1]
    a = state.a
    q, p = canonical_pair(state)

    h = 1e-6 * (1.0 + abs(q1))
    hi = chain_resolve_up(spec, q0, q1 + h, a)
    lo = chain_resolve_up(spec, q0, q1 - h, a)
    dq_dq1 = (hi.q[m] - lo.q[m]) / (2 * h)
    dp_dq1 = (hi.q[m - 1] - lo.q[m - 1]) / (2 * h)

    dh_dq, dh_dp = hamiltonian_gradient(spec, q, p, a)

    coeffs = chain_coefficients(spec, state)
    bar_a = tridiag_det(coeffs.abar[1:m], coeffs.c[2:m])  # indices 1..m-1 and 2..m-1

    scale_q = 1.0 + abs(dq_dq1)
    scale_p = 1.0 + abs(dp_dq1)
    err_dq = abs(dq_dq1 - dh_dp) / scale_q
    err_dp = abs(dp_dq1 + dh_dq) / scale_p
    err_bar = abs(dq_dq1 - bar_a) / scale_q
    return ChainHamiltonReport(
        m=m,
        q=float_value(q),
        p=float_value(p),
        a=float_value(a),
        dq_dq1=dq_dq1,
        dp_dq1=dp_dq1,
        dh_dp=dh_dp,
        dh_dq=dh_dq,
        bar_a_1_m1=bar_a,
        err_dq=err_dq,
        err_dp=err_dp,
        err_bar_a=err_bar,
        passed=bool(err_dq <= rel_tol and err_dp <= rel_tol and err_bar <= rel_tol),
    )
