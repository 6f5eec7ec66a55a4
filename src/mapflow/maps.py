"""Catalog of built-in maps with closed-form inverses, Jacobians and
Hamiltonians.

Each entry provides a :class:`~mapflow.core.MapDescriptor` plus, where a
closed form exists, the conserved Hamiltonians and the explicit velocity
fields of the associated flow.  Entries are addressable by string id
("hermite", "henon", "kdv3", "kdv2", "qp4", "chain1d-henon") for the
command-line front end.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import MapDescriptor, compose, compose_sequence, float_value, jet_log
from .errors import ConfigError, SingularPointError, UnknownMapError
from .flows import flow_system


# ---------------------------------------------------------------------------
# Hermite recurrence chain


def hermite_step(k):
    """One recurrence step (x, y) -> (x, x - k/y) with inverse y = k/(x - Y)."""
    if k < 1:
        raise ValueError("step index must be a positive integer")

    def fwd(state):
        x, y = state
        return (x, x - k / y)

    def inv(state):
        x, yk = state
        return (x, k / (x - yk))

    return MapDescriptor(
        name=f"hermite-step[{k}]",
        dimension=2,
        params={"k": k},
        forward_fn=fwd,
        inverse_fn=inv,
        forward_guards=(("y", lambda s: s[1]),),
        inverse_guards=(("X - Y", lambda s: s[0] - s[1]),),
        det_j=lambda s: k / (s[1] * s[1]),
    )


def hermite_chain(m):
    """The chain of steps k = 1..m-1; maps (x, y1) to (x, ym).

    Starting from y1 = P_1/P_0 the chain walks the ratio of consecutive
    members of the recurrence family (``hermite_values``) up to
    ym = P_m/P_{m-1} evaluated at x; ``hermite_suite`` walks the same
    steps one at a time to check these ratios.  Its det J,
    (m-1)! / (y^(1) ... y^(m-1))^2 with y^(k+1) = x - k/y^(k), is the
    composite's chain-rule product of the step determinants.
    """
    if m < 2:
        raise ValueError("chain length m must be at least 2")
    # the box keeps every intermediate y^(k) away from zero for m <= 10
    return compose_sequence(
        (hermite_step(k) for k in range(1, m)),
        name=f"hermite[m={m}]",
        params={"m": m},
        sample_box=((6.0, 8.0), (0.8, 1.2)),
    )


def hermite_hamiltonian(m):
    """Closed-form conserved quantity of the m-index chain, m in {2, 3}."""
    if m == 2:

        def ham(state):
            x, y = state
            return x * (x - y) ** 2

        return ham
    if m == 3:

        def ham(state):
            x, y = state
            return (2 - x * (x - y)) ** 2 / (y - x)

        return ham
    raise ValueError(f"no closed-form chain Hamiltonian for m={m}")


def hermite_source_constraint(m, c, y):
    """Initial-value curve x(y) along which the chain Hamiltonian stays fixed."""
    if float_value(y) == 0.0:
        raise SingularPointError("hermite constraint", "y", (y,))
    if m == 2:
        return c * y**2
    if m == 3:
        return c / y**2 + 1 / y
    raise ValueError(f"no source constraint for m={m}")


def hermite_flow(m):
    """Flow whose trajectories retrace the chain as y varies; m in {2, 3}."""
    ham = hermite_hamiltonian(m)  # first: rejects m before the O(m) chain
    return flow_system(hermite_chain(m), (ham,))


def hermite_composite(steps, m):
    """Recurrence steps k = 1..steps, whose composite is the chain of length
    steps + 1 whatever m is, and that chain's flow where its Hamiltonian
    has a closed form (lengths 2 and 3)."""
    flow = hermite_flow(steps + 1) if steps in (1, 2) else None
    return [hermite_step(k) for k in range(1, steps + 1)], flow


def hermite_values(n, x):
    """(P_k, P_k', P_k'') at x for k = 0..n, run through the recurrence
    P_{k+1} = x P_k - k P_{k-1}, P_0 = 1, P_1 = x, and its two derivatives;
    exact for int and Fraction x.

    This normalization is the unique one compatible with both the
    recurrence and the second-order equation P'' - x P' + m P = 0.
    """
    rows = [(1, 0, 0), (x, 1, 0)]
    for k in range(1, n):
        (q, q1, q2), (p, p1, p2) = rows[k - 1], rows[k]
        rows.append((x * p - k * q, p + x * p1 - k * q1, 2 * p1 + x * p2 - k * q2))
    return rows[: n + 1]


HERMITE_IDENTITIES = ("ode", "difference", "raise", "lower")


def _hermite_residuals(m, x, rows):
    """The left-hand sides of ``HERMITE_IDENTITIES`` at m, given the
    ``hermite_values`` rows at x; each must vanish."""
    (pl, pl1, _), (pm, d1, d2), (pu, pu1, _) = rows[m - 1 : m + 2]
    return (
        d2 - x * d1 + m * pm,
        pm * pu1 - pu * d1 - pm * pm + m * pm * pl1 - m * pl * d1,
        x * pm - d1 - pu,
        d1 - m * pl,
    )


def hermite_checks(m_max):
    """Verify, in exact integer arithmetic, for every m <= m_max:

    (i)   P_m'' - x P_m' + m P_m = 0,
    (ii)  P_m P'_{m+1} - P_{m+1} P'_m - P_m^2 + m P_m P'_{m-1} - m P_{m-1} P'_m = 0,
    (iii) P_{m+1} = x P_m - P'_m  and  P_{m-1} = P'_m / m.

    Returns the ``(identity, m)`` pairs that fail, one name of
    ``HERMITE_IDENTITIES`` each; empty when every identity holds.
    """
    if m_max < 2:
        raise ValueError("m_max must be at least 2")
    # each left-hand side is a polynomial in x of degree at most 2 m_max,
    # the products of (ii) being the highest; a nonzero one has at most
    # 2 m_max roots, so it is identically zero iff it vanishes at the
    # 2 m_max + 1 integers 0..2 m_max
    tables = [(x, hermite_values(m_max + 1, x)) for x in range(2 * m_max + 1)]
    failures = []
    for m in range(1, m_max + 1):
        residuals = zip(*(_hermite_residuals(m, x, rows) for x, rows in tables))
        failures += [
            (name, m) for name, r in zip(HERMITE_IDENTITIES, residuals) if any(r)
        ]
    return tuple(failures)


HERMITE_CF_POINTS = (-0.5, 0.5, -1.7, 1.7, 3.0)
HERMITE_CF_TOL = 1e-12


def hermite_suite(m_max):
    """Exact recurrence identities plus the continued-fraction cross-check.

    The identity suite runs in integer arithmetic.  The continued fraction
    (m-1)/x - (m-2)/x - ... - 1/x is read off the chain's own steps: from
    y_1 = x, ``hermite_step(k)`` gives y_{k+1} = x - k/y_k, and the fraction
    is (m-1)/y_{m-1}.  It is compared against the exact ratio
    (m-1) P_{m-2}/P_{m-1}, evaluated in rationals at a few sample abscissae
    chosen away from the polynomial zeros.
    """
    failures = hermite_checks(m_max)
    steps = [hermite_step(k) for k in range(1, m_max - 1)]
    worst_cf = 0.0
    for x in HERMITE_CF_POINTS:
        p = [row[0] for row in hermite_values(m_max - 1, Fraction(x))]
        walk = itertools.accumulate(
            steps, lambda s, step: step.forward(s), initial=(x, x)
        )
        for m, (_, y) in enumerate(walk, start=2):
            ratio = float((m - 1) * p[m - 2] / p[m - 1])
            worst_cf = max(worst_cf, abs((m - 1) / y - ratio) / (1.0 + abs(ratio)))
    cf_ok = worst_cf <= HERMITE_CF_TOL
    failed = {name for name, _ in failures}
    return {
        "type": "hermite-suite",
        "m_max": m_max,
        "ode_ok": "ode" not in failed,
        "difference_identity_ok": "difference" not in failed,
        "ladder_ok": failed.isdisjoint(("raise", "lower")),
        "failures": [list(f) for f in failures],
        "continued_fraction_max_rel_err": worst_cf,
        "continued_fraction_ok": cf_ok,
        "passed": not failures and cf_ok,
    }


# ---------------------------------------------------------------------------
# Henon map


def henon(b, c):
    """Polynomial diffeomorphism (x, y) -> (y, y^2 - b x + c), det J = b."""
    if b == 0:
        raise ValueError("henon map needs b != 0 to be invertible")

    def fwd(state):
        x, y = state
        return (y, y * y - b * x + c)

    def inv(state):
        xk, yk = state
        return ((xk * xk - yk + c) / b, xk)

    return MapDescriptor(
        name="henon",
        dimension=2,
        params={"b": b, "c": c},
        forward_fn=fwd,
        inverse_fn=inv,
        det_j=lambda s: b,
    )


def henon_hamiltonian(m, b, c):
    """Closed-form conserved quantity after m-1 applications, m in {2, 3, 4}.

    Each form is the first source coordinate, scaled by the constant
    Jacobian determinant accumulated over the steps, rewritten in image
    coordinates.
    """
    if m == 2:

        def ham(state):
            xk, yk = state
            return xk * xk - yk + c

        return ham
    if m == 3:

        def ham(state):
            xk, yk = state
            return (xk * xk - yk + c) ** 2 / b - xk * b + c * b

        return ham
    if m == 4:

        def ham(state):
            xk, yk = state
            u = xk * xk - yk + c
            return (u * u / (b * b) - xk + c) ** 2 - u * b + c * b * b

        return ham
    raise ValueError(f"no closed-form Hamiltonian for m={m}")


HENON_FLOW_STEPS = (1, 2, 3)


def henon_flow(b, c, steps=1):
    """Flow of the steps-fold composition; conserved H has index steps + 1."""
    if steps not in HENON_FLOW_STEPS:
        raise ValueError("closed-form flows cover 1..3 applications")
    return flow_system(
        compose(henon(b, c), steps),
        (henon_hamiltonian(steps + 1, b, c),),
    )


def henon_composite(steps, b, c):
    """Copies of the map and, for up to three, the flow of their composite."""
    flow = henon_flow(b, c, steps) if steps in HENON_FLOW_STEPS else None
    return [henon(b, c)] * steps, flow


def _components(vector, count):
    """The scalar Hamiltonians H_1..H_count read off a vector-valued one."""
    return tuple(lambda state, _j=j: vector(state)[_j] for j in range(count))


# ---------------------------------------------------------------------------
# three-point KdV lattice


def kdv3():
    """Volume-preserving three-point lattice map, det J = 1.

    The image satisfies 1/x - 1/X = Y - z and its two cyclic companions,
    which pins down the invariants preserved step to step.
    """

    # the factors divided by are the guards' own, so each is written once;
    # under a trace the guard check computes them on the traced point, and
    # the map's jets reuse those recorded values
    def fwd(state):
        x, y, z = state
        f1, f2, f3 = (g(state) for _, g in mapdesc.forward_guards)
        return (x * f1 / f2, y * f3 / f1, z * f2 / f3)

    def inv(state):
        xk, yk, zk = state
        g1, g2, g3 = (g(state) for _, g in mapdesc.inverse_guards)
        return (xk * g3 / g1, yk * g1 / g2, zk * g2 / g3)

    mapdesc = MapDescriptor(
        name="kdv3",
        dimension=3,
        params={},
        forward_fn=fwd,
        inverse_fn=inv,
        forward_guards=(
            ("1+xy+xy^2z", lambda s: 1 + s[0] * s[1] + s[0] * s[1] * s[1] * s[2]),
            ("1+zx+x^2yz", lambda s: 1 + s[2] * s[0] + s[0] * s[0] * s[1] * s[2]),
            ("1+yz+xyz^2", lambda s: 1 + s[1] * s[2] + s[0] * s[1] * s[2] * s[2]),
        ),
        inverse_guards=(
            ("1+XY+X^2YZ", lambda s: 1 + s[0] * s[1] + s[0] * s[0] * s[1] * s[2]),
            ("1+YZ+XY^2Z", lambda s: 1 + s[1] * s[2] + s[0] * s[1] * s[1] * s[2]),
            ("1+ZX+XYZ^2", lambda s: 1 + s[2] * s[0] + s[0] * s[1] * s[2] * s[2]),
        ),
        det_j=lambda s: 1.0,
    )
    return mapdesc


@dataclass(frozen=True)
class KdvInvariants:
    """Conserved quantities of the three-point lattice map.

    u = 1/(xyz) + xyz, v = sum of every coordinate and its reciprocal,
    r = xyz, s = (1+xy)(1+yz)(1+zx).
    """

    u: float
    v: float
    r: float
    s: float


def kdv_invariants(state):
    x, y, z = state
    r = x * y * z
    return KdvInvariants(
        u=1 / r + r,
        v=1 / x + 1 / y + 1 / z + x + y + z,
        r=r,
        s=(1 + x * y) * (1 + y * z) * (1 + z * x),
    )


def kdv3_velocity(state):
    """Closed-form image velocity of the lattice flow with z as time."""
    xk, yk, zk = state
    den = (1 + yk * zk + xk * yk * yk * zk) ** 2
    top = 1 + 2 * zk * xk + 2 * xk * yk * zk * zk + xk * xk * yk * yk * zk * zk
    return (
        -xk * xk * (1 - yk * yk + 2 * yk * zk + yk * yk * zk * zk) / den,
        yk * yk * top / den,
        top / den,
    )


def kdv3_flow():
    """Flow conserving the first two source coordinates (det J = 1)."""
    mapdesc = kdv3()

    def vector(state):
        return mapdesc.inverse(state)[:2]

    return flow_system(mapdesc, _components(vector, 2), vector)


# ---------------------------------------------------------------------------
# two-point reduction of the KdV lattice


def kdv2(r):
    """Planar reduction of the lattice map on the surface z = r/(xy)."""
    if r == 0:
        raise ValueError("reduction parameter r must be nonzero")

    def fwd(state):
        x, y = state
        p, _, q = (g(state) for _, g in mapdesc.forward_guards)
        return (x * y * q / p, (r * r + r * y + x * y) / (x * q))

    def inv(state):
        xk, yk = state
        _, q, p = (g(state) for _, g in mapdesc.inverse_guards)
        return ((r * r + r * xk + xk * yk) / (yk * q), xk * yk * q / p)

    mapdesc = MapDescriptor(
        name="kdv2",
        dimension=2,
        params={"r": r},
        forward_fn=fwd,
        inverse_fn=inv,
        forward_guards=(
            ("r+y+rxy", lambda s: r + s[1] + r * s[0] * s[1]),
            ("x", lambda s: s[0]),
            ("1+ry+xy", lambda s: 1 + r * s[1] + s[0] * s[1]),
        ),
        inverse_guards=(
            ("Y", lambda s: s[1]),
            ("1+rX+XY", lambda s: 1 + r * s[0] + s[0] * s[1]),
            ("r+X+rXY", lambda s: r + s[0] + r * s[0] * s[1]),
        ),
        det_j=lambda s: (r * r + r * s[1] + s[0] * s[1])
        / (s[0] * (r + s[1] + r * s[0] * s[1])),
    )
    return mapdesc


def kdv2_hamiltonian(r):
    """Log-form conserved quantity in image coordinates.

    Defined for positive log arguments only; no branch handling is
    attempted outside that domain.
    """

    def ham(state):
        xk, yk = state
        p = r + xk + r * xk * yk
        q = 1 + r * xk + xk * yk
        w = r * r + r * xk + xk * yk
        return r * jet_log(p / (yk * q * q)) + (1.0 / r) * jet_log(w * q / p)

    return ham


def kdv2_velocity(r):
    """Closed-form (dX/dy, dY/dy) of the reduced flow at a source point."""

    def rhs(state):
        x, y = state
        num_x = (
            r**3 * x**2 * y**2
            + 4 * r**2 * y**2 * x
            - 2 * x * y**2
            + 2 * r**3 * x * y
            + 2 * r**3 * y**2
            - r * y**2
            - y
            + 2 * r**4 * y
            + r**2 * y
            + r**3
        ) * x
        den_x = (r + y + r * x * y) * (r * r + r * y + x * y) * r
        num_y = (
            (1 - r * r)
            * (x * x * y + 2 * r * x * y + 2 * r * r * x + r * r * y + r**3 + r)
            * (r + y + r * x * y)
        )
        den_y = x * (1 + r * y + x * y) ** 2 * (r * r + r * y + x * y) * r
        return (num_x / den_x, num_y / den_y)

    return rhs


def kdv2_flow(r):
    """Reduced flow; its source motion must follow the constraint curve."""
    return flow_system(kdv2(r), (kdv2_hamiltonian(r),))


# ---------------------------------------------------------------------------
# q-difference three-point map (Painleve IV family)


def qp4(a, b, c):
    """Three-dimensional q-difference map with constant det J = (abc)^2."""
    if a == 0 or b == 0 or c == 0:
        raise ValueError("qp4 parameters must all be nonzero")
    q = a * b * c

    # as in kdv3, the factors divided by are the guards' own: a traced guard
    # check records them once and the map's jets reuse them
    def fwd(state):
        x, y, z = state
        f1, f2, f3 = (g(state) for _, g in mapdesc.forward_guards)
        return (a * b * y * f3 / f1, b * c * z * f1 / f2, c * a * x * f2 / f3)

    def inv(state):
        xk, yk, zk = state
        g1, g2, g3 = (g(state) for _, g in mapdesc.inverse_guards)
        return (
            (zk / (c * a)) * g2 / g1,
            (xk / (a * b)) * g3 / g2,
            (yk / (b * c)) * g1 / g3,
        )

    mapdesc = MapDescriptor(
        name="qp4",
        dimension=3,
        params={"a": a, "b": b, "c": c},
        forward_fn=fwd,
        inverse_fn=inv,
        forward_guards=(
            ("1+ax+abxy", lambda s: 1 + a * s[0] + a * b * s[0] * s[1]),
            ("1+by+bcyz", lambda s: 1 + b * s[1] + b * c * s[1] * s[2]),
            ("1+cz+cazx", lambda s: 1 + c * s[2] + c * a * s[2] * s[0]),
        ),
        inverse_guards=(
            ("1+X/a+XZ/ac", lambda s: 1 + s[0] / a + s[0] * s[2] / (a * c)),
            ("1+Y/b+YX/ba", lambda s: 1 + s[1] / b + s[1] * s[0] / (b * a)),
            ("1+Z/c+ZY/cb", lambda s: 1 + s[2] / c + s[2] * s[1] / (c * b)),
        ),
        det_j=lambda s: q**2,
    )
    return mapdesc


def qp4_invariants(a, b, c, state):
    """(r, s) = (xyz, (1+ax)(1+by)(1+cz)); conserved when a = b = c = +-1."""
    x, y, z = state
    return (x * y * z, (1 + a * x) * (1 + b * y) * (1 + c * z))


def qp4_velocity(a, b, c):
    """Closed-form velocity of the flow, carrying its q and c^2 prefactors,
    as a function of the image point."""
    q = a * b * c

    def rhs(state):
        xk, yk, zk = state
        g1 = 1 + xk / a + zk * xk / (c * a)
        g2 = 1 + yk / b + xk * yk / (a * b)
        g3 = 1 + zk / c + yk * zk / (b * c)
        return (
            q * (xk / a) * (1 + xk / a) * g3 / (b * g2 * g1),
            q * (1 + yk / b) * g3 / (a * g2 * g1),
            -c * c * (zk / c) * g3 / (g1 * g2),
        )

    return rhs


QP4_NORMALIZATIONS = ("prop2", "paper-display")


def qp4_flow(a, b, c, normalization=None):
    """Flow with H1 = x(image); H2 depends on the chosen normalization.

    "prop2" scales the second Hamiltonian by the constant determinant
    (H2 = q^2 * y), "paper-display" leaves it unscaled (H2 = y).  The two
    coincide when |q| = 1; otherwise the flag is required and the
    correspondence oracle in the harness decides which one reproduces the
    map.
    """
    mapdesc = qp4(a, b, c)
    q = a * b * c
    if normalization is None:
        if not math.isclose(abs(q), 1.0, rel_tol=0, abs_tol=1e-12):
            raise ConfigError(
                "qp4 with |abc| != 1 needs normalization='prop2' or "
                "'paper-display'"
            )
        normalization = "prop2"
    if normalization not in QP4_NORMALIZATIONS:
        raise ConfigError(f"unknown qp4 normalization {normalization!r}")
    scale = q * q if normalization == "prop2" else 1.0

    def vector(state):
        x, y, _ = mapdesc.inverse(state)
        return (x, scale * y)

    return flow_system(mapdesc, _components(vector, 2), vector)


# ---------------------------------------------------------------------------
# catalog registry


@dataclass(frozen=True)
class CatalogEntry:
    """A catalog map as data.

    ``build`` and ``flow`` are the constructors themselves, called with the
    schema parameters as keywords (the flow also with the extra flags
    given).  ``composite(steps, **params)`` returns the step maps of a
    composition check and their composite's closed-form flow or None;
    without it the steps are copies of the map and there is no flow.
    """

    description: str
    param_schema: dict  # name -> default value, whose type the value takes
    build: Callable | None
    flow: Callable | None
    extra_flags: tuple = ()  # non-numeric parameters, e.g. qp4 normalization
    composite: Callable | None = None
    composition_x0: tuple | None = None  # start of composition checks


CATALOG = {
    "hermite": CatalogEntry(
        description="recurrence chain (x, y) -> (x, x - k/y), k = 1..m-1",
        param_schema={"m": 2},
        build=hermite_chain,
        flow=hermite_flow,
        composite=hermite_composite,
        composition_x0=(7.0, 1.0),  # keeps every intermediate denominator positive
    ),
    "henon": CatalogEntry(
        description="(x, y) -> (y, y^2 - b x + c), det J = b",
        param_schema={"b": 1.0, "c": 0.0},
        build=henon,
        flow=henon_flow,
        composite=henon_composite,
    ),
    "kdv3": CatalogEntry(
        description="three-point lattice map, det J = 1, invariants u v r s",
        param_schema={},
        build=kdv3,
        flow=kdv3_flow,
    ),
    "kdv2": CatalogEntry(
        description="planar reduction of kdv3 on the surface z = r/(xy)",
        param_schema={"r": 2.0},
        build=kdv2,
        flow=kdv2_flow,
    ),
    "qp4": CatalogEntry(
        description="q-difference three-point map, det J = (abc)^2",
        param_schema={"a": 1.0, "b": 1.0, "c": 1.0},
        build=qp4,
        flow=qp4_flow,
        extra_flags=("normalization",),
    ),
    "chain1d-henon": CatalogEntry(
        description="one-dimensional three-term chain (use the chain subcommand)",
        param_schema={"m": 2, "a": 0.0, "c": 0.0},
        build=None,
        flow=None,
    ),
}


def catalog_ids():
    return sorted(CATALOG)


def get_entry(map_id):
    try:
        return CATALOG[map_id]
    except KeyError:
        raise UnknownMapError(
            f"unknown map id {map_id!r}; known: {', '.join(catalog_ids())}"
        ) from None


def resolve_params(map_id, overrides=None):
    """Merge user parameters over the schema defaults, rejecting unknown
    names and schema parameters that are not finite real numbers (or not
    integral where the default is an int); each takes its default's type."""
    entry = get_entry(map_id)
    params = dict(entry.param_schema)
    for name, value in (overrides or {}).items():
        if name in entry.param_schema:
            integral = type(entry.param_schema[name]) is int
            finite = (
                isinstance(value, numbers.Real)
                and not isinstance(value, bool)
                and math.isfinite(value)
            )
            if not finite or (integral and value != int(value)):
                kind = "an integer" if integral else "a finite number"
                raise ConfigError(
                    f"map {map_id!r} parameter {name!r} must be {kind}, "
                    f"got {value!r}"
                )
            value = type(entry.param_schema[name])(value)
        elif name not in entry.extra_flags:
            raise ConfigError(f"map {map_id!r} has no parameter {name!r}")
        params[name] = value
    return params


def _schema_kwargs(entry, params):
    """Resolved schema parameters as constructor keywords."""
    return {name: params[name] for name in entry.param_schema}


def build_map(map_id, params=None):
    entry = get_entry(map_id)
    if entry.build is None:
        raise ConfigError(
            f"{map_id!r} is not a phase-space map; use the chain subcommand"
        )
    return entry.build(**_schema_kwargs(entry, resolve_params(map_id, params)))


def build_flow(map_id, params=None):
    """The catalog flow of ``map_id`` at ``params``: one shared, frozen
    flow per constructor and resolved parameters for the life of the
    process (at most 32 kept, least recently used dropped first), so a
    later call reuses the velocity, level and det-condition report that an
    earlier one traced or checked.  Building one traces nothing, and a
    refused build is not kept, so it is refused again on every call."""
    entry = get_entry(map_id)
    if entry.flow is None:
        raise ConfigError(f"{map_id!r} has no associated flow")
    return _flow(entry.flow, _Params(resolve_params(map_id, params)))


class _Params(tuple):
    """Resolved parameters as sorted (name, type, repr(value)) triples, the
    key of ``_flow``: 1 and 1.0, resolved to one float, share a key, while
    0.0 and -0.0 do not.  ``values`` keeps the parameters themselves."""

    def __new__(cls, values):
        items = sorted((name, type(v), repr(v)) for name, v in values.items())
        key = super().__new__(cls, items)
        key.values = values
        return key


@functools.lru_cache(maxsize=32)
def _flow(constructor, items):
    # keyed on the constructor itself, so a replaced CATALOG entry builds anew
    return constructor(**items.values)


def build_composite(map_id, params, steps):
    """Step maps of the steps-fold composite and its closed-form flow, which
    is None where the catalog knows no closed form."""
    entry = get_entry(map_id)
    if entry.composite is None:
        return [build_map(map_id, params)] * steps, None
    params = resolve_params(map_id, params)
    return entry.composite(steps, **_schema_kwargs(entry, params))
