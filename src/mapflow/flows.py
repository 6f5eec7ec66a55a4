"""Build Nambu-Hamiltonian flows from maps and integrate them.

Given an n-dimensional invertible map, an n-1 tuple of conserved
Hamiltonians turns one source coordinate into the time variable of an ODE
system.  The first n-2 Hamiltonians are source coordinates read through
the inverse map; the last one is the integral of the Jacobian determinant
along the remaining source coordinate.  This module constructs those
fields (numerically, by quadrature), forms the bracket-based right-hand
sides in image space and source space, and integrates them with either a
classical fixed-step RK4 or an adaptive Dormand-Prince 5(4) pair.

A velocity is the signed minors of the Hamiltonians' gradient rows, read
off their partials at one seeded point (``core.jet_rows``) by
``core.minors``, the one kernel ``core.nambu_bracket`` and the harness's
level-set Newton step share too.  Each flow binds
it to its Hamiltonians once, as its ``jet_velocity``; ``nambu_rhs``
checks a point and calls the flow's ``velocity``, and ``source_rhs`` runs
the same function over the Hamiltonians composed with the forward map.
The check is compiled once per dimension and bound once per flow, as its
``checked_velocity``: a tuple of n finite floats goes straight to
``velocity``, and any other point is converted or refused as a float
state of the map.  ``integrate_flow`` takes neither route: it checks its
start once, and the compiled Runge-Kutta step calls ``velocity`` itself
on each stage state, a tuple of n floats whose finiteness the step
checks.  A
flow's ``velocity`` is its ``jet_velocity`` traced on first use by
``core.trace`` into straight-line float code, which returns the same
bits.  A flow keeps ``jet_velocity`` only when its trace is abandoned:
when n >= 5, whose 4x4 and larger minors pivot on values, or when its
Hamiltonians read a value.  A guard, finiteness or log-domain check that
fails in the traced code, or a division by zero, re-runs the point
through ``jet_velocity``, which raises what it always has.
Quadrature-built Hamiltonians trace too: the traced code holds one
Kronrod panel and checks that its estimate meets the tolerance, and a
point where it does not re-runs through the adaptive loop; either way the
flow's ``quadrature`` counts the panels the jet arithmetic would
make.  A flow's ``level`` is traced the same way from its ``jet_level``:
the values H_j(F(x)) at a source point and each H_j's partials along the
free (non-time) slots, which is what the harness's level-set Newton
reads, and it falls back to ``jet_level`` exactly as ``velocity`` falls
back to ``jet_velocity``.  The float evaluations the harness makes at
each sample are traced the same way, on first use: the Hamiltonians'
values (``float_hamiltonians``), the forward image (``image``) and the
image with the time column of the forward Jacobian
(``image_time_column``).  A trace freezes every constant the
Hamiltonians use, so they must be pure functions of their point.  A
Runge-Kutta stage state sums weight * stage component by component over
the non-zero weights in stage order.  Each method's whole step, every
stage sum and the rhs calls between them, is compiled into straight-line
code once per state dimension (``_step``), and so is the loop that takes
the steps (``_loop``): its step control, its error norm and its
continuous extension, whose weights change with each sample, are written
out component by component.  A step keeps an rhs result that is already
a tuple of n floats as it is, and converts any other.

The last Hamiltonian's derivative along the coordinate it integrates over
is the determinant at the integral's endpoint, added once per evaluation,
so the Kronrod nodes along that coordinate are floats; its derivatives
along the other coordinates come from integrating their jets.  The
determinant field is the map's declared ``det_j``, checked against the
Jacobian of the map on sampled points before any quadrature is built; only
a map that declares none has its Jacobian differentiated again, through
nested jets, inside the quadrature integrand and the determinant-condition
check.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable

from . import core
from .core import Jet, as_state, float_value, map_det_field
from .errors import (
    ConfigError,
    DetConditionError,
    IntegrationError,
    MaxStepsError,
    NonFiniteStateError,
    SingularPointError,
    StepUnderflowError,
)
from .quadrature import QuadratureCounts, integrate_gk

DET_CONDITION_TOL = 1e-7
DET_CONDITION_SAMPLES = 25
DET_CONDITION_SEED = 42
DECLARED_DET_TOL = 1e-9
QUADRATURE_ABS_TOL = 1e-10


# ---------------------------------------------------------------------------
# flow systems


@dataclass(frozen=True)
class FlowSystem:
    """An n-dimensional flow with n-1 conserved Hamiltonians.

    ``time_index`` is the 1-based source coordinate playing the role of
    time.  ``hamiltonians`` are scalar fields over image space and
    ``det_j_field`` is the Jacobian determinant over source space; both
    accept float or jet coordinates.  ``hamiltonians_at`` calls the
    Hamiltonians in turn, so work they share, such as the inverse map,
    runs once per Hamiltonian by jet arithmetic but once in a traced
    evaluation, whose tape records each distinct line once (see
    ``core._Tape``).  ``quadrature`` holds the running quadrature totals
    of Hamiltonians built by quadrature, None for closed forms.
    ``jet_velocity`` (the bracket velocity by jet arithmetic),
    ``velocity`` (that function traced), ``checked_velocity`` (``velocity``
    behind ``nambu_rhs``'s check of its point), ``jet_level`` (the values and
    free-slot rows of H(F(x)) that a level-set Newton step reads, by jet
    arithmetic), ``level`` (that function traced), ``float_hamiltonians``
    (the Hamiltonians' float values, traced, behind
    ``hamiltonian_values``), ``image`` (the forward map, traced, behind the
    same check as ``checked_velocity``), ``image_time_column`` (F(x) and
    the time column of J(x), traced) and ``det_condition`` are computed
    on first use and kept with the flow.
    """

    map: core.MapDescriptor
    time_index: int
    hamiltonians: tuple
    det_j_field: Callable
    quadrature: QuadratureCounts | None = field(default=None, compare=False)

    def __post_init__(self):
        n = self.map.dimension
        if len(self.hamiltonians) != n - 1:
            raise ValueError(
                f"flow over {n} dimensions needs {n - 1} hamiltonians, "
                f"got {len(self.hamiltonians)}"
            )
        _check_time_index(self.map, self.time_index)

    def hamiltonians_at(self, image):
        """The Hamiltonians at an image point whose entries are floats or jets,
        each H_j called in turn, so that a division by zero in H_j is a
        SingularPointError naming H_j.  Under a trace, a line that two of
        them share, such as one of the inverse map's, is recorded once."""
        values = []
        for j, h in enumerate(self.hamiltonians, 1):
            try:
                values.append(h(image))
            except ZeroDivisionError as exc:
                point = tuple(float_value(c) for c in image)
                label = f"a denominator of H{j}"
                raise SingularPointError(self.map.name, label, point) from exc
        return tuple(values)

    def hamiltonian_values(self, point):
        """The Hamiltonians' float values at an image point, checked as a
        state (``as_state``).  A state of n coordinates goes through
        ``float_hamiltonians``; one of any other length reaches the
        Hamiltonians as it is, which refuse it as they always have."""
        x = as_state(point)
        if len(x) == self.map.dimension:
            return self.float_hamiltonians(x)
        return _hamiltonian_floats(self, x)

    def source_hamiltonians(self, src):
        """The Hamiltonians at the image of a source point, H(F(src)), whose
        entries are floats or jets."""
        return self.hamiltonians_at(self.map.forward(src))

    @cached_property
    def jet_velocity(self):
        """The bracket velocity at a state by jet arithmetic, a tuple of n
        finite floats (the caller checks it; see ``nambu_rhs``): the one
        bracket function over ``hamiltonians_at``, so a division by zero
        is a SingularPointError naming the H_j at fault."""
        return partial(_bracket_velocity, self.hamiltonians_at)

    @cached_property
    def velocity(self):
        """``jet_velocity`` traced on first use (``core.trace``) into
        straight-line float code with the same bits, which re-runs a point
        through ``jet_velocity`` when a guard, finiteness or log-domain
        check fails there, a Hamiltonian divides by zero, or a quadrature
        needs more than its first panel.  Either way ``quadrature`` is
        charged the panels ``jet_velocity`` makes, and the trace itself
        charges none.  A flow keeps ``jet_velocity`` when its trace is
        abandoned: when n >= 5, whose minors pivot on values, or when its
        Hamiltonians read a value.  The trace freezes the Hamiltonians'
        constants, so they must be pure functions of their point."""
        return core.trace(self.jet_velocity, self.map.dimension) or self.jet_velocity

    @cached_property
    def checked_velocity(self):
        """``velocity`` behind the check of its point that ``nambu_rhs``
        makes: ``_checked`` of the map's dimension, bound to this flow, which
        hands any other point to ``velocity`` through ``_flow_state``."""
        velocity, state = self.velocity, partial(_flow_state, self)
        return _checked(self.map.dimension)(velocity, lambda x: velocity(state(x)))

    @cached_property
    def float_hamiltonians(self):
        """The Hamiltonians' float values at a state of n floats
        (``_hamiltonian_floats``), traced on first use as ``velocity`` is
        and falling back the same way: a failed guard, finiteness or
        first-panel check, or a division by zero, re-runs the point through
        ``_hamiltonian_floats``, which raises the SingularPointError naming
        H_j as ever, and ``quadrature`` is charged the panels that makes.
        A flow keeps ``_hamiltonian_floats`` when its Hamiltonians read a
        value."""
        plain = partial(_hamiltonian_floats, self)
        return core.trace(plain, self.map.dimension) or plain

    @cached_property
    def image(self):
        """The map's forward image of a point.  ``_checked`` of the map's
        dimension sorts the points: a tuple of n finite floats goes to the
        forward map traced on first use, which re-runs a point whose guard
        or finiteness check fails through ``map.forward``, and any other
        point (jets, traced scalars, a list, a wrong length, a non-finite
        value) to ``map.forward`` itself.  ``map.forward`` stays untraced,
        so building a flow, or its Hamiltonians, traces nothing."""
        forward = self.map.forward
        traced = core.trace(forward, self.map.dimension) or forward
        return _checked(self.map.dimension)(traced, forward)

    @cached_property
    def image_time_column(self):
        """F(x), then column ``time_index - 1`` of the forward Jacobian J(x),
        at a source state of n floats: one flat tuple of 2n floats from one
        seeded evaluation (``_image_time_column``), traced on first use as
        ``velocity`` is and falling back the same way.  The column is the
        image's velocity as the time slot moves, so on a time-slot path it
        is what the bracket velocity at F(x) must equal; the qp4
        normalization oracle reads it as its truth."""
        plain = partial(_image_time_column, self)
        return core.trace(plain, self.map.dimension) or plain

    @cached_property
    def jet_level(self):
        """What one level-set Newton step reads at a source point, by jet
        arithmetic (``_level_values_rows``): H_j(F(x)) for each j, then
        each H_j's partials along the free (non-time) slots."""
        return partial(_level_values_rows, self)

    @cached_property
    def level(self):
        """``jet_level`` traced on first use, as ``velocity`` traces
        ``jet_velocity``, falling back the same way and on the same
        checks and charging the same quadrature panels.  It takes no
        minors, so a flow keeps ``jet_level`` only when its map or its
        Hamiltonians read a value."""
        return core.trace(self.jet_level, self.map.dimension) or self.jet_level

    @cached_property
    def det_condition(self):
        """The map's determinant-condition report for this time slot on the
        seeded points (``DetConditionReport``).  It reads only ``map`` and
        ``time_index``, so a flow checks itself once."""
        return check_det_condition(
            self.map, self.time_index, _det_condition_samples(self.map)
        )


def _check_time_index(mapdesc, time_index):
    n = mapdesc.dimension
    if not (isinstance(time_index, numbers.Integral) and 1 <= time_index <= n):
        raise ValueError(f"time index {time_index} out of range 1..{n}")


def flow_system(mapdesc, hamiltonians):
    """Flow with explicitly supplied (closed-form) Hamiltonians, one scalar
    field each; time is x_n."""
    return FlowSystem(
        map=mapdesc,
        time_index=mapdesc.dimension,
        hamiltonians=tuple(hamiltonians),
        det_j_field=map_det_field(mapdesc),
    )


# ---------------------------------------------------------------------------
# determinant condition


@dataclass(frozen=True)
class DetConditionReport:
    map_name: str
    time_index: int
    max_partial: float
    max_ratio: float
    passed: bool
    entries: tuple  # (point, det_j, partial) per sample


def check_det_condition(mapdesc, time_index, samples):
    """Check d(det J)/dx_time ~ 0 over the sample points.

    The determinant field (the declared ``det_j`` when the map has one)
    is evaluated once per sample with only the time slot seeded, which
    gives det J and its exact partial along x_t together; a map without
    ``det_j`` differentiates its Jacobian through nested jets.  A sample
    passes when |d(det J)/dx_t| <= 1e-7 * (1 + |det J|), so a NaN
    determinant or partial fails and its NaN is carried into
    ``max_partial`` and ``max_ratio``.
    """
    _check_time_index(mapdesc, time_index)
    det_field = map_det_field(mapdesc)
    t = time_index - 1
    entries = []
    for point in samples:
        x = as_state(point)
        (d0,), ((partial,),) = core.jet_values_rows(
            lambda s: (det_field(x[:t] + s + x[t + 1 :]),), x[t : t + 1]
        )
        entries.append((x, float_value(d0), float_value(partial)))
    return DetConditionReport(
        map_name=mapdesc.name,
        time_index=time_index,
        max_partial=max_keeping_nan([abs(p) for _, _, p in entries]),
        max_ratio=max_keeping_nan([abs(p) / (1.0 + abs(d0)) for _, d0, p in entries]),
        passed=all(
            abs(p) <= DET_CONDITION_TOL * (1.0 + abs(d0)) for _, d0, p in entries
        ),
        entries=tuple(entries),
    )


def max_keeping_nan(values):
    """The largest value, NaN if any is NaN, 0.0 if there are none."""
    return max(values, key=lambda v: (math.isnan(v), v), default=0.0)


def _det_condition_samples(mapdesc):
    """The seeded points on which a map's determinant is checked."""
    return core.sample_points(mapdesc, DET_CONDITION_SAMPLES, seed=DET_CONDITION_SEED)


def _check_declared_det(mapdesc, samples):
    """Refuse a declared ``det_j`` that disagrees with the determinant of
    the map's Jacobian by more than 1e-9 * (1 + |det J|) at a sample point."""
    if mapdesc.det_j is None:
        return
    for x in samples:
        expected = core.det(core.jacobian(mapdesc, x))
        declared = float_value(mapdesc.det_j(x))
        if not abs(declared - expected) <= DECLARED_DET_TOL * (1.0 + abs(expected)):
            raise ConfigError(
                f"declared det_j of {mapdesc.name} is {declared!r} at {x}, "
                f"but the Jacobian determinant there is {expected!r}"
            )


# ---------------------------------------------------------------------------
# Hamiltonian construction


def build_hamiltonians(
    mapdesc,
    ref_point=None,
    time_index=None,
    check=True,
):
    """Construct the flow system whose Hamiltonians are conserved by the map.

    Any source coordinate ``time_index`` (1-based, x_n by default) may play
    the role of time.  The first n-2 Hamiltonians are the non-time source
    coordinates read through the inverse map, all but the last of them.
    The last one integrates the Jacobian determinant along that remaining
    coordinate x_q from ``ref_point`` (all ones by default) up to x_q,
    holding the other inverse coordinates fixed; changing the reference
    point only shifts it by a constant whenever the determinant condition
    holds.  Its derivative along x_q is the determinant at x_q, and its
    derivatives along the other coordinates are integrated alongside the
    value, over Kronrod nodes that carry no x_q derivatives.  The flow's
    ``quadrature`` counts the panels and integrand calls every evaluation
    takes.

    The determinant is the map's declared ``det_j`` when it has one, and a
    ``ConfigError`` refuses the construction when that disagrees with the
    Jacobian determinant at one of the sampled points, whatever ``check``
    says.  With ``check`` enabled the construction is also refused when
    d(det J)/dx_time is not negligible, with the flow's ``det_condition``
    report attached.
    """
    n = mapdesc.dimension
    t_idx = n if time_index is None else time_index
    _check_time_index(mapdesc, t_idx)
    _check_declared_det(mapdesc, _det_condition_samples(mapdesc))

    ref = (1.0,) * n if ref_point is None else as_state(ref_point)
    *coords, q = [j for j in range(n) if j != t_idx - 1]
    ref_quad = ref[q]
    det_field = map_det_field(mapdesc)
    # moving the time column to the end is a cycle of parity n - t_idx,
    # which flips the sign of the determinant read in that order
    flip = (n - t_idx) % 2 == 1
    counts = QuadratureCounts()

    def quad_value(src):
        endpoint = src[q]
        # the nodes run to x_q less its outermost derivatives, which the
        # endpoint term below supplies: d/dx_q of the integral is det J there
        end = endpoint.value if isinstance(endpoint, Jet) else endpoint
        head, tail = src[:q], src[q + 1 :]

        def integrand(u):
            return det_field(head + (ref_quad + u * (end - ref_quad),) + tail)

        value = (end - ref_quad) * integrate_gk(
            integrand, 0.0, 1.0, abs_tol=QUADRATURE_ABS_TOL, counts=counts
        )
        if end is not endpoint:
            value = value + det_field(head + (end,) + tail) * (endpoint - end)
        return -value if flip else value

    hams = [lambda point, _j=j: mapdesc.inverse(point)[_j] for j in coords]
    hams.append(lambda point: quad_value(mapdesc.inverse(point)))
    flow = FlowSystem(
        map=mapdesc,
        time_index=t_idx,
        hamiltonians=tuple(hams),
        det_j_field=det_field,
        quadrature=counts,
    )
    if check and not flow.det_condition.passed:
        raise DetConditionError(flow.det_condition)
    return flow


# ---------------------------------------------------------------------------
# right-hand sides


def _bracket_velocity(hamiltonians, x):
    """The bracket velocity of n-1 Hamiltonians at a state, a tuple of n
    floats: ``core.minors`` of their gradient rows, which ``core.jet_rows``
    reads off ``hamiltonians`` (a map from a seeded state to the n-1
    Hamiltonians; a zero row for a constant) at ``x``.  A trace of it reads
    no value up to n = 4.  The state's length is the caller's to check."""
    return core.minors(core.jet_rows(hamiltonians, x))


def _hamiltonian_floats(flow, image):
    """The Hamiltonians at an image point, as floats."""
    return tuple(map(float_value, flow.hamiltonians_at(image)))


def _image_time_column(flow, x):
    """A flat tuple of floats from one seeded evaluation of the forward map
    at the source point x: its n values F(x), then each component's
    partial along the time slot."""
    t = flow.time_index - 1
    values, rows = core.jet_values_rows(flow.map.forward, x)
    return tuple(map(float_value, values + [row[t] for row in rows]))


def _level_values_rows(flow, x):
    """A flat tuple of floats from one seeded evaluation at the source point
    x: the n-1 values H_j(F(x)), then row by row each H_j's partials along
    the n-1 free slots, the time slot's column left out.  A division by
    zero is a SingularPointError naming the H_j at fault."""
    t = flow.time_index - 1
    values, rows = core.jet_values_rows(flow.source_hamiltonians, x)
    free = [p for row in rows for p in row[:t] + row[t + 1 :]]
    return tuple(map(float_value, values + free))


def _flow_state(flow, point):
    """``point`` as a state of the flow's map: exactly as many floats as the
    map has coordinates, all finite."""
    x = tuple(map(float, point))
    if len(x) != flow.map.dimension:
        raise ValueError(
            f"a point of {flow.map.name} takes {flow.map.dimension} coordinates, "
            f"got {len(x)}"
        )
    if not all(map(math.isfinite, x)):
        _non_finite(x)
    return x


def _non_finite(x):
    """Refuse the state x, which has a NaN or infinite coordinate."""
    raise NonFiniteStateError(f"non-finite coordinate in state {x}")


@lru_cache(maxsize=32)
def _checked(n):
    """The check of a point ahead of a traced function of n floats,
    compiled once per n by ``core._exec`` and recorded in no trace: a
    function of (fast, other) that returns the checked function.

    A point whose class is exactly tuple, with n items that are all
    exactly float and all finite, is handed to ``fast`` as it is; any
    other point is handed to ``other``, which converts or refuses it (a
    flow's ``checked_velocity``) or takes it as it comes (its ``image``)."""
    xs = [f"x{i}" for i in range(n)]
    checks = [f"{x}.__class__ is float" for x in xs] + [f"isfinite({x})" for x in xs]
    source = "\n".join(
        [
            "def bind(fast, other):",
            "    def checked(point):",
            f"        if point.__class__ is tuple and len(point) == {n}:",
            f"            {core._listed(xs)}= point",
            f"            if {' and '.join(checks)}:",
            "                return fast(point)",
            "        return other(point)",
            "    return checked",
        ]
    )
    return core._exec(source)


def nambu_rhs(flow, point):
    """Velocity of the image point: component j is the bracket of the
    Hamiltonians with the j-th coordinate function.

    The point is checked once, as floats, exactly one per coordinate of the
    flow's map (else a ValueError naming the map and both counts) and all
    finite (else a NonFiniteStateError), and handed to the flow's
    ``velocity``.  The flow's ``checked_velocity`` makes the check in
    compiled code: a tuple of n finite floats goes straight through, and
    any other point is converted by ``_flow_state``.  ``integrate_flow``
    does not call it: its compiled step makes the same check of each
    stage state and calls ``velocity`` itself."""
    return flow.checked_velocity(point)


def source_rhs(flow, point):
    """Velocity of the source point whose push-forward follows the flow.

    Component j equals the bracket of the Hamiltonians (composed with the
    forward map) with the j-th source coordinate, divided by det J.  The
    non-time, non-quadrature components vanish identically and the time
    component equals one.  The bracket is the bracket velocity of the
    Hamiltonians composed with the forward map, by jet arithmetic.
    """
    x = _flow_state(flow, point)
    detj = float_value(flow.det_j_field(x))
    if abs(detj) <= core.GUARD_CUTOFF:
        raise SingularPointError(flow.map.name, "det J", x)
    comps = _bracket_velocity(flow.source_hamiltonians, x)
    return tuple(c / detj for c in comps)


# ---------------------------------------------------------------------------
# integrators

# Explicit Runge-Kutta tableaux: stage rows ``a``, weights ``b`` and, for the
# embedded Dormand-Prince 5(4) pair, the error weights ``e`` and the
# coefficients of its continuous extension, one row per stage (None for the
# fixed-step classical RK4).  The right-hand side is autonomous, so the
# stage nodes are not needed.
_TABLEAUS = {
    "rk4": (
        ((), (1 / 2,), (0.0, 1 / 2), (0.0, 0.0, 1.0)),
        (1 / 6, 1 / 3, 1 / 3, 1 / 6),
        None,
        None,
    ),
    "dopri5": (
        (
            (),
            (1 / 5,),
            (3 / 40, 9 / 40),
            (44 / 45, -56 / 15, 32 / 9),
            (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
            (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
            (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
        ),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0),
        (
            71 / 57600,
            0.0,
            -71 / 16695,
            71 / 1920,
            -17253 / 339200,
            22 / 525,
            -1 / 40,
        ),
        # Shampine's continuous extension: stage i's weight a fraction x
        # through the step is x * (p1 + x * (p2 + x * (p3 + x * p4)))
        (
            (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
             -12715105075 / 11282082432),
            (0.0, 0.0, 0.0, 0.0),
            (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
             87487479700 / 32700410799),
            (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
             -10690763975 / 1880347072),
            (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
             701980252875 / 199316789632),
            (0.0, -282668133 / 205662961, 2019193451 / 616988883,
             -1453857185 / 822651844),
            (0.0, 40617522 / 29380423, -110615467 / 29380423,
             69997945 / 29380423),
        ),
    ),
}


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration settings: adaptive dopri5 (default) or fixed-step rk4;
    the tolerances and the step must be finite and positive."""

    method: str = "dopri5"
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    step: float = 1e-3
    max_steps: int = 10**6

    def __post_init__(self):
        if self.method not in _TABLEAUS:
            raise ValueError(f"unknown integrator method {self.method!r}")
        if not all(0 < v < math.inf for v in (self.rel_tol, self.abs_tol, self.step)):
            raise ValueError("integrator tolerances and step must be finite and > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass(frozen=True)
class IntegratorStats:
    accepted: int
    rejected: int
    rhs_evals: int


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped samples of a flow and its Hamiltonian values."""

    times: tuple
    states: tuple
    ham_values: tuple
    stats: IntegratorStats

    def __post_init__(self):
        ts = self.times
        if len(ts) >= 2:
            increasing = all(b > a for a, b in zip(ts, ts[1:]))
            decreasing = all(b < a for a, b in zip(ts, ts[1:]))
            if not (increasing or decreasing):
                raise ValueError("trajectory times must be strictly monotone")

    @property
    def final_state(self):
        return self.states[-1]


def _samples(t0, t1, t_eval, direction):
    """The t_eval times as floats (none when t_eval is None), checked to
    run strictly monotonically from t0 towards t1."""
    if t_eval is None:
        return []
    times = [float(t) for t in t_eval]
    if not times:
        raise ValueError("t_eval must hold at least one time")
    prev = t0
    for i, t in enumerate(times):
        repeated = i > 0 and t == prev
        if (t - prev) * direction < 0 or repeated or (t - t1) * direction > 0:
            raise ValueError("t_eval must run strictly monotonically from t0 to t1")
        prev = t
    return times


def _min_step(t):
    """The smallest step size taken at time t; a smaller one is an underflow."""
    return 1e-15 * max(1.0, abs(t))


def _terms(weights):
    """The (weight, stage index) pairs of the non-zero weights, in stage
    order."""
    return tuple((w, i) for i, w in enumerate(weights) if w)


def _combine(y, h, terms, k):
    """y + h * (sum of weight * stage over the ``_terms`` of the weights,
    in stage order), accumulated component by component: the reference of
    the sums the compiled ``_step`` and ``_loop`` write out, and ``_loop``'s
    dense output at a sample where a live weight is 0.0.  A weight of
    exactly 1.0 adds the stage itself, which is 1.0 * stage bit for bit.
    With no terms, as at a sample so near the step's start that every
    weight underflows to 0.0, it is y itself."""
    if not terms:
        return y
    (w0, i0), *rest = terms
    k0 = k[i0]
    out = []
    for c, y_c in enumerate(y):
        acc = k0[c] if w0 == 1.0 else w0 * k0[c]
        for w, i in rest:
            acc += k[i][c] if w == 1.0 else w * k[i][c]
        out.append(y_c + h * acc)
    return tuple(out)


@lru_cache(maxsize=32)
def _step(method, n, finite=False):
    """One step of the method for states of n components, compiled to
    straight-line code once by ``core._compiled``, and whether its last
    stage is taken at the new state, so that it is the next step's first
    stage (first same as last).  The step is a function of (rhs, y, h,
    k0), k0 the first stage or None to evaluate it, that returns the new
    state, the tuple of every stage and the error sums (None when the
    method has no ``e``).

    Each stage state, the new state and the error sums are ``_combine``
    over their row's ``_terms``, written out component by component in the
    same operand order and with no multiply by a unit weight (the error
    sums over a zero state, as ``_combine`` sums them), so they have its
    bits.  ``rhs`` is called on y and then
    between rows, on each stage state in turn.  With ``finite`` (``rhs``
    a flow's ``velocity``), a stage state with a non-finite component is
    refused first, with the NonFiniteStateError ``nambu_rhs`` raises; y is
    finite, as the loop only hands on a finite state.  A result whose
    class is exactly tuple, with n items that are all exactly float, is
    kept as it is; any other is converted by ``_stage``, which makes it
    floats and requires n of them.  A last row that sums as the new state
    does is not summed twice."""
    a, b, e, _ = _TABLEAUS[method]
    listed = core._listed

    def sums(weights, start="y_{c}"):
        terms = _terms(weights)
        return listed(
            f"{start.format(c=c)} + h * ("
            + " + ".join(
                [f"k{i}_{c}" if w == 1.0 else f"{w!r} * k{i}_{c}" for w, i in terms]
            )
            + ")"
            for c in range(n)
        )

    def unpack(name):
        return f"{listed(f'{name}_{c}' for c in range(n))}= {name}"

    def evaluate(i, state, indent=""):
        k = f"k{i}"
        kept = [f"{k}.__class__ is tuple", f"len({k}) == {n}"]
        kept += [f"{k}[{c}].__class__ is float" for c in range(n)]
        return [
            f"{indent}{k} = rhs({state})",
            f"{indent}if not ({' and '.join(kept)}):",
            f"{indent}    {k} = stage({k}, {n})",
        ]

    checks = []
    if finite:
        checks = [
            unpack("s"),
            f"if not ({' and '.join(f'isfinite(s_{c})' for c in range(n))}):",
            "    non_finite(s)",
        ]
    body = ["if k0 is None:", *evaluate(0, "y", "    "), unpack("y"), unpack("k0")]
    for i, row in enumerate(a[1:], 1):
        body += [f"s = ({sums(row)})", *checks, *evaluate(i, "s"), unpack(f"k{i}")]
    fsal = _terms(a[-1]) == _terms(b)
    y_new = "s" if fsal else f"({sums(b)})"
    err = "None" if e is None else f"({sums(e, '0.0')})"
    body.append(f"return {y_new}, ({listed(f'k{i}' for i in range(len(a)))}), {err}")
    source = "\n".join(
        ["def bind(stage, non_finite):", "    def step(rhs, y, h, k0):"]
        + ["        " + line for line in body]
        + ["    return step"]
    )
    return core._compiled(source)(_stage, _non_finite), fsal


def _stage(k, n):
    """An rhs result as a stage of n components: its items as floats, of
    which there must be n."""
    k = tuple(map(float, k))
    if len(k) != n:
        raise ValueError(f"rhs returned {len(k)} components for {n} coordinates")
    return k


@lru_cache(maxsize=32)
def _loop(method, n, finite=False):
    """``integrate``'s step loop for the method and states of n components,
    over ``_step`` of the same ``finite``, compiled to straight-line code
    once by ``core._compiled``: a function of
    (rhs, record, trajectory, every, y, t, t1, h, direction, pending,
    max_steps, abs_tol, rel_tol) that steps from (t, y) onto t1 with
    ``_step``, records each sample in ``pending`` (the next one last) as it
    passes it, and each accepted step when ``every`` is true, and returns
    ``trajectory`` of its accepted, rejected and rhs counts.  A spent step
    budget, a step under ``_min_step`` or a non-finite rk4 state raises the
    error that says so, with ``trajectory`` of the counts so far.

    dopri5's error norm is the max over the components of
    abs(d) / (abs_tol + rel_tol * max(abs(y), abs(y_new))), d the error sum,
    or inf when a new-state component or a ratio is not finite.  Its
    continuous extension's weights are the tableau's polynomials at the
    sample's fraction x of the step, and its sums are ``_combine``'s, in
    its order.  A stage whose row is all zero is left out, as ``_terms``
    leaves out its weight at every finite x; a live weight that is exactly
    0.0 hands the sample to ``_combine`` over ``_terms`` of the weights, so
    every sample has its bits."""
    a, _, e, dense = _TABLEAUS[method]
    step, fsal = _step(method, n, finite)
    listed = core._listed
    zs = [f"z_{c}" for c in range(n)]

    def fail(error, message):
        counts = "trajectory(accepted, rejected, evals)"
        return [f"    raise {error}({message!r}, t, y, {counts})"]

    def finite(names):
        return " and ".join(f"isfinite({v})" for v in names)

    # rk4 steps onto each sample in turn, then t1; dopri5 only onto t1, so
    # it sets its target once
    near = "near = 1e-12 * max(1.0, abs(end))"
    if dense is None:
        head, body = [], ["end = pending[-1] if pending else t1", near]
    else:
        head, body = ["end = t1", near], []
    body += [
        "if accepted + rejected >= max_steps:",
        *fail("MaxStepsError", "step budget exhausted"),
        "if abs(h) < min_step(t):",
        *fail("StepUnderflowError", "step size underflow"),
        "cut = (end - t - h) * direction < near",
        "h_try = end - t if cut else h",
        "y_new, k, d = step(rhs, y, h_try, k_first)",
        f"evals += {len(a)} if k_first is None else {len(a) - 1}",
        f"{listed(zs)}= y_new",
    ]
    if dense is None:
        # a step ends on its target or short of it, so the one sample it
        # can reach is the one it lands on
        samples = ["    record(pending.pop(), y_new)"]
    else:
        live = [i for i, row in enumerate(dense) if any(row)]
        weights = [f"w{i}" if i in live else "0.0" for i in range(len(dense))]
        stages = listed(
            f"({listed(f'k{i}_{c}' for c in range(n))})" if i in live else "_"
            for i in range(len(dense))
        )
        sums = listed(
            f"y_{c} + h_try * (" + " + ".join(f"w{i} * k{i}_{c}" for i in live) + ")"
            for c in range(n)
        )
        samples = [
            "    s = pending.pop()",
            "    if s == t_new:",
            "        record(s, y_new)",
            "    else:",
            "        x = (s - t) / h_try",
            *(
                f"        w{i} = x * ({p1!r} + x * ({p2!r} + x * ({p3!r} + x * {p4!r})))"
                for i, (p1, p2, p3, p4) in enumerate(dense)
                if i in live
            ),
            f"        if {' and '.join(f'w{i}' for i in live)}:",
            f"            {stages}= k",
            f"            record(s, ({sums}))",
            "        else:",
            f"            record(s, combine(y, h_try, terms(({listed(weights)})), k))",
        ]
    accept = [
        "accepted += 1",
        "t_new = end if cut else t + h_try",
        "while pending and (pending[-1] - t_new) * direction <= 0:",
        *samples,
        "t, y = t_new, y_new",
        "if every:",
        "    record(t, y)",
        # the last stage has a non-zero error weight, so an accepted step
        # (finite estimate) hands on a finite one
        "k_first = k[-1]" if fsal else "k_first = None",
    ]
    if e is None:  # rk4 never retries a step
        body += [f"if not ({finite(zs)}):", *fail("IntegrationError", "non-finite state")]
        body += accept
    else:
        rs = [f"r{c}" for c in range(n)]
        body += [
            f"{listed(f'y_{c}' for c in range(n))}= y",
            f"{listed(f'd_{c}' for c in range(n))}= d",
            *(
                f"r{c} = abs(d_{c}) / (abs_tol + rel_tol * max(abs(y_{c}), abs(z_{c})))"
                for c in range(n)
            ),
            # max() skips a NaN, and an infinite scale can hide an overflow
            f"if {finite(zs + rs)}:",
            f"    err = max({', '.join(rs)})" if n > 1 else "    err = r0",
            "else:",
            "    err = inf",
            "if err <= 1.0:",
            *("    " + line for line in accept),
            "    h = h_try * (5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2)))",
            "else:",
            "    rejected += 1",
            "    k_first = k[0]",  # a rejected step keeps its own first stage
            "    h = h_try * min(1.0, max(0.2, 0.9 * err**-0.2))",
        ]
    source = "\n".join(
        [
            "def bind(step, min_step, combine, terms, inf,",
            "         MaxStepsError, StepUnderflowError, IntegrationError):",
            "    def loop(rhs, record, trajectory, every, y, t, t1, h, direction,",
            "             pending, max_steps, abs_tol, rel_tol):",
            "        accepted = rejected = evals = 0",
            "        k_first = None",
            *("        " + line for line in head),
            "        while t != t1:",
            *("            " + line for line in body),
            "        return trajectory(accepted, rejected, evals)",
            "    return loop",
        ]
    )
    return core._compiled(source)(
        step, _min_step, _combine, _terms, math.inf,
        MaxStepsError, StepUnderflowError, IntegrationError,
    )


def integrate(rhs, x0, t0, t1, cfg=None, t_eval=None, observe=None):
    """Integrate dy/dt = rhs(y) from t0 to t1 (either direction).

    ``rhs`` maps a state tuple of floats to a velocity sequence with one
    entry per coordinate, or is a FlowSystem, whose image-space flow is
    integrated as ``integrate_flow`` describes.  When ``t_eval`` is
    given, samples are recorded at exactly those times and no others
    (they must be finite and strictly monotone from t0 towards t1; t0 and
    t1 are recorded only when listed); otherwise t0 and every accepted
    step are recorded.
    ``observe`` maps a sample's state to the values stored alongside it.

    Both methods share one explicit Runge-Kutta loop with one stop rule:
    a step that would reach its target, or stop short of it by less than
    1e-12 * max(1, |target|), is cut to end there, and its time is exactly
    the target.  The target is t1, and for rk4, which takes ``cfg.step``,
    each sample time before it.  dopri5 adapts the step to the embedded
    error estimate, reuses the last stage of an accepted step as the first
    stage of the next (first same as last), and reads the samples an
    accepted step passes off its continuous extension, so it costs
    1 + 6 * (accepted + rejected) rhs evaluations.  The loop is one
    function, ``_loop``, compiled once per method and state dimension: it
    calls the step, ``_step``, compiled the same way, which evaluates the
    first stage unless it is handed one, writes out every stage sum and
    calls ``rhs`` between them; the loop then charges the evaluations of
    its stages, and writes out the error norm, the step-size control and
    the continuous extension.  A FlowSystem gets its own compiled loop and
    step, which check each stage state as ``nambu_rhs`` would and call
    its ``velocity``; an rhs function sees every stage state as it is.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    t0 = float(t0)
    t1 = float(t1)
    if t0 == t1:
        raise ValueError("integration needs t0 != t1")
    direction = 1.0 if t1 > t0 else -1.0
    samples = _samples(t0, t1, t_eval, direction)
    if not all(math.isfinite(t) for t in (t0, t1, *samples)):
        raise ValueError("integration times must be finite")
    # the samples still to record, the next one last
    pending = samples[::-1]
    y = as_state(x0)
    finite = isinstance(rhs, FlowSystem)
    if finite:  # a wrong length is refused as nambu_rhs refuses it
        _flow_state(rhs, y)
    loop = _loop(cfg.method, len(y), finite)
    times, states, hams = [], [], []

    def record(t, y):
        times.append(t)
        states.append(y)
        hams.append(() if observe is None else tuple(observe(y)))

    def trajectory(accepted, rejected, evals):
        stats = IntegratorStats(accepted=accepted, rejected=rejected, rhs_evals=evals)
        return Trajectory(
            times=tuple(times), states=tuple(states), ham_values=tuple(hams), stats=stats
        )

    if t_eval is None:
        record(t0, y)
    elif pending[-1] == t0:
        record(pending.pop(), y)
    if _TABLEAUS[cfg.method][2] is None:  # no error estimate: a fixed step
        h = cfg.step
    else:  # a hundredth of the span, or all of it when that is under the floor
        h = abs(t1 - t0) / 100.0
        if h < _min_step(t0):
            h = max(abs(t1 - t0), _min_step(t0))
    h *= direction
    # a flow's velocity is read after the first sample's Hamiltonian values,
    # so that a trace on first use comes where a first rhs call made it
    return loop(
        rhs.velocity if finite else rhs, record, trajectory, t_eval is None, y,
        t0, t1, h, direction, pending, cfg.max_steps, cfg.abs_tol, cfg.rel_tol,
    )


def integrate_flow(flow, x0, t0, t1, cfg=None, t_eval=None):
    """Integrate the image-space flow, recording Hamiltonian values.

    ``x0`` is checked once, as ``nambu_rhs`` checks a point: exactly one
    float per coordinate of the flow's map (else its ValueError), all
    finite.  Then the compiled step calls the flow's ``velocity`` itself
    on each stage state, after refusing a non-finite one with the
    NonFiniteStateError ``nambu_rhs`` raises, so an evaluation goes
    through neither ``nambu_rhs`` nor its check.  The integration goes
    through the module's ``integrate``, looked up once per call, so a
    rebinding of it (a counter, a trace span) sees each one."""
    return integrate(
        flow, x0, t0, t1, cfg=cfg, t_eval=t_eval, observe=flow.hamiltonian_values
    )

