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
straight off the partials of the Hamiltonians at one seeded point; for
n = 2 and n = 3 the minors are written out, bit for bit the signed
``core.det`` values that larger n computes.  Each flow builds that
computation once, as its ``velocity``, with the seeds, the way to its
Hamiltonians and the choice of minors bound; ``nambu_rhs`` checks a point
and calls it, and ``source_rhs`` builds the same kernel over the
Hamiltonians composed with the forward map.  A Runge-Kutta stage state
sums weight * stage component by component over the non-zero weights in
stage order; ``integrate`` picks out each tableau row's non-zero
(weight, stage) pairs once per call, not once per stage.

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
from functools import cached_property, partial
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
    accept float or jet coordinates.  ``hamiltonian_vector`` maps an image
    point to all n-1 values at once, so that work they share (such as the
    inverse map) runs once; it must agree with ``hamiltonians``, which are
    called in turn when it is None.  ``quadrature`` holds the running
    quadrature totals of Hamiltonians built by quadrature, None for closed
    forms.  ``velocity`` and ``det_condition`` are computed on first use
    and kept with the flow.
    """

    map: core.MapDescriptor
    time_index: int
    hamiltonians: tuple
    det_j_field: Callable
    hamiltonian_vector: Callable | None = None
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
        """The Hamiltonians at an image point whose entries are floats or jets;
        a division by zero in H_j is a SingularPointError naming H_j."""
        try:
            if self.hamiltonian_vector is None:
                return tuple(h(image) for h in self.hamiltonians)
            return tuple(self.hamiltonian_vector(image))
        except ZeroDivisionError as exc:
            failure = exc
        # only the entries say which H_j divides by zero
        for j, h in enumerate(self.hamiltonians, 1):
            try:
                h(image)
            except ZeroDivisionError as exc:
                point = tuple(float_value(c) for c in image)
                label = f"a denominator of H{j}"
                raise SingularPointError(self.map.name, label, point) from exc
        raise failure

    def hamiltonian_values(self, point):
        return tuple(map(float_value, self.hamiltonians_at(as_state(point))))

    @cached_property
    def velocity(self):
        """The bracket velocity at a state, a tuple of n finite floats (the
        caller checks it; see ``nambu_rhs``), built once per flow.  At the
        seeded state it calls the one Hamiltonian when n = 2, else
        ``hamiltonian_vector``, or the Hamiltonians in turn when that is
        None; it goes through ``hamiltonians_at`` only after a division by
        zero, so the SingularPointError names the H_j at fault.
        """
        hams, values = self.hamiltonians, self.hamiltonian_vector
        if len(hams) == 1:
            (values,) = hams
        elif values is None:

            def values(image):
                return [h(image) for h in hams]

        return _velocity_kernel(self.map.dimension, values, self.hamiltonians_at)

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


def flow_system(mapdesc, hamiltonians, vector=None):
    """Flow with explicitly supplied (closed-form) Hamiltonians; time is x_n.
    ``vector``, when given, returns all of them at once (see FlowSystem)."""
    return FlowSystem(
        map=mapdesc,
        time_index=mapdesc.dimension,
        hamiltonians=tuple(hamiltonians),
        det_j_field=map_det_field(mapdesc),
        hamiltonian_vector=vector,
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

    def vector(point):
        src = mapdesc.inverse(point)
        return [src[j] for j in coords] + [quad_value(src)]

    hams = [lambda point, _j=j: mapdesc.inverse(point)[_j] for j in coords]
    hams.append(lambda point: quad_value(mapdesc.inverse(point)))
    flow = FlowSystem(
        map=mapdesc,
        time_index=t_idx,
        hamiltonians=tuple(hams),
        det_j_field=det_field,
        hamiltonian_vector=vector,
        quadrature=counts,
    )
    if check and not flow.det_condition.passed:
        raise DetConditionError(flow.det_condition)
    return flow


# ---------------------------------------------------------------------------
# right-hand sides


def _velocity_kernel(n, values, named):
    """The bracket velocity of n-1 Hamiltonians at a state, a tuple of n
    floats: component j is det of (rows + [e_j]), the signed minor of the
    Hamiltonians' gradient rows with column j struck out.

    ``values`` maps the seeded state to the Hamiltonians: to the one
    Hamiltonian itself when n = 2, else to a sequence of the n-1.  After a
    ZeroDivisionError the seeded state goes to ``named`` instead, which
    returns the sequence or raises the error naming the Hamiltonian at
    fault.  The rows are the Hamiltonians' partials, floats under float
    seeds (zero for a constant).  The jet class, the unit seeds and the
    choice of minors are bound here, once: written out for n = 2 and
    n = 3, bit for bit the signed ``core.det`` values that larger n
    computes.  The state's length is the caller's to check.
    """
    make = core._MAKERS.get(n, core._jet)
    seeds = core._unit_seeds(n)
    zero = (0.0,) * n

    if n == 2:  # the minors are the 1x1 entries, signed - and +

        def velocity(x):
            seeded = tuple(map(make, x, seeds))
            try:
                h = values(seeded)
            except ZeroDivisionError:
                (h,) = named(seeded)
            g0, g1 = h.partials if isinstance(h, Jet) else zero
            return (-g1, g0)

    elif n == 3:  # core.det's 2x2 closed form, signed +, - and +

        def velocity(x):
            seeded = tuple(map(make, x, seeds))
            try:
                a, b = values(seeded)
            except ZeroDivisionError:
                a, b = named(seeded)
            g0, g1, g2 = a.partials if isinstance(a, Jet) else zero
            h0, h1, h2 = b.partials if isinstance(b, Jet) else zero
            return (g1 * h2 - g2 * h1, -(g0 * h2 - g2 * h0), g0 * h1 - g1 * h0)

    else:

        def velocity(x):
            seeded = tuple(map(make, x, seeds))
            try:
                hams = values(seeded)
            except ZeroDivisionError:
                hams = named(seeded)
            rows = [h.partials if isinstance(h, Jet) else zero for h in hams]
            return tuple(
                (1.0 if (n + j + 1) % 2 == 0 else -1.0)
                * float(core.det([row[:j] + row[j + 1 :] for row in rows]))
                for j in range(n)
            )

    return velocity


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
        raise NonFiniteStateError(f"non-finite coordinate in state {x}")
    return x


def nambu_rhs(flow, point):
    """Velocity of the image point: component j is the bracket of the
    Hamiltonians with the j-th coordinate function.

    The point is checked once, as floats, exactly one per coordinate of the
    flow's map (else a ValueError naming the map and both counts) and all
    finite (else a NonFiniteStateError), and handed to the flow's
    ``velocity``."""
    return flow.velocity(_flow_state(flow, point))


def source_rhs(flow, point):
    """Velocity of the source point whose push-forward follows the flow.

    Component j equals the bracket of the Hamiltonians (composed with the
    forward map) with the j-th source coordinate, divided by det J.  The
    non-time, non-quadrature components vanish identically and the time
    component equals one.  The bracket is the flow's velocity kernel built
    over the composed Hamiltonians.
    """
    x = _flow_state(flow, point)
    detj = float_value(flow.det_j_field(x))
    if abs(detj) <= core.GUARD_CUTOFF:
        raise SingularPointError(flow.map.name, "det J", x)

    def composed(src):
        return flow.hamiltonians_at(flow.map.forward(src))

    values = (lambda src: composed(src)[0]) if len(x) == 2 else composed
    comps = _velocity_kernel(len(x), values, composed)(x)
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
    in stage order), accumulated component by component."""
    (w0, i0), *rest = terms
    k0 = k[i0]
    out = []
    for c, y_c in enumerate(y):
        acc = w0 * k0[c]
        for w, i in rest:
            acc += w * k[i][c]
        out.append(y_c + h * acc)
    return tuple(out)


def _dense_state(y, h, dense, k, x):
    """The continuous extension's state a fraction 0 < x < 1 of the way
    through the step of size h from y with stages k."""
    weights = [x * (p1 + x * (p2 + x * (p3 + x * p4))) for p1, p2, p3, p4 in dense]
    return _combine(y, h, _terms(weights), k)


def integrate(rhs, x0, t0, t1, cfg=None, t_eval=None, observe=None):
    """Integrate dy/dt = rhs(y) from t0 to t1 (either direction).

    ``rhs`` maps a state tuple of floats to a velocity sequence with one
    entry per coordinate.  When ``t_eval`` is given, samples are recorded
    at exactly those times and no others (they must be finite and
    strictly monotone from t0 towards t1; t0 and t1 are recorded only
    when listed); otherwise t0 and every accepted step are recorded.
    ``observe`` maps a sample's state to the values stored alongside it.

    Both methods share one explicit Runge-Kutta loop with one stop rule:
    a step that would reach its target, or stop short of it by less than
    1e-12 * max(1, |target|), is cut to end there, and its time is exactly
    the target.  The target is t1, and for rk4, which takes ``cfg.step``,
    each sample time before it.  dopri5 adapts the step to the embedded
    error estimate, reuses the last stage of an accepted step as the first
    stage of the next (first same as last), and reads the samples an
    accepted step passes off its continuous extension, so it costs
    1 + 6 * (accepted + rejected) rhs evaluations.  The non-zero
    (weight, stage) pairs of each tableau row are worked out once per
    call.
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
    a, b, e, dense = _TABLEAUS[cfg.method]
    # a last stage taken at the new state is the next step's first stage
    fsal = a[-1] + (0.0,) == b
    stage_terms = [_terms(row) for row in a[1:]]
    b_terms = _terms(b)
    e_terms = None if e is None else _terms(e)
    # the samples still to record, the next one last
    pending = samples[::-1]
    t = t0
    y = as_state(x0)
    zero = (0.0,) * len(y)
    times, states, hams = [], [], []
    evals = accepted = rejected = 0

    def record(t, y):
        times.append(t)
        states.append(y)
        hams.append(() if observe is None else tuple(observe(y)))

    def trajectory():
        stats = IntegratorStats(accepted=accepted, rejected=rejected, rhs_evals=evals)
        return Trajectory(
            times=tuple(times), states=tuple(states), ham_values=tuple(hams), stats=stats
        )

    def f(y):
        nonlocal evals
        evals += 1
        out = tuple(map(float, rhs(y)))
        if len(out) != len(y):
            raise ValueError(
                f"rhs returned {len(out)} components for {len(y)} coordinates"
            )
        return out

    if t_eval is None:
        record(t, y)
    elif pending[-1] == t:
        record(pending.pop(), y)
    if e is None:
        h = cfg.step
    else:  # a hundredth of the span, or all of it when that is under the floor
        h = abs(t1 - t0) / 100.0
        if h < _min_step(t0):
            h = max(abs(t1 - t0), _min_step(t0))
    h *= direction
    k_first = None
    while t != t1:
        # rk4 steps onto each sample in turn, then t1; dopri5 only onto t1
        end = pending[-1] if dense is None and pending else t1
        if accepted + rejected >= cfg.max_steps:
            raise MaxStepsError("step budget exhausted", t, y, trajectory())
        if abs(h) < _min_step(t):
            raise StepUnderflowError("step size underflow", t, y, trajectory())
        cut = (end - t - h) * direction < 1e-12 * max(1.0, abs(end))
        h_try = end - t if cut else h

        if k_first is None:
            k_first = f(y)
        k = [k_first]
        for terms in stage_terms:
            k.append(f(_combine(y, h_try, terms, k)))
        y_new = _combine(y, h_try, b_terms, k)
        finite = all(map(math.isfinite, y_new))
        if e is None and not finite:  # rk4 never retries a step
            raise IntegrationError("non-finite state", t, y, trajectory())
        err = 0.0
        if e is not None:
            # adding to zero is exact, so this is h_try * sum(e_i * k_i)
            ratios = [
                abs(d) / (cfg.abs_tol + cfg.rel_tol * max(abs(u), abs(v)))
                for d, u, v in zip(_combine(zero, h_try, e_terms, k), y, y_new)
            ]
            # max() skips a NaN, and an infinite scale can hide an overflow
            finite = finite and all(map(math.isfinite, ratios))
            err = max(ratios) if finite else math.inf

        if err <= 1.0:
            accepted += 1
            t_new = end if cut else t + h_try
            while pending and (pending[-1] - t_new) * direction <= 0:
                s = pending.pop()
                if s == t_new:
                    record(s, y_new)
                else:
                    record(s, _dense_state(y, h_try, dense, k, (s - t) / h_try))
            t, y = t_new, y_new
            if t_eval is None:
                record(t, y)
            # the last stage has a non-zero error weight, so an accepted
            # step (finite estimate) hands on a finite one; a rejected
            # step keeps its own first stage
            k_first = k[-1] if fsal else None
            if e is not None:
                factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))
                h = h_try * factor
        else:
            rejected += 1
            h = h_try * min(1.0, max(0.2, 0.9 * err**-0.2))
    return trajectory()


def integrate_flow(flow, x0, t0, t1, cfg=None, t_eval=None):
    """Integrate the image-space flow, recording Hamiltonian values.  Each
    evaluation goes through the module's ``nambu_rhs``, looked up once per
    call, so a rebinding of it (a counter, a trace span) sees every one."""
    rhs = partial(nambu_rhs, flow)
    return integrate(
        rhs, x0, t0, t1, cfg=cfg, t_eval=t_eval, observe=flow.hamiltonian_values
    )

