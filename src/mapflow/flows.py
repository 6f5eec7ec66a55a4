"""Build Nambu-Hamiltonian flows from maps and integrate them.

Given an n-dimensional invertible map, an n-1 tuple of conserved
Hamiltonians turns one source coordinate into the time variable of an ODE
system.  The first n-2 Hamiltonians are source coordinates read through
the inverse map; the last one is the integral of the Jacobian determinant
along the remaining source coordinate.  This module constructs those
fields (numerically, by quadrature), forms the bracket-based right-hand
sides in image space and source space, and integrates them with either a
classical fixed-step RK4 or an adaptive Dormand-Prince 5(4) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import core
from .core import as_state, float_value, map_det_field
from .errors import (
    DetConditionError,
    IntegrationError,
    MaxStepsError,
    SingularPointError,
    StepUnderflowError,
)
from .quadrature import integrate_gk

DET_CONDITION_TOL = 1e-7
DET_CONDITION_SAMPLES = 25
DET_CONDITION_SEED = 42
QUADRATURE_ABS_TOL = 1e-10


# ---------------------------------------------------------------------------
# flow systems


@dataclass(frozen=True)
class FlowSystem:
    """An n-dimensional flow with n-1 conserved Hamiltonians.

    ``time_index`` is the 1-based source coordinate playing the role of
    time.  ``hamiltonians`` are scalar fields over image space and
    ``det_j_field`` is the Jacobian determinant over source space; both
    accept float or jet coordinates.
    """

    map: core.MapDescriptor
    time_index: int
    hamiltonians: tuple
    det_j_field: Callable

    def __post_init__(self):
        n = self.map.dimension
        if len(self.hamiltonians) != n - 1:
            raise ValueError(
                f"flow over {n} dimensions needs {n - 1} hamiltonians, "
                f"got {len(self.hamiltonians)}"
            )
        _check_time_index(self.map, self.time_index)

    def hamiltonians_at(self, image):
        """The Hamiltonians at an image point whose entries are floats or jets."""
        return tuple(h(image) for h in self.hamiltonians)

    def hamiltonian_values(self, point):
        return tuple(float_value(v) for v in self.hamiltonians_at(as_state(point)))


def _check_time_index(mapdesc, time_index):
    n = mapdesc.dimension
    if not 1 <= time_index <= n:
        raise ValueError(f"time index {time_index} out of range 1..{n}")


def flow_system(mapdesc, hamiltonians):
    """Flow with explicitly supplied (closed-form) Hamiltonians; time is x_n."""
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

    The derivative is taken by central differences of the determinant; a
    sample passes when |d(det J)/dx_t| <= 1e-7 * (1 + |det J|).
    """
    _check_time_index(mapdesc, time_index)
    det_field = map_det_field(mapdesc)
    entries = []
    max_partial = 0.0
    max_ratio = 0.0
    ok = True
    for point in samples:
        x = as_state(point)
        t = time_index - 1
        h = 1e-6 * (1.0 + abs(x[t]))
        up = list(x)
        dn = list(x)
        up[t] += h
        dn[t] -= h
        d0 = float_value(det_field(x))
        partial = (float_value(det_field(up)) - float_value(det_field(dn))) / (2 * h)
        ratio = abs(partial) / (1.0 + abs(d0))
        max_partial = max(max_partial, abs(partial))
        max_ratio = max(max_ratio, ratio)
        if abs(partial) > DET_CONDITION_TOL * (1.0 + abs(d0)):
            ok = False
        entries.append((x, d0, partial))
    return DetConditionReport(
        map_name=mapdesc.name,
        time_index=time_index,
        max_partial=max_partial,
        max_ratio=max_ratio,
        passed=ok,
        entries=tuple(entries),
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
    coordinate from ``ref_point`` (all ones by default), holding the other
    inverse coordinates fixed; changing the reference point only shifts it
    by a constant whenever the determinant condition holds.

    With ``check`` enabled the construction is refused (with the sampled
    diagnostics attached) when d(det J)/dx_time is not negligible.
    """
    n = mapdesc.dimension
    t_idx = n if time_index is None else time_index
    _check_time_index(mapdesc, t_idx)
    if check:
        samples = core.sample_points(
            mapdesc, DET_CONDITION_SAMPLES, seed=DET_CONDITION_SEED
        )
        report = check_det_condition(mapdesc, t_idx, samples)
        if not report.passed:
            raise DetConditionError(report)

    ref = (1.0,) * n if ref_point is None else as_state(ref_point)
    *coords, q = [j for j in range(n) if j != t_idx - 1]
    ref_quad = ref[q]
    det_field = map_det_field(mapdesc)
    # moving the time column to the end is a cycle of parity n - t_idx,
    # which flips the sign of the determinant read in that order
    flip = (n - t_idx) % 2 == 1

    hams = []
    for j in coords:

        def coord_field(point, _j=j):
            return mapdesc.inverse(point)[_j]

        hams.append(coord_field)

    def quad_field(point):
        src = mapdesc.inverse(point)
        endpoint = src[q]

        def integrand(u):
            s = ref_quad + u * (endpoint - ref_quad)
            return det_field(src[:q] + (s,) + src[q + 1 :])

        value = (endpoint - ref_quad) * integrate_gk(
            integrand, 0.0, 1.0, abs_tol=QUADRATURE_ABS_TOL
        )
        return -value if flip else value

    hams.append(quad_field)
    return FlowSystem(
        map=mapdesc,
        time_index=t_idx,
        hamiltonians=tuple(hams),
        det_j_field=det_field,
    )


# ---------------------------------------------------------------------------
# right-hand sides


def _bracket_velocity(hamiltonians_of, x):
    """det of (rows + [e_j]) for each j, via signed minors of the last row,
    where the rows are the float gradients of ``hamiltonians_of`` at x."""
    n = len(x)
    rows = [
        [float(p) for p in row] for row in core.jet_rows(hamiltonians_of, x)
    ]
    out = []
    for j in range(n):
        minor = [[row[k] for k in range(n) if k != j] for row in rows]
        sign = 1.0 if (n + j + 1) % 2 == 0 else -1.0
        out.append(sign * float(core.det(minor)))
    return tuple(out)


def nambu_rhs(flow, point):
    """Velocity of the image point: component j is the bracket of the
    Hamiltonians with the j-th coordinate function."""
    return _bracket_velocity(flow.hamiltonians_at, as_state(point))


def source_rhs(flow, point):
    """Velocity of the source point whose push-forward follows the flow.

    Component j equals the bracket of the Hamiltonians (composed with the
    forward map) with the j-th source coordinate, divided by det J.  The
    non-time, non-quadrature components vanish identically and the time
    component equals one.
    """
    x = as_state(point)
    detj = float_value(flow.det_j_field(x))
    if abs(detj) <= core.GUARD_CUTOFF:
        raise SingularPointError(flow.map.name, "det J", x)

    def composed(src):
        return flow.hamiltonians_at(flow.map.forward(src))

    comps = _bracket_velocity(composed, x)
    return tuple(c / detj for c in comps)


# ---------------------------------------------------------------------------
# integrators

# Explicit Runge-Kutta tableaux: stage rows ``a``, weights ``b`` and, for the
# embedded Dormand-Prince 5(4) pair, the error weights ``e`` (None for the
# fixed-step classical RK4).  The right-hand side is autonomous, so the
# stage nodes are not needed.
_TABLEAUS = {
    "rk4": (
        ((), (1 / 2,), (0.0, 1 / 2), (0.0, 0.0, 1.0)),
        (1 / 6, 1 / 3, 1 / 3, 1 / 6),
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
    ),
}


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration settings: adaptive dopri5 (default) or fixed-step rk4."""

    method: str = "dopri5"
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    step: float = 1e-3
    max_steps: int = 10**6

    def __post_init__(self):
        if self.method not in _TABLEAUS:
            raise ValueError(f"unknown integrator method {self.method!r}")
        if not (self.rel_tol > 0 and self.abs_tol > 0 and self.step > 0):  # NaN fails
            raise ValueError("integrator tolerances and step must be positive")
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


class _Recorder:
    def __init__(self, observe):
        self.observe = observe
        self.times = []
        self.states = []
        self.hams = []

    def add(self, t, y):
        state = tuple(float(v) for v in y)
        self.times.append(float(t))
        self.states.append(state)
        self.hams.append(() if self.observe is None else tuple(self.observe(state)))

    def trajectory(self, stats):
        return Trajectory(
            times=tuple(self.times),
            states=tuple(self.states),
            ham_values=tuple(self.hams),
            stats=stats,
        )


def _stops(t0, t1, t_eval, direction):
    """The times a run must land on, each paired with whether it is
    recorded: the t_eval samples, then t1 if they stop short of it."""
    if t_eval is None:
        return [(t1, False)]
    times = [float(t) for t in t_eval]
    if not times:
        raise ValueError("t_eval must hold at least one time")
    prev = t0
    for i, t in enumerate(times):
        repeated = i > 0 and t == prev
        if (t - prev) * direction < 0 or repeated or (t - t1) * direction > 0:
            raise ValueError("t_eval must run strictly monotonically from t0 to t1")
        prev = t
    stops = [(t, True) for t in times]
    if times[-1] != t1:
        stops.append((t1, False))
    return stops


def _combine(weights, k):
    """Sum of weight * stage over the non-zero weights, in stage order."""
    acc = None
    for w, k_i in zip(weights, k):
        if w:
            acc = w * k_i if acc is None else acc + w * k_i
    return acc


# overflow surfaces as a non-finite state, which the loop turns into an error,
# so numpy's warnings would only repeat it on stderr
@np.errstate(over="ignore", invalid="ignore")
def integrate(rhs, x0, t0, t1, cfg=None, t_eval=None, observe=None):
    """Integrate dy/dt = rhs(y) from t0 to t1 (either direction).

    ``rhs`` maps a state tuple to a velocity sequence.  When ``t_eval`` is
    given, samples are recorded at exactly those times and no others
    (they must be strictly monotone from t0 towards t1; t0 and t1 are
    recorded only when listed); otherwise t0 and every accepted step are
    recorded.  ``observe`` maps a sample's state to the values stored
    alongside it.

    Both methods share one explicit Runge-Kutta loop.  A step that would
    pass the next sample time (or t1) is shortened to end on it, and the
    recorded time is that sample time exactly.  rk4 takes ``cfg.step``;
    dopri5 adapts the step to the embedded error estimate.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    t0 = float(t0)
    t1 = float(t1)
    if t0 == t1:
        raise ValueError("integration needs t0 != t1")
    direction = 1.0 if t1 > t0 else -1.0
    stops = _stops(t0, t1, t_eval, direction)
    a, b, e = _TABLEAUS[cfg.method]
    t = t0
    y = np.array(as_state(x0), dtype=float)
    rec = _Recorder(observe)
    if t_eval is None:
        rec.add(t, y)

    evals = accepted = rejected = 0

    def f(y):
        nonlocal evals
        evals += 1
        return np.asarray(rhs(tuple(y)), dtype=float)

    def stats():
        return IntegratorStats(accepted=accepted, rejected=rejected, rhs_evals=evals)

    h = direction * (cfg.step if e is None else abs(t1 - t0) / 100.0)
    for stop, recorded in stops:
        while t != stop:
            if accepted + rejected >= cfg.max_steps:
                raise MaxStepsError(
                    "step budget exhausted", t, tuple(y), rec.trajectory(stats())
                )
            if abs(h) < 1e-15 * max(1.0, abs(t)):
                raise StepUnderflowError(
                    "step size underflow", t, tuple(y), rec.trajectory(stats())
                )
            clipped = (t + h - stop) * direction > 0
            h_try = stop - t if clipped else h

            k = []
            for row in a:
                k.append(f(y + h_try * _combine(row, k) if row else y))
            y_new = y + h_try * _combine(b, k)
            finite = all(map(math.isfinite, y_new.tolist()))  # cheaper than np.isfinite
            if e is None and not finite:  # rk4 never retries a step
                raise IntegrationError(
                    "non-finite state", t, tuple(y), rec.trajectory(stats())
                )
            err = 0.0
            if e is not None:
                scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
                err = float(np.max(np.abs(h_try * _combine(e, k)) / scale))
                if not finite:  # the infinite scale can hide the overflow
                    err = math.inf

            if err <= 1.0:  # a NaN estimate rejects the step
                accepted += 1
                t = t + h_try
                y = y_new
                if abs(t - stop) <= 1e-12 * max(1.0, abs(t)):
                    t = stop
                if t_eval is None:
                    rec.add(t, y)
                # a clipped step says nothing about the natural step size
                if e is not None and not (clipped and abs(h) > abs(h_try)):
                    factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))
                    h = h_try * factor
            else:
                rejected += 1
                h = h_try * min(1.0, max(0.2, 0.9 * err**-0.2))
        if recorded:
            rec.add(t, y)
    return rec.trajectory(stats())


def integrate_flow(flow, x0, t0, t1, cfg=None, t_eval=None):
    """Integrate the image-space flow, recording Hamiltonian values."""

    def rhs(state):
        return nambu_rhs(flow, state)

    return integrate(
        rhs, x0, t0, t1, cfg=cfg, t_eval=t_eval, observe=flow.hamiltonian_values
    )


def integrate_source(flow, x0, t0, t1, cfg=None, t_eval=None):
    """Integrate the source-space motion that pushes forward onto the flow."""

    def rhs(state):
        return source_rhs(flow, state)

    return integrate(rhs, x0, t0, t1, cfg=cfg, t_eval=t_eval)
