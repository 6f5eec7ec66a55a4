"""Closed forms and checks that only the tests use as references."""

import math

from mapflow import core, maps
from mapflow.core import as_state, float_value, jet_log
from mapflow.errors import IntegrationError, MaxStepsError, StepUnderflowError
from mapflow.flows import (
    _TABLEAUS,
    IntegratorConfig,
    IntegratorStats,
    Trajectory,
    _combine,
    _min_step,
    _samples,
    _step,
    _terms,
)


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
    so a level-set Newton on it moves x and y, two free slots."""
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


def _dense_state(y, h, dense, k, x):
    """The continuous extension's state a fraction 0 < x < 1 of the way
    through the step of size h from y with stages k."""
    weights = [x * (p1 + x * (p2 + x * (p3 + x * p4))) for p1, p2, p3, p4 in dense]
    return _combine(y, h, _terms(weights), k)


def integrate(rhs, x0, t0, t1, cfg=None, t_eval=None, observe=None):
    """``flows.integrate`` with its step loop, error norm and continuous
    extension in Python: the loop that ``flows._loop`` compiles, and the
    reference its trajectories, counters and errors are checked against."""
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
    a, _, e, dense = _TABLEAUS[cfg.method]
    # the samples still to record, the next one last
    pending = samples[::-1]
    t = t0
    y = as_state(x0)
    step, fsal = _step(cfg.method, len(y))
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

        y_new, k, err_sums = step(rhs, y, h_try, k_first)
        evals += len(a) - (k_first is not None)
        # a rejected step keeps its own first stage
        k_first = k[0]
        finite = all(map(math.isfinite, y_new))
        if e is None and not finite:  # rk4 never retries a step
            raise IntegrationError("non-finite state", t, y, trajectory())
        err = 0.0
        if e is not None:
            # adding to zero is exact, so this is h_try * sum(e_i * k_i)
            ratios = [
                abs(d) / (cfg.abs_tol + cfg.rel_tol * max(abs(u), abs(v)))
                for d, u, v in zip(err_sums, y, y_new)
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
            # step (finite estimate) hands on a finite one
            k_first = k[-1] if fsal else None
            if e is not None:
                factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))
                h = h_try * factor
        else:
            rejected += 1
            h = h_try * min(1.0, max(0.2, 0.9 * err**-0.2))
    return trajectory()
