"""End-to-end verification of the map-flow correspondence.

The central check integrates the image-space flow from the push-forward of
a source point and compares it, at a fixed grid of sample times, against
the map applied to the moving source point.  Maps whose Jacobian
determinant depends on the time coordinate (the recurrence chain, the
planar lattice reduction) only reproduce the flow along a constrained
source curve; that curve is exactly what the source-space velocity field
integrates, so the same procedure covers both cases.

All reports are deterministic for identical inputs: sampling grids are
fixed, random draws are seeded, and JSON serialization is canonical.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import chain1d, core, flows, maps
from .errors import MapflowError
from .flows import IntegratorConfig

DEFAULT_TOL_DEVIATION = 1e-6
DEFAULT_TOL_DRIFT = 1e-7
DET_PRODUCT_TOL = 1e-8
QP4_ORACLE_POINTS = 25
QP4_ORACLE_FD_STEP = 1e-6
DEFAULT_SAMPLES = 21
DEFAULT_SEED = 42


def _inf_norm(vec):
    return max(abs(v) for v in vec)


def _relative_deviation(a, b):
    return _inf_norm([x - y for x, y in zip(a, b)]) / (1.0 + _inf_norm(b))


@dataclass(frozen=True)
class CorrespondenceReport:
    map_id: str
    params: dict
    time_index: int
    t0: float
    t1: float
    x0: tuple
    sample_times: tuple
    deviations: tuple
    max_deviation: float
    ham_drift: tuple
    tol_deviation: float
    tol_drift: float
    integrator: dict
    passed: bool

    def to_dict(self):
        out = asdict(self)
        out["type"] = "correspondence"
        return out


def _sample_times(t0, t1, count):
    """count evenly spaced times from t0 to t1, the last exactly t1 (the
    formula alone can land one ulp to either side of it)."""
    if count < 2:
        raise ValueError("need at least two sample times")
    return [t0 + (t1 - t0) * i / (count - 1) for i in range(count - 1)] + [t1]


def source_start(flow, x0, t0):
    """Assemble the full source point, placing t0 at the time coordinate."""
    n = flow.map.dimension
    t_idx = flow.time_index - 1
    coords = [float(v) for v in x0]
    if len(coords) == n - 1:
        coords.insert(t_idx, float(t0))
    elif len(coords) == n:
        coords[t_idx] = float(t0)
    else:
        raise ValueError(
            f"initial state needs {n - 1} non-time coordinates (or {n} with "
            f"the time slot overwritten), got {len(coords)}"
        )
    return tuple(coords)


def flow_from_source(flow, x0, t0, t1, cfg, num_samples):
    """Integrate the flow from the image of the source point at t0, sampled
    at num_samples evenly spaced times from t0 to t1.

    Returns the source point and the trajectory.
    """
    t0, t1 = float(t0), float(t1)
    x_start = source_start(flow, x0, t0)
    image0 = flow.map.forward(x_start)
    t_eval = _sample_times(t0, t1, num_samples)
    return x_start, flows.integrate_flow(flow, image0, t0, t1, cfg=cfg, t_eval=t_eval)


def _drifts(ham_values):
    """Per Hamiltonian, the largest change from its first value, relative
    to 1 + |first value|."""
    h0 = ham_values[0]
    return tuple(
        max(abs(hv[j] - h0[j]) for hv in ham_values) / (1.0 + abs(h0[j]))
        for j in range(len(h0))
    )


def verify_correspondence(
    map_id,
    params=None,
    x0=(1.0,),
    t_range=(0.0, 1.0),
    cfg=None,
    flow=None,
    num_samples=DEFAULT_SAMPLES,
    tol_drift=DEFAULT_TOL_DRIFT,
):
    """Integrate the flow and compare against the map at sampled times.

    The oracle is the map itself: for most catalog maps the non-time
    source coordinates stay fixed while the time slot sweeps the sample
    times.  Maps flagged as constraint-bound (the recurrence chain, the
    planar lattice reduction) only reproduce the flow along a moving
    source curve, which is obtained by integrating the source velocity
    field.  ``flow`` overrides the catalog flow (used by the negative
    controls).
    """
    params = maps.resolve_params(map_id, params)
    constrained = maps.get_entry(map_id).needs_source_constraint
    if flow is None:
        flow = maps.build_flow(map_id, params)
    cfg = cfg or IntegratorConfig()
    t0, t1 = float(t_range[0]), float(t_range[1])

    x_start, traj_flow = flow_from_source(flow, x0, t0, t1, cfg, num_samples)
    t_eval = traj_flow.times
    if constrained:
        traj_src = flows.integrate_source(flow, x_start, t0, t1, cfg=cfg, t_eval=t_eval)
        src_states = traj_src.states
    else:
        src_states = [source_start(flow, x_start, t) for t in t_eval]

    deviations = []
    for state_flow, state_src in zip(traj_flow.states, src_states):
        deviations.append(_relative_deviation(state_flow, flow.map.forward(state_src)))
    drifts = _drifts(traj_flow.ham_values)
    max_dev = max(deviations)
    passed = max_dev <= DEFAULT_TOL_DEVIATION and all(d <= tol_drift for d in drifts)
    return CorrespondenceReport(
        map_id=map_id,
        params={k: v for k, v in params.items()},
        time_index=flow.time_index,
        t0=t0,
        t1=t1,
        x0=tuple(float(v) for v in x0),
        sample_times=tuple(traj_flow.times),
        deviations=tuple(deviations),
        max_deviation=max_dev,
        ham_drift=drifts,
        tol_deviation=DEFAULT_TOL_DEVIATION,
        tol_drift=tol_drift,
        integrator={
            "method": cfg.method,
            "accepted": traj_flow.stats.accepted,
            "rejected": traj_flow.stats.rejected,
            "rhs_evals": traj_flow.stats.rhs_evals,
        },
        passed=bool(passed),
    )


# ---------------------------------------------------------------------------
# grid scans


@dataclass(frozen=True)
class ScanReport:
    map_id: str
    params: dict
    grid: tuple
    t0: float
    t1: float
    results: tuple
    summary: dict

    def to_dict(self):
        out = asdict(self)
        out["type"] = "scan"
        return out


def _grid_points(grid):
    """Cartesian product of evenly spaced axes (lo, hi, count), each from
    lo to exactly hi; a count of one gives lo alone."""
    axes = []
    for lo, hi, count in grid:
        count = int(count)
        if count < 1:
            raise ValueError("grid axis needs at least one point")
        lo, hi = float(lo), float(hi)
        axes.append([lo] if count == 1 else _sample_times(lo, hi, count))
    points = [()]
    for axis in axes:
        points = [p + (v,) for p in points for v in axis]
    return points


def conservation_scan(
    map_id,
    params=None,
    grid=((0.5, 1.5, 3),),
    t_range=(1.0, 2.0),
    cfg=None,
):
    """Per grid point, run the correspondence check; failures (including a
    division by zero or an overflow) are recorded and the scan continues.
    Points run one after another in grid order."""
    params = maps.resolve_params(map_id, params)
    points = _grid_points(grid)

    def run_point(pt):
        try:
            rep = verify_correspondence(
                map_id, params, x0=pt, t_range=t_range, cfg=cfg
            )
            return {
                "point": list(pt),
                "max_deviation": rep.max_deviation,
                "max_drift": max(rep.ham_drift),
                "passed": rep.passed,
                "error": None,
            }
        except (MapflowError, ArithmeticError) as exc:
            return {
                "point": list(pt),
                "max_deviation": None,
                "max_drift": None,
                "passed": False,
                "error": f"{type(exc).__name__}: {exc}",
            }

    results = tuple(run_point(pt) for pt in points)

    finite_devs = [r["max_deviation"] for r in results if r["max_deviation"] is not None]
    finite_drifts = [r["max_drift"] for r in results if r["max_drift"] is not None]
    summary = {
        "points": len(results),
        "passed": sum(1 for r in results if r["passed"]),
        "failed": sum(1 for r in results if not r["passed"]),
        "max_deviation": max(finite_devs) if finite_devs else None,
        "max_drift": max(finite_drifts) if finite_drifts else None,
        "all_passed": all(r["passed"] for r in results),
    }
    return ScanReport(
        map_id=map_id,
        params={k: v for k, v in params.items()},
        grid=tuple(tuple(axis) for axis in grid),
        t0=float(t_range[0]),
        t1=float(t_range[1]),
        results=results,
        summary=summary,
    )


# ---------------------------------------------------------------------------
# composition checks


@dataclass(frozen=True)
class CompositionReport:
    map_id: str
    params: dict
    steps: int
    det_composite: float
    det_product: float
    det_rel_err: float
    det_ok: bool
    ham_drift: float | None
    ham_ok: bool | None
    passed: bool

    def to_dict(self):
        out = asdict(self)
        out["type"] = "composition"
        return out


def composition_check(
    map_id,
    params=None,
    steps=2,
    x0=None,
    t_range=None,
    cfg=None,
):
    """Determinant multiplicativity for the steps-fold composite, plus
    conservation of the composite's closed-form Hamiltonian where known."""
    params = maps.resolve_params(map_id, params)
    step_maps, flow = maps.build_composite(map_id, params, steps)
    composite = core.compose_sequence(
        step_maps, name=f"{map_id}-composite[{steps}]", params=params
    )
    if x0 is None:
        x0 = maps.get_entry(map_id).composition_x0
    if x0 is None:
        x0 = core.sample_points(step_maps[0], 1)[0]
    x0 = core.as_state(x0)

    det_comp = float(core.det(core.jacobian(composite, x0)))
    det_prod = 1.0
    cur = x0
    for step in step_maps:
        det_prod *= float(core.det(core.jacobian(step, cur)))
        cur = step.forward(cur)
    det_rel = abs(det_comp - det_prod) / max(1.0, abs(det_prod))
    det_ok = det_rel <= DET_PRODUCT_TOL

    ham_drift = None
    ham_ok = None
    if flow is not None:
        t0, t1 = t_range or (1.0, 2.0)
        _, traj = flow_from_source(flow, x0, t0, t1, cfg, DEFAULT_SAMPLES)
        ham_drift = max(_drifts(traj.ham_values))
        ham_ok = ham_drift <= DEFAULT_TOL_DRIFT

    return CompositionReport(
        map_id=map_id,
        params={k: v for k, v in params.items()},
        steps=steps,
        det_composite=det_comp,
        det_product=det_prod,
        det_rel_err=det_rel,
        det_ok=bool(det_ok),
        ham_drift=ham_drift,
        ham_ok=ham_ok,
        passed=bool(det_ok and (ham_ok is None or ham_ok)),
    )


# ---------------------------------------------------------------------------
# chain checks


def chain_suite(m=2, a=0.0, c=0.0, n_states=20, seed=DEFAULT_SEED):
    """Determinant identities plus Hamilton-equation checks for the
    quadratic-action chain, over seeded random states.

    The finite-difference Hamilton check runs for m in {2, 3}, where the
    central-difference oracle is inside its validity window; longer
    chains amplify curvature enough that the truncation error swamps the
    tolerance, so they are verified through the exact identity between
    the jet gradient of the propagated bottom value and the tridiagonal
    determinant response instead.
    """
    spec = chain1d.henon_chain_spec(m, c)
    rng = np.random.default_rng(seed)

    worst_closed = 0.0
    hamilton_ok = True if m in (2, 3) else None
    worst_fd = 0.0
    worst_gradient = 0.0
    for _ in range(n_states):
        q_m, q_m1 = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
        state = chain1d.chain_propagate(spec, q_m, q_m1, float(a))
        qq, pp = chain1d.canonical_pair(state)
        if m in (2, 3):
            closed = chain1d.henon_chain_closed_hamiltonian(m, qq, pp, state.a, c)
            worst_closed = max(
                worst_closed, abs(closed - state.q[0]) / (1.0 + abs(state.q[0]))
            )
            rep = chain1d.verify_chain_hamilton(spec, state)
            hamilton_ok = hamilton_ok and rep.passed
            worst_fd = max(worst_fd, rep.err_dq, rep.err_dp, rep.err_bar_a)
        _, dh_dp = chain1d.hamiltonian_gradient(spec, qq, pp, state.a)
        coeffs = chain1d.chain_coefficients(spec, state)
        bar = chain1d.tridiag_det(coeffs.abar[1:m], coeffs.c[2:m])
        worst_gradient = max(
            worst_gradient,
            abs(dh_dp - bar) / (1.0 + abs(bar)),
        )

    # recurrence determinants vs dense evaluation on random coefficients
    worst_det = 0.0
    worst_identity = 0.0
    for _ in range(n_states):
        size = int(rng.integers(1, 9))
        diag = rng.uniform(-2.0, 2.0, size)
        sup = rng.uniform(-2.0, 2.0, max(size - 1, 0))
        sub_c = rng.uniform(0.5, 2.0, max(size - 1, 0))
        rec = chain1d.tridiag_det(diag, sup)
        dense = np.zeros((size, size))
        for i in range(size):
            dense[i, i] = diag[i]
            if i + 1 < size:
                dense[i, i + 1] = sup[i]
                dense[i + 1, i] = 1.0
        ref = float(np.linalg.det(dense))
        worst_det = max(worst_det, abs(rec - ref) / (1.0 + abs(ref)))

        # abar = a * c identity: bar determinant equals prod(c) * A
        cs = rng.uniform(0.5, 2.0, size)
        bs = 1.0 / cs[:-1] if size > 1 else np.zeros(0)
        abar = diag * cs
        bar = chain1d.tridiag_det(abar, cs[1:])
        plain = chain1d.tridiag_det(diag, bs)
        want = float(np.prod(cs)) * plain
        worst_identity = max(worst_identity, abs(bar - want) / (1.0 + abs(want)))

    det_ok = worst_det <= 1e-12
    identity_ok = worst_identity <= 1e-10
    gradient_ok = worst_gradient <= 1e-10
    closed_ok = worst_closed <= 1e-10 if m in (2, 3) else None
    passed = (
        det_ok
        and identity_ok
        and gradient_ok
        and (hamilton_ok is None or hamilton_ok)
        and (closed_ok is None or closed_ok)
    )
    return {
        "type": "chain-suite",
        "m": m,
        "a": float(a),
        "c": float(c),
        "states": n_states,
        "closed_form_max_rel_err": worst_closed if m in (2, 3) else None,
        "closed_form_ok": closed_ok,
        "hamilton_ok": hamilton_ok,
        "hamilton_max_rel_err": worst_fd if m in (2, 3) else None,
        "gradient_identity_max_rel_err": worst_gradient,
        "gradient_identity_ok": bool(gradient_ok),
        "det_recurrence_max_rel_err": worst_det,
        "det_recurrence_ok": bool(det_ok),
        "bar_identity_max_rel_err": worst_identity,
        "bar_identity_ok": bool(identity_ok),
        "passed": bool(passed),
    }


# ---------------------------------------------------------------------------
# q-difference map normalization oracle


@dataclass(frozen=True)
class NormalizationReport:
    a: float
    b: float
    c: float
    q: float
    residuals: dict
    display_formula_residual: float
    winner: str
    decisive: bool

    def to_dict(self):
        out = asdict(self)
        out["type"] = "qp4-normalization"
        return out


def qp4_normalization_report(a, b, c, seed=DEFAULT_SEED):
    """Decide which second-Hamiltonian scaling reproduces the map.

    Central finite differences of the map along its time coordinate are
    the ground truth; each candidate flow's bracket velocity is compared
    against them.  The explicit rational velocity formulas are measured as
    well, as corroboration.
    """
    mapdesc = maps.qp4(a, b, c)
    candidates = {
        name: maps.qp4_flow(a, b, c, name) for name in maps.QP4_NORMALIZATIONS
    }
    display = maps.qp4_velocity(a, b, c)
    rng = np.random.default_rng(seed)
    residuals = {name: 0.0 for name in candidates}
    display_res = 0.0
    for _ in range(QP4_ORACLE_POINTS):
        src = tuple(rng.uniform(0.4, 1.6, 3))
        up = list(src)
        dn = list(src)
        h = QP4_ORACLE_FD_STEP * (1.0 + abs(src[2]))
        up[2] += h
        dn[2] -= h
        f_up = mapdesc.forward(up)
        f_dn = mapdesc.forward(dn)
        truth = tuple((u - d) / (2 * h) for u, d in zip(f_up, f_dn))
        image = mapdesc.forward(src)
        for name, flow in candidates.items():
            cand = flows.nambu_rhs(flow, image)
            residuals[name] = max(
                residuals[name],
                max(abs(u - w) / (1.0 + abs(w)) for u, w in zip(cand, truth)),
            )
        disp = display(image)
        display_res = max(
            display_res,
            max(abs(u - w) / (1.0 + abs(w)) for u, w in zip(disp, truth)),
        )
    winner = min(residuals, key=residuals.get)
    losers = [n for n in residuals if n != winner]
    decisive = residuals[winner] <= 1e-5 and all(
        residuals[n] > 1e-5 for n in losers
    )
    return NormalizationReport(
        a=float(a),
        b=float(b),
        c=float(c),
        q=float(a * b * c),
        residuals={k: float(v) for k, v in residuals.items()},
        display_formula_residual=float(display_res),
        winner=winner,
        decisive=bool(decisive),
    )
