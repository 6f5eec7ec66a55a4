"""End-to-end verification of the map-flow correspondence.

The central check integrates the image-space flow from the push-forward of
a source point and compares it, at a fixed grid of sample times, against
the map applied to the moving source point.  Maps whose Jacobian
determinant depends on the time coordinate (the recurrence chain, the
planar lattice reduction) only reproduce the flow along a constrained
source curve, the level set of the Hamiltonians through the start; the
harness solves for its points by Newton, so the oracle integrates
nothing and the same comparison covers both cases.

All reports are deterministic for identical inputs: sampling grids are
fixed, random draws are seeded, and JSON serialization is canonical.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass

from . import chain1d, core, flows, maps
from .errors import LevelSetError, MapflowError, SingularPointError
from .flows import IntegratorConfig

DEFAULT_TOL_DEVIATION = 1e-6
DEFAULT_TOL_DRIFT = 1e-7
DET_PRODUCT_TOL = 1e-8
QP4_ORACLE_POINTS = 25
DEFAULT_SAMPLES = 21
DEFAULT_SEED = 42
LEVEL_SET_MAX_ITERATIONS = 30
LEVEL_SET_STEP_TOL = 1e-13


def _inf_norm(vec):
    return max(abs(v) for v in vec)


def _relative_deviation(a, b):
    return _inf_norm([x - y for x, y in zip(a, b)]) / (1.0 + _inf_norm(b))


class _Report:
    """Base of the harness reports: ``to_dict`` gives the fields plus the
    class's ``TYPE`` under ``type``."""

    def to_dict(self):
        return {**asdict(self), "type": self.TYPE}


@dataclass(frozen=True)
class CorrespondenceReport(_Report):
    TYPE = "correspondence"

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
    oracle: dict
    passed: bool
    quadrature: dict | None = None

    def to_dict(self):
        """The fields, less ``quadrature`` when the flow's Hamiltonians are
        closed forms."""
        out = super().to_dict()
        if self.quadrature is None:
            del out["quadrature"]
        return out


def _sample_times(t0, t1, count):
    """count evenly spaced times from t0 to t1, the last exactly t1 (the
    formula alone can land one ulp to either side of it)."""
    if count < 2:
        raise ValueError("need at least two sample times")
    return [t0 + (t1 - t0) * i / (count - 1) for i in range(count - 1)] + [t1]


def source_start(flow, x0, t0):
    """The full source point: the n-1 non-time coordinates x0, t0 in the time slot."""
    n = flow.map.dimension
    coords = [float(v) for v in x0]
    if len(coords) != n - 1:
        raise ValueError(
            f"initial state needs exactly {n - 1} non-time coordinates "
            f"(t0 fills the time slot), got {len(coords)}"
        )
    coords.insert(flow.time_index - 1, float(t0))
    return tuple(coords)


def flow_from_source(flow, x0, t0, t1, cfg, num_samples):
    """The source path at num_samples evenly spaced times from t0 to t1, its
    oracle record (see ``_source_path``), and the flow integrated from the
    image of the path's first point, sampled at those times.  The path,
    found and checked for poles first, follows the level set exactly where
    the map, not the Hamiltonians, fails the determinant condition on the
    seeded points of ``build_hamiltonians`` (``flow.det_condition``).  A
    span too short for num_samples distinct floats is a ValueError.
    """
    t0, t1 = float(t0), float(t1)
    times = _sample_times(t0, t1, num_samples)
    if t0 != t1 and len(set(times)) < num_samples:
        raise ValueError(
            f"the span {t1 - t0!r} from t0={t0!r} is too short for "
            f"{num_samples} distinct sample times"
        )
    x_start = source_start(flow, x0, t0)
    path, oracle = _source_path(flow, x_start, times)
    traj = flows.integrate_flow(
        flow, flow.map.forward(x_start), t0, t1, cfg=cfg, t_eval=times
    )
    return path, oracle, traj


def _solve(a, d, b):
    """x with a x = b by Cramer's rule, where d = det(a) is non-zero."""
    return [
        core.det([row[:k] + [b_i] + row[k + 1 :] for row, b_i in zip(a, b)]) / d
        for k in range(len(a))
    ]


def _level_set_path(flow, x_start, times):
    """The source points on the level set H(F(x)) = H(F(x_start)) with the
    time slot at each time, and the solve's oracle record.

    At each time Newton moves the n-1 other slots, from the previous time's
    point.  An iteration reads G(x) = H(F(x)) - H(F(x_start)) and its
    derivative rows along those slots off one call of the flow's ``level``
    (traced on first use into float code, falling back to jets exactly as
    the flow's velocity does) and solves dG/dx_free dx = -G by Cramer's
    rule.  It stops when |dx| <= 1e-13 (1 + |x|), or when |dx|
    has shrunk and then stops shrinking (rounding noise in G); a solve
    that does neither within LEVEL_SET_MAX_ITERATIONS is a LevelSetError.
    det(dG/dx_free), which equals det J for the flow's own Hamiltonians,
    may neither vanish nor change sign between two times.  The record's
    ``max_residual`` is the largest |G_j| / (1 + |H_j|) at the last
    iterate a solve evaluated.
    """
    t_index = flow.time_index - 1
    free = [k for k in range(len(x_start)) if k != t_index]
    m = len(free)
    name = flow.map.name
    target = flow.hamiltonian_values(flow.map.forward(x_start))
    path = []
    iterations = 0
    residual = 0.0
    x = x_start
    for i, t in enumerate(times):
        x = x[:t_index] + (t,) + x[t_index + 1 :]
        sizes = []
        for _ in range(LEVEL_SET_MAX_ITERATIONS):
            iterations += 1
            out = flow.level(x)
            g = [v - h for v, h in zip(out, target)]
            a = [list(out[k : k + m]) for k in range(m, m * (m + 1), m)]
            d = float(core.det(a))
            if abs(d) <= core.GUARD_CUTOFF:
                raise SingularPointError(name, "det J", x)
            dx = _solve(a, d, [-v for v in g])
            sizes.append(max(map(abs, dx)))
            dx.insert(t_index, 0.0)
            x = tuple(v + s for v, s in zip(x, dx))
            if not math.isfinite(sizes[-1]):
                raise LevelSetError(name, t, x)
            scale = 1.0 + max(abs(x[k]) for k in free)
            if sizes[-1] <= LEVEL_SET_STEP_TOL * scale:
                break
            if len(sizes) > 2 and sizes[-3] > sizes[-2] <= sizes[-1]:
                break  # the step shrank, then stopped shrinking: rounding noise
        else:
            raise LevelSetError(name, t, x)
        if i > 0 and d * last_det < 0.0:
            raise SingularPointError(name, "det J", between=(times[i - 1], t))
        last_det = d
        residual = max(
            [residual] + [abs(v) / (1.0 + abs(h)) for v, h in zip(g, target)]
        )
        path.append(x)
    oracle = {
        "method": "level-set",
        "newton_iterations": iterations,
        "max_residual": residual,
    }
    return path, oracle


def _source_path(flow, x_start, times):
    """The source points at the given times, whose images the flow must
    retrace, and the oracle record saying how they were found.

    A map that passes the flow's ``det_condition`` moves only the time
    slot (``time-slot``); a constrained one follows its level set
    (``level-set``, see ``_level_set_path``).  A forward guard changing
    sign between two consecutive points vanishes there: that pole on the
    path is a SingularPointError before anything is integrated towards it.
    """
    if not flow.det_condition.passed:
        path, oracle = _level_set_path(flow, x_start, times)
    else:
        t_index = flow.time_index - 1
        path = [x_start[:t_index] + (t,) + x_start[t_index + 1 :] for t in times]
        oracle = {"method": "time-slot"}
    for label, guard in flow.map.forward_guards:
        values = [guard(point) for point in path]
        for i in range(1, len(path)):
            if values[i - 1] * values[i] < 0.0:
                raise SingularPointError(
                    flow.map.name, label, between=(times[i - 1], times[i])
                )
    return path, oracle


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
    *,
    x0,
    t_range,
    cfg=None,
    flow=None,
    num_samples=DEFAULT_SAMPLES,
    tol_drift=DEFAULT_TOL_DRIFT,
):
    """Integrate the flow from the n-1 non-time coordinates ``x0`` over
    ``t_range`` = (t0, t1) and compare against the map at sampled times.

    The oracle is the map itself: where det J does not depend on the time
    slot the non-time source coordinates stay fixed while the time slot
    sweeps the sample times.  Otherwise (the recurrence chain, the planar
    lattice reduction) the map reproduces the flow only along a moving
    source curve, whose points are solved for on the level set (see
    ``flow_from_source``); the report's ``oracle`` record says which.
    ``flow`` overrides the catalog flow (used by the negative controls).
    A flow whose Hamiltonians are built by quadrature reports the panels
    and integrand evaluations the whole check took in ``quadrature``.
    """
    params = maps.resolve_params(map_id, params)
    if flow is None:
        flow = maps.build_flow(map_id, params)
    cfg = cfg or IntegratorConfig()
    t0, t1 = float(t_range[0]), float(t_range[1])
    counts = flow.quadrature
    start = None if counts is None else asdict(counts)

    src_states, oracle, traj_flow = flow_from_source(
        flow, x0, t0, t1, cfg, num_samples
    )
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
            "rel_tol": cfg.rel_tol,
            "abs_tol": cfg.abs_tol,
            **asdict(traj_flow.stats),
        },
        oracle=oracle,
        passed=bool(passed),
        quadrature=(
            None
            if counts is None
            else {k: v - start[k] for k, v in asdict(counts).items()}
        ),
    )


# ---------------------------------------------------------------------------
# grid scans


@dataclass(frozen=True)
class ScanReport(_Report):
    TYPE = "scan"

    map_id: str
    params: dict
    grid: tuple
    t0: float
    t1: float
    results: tuple
    summary: dict


def _grid_points(grid):
    """Cartesian product of evenly spaced axes (lo, hi, count), each from
    lo to exactly hi; a count of one gives lo alone.  An axis too short
    for count distinct floats is a ValueError naming it."""
    axes = []
    for i, (lo, hi, count) in enumerate(grid, 1):
        count = int(count)
        if count < 1:
            raise ValueError("grid axis needs at least one point")
        lo, hi = float(lo), float(hi)
        axis = [lo] if count == 1 else _sample_times(lo, hi, count)
        if len(set(axis)) < count:
            raise ValueError(
                f"grid axis {i} from {lo!r} to {hi!r} is too short for "
                f"{count} distinct points"
            )
        axes.append(axis)
    points = [()]
    for axis in axes:
        points = [p + (v,) for p in points for v in axis]
    return points


def conservation_scan(map_id, params=None, *, grid, t_range, cfg=None):
    """Per point of ``grid``, one (lo, hi, count) axis per non-time
    coordinate, in grid order, run the correspondence check over
    ``t_range`` on one flow built before the first; a point's failure
    (including a division by zero or an overflow) is recorded in its
    ``error`` and the scan continues."""
    params = maps.resolve_params(map_id, params)
    points = _grid_points(grid)
    flow = maps.build_flow(map_id, params)
    axes = flow.map.dimension - 1
    if len(grid) != axes:
        raise ValueError(
            f"grid needs exactly {axes} axes, one per non-time coordinate, "
            f"got {len(grid)}"
        )

    def run_point(pt):
        record = {
            "point": list(pt),
            "max_deviation": None,
            "max_drift": None,
            "passed": False,
            "oracle": None,
            "error": None,
        }
        try:
            rep = verify_correspondence(
                map_id, params, x0=pt, t_range=t_range, cfg=cfg, flow=flow
            )
        except (MapflowError, ArithmeticError) as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
        else:
            record["max_deviation"] = rep.max_deviation
            record["max_drift"] = max(rep.ham_drift)
            record["passed"] = rep.passed
            record["oracle"] = rep.oracle
        return record

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
class CompositionReport(_Report):
    TYPE = "composition"

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


def composition_check(map_id, params=None, steps=2, x0=None):
    """Determinant multiplicativity for the steps-fold composite at ``x0``
    (the catalog's composition point, else the first seeded sample), plus
    conservation of the composite's closed-form Hamiltonian where known,
    along its flow from x0's non-time coordinates over t in [1, 2] with
    the default integrator."""
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

    ham_drift = ham_ok = None
    if flow is not None:
        free = x0[: flow.time_index - 1] + x0[flow.time_index :]
        _, _, traj = flow_from_source(flow, free, 1.0, 2.0, None, DEFAULT_SAMPLES)
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

    Each state gets one ``chain1d.verify_chain_hamilton`` report.  Every
    m is verified through the exact identity between its jet gradient
    dH/dp of the propagated bottom value and its barA determinant.  The
    closed-form Hamiltonian and the Hamilton verdict count for m in
    {2, 3} only.  The closed form exists only there.  The Hamilton check
    re-solves the chain upward from (q_0, q_1), which cancels terms that
    grow with m: over these states its error reaches about 1.3e-6 at
    m = 5, above ``chain1d.HAMILTON_REL_TOL`` = 1e-6.  A NaN error makes
    its maximum NaN and fails the check; a state whose propagation
    overflows is a SingularPointError.
    """
    if n_states < 1:
        raise ValueError("n_states must be at least 1")
    spec = chain1d.henon_chain_spec(m, c)
    rng = random.Random(seed)
    closed_form = m in (2, 3)

    closed_errs, hamilton_errs, gradient_errs = [], [], []
    for _ in range(n_states):
        q_m, q_m1 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        state = chain1d.chain_propagate(spec, q_m, q_m1, float(a))
        rep = chain1d.verify_chain_hamilton(spec, state)
        gradient_errs.append(
            abs(rep.dh_dp - rep.bar_a_1_m1) / (1.0 + abs(rep.bar_a_1_m1))
        )
        if closed_form:
            closed = chain1d.henon_chain_closed_hamiltonian(m, rep.q, rep.p, rep.a, c)
            closed_errs.append(abs(closed - state.q[0]) / (1.0 + abs(state.q[0])))
            hamilton_errs += [rep.err_dq, rep.err_dp, rep.err_bar_a]

    # recurrence determinants vs dense evaluation on random coefficients
    det_errs, identity_errs = [], []
    for _ in range(n_states):
        size = rng.randint(1, 8)
        diag = [rng.uniform(-2.0, 2.0) for _ in range(size)]
        sup = [rng.uniform(-2.0, 2.0) for _ in range(size - 1)]
        rec = chain1d.tridiag_det(diag, sup)
        dense = [[0.0] * size for _ in range(size)]
        for i in range(size):
            dense[i][i] = diag[i]
            if i + 1 < size:
                dense[i][i + 1] = sup[i]
                dense[i + 1][i] = 1.0
        ref = core.det(dense)
        det_errs.append(abs(rec - ref) / (1.0 + abs(ref)))

        # abar = a * c identity: bar determinant equals prod(c) * A
        cs = [rng.uniform(0.5, 2.0) for _ in range(size)]
        abar = [d * k for d, k in zip(diag, cs)]
        bar = chain1d.tridiag_det(abar, cs[1:])
        plain = chain1d.tridiag_det(diag, [1.0 / k for k in cs[:-1]])
        want = math.prod(cs) * plain
        identity_errs.append(abs(bar - want) / (1.0 + abs(want)))

    checks = {  # name: (errors, tolerance)
        "gradient_identity": (gradient_errs, 1e-10),
        "det_recurrence": (det_errs, 1e-12),
        "bar_identity": (identity_errs, 1e-10),
    }
    if closed_form:
        checks["closed_form"] = (closed_errs, 1e-10)
        checks["hamilton"] = (hamilton_errs, chain1d.HAMILTON_REL_TOL)
    report = dict(type="chain-suite", m=m, a=float(a), c=float(c), states=n_states)
    for name in ("closed_form", "hamilton"):
        report[f"{name}_max_rel_err"] = report[f"{name}_ok"] = None
    for name, (errs, tol) in checks.items():
        worst = flows.max_keeping_nan(errs)
        report[f"{name}_max_rel_err"] = worst
        report[f"{name}_ok"] = bool(worst <= tol)
    report["passed"] = all(report[f"{name}_ok"] for name in checks)
    return report


# ---------------------------------------------------------------------------
# q-difference map normalization oracle


@dataclass(frozen=True)
class NormalizationReport(_Report):
    TYPE = "qp4-normalization"

    a: float
    b: float
    c: float
    q: float
    residuals: dict
    display_formula_residual: float
    winner: str
    decisive: bool


def qp4_normalization_report(a, b, c):
    """Decide which second-Hamiltonian scaling reproduces the map.

    The ground truth is the map's velocity along its time coordinate, the
    time column of its Jacobian, read off the same seeded evaluation that
    gives the image point; each candidate flow's bracket velocity is
    compared against it.  The explicit rational velocity formulas are
    measured at the same points, as corroboration.  The candidate flows
    come from ``maps.build_flow``, so a verify of the same qp4 flow shares
    its flow, and its one trace, with the oracle.
    """
    mapdesc = maps.qp4(a, b, c)
    velocities = {}
    for name in maps.QP4_NORMALIZATIONS:
        flow = maps.build_flow("qp4", {"a": a, "b": b, "c": c, "normalization": name})
        # flows.nambu_rhs is looked up per call, so a rebinding of it is seen
        velocities[name] = lambda x, flow=flow: flows.nambu_rhs(flow, x)
    velocities["display_formula_residual"] = maps.qp4_velocity(a, b, c)
    rng = random.Random(DEFAULT_SEED)
    residuals = dict.fromkeys(velocities, 0.0)
    for _ in range(QP4_ORACLE_POINTS):
        src = tuple(rng.uniform(0.4, 1.6) for _ in range(3))
        image, rows = core.jet_values_rows(mapdesc.forward, src)
        truth = [row[2] for row in rows]
        for name, velocity in velocities.items():
            pairs = zip(velocity(image), truth)
            err = max(abs(u - w) / (1.0 + abs(w)) for u, w in pairs)
            residuals[name] = max(residuals[name], err)
    display_res = residuals.pop("display_formula_residual")
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
