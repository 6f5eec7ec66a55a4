"""Flow construction, right-hand sides and integrator tests."""

import math

import numpy as np
import pytest

from mapflow import core, flows, harness, maps
from mapflow.errors import (
    DetConditionError,
    IntegrationError,
    MapflowError,
    MaxStepsError,
    NonFiniteStateError,
    SingularPointError,
    StepUnderflowError,
)
from mapflow.flows import IntegratorConfig


def synthetic_failing_map():
    """(X, Y) = (x, x y^2): det J = 2xy depends on the time coordinate y."""
    return core.MapDescriptor(
        name="synthetic",
        dimension=2,
        params={},
        forward_fn=lambda s: (s[0], s[0] * s[1] * s[1]),
        inverse_fn=lambda s: (s[0], (s[1] / s[0]) ** 1),
        inverse_guards=(("x", lambda s: s[0]),),
    )


# ---------------------------------------------------------------------------
# det condition


def test_det_condition_henon_passes_any_time_index():
    h = maps.henon(1.4, 0.2)
    samples = core.sample_points(h, 10)
    for t_idx in (1, 2):
        assert flows.check_det_condition(h, t_idx, samples).passed


def test_det_condition_kdv3_passes():
    k3 = maps.kdv3()
    report = flows.check_det_condition(k3, 3, core.sample_points(k3, 10))
    assert report.passed
    assert report.max_ratio < 1e-9


def test_det_condition_synthetic_fails():
    syn = synthetic_failing_map()
    report = flows.check_det_condition(syn, 2, [(1.0, 1.0), (0.5, 1.5)])
    assert not report.passed
    # d(det J)/dy = 2x, so the sampled partial reaches 2 at (1, 1)
    assert report.max_partial == pytest.approx(2.0, rel=1e-4)


@pytest.mark.parametrize(
    "call",
    [
        lambda chain: flows.check_det_condition(chain, 0, [(7.0, 1.0)]),
        lambda chain: flows.check_det_condition(chain, 3, [(7.0, 1.0)]),
        # refused before the determinant condition samples anything
        lambda chain: flows.build_hamiltonians(chain, time_index=0),
    ],
    ids=["det-condition-0", "det-condition-3", "build-0"],
)
def test_time_index_out_of_range_is_refused(call):
    with pytest.raises(ValueError, match="time index .* out of range 1..2"):
        call(maps.hermite_chain(2))


def test_build_hamiltonians_refuses_when_condition_fails():
    with pytest.raises(DetConditionError) as exc_info:
        flows.build_hamiltonians(maps.hermite_chain(2))
    assert exc_info.value.report.entries  # diagnostic samples attached


# ---------------------------------------------------------------------------
# numeric Hamiltonian builder


def test_build_hamiltonians_henon_matches_closed_form():
    h = maps.henon(1.0, 0.0)
    fs = flows.build_hamiltonians(h, ref_point=(1.0, 1.0))
    closed = maps.henon_hamiltonian(2, 1.0, 0.0)
    rng = np.random.default_rng(42)
    pts = [h.forward(tuple(rng.uniform(0.3, 1.8, 2))) for _ in range(50)]
    offsets = [fs.hamiltonians[0](X) - closed(X) for X in pts]
    assert max(offsets) - min(offsets) < 1e-7


def test_build_hamiltonians_henon_three_step_form():
    b, c = 1.5, 0.3
    comp = core.compose(maps.henon(b, c), 2)
    fs = flows.build_hamiltonians(comp)
    closed = maps.henon_hamiltonian(3, b, c)
    rng = np.random.default_rng(1)
    pts = [comp.forward(tuple(rng.uniform(0.3, 1.5, 2))) for _ in range(30)]
    offsets = [fs.hamiltonians[0](X) - closed(X) for X in pts]
    assert max(offsets) - min(offsets) < 1e-7


def test_build_hamiltonians_hermite_with_zero_reference():
    chain = maps.hermite_chain(2)
    fs = flows.build_hamiltonians(chain, ref_point=(0.0, 1.0), check=False)
    closed = maps.hermite_hamiltonian(2)
    rng = np.random.default_rng(2)
    pts = [
        chain.forward((rng.uniform(6.0, 8.0), rng.uniform(0.8, 1.2)))
        for _ in range(30)
    ]
    worst = max(abs(fs.hamiltonians[0](X) - closed(X)) for X in pts)
    assert worst < 1e-7


def test_build_hamiltonians_kdv3_reads_source_coordinates():
    k3 = maps.kdv3()
    fs = flows.build_hamiltonians(k3)
    rng = np.random.default_rng(3)
    for _ in range(10):
        src = tuple(rng.uniform(0.4, 1.6, 3))
        X = k3.forward(src)
        assert fs.hamiltonians[0](X) == pytest.approx(src[0], abs=1e-10)
        # quadrature of det J = 1 from the reference value 1
        assert fs.hamiltonians[1](X) == pytest.approx(src[1] - 1.0, abs=1e-9)


def test_build_hamiltonians_quadrature_field_has_consistent_gradient():
    chain = maps.hermite_chain(2)
    fs = flows.build_hamiltonians(chain, ref_point=(0.0, 1.0), check=False)
    closed = maps.hermite_hamiltonian(2)
    X = chain.forward((7.0, 1.0))
    got = core.grad(fs.hamiltonians[0], X)
    want = core.grad(closed, X)
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-7


def test_numeric_flow_drives_integration_henon():
    # the quadrature-built Hamiltonian, differentiated by nested jets,
    # must integrate to the same endpoint as the map
    h = maps.henon(1.0, 0.0)
    fs = flows.build_hamiltonians(h)
    X0 = h.forward((1.0, 0.0))
    traj = flows.integrate_flow(fs, X0, 0.0, 2.0, t_eval=np.linspace(0, 2, 11))
    want = h.forward((1.0, 2.0))
    assert max(abs(a - b) for a, b in zip(traj.final_state, want)) < 1e-8


def test_numeric_flow_drives_integration_kdv3():
    k3 = maps.kdv3()
    fs = flows.build_hamiltonians(k3)
    X0 = k3.forward((1.1, 0.9, 1.0))
    traj = flows.integrate_flow(fs, X0, 1.0, 1.3, t_eval=[1.0, 1.15, 1.3])
    want = k3.forward((1.1, 0.9, 1.3))
    assert max(abs(a - b) for a, b in zip(traj.final_state, want)) < 1e-8


def test_permuted_time_index_correspondence_kdv3():
    # constant det J = 1 satisfies the condition for every time choice;
    # with y as time the flow must track the map as y alone varies
    k3 = maps.kdv3()
    fs = flows.build_hamiltonians(k3, time_index=2)
    x0, z0 = 1.1, 0.8
    t0, t1 = 0.9, 1.6
    X0 = k3.forward((x0, t0, z0))
    t_eval = np.linspace(t0, t1, 11)
    traj = flows.integrate_flow(fs, X0, t0, t1, t_eval=t_eval)
    for t, state in zip(traj.times, traj.states):
        want = k3.forward((x0, t, z0))
        dev = max(abs(a - b) for a, b in zip(state, want)) / (
            1 + max(abs(v) for v in want)
        )
        assert dev < 1e-6


def test_permuted_time_index_correspondence_hermite_x_time():
    # m=2 chain with x as time: det J = 1/y^2 has no x dependence, so the
    # flow retraces the chain with the y coordinate held fixed
    chain = maps.hermite_chain(2)
    fs = flows.build_hamiltonians(chain, ref_point=(1.0, 1.0), time_index=1)
    y0 = 1.0
    X0 = chain.forward((6.0, y0))
    traj = flows.integrate_flow(
        fs, X0, 6.0, 8.0, t_eval=np.linspace(6.0, 8.0, 9)
    )
    for t, state in zip(traj.times, traj.states):
        want = chain.forward((t, y0))
        assert max(abs(a - b) for a, b in zip(state, want)) < 1e-6


def test_permuted_time_index_even_cycle_verifies_kdv3():
    # x1 as time moves the time column over two others, an even permutation
    report = harness.verify_correspondence(
        "kdv3",
        x0=(0.9, 1.0),
        t_range=(1.1, 1.2),
        flow=flows.build_hamiltonians(maps.kdv3(), time_index=1),
        num_samples=3,
    )
    assert report.passed
    assert report.time_index == 1


def reordered_time_last(mapdesc, time_index):
    """The map with its source coordinates reordered by hand so that
    x_time comes last; image space is untouched."""
    n = mapdesc.dimension
    order = [j for j in range(n) if j != time_index - 1] + [time_index - 1]

    def fwd(state):
        src = [None] * n
        for pos, j in enumerate(order):
            src[j] = state[pos]
        return mapdesc.forward(src)

    def inv(state):
        src = mapdesc.inverse(state)
        return tuple(src[j] for j in order)

    return core.MapDescriptor(
        name=f"{mapdesc.name}-reordered",
        dimension=n,
        params={},
        forward_fn=fwd,
        inverse_fn=inv,
    )


@pytest.mark.parametrize("time_index", [1, 2])
def test_permuted_time_index_matches_hand_reordered_map_kdv3(time_index):
    k3 = maps.kdv3()
    fs = flows.build_hamiltonians(k3, time_index=time_index)
    ref = flows.build_hamiltonians(reordered_time_last(k3, time_index))
    rng = np.random.default_rng(5)
    for _ in range(3):
        X = k3.forward(tuple(rng.uniform(0.6, 1.4, 3)))
        for got, want in [
            (fs.hamiltonian_values(X), ref.hamiltonian_values(X)),
            (flows.nambu_rhs(fs, X), flows.nambu_rhs(ref, X)),
        ]:
            scale = 1.0 + max(abs(w) for w in want)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * scale


def test_build_hamiltonians_permuted_time_index():
    # with x as time the m=2 chain has det J = 1/y^2, independent of x
    chain = maps.hermite_chain(2)
    fs = flows.build_hamiltonians(chain, ref_point=(1.0, 1.0), time_index=1)
    assert fs.time_index == 1
    # closed form (up to a constant): X - Y = 1/y
    rng = np.random.default_rng(4)
    pts = [
        chain.forward((rng.uniform(6.0, 8.0), rng.uniform(0.8, 1.2)))
        for _ in range(20)
    ]
    offsets = [fs.hamiltonians[0](X) - (X[0] - X[1]) for X in pts]
    assert max(offsets) - min(offsets) < 1e-8


# ---------------------------------------------------------------------------
# right-hand sides


def test_nambu_rhs_henon():
    fl = maps.henon_flow(1.0, 0.5)
    rng = np.random.default_rng(5)
    for _ in range(20):
        X = tuple(rng.uniform(-2, 2, 2))
        assert flows.nambu_rhs(fl, X) == pytest.approx((1.0, 2 * X[0]), abs=1e-12)


def test_nambu_rhs_kdv3_fixed_point_values():
    fl = maps.kdv3_flow()
    got = flows.nambu_rhs(fl, (1.0, 1.0, 1.0))
    assert got[0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert got[2] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_nambu_rhs_constant_hamiltonians_give_zero_field():
    fl = flows.flow_system(maps.kdv3(), (lambda s: 4.0, lambda s: -1.0))
    assert flows.nambu_rhs(fl, (1.1, 0.9, 1.3)) == (0.0, 0.0, 0.0)


def test_nambu_rhs_matches_explicit_bracket_calls():
    fl = maps.kdv3_flow()
    rng = np.random.default_rng(6)
    for _ in range(10):
        X = maps.kdv3().forward(tuple(rng.uniform(0.4, 1.6, 3)))
        fast = flows.nambu_rhs(fl, X)
        for j in range(3):
            coord = (lambda idx: lambda s: s[idx])(j)
            direct = core.nambu_bracket(list(fl.hamiltonians) + [coord], X)
            assert fast[j] == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_source_rhs_kdv3_moves_only_time():
    fl = maps.kdv3_flow()
    got = flows.source_rhs(fl, (0.9, 1.4, 0.6))
    assert abs(got[0]) < 1e-12
    assert abs(got[1]) < 1e-12
    assert got[2] == pytest.approx(1.0, abs=1e-12)


def test_source_rhs_hermite_constraint_slope():
    fl = maps.hermite_flow(2)
    got = flows.source_rhs(fl, (2.0, 1.0))
    assert got[0] == pytest.approx(4.0, abs=1e-10)  # dx/dy = 2x/y
    assert got[1] == pytest.approx(1.0, abs=1e-12)


def test_source_rhs_hermite_matches_constraint_derivative():
    fl = maps.hermite_flow(2)
    c = 1.7
    for y in (0.8, 1.0, 1.4):
        x = maps.hermite_source_constraint(2, c, y)
        got = flows.source_rhs(fl, (x, y))[0]
        h = 1e-6 * (1 + abs(y))
        want = (
            maps.hermite_source_constraint(2, c, y + h)
            - maps.hermite_source_constraint(2, c, y - h)
        ) / (2 * h)
        assert got == pytest.approx(want, rel=1e-8)


def test_source_rhs_henon_keeps_x_fixed():
    fl = maps.henon_flow(1.3, 0.2)
    got = flows.source_rhs(fl, (0.7, 1.1))
    assert abs(got[0]) < 1e-12
    assert got[1] == pytest.approx(1.0, abs=1e-12)


def test_prop1_signs_for_planar_flows():
    """Component form (-dH/dY, dH/dX) must match the bracket evaluation."""
    rng = np.random.default_rng(42)
    planar = [
        maps.henon_flow(1.0, 0.0),
        maps.henon_flow(2.0, 0.3),
        maps.hermite_flow(2),
        maps.kdv2_flow(2.0),
    ]
    for fl in planar:
        box = fl.map.box()
        for _ in range(250):
            src = tuple(rng.uniform(lo, hi) for lo, hi in box)
            X = fl.map.forward(src)
            g = core.grad(fl.hamiltonians[0], X)
            got = flows.nambu_rhs(fl, X)
            assert abs(got[0] + g[1]) <= 1e-12 * (1 + abs(g[1]))
            assert abs(got[1] - g[0]) <= 1e-12 * (1 + abs(g[0]))


# ---------------------------------------------------------------------------
# integrators


def test_integrate_zero_field_constant_trajectory():
    traj = flows.integrate(lambda s: (0.0, 0.0), (1.5, -0.5), 0.0, 2.0)
    assert traj.states[-1] == (1.5, -0.5)
    assert all(s == (1.5, -0.5) for s in traj.states)


def test_integrate_henon_flow_closed_form_solution():
    # dX/dy = 1, dY/dy = 2X from (0, beta): X = y, Y = y^2 + beta
    for beta in (-1.0, 0.5):
        fl = maps.henon_flow(1.0, 0.0)
        traj = flows.integrate_flow(fl, (0.0, beta), 0.0, 2.0)
        assert traj.final_state[0] == pytest.approx(2.0, abs=1e-8)
        assert traj.final_state[1] == pytest.approx(4.0 + beta, abs=1e-8)


def test_integrate_hermite_endpoint_matches_map():
    fl = maps.hermite_flow(2)
    c = 10.0
    t0, t1 = 0.5, 2.0
    x0 = (maps.hermite_source_constraint(2, c, t0), t0)
    image0 = fl.map.forward(x0)
    traj = flows.integrate_flow(fl, image0, t0, t1)
    want = fl.map.forward((maps.hermite_source_constraint(2, c, t1), t1))
    assert max(abs(a - b) for a, b in zip(traj.final_state, want)) < 1e-6


def test_integrate_records_requested_sample_times():
    fl = maps.henon_flow(1.0, 0.0)
    t_eval = [0.0, 0.25, 0.5, 1.0, 1.25, 2.0]
    traj = flows.integrate_flow(fl, (0.0, -1.0), 0.0, 2.0, t_eval=t_eval)
    assert list(traj.times) == t_eval
    assert len(traj.ham_values) == len(t_eval)


def test_integrate_records_only_the_requested_times():
    # like scipy's solve_ivp, neither t0 nor t1 is recorded unless requested
    traj = flows.integrate(lambda s: (1.0,), (0.0,), 0.0, 1.0, t_eval=[0.25, 0.5])
    assert traj.times == (0.25, 0.5)
    assert [s[0] for s in traj.states] == pytest.approx([0.25, 0.5], abs=1e-12)
    with pytest.raises(ValueError):
        flows.integrate(lambda s: (1.0,), (0.0,), 0.0, 1.0, t_eval=[])


def test_integrate_rk4_agrees_with_adaptive():
    fl = maps.henon_flow(1.0, 0.0)
    cfg = IntegratorConfig(method="rk4", step=1e-3)
    traj = flows.integrate_flow(fl, (0.0, -1.0), 0.0, 2.0, cfg=cfg)
    assert traj.final_state[0] == pytest.approx(2.0, abs=1e-9)
    assert traj.final_state[1] == pytest.approx(3.0, abs=1e-9)


def test_integrate_backwards_time_reversal():
    fl = maps.kdv3_flow()
    X0 = maps.kdv3().forward((1.1, 0.9, 1.0))
    fwd = flows.integrate_flow(fl, X0, 1.0, 2.0)
    back = flows.integrate_flow(fl, fwd.final_state, 2.0, 1.0)
    assert max(abs(a - b) for a, b in zip(back.final_state, X0)) < 1e-7


def test_integrate_max_steps_error_carries_state():
    cfg = IntegratorConfig(max_steps=3)
    with pytest.raises(MaxStepsError) as exc_info:
        flows.integrate(lambda s: (math.cos(s[0]),), (0.0,), 0.0, 50.0, cfg=cfg)
    assert exc_info.value.last_state is not None
    assert exc_info.value.trajectory is not None


@pytest.mark.parametrize("method", ["rk4", "dopri5"])
@pytest.mark.parametrize("t0, t1", [(0.0, 2.0), (-0.667, 1.043561), (2.0, 1.0)])
def test_integrate_lands_exactly_on_requested_times(method, t0, t1):
    # a shortened step can end one ulp away from its sample time; the
    # recorded time must be the requested one all the same
    fl = maps.henon_flow(1.0, 0.0)
    t_eval = np.linspace(t0, t1, 21)
    cfg = IntegratorConfig(method=method, step=0.01)
    traj = flows.integrate_flow(fl, (0.0, -1.0), t0, t1, cfg=cfg, t_eval=t_eval)
    assert list(traj.times) == list(t_eval)


@pytest.mark.parametrize("method", ["rk4", "dopri5"])
def test_integrate_without_t_eval_ends_exactly_on_t1(method):
    # ten rk4 steps of 0.1 add up to one ulp short of 1.0
    cfg = IntegratorConfig(method=method, step=0.1)
    traj = flows.integrate(lambda s: (1.0,), (0.0,), 0.0, 1.0, cfg=cfg)
    assert traj.times[-1] == 1.0
    assert traj.final_state[0] == pytest.approx(1.0, abs=1e-12)


def test_verify_sample_times_are_the_requested_ones():
    t0, t1 = -0.667, 1.043561
    report = harness.verify_correspondence(
        "henon", x0=(0.5,), t_range=(t0, t1)
    )
    assert report.passed
    assert list(report.sample_times) == harness._sample_times(t0, t1, 21)


@pytest.mark.parametrize("method", ["rk4", "dopri5"])
def test_integrate_agrees_with_scipy_dop853_on_kdv3(method):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    fl = maps.kdv3_flow()
    X0 = maps.kdv3().forward((1.1, 0.9, 1.0))
    t_eval = np.linspace(1.0, 2.0, 11)
    cfg = IntegratorConfig(method=method, step=0.01)
    traj = flows.integrate_flow(fl, X0, 1.0, 2.0, cfg=cfg, t_eval=t_eval)
    ref = scipy_integrate.solve_ivp(
        lambda t, y: flows.nambu_rhs(fl, tuple(y)),
        (1.0, 2.0),
        X0,
        method="DOP853",
        t_eval=t_eval,
        rtol=1e-13,
        atol=1e-13,
    )
    assert ref.success
    got = np.array(traj.states)
    assert np.max(np.abs(got - ref.y.T)) <= 1e-8


def test_integrate_nan_rhs_ends_in_step_error_without_nan_states():
    # the field is NaN beyond s = 0.5; every step into that region has a
    # NaN error estimate and must be rejected, never accepted
    def rhs(s):
        return (1.0,) if s[0] < 0.5 else (math.nan,)

    with pytest.raises((MaxStepsError, StepUnderflowError)) as exc_info:
        flows.integrate(rhs, (0.0,), 0.0, 1.0)
    exc = exc_info.value
    assert np.isfinite(exc.last_state).all()
    assert np.isfinite(np.array(exc.trajectory.states)).all()
    assert exc.last_time == pytest.approx(0.5, abs=1e-6)


def test_integrate_rk4_nan_rhs_raises_with_last_finite_state():
    cfg = IntegratorConfig(method="rk4", step=0.1)
    with pytest.raises(IntegrationError) as exc_info:
        flows.integrate(lambda s: (1.0,) if s[0] < 0.25 else (math.nan,),
                        (0.0,), 0.0, 1.0, cfg=cfg)
    exc = exc_info.value
    assert exc.last_time == pytest.approx(0.2)
    assert exc.last_state == pytest.approx((0.2,))
    assert np.isfinite(np.array(exc.trajectory.states)).all()


def test_integrate_dopri5_rejects_an_overflowing_step():
    # y + h * 1e308 overflows near t = 1.8, where the error scale is
    # infinite too; the step must be rejected, not accepted as inf
    with np.errstate(over="ignore"), pytest.raises(StepUnderflowError) as exc_info:
        flows.integrate(lambda s: (1e308,), (0.0,), 0.0, 10.0)
    assert np.isfinite(exc_info.value.last_state).all()
    assert np.isfinite(np.array(exc_info.value.trajectory.states)).all()


def test_non_finite_stage_state_is_a_numerical_error():
    # an overflowing stage state is a MapflowError, still a ValueError too
    flow = maps.build_flow("henon")
    with pytest.raises(NonFiniteStateError) as exc_info:
        flows.nambu_rhs(flow, (1.0, math.inf))
    assert isinstance(exc_info.value, MapflowError)
    assert isinstance(exc_info.value, ValueError)


def test_integrate_error_trajectory_carries_counts_so_far():
    cfg = IntegratorConfig(max_steps=3)
    with pytest.raises(MaxStepsError) as exc_info:
        flows.integrate(lambda s: (math.cos(s[0]),), (0.0,), 0.0, 50.0, cfg=cfg)
    stats = exc_info.value.trajectory.stats
    assert stats.accepted + stats.rejected == 3
    assert stats.rhs_evals == 7 * 3
    assert len(exc_info.value.trajectory.times) == 1 + stats.accepted


def test_integrate_rejects_non_monotone_t_eval():
    with pytest.raises(ValueError):
        flows.integrate(lambda s: (0.0,), (1.0,), 0.0, 1.0, t_eval=[0.0, 0.7, 0.3])
    with pytest.raises(ValueError):
        flows.integrate(lambda s: (0.0,), (1.0,), 0.0, 1.0, t_eval=[0.0, 2.0])
    with pytest.raises(ValueError):
        flows.integrate(lambda s: (0.0,), (1.0,), 0.0, 1.0, t_eval=[0.0, 0.5, 0.5])


def test_integrate_step_underflow_near_blowup():
    # ds/dt = 1/(1-s) from s=0 blows up at t = 1/2; the step collapses there
    from mapflow.errors import StepUnderflowError

    with pytest.raises(StepUnderflowError) as exc_info:
        flows.integrate(lambda s: (1.0 / (1.0 - s[0]),), (0.0,), 0.0, 2.0)
    assert exc_info.value.last_time == pytest.approx(0.5, abs=1e-6)
    assert exc_info.value.last_state[0] < 1.0


def test_integrate_requires_distinct_endpoints():
    with pytest.raises(ValueError):
        flows.integrate(lambda s: (0.0,), (1.0,), 1.0, 1.0)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(max_steps=0)


@pytest.mark.parametrize("field", ["rel_tol", "abs_tol", "step"])
def test_integrator_config_rejects_nan_settings(field):
    with pytest.raises(ValueError):
        IntegratorConfig(**{field: math.nan})


def test_trajectory_times_strictly_monotone():
    with pytest.raises(ValueError):
        flows.Trajectory(
            times=(0.0, 1.0, 0.5),
            states=((0.0,),) * 3,
            ham_values=((),) * 3,
            stats=flows.IntegratorStats(0, 0, 0),
        )


# ---------------------------------------------------------------------------
# conservation and push-forward invariants


@pytest.mark.parametrize(
    "flow_builder, x0, t_range",
    [
        (lambda: maps.henon_flow(1.0, 0.0), (1.0,), (0.0, 2.0)),
        (lambda: maps.kdv3_flow(), (1.1, 0.9), (1.0, 2.0)),
        (lambda: maps.hermite_flow(2), (10.0 * 0.5**2,), (0.5, 2.0)),
        (lambda: maps.kdv2_flow(2.0), (1.0,), (1.0, 2.0)),
        (lambda: maps.qp4_flow(1.0, 1.0, 1.0), (1.0, 1.0), (1.0, 2.0)),
    ],
)
def test_hamiltonian_conservation_along_flow(flow_builder, x0, t_range):
    fl = flow_builder()
    from mapflow.harness import source_start

    start = source_start(fl, x0, t_range[0])
    image0 = fl.map.forward(start)
    traj = flows.integrate_flow(fl, image0, *t_range)
    h0 = traj.ham_values[0]
    for hv in traj.ham_values:
        for j in range(len(h0)):
            assert abs(hv[j] - h0[j]) <= 1e-7 * (1 + abs(h0[j]))


def test_push_forward_consistency_hermite():
    fl = maps.hermite_flow(3)
    t0, t1 = 0.5, 2.0
    x0 = (maps.hermite_source_constraint(3, 10.0, t0), t0)
    t_eval = np.linspace(t0, t1, 21)
    X0 = fl.map.forward(x0)
    traj_x = flows.integrate_source(fl, x0, t0, t1, t_eval=t_eval)
    traj_X = flows.integrate_flow(fl, X0, t0, t1, t_eval=t_eval)
    for sx, sX in zip(traj_x.states, traj_X.states):
        push = fl.map.forward(sx)
        dev = max(abs(a - b) for a, b in zip(push, sX)) / (
            1 + max(abs(v) for v in push)
        )
        assert dev < 1e-6


def test_source_rhs_raises_at_degenerate_determinant():
    degenerate = core.MapDescriptor(
        name="pinch",
        dimension=2,
        params={},
        forward_fn=lambda s: (s[0] * s[1], s[0] * s[1]),
        inverse_fn=lambda s: (s[0], s[1]),
    )
    fl = flows.FlowSystem(
        map=degenerate,
        time_index=2,
        hamiltonians=(lambda s: s[0],),
        det_j_field=core.map_det_field(degenerate),
    )
    with pytest.raises(SingularPointError):
        flows.source_rhs(fl, (1.0, 1.0))
