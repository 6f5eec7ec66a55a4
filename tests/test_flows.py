"""Flow construction, right-hand sides and integrator tests."""

import ast
import dataclasses
import functools
import hashlib
import itertools
import math
import random
import re
from collections import Counter, namedtuple
from functools import partial

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from mapflow import cli, core, flows, harness, maps, quadrature
from mapflow.errors import (
    ConfigError,
    DetConditionError,
    IntegrationError,
    MapflowError,
    MaxStepsError,
    NonFiniteStateError,
    QuadratureError,
    SingularPointError,
    StepUnderflowError,
)
from mapflow.flows import IntegratorConfig
import reference
import test_core
from reference import squash_kdv3


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


def test_det_condition_synthetic_partial_is_exact():
    syn = synthetic_failing_map()
    report = flows.check_det_condition(syn, 2, [(1.0, 1.0), (0.5, 1.5)])
    assert report.max_partial == 2.0


def test_det_condition_nan_determinant_fails():
    nan_det = dataclasses.replace(maps.henon(1.0, 0.0), det_j=lambda s: math.nan * s[1])
    report = flows.check_det_condition(nan_det, 2, [(1.0, 1.0), (0.5, 1.5)])
    assert not report.passed
    assert math.isnan(report.max_partial)
    assert math.isnan(report.max_ratio)
    # a closed-form flow on such a map must not get the time-slot oracle
    assert not flows.flow_system(nan_det, (lambda s: s[0],)).det_condition.passed


def _det_condition_cases():
    """(map, declared det_j or None, time slot) over six catalog maps."""
    for map_id, params in [
        ("henon", {}),
        ("kdv3", {}),
        ("qp4", {"a": 2.0}),
        ("kdv2", {}),
        ("hermite", {"m": 2}),
        ("hermite", {"m": 3}),
    ]:
        mapdesc = maps.build_map(map_id, params)
        for declared in (True, False):
            for t_idx in range(1, mapdesc.dimension + 1):
                yield pytest.param(
                    mapdesc if declared else dataclasses.replace(mapdesc, det_j=None),
                    t_idx,
                    id=f"{map_id}{params.get('m', '')}-{declared}-t{t_idx}",
                )


@pytest.mark.parametrize("mapdesc, t_idx", _det_condition_cases())
def test_det_condition_partial_matches_central_differences(mapdesc, t_idx):
    det_field = core.map_det_field(mapdesc)
    report = flows.check_det_condition(
        mapdesc, t_idx, flows._det_condition_samples(mapdesc)
    )
    for x, d0, partial in report.entries:
        h = 1e-6 * (1.0 + abs(x[t_idx - 1]))
        up, dn = list(x), list(x)
        up[t_idx - 1] += h
        dn[t_idx - 1] -= h
        fd = (core.float_value(det_field(up)) - core.float_value(det_field(dn))) / (
            2 * h
        )
        tol = flows.DET_CONDITION_TOL * (1.0 + abs(d0))
        assert (abs(partial) <= tol) == (abs(fd) <= tol)
        if abs(partial) > 1e-8:
            assert partial == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize(
    "call",
    [
        lambda chain: flows.check_det_condition(chain, 0, [(7.0, 1.0)]),
        lambda chain: flows.check_det_condition(chain, 3, [(7.0, 1.0)]),
        # refused before the determinant condition samples anything
        lambda chain: flows.build_hamiltonians(chain, time_index=0),
        lambda chain: flows.build_hamiltonians(chain, time_index=1.5),
        lambda chain: flows.FlowSystem(
            chain, 2.0, (lambda s: s[0],), core.map_det_field(chain)
        ),
    ],
    ids=["det-condition-0", "det-condition-3", "build-0", "build-1.5", "flow-2.0"],
)
def test_time_index_out_of_range_is_refused(call):
    with pytest.raises(ValueError, match="time index .* out of range 1..2"):
        call(maps.hermite_chain(2))


def test_flow_system_needs_one_hamiltonian_fewer_than_its_dimension():
    chain = maps.hermite_chain(2)
    with pytest.raises(ValueError, match="needs 1 hamiltonians, got 2"):
        flows.FlowSystem(
            chain, 2, (lambda s: s[0], lambda s: s[1]), core.map_det_field(chain)
        )


def test_division_by_zero_in_a_hamiltonian_names_it():
    # the m=3 chain Hamiltonian divides by Y - X
    with pytest.raises(SingularPointError) as exc_info:
        maps.hermite_flow(3).hamiltonians_at((1.0, 1.0))
    err = exc_info.value
    assert (err.where, err.label, err.point) == (
        "hermite[m=3]",
        "a denominator of H1",
        (1.0, 1.0),
    )
    assert isinstance(err.__cause__, ZeroDivisionError)


# each catalog flow at the point its acceptance criterion verifies (qp4 with
# a=2 at the a=1 point)
CATALOG_FLOWS = {
    "henon": ("henon", {"b": 1.0, "c": 0.0}, (1.0,), (0.0, 2.0)),
    "hermite3": (
        "hermite", {"m": 3}, (maps.hermite_source_constraint(3, 10.0, 0.5),), (0.5, 2.0)
    ),
    "kdv3": ("kdv3", {}, (1.1, 0.9), (1.0, 2.0)),
    "kdv2": ("kdv2", {"r": 2.0}, (1.0,), (1.0, 2.0)),
    "qp4": ("qp4", {"a": 1.0, "b": 1.0, "c": 1.0}, (1.0, 1.0), (1.0, 2.0)),
    "qp4-prop2": (
        "qp4", {"a": 2.0, "b": 1.0, "c": 1.0, "normalization": "prop2"},
        (1.0, 1.0), (1.0, 2.0),
    ),
}


def test_build_hamiltonians_refuses_when_condition_fails():
    with pytest.raises(DetConditionError) as exc_info:
        flows.build_hamiltonians(maps.hermite_chain(2))
    assert exc_info.value.report.entries  # diagnostic samples attached


def test_build_and_verify_check_the_determinant_condition_once(monkeypatch):
    calls = []
    check = flows.check_det_condition

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(flows, "check_det_condition", counted)
    flow = flows.build_hamiltonians(maps.build_map("kdv3"))
    report = harness.verify_correspondence(
        "kdv3", x0=(1.1, 0.9), t_range=(1.0, 1.3), flow=flow
    )
    assert report.passed
    assert report.oracle == {"method": "time-slot"}
    assert len(calls) == 1
    # a refused build attaches the report of the flow it built
    with pytest.raises(DetConditionError) as exc_info:
        flows.build_hamiltonians(maps.hermite_chain(2))
    assert len(exc_info.value.report.entries) == flows.DET_CONDITION_SAMPLES
    assert len(calls) == 2


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


def test_build_hamiltonians_without_det_j_runs_the_jacobian_construction():
    # the paper's general construction, from the Jacobian alone, must agree
    # with the quadrature of the declared det J
    k3 = maps.kdv3()
    X = k3.forward((1.1, 0.9, 1.0))
    declared = flows.nambu_rhs(flows.build_hamiltonians(k3), X)
    jacobian_only = dataclasses.replace(k3, det_j=None)
    general = flows.nambu_rhs(flows.build_hamiltonians(jacobian_only), X)
    scale = max(abs(v) for v in general)
    assert max(abs(a - b) for a, b in zip(declared, general)) <= 1e-12 * scale


@pytest.mark.parametrize("check", [True, False])
def test_build_hamiltonians_refuses_a_wrong_declared_det_j(check):
    wrong = dataclasses.replace(maps.kdv3(), det_j=lambda s: 2.0)
    with pytest.raises(ConfigError) as exc_info:
        flows.build_hamiltonians(wrong, check=check)
    message = str(exc_info.value)
    assert message.startswith("declared det_j of kdv3 is 2.0 at (")
    assert message.endswith("but the Jacobian determinant there is 1.0")


def test_quadrature_rhs_with_declared_det_j_runs_no_nested_jets():
    # a deterministic work guard: the declared det J keeps every jet that
    # reaches the map single-level; without it the integrand nests them
    def nested_calls(det_j):
        k3 = maps.kdv3()
        calls = []

        def forward_fn(state):
            calls.append(
                any(isinstance(c, core.Jet) and isinstance(c.value, core.Jet) for c in state)
            )
            return k3.forward_fn(state)

        wrapped = dataclasses.replace(k3, forward_fn=forward_fn, det_j=det_j)
        fs = flows.build_hamiltonians(wrapped)
        X = k3.forward((1.1, 0.9, 1.0))
        calls.clear()
        flows.nambu_rhs(fs, X)
        return sum(calls)

    assert nested_calls(maps.kdv3().det_j) == 0
    assert nested_calls(None) > 0


def full_jet_last_hamiltonian(mapdesc, ref_point=None, time_index=None):
    """The last quadrature Hamiltonian with x_q's jets carried through every
    Kronrod node, so its x_q derivative is integrated too: the reference
    for the endpoint rule, which reads that derivative off det J at x_q."""
    n = mapdesc.dimension
    t_idx = n if time_index is None else time_index
    ref = (1.0,) * n if ref_point is None else tuple(map(float, ref_point))
    q = [j for j in range(n) if j != t_idx - 1][-1]
    det_field = core.map_det_field(mapdesc)

    def h_last(point):
        src = mapdesc.inverse(point)
        endpoint = src[q]

        def integrand(u):
            s = ref[q] + u * (endpoint - ref[q])
            return det_field(src[:q] + (s,) + src[q + 1 :])

        value = (endpoint - ref[q]) * quadrature.integrate_gk(
            integrand, 0.0, 1.0, abs_tol=flows.QUADRATURE_ABS_TOL
        )
        return -value if (n - t_idx) % 2 == 1 else value

    return h_last


def _quadrature_cases():
    cases = [
        ("henon", maps.build_map("henon", {"b": 1.0, "c": 0.0}), {}, (0.92, 1.3)),
        *[
            (f"kdv3-t{t}", maps.kdv3(), {"time_index": t}, (1.1, 0.9, 1.2))
            for t in (1, 2, 3)
        ],
        ("qp4", maps.build_map("qp4", {"a": 1.0, "b": 1.0, "c": 1.0}), {},
         (0.98, 0.97, 1.4)),
        ("hermite2", maps.hermite_chain(2), {"ref_point": (0.0, 1.0)}, (2.6, 0.7)),
        ("hermite3", maps.hermite_chain(3), {"ref_point": (6.0, 1.0)}, (7.0, 6.5)),
    ]
    for name, mapdesc, kwargs, src in cases:
        for declared in (True, False):
            case_map = mapdesc if declared else dataclasses.replace(mapdesc, det_j=None)
            label = name if declared else f"{name}-no-det_j"
            yield pytest.param(case_map, kwargs, src, id=label)


@pytest.mark.parametrize("mapdesc, kwargs, src", _quadrature_cases())
def test_endpoint_rule_matches_the_full_jet_quadrature(mapdesc, kwargs, src):
    flow = flows.build_hamiltonians(mapdesc, check=False, **kwargs)
    h_last = full_jet_last_hamiltonian(mapdesc, **kwargs)
    X = mapdesc.forward(src)
    # a float point runs the same operations: the same bits
    assert flow.hamiltonians[-1](X) == h_last(X)
    assert flow.hamiltonian_values(X)[-1] == h_last(X)
    (got,) = core.jet_rows(lambda Y: (flow.hamiltonians[-1](Y),), X)
    (want,) = core.jet_rows(lambda Y: (h_last(Y),), X)
    scale = max(abs(v) for v in want)
    assert scale > 0.0
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12 * scale
    reference = dataclasses.replace(
        flow, hamiltonians=flow.hamiltonians[:-1] + (h_last,)
    )
    got_v, want_v = flows.nambu_rhs(flow, X), flows.nambu_rhs(reference, X)
    scale = max(abs(v) for v in want_v)
    assert max(abs(a - b) for a, b in zip(got_v, want_v)) <= 1e-12 * scale


@pytest.mark.parametrize("declared", [True, False], ids=["det_j", "no-det_j"])
def test_endpoint_rule_keeps_exact_second_derivatives(declared):
    # nested seeds: the endpoint term carries the mixed partials that a
    # second level of jets asks for, so the Hessian matches the full-jet one
    chain = maps.hermite_chain(3)
    if not declared:
        chain = dataclasses.replace(chain, det_j=None)
    flow = flows.build_hamiltonians(chain, ref_point=(6.0, 1.0), check=False)
    h_last = full_jet_last_hamiltonian(chain, ref_point=(6.0, 1.0))
    X = chain.forward((7.0, 6.5))

    def hessian(h):
        rows = core.jet_rows(lambda Y: core.jet_rows(lambda Z: (h(Z),), Y)[0], X)
        return [[float(v) for v in row] for row in rows]

    got, want = hessian(flow.hamiltonians[-1]), hessian(h_last)
    scale = max(abs(v) for row in want for v in row)
    assert scale > 0.0
    for g_row, w_row in zip(got, want):
        assert max(abs(a - b) for a, b in zip(g_row, w_row)) <= 1e-12 * scale


def test_numeric_flow_drives_integration_henon():
    # the quadrature-built Hamiltonian, differentiated by jets, must
    # integrate to the same endpoint as the map
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


def _gradient_rows_field(rows):
    """Hamiltonians whose gradient rows are exactly ``rows``."""
    return lambda s: [core.Jet(0.0, row) for row in rows]


def _signed_det_minors(rows):
    """det of (rows + [e_j]) for each j, as +-1.0 times core.det of a minor."""
    n = len(rows[0])
    return tuple(
        (1.0 if (n + j + 1) % 2 == 0 else -1.0)
        * core.det([row[:j] + row[j + 1 :] for row in rows])
        for j in range(n)
    )


def test_3d_bracket_minors_equal_the_signed_dets_bit_for_bit():
    special = (0.0, -0.0, 1.0, -1.0)
    cases = [list(entries) for entries in itertools.product(special, repeat=6)]
    rng = random.Random(16)
    for _ in range(2000):
        cases.append(
            [
                rng.choice(special) if rng.random() < 0.3 else rng.uniform(-1e3, 1e3)
                for _ in range(6)
            ]
        )
    for entries in cases:
        rows = [entries[:3], entries[3:]]
        field = _gradient_rows_field(rows)
        got = flows._bracket_velocity(field, (0.5, 1.0, 1.5))
        # repr tells -0.0 from 0.0
        assert repr(got) == repr(_signed_det_minors(rows)), rows


def test_4d_bracket_takes_its_minors_from_core_det(monkeypatch):
    rows = [[1.5, -0.0, 2.0, 0.25], [0.0, 3.0, -1.0, 1.0], [2.0, 1.0, 0.5, -4.0]]
    want = _signed_det_minors(rows)
    minors = []
    det = core.det
    monkeypatch.setattr(core, "det", lambda m: minors.append(m) or det(m))
    field = _gradient_rows_field(rows)
    got = flows._bracket_velocity(field, (1.0, 2.0, 3.0, 4.0))
    assert [len(m) for m in minors] == [3, 3, 3, 3]
    assert repr(got) == repr(want)


def _shear4():
    """A 4-D shear with det J = 1 and a closed-form inverse."""

    def fwd(s):
        x1, x2, x3, x4 = s
        return (x1, x2 + x1 * x1, x3 + x2 * x1, x4 + x3 / x1)

    def inv(s):
        y1, y2, y3, y4 = s
        x2 = y2 - y1 * y1
        x3 = y3 - x2 * y1
        return (y1, x2, x3, y4 - x3 / y1)

    return core.MapDescriptor(
        name="shear4",
        dimension=4,
        params={},
        forward_fn=fwd,
        inverse_fn=inv,
        forward_guards=(("x1", lambda s: s[0]),),
        inverse_guards=(("y1", lambda s: s[0]),),
        det_j=lambda s: 1.0,
        sample_box=((0.5, 1.5),) * 4,
    )


def _shear4_flow():
    shear = _shear4()
    return flows.flow_system(
        shear, [lambda s, j=j: shear.inverse(s)[j] for j in range(3)]
    )


def test_a_4d_flow_carries_its_image_as_the_map_carries_the_source():
    # the image moves along x4, the time slot, as the source point does
    flow = _shear4_flow()
    src = (1.1, 0.9, 1.2)
    traj = flows.integrate_flow(
        flow, flow.map.forward(src + (1.0,)), 1.0, 2.0, t_eval=[1.5, 2.0]
    )
    for t, y in zip(traj.times, traj.states):
        want = flow.map.forward(src + (t,))
        assert max(abs(a - b) for a, b in zip(y, want)) <= 1e-9, (t, y)
    assert flow.velocity is not flow.jet_velocity


def _shear5_flow():
    """``_shear4`` with x5 + x4 * x1 appended: det J = 1 again."""
    shear4 = _shear4()
    fwd4, inv4 = shear4.forward_fn, shear4.inverse_fn

    def inv(s):
        x = inv4(s[:4])
        return (*x, s[4] - x[3] * s[0])

    shear = core.MapDescriptor(
        name="shear5",
        dimension=5,
        params={},
        forward_fn=lambda s: (*fwd4(s[:4]), s[4] + s[3] * s[0]),
        inverse_fn=inv,
        forward_guards=(("x1", lambda s: s[0]),),
        inverse_guards=(("y1", lambda s: s[0]),),
        det_j=lambda s: 1.0,
    )
    return flows.flow_system(
        shear, [lambda s, j=j: shear.inverse(s)[j] for j in range(4)]
    )


KERNEL_FLOWS = {
    **{name: entry[:2] for name, entry in CATALOG_FLOWS.items()},
    "hermite2": ("hermite", {"m": 2}),
    "qp4-display": ("qp4", {"a": 2.0, "normalization": "paper-display"}),
}


@pytest.mark.parametrize(
    "make_flow",
    [lambda entry=entry: maps.build_flow(*entry) for entry in KERNEL_FLOWS.values()]
    + [
        lambda: maps.henon_flow(1.3, 0.2, steps=2),
        lambda: maps.henon_flow(1.3, 0.2, steps=3),
        lambda: flows.build_hamiltonians(maps.henon(1.3, 0.2)),
        lambda: flows.build_hamiltonians(maps.kdv3()),
        _shear4_flow,
    ],
    ids=list(KERNEL_FLOWS)
    + ["henon^2", "henon^3", "built-henon", "built-kdv3", "shear4"],
)
def test_velocity_is_the_signed_det_minors_of_the_gradient_rows(make_flow):
    flow = make_flow()
    assert flow.velocity is flow.velocity
    points = [flow.map.forward(p) for p in core.sample_points(flow.map, 5, seed=3)]
    for X in points:
        rows = core.jet_rows(flow.hamiltonians_at, X)
        want = _signed_det_minors([[float(p) for p in row] for row in rows])
        # repr round-trips floats and tells -0.0 from 0.0
        assert repr(flow.velocity(X)) == repr(want), X
        assert repr(flows.nambu_rhs(flow, X)) == repr(want), X


@pytest.mark.parametrize(
    "make_flow",
    [lambda entry=entry: maps.build_flow(*entry) for entry in KERNEL_FLOWS.values()]
    + [_shear4_flow],
    ids=list(KERNEL_FLOWS) + ["shear4"],
)
def test_each_velocity_component_is_the_bracket_with_its_coordinate(make_flow):
    # both take their minors from core.minors, so they agree bit for bit
    flow = make_flow()
    n = flow.map.dimension
    points = [flow.map.forward(p) for p in core.sample_points(flow.map, 20, seed=8)]
    for X in points:
        rhs = flows.nambu_rhs(flow, X)
        for j in range(n):
            coord = lambda s, j=j: s[j]
            bracket = core.nambu_bracket(list(flow.hamiltonians) + [coord], X)
            assert rhs[j] == bracket, (X, j)


def test_velocity_names_the_hamiltonian_that_divides_by_zero():
    hams = (lambda s: s[0], lambda s: 1.0 / (s[2] - 1.0))
    fl = flows.FlowSystem(
        map=maps.kdv3(),
        time_index=3,
        hamiltonians=hams,
        det_j_field=core.map_det_field(maps.kdv3()),
    )
    # dH2/dz = -1/4 at z = 3
    assert fl.velocity((1.0, 2.0, 3.0)) == (0.0, 0.25, 0.0)
    with pytest.raises(SingularPointError) as exc_info:
        flows.nambu_rhs(fl, (1.0, 2.0, 1.0))
    err = exc_info.value
    assert (err.where, err.label, err.point) == (
        "kdv3",
        "a denominator of H2",
        (1.0, 2.0, 1.0),
    )
    assert isinstance(err.__cause__, ZeroDivisionError)

    # n >= 4 takes the general kernel: H3 divides by zero at x4 = 1
    hams4 = (lambda s: s[0], lambda s: s[1], lambda s: 1.0 / (s[3] - 1.0))
    fl4 = flows.FlowSystem(
        map=_shear4(),
        time_index=4,
        hamiltonians=hams4,
        det_j_field=lambda s: 1.0,
    )
    with pytest.raises(SingularPointError) as exc_info:
        flows.nambu_rhs(fl4, (1.0, 2.0, 3.0, 1.0))
    err = exc_info.value
    assert (err.where, err.label, err.point) == (
        "shear4",
        "a denominator of H3",
        (1.0, 2.0, 3.0, 1.0),
    )
    assert isinstance(err.__cause__, ZeroDivisionError)


def test_planar_velocity_names_its_one_hamiltonian_that_divides_by_zero():
    # the m=3 chain Hamiltonian divides by Y - X
    with pytest.raises(SingularPointError) as exc_info:
        flows.nambu_rhs(maps.hermite_flow(3), (1.0, 1.0))
    err = exc_info.value
    assert (err.label, err.point) == ("a denominator of H1", (1.0, 1.0))
    assert isinstance(err.__cause__, ZeroDivisionError)


@pytest.mark.parametrize("rhs", [flows.nambu_rhs, flows.source_rhs])
@pytest.mark.parametrize(
    "flow, point",
    [
        (maps.henon_flow(1.0, 0.5), (1.0,)),
        (maps.henon_flow(1.0, 0.5), (1.0, 2.0, 3.0)),
        (maps.kdv2_flow(2.0), (1.1, 0.9, 1.3)),
        (maps.kdv3_flow(), (1.1, 0.9)),
        (maps.kdv3_flow(), (1.1, 0.9, 1.3, 1.0)),
        (maps.build_flow("qp4"), (1.1, 0.9)),
    ],
)
def test_a_point_of_the_wrong_length_is_refused(rhs, flow, point):
    n = flow.map.dimension
    message = rf"^a point of {flow.map.name} takes {n} coordinates, got {len(point)}$"
    with pytest.raises(ValueError, match=message):
        rhs(flow, point)


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


def _nambu_rhs_reference(flow, point):
    """``nambu_rhs`` with its check written out in Python, the reference
    the compiled check must match: the point converted to floats, then its
    length checked, then its finiteness."""
    x = tuple(map(float, point))
    if len(x) != flow.map.dimension:
        raise ValueError(
            f"a point of {flow.map.name} takes {flow.map.dimension} coordinates, "
            f"got {len(x)}"
        )
    if not all(map(math.isfinite, x)):
        raise NonFiniteStateError(f"non-finite coordinate in state {x}")
    return flow.velocity(x)


def _result_or_error(fn, *args):
    """What ``fn(*args)`` gives: the repr of its result, or the type,
    message and attributes of the error it raises."""
    try:
        return "returned", repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc), repr(vars(exc))


class _Float(float):
    pass


def _points_like(point):
    """Makers of ``point`` in each form a caller may hand ``nambu_rhs``,
    each called afresh for each evaluation (a generator is used up)."""
    Point = namedtuple("Point", [f"x{i}" for i in range(len(point))])

    def swapped(i, value):
        return lambda: point[:i] + (value,) + point[i + 1 :]

    return {
        "tuple": lambda: point,
        "list": lambda: list(point),
        "ints": lambda: tuple(round(v) for v in point),
        "float64": lambda: tuple(np.float64(v) for v in point),
        "float-subclass": lambda: tuple(_Float(v) for v in point),
        "namedtuple": lambda: Point(*point),
        "generator": lambda: (v for v in point),
        "minus-zero": swapped(0, -0.0),
        "nan": swapped(len(point) - 1, math.nan),
        "inf": swapped(0, math.inf),
        "minus-inf": swapped(len(point) - 1, -math.inf),
        "short": lambda: point[:-1],
        "long": lambda: point + (1.0,),
        "long-nan": lambda: point + (math.nan,),
    }


def _untraced_kdv3(monkeypatch):
    monkeypatch.setattr(core, "trace", lambda fn, n: None)
    return maps.kdv3_flow()


@pytest.mark.parametrize(
    "build, point, traced",
    [
        (lambda _: maps.build_flow("henon"), (1.0, 0.5), True),
        (lambda _: maps.build_flow("kdv3"), (1.1, 0.9, 1.2), True),
        (lambda _: maps.build_flow("qp4", {"a": 1.0}), (1.0, 1.1, 0.9), True),
        (lambda _: _shear5_flow(), (1.1, 0.9, 1.2, 0.8, 1.3), False),
        (_untraced_kdv3, (1.1, 0.9, 1.2), False),
    ],
    ids=["henon", "kdv3", "qp4", "untraced-shear5", "untraced-kdv3"],
)
def test_nambu_rhs_takes_every_point_as_its_reference_check_does(
    monkeypatch, build, point, traced
):
    flow = build(monkeypatch)
    for name, make in _points_like(point).items():
        want = _result_or_error(_nambu_rhs_reference, flow, make())
        assert _result_or_error(flows.nambu_rhs, flow, make()) == want, name
        if want[0] == "returned":
            velocity = flow.velocity(tuple(map(float, make())))
            assert want[1] == repr(velocity), name
    assert (flow.velocity is not flow.jet_velocity) == traced


def test_nambu_rhs_hands_a_tuple_of_finite_floats_to_the_velocity_as_it_is():
    flow = maps.kdv3_flow()
    seen = []
    velocity = flow.velocity
    flow.__dict__["velocity"] = lambda x: seen.append(x) or velocity(x)
    point = (1.1, 0.9, 1.2)
    flows.nambu_rhs(flow, point)
    assert seen[-1] is point
    # any other point reaches it as a fresh tuple of floats
    for other in ([1.1, 0.9, 1.2], (1.1, 0.9, np.float64(1.2)), (1, 0.9, 1.2)):
        flows.nambu_rhs(flow, other)
        assert seen[-1] is not other and type(seen[-1]) is tuple
        assert all(type(v) is float for v in seen[-1])
    assert len(seen) == 4


def test_integrate_error_trajectory_carries_counts_so_far():
    cfg = IntegratorConfig(max_steps=3)
    with pytest.raises(MaxStepsError) as exc_info:
        flows.integrate(lambda s: (math.cos(s[0]),), (0.0,), 0.0, 50.0, cfg=cfg)
    stats = exc_info.value.trajectory.stats
    assert stats.accepted + stats.rejected == 3
    assert stats.rhs_evals == 1 + 6 * 3
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


@pytest.mark.parametrize("t0, t1", [(0.0, 1e-14), (0.0, -1e-100), (1.0, 1.0 + 1e-14)])
def test_dopri5_steps_a_span_shorter_than_a_hundred_underflow_floors(t0, t1):
    traj = flows.integrate(lambda s: (2.0,), (1.0,), t0, t1)
    assert traj.times == (t0, t1)
    assert traj.final_state == (1.0 + 2.0 * (t1 - t0),)
    assert (traj.stats.accepted, traj.stats.rejected) == (1, 0)


@pytest.mark.parametrize("t1", [5e-13, 1.2e-12])
def test_integrate_records_at_t1_the_state_it_reached_at_t1(t1):
    # a step that would stop short of t1 by under 1e-12 is cut to end on
    # t1, so the state recorded at t1 is the one the flow reaches there
    traj = flows.integrate(lambda s: (2.0,), (1.0,), 0.0, t1)
    assert traj.times[-1] == t1
    assert traj.final_state[0] - 1.0 == pytest.approx(2.0 * t1, rel=1e-3, abs=0)


def test_integrate_requires_distinct_endpoints():
    with pytest.raises(ValueError):
        flows.integrate(lambda s: (0.0,), (1.0,), 1.0, 1.0)


@pytest.mark.parametrize("method", ["dopri5", "rk4"])
def test_integrate_refuses_an_rhs_of_the_wrong_length(method):
    # a one-component velocity must not be broadcast over two coordinates
    cfg = IntegratorConfig(method=method)
    with pytest.raises(ValueError, match="1 components for 2 coordinates"):
        flows.integrate(lambda s: (1.0,), (0.0, 5.0), 0.0, 1.0, cfg=cfg)
    with pytest.raises(ValueError, match="3 components for 2 coordinates"):
        flows.integrate(lambda s: (1.0, 0.0, 0.0), (0.0, 5.0), 0.0, 1.0, cfg=cfg)


@pytest.mark.parametrize("method", ["dopri5", "rk4"])
def test_rhs_and_observe_receive_tuples_of_floats(method):
    seen = []

    def rhs(s):
        seen.append(s)
        return (s[1], -s[0])

    def observe(s):
        seen.append(s)
        return (s[0] ** 2 + s[1] ** 2,)

    cfg = IntegratorConfig(method=method, step=0.1)
    flows.integrate(rhs, (1.0, 0.0), 0.0, 1.0, cfg=cfg, t_eval=[0.5, 1.0],
                    observe=observe)
    assert len(seen) > 2
    for s in seen:
        assert type(s) is tuple
        assert all(type(v) is float for v in s)


@pytest.mark.parametrize(
    "t0, t1, t_eval",
    [
        (0.0, math.nan, None),
        (0.0, math.inf, None),
        (math.nan, 1.0, None),
        (-math.inf, 1.0, None),
        (0.0, 1.0, [0.5, math.nan]),
    ],
)
def test_integrate_refuses_non_finite_times(t0, t1, t_eval):
    # each of these used to spend the whole step budget before failing
    calls = []

    def rhs(s):
        calls.append(s)
        return (1.0,)

    with pytest.raises(ValueError, match="must be finite"):
        flows.integrate(rhs, (0.0,), t0, t1, t_eval=t_eval)
    assert calls == []


def test_dopri5_rejects_a_step_whose_error_estimate_is_nan():
    # stage 7 has weight 0 in the solution but not in the error estimate,
    # so a NaN there leaves y_new finite; the step must still be rejected
    calls = []

    def rhs(s):
        calls.append(s)
        return (math.nan,) if len(calls) == 7 else (1.0,)

    traj = flows.integrate(rhs, (0.0,), 0.0, 1.0)
    assert traj.stats.rejected == 1
    assert traj.final_state == pytest.approx((1.0,))
    assert all(math.isfinite(v) for s in traj.states for v in s)


def _combine_reference(y, h, weights, k):
    # left to right: the first non-zero weight's term, plus each later one
    acc = None
    for w, k_i in zip(weights, k):
        if w:
            terms = [w * v for v in k_i]
            acc = terms if acc is None else [a + t for a, t in zip(acc, terms)]
    return tuple(y_i + h * a for y_i, a in zip(y, acc))


@pytest.mark.parametrize("method", ["rk4", "dopri5"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_combine_matches_the_left_to_right_sum_bit_for_bit(method, n):
    a, b, e, dense = flows._TABLEAUS[method]
    rows = [row for row in a if row] + [b] + ([e] if e else [])
    if dense:
        rows += [
            [x * (p1 + x * (p2 + x * (p3 + x * p4))) for p1, p2, p3, p4 in dense]
            for x in (0.25, 0.5, 0.9)
        ]
    rng = np.random.default_rng(n)
    for trial in range(20):
        pool = [0.0, -0.0, *rng.uniform(-1e3, 1e3, 4), *rng.uniform(-1e-12, 1e-12, 2)]
        k = [tuple(float(rng.choice(pool)) for _ in range(n)) for _ in range(len(b))]
        y = tuple(float(rng.choice(pool)) for _ in range(n))
        h = float(rng.choice([1e-3, -0.02, 0.7]))
        for row in rows:
            got = flows._combine(y, h, flows._terms(row), k)
            # repr round-trips every float and tells -0.0 from 0.0
            assert repr(got) == repr(_combine_reference(y, h, row, k)), (trial, row)


@pytest.mark.parametrize("method", flows._TABLEAUS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_compiled_stage_sums_are_combine_bit_for_bit(method, n):
    # the compiled step's stage states, new state and error sums against
    # _combine over the same stages, which its rhs hands out in turn
    # (the first stage is handed in on odd trials and evaluated on y on
    # even ones)
    a, b, e, _ = flows._TABLEAUS[method]
    step, fsal = flows._step(method, n)
    assert fsal == (method == "dopri5")
    rng = random.Random(f"stage-sums:{method}:{n}")
    for trial in range(20):
        pool = [0.0, -0.0, *(rng.uniform(-1e3, 1e3) for _ in range(4))]
        pool += [rng.uniform(-1e-12, 1e-12) for _ in range(2)]
        k = [tuple(rng.choice(pool) for _ in range(n)) for _ in b]
        y = tuple(rng.choice(pool) for _ in range(n))
        h = rng.choice([1e-3, -0.02, 0.7])
        handed = trial % 2 == 1
        states = []

        def rhs(s):
            states.append(s)
            return k[len(states) - 1 + handed]

        y_new, stages, err = step(rhs, y, h, k[0] if handed else None)
        want = [flows._combine(y, h, flows._terms(row), k) for row in a[1:]]
        assert repr(states) == repr(([] if handed else [y]) + want), trial
        assert repr(stages) == repr(tuple(k)), trial
        assert repr(y_new) == repr(flows._combine(y, h, flows._terms(b), k)), trial
        if e is None:
            assert err is None
        else:
            want = flows._combine((0.0,) * n, h, flows._terms(e), k)
            assert repr(err) == repr(want), trial


def _failing_at(stage, failure):
    """An rhs of two components that hands its stage-th call to
    ``failure``, and the list of the states it was called on."""
    calls = []

    def rhs(s):
        calls.append(s)
        return failure(s) if len(calls) == stage else (1.0, 2.0)

    return rhs, calls


def _pole(s):
    raise SingularPointError("kdv3", "1+XY+X^2YZ", s)


@pytest.mark.parametrize("method", flows._TABLEAUS)
@pytest.mark.parametrize("stage", [1, 2, 3])
def test_a_compiled_step_keeps_the_rhs_contract_at_every_stage(method, stage):
    step, _ = flows._step(method, 2)
    rhs, calls = _failing_at(stage, lambda s: (1.0,))
    with pytest.raises(ValueError) as info:
        step(rhs, (0.0, 1.0), 0.1, (1.0, 2.0))
    assert str(info.value) == "rhs returned 1 components for 2 coordinates"
    assert len(calls) == stage
    # an error the rhs raises at an inner stage leaves the step as it is
    rhs, calls = _failing_at(stage, _pole)
    with pytest.raises(SingularPointError) as info:
        step(rhs, (0.0, 1.0), 0.1, (1.0, 2.0))
    assert info.value.label == "1+XY+X^2YZ"
    assert len(calls) == stage and info.value.point is calls[-1]
    # handed no first stage, the step evaluates it on y, under the same
    # contract
    rhs, calls = _failing_at(stage, lambda s: (1.0,))
    with pytest.raises(ValueError) as info:
        step(rhs, (0.0, 1.0), 0.1, None)
    assert str(info.value) == "rhs returned 1 components for 2 coordinates"
    assert len(calls) == stage and calls[0] == (0.0, 1.0)


def _as_namedtuple(k):
    return namedtuple("Stage", [f"k{i}" for i in range(len(k))])(*k)


# the forms an rhs may return a stage in
STAGE_FORMS = {
    "tuple": tuple,
    "list": list,
    "float64": lambda k: tuple(map(np.float64, k)),
    "float-subclass": lambda k: tuple(map(_Float, k)),
    "tuple-subclass": _as_namedtuple,
    "generator": lambda k: (v for v in k),
}


@pytest.mark.parametrize("method", flows._TABLEAUS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("form", [*STAGE_FORMS, "ints"])
def test_a_compiled_step_takes_an_rhs_result_in_any_form(method, n, form):
    # an rhs result that is not a tuple of n floats is made one: the
    # step's states are _combine's over the float stages, bit for bit
    a, b, e, _ = flows._TABLEAUS[method]
    step, _ = flows._step(method, n)
    rng = random.Random(f"stage-forms:{method}:{n}:{form}")
    for trial in range(6):
        if form == "ints":
            k = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in b]
            returned = k
        else:
            k = [tuple(rng.uniform(-1e3, 1e3) for _ in range(n)) for _ in b]
            returned = [STAGE_FORMS[form](k_i) for k_i in k]
        floats = [tuple(map(float, k_i)) for k_i in k]
        y = tuple(rng.uniform(-10.0, 10.0) for _ in range(n))
        h = rng.choice([1e-3, -0.02, 0.7])
        states = []

        def rhs(s):
            states.append(s)
            return returned[len(states) - 1]

        y_new, stages, err = step(rhs, y, h, None)
        want = [flows._combine(y, h, flows._terms(row), floats) for row in a[1:]]
        assert repr(states) == repr([y] + want), trial
        assert repr(stages) == repr(tuple(floats)), trial
        assert all(type(k_i) is tuple for k_i in stages)
        assert all(type(v) is float for k_i in stages for v in k_i)
        assert repr(y_new) == repr(flows._combine(y, h, flows._terms(b), floats))
        if e is not None:
            want = flows._combine((0.0,) * n, h, flows._terms(e), floats)
            assert repr(err) == repr(want), trial


@pytest.mark.parametrize("method", flows._TABLEAUS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_a_compiled_step_refuses_a_wrong_count_in_any_form(method, n):
    step, _ = flows._step(method, n)
    stages = len(flows._TABLEAUS[method][0])
    for count in (n - 1, n + 1):
        wrong = tuple(0.5 for _ in range(count))
        for form, make in STAGE_FORMS.items():
            for stage in range(1, stages + 1):
                calls = []

                def rhs(s):
                    calls.append(s)
                    return make(wrong) if len(calls) == stage else (0.25,) * n

                with pytest.raises(ValueError) as info:
                    step(rhs, (1.0,) * n, 0.1, None)
                assert str(info.value) == (
                    f"rhs returned {count} components for {n} coordinates"
                ), (form, stage)
                assert len(calls) == stage


@pytest.mark.parametrize("run", CATALOG_FLOWS)
def test_catalog_integrations_charge_each_stage_the_step_evaluates(velocity_calls, run):
    # dopri5 costs 1 + 6 per attempted step and rk4 4 per step, and a
    # counter on the flow's velocity sees each evaluation
    map_id, params, x0, t_range = CATALOG_FLOWS[run]
    report = harness.verify_correspondence(map_id, params, x0=x0, t_range=t_range)
    stats = report.integrator
    assert stats["rhs_evals"] == 1 + 6 * (stats["accepted"] + stats["rejected"])
    assert len(velocity_calls) == stats["rhs_evals"]
    flow = maps.build_flow(map_id, params)
    image = flow.map.forward(harness.source_start(flow, x0, t_range[0]))
    velocity_calls.clear()
    cfg = IntegratorConfig(method="rk4", step=2e-2)
    traj = flows.integrate_flow(flow, image, *t_range, cfg=cfg)
    assert traj.stats.rhs_evals == 4 * traj.stats.accepted == len(velocity_calls)
    assert traj.stats.rejected == 0


def _flow_outcome(integrate, flow, *args, **kwargs):
    """``integrate``'s trajectory of the flow, or the type, message and
    ``vars`` of what it raises, as text in which repr tells every float's
    bits apart."""
    try:
        return repr(integrate(flow, *args, **kwargs))
    except Exception as err:  # every error is compared, not handled
        return repr((type(err), str(err), vars(err)))


def _reference_flow(flow, *args, **kwargs):
    """``tests/reference.py``'s loop over the flow, every evaluation
    through ``nambu_rhs`` and its check."""
    return reference.integrate(
        partial(flows.nambu_rhs, flow), *args, observe=flow.hamiltonian_values, **kwargs
    )


@pytest.mark.parametrize("method", flows._TABLEAUS)
@pytest.mark.parametrize("run", CATALOG_FLOWS)
def test_catalog_integrations_are_the_reference_loop_through_nambu_rhs(run, method):
    # the compiled step calls the flow's velocity with no nambu_rhs between
    map_id, params, x0, (t0, t1) = CATALOG_FLOWS[run]
    flow = maps.build_flow(map_id, params)
    image = flow.map.forward(harness.source_start(flow, x0, t0))
    cfg = IntegratorConfig(method=method, step=2e-2)
    for t_eval in (None, harness._sample_times(t0, t1, harness.DEFAULT_SAMPLES)):
        # forward, then back from where the forward run ends
        start = image
        for a, b in ((t0, t1), (t1, t0)):
            times = None if t_eval is None else sorted(t_eval, reverse=a > b)
            got = flows.integrate_flow(flow, start, a, b, cfg, times)
            assert repr(got) == repr(_reference_flow(flow, start, a, b, cfg, times))
            start = got.final_state


def _henon_flow_of(hamiltonian):
    return flows.flow_system(maps.henon(1.0, 0.0), [hamiltonian])


# the velocity of H = 1e308 X is (0, +-1e308) everywhere, so a stage state
# overflows once h times its weight reaches 2: rk4 steps ``step``, and
# dopri5 starts at a hundredth of the span; that of H = XY is (X, -Y), so
# X overflows in a stage after many steps
HUGE = partial(_henon_flow_of, lambda s: 1e308 * s[0])
GROWING = partial(_henon_flow_of, lambda s: s[0] * s[1])

# a maker of the flow, x0, t1, the settings, and the number of evaluations made
# before the stage state is refused, when the test counts them
NON_FINITE_RUNS = [
    (HUGE, (0.5, 0.0), 100.0, IntegratorConfig(method="rk4", step=10.0), 1),
    (HUGE, (0.5, 0.0), 2000.0, IntegratorConfig(), 1),
    (HUGE, (0.5, 0.0), 700.0, IntegratorConfig(), 2),
    (GROWING, (1.0, 1.0), 1000.0, IntegratorConfig(method="rk4", step=1.0), None),
    (GROWING, (1.0, 1.0), 1000.0, IntegratorConfig(rel_tol=1e-3), None),
]


@pytest.mark.parametrize("build, x0, t1, cfg, stage", NON_FINITE_RUNS)
def test_a_non_finite_stage_state_is_refused_as_nambu_rhs_refuses_it(
    velocity_calls, build, x0, t1, cfg, stage
):
    flow = build()
    for t_eval in (None, [t1 / 3, t1]):
        want = _flow_outcome(_reference_flow, flow, x0, 0.0, t1, cfg, t_eval)
        velocity_calls.clear()
        assert _flow_outcome(flows.integrate_flow, flow, x0, 0.0, t1, cfg, t_eval) == want
        assert want.startswith("(<class 'mapflow.errors.NonFiniteStateError'>")
        assert "non-finite coordinate in state (" in want and ", {})" in want
        assert stage is None or len(velocity_calls) == stage


@pytest.mark.parametrize("t_eval", [None, [1.5, 2.0]])
@pytest.mark.parametrize("run", ["henon", "kdv3", "qp4"])
def test_integrate_flow_refuses_a_start_of_the_wrong_length_once(
    velocity_calls, run, t_eval
):
    map_id, params, _, _ = CATALOG_FLOWS[run]
    flow = maps.build_flow(map_id, params)
    n = flow.map.dimension
    for x0 in ((1.1,) * (n - 1), (1.1,) * (n + 1)):
        with pytest.raises(ValueError) as info:
            flows.integrate_flow(flow, x0, 1.0, 2.0, t_eval=t_eval)
        with pytest.raises(ValueError) as want:
            flows.nambu_rhs(flow, x0)
        assert (type(info.value), str(info.value)) == (ValueError, str(want.value))
        assert str(want.value).endswith(f" takes {n} coordinates, got {len(x0)}")
    assert velocity_calls == []


def test_dopri5_costs_one_rhs_plus_six_per_attempt():
    # stage 7 of an accepted step is the next step's stage 1, and a
    # rejected step keeps its stage 1
    traj = flows.integrate(lambda s: (math.cos(s[0]),), (0.0,), 0.0, 50.0)
    stats = traj.stats
    assert stats.rejected > 0
    assert stats.rhs_evals == 1 + 6 * (stats.accepted + stats.rejected)


def test_dopri5_never_reuses_a_nan_last_stage():
    # call 13 is stage 7 of the second step; that step is rejected, and
    # the retry must start from the first step's finite stage 7
    calls = []

    def rhs(s):
        calls.append(s)
        return (math.nan,) if len(calls) == 13 else (1.0,)

    traj = flows.integrate(rhs, (0.0,), 0.0, 1.0, t_eval=[0.5, 1.0])
    stats = traj.stats
    assert stats.rejected == 1
    assert stats.rhs_evals == len(calls) == 1 + 6 * (stats.accepted + 1)
    assert [s[0] for s in traj.states] == pytest.approx([0.5, 1.0], abs=1e-12)


def _integrated(integrate, make_rhs, *args, **kwargs):
    """What ``integrate`` makes of a fresh rhs from ``make_rhs``: its
    trajectory, or the error it raises with the time, state and trajectory
    an IntegrationError carries, as text in which repr tells every float's
    bits apart."""
    try:
        return repr(integrate(make_rhs(), *args, **kwargs))
    except IntegrationError as err:
        return repr((type(err), str(err), err.last_time, err.last_state, err.trajectory))
    except ValueError as err:
        return repr((type(err), str(err)))


def _reference_outcome(make_rhs, *args, **kwargs):
    """``_integrated`` of ``flows.integrate``, checked equal to that of the
    Python loop it compiles (``reference.integrate``)."""
    got = _integrated(flows.integrate, make_rhs, *args, **kwargs)
    assert got == _integrated(reference.integrate, make_rhs, *args, **kwargs)
    return got


def _coupled(n):
    """A smooth field that couples each coordinate to the one after it."""

    def rhs(s):
        return tuple(math.sin(s[(c + 1) % n]) - 0.5 * s[c] * s[c - 1] for c in range(n))

    return lambda: rhs


@pytest.mark.parametrize("method", flows._TABLEAUS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_compiled_loop_is_the_reference_loop_bit_for_bit(method, n):
    # the same times, states, Hamiltonian values and counters, forward and
    # backward, at every accepted step and at samples off the steps
    cfg = IntegratorConfig(method=method, step=0.07)
    x0 = tuple(0.3 + 0.2 * c for c in range(n))
    for t0, t1 in [(0.0, 3.0), (2.5, -0.5)]:
        for t_eval in (None, [t0 + (t1 - t0) * i / 20 for i in range(21)]):
            got = _reference_outcome(
                _coupled(n), x0, t0, t1, cfg=cfg, t_eval=t_eval,
                observe=lambda s: (math.fsum(s), s[0] * s[-1]),
            )
            assert got.startswith("Trajectory(")


def _cos_sum(s):
    return (math.cos(s[0]),) + s[1:]


def _nan_at_call(count, width):
    """An rhs of ``width`` ones whose last component is NaN at its
    count-th call."""

    def make():
        calls = []

        def rhs(s):
            calls.append(s)
            return (1.0,) * (width - 1) + (math.nan if len(calls) == count else 1.0,)

        return rhs

    return make


# each run of the loop against the reference: rhs factory, x0, t0, t1, the
# keyword arguments, and what the run must come to
LOOP_RUNS = {
    "rejected steps": (lambda: _cos_sum, (0.0, 1.0), 0.0, 50.0, {}, r"rejected=[1-9]"),
    "rejected steps, sampled backward": (
        lambda: _cos_sum, (0.0, -1.0), 40.0, 0.0, {"t_eval": [35.0, 20.5, 3.25, 0.0]},
        r"rejected=[1-9]",
    ),
    # max() passes over a NaN ratio after the first
    "a NaN error estimate": (_nan_at_call(7, 2), (0.0, 0.0), 0.0, 1.0, {}, r"rejected=1,"),
    "a NaN last stage": (
        _nan_at_call(13, 2), (0.0, 0.0), 0.0, 1.0, {"t_eval": [0.5, 1.0]}, r"rejected=1,"
    ),
    "the step budget": (
        lambda: _cos_sum, (0.0,), 0.0, 50.0, {"cfg": IntegratorConfig(max_steps=3)},
        r"MaxStepsError.*rejected=\d+, rhs_evals=19\)",
    ),
    "the rk4 step budget": (
        lambda: _cos_sum, (0.0, 2.0), 1.0, 0.0,
        {"cfg": IntegratorConfig(method="rk4", step=0.1, max_steps=4)},
        r"MaxStepsError.*accepted=4, rejected=0, rhs_evals=16\)",
    ),
    "a step underflow": (
        lambda: lambda s: (1.0 / (1.0 - s[0]),), (0.0,), 0.0, 2.0, {}, "StepUnderflowError"
    ),
    "an overflowing step": (
        lambda: lambda s: (1e308,), (0.0,), 0.0, 10.0, {}, "StepUnderflowError"
    ),
    "an rk4 step under the floor": (
        lambda: _cos_sum, (0.0,), 0.0, 1.0,
        {"cfg": IntegratorConfig(method="rk4", step=1e-16)},
        r"StepUnderflowError.*accepted=0, rejected=0, rhs_evals=0\)",
    ),
    "a non-finite rk4 state": (
        _nan_at_call(12, 2), (0.0, 1.0), 0.0, 1.0,
        {"cfg": IntegratorConfig(method="rk4", step=0.1), "t_eval": [0.05, 0.6]},
        r"IntegrationError.*accepted=2, rejected=0, rhs_evals=12\)",
    ),
    # every weight of the continuous extension underflows to 0.0 at the
    # sample, which _combine then records at the step's start state
    "a sample whose every weight is 0.0": (
        lambda: lambda s: (0.0,), (1.0,), 0.0, 1000.0, {"t_eval": [5e-324, 1000.0]},
        r"states=\(\(1\.0,\), \(1\.0,\)\).*rhs_evals=25\)",
    ),
}


@pytest.mark.parametrize("run", LOOP_RUNS)
def test_the_compiled_loop_rejects_and_fails_as_the_reference_loop(run):
    make_rhs, x0, t0, t1, kwargs, expect = LOOP_RUNS[run]
    got = _reference_outcome(make_rhs, x0, t0, t1, observe=lambda s: (s[0],), **kwargs)
    assert re.search(expect, got), got


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("stage1", [math.nan, math.inf, -math.inf])
def test_the_compiled_continuous_extension_is_the_reference_bit_for_bit(n, stage1):
    # dopri5's stages drawn from +-0.0 and a few magnitudes, its stage 1,
    # whose continuous-extension weight is zero at every x, non-finite, and
    # a first sample so close to t0 that every weight but stage 0's is 0.0
    # there, which keeps the sign of a -0.0 sum
    dense = flows._TABLEAUS["dopri5"][3]
    x = 1e-200 / 0.01  # the first sample's fraction of the first step
    weights = [x * (p1 + x * (p2 + x * (p3 + x * p4))) for p1, p2, p3, p4 in dense]
    assert weights[0] and not any(weights[1:])
    pool = [0.0, -0.0, 1.0, -0.5, 0.25, -1e-3]

    def make_rhs():
        rng = random.Random(f"dense:{n}:{stage1}")
        calls = []

        def rhs(s):
            calls.append(s)
            if len(calls) == 1:  # so the first sample's sums are -0.0
                return (-0.0,) * n
            # stage 1 is the second call, then every sixth
            if (len(calls) - 2) % 6 == 0:
                return (stage1,) * n
            return tuple(rng.choice(pool) for _ in range(n))

        return rhs

    cfg = IntegratorConfig(rel_tol=1e-2, abs_tol=1.0)
    y0 = (-0.0, 0.0, 0.5)[:n]
    t_eval = [1e-200, *(i / 40 for i in range(1, 41))]
    got = _reference_outcome(make_rhs, y0, 0.0, 1.0, cfg=cfg, t_eval=t_eval,
                             observe=lambda s: s[::-1])
    assert got.startswith("Trajectory(") and "-0.0" in got
    assert "nan" not in got and "inf" not in got


@pytest.mark.parametrize("run", CATALOG_FLOWS)
def test_dopri5_agrees_with_scipy_rk45_on_catalog_flows(run):
    # scipy's RK45 is the same Dormand-Prince pair with first-same-as-last
    # reuse and the same continuous extension, but its own first step
    scipy_integrate = pytest.importorskip("scipy.integrate")
    map_id, params, x0, (t0, t1) = CATALOG_FLOWS[run]
    fl = maps.build_flow(map_id, params)
    image0 = fl.map.forward(harness.source_start(fl, x0, t0))
    t_eval = harness._sample_times(t0, t1, harness.DEFAULT_SAMPLES)
    traj = flows.integrate_flow(fl, image0, t0, t1, t_eval=t_eval)
    ref = scipy_integrate.solve_ivp(
        lambda t, y: flows.nambu_rhs(fl, tuple(y)),
        (t0, t1),
        image0,
        method="RK45",
        t_eval=t_eval,
        rtol=1e-10,
        atol=1e-12,
    )
    assert ref.success
    assert traj.stats.rhs_evals <= 1.05 * ref.nfev + 12
    for got, want in zip(traj.states, ref.y.T):
        scale = 1.0 + max(abs(v) for v in want)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-9 * scale


@pytest.mark.parametrize(
    "run, bound",
    [
        ("kdv3", 110),
        ("qp4", 110),
        ("qp4-prop2", 115),
        ("henon", 40),
        ("kdv2", 210),
        ("hermite3", 1800),
    ],
)
def test_acceptance_verify_rhs_evaluations_stay_bounded(run, bound):
    # deterministic counters, comparable across machines; before dense
    # output and first-same-as-last reuse these were 161, 147, 168, 147,
    # 287 and 2072
    map_id, params, x0, t_range = CATALOG_FLOWS[run]
    report = harness.verify_correspondence(map_id, params, x0=x0, t_range=t_range)
    assert report.passed
    assert report.integrator["rhs_evals"] <= bound


def _cli_run(map_id, params, x0, t_range):
    run = ["--map", map_id, "--x0", ",".join(repr(float(v)) for v in x0)]
    run += ["--t0", repr(float(t_range[0])), "--t1", repr(float(t_range[1]))]
    for name, value in params.items():
        text = repr(value) if isinstance(value, float) else str(value)
        run += ["--param", f"{name}={text}"]
    return run


# sha256 of the CLI output files, recorded before the jet and Runge-Kutta
# kernels were rewritten; every floating-point operation and its order was
# kept, so the bytes must not move
GOLDEN_VERIFY_SHA256 = {
    "henon": "a8d8321fe40139a82a95de1d4096ecf2ca2bd5abf5ff6763e3f715101f12e69c",
    "hermite3": "440536997804224a4274df24eb0843102cf9f5a8e35d34fc36ca91f458daf5e8",
    "kdv3": "5f4f863a5aa806dcf096a9524492595b01c28a7f2339627ff189346c070ed55f",
    "kdv2": "7a78738b095dc5109c70c8618a4e2806d7ac4e01c9f89c802a51f8b95f3b4425",
    "qp4": "d10a2e828ca419ac97e51dd7ddf11b46726c6c359d14984704f6973436c68dcf",
    "qp4-prop2": "5d29df96bd0e9b19d5fa116f262dddc004a3cb5b8df88647d2911dd0cb73a715",
}
GOLDEN_KDV3_RK4_FLOW_SHA256 = (
    "57ab2b18ee36b2f6763768c5c1e4316feca01c53b57d5774f0690b6612087544"
)
GOLDEN_KDV3_SCAN_SHA256 = (
    "29c0c2e6810d9f301aa5e1cdab000f33ca22c2b71222a0c5137339260115619a"
)


def _sha256_of_cli_output(tmp_path, argv):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("run", CATALOG_FLOWS)
def test_verify_output_bytes_match_the_pinned_digest(tmp_path, run):
    argv = ["verify", *_cli_run(*CATALOG_FLOWS[run])]
    assert _sha256_of_cli_output(tmp_path, argv) == GOLDEN_VERIFY_SHA256[run]


def test_rk4_flow_csv_bytes_match_the_pinned_digest(tmp_path):
    run = _cli_run(*CATALOG_FLOWS["kdv3"]) + ["--method", "rk4", "--step", "2e-3"]
    digest = _sha256_of_cli_output(tmp_path, ["flow", *run])
    assert digest == GOLDEN_KDV3_RK4_FLOW_SHA256


def test_scan_output_bytes_match_the_pinned_digest(tmp_path):
    run = ["--map", "kdv3", "--grid", "0.5:1.5:3,0.5:1.5:3", "--t0", "1", "--t1", "2"]
    assert _sha256_of_cli_output(tmp_path, ["scan", *run]) == GOLDEN_KDV3_SCAN_SHA256


# ---------------------------------------------------------------------------
# traced velocities

# every closed-form catalog flow and a point well inside its domain
TRACED_FLOWS = {
    "henon1": (lambda: maps.henon_flow(1.0, 0.0, 1), (1.0, 0.5)),
    "henon2": (lambda: maps.henon_flow(1.3, 0.4, 2), (1.0, 0.5)),
    "henon3": (lambda: maps.henon_flow(1.0, 0.0, 3), (1.0, 0.5)),
    "hermite2": (lambda: maps.hermite_flow(2), (7.0, 1.1)),
    "hermite3": (lambda: maps.hermite_flow(3), (7.0, 1.1)),
    "kdv3": (maps.kdv3_flow, (1.1, 0.9, 1.2)),
    "kdv2": (lambda: maps.kdv2_flow(2.0), (1.1, 0.9)),
    "qp4": (lambda: maps.qp4_flow(1.0, 1.0, 1.0), (1.0, 1.1, 0.9)),
    "qp4-prop2": (lambda: maps.qp4_flow(2.0, 1.0, 1.0, "prop2"), (1.0, 1.1, 0.9)),
    "qp4-display": (
        lambda: maps.qp4_flow(2.0, 1.0, 1.0, "paper-display"), (1.0, 1.1, 0.9)
    ),
    # its 3x3 minors are core.det's closed form, which reads no value
    "shear4": (_shear4_flow, (1.1, 0.9, 1.2, 0.8)),
}


def _is_traced(flow):
    return flow.velocity.__code__.co_filename == "<trace>"


def _traced_flow(build, point):
    """A flow built by ``build`` whose velocity is traced at ``point``."""
    flow = build()
    flows.nambu_rhs(flow, point)
    assert _is_traced(flow)
    return flow


def test_a_flow_traces_its_velocity_at_its_first_evaluation(monkeypatch):
    kept = _spy_on_traces(monkeypatch)
    flow = maps.kdv3_flow()
    assert kept == []
    for _ in range(3):
        flows.nambu_rhs(flow, (1.1, 0.9, 1.2))
        assert kept == [True]
    assert _is_traced(flow)


def _points_with_exact_coordinates(point, rng, count=40):
    """``count`` copies of ``point``, each with one or two coordinates set
    to 0.0, -0.0, 1.0 or 2.0: where folding an operation on an exact zero
    or one, or swapping the operands of one that does not commute, would
    change the sign of a zero."""
    points = []
    for _ in range(count):
        x = list(point)
        for i in rng.sample(range(len(x)), rng.randint(1, 2)):
            x[i] = rng.choice([0.0, -0.0, 1.0, 2.0])
        points.append(tuple(x))
    return points


def _outcome(velocity, x):
    """The repr of ``velocity(x)``, or the type and message of the
    MapflowError it raises."""
    try:
        return repr(velocity(x))
    except MapflowError as err:
        return type(err), str(err)


@pytest.mark.parametrize("run", TRACED_FLOWS)
def test_a_traced_velocity_is_bitwise_the_jet_kernel(run):
    build, point = TRACED_FLOWS[run]
    flow = _traced_flow(build, point)
    rng = random.Random(f"traced:{run}")
    for _ in range(250):
        x = tuple(v * (1.0 + rng.uniform(-0.05, 0.05)) for v in point)
        # repr round-trips floats, so equal reprs are equal bits up to NaN
        assert repr(flows.nambu_rhs(flow, x)) == repr(flow.jet_velocity(x))
    for x in _points_with_exact_coordinates(point, rng):
        traced = _outcome(partial(flows.nambu_rhs, flow), x)
        assert traced == _outcome(flow.jet_velocity, x), x
    assert _is_traced(flow)


# the four numeric-hamiltonians flows and kdv2 by quadrature, each with an
# image point and whether some of its jittered points need more panels than
# the first, so that the traced code's tolerance check fails there
QUADRATURE_FLOWS = {
    "henon": (lambda: flows.build_hamiltonians(maps.henon(1.0, 0.0)),
              (0.5, -0.67), False),
    "hermite2": (
        lambda: flows.build_hamiltonians(
            maps.hermite_chain(2), ref_point=(0.0, 1.0), check=False
        ),
        (2.6, 0.6), False,
    ),
    "qp4": (lambda: flows.build_hamiltonians(maps.qp4(1.0, 1.0, 1.0)),
            (0.99, 1.0, 0.97), False),
    "kdv3": (lambda: flows.build_hamiltonians(maps.kdv3()), (1.02, 0.9, 1.13), False),
    "kdv2": (lambda: flows.build_hamiltonians(maps.kdv2(2.0), check=False),
             (0.44, 3.7), True),
    "shear4": (lambda: flows.build_hamiltonians(_shear4()),
               (1.1, 0.9, 1.2, 0.8), False),
}


def _charged(flow, velocity, x):
    """``velocity(x)`` and the (panels, integrand calls) it charged."""
    counts = flow.quadrature
    before = (counts.panels, counts.integrand_calls)
    out = velocity(x)
    return out, (counts.panels - before[0], counts.integrand_calls - before[1])


@pytest.mark.parametrize("run", QUADRATURE_FLOWS)
def test_a_traced_quadrature_velocity_is_the_jet_kernel_and_charges_the_same(run):
    build, point, falls_back = QUADRATURE_FLOWS[run]
    flow = _traced_flow(build, point)
    rng = random.Random(f"traced-quadrature:{run}")
    panels = []
    for _ in range(250):
        x = tuple(v * (1.0 + rng.uniform(-0.05, 0.05)) for v in point)
        traced, charged = _charged(flow, lambda x: flows.nambu_rhs(flow, x), x)
        kernel, expected = _charged(flow, flow.jet_velocity, x)
        assert repr(traced) == repr(kernel)
        assert charged == expected == (expected[0], 15 * expected[0])
        panels.append(expected[0])
    for x in _points_with_exact_coordinates(point, rng):
        traced = _charged(flow, partial(_outcome, partial(flows.nambu_rhs, flow)), x)
        kernel = _charged(flow, partial(_outcome, flow.jet_velocity), x)
        assert traced == kernel, x
    assert _is_traced(flow)
    # a point whose first panel misses the tolerance re-runs the kernel
    assert (max(panels) > 1) == falls_back
    assert min(panels) == 1


@pytest.mark.parametrize("run", QUADRATURE_FLOWS)
def test_a_trace_charges_no_quadrature_panel(run):
    build, point, _ = QUADRATURE_FLOWS[run]
    flow = build()
    counts = dataclasses.replace(flow.quadrature)
    traced = core.trace(flow.jet_velocity, flow.map.dimension)
    assert traced is not None
    assert flow.quadrature == counts
    _, charged = _charged(flow, traced, point)
    assert charged[0] >= 1


# every constrained flow the level-set oracle solves for, closed form and
# by quadrature, with the non-time start and the span of one level set
LEVEL_FLOWS = {
    "hermite2": (lambda: maps.hermite_flow(2), (2.5,), (0.5, 1.0)),
    "hermite3": (lambda: maps.hermite_flow(3), (42.0,), (0.5, 2.0)),
    "kdv2": (lambda: maps.kdv2_flow(2.0), (1.0,), (1.0, 2.0)),
    "quadrature-hermite2": (
        lambda: flows.build_hamiltonians(
            maps.hermite_chain(2), ref_point=(0.0, 1.0), check=False
        ),
        (2.6060594742725938,), (0.5, 2.01953125),
    ),
    "quadrature-kdv2": (
        lambda: flows.build_hamiltonians(maps.kdv2(2.0), check=False),
        (1.0,), (1.0, 2.0),
    ),
    # two free slots, so each Newton step reads a 2x2 block of rows
    "squash-kdv3": (
        lambda: flows.build_hamiltonians(squash_kdv3(), check=False),
        (1.1, 0.9), (1.0, 2.0),
    ),
}


def _level_set_of(build, x0, t_range):
    """A flow built by ``build``, and the repr of the path, the oracle
    record and the quadrature counts of its level set over ``t_range``."""
    flow = build()
    times = harness._sample_times(*t_range, harness.DEFAULT_SAMPLES)
    x_start = harness.source_start(flow, x0, t_range[0])
    path, oracle = harness._level_set_path(flow, x_start, times)
    counts = flow.quadrature and dataclasses.astuple(flow.quadrature)
    return flow, (repr(path), repr(oracle), counts)


def _traced_level(build, x0, t_range):
    """A flow built by ``build`` whose level function is traced at the
    start of its level set."""
    flow = build()
    flow.level(harness.source_start(flow, x0, t_range[0]))
    assert flow.level.__code__.co_filename == "<trace>"
    return flow


@pytest.mark.parametrize("run", LEVEL_FLOWS)
def test_a_traced_level_set_is_bitwise_the_jet_level_set(monkeypatch, run):
    flow, traced = _level_set_of(*LEVEL_FLOWS[run])
    assert flow.level.__code__.co_filename == "<trace>"
    with monkeypatch.context() as patch:
        patch.setattr(core, "trace", lambda fn, n: None)
        flow, untraced = _level_set_of(*LEVEL_FLOWS[run])
    assert flow.level is flow.jet_level
    # the same path and oracle record by repr, the same panels charged
    assert traced == untraced


def _overflowing_points(point):
    """Copies of ``point``, each with one coordinate at +-1e155 or +-1e300,
    so that intermediates reach inf and 0.0 * inf gives nan: where a
    rewrite of traced code that changed an operand or the order of two
    operations would show."""
    return [
        point[:j] + (v,) + point[j + 1 :]
        for j in range(len(point))
        for v in (1e155, -1e155, 1e300, -1e300)
    ]


@pytest.mark.parametrize("run", TRACED_FLOWS)
def test_a_traced_velocity_is_the_jet_kernel_where_intermediates_overflow(run):
    build, point = TRACED_FLOWS[run]
    flow = _traced_flow(build, point)
    for x in _overflowing_points(point):
        traced = _outcome(partial(flows.nambu_rhs, flow), x)
        assert traced == _outcome(flow.jet_velocity, x), x
    assert _is_traced(flow)


@pytest.mark.parametrize("run", LEVEL_FLOWS)
def test_a_traced_level_function_is_the_jet_one_where_intermediates_overflow(run):
    build, x0, t_range = LEVEL_FLOWS[run]
    flow = _traced_level(build, x0, t_range)
    start = harness.source_start(flow, x0, t_range[0])
    for x in _overflowing_points(start):
        assert _outcome(flow.level, x) == _outcome(flow.jet_level, x), x
    assert flow.level.__code__.co_filename == "<trace>"


def _raised(fn, x):
    """The type of the MapflowError ``fn(x)`` raises, and the error."""
    with pytest.raises(MapflowError) as info:
        fn(x)
    return type(info.value), info.value


@pytest.mark.parametrize(
    "build, good, bad, message",
    [
        (lambda: maps.kdv2_flow(2.0), (1.0, 1.0), (0.0, 1.0),
         "singular point in kdv2: x vanishes at (0.0, 1.0)"),
        # the second step's forward guard y vanishes at the first iterate
        (lambda: maps.hermite_flow(3), (42.0, 0.5), (2.0, 0.5),
         "iterate 2 of hermite[m=3] left the domain: singular point in "
         "hermite-step[2]: y vanishes at (2.0, 0.0)"),
    ],
    ids=["forward-guard", "iterate"],
)
def test_a_traced_level_function_raises_what_the_jet_level_function_raises(
    monkeypatch, build, good, bad, message
):
    traced = build()
    traced.level(good)
    outcomes = [_raised(traced.level, bad)]
    fresh = build()  # whose first point is the pole itself
    outcomes.append(_raised(fresh.level, bad))
    for flow in (traced, fresh):
        assert flow.level.__code__.co_filename == "<trace>"
    monkeypatch.setattr(core, "trace", lambda fn, n: None)
    flow = build()
    outcomes.append(_raised(flow.level, bad))
    assert flow.level is flow.jet_level
    assert str(outcomes[0][1]) == message
    assert len({(kind, str(err), repr(vars(err))) for kind, err in outcomes}) == 1


# the most lines each trace may compile: each distinct operation once, and
# no + - * or negation whose value goes unread
TRACED_LINES = {
    "henon1": 6, "henon2": 19, "henon3": 24, "hermite2": 11, "hermite3": 25,
    "kdv3": 157, "kdv2": 74, "qp4": 108, "qp4-prop2": 123, "qp4-display": 120,
    "shear4": 74,
}
QUADRATURE_LINES = {
    "henon": 10, "hermite2": 114, "qp4": 108, "kdv3": 157, "kdv2": 620,
    "shear4": 70,
}
LEVEL_LINES = {
    "hermite2": 18, "hermite3": 50, "kdv2": 136, "quadrature-hermite2": 126,
    "quadrature-kdv2": 680, "squash-kdv3": 589,
}


def _trace_source(monkeypatch, flows_table, run):
    """The source the trace of one run compiles: its level function's for
    a run of ``LEVEL_FLOWS``, else its velocity's."""
    sources = []
    compiled = core._compiled

    def spy(source):
        sources.append(source)
        return compiled(source)

    monkeypatch.setattr(core, "_compiled", spy)
    if flows_table is LEVEL_FLOWS:
        _traced_level(*LEVEL_FLOWS[run])
    else:
        build, point = flows_table[run][:2]
        _traced_flow(build, point)
    (source,) = sources
    return source


TRACE_RUNS = {
    "argnames": "flows_table, lines, run",
    "argvalues": [(TRACED_FLOWS, TRACED_LINES, run) for run in TRACED_FLOWS]
    + [(QUADRATURE_FLOWS, QUADRATURE_LINES, run) for run in QUADRATURE_FLOWS]
    + [(LEVEL_FLOWS, LEVEL_LINES, run) for run in LEVEL_FLOWS],
    "ids": [
        *TRACED_FLOWS,
        *(f"quadrature-{run}" for run in QUADRATURE_FLOWS),
        *(f"level-{run}" for run in LEVEL_FLOWS),
    ],
}


@pytest.mark.parametrize(**TRACE_RUNS)
def test_a_trace_compiles_no_more_lines_than_pinned(
    monkeypatch, flows_table, lines, run
):
    source = _trace_source(monkeypatch, flows_table, run)
    assert len(re.findall(r"^ +v\d+ = ", source, re.MULTILINE)) <= lines[run]


@pytest.mark.parametrize("run", CATALOG_FLOWS)
def test_no_compiled_trace_of_a_catalog_flow_holds_a_line_twice(monkeypatch, run):
    # each distinct operation and check is recorded once: hermite m=3's
    # composite map repeats its first step's guard and finiteness checks
    map_id, params, x0, (t0, _) = CATALOG_FLOWS[run]
    x = harness.source_start(maps.build_flow(map_id, params), x0, t0)
    maps._flow.cache_clear()
    flow = maps.build_flow(map_id, params)
    sources = []
    compiled = core._compiled
    monkeypatch.setattr(core, "_compiled", lambda s: sources.append(s) or compiled(s))
    image = flow.map.forward(x)
    for name in ("velocity", "float_hamiltonians", "image", "level", "image_time_column"):
        getattr(flow, name)(image if name in ("velocity", "float_hamiltonians") else x)
    assert len(sources) == 5
    for source in sources:
        lines = re.findall(r"^ +v\d+ = (.*)$", source, re.MULTILINE)
        assert len(set(lines)) == len(lines), source


@pytest.mark.parametrize(
    "flows_table, run",
    [(TRACED_FLOWS, run) for run in TRACED_FLOWS]
    + [(QUADRATURE_FLOWS, run) for run in QUADRATURE_FLOWS]
    + [(LEVEL_FLOWS, run) for run in LEVEL_FLOWS],
    ids=[
        *TRACED_FLOWS,
        *(f"quadrature-{run}" for run in QUADRATURE_FLOWS),
        *(f"level-{run}" for run in LEVEL_FLOWS),
    ],
)
def test_no_compiled_trace_of_a_built_or_test_flow_holds_a_line_twice(
    monkeypatch, flows_table, run
):
    # each H_j reads the inverse map on its own, so every line of the
    # inverse, its negations and recorded calls included, is made once per
    # Hamiltonian unless the tape records each distinct line once
    build, point, *rest = flows_table[run]
    flow = build()
    if flows_table is LEVEL_FLOWS:
        x = harness.source_start(flow, point, rest[0][0])
    else:
        x = flow.map.inverse(point)
    sources = []
    compiled = core._compiled
    monkeypatch.setattr(core, "_compiled", lambda s: sources.append(s) or compiled(s))
    image = flow.map.forward(x)
    for name in ("velocity", "float_hamiltonians", "image", "level", "image_time_column"):
        getattr(flow, name)(image if name in ("velocity", "float_hamiltonians") else x)
    assert len(sources) == 5
    for source in sources:
        lines = re.findall(r"^ +v\d+ = (.*)$", source, re.MULTILINE)
        assert len(set(lines)) == len(lines), source


@pytest.mark.parametrize(**TRACE_RUNS)
def test_a_trace_binds_only_the_constants_its_code_reads(
    monkeypatch, flows_table, lines, run
):
    source = _trace_source(monkeypatch, flows_table, run)
    header, body = source.split("\n", 1)
    params = re.fullmatch(r"def bind\(fallback, (.*)\):", header).group(1)
    names = params.split(", ")[:-1]  # each parameter is followed by a comma
    assert set(re.findall(r"\bc\d+\b", body)) == set(names)


def _nesting(expression):
    """How deep the parentheses of an expression nest."""
    depth = deepest = 0
    for ch in expression:
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    return deepest


def _stored_operations_read_once(source):
    """The stored ``+ - *`` and negation lines of a compiled trace that
    exactly one other line reads, and not its return or an effect call,
    each with how deep its parentheses nest."""
    stored = dict(re.findall(r"^ +(v\d+) = (.*)$", source, re.MULTILINE))
    reads = Counter(re.findall(r"\bv\d+\b", "\n".join(stored.values())))
    rest = [line for line in source.splitlines() if not re.match(r" +v\d+ = ", line)]
    outside = set(re.findall(r"\bv\d+\b", "\n".join(rest)))
    once = []
    for name, expr in stored.items():
        tree = ast.parse(expr, mode="eval").body
        operation = isinstance(tree, ast.UnaryOp) or (
            isinstance(tree, ast.BinOp)
            and isinstance(tree.op, (ast.Add, ast.Sub, ast.Mult))
        )
        if operation and reads[name] == 1 and name not in outside:
            once.append((name, _nesting(expr)))
    return once


def _catalog_trace_sources(monkeypatch, run):
    """The five sources a fresh catalog flow of ``run`` compiles: its
    velocity, Hamiltonian values, image, level and image time column."""
    map_id, params, x0, (t0, _) = CATALOG_FLOWS[run]
    x = harness.source_start(maps.build_flow(map_id, params), x0, t0)
    maps._flow.cache_clear()
    flow = maps.build_flow(map_id, params)
    sources = []
    compiled = core._compiled
    monkeypatch.setattr(core, "_compiled", lambda s: sources.append(s) or compiled(s))
    image = flow.map.forward(x)
    for name in ("velocity", "float_hamiltonians", "image", "level", "image_time_column"):
        getattr(flow, name)(image if name in ("velocity", "float_hamiltonians") else x)
    assert len(sources) == 5
    return sources


@pytest.mark.parametrize(
    "flows_table, run",
    [(table, run) for table, _, run in TRACE_RUNS["argvalues"]]
    + [(CATALOG_FLOWS, run) for run in CATALOG_FLOWS],
    ids=[*TRACE_RUNS["ids"], *(f"catalog-{run}" for run in CATALOG_FLOWS)],
)
def test_no_stored_operation_is_read_by_one_line_alone(monkeypatch, flows_table, run):
    # a + - * or negation that one other line reads is written into that
    # line, unless its parentheses would then nest deeper than the bound
    if flows_table is CATALOG_FLOWS:
        sources = _catalog_trace_sources(monkeypatch, run)
    else:
        sources = [_trace_source(monkeypatch, flows_table, run)]
    for source in sources:
        once = _stored_operations_read_once(source)
        assert [name for name, depth in once if depth < core._INLINE_DEPTH] == []


def _overflowing_flow():
    """A quadrature flow whose det J = x^8 overflows beyond x ~ 1e38."""

    def det_j(s):
        x2 = s[0] * s[0]
        return (x2 * x2) * (x2 * x2)

    mapdesc = core.MapDescriptor(
        name="overflow",
        dimension=2,
        params={},
        forward_fn=lambda s: (s[0], s[1] * det_j(s)),
        inverse_fn=lambda s: (s[0], s[1] / det_j(s)),
        det_j=det_j,
        sample_box=((0.5, 1.2), (0.5, 1.2)),
    )
    return flows.build_hamiltonians(mapdesc)


def test_a_non_finite_panel_estimate_in_traced_code_raises_the_kernel_error():
    flow = _traced_flow(_overflowing_flow, (1.1, 0.9))
    with pytest.raises(QuadratureError) as kernel:
        flow.jet_velocity((1e40, 0.9))
    with pytest.raises(QuadratureError) as traced:
        flows.nambu_rhs(flow, (1e40, 0.9))
    assert str(traced.value) == str(kernel.value)
    assert str(kernel.value) == "non-finite quadrature panel estimate"
    assert _is_traced(flow)


def test_a_five_dimensional_flow_keeps_its_kernel():
    # core.det pivots on values for its 4x4 minors, so the trace is abandoned
    flow = _shear5_flow()
    point = (1.1, 0.9, 1.2, 0.8, 1.3)
    for _ in range(2):
        # the image moves along x5 alone, at unit speed
        assert flows.nambu_rhs(flow, point) == (0.0, 0.0, 0.0, 0.0, 1.0)
        assert flow.velocity is flow.jet_velocity


def _kdv3_flow_whose_h2_divides_by_zero():
    hams = (lambda s: s[0], lambda s: 1.0 / (s[2] - 1.0))
    return flows.flow_system(maps.kdv3(), hams)


def _kdv3_flow_whose_h2_divides_by_zero_unread():
    # the quotient is discarded, so no line the velocity returns reads it;
    # the traced code must still divide, to raise where the kernel raises
    def h2(s):
        _ = 1.0 / (s[2] - 1.0)
        return s[1]

    hams = (lambda s: s[0], h2)
    return flows.flow_system(maps.kdv3(), hams)


def _hermite3_flow_through_its_inverse():
    chain = maps.hermite_chain(3)
    return flows.flow_system(chain, (lambda s: chain.inverse(s)[1],))


@pytest.mark.parametrize(
    "build, good, bad, message",
    [
        # 1+XY+X^2YZ is -5e-14, inside the cutoff 1e-12 (1 + max |X_i|)
        (maps.kdv3_flow, (1.1, 0.9, 1.2), (1.0, -0.5, 1.0000000000001),
         "singular point in kdv3 (inverse): 1+XY+X^2YZ vanishes at "
         "(1.0, -0.5, 1.0000000000001)"),
        (maps.kdv3_flow, (1.1, 0.9, 1.2), (1e155, 1e155, 1e155),
         "singular point in kdv3 (inverse): non-finite result at "
         "(1e+155, 1e+155, 1e+155)"),
        (lambda: maps.kdv2_flow(2.0), (1.1, 0.9), (1.0, -0.1),
         "log of non-positive value -3.3293697978596906"),
        (_kdv3_flow_whose_h2_divides_by_zero, (1.0, 2.0, 3.0), (1.0, 2.0, 1.0),
         "singular point in kdv3: a denominator of H2 vanishes at (1.0, 2.0, 1.0)"),
        (_kdv3_flow_whose_h2_divides_by_zero_unread, (1.0, 2.0, 3.0), (1.0, 2.0, 1.0),
         "singular point in kdv3: a denominator of H2 vanishes at (1.0, 2.0, 1.0)"),
        # the first step's inverse guard vanishes at the second iterate
        (_hermite3_flow_through_its_inverse, (7.0, 1.1), (2.0, 1.0),
         "iterate 2 of hermite[m=3] (inverse) left the domain: singular point "
         "in hermite-step[1] (inverse): X - Y vanishes at (2.0, 2.0)"),
    ],
    ids=[
        "guard", "non-finite", "log-domain", "division-by-zero",
        "unread-division-by-zero", "iterate",
    ],
)
def test_a_traced_velocity_raises_what_the_jet_kernel_raises(build, good, bad, message):
    flow = _traced_flow(build, good)
    with pytest.raises(MapflowError) as traced:
        flows.nambu_rhs(flow, bad)
    with pytest.raises(MapflowError) as kernel:
        flow.jet_velocity(bad)
    err = traced.value
    assert str(err) == message
    # the attributes, the cause of an iterate's error included
    assert (type(err), repr(vars(err))) == (type(kernel.value), repr(vars(kernel.value)))
    assert _is_traced(flow)


def test_a_fresh_flow_evaluated_first_at_a_pole_raises_what_the_jet_kernel_raises():
    # 1+XY+X^2YZ is -5e-14 at the first point the traced code ever sees
    bad, good = (1.0, -0.5, 1.0000000000001), (1.1, 0.9, 1.2)
    with pytest.raises(MapflowError) as kernel:
        maps.kdv3_flow().jet_velocity(bad)
    flow = maps.kdv3_flow()
    with pytest.raises(MapflowError) as traced:
        flows.nambu_rhs(flow, bad)
    assert _is_traced(flow)
    err, want = traced.value, kernel.value
    assert (type(err), str(err), repr(vars(err))) == (
        type(want), str(want), repr(vars(want))
    )
    assert str(err).startswith("singular point in kdv3 (inverse): 1+XY+X^2YZ vanishes")
    kernel_bits = repr(maps.kdv3_flow().jet_velocity(good))
    assert repr(flows.nambu_rhs(flow, good)) == kernel_bits


def _what_it_does(fn, x):
    """The repr of ``fn(x)``, or the type, message and attributes of the
    MapflowError it raises."""
    try:
        return repr(fn(x))
    except MapflowError as err:
        return type(err), str(err), repr(vars(err))


# the flows whose guard and finiteness checks are written inline
GUARDED_RUNS = ("kdv3", "kdv2", "qp4", "qp4-prop2", "hermite3", "henon1")


@functools.lru_cache(maxsize=None)
def _checked_flow(run):
    """The run's flow, its velocity and level function traced at its
    point of ``TRACED_FLOWS``."""
    build, point = TRACED_FLOWS[run]
    flow = _traced_flow(build, point)
    flow.level(point)
    assert flow.level.__code__.co_filename == "<trace>"
    return flow


def _flip(decides, x, j, inside, outside):
    """Adjacent values of coordinate j of the point x, from ``inside``
    towards ``outside``, between which ``decides(x)`` changes; the two ends
    when it is the same at both."""
    at = lambda v: x[:j] + (v,) + x[j + 1 :]
    want = decides(at(inside))
    if decides(at(outside)) == want:
        return inside, outside
    while True:
        mid = inside + (outside - inside) / 2
        if mid in (inside, outside):
            return inside, outside
        if decides(at(mid)) == want:
            inside = mid
        else:
            outside = mid


def _crossings(x, guards, kernel):
    """Triples (point, j, ends) near x: for each guard, each coordinate j
    along which it varies (every catalog guard is affine along each) and
    each side of its root, the point with x_j at the root and the adjacent
    values of x_j between which |guard| crosses the cutoff
    1e-12 (1 + max |x|).  With no guard, the values of coordinate 1
    between 1e150 and 1e160 where ``kernel`` starts to raise (henon's
    forward map squares it)."""
    at = lambda x, j, v: x[:j] + (v,) + x[j + 1 :]
    if not guards:

        def raises(x):
            return isinstance(_what_it_does(kernel, x), tuple)

        yield x, 1, _flip(raises, x, 1, 1e150, 1e160)
    for _, guard in guards:

        def decides(x):
            return abs(guard(x)) <= core.GUARD_CUTOFF * (1.0 + max(map(abs, x)))

        for j in range(len(x)):
            slope = guard(at(x, j, 1.0)) - guard(at(x, j, 0.0))
            if not slope:
                continue
            root = -guard(at(x, j, 0.0)) / slope
            on = at(x, j, root)
            width = 1e-9 * (1.0 + max(map(abs, on))) / abs(slope)
            for side in (-width, width):
                yield on, j, _flip(decides, on, j, root, root + side)


@seed(31)
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(GUARDED_RUNS),
    st.booleans(),
    st.lists(st.floats(-0.1, 0.1), min_size=3, max_size=3),
)
def test_inline_checks_decide_as_the_jet_kernel_at_the_guard_cutoff(run, image, jitter):
    # the points within an ulp of where a guard crosses the cutoff: image
    # points for the velocity's inverse guards, source points for the
    # level function's forward guards
    flow = _checked_flow(run)
    traced, kernel = (
        (partial(flows.nambu_rhs, flow), flow.jet_velocity)
        if image
        else (flow.level, flow.jet_level)
    )
    x = tuple(v * (1.0 + d) for v, d in zip(TRACED_FLOWS[run][1], jitter))
    guards = flow.map.inverse_guards if image else flow.map.forward_guards
    for on, j, ends in _crossings(x, guards, kernel):
        near = {math.nextafter(v, d) for v in ends for d in (-math.inf, v, math.inf)}
        for v in sorted(near):
            y = on[:j] + (v,) + on[j + 1 :]
            assert _what_it_does(traced, y) == _what_it_does(kernel, y), y


def _bound(fn):
    """The values a compiled function's closure binds."""
    return [cell.cell_contents for cell in fn.__closure__]


def test_a_guard_that_reads_a_value_keeps_its_recorded_call():
    # abs() reads its traced argument, so this guard cannot be written
    # inline; the velocity stays traced and calls the guard on floats
    scale = core.MapDescriptor(
        name="scale",
        dimension=2,
        params={},
        forward_fn=lambda s: (s[0], s[1] * s[0]),
        inverse_fn=lambda s: (s[0], s[1] / s[0]),
        inverse_guards=(("|X|", lambda s: abs(s[0])),),
        det_j=lambda s: s[0],
    )
    flow = flows.flow_system(scale, [lambda s: scale.inverse(s)[0]])
    assert flows.nambu_rhs(flow, (1.1, 0.9)) == flow.jet_velocity((1.1, 0.9))
    assert flow.velocity is not flow.jet_velocity
    assert core._refuse_poles in _bound(flow.velocity)
    bad = (1e-13, 0.9)
    assert _what_it_does(partial(flows.nambu_rhs, flow), bad) == (
        _what_it_does(flow.jet_velocity, bad)
    )
    assert str(_raised(flow.jet_velocity, bad)[1]) == (
        "singular point in scale (inverse): |X| vanishes at (1e-13, 0.9)"
    )


def test_the_kdv3_velocity_checks_its_guards_and_finiteness_inline(monkeypatch):
    source = _trace_source(monkeypatch, TRACED_FLOWS, "kdv3")
    flow = _traced_flow(*TRACED_FLOWS["kdv3"])
    # no recorded call: one inline line each for the inverse guards and
    # the finiteness of the inverse's values
    assert not re.search(r"= c\d+\(", source)
    assert source.count("FAIL()") == 2
    assert "isfinite(" in source and "<= s_" in source
    bound = _bound(flow.velocity)
    assert core._refuse_poles not in bound and core._refuse_non_finite not in bound


@pytest.mark.parametrize(
    "ham, expected",
    [
        (
            lambda s: s[0] * s[1] if core.float_value(s[0]) > 0 else -s[0] * s[1],
            [(-1.0, 2.0), (-1.0, -2.0), (-2.0, 2.0)],
        ),
        (
            lambda s: s[0] * float(core.float_value(s[1])),
            [(-0.0, 2.0), (-0.0, 2.0), (-0.0, 2.0)],
        ),
        (
            lambda s: s[0] * s[1]
            if core.float_value(s[0]) == core.float_value(s[1])
            else s[0] + s[1],
            [(-1.0, 1.0), (-1.0, 1.0), (-2.0, 2.0)],
        ),
    ],
    ids=["compare", "float", "equal"],
)
def test_a_hamiltonian_that_reads_a_value_keeps_the_jet_kernel(ham, expected):
    flow = flows.flow_system(maps.henon(1.0, 0.0), (ham,))
    points = [(1.0, 2.0), (-1.0, 2.0), (2.0, 2.0)]
    for _ in range(2):
        assert [flows.nambu_rhs(flow, x) for x in points] == expected
        assert flow.velocity is flow.jet_velocity


def _spy_on_traces(monkeypatch):
    """List, per trace, whether it was kept."""
    kept = []
    trace = core.trace

    def spy(fn, n):
        traced = trace(fn, n)
        kept.append(traced is not None)
        return traced

    monkeypatch.setattr(core, "trace", spy)
    return kept


@pytest.mark.parametrize("run", CATALOG_FLOWS)
def test_verify_output_bytes_match_the_pinned_digest_when_traced_at_once(
    monkeypatch, tmp_path, run
):
    # so the pinned bytes are the traced code's
    kept = _spy_on_traces(monkeypatch)
    test_verify_output_bytes_match_the_pinned_digest(tmp_path, run)
    assert kept and all(kept)


@pytest.mark.parametrize("run", CATALOG_FLOWS)
def test_verify_output_bytes_match_the_pinned_digest_when_untraced(
    monkeypatch, tmp_path, run
):
    # every trace abandoned: the path of a flow that keeps jet_velocity
    traces = []
    monkeypatch.setattr(core, "trace", lambda fn, n: traces.append(n))
    test_verify_output_bytes_match_the_pinned_digest(tmp_path, run)
    assert traces


def _spy_on_calls(monkeypatch, module, name):
    """List the arguments of each call of ``module.name``."""
    calls = []
    fn = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("run", CATALOG_FLOWS)
def test_a_second_verify_reuses_its_flow_and_writes_the_pinned_bytes(
    monkeypatch, tmp_path, run
):
    # the flow built by the first verify is traced and checked once; the
    # second verify in the process runs the same code on it
    test_verify_output_bytes_match_the_pinned_digest(tmp_path, run)
    traces = _spy_on_calls(monkeypatch, core, "trace")
    checks = _spy_on_calls(monkeypatch, flows, "check_det_condition")
    test_verify_output_bytes_match_the_pinned_digest(tmp_path, run)
    assert traces == []
    assert checks == []


# ---------------------------------------------------------------------------
# traced per-sample evaluations


def _catalog_flow(map_id, params):
    """A fresh catalog flow, not the one ``maps.build_flow`` kept."""
    maps._flow.cache_clear()
    return maps.build_flow(map_id, params)


def _start_and_span(flow, point):
    """A quadrature run's non-time start and span: the source point of its
    image point, and a quarter unit of time from there."""
    x = flow.map.inverse(point)
    t = flow.time_index - 1
    return x[:t] + x[t + 1 :], (x[t], x[t] + 0.25)


# every catalog run, every quadrature flow and squash∘kdv3: a builder of a
# fresh flow, and the non-time start and span of its 21 samples, or for a
# quadrature flow its image point and None
EVALUATION_RUNS = {
    **{
        run: (partial(_catalog_flow, map_id, params), x0, t_range)
        for run, (map_id, params, x0, t_range) in CATALOG_FLOWS.items()
    },
    **{
        f"quadrature-{run}": (build, point, None)
        for run, (build, point, _) in QUADRATURE_FLOWS.items()
    },
    "squash-kdv3": LEVEL_FLOWS["squash-kdv3"],
}


def _evaluations(flow, sources, images):
    """What the flow's image and image time column give at each source
    point, then what its Hamiltonian values give at each image point
    (``_result_or_error``), each with the quadrature panels and integrand
    calls the call charged."""
    counts = flow.quadrature

    def charged(fn, x):
        before = counts and dataclasses.astuple(counts)
        out = _result_or_error(fn, x)
        if counts is None:
            return out
        return out, tuple(a - b for a, b in zip(dataclasses.astuple(counts), before))

    return (
        [charged(flow.image, x) for x in sources]
        + [charged(flow.image_time_column, x) for x in sources]
        + [charged(flow.hamiltonian_values, x) for x in images]
    )


@pytest.mark.parametrize("run", EVALUATION_RUNS)
def test_traced_evaluations_are_bitwise_the_plain_ones(monkeypatch, run):
    build, x0, t_range = EVALUATION_RUNS[run]
    flow = build()  # which solves for the path, on a level set or not
    if t_range is None:
        x0, t_range = _start_and_span(flow, x0)
    x_start = harness.source_start(flow, x0, t_range[0])
    times = harness._sample_times(*t_range, harness.DEFAULT_SAMPLES)
    path, _ = harness._source_path(flow, x_start, times)
    images = [flow.map.forward(x) for x in path]
    flow = build()
    rng = random.Random(f"evaluations:{run}")
    sources = path + _points_with_exact_coordinates(x_start, rng)
    images += _points_with_exact_coordinates(images[0], rng)
    # a point one coordinate short is refused by the Hamiltonians as ever
    images.append((1.0,) * (flow.map.dimension - 1))
    if flow.map.name == "kdv3":
        sources.append((-1.0, 1.0, 0.0))  # where 1+xy+xy^2z vanishes
        images.append((1.0, -0.5, 1.0000000000001))  # where 1+XY+X^2YZ does
    kept = _spy_on_traces(monkeypatch)
    traced = _evaluations(flow, sources, images)
    assert kept == [True, True, True]
    with monkeypatch.context() as patch:
        patch.setattr(core, "trace", lambda fn, n: None)
        untraced = _evaluations(build(), sources, images)
    assert traced == untraced


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
    traj_x = flows.integrate(
        lambda x: flows.source_rhs(fl, x), x0, t0, t1, t_eval=t_eval
    )
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


# ---------------------------------------------------------------------------
# committed mutants


def _rewritten(marker, rewrite):
    """A mutation that compiles each generated source holding ``marker``
    through ``rewrite``."""

    def mutate(monkeypatch):
        compile_source = core._exec
        monkeypatch.setattr(
            core, "_exec", lambda s: compile_source(rewrite(s) if marker in s else s)
        )

    return mutate


def _bare(source):
    """The source with the parentheses of each arithmetic line dropped, as
    if single-use values were written into their readers without them;
    a line that calls a function is left as it is."""

    def drop(line):
        head, expr = line[1], line[2]
        if re.search(r"\w\(", expr):
            return line[0]
        return head + expr.replace("(", "").replace(")", "")

    return re.sub(r"^( +v\d+ = )(.*)$", drop, source, flags=re.MULTILINE)


def _without(pattern):
    """A rewrite that deletes each match of ``pattern``."""
    return lambda source: re.sub(pattern, "", source)


def _recorded_as(change):
    """A mutation that records each tape line as ``change(form, reads,
    droppable)`` gives it."""

    def mutate(monkeypatch):
        record = core._Tape.record
        monkeypatch.setattr(
            core._Tape, "record", lambda tape, *line: record(tape, *change(*line))
        )

    return mutate


def _check_droppable(form, reads, droppable=False):
    return form, reads, droppable or form.startswith("if ")


def _power_droppable(form, reads, droppable=False):
    return form, reads, droppable or form == "{} ** {}"


def _power_commuted(form, reads, droppable=False):
    if form == "{} ** {}" and reads[1] < reads[0]:
        reads = reads[::-1]
    return form, reads, droppable


def _every_traced_velocity_is_the_jet_kernel(monkeypatch):
    for run in TRACED_FLOWS:
        test_a_traced_velocity_is_bitwise_the_jet_kernel(run)


def _every_overflow_is_the_jet_kernel(monkeypatch):
    for run in TRACED_FLOWS:
        test_a_traced_velocity_is_the_jet_kernel_where_intermediates_overflow(run)


def _every_non_finite_stage_state_is_refused(monkeypatch):
    test = test_a_non_finite_stage_state_is_refused_as_nambu_rhs_refuses_it
    for *case, _ in NON_FINITE_RUNS:
        test([], *case, None)


def _kdv3_takes_every_point_as_the_reference(monkeypatch):
    test_nambu_rhs_takes_every_point_as_its_reference_check_does(
        monkeypatch, lambda _: maps.build_flow("kdv3"), (1.1, 0.9, 1.2), True
    )


def _checks_decide_as_the_kernel_at_the_cutoff(monkeypatch):
    # _checked_flow keeps the flows it traced: these are traced afresh
    fresh = functools.lru_cache(maxsize=None)(_checked_flow.__wrapped__)
    monkeypatch.setitem(globals(), "_checked_flow", fresh)
    decide = test_inline_checks_decide_as_the_jet_kernel_at_the_guard_cutoff
    for run in GUARDED_RUNS:
        for image in (True, False):
            decide.hypothesis.inner_test(run, image, [0.0, 0.0, 0.0])


_nesting_proof = (
    test_core.test_a_single_use_chain_longer_than_the_nesting_bound_compiles
)
_power_proof = test_core.test_a_traced_int_power_replays_the_float_power_bit_for_bit
_stage_proof = test_a_compiled_step_takes_an_rhs_result_in_any_form

TRACED = "def traced(x):"
CHECKED = "def checked(point):"
STEP = "def step(rhs, y, h, k0):"

# a broken generator, and the proof check that must fail on it
MUTANTS = {
    "inlined-without-parentheses": (
        _rewritten(TRACED, _bare),
        _every_traced_velocity_is_the_jet_kernel,
        AssertionError,
    ),
    "no-nesting-bound": (
        lambda patch: patch.setattr(core, "_INLINE_DEPTH", 10**6),
        lambda _: _nesting_proof(),
        SyntaxError,
    ),
    "pole-check-strict": (
        _rewritten(TRACED, lambda s: s.replace(" <= ", " < ")),
        _checks_decide_as_the_kernel_at_the_cutoff,
        AssertionError,
    ),
    "finiteness-of-the-first-value-only": (
        _rewritten(TRACED, _without(r" and isfinite\(\w+\)")),
        _every_overflow_is_the_jet_kernel,
        AssertionError,
    ),
    "no-fallback": (
        _rewritten(TRACED, lambda s: s.replace("return fallback(x)", "raise")),
        _every_overflow_is_the_jet_kernel,
        AssertionError,
    ),
    "droppable-power": (
        _recorded_as(_power_droppable),
        lambda _: _power_proof(),
        AssertionError,
    ),
    "commuted-power": (
        _recorded_as(_power_commuted),
        lambda _: _power_proof(),
        AssertionError,
    ),
    "point-finiteness-unchecked": (
        _rewritten(CHECKED, _without(r" and isfinite\(x\d+\)")),
        _kdv3_takes_every_point_as_the_reference,
        AssertionError,
    ),
    "point-item-class-unchecked": (
        _rewritten(CHECKED, _without(r"x\d+\.__class__ is float and ")),
        _kdv3_takes_every_point_as_the_reference,
        AssertionError,
    ),
    # a check line assigns no name, so only its kind keeps it
    "droppable-check": (
        _recorded_as(_check_droppable),
        _checks_decide_as_the_kernel_at_the_cutoff,
        AssertionError,
    ),
    "stage-state-finiteness-of-the-first-component-only": (
        _rewritten(STEP, _without(r" and isfinite\(s_\d+\)")),
        _every_non_finite_stage_state_is_refused,
        AssertionError,
    ),
    "stage-item-class-unchecked": (
        _rewritten(STEP, _without(r" and k\d+\[\d+\]\.__class__ is float")),
        lambda _: _stage_proof("rk4", 2, "float64"),
        AssertionError,
    ),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_each_committed_mutant_fails_its_proof_check(monkeypatch, mutant):
    mutate, proof, error = MUTANTS[mutant]
    mutate(monkeypatch)
    with pytest.raises(error):
        proof(monkeypatch)
