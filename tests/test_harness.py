"""Harness tests: correspondence, scans, composition, determinism."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from mapflow import chain1d, core, flows, harness, maps
from mapflow.errors import ConfigError, LevelSetError, MapflowError, SingularPointError
from reference import kdv2_hamiltonian_source, squash_kdv3


def test_verify_kdv3_passes():
    report = harness.verify_correspondence(
        "kdv3", x0=(1.1, 0.9), t_range=(1.0, 2.0)
    )
    assert report.passed
    assert report.max_deviation < 1e-6
    assert len(report.sample_times) >= 20
    assert all(d <= 1e-8 for d in report.ham_drift)


def test_verify_henon_passes():
    report = harness.verify_correspondence(
        "henon", {"b": 1.0, "c": 0.0}, x0=(1.0,), t_range=(0.0, 2.0)
    )
    assert report.passed
    assert report.max_deviation < 1e-6


def test_verify_rejects_full_state_with_time_slot():
    # t0 fills the time slot, so a value there would be silently discarded
    with pytest.raises(ValueError, match="exactly 1 non-time coordinates"):
        harness.verify_correspondence(
            "henon", {"b": 1.0, "c": 0.0}, x0=(1.0, 99.0), t_range=(0.0, 1.0)
        )


def test_verify_rejects_wrong_state_length():
    with pytest.raises(ValueError):
        harness.verify_correspondence(
            "kdv3", x0=(1.0, 1.0, 1.0, 1.0), t_range=(1.0, 2.0)
        )


def test_verify_broken_hamiltonian_fails():
    good = maps.build_flow("henon", {"b": 1.0, "c": 0.0})
    broken = flows.FlowSystem(
        map=good.map,
        time_index=good.time_index,
        hamiltonians=(lambda s: s[0] * s[0],),  # wrong: drops the Y term
        det_j_field=good.det_j_field,
    )
    report = harness.verify_correspondence(
        "henon",
        {"b": 1.0, "c": 0.0},
        x0=(1.0,),
        t_range=(0.0, 2.0),
        flow=broken,
    )
    assert not report.passed
    assert report.max_deviation > 1e-3


def test_verify_source_constrained_maps():
    hermite = harness.verify_correspondence(
        "hermite", {"m": 2}, x0=(2.5,), t_range=(0.5, 2.0)
    )
    assert hermite.passed
    kdv2 = harness.verify_correspondence(
        "kdv2", {"r": 2.0}, x0=(1.0,), t_range=(1.0, 2.0)
    )
    assert kdv2.passed


def test_verify_report_is_deterministic():
    kwargs = dict(params={"b": 1.0, "c": 0.0}, x0=(1.0,), t_range=(0.0, 2.0))
    a = harness.verify_correspondence("henon", **kwargs)
    b = harness.verify_correspondence("henon", **kwargs)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
        b.to_dict(), sort_keys=True
    )


def test_verify_twenty_random_initial_states_per_unconstrained_map():
    rng = np.random.default_rng(42)
    cases = [
        ("henon", {"b": 1.0, "c": 0.0}, 1, (0.0, 1.0)),
        ("kdv3", None, 2, (1.0, 1.6)),
        ("qp4", {"a": 1.0, "b": 1.0, "c": 1.0}, 2, (1.0, 1.6)),
    ]
    for map_id, params, n_free, t_range in cases:
        for _ in range(20):
            x0 = tuple(rng.uniform(0.5, 1.5, n_free))
            report = harness.verify_correspondence(
                map_id, params, x0=x0, t_range=t_range
            )
            assert report.passed, (map_id, x0, report.max_deviation)


# ---------------------------------------------------------------------------
# scans


def test_scan_single_point_reduces_to_verify():
    scan = harness.conservation_scan(
        "kdv3", grid=((1.1, 1.1, 1), (0.9, 0.9, 1)), t_range=(1.0, 2.0)
    )
    direct = harness.verify_correspondence("kdv3", x0=(1.1, 0.9), t_range=(1.0, 2.0))
    assert scan.summary["points"] == 1
    assert scan.results[0]["passed"] == direct.passed
    assert scan.results[0]["max_deviation"] == pytest.approx(
        direct.max_deviation, rel=1e-12
    )


def test_scan_kdv3_grid_all_pass():
    scan = harness.conservation_scan(
        "kdv3", grid=((0.5, 1.5, 3), (0.5, 1.5, 3)), t_range=(1.0, 2.0)
    )
    assert scan.summary["all_passed"]
    assert scan.summary["points"] == 9
    assert scan.summary["max_drift"] < 1e-7


def test_scan_classifies_its_flow_once(monkeypatch):
    calls = []
    check = flows.check_det_condition

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(flows, "check_det_condition", counted)
    scan = harness.conservation_scan(
        "kdv3", grid=((0.5, 1.5, 3), (0.5, 1.5, 3)), t_range=(1.0, 2.0)
    )
    assert scan.summary["points"] == 9
    assert len(calls) == 1


def test_a_second_scan_reuses_its_flow(monkeypatch):
    grid = ((0.5, 1.5, 3), (0.5, 1.5, 3))
    first = harness.conservation_scan("kdv3", grid=grid, t_range=(1.0, 2.0))
    calls = []
    check = flows.check_det_condition
    monkeypatch.setattr(
        flows, "check_det_condition", lambda *args: calls.append(args) or check(*args)
    )
    second = harness.conservation_scan("kdv3", grid=grid, t_range=(1.0, 2.0))
    assert calls == []
    assert second.to_dict() == first.to_dict()


def test_scan_qp4_unit_parameters():
    scan = harness.conservation_scan(
        "qp4",
        {"a": 1.0, "b": 1.0, "c": 1.0},
        grid=((0.8, 1.2, 2), (0.8, 1.2, 2)),
        t_range=(1.0, 1.5),
    )
    assert scan.summary["all_passed"]


def test_scan_records_per_point_failures_and_continues():
    # the (-0.9, 0.2) start drives the lattice trajectory into a pole as z
    # sweeps; the positive start must still pass
    scan = harness.conservation_scan(
        "kdv3",
        grid=((-0.9, 1.0, 2), (0.2, 0.2, 1)),
        t_range=(1.0, 2.0),
    )
    assert scan.summary["points"] == 2
    assert scan.results[0]["error"] is not None
    assert not scan.results[0]["passed"]
    assert scan.results[1]["passed"]
    assert not scan.summary["all_passed"]


def test_scan_records_a_division_by_zero_and_continues():
    # at this start the m=3 chain Hamiltonian divides by y - x = 0
    scan = harness.conservation_scan(
        "hermite",
        {"m": 3},
        grid=((2.5, 94101122.9678407, 2),),
        t_range=(-2.5003391910984307, -2.500260355881004),
    )
    assert [r["point"] for r in scan.results] == [[2.5], [94101122.9678407]]
    assert scan.results[0]["passed"]
    assert scan.results[1]["error"].startswith(
        "SingularPointError: singular point in hermite[m=3]: a denominator of H1 "
    )
    assert scan.summary["failed"] == 1


def test_verify_refuses_a_pole_on_the_source_path_before_integrating(velocity_calls):
    # the forward guard 1+xy+xy^2z is linear in the time slot z and
    # vanishes between the second and third sample times; integrating into
    # that pole would burn the whole step budget
    with pytest.raises(SingularPointError) as exc_info:
        harness.verify_correspondence(
            "kdv3", x0=(32.07364999713352, 0.7720383563118013), t_range=(-1.356, -1.242)
        )
    err = exc_info.value
    assert err.label == "1+xy+xy^2z"
    times = harness._sample_times(-1.356, -1.242, harness.DEFAULT_SAMPLES)
    assert err.between == (times[1], times[2])
    assert velocity_calls == []


def test_verify_refuses_a_pole_on_the_source_path_when_untraced(
    monkeypatch, velocity_calls
):
    monkeypatch.setattr(core, "trace", lambda fn, n: None)
    test_verify_refuses_a_pole_on_the_source_path_before_integrating(velocity_calls)


def test_scan_grid_axes_end_exactly_on_hi():
    # the plain formula gives 0.8999999999999999 and 1.6999999999999997
    points = harness._grid_points(((0.2, 0.9, 5), (0.3, 1.7, 4), (1.0, 9.0, 1)))
    assert points[-1] == (0.9, 1.7, 1.0)
    assert points[0] == (0.2, 0.3, 1.0)
    assert len(points) == 20


@pytest.mark.parametrize(
    "grid, axis",
    [
        (((1e6, 1000000.000000001, 21), (1.0, 1.0, 1)), 1),
        (((0.5, 1.5, 3), (1.0, 1.0, 2)), 2),
    ],
)
def test_scan_grid_axis_with_repeated_points_is_refused(grid, axis):
    # 21 points over a span of about eight ulps repeat; so do two points
    # over an empty span
    with pytest.raises(ValueError, match=f"grid axis {axis} from .* distinct points"):
        harness._grid_points(grid)


def test_scan_deterministic_and_order_stable():
    grid = ((0.6, 1.4, 3), (0.7, 1.3, 2))
    a = harness.conservation_scan("kdv3", grid=grid, t_range=(1.0, 1.5))
    b = harness.conservation_scan("kdv3", grid=grid, t_range=(1.0, 1.5))
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
        b.to_dict(), sort_keys=True
    )


# ---------------------------------------------------------------------------
# composition checks


def test_composition_single_step_reduces_to_plain_check():
    report = harness.composition_check("henon", {"b": 1.3, "c": 0.2}, steps=1)
    assert report.det_ok
    assert report.det_composite == pytest.approx(1.3, rel=1e-12)
    assert report.passed


@pytest.mark.parametrize(
    "map_id,params",
    [
        ("henon", {"b": 1.3, "c": 0.4}),
        ("kdv3", None),
        ("kdv2", {"r": 2.0}),
        ("qp4", {"a": 2.0, "b": 1.0, "c": 1.0}),
        ("hermite", None),
    ],
)
@pytest.mark.parametrize("steps", [2, 3, 5])
def test_composition_det_multiplicativity(map_id, params, steps):
    report = harness.composition_check(map_id, params, steps=steps)
    assert report.det_ok, report.det_rel_err
    assert report.det_rel_err <= 1e-8


def test_composition_henon_hamiltonian_conservation():
    for steps in (2, 3):
        report = harness.composition_check(
            "henon", {"b": 1.0, "c": 0.0}, steps=steps, x0=(0.3, 0.7)
        )
        assert report.ham_ok
        assert report.ham_drift <= 1e-7


def test_composition_hermite_three_index_flow():
    report = harness.composition_check("hermite", steps=2)
    assert report.ham_ok
    assert report.ham_drift <= 1e-7
    assert report.passed


def test_composition_hermite_constrained_correspondence():
    # the composite chain flow reproduces the chain only along x = c/y^2 + 1/y
    report = harness.verify_correspondence(
        "hermite", {"m": 3}, x0=(42.0,), t_range=(0.5, 2.0)
    )
    assert report.passed


# ---------------------------------------------------------------------------
# qp4 normalization oracle


def test_qp4_oracle_selects_determinant_scaling():
    report = harness.qp4_normalization_report(2.0, 1.0, 1.0)
    assert report.winner == "prop2"
    assert report.decisive
    assert report.residuals["prop2"] <= 1e-5
    # the truth is the exact time column of the Jacobian
    assert report.residuals["prop2"] <= 1e-12
    assert report.residuals["paper-display"] > 1e-5
    # the explicit velocity formulas agree with the winning flow
    assert report.display_formula_residual <= 1e-5


def test_qp4_oracle_report_is_unchanged_by_shared_flows():
    # the residuals of flows built by maps.qp4_flow before build_flow kept
    # its flows; integer parameters resolve to the same floats
    for args in ((2, 1, 1), (2.0, 1.0, 1.0)):
        report = harness.qp4_normalization_report(*args)
        assert report.residuals == {
            "prop2": 2.85202273637453e-16,
            "paper-display": 0.5308369904765438,
        }
        assert report.winner == "prop2"
        assert report.decisive


def test_qp4_oracle_not_decisive_at_unit_q():
    report = harness.qp4_normalization_report(1.0, 1.0, 1.0)
    assert not report.decisive  # both candidates coincide when q = 1


@pytest.mark.parametrize("n_states", [0, -3])
def test_chain_suite_refuses_no_states(n_states):
    with pytest.raises(ValueError, match="n_states must be at least 1"):
        harness.chain_suite(n_states=n_states)


def test_chain_suite_passes():
    suite = harness.chain_suite(m=2, a=0.0, c=0.0, n_states=10)
    assert suite["passed"]
    suite3 = harness.chain_suite(m=3, a=0.5, c=0.0, n_states=10)
    assert suite3["passed"]


@pytest.mark.parametrize("m", [2, 3])
def test_chain_suite_hamilton_check_is_exact(m):
    suite = harness.chain_suite(m=m)
    assert suite["hamilton_ok"] is True
    assert suite["hamilton_max_rel_err"] <= 1e-12


def test_chain_suite_keeps_a_nan_error_in_its_maximum(monkeypatch):
    verify = chain1d.verify_chain_hamilton
    reports = []

    def third_state_nan(spec, state):
        rep = verify(spec, state)
        reports.append(rep)
        return dataclasses.replace(rep, dh_dp=math.nan) if len(reports) == 3 else rep

    monkeypatch.setattr(chain1d, "verify_chain_hamilton", third_state_nan)
    suite = harness.chain_suite(m=4)
    assert len(reports) == suite["states"]
    assert math.isnan(suite["gradient_identity_max_rel_err"])
    assert suite["gradient_identity_ok"] is False
    assert suite["passed"] is False


# ---------------------------------------------------------------------------
# the level-set oracle of the constrained maps


def _level_set(map_id, params, x0, t_range):
    flow = maps.build_flow(map_id, params)
    times = harness._sample_times(*t_range, harness.DEFAULT_SAMPLES)
    x_start = harness.source_start(flow, x0, t_range[0])
    path, oracle = harness._level_set_path(flow, x_start, times)
    return flow, x_start, times, path, oracle


# the m=3 Hamiltonian reads X - Y = 2/(x - 1/y), a difference of nearly
# equal numbers, so G itself is only known to a few parts in 1e12 there
# (2.9e-12 measured; the m=2 path lands within 1e-14)
@pytest.mark.parametrize("m,tol", [(2, 1e-12), (3, 5e-12)])
def test_level_set_path_follows_the_hermite_constraint_curve(m, tol):
    c = 10.0
    x0 = maps.hermite_source_constraint(m, c, 0.5)
    _, _, times, path, oracle = _level_set("hermite", {"m": m}, (x0,), (0.5, 2.0))
    for t, (x, y) in zip(times, path):
        assert y == t
        want = maps.hermite_source_constraint(m, c, t)
        assert abs(x - want) <= tol * abs(want)
    assert oracle["method"] == "level-set"
    assert oracle["max_residual"] <= 1e-12


def test_level_set_path_keeps_the_kdv2_source_hamiltonian():
    _, _, _, path, _ = _level_set("kdv2", {"r": 2.0}, (1.0,), (1.0, 2.0))
    ham = kdv2_hamiltonian_source(2.0)
    values = [ham(point) for point in path]
    assert max(abs(v - values[0]) for v in values) <= 1e-13


@pytest.mark.parametrize(
    "map_id,params,x0,t_range",
    [
        ("hermite", {"m": 3}, (42.0,), (0.5, 2.0)),
        ("kdv2", {"r": 2.0}, (1.0,), (1.0, 2.0)),
    ],
)
def test_level_set_path_agrees_with_the_integrated_source_path(
    map_id, params, x0, t_range
):
    flow, x_start, times, path, _ = _level_set(map_id, params, x0, t_range)
    cfg = flows.IntegratorConfig(rel_tol=1e-12)
    traj = flows.integrate(
        lambda x: flows.source_rhs(flow, x), x_start, *t_range, cfg=cfg, t_eval=times
    )
    for got, want in zip(path, traj.states):
        assert harness._relative_deviation(got, want) <= 1e-9


@pytest.mark.parametrize(
    "map_id,params,x0,t_range",
    [
        ("kdv3", None, (1.1, 0.9), (1.0, 2.0)),
        ("qp4", {"a": 2.0, "normalization": "prop2"}, (1.0, 1.1), (1.0, 1.5)),
    ],
)
def test_level_set_path_of_an_unconstrained_map_moves_only_time(
    map_id, params, x0, t_range
):
    # two Hamiltonians, so each Newton step solves a 2x2 system
    flow, x_start, times, path, _ = _level_set(map_id, params, x0, t_range)
    for t, point in zip(times, path):
        assert point[2] == t
        assert max(abs(p - q) for p, q in zip(point[:2], x_start[:2])) <= 1e-13


def test_constrained_verify_integrates_no_source_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the source path was integrated")

    monkeypatch.setattr(flows, "source_rhs", refuse)
    for map_id, params, x0, t_range in [
        ("hermite", {"m": 3}, (42.0,), (0.5, 2.0)),
        ("kdv2", {"r": 2.0}, (1.0,), (1.0, 2.0)),
    ]:
        report = harness.verify_correspondence(map_id, params, x0=x0, t_range=t_range)
        assert report.passed
        assert report.oracle["method"] == "level-set"
        assert report.oracle["newton_iterations"] >= harness.DEFAULT_SAMPLES


def test_unconstrained_verify_and_scan_record_the_time_slot_oracle():
    report = harness.verify_correspondence("kdv3", x0=(1.1, 0.9), t_range=(1.0, 2.0))
    assert report.oracle == {"method": "time-slot"}
    scan = harness.conservation_scan(
        "kdv3", grid=((-0.9, 1.1, 2), (0.9, 0.9, 1)), t_range=(1.0, 2.0)
    )
    assert [r["oracle"] for r in scan.results] == [None, {"method": "time-slot"}]
    scan = harness.conservation_scan("kdv2", grid=((1.0, 1.0, 1),), t_range=(1.0, 2.0))
    assert scan.results[0]["oracle"]["method"] == "level-set"


@pytest.mark.parametrize(
    "map_id,params,x0,t_range,method",
    [
        ("hermite", {"m": 2}, (2.5,), (0.5, 1.0), "level-set"),
        ("hermite", {"m": 3}, (42.0,), (0.5, 1.0), "level-set"),
        ("kdv2", {"r": 2.0}, (1.0,), (1.0, 2.0), "level-set"),
        ("henon", {"b": 1.0, "c": 0.0}, (1.0,), (0.0, 1.0), "time-slot"),
        ("kdv3", None, (1.1, 0.9), (1.0, 1.3), "time-slot"),
        ("qp4", None, (1.0, 1.0), (1.0, 1.5), "time-slot"),
        ("qp4", {"a": 2.0, "normalization": "prop2"}, (1.0, 1.0), (1.0, 1.5),
         "time-slot"),
    ],
    ids=["hermite-m2", "hermite-m3", "kdv2", "henon", "kdv3", "qp4", "qp4-prop2"],
)
def test_oracle_follows_the_determinant_condition_of_each_catalog_map(
    map_id, params, x0, t_range, method
):
    report = harness.verify_correspondence(map_id, params, x0=x0, t_range=t_range)
    assert report.passed
    assert report.oracle["method"] == method


# rk4 with a coarse step keeps the quadrature-built flows to a few rhs calls
COARSE = flows.IntegratorConfig(method="rk4", step=0.05)


def test_flow_from_source_follows_the_level_set_of_a_flow_outside_the_catalog():
    # det J = 1/y^2 depends on the time slot y; the quadrature Hamiltonian
    # from x = 0 is x/y^2 over the source, so the path is x = c y^2
    flow = flows.build_hamiltonians(
        maps.hermite_chain(2), ref_point=(0.0, 1.0), check=False
    )
    c = 10.0
    x0 = maps.hermite_source_constraint(2, c, 0.5)
    path, oracle, traj = harness.flow_from_source(flow, (x0,), 0.5, 0.6, COARSE, 3)
    assert oracle["method"] == "level-set"
    for t, (x, y) in zip(traj.times, path):
        assert y == t
        assert abs(x - c * t * t) <= 1e-9 * c * t * t


def test_level_set_newton_solves_for_two_free_slots(monkeypatch):
    # squashing z before kdv3 makes det J = 1/(1+z)^2 depend on the time
    # slot, so the oracle's Newton moves x and y, reading its step off the
    # minors of two rows [dG_j/dx, dG_j/dy, G_j]
    flow = flows.build_hamiltonians(squash_kdv3(), check=False)
    sizes = []
    minors = harness.minors

    def recorded(rows):
        sizes.append(len(rows))
        return minors(rows)

    monkeypatch.setattr(harness, "minors", recorded)
    report = harness.verify_correspondence(
        "kdv3", x0=(1.1, 0.9), t_range=(1.0, 2.0), flow=flow
    )
    assert report.passed
    assert report.max_deviation <= 1e-9
    assert report.oracle["method"] == "level-set"
    assert report.oracle["max_residual"] <= 1e-12
    assert len(sizes) == report.oracle["newton_iterations"] >= harness.DEFAULT_SAMPLES
    assert set(sizes) == {2}


# seeded inputs of the numeric-hamiltonians benchmark workload (seed 1) and
# the quadrature work each verify takes: one panel per Hamiltonian
# evaluation, in the rhs, the samples and the level-set Newton alike
QUADRATURE_RUNS = {
    "henon": ("henon", {"b": 1.0, "c": 0.0}, {}, (0.9238206533199387,),
              (0.0, 1.9609375), 46, 690),
    "hermite2": ("hermite", {"m": 2}, {"ref_point": (0.0, 1.0), "check": False},
                 (2.6060594742725938,), (0.5, 2.01953125), 628, 9420),
    "qp4": ("qp4", {"a": 1.0, "b": 1.0, "c": 1.0}, {},
            (0.9830775806907704, 0.9653013970127101), (1.0, 1.9921875), 124, 1860),
    "kdv3": ("kdv3", None, {}, (1.1415011635716705, 0.907405443945036),
             (1.0, 1.3125), 70, 1050),
}


@pytest.mark.parametrize("run", QUADRATURE_RUNS.values(), ids=QUADRATURE_RUNS)
def test_verify_reports_the_quadrature_work_of_the_whole_call(run):
    map_id, params, build, x0, t_range, panels, calls = run
    flow = flows.build_hamiltonians(maps.build_map(map_id, params), **build)
    reports = [
        harness.verify_correspondence(map_id, params, x0=x0, t_range=t_range, flow=flow)
        for _ in range(2)
    ]
    # per call, not running totals: a second identical call reads the same
    for report in reports:
        assert report.passed
        assert report.quadrature == {"panels": panels, "integrand_calls": calls}
        assert report.to_dict()["quadrature"] == report.quadrature


@pytest.mark.parametrize("run", QUADRATURE_RUNS.values(), ids=QUADRATURE_RUNS)
def test_a_quadrature_flow_is_traced_and_reports_the_same_work(monkeypatch, run):
    # the trace evaluates the Hamiltonians once more but charges no panel,
    # and a point that re-runs through the kernel is charged once
    map_id, params, build, x0, t_range, panels, calls = run
    reports = []
    for untraced in (True, False):
        with monkeypatch.context() as patch:
            if untraced:  # every trace abandoned, as for a flow that keeps its kernel
                patch.setattr(core, "trace", lambda fn, n: None)
            flow = flows.build_hamiltonians(maps.build_map(map_id, params), **build)
            report = harness.verify_correspondence(
                map_id, params, x0=x0, t_range=t_range, flow=flow
            )
        reports.append(repr(report.to_dict()))
    assert report.quadrature == {"panels": panels, "integrand_calls": calls}
    assert flow.velocity is not flow.jet_velocity
    # bit for bit: repr round-trips every float of the report
    assert reports[0] == reports[1]


def test_a_closed_form_flow_reports_no_quadrature():
    report = harness.verify_correspondence("kdv3", x0=(1.1, 0.9), t_range=(1.0, 1.2))
    assert report.quadrature is None
    assert "quadrature" not in report.to_dict()


def test_flow_from_source_moves_only_the_time_slot_when_det_j_is_constant():
    flow = flows.build_hamiltonians(maps.kdv3(), time_index=1)
    path, oracle, _ = harness.flow_from_source(flow, (0.9, 1.1), 1.0, 1.1, COARSE, 3)
    assert oracle == {"method": "time-slot"}
    assert [p[1:] for p in path] == [(0.9, 1.1)] * 3
    assert [p[0] for p in path] == harness._sample_times(1.0, 1.1, 3)


def test_flow_from_source_refuses_the_hermite_pole_before_integrating(velocity_calls):
    # the chain carries its step's forward guard y, which crosses zero
    # between the tenth and eleventh samples of x = 2 y^2
    flow = maps.build_flow("hermite", {"m": 2})
    cfg = flows.IntegratorConfig(max_steps=3000)
    with pytest.raises(SingularPointError) as exc_info:
        harness.flow_from_source(flow, (2.0,), -1.0, 1.1, cfg, harness.DEFAULT_SAMPLES)
    err = exc_info.value
    assert err.label == "y"
    assert err.between[0] < 0.0 < err.between[1]
    assert velocity_calls == []


@pytest.mark.parametrize(
    "map_id, params, grid",
    [
        ("kdv3", None, ((1.0, 1.2, 2),)),
        ("kdv3", None, ((1.0, 1.2, 2), (0.9, 1.0, 1), (5.0, 7.0, 2))),
        ("hermite", {"m": 2}, ((1.5, 2.5, 2), (0.5, 0.5, 1))),
    ],
)
def test_scan_refuses_a_grid_with_the_wrong_number_of_axes(
    monkeypatch, map_id, params, grid
):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)

    monkeypatch.setattr(harness, "verify_correspondence", counted)
    axes = maps.build_flow(map_id, params).map.dimension - 1
    with pytest.raises(ValueError) as exc_info:
        harness.conservation_scan(map_id, params, grid=grid, t_range=(1.0, 1.5))
    assert str(exc_info.value) == (
        f"grid needs exactly {axes} axes, one per non-time coordinate, got {len(grid)}"
    )
    assert calls == []


def test_scan_with_a_configuration_error_raises_before_any_point():
    with pytest.raises(ConfigError, match="needs normalization"):
        harness.conservation_scan(
            "qp4", {"a": 2.0}, grid=((0.9, 1.1, 2), (0.9, 1.1, 1)), t_range=(1.0, 1.2)
        )


def test_level_set_solve_that_does_not_converge_is_named(monkeypatch):
    monkeypatch.setattr(harness, "LEVEL_SET_MAX_ITERATIONS", 1)
    with pytest.raises(LevelSetError) as exc_info:
        harness.verify_correspondence(
            "hermite", {"m": 3}, x0=(42.0,), t_range=(0.5, 2.0)
        )
    err = exc_info.value
    times = harness._sample_times(0.5, 2.0, harness.DEFAULT_SAMPLES)
    assert err.time == times[1]  # the start is on its own level set
    assert err.point[1] == times[1]


def test_a_non_finite_newton_step_is_a_level_set_error(monkeypatch):
    # H = 1e307 x / y^2 along the two-step chain overflows at y = 0.1
    flow = flows.flow_system(
        maps.hermite_chain(2), (lambda s: 1e307 * s[0] * (s[0] - s[1]) ** 2,)
    )
    assert not flow.det_condition.passed  # so the source path is a level set
    at_last_time = []
    jet_values_rows = core.jet_values_rows

    def recorded(func, coords):
        at_last_time.append(coords[1] == 0.1)
        return jet_values_rows(func, coords)

    monkeypatch.setattr(core, "jet_values_rows", recorded)
    with pytest.raises(LevelSetError) as exc_info:
        harness.flow_from_source(flow, (1.0,), 0.5, 0.1, COARSE, 3)
    assert exc_info.value.time == 0.1
    assert at_last_time.count(True) == 1  # the first non-finite step stops it


def test_a_non_finite_newton_step_in_traced_code_is_a_level_set_error(monkeypatch):
    # the flow of the test above, its level function traced: each step is
    # read off the minors, which spy on no traced value
    flow = flows.flow_system(
        maps.hermite_chain(2), (lambda s: 1e307 * s[0] * (s[0] - s[1]) ** 2,)
    )
    finite = []
    minors = harness.minors

    def recorded(rows):
        *nums, d = out = minors(rows)
        finite.append(all(math.isfinite(c / d) for c in nums))
        return out

    monkeypatch.setattr(harness, "minors", recorded)
    with pytest.raises(LevelSetError) as exc_info:
        harness.flow_from_source(flow, (1.0,), 0.5, 0.1, COARSE, 3)
    assert exc_info.value.time == 0.1
    assert flow.level.__code__.co_filename == "<trace>"
    # the first non-finite step stops it
    assert finite.count(False) == 1 and finite[-1] is False


def _one_dimensional(name, forward, inverse, det_j):
    return core.MapDescriptor(
        name=name, dimension=1, params={}, forward_fn=forward,
        inverse_fn=inverse, det_j=det_j,
    )


def test_a_one_dimensional_flow_runs_the_level_set_oracle():
    # no Hamiltonians (so no inverse is read): the flow is dX/dt = 1 and the
    # Newton step has no free slot to move, so the level-set oracle takes one
    # iteration a time; the catalog id is not read
    cube = _one_dimensional(
        "cube", lambda s: (s[0] ** 3 + s[0],), lambda s: s,
        lambda s: 3 * s[0] ** 2 + 1,
    )
    report = harness.verify_correspondence(
        "henon", x0=(), t_range=(1.0, 2.0), flow=flows.flow_system(cube, ())
    )
    assert report.oracle["method"] == "level-set"
    assert report.oracle["newton_iterations"] == harness.DEFAULT_SAMPLES
    # X = x^3 + x does not move at unit speed, so the flow does not retrace it
    assert not report.passed
    assert report.max_deviation > 0.5

    shift = _one_dimensional(
        "shift", lambda s: (s[0] + 0.5,), lambda s: (s[0] - 0.5,), lambda s: 1.0
    )
    report = harness.verify_correspondence(
        "henon", x0=(), t_range=(1.0, 2.0), flow=flows.flow_system(shift, ())
    )
    assert report.passed
    assert report.oracle["method"] == "time-slot"


def test_a_report_names_the_map_of_the_flow_it_verifies():
    # a shear that is in no catalog: its id would be an UnknownMapError, and
    # a borrowed catalog id and its params are not read
    a = 0.5
    shear = core.MapDescriptor(
        name="shear", dimension=2, params={"a": a},
        forward_fn=lambda s: (s[0] + a * s[1] * s[1], s[1]),
        inverse_fn=lambda s: (s[0] - a * s[1] * s[1], s[1]),
        det_j=lambda s: 1.0,
    )
    flow = flows.flow_system(shear, [lambda s: shear.inverse(s)[0]])
    for map_id, params in (("shear", None), ("henon", {"b": 2.0})):
        report = harness.verify_correspondence(
            map_id, params, x0=(0.3,), t_range=(1.0, 2.0), flow=flow
        )
        assert (report.map_id, report.params) == ("shear", {"a": 0.5})
        assert report.passed and report.oracle == {"method": "time-slot"}
        assert report.to_dict()["map_id"] == "shear"


def test_verify_needs_two_samples():
    with pytest.raises(ValueError, match="two sample times"):
        harness.verify_correspondence(
            "kdv3", x0=(1.1, 0.9), t_range=(1.0, 2.0), num_samples=1
        )


def test_level_set_with_no_x_dependence_is_a_vanishing_det_j():
    # X - Y = 1/y along the two-step chain, so G does not move with x
    good = maps.build_flow("hermite", {"m": 2})
    blind = flows.FlowSystem(
        map=good.map,
        time_index=good.time_index,
        hamiltonians=(lambda s: s[0] - s[1],),
        det_j_field=good.det_j_field,
    )
    with pytest.raises(SingularPointError) as exc_info:
        harness.verify_correspondence(
            "hermite", {"m": 2}, x0=(2.0,), t_range=(0.5, 1.0), flow=blind
        )
    assert exc_info.value.label == "det J"


def test_level_set_whose_det_changes_sign_is_refused_before_integrating(velocity_calls):
    # H = X (X - Y) = x / y along the two-step chain: dG/dx = 1/y changes
    # sign where y crosses zero, between the tenth and eleventh samples
    good = maps.build_flow("hermite", {"m": 2})
    flipping = flows.FlowSystem(
        map=good.map,
        time_index=good.time_index,
        hamiltonians=(lambda s: s[0] * (s[0] - s[1]),),
        det_j_field=good.det_j_field,
    )
    with pytest.raises(SingularPointError) as exc_info:
        harness.verify_correspondence(
            "hermite", {"m": 2}, x0=(2.0,), t_range=(-1.0, 1.1), flow=flipping
        )
    times = harness._sample_times(-1.0, 1.1, harness.DEFAULT_SAMPLES)
    assert exc_info.value.label == "det J"
    assert exc_info.value.between == (times[9], times[10])
    assert velocity_calls == []


def test_constrained_verify_into_a_pole_ends_before_integrating(velocity_calls):
    # y, the time slot of the chain, crosses zero, where the source curve
    # x = c/y^2 + 1/y has a pole; the chain declares no forward guard, and
    # integrating the image flow into the pole used to burn the whole budget
    x0 = maps.hermite_source_constraint(3, 10.0, -0.5)
    with pytest.raises(MapflowError):
        harness.verify_correspondence(
            "hermite",
            {"m": 3},
            x0=(x0,),
            t_range=(-0.5, 0.55),
            cfg=flows.IntegratorConfig(max_steps=3000),
        )
    assert velocity_calls == []


# ---------------------------------------------------------------------------
# bounded work


# the six cases of the verify-catalog benchmark workload
CATALOG_CASES = (
    ("henon", {"b": 1.0, "c": 0.0}),
    ("hermite", {"m": 3}),
    ("kdv3", None),
    ("kdv2", {"r": 2.0}),
    ("qp4", {"a": 1.0, "b": 1.0, "c": 1.0}),
    ("qp4", {"a": 2.0, "b": 1.0, "c": 1.0, "normalization": "prop2"}),
)
# flows that build_hamiltonians constructs from det J, one per time slot:
# checked where the determinant condition holds, and kdv2 unchecked, whose
# source path is solved on the level set
BUILT_CASES = (
    [("kdv3", None, slot, True) for slot in (1, 2, 3)]
    + [("qp4", {"a": 1.0, "b": 1.0, "c": 1.0}, slot, True) for slot in (1, 2, 3)]
    + [("henon", {"b": 1.0, "c": 0.0}, slot, True) for slot in (1, 2)]
    + [("kdv2", {"r": 2.0}, slot, False) for slot in (1, 2)]
)
BOUNDED_CASES = [(*case, None, None) for case in CATALOG_CASES] + BUILT_CASES
BOUNDED_STEPS = 3000


@functools.cache
def _bounded_flow(case):
    map_id, params, slot, check = BOUNDED_CASES[case]
    if slot is None:
        return maps.build_flow(map_id, params)
    mapdesc = maps.build_map(map_id, params)
    return flows.build_hamiltonians(mapdesc, time_index=slot, check=check)


@seed(1)
@settings(max_examples=600, deadline=None)
@given(
    st.integers(0, len(BOUNDED_CASES) - 1),
    st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    st.floats(-3.0, 3.0),
    st.floats(0.05, 2.0),
    st.sampled_from([-1.0, 1.0]),
)
def test_verify_does_bounded_work_or_raises_a_mapflow_error(
    case, coords, t0, span, direction
):
    # dopri5 spends six rhs evaluations per attempted step after the first
    map_id, params, _, _ = BOUNDED_CASES[case]
    flow = _bounded_flow(case)
    cfg = flows.IntegratorConfig(max_steps=BOUNDED_STEPS)
    try:
        report = harness.verify_correspondence(
            map_id,
            params,
            x0=coords[: flow.map.dimension - 1],
            t_range=(t0, t0 + direction * span),
            cfg=cfg,
            flow=flow,
        )
    except MapflowError:
        return
    assert report.integrator["rhs_evals"] <= 1 + 6 * BOUNDED_STEPS


def test_verify_does_bounded_work_or_raises_a_mapflow_error_when_untraced(monkeypatch):
    # every trace abandoned, on fresh flows: each keeps its jet kernel
    monkeypatch.setattr(core, "trace", lambda fn, n: None)
    _bounded_flow.cache_clear()
    try:
        test_verify_does_bounded_work_or_raises_a_mapflow_error()
    finally:
        _bounded_flow.cache_clear()
