"""Harness tests: correspondence, scans, composition, determinism."""

import json

import numpy as np
import pytest

from mapflow import flows, harness, maps


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


def test_verify_accepts_full_state_with_time_slot():
    report = harness.verify_correspondence(
        "henon", {"b": 1.0, "c": 0.0}, x0=(1.0, 99.0), t_range=(0.0, 1.0)
    )
    assert report.passed  # the 99 in the time slot is replaced by t0


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
    assert scan.results[1]["error"].startswith("ZeroDivisionError: ")
    assert scan.summary["failed"] == 1


def test_scan_grid_axes_end_exactly_on_hi():
    # the plain formula gives 0.8999999999999999 and 1.6999999999999997
    points = harness._grid_points(((0.2, 0.9, 5), (0.3, 1.7, 4), (1.0, 9.0, 1)))
    assert points[-1] == (0.9, 1.7, 1.0)
    assert points[0] == (0.2, 0.3, 1.0)
    assert len(points) == 20


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
    assert report.residuals["paper-display"] > 1e-5
    # the explicit velocity formulas agree with the winning flow
    assert report.display_formula_residual <= 1e-5


def test_qp4_oracle_not_decisive_at_unit_q():
    report = harness.qp4_normalization_report(1.0, 1.0, 1.0)
    assert not report.decisive  # both candidates coincide when q = 1


def test_chain_suite_passes():
    suite = harness.chain_suite(m=2, a=0.0, c=0.0, n_states=10)
    assert suite["passed"]
    suite3 = harness.chain_suite(m=3, a=0.5, c=0.0, n_states=10)
    assert suite3["passed"]
