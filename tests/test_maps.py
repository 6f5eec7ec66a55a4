"""Catalog map tests: closed forms, invariants, explicit velocity fields."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial.hermite_e import hermeval

from mapflow import core, flows, harness, maps
from mapflow.errors import (
    ConfigError,
    MapflowError,
    SingularPointError,
    UnknownMapError,
)
from reference import kdv2_hamiltonian_source, kdv2_source_velocity


# ---------------------------------------------------------------------------
# hermite chain


def he(n, x):
    """numpy's He_n(x), which obeys the chain's recurrence
    He_{k+1} = x He_k - k He_{k-1}: a reference the program does not share."""
    return hermeval(x, [0] * n + [1])


def test_hermite_step_example():
    step = maps.hermite_step(1)
    assert step.forward((2.0, 2.0)) == (2.0, 1.5)
    # equals the polynomial ratio P_2/P_1 at x = 2
    assert he(2, 2) / he(1, 2) == 1.5


def test_hermite_step_round_trip():
    step = maps.hermite_step(3)
    for x, y in [(1.5, 0.7), (2.0, 2.0), (-1.0, 0.4)]:
        back = step.inverse(step.forward((x, y)))
        assert back[0] == x
        assert back[1] == pytest.approx(y, rel=1e-12)


def test_hermite_step_pole():
    with pytest.raises(SingularPointError):
        maps.hermite_step(1).forward((1.0, 0.0))


def test_hermite_chain_walks_polynomial_ratios():
    m = 5
    chain = maps.hermite_chain(m)
    x = 7.0
    # start from y = P_1/P_0 = x; the image must be P_m/P_{m-1}
    got = chain.forward((x, x))
    assert got[1] == pytest.approx(he(m, x) / he(m - 1, x), rel=1e-12)


def test_hermite_hamiltonian_values():
    assert maps.hermite_hamiltonian(2)((2.0, 1.5)) == pytest.approx(0.5)
    # m=3 at the image of (2, 1): X=2, Y=0, H = (2-4)^2/(0-2) = -2
    assert maps.hermite_hamiltonian(3)((2.0, 0.0)) == pytest.approx(-2.0)
    with pytest.raises(ValueError):
        maps.hermite_hamiltonian(4)


def test_hermite_flow_rejects_m_before_building_the_chain(monkeypatch):
    # the chain costs O(m) memory, so an m with no Hamiltonian must not build it
    def refuse(m):
        raise AssertionError("the chain was built")

    monkeypatch.setattr(maps, "hermite_chain", refuse)
    with pytest.raises(ValueError, match="m=4"):
        maps.hermite_flow(4)


def test_hermite_hamiltonian_invariant_under_chain_on_constraint():
    for m, c in ((2, 10.0), (3, 10.0)):
        ham = maps.hermite_hamiltonian(m)
        chain = maps.hermite_chain(m)
        vals = []
        for y in (0.6, 1.0, 1.5, 2.0):
            x = maps.hermite_source_constraint(m, c, y)
            vals.append(ham(chain.forward((x, y))))
        assert max(vals) - min(vals) < 1e-9 * (1 + abs(vals[0]))


def test_hermite_source_constraint_values():
    assert maps.hermite_source_constraint(2, 2.0, 1.0) == pytest.approx(2.0)
    assert maps.hermite_source_constraint(3, 0.0, 2.0) == pytest.approx(0.5)
    with pytest.raises(SingularPointError):
        maps.hermite_source_constraint(2, 1.0, 0.0)


def test_hermite_continued_fraction_values():
    # (m-1)/x - ... - 1/x is (m-1)/y_{m-1}, read off the chain's steps
    # y_{k+1} = x - k/y_k from y_1 = x
    assert 2 / maps.hermite_chain(2).forward((2.0, 2.0))[1] == pytest.approx(4 / 3)
    # y_2 = 3 - 1/3 = 8/3, y_3 = 3 - 2/(8/3) = 9/4, so 3/y_3 = 4/3
    assert 3 / maps.hermite_chain(3).forward((3.0, 3.0))[1] == pytest.approx(4 / 3)


def test_hermite_continued_fraction_matches_polynomial_ratio():
    for m in range(3, 11):
        chain = maps.hermite_chain(m - 1)
        for x in (-0.5, 0.5, -1.7, 1.7, 3.0):
            ratio = (m - 1) * he(m - 2, x) / he(m - 1, x)
            got = (m - 1) / chain.forward((x, x))[1]
            assert abs(got - ratio) <= 1e-12 * (1 + abs(ratio))


def test_hermite_checks_exact_to_twelve():
    assert maps.hermite_checks(12) == ()


def test_hermite_ode_residual_small_m():
    # P_1: 0 - x * 1 + 1 * x = 0, degenerate but included
    assert all(name != "ode" for name, _ in maps.hermite_checks(2))


def test_hermite_suite_report():
    suite = maps.hermite_suite(12)
    assert suite["passed"]
    assert suite["continued_fraction_max_rel_err"] < 1e-12


@pytest.mark.parametrize("x", [0, 3, -2, Fraction(2, 3)])
def test_hermite_values_first_members(x):
    assert maps.hermite_values(4, x) == [
        (1, 0, 0),
        (x, 1, 0),
        (x**2 - 1, 2 * x, 2),
        (x**3 - 3 * x, 3 * x**2 - 3, 6 * x),
        (x**4 - 6 * x**2 + 3, 4 * x**3 - 12 * x, 12 * x**2 - 12),
    ]


def test_hermite_checks_report_a_wrong_identity(monkeypatch):
    # a wrong coefficient in the ode, and one in the lower ladder at m = 3
    residuals = maps._hermite_residuals

    def wrong(m, x, rows):
        ode, difference, up, low = residuals(m, x, rows)
        return ode + rows[m][0], difference, up, low + (m == 3) * rows[m - 1][0]

    monkeypatch.setattr(maps, "_hermite_residuals", wrong)
    failures = (
        ("ode", 1), ("ode", 2), ("ode", 3), ("lower", 3), ("ode", 4), ("ode", 5)
    )
    assert maps.hermite_checks(5) == failures
    suite = maps.hermite_suite(5)
    assert not suite["passed"]
    assert suite["failures"] == [list(f) for f in failures]
    assert not suite["ode_ok"] and not suite["ladder_ok"]
    assert suite["difference_identity_ok"]


@pytest.mark.parametrize("m_max", [31, 40])
def test_hermite_suite_passes_where_float_polynomial_values_lost_digits(m_max):
    # from m_max = 31, float values of the expanded coefficients lose more
    # digits than the tolerance allows; the exact reference ratio does not
    suite = maps.hermite_suite(m_max)
    assert suite["passed"]
    assert suite["continued_fraction_max_rel_err"] <= maps.HERMITE_CF_TOL


def test_hermite_suite_checks_the_catalog_step(monkeypatch):
    # a step whose forward is off by 1e-9 relative must fail the fraction
    step = maps.hermite_step

    def off(k):
        desc = step(k)
        fwd = desc.forward_fn
        return dataclasses.replace(
            desc, forward_fn=lambda s: (s[0], fwd(s)[1] * (1 + 1e-9))
        )

    monkeypatch.setattr(maps, "hermite_step", off)
    suite = maps.hermite_suite(12)
    assert not suite["continued_fraction_ok"]
    assert not suite["passed"]


@pytest.mark.parametrize(
    "build",
    [
        lambda: maps.hermite_step(0),
        lambda: maps.hermite_chain(1),
        lambda: maps.hermite_source_constraint(4, 1.0, 1.0),
        lambda: maps.henon_flow(1.0, 0.0, steps=4),
    ],
    ids=["hermite-step-0", "hermite-chain-1", "hermite-constraint-4", "henon-steps-4"],
)
def test_indices_out_of_range_raise_value_error(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build, m",
    [
        (lambda: maps.build_flow("hermite", {"m": 1}), 1),
        (
            lambda: harness.verify_correspondence(
                "hermite", {"m": 4}, x0=(42.0,), t_range=(0.5, 2.0)
            ),
            4,
        ),
        (lambda: maps.hermite_source_constraint(5, 1.0, 1.0), 5),
    ],
    ids=["build-flow-m1", "verify-m4", "constraint-m5"],
)
def test_a_hermite_m_without_a_closed_form_is_a_mapflow_error(build, m):
    # a library caller that catches MapflowError catches it; it is still
    # the ValueError it always was
    try:
        build()
    except MapflowError as exc:
        caught = exc
    assert isinstance(caught, ConfigError) and isinstance(caught, ValueError)
    assert str(caught).startswith("no ") and str(caught).endswith(f" for m={m}")


# ---------------------------------------------------------------------------
# henon


def test_henon_forward_inverse():
    h = maps.henon(1.0, 0.0)
    assert h.forward((1.0, 2.0)) == (2.0, 3.0)
    assert h.inverse((2.0, 3.0)) == (1.0, 2.0)


def test_henon_requires_nonzero_b():
    with pytest.raises(ValueError):
        maps.henon(0.0, 1.0)


@given(
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
)
def test_henon_round_trip_everywhere(x, y, b):
    h = maps.henon(b, 0.3)
    back = h.inverse(h.forward((x, y)))
    scale = 1.0 + max(abs(x), abs(y))
    assert max(abs(a - v) for a, v in zip(back, (x, y))) <= 1e-9 * scale


def test_henon_area_preserving_when_b_is_one():
    h = maps.henon(1.0, 0.7)
    for pt in [(0.3, 1.1), (2.0, -0.5)]:
        assert core.det(core.jacobian(h, pt)) == pytest.approx(1.0, abs=1e-12)


def test_henon_hamiltonian_values_and_m_convention():
    # one application of the map, H = X^2 - Y + c equals b*x exactly
    b, c = 1.0, 0.0
    assert maps.henon_hamiltonian(2, b, c)((2.0, 3.0)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        maps.henon_hamiltonian(5, 1.0, 0.0)


@pytest.mark.parametrize("m,steps", [(2, 1), (3, 2), (4, 3)])
def test_henon_multi_step_hamiltonian_is_scaled_source(m, steps):
    b, c = 1.5, 0.3
    comp = core.compose(maps.henon(b, c), steps)
    ham = maps.henon_hamiltonian(m, b, c)
    rng = np.random.default_rng(8)
    for _ in range(20):
        src = tuple(rng.uniform(0.2, 1.5, 2))
        X = comp.forward(src)
        assert ham(X) == pytest.approx(b**steps * src[0], rel=1e-9, abs=1e-9)


def test_henon_solution_family():
    # flows solve X = y + alpha, Y = y^2 + 2 alpha y + beta with
    # alpha^2 - beta = b x - c; the map itself is alpha = 0
    b, c = 1.0, 0.0
    fl = maps.henon_flow(b, c)
    x_src = 1.0
    traj = flows.integrate_flow(
        fl, fl.map.forward((x_src, 0.0)), 0.0, 2.0, t_eval=np.linspace(0, 2, 9)
    )
    alphas = [state[0] - t for t, state in zip(traj.times, traj.states)]
    betas = [
        state[1] - t * t - 2 * a * t
        for t, state, a in zip(traj.times, traj.states, alphas)
    ]
    for a, bb in zip(alphas, betas):
        assert abs(a * a - bb - (b * x_src - c)) < 1e-8


# ---------------------------------------------------------------------------
# kdv3


def test_kdv3_fixed_point():
    assert maps.kdv3().forward((1.0, 1.0, 1.0)) == (1.0, 1.0, 1.0)


def test_kdv3_defining_relations():
    k3 = maps.kdv3()
    rng = np.random.default_rng(9)
    for _ in range(100):
        x, y, z = rng.uniform(0.2, 2.0, 3)
        X, Y, Z = k3.forward((x, y, z))
        assert abs(1 / x - 1 / X - (Y - z)) < 1e-10
        assert abs(1 / y - 1 / Y - (Z - x)) < 1e-10
        assert abs(1 / z - 1 / Z - (X - y)) < 1e-10


def test_kdv3_invariants_preserved_on_example_point():
    k3 = maps.kdv3()
    before = maps.kdv_invariants((1.0, 2.0, 3.0))
    assert before.r == pytest.approx(6.0)
    after = maps.kdv_invariants(k3.forward((1.0, 2.0, 3.0)))
    for name in ("u", "v", "r", "s"):
        b, a = getattr(before, name), getattr(after, name)
        assert abs(a - b) <= 1e-10 * abs(b)


def test_kdv3_invariants_preserved_over_fifty_steps():
    k3 = maps.kdv3()
    cur = (0.9, 1.1, 1.0)
    first = maps.kdv_invariants(cur)
    for _ in range(50):
        cur = k3.forward(cur)
        now = maps.kdv_invariants(cur)
        for name in ("u", "v", "r", "s"):
            b, a = getattr(first, name), getattr(now, name)
            assert abs(a - b) <= 1e-10 * abs(b)


def test_kdv3_velocity_matches_brackets():
    fl = maps.kdv3_flow()
    rng = np.random.default_rng(10)
    for _ in range(100):
        X = maps.kdv3().forward(tuple(rng.uniform(0.3, 1.7, 3)))
        got = flows.nambu_rhs(fl, X)
        want = maps.kdv3_velocity(X)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * (1 + abs(w))


def test_kdv3_velocity_values_at_unit_point():
    got = maps.kdv3_velocity((1.0, 1.0, 1.0))
    assert got == pytest.approx((-1 / 3, 2 / 3, 2 / 3), abs=1e-15)


def test_kdv3_flow_hamiltonian_drift():
    fl = maps.kdv3_flow()
    X0 = fl.map.forward((1.1, 0.9, 1.0))
    traj = flows.integrate_flow(fl, X0, 1.0, 2.0)
    h0 = traj.ham_values[0]
    for hv in traj.ham_values:
        for j in (0, 1):
            assert abs(hv[j] - h0[j]) <= 1e-8 * (1 + abs(h0[j]))


def test_kdv3_pole_reports_denominator():
    with pytest.raises(SingularPointError) as exc_info:
        maps.kdv3().forward((1.0, 1.0, -0.5))
    assert "zx" in exc_info.value.label


# ---------------------------------------------------------------------------
# kdv2


def test_kdv2_forward_example():
    k2 = maps.kdv2(2.0)
    got = k2.forward((1.0, 1.0))
    assert got[0] == pytest.approx(0.8)
    assert got[1] == pytest.approx(1.75)


def test_kdv2_round_trip():
    k2 = maps.kdv2(2.0)
    rng = np.random.default_rng(11)
    for _ in range(100):
        pt = tuple(rng.uniform(0.3, 1.8, 2))
        back = k2.inverse(k2.forward(pt))
        assert max(abs(a - b) for a, b in zip(back, pt)) < 1e-9


def test_kdv2_rejects_zero_parameter():
    with pytest.raises(ValueError):
        maps.kdv2(0.0)


def test_kdv2_determinant_closed_form():
    k2 = maps.kdv2(2.0)
    assert k2.det_j((1.0, 1.0)) == pytest.approx(1.4)
    rng = np.random.default_rng(12)
    for _ in range(100):
        pt = tuple(rng.uniform(0.3, 1.8, 2))
        numeric = core.det(core.jacobian(k2, pt))
        assert abs(numeric - k2.det_j(pt)) <= 1e-9 * (1 + abs(numeric))


def test_kdv2_agrees_with_kdv3_on_reduction_surface():
    r = 2.0
    k2 = maps.kdv2(r)
    k3 = maps.kdv3()
    rng = np.random.default_rng(13)
    for _ in range(100):
        x, y = rng.uniform(0.4, 1.6, 2)
        full = k3.forward((x, y, r / (x * y)))
        red = k2.forward((x, y))
        assert abs(red[0] - full[0]) < 1e-10
        assert abs(red[1] - full[1]) < 1e-10


def test_kdv2_hamiltonian_forms_agree_through_map():
    r = 2.0
    k2 = maps.kdv2(r)
    h_img = maps.kdv2_hamiltonian(r)
    h_src = kdv2_hamiltonian_source(r)
    rng = np.random.default_rng(14)
    vals = []
    for _ in range(50):
        pt = tuple(rng.uniform(0.4, 1.6, 2))
        vals.append(h_img(k2.forward(pt)) - h_src(pt))
    assert max(vals) - min(vals) < 1e-10


def test_kdv2_velocity_closed_forms_at_unit_point():
    v = maps.kdv2_velocity(2.0)((1.0, 1.0))
    assert v[0] == pytest.approx(19.0 / 14.0, abs=1e-15)
    assert v[1] == pytest.approx(-405.0 / 224.0, abs=1e-15)
    dx = kdv2_source_velocity(2.0)((1.0, 1.0))
    assert dx == pytest.approx(9.0 / 14.0, abs=1e-15)


def test_kdv2_gradient_matches_displayed_velocities():
    r = 2.0
    fl = maps.kdv2_flow(r)
    vel = maps.kdv2_velocity(r)
    rng = np.random.default_rng(15)
    for _ in range(100):
        src = tuple(rng.uniform(0.5, 1.6, 2))
        got = flows.nambu_rhs(fl, fl.map.forward(src))
        want = vel(src)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-8 * (1 + abs(w))


def test_kdv2_source_rhs_matches_displayed_constraint():
    r = 2.0
    fl = maps.kdv2_flow(r)
    vel = kdv2_source_velocity(r)
    rng = np.random.default_rng(16)
    for _ in range(50):
        src = tuple(rng.uniform(0.5, 1.6, 2))
        got = flows.source_rhs(fl, src)
        assert abs(got[0] - vel(src)) <= 1e-9 * (1 + abs(vel(src)))
        assert got[1] == pytest.approx(1.0, abs=1e-10)


def test_kdv2_hamiltonian_log_domain():
    from mapflow.errors import LogDomainError

    # Y < 0 with the numerator positive drives the first log argument negative
    with pytest.raises(LogDomainError):
        maps.kdv2_hamiltonian(2.0)((1.0, -0.1))


def test_kdv2_hamiltonian_drift_along_combined_flow():
    fl = maps.kdv2_flow(2.0)
    X0 = fl.map.forward((1.0, 1.0))
    traj = flows.integrate_flow(fl, X0, 1.0, 2.0)
    h0 = traj.ham_values[0][0]
    for hv in traj.ham_values:
        assert abs(hv[0] - h0) <= 1e-7 * (1 + abs(h0))


# ---------------------------------------------------------------------------
# qp4


def test_qp4_round_trip_and_determinant():
    rng = np.random.default_rng(17)
    for a, b, c in [(1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (0.5, 2.0, 1.5)]:
        q4 = maps.qp4(a, b, c)
        q2 = (a * b * c) ** 2
        for _ in range(30):
            pt = tuple(rng.uniform(0.3, 1.7, 3))
            back = q4.inverse(q4.forward(pt))
            assert max(abs(u - v) for u, v in zip(back, pt)) < 1e-9
            numeric = core.det(core.jacobian(q4, pt))
            assert abs(numeric - q2) <= 1e-9 * (1 + q2)


def test_qp4_rejects_zero_parameters():
    with pytest.raises(ValueError):
        maps.qp4(0.0, 1.0, 1.0)


def test_qp4_invariants_preserved_at_unit_parameters():
    q4 = maps.qp4(1.0, 1.0, 1.0)
    r0, s0 = maps.qp4_invariants(1.0, 1.0, 1.0, (1.0, 2.0, 3.0))
    image = q4.forward((1.0, 2.0, 3.0))
    r1, s1 = maps.qp4_invariants(1.0, 1.0, 1.0, image)
    assert abs(r1 - r0) <= 1e-10 * abs(r0)
    assert abs(s1 - s0) <= 1e-10 * abs(s0)


def test_qp4_flow_requires_normalization_for_general_parameters():
    with pytest.raises(ConfigError):
        maps.qp4_flow(2.0, 1.0, 1.0)
    maps.qp4_flow(2.0, 1.0, 1.0, "prop2")
    with pytest.raises(ConfigError):
        maps.qp4_flow(2.0, 1.0, 1.0, "bogus")


def test_qp4_velocity_matches_scaled_brackets_at_unit_q():
    fl = maps.qp4_flow(1.0, 1.0, 1.0)
    vel = maps.qp4_velocity(1.0, 1.0, 1.0)
    rng = np.random.default_rng(18)
    for _ in range(50):
        X = fl.map.forward(tuple(rng.uniform(0.4, 1.6, 3)))
        got = flows.nambu_rhs(fl, X)
        want = vel(X)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * (1 + abs(w))


# ---------------------------------------------------------------------------
# denominator guards of the rational maps

# per map and direction, one point for each guard in order: on that guard's
# zero set and off the zero sets of the guards checked before it
GUARD_ZEROS = [
    (maps.kdv3(), "forward", [(1.0, 1.0, -2.0), (1.0, 1.0, -0.5), (-2.0, 1.0, 1.0)]),
    (maps.kdv3(), "inverse", [(-1.0, 1.0, 0.0), (1.0, 1.0, -0.5), (1.0, -2.0, 1.0)]),
    (maps.kdv2(2.0), "forward", [(0.5, -1.0), (0.0, 1.0), (-1.0, -1.0)]),
    (maps.kdv2(2.0), "inverse", [(1.0, 0.0), (1.0, -3.0), (1.0, -1.5)]),
    (
        maps.qp4(1.0, 1.0, 1.0),
        "forward",
        [(-1.0, 0.0, 0.0), (1.0, -1.0, 0.0), (1.0, 1.0, -0.5)],
    ),
    (
        maps.qp4(1.0, 1.0, 1.0),
        "inverse",
        [(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (1.0, 1.0, -0.5)],
    ),
    (
        maps.qp4(2.0, 1.0, 1.0),
        "forward",
        [(-0.5, 0.0, 0.0), (1.0, -1.0, 0.0), (0.5, 1.0, -0.5)],
    ),
    (
        maps.qp4(2.0, 1.0, 1.0),
        "inverse",
        [(-2.0, 0.0, 0.0), (0.0, -1.0, 0.0), (1.0, 1.0, -0.5)],
    ),
]


GUARD_CASES = [
    (mapdesc, direction, label, point)
    for mapdesc, direction, points in GUARD_ZEROS
    for (label, _), point in zip(
        getattr(mapdesc, direction + "_guards"), points, strict=True
    )
]


def guard_case_id(mapdesc, direction, label):
    params = ",".join(f"{k}={v:g}" for k, v in mapdesc.params.items())
    return f"{mapdesc.name}({params})-{direction}-{label}"


@pytest.mark.parametrize(
    "mapdesc, direction, label, point",
    GUARD_CASES,
    ids=[guard_case_id(*case[:3]) for case in GUARD_CASES],
)
@pytest.mark.parametrize("seeded", [False, True], ids=["float", "jet"])
def test_every_denominator_guard_names_its_zero_set(
    mapdesc, direction, label, point, seeded
):
    state = core.seed_jets(point) if seeded else point
    with pytest.raises(SingularPointError) as exc_info:
        getattr(mapdesc, direction)(state)
    assert exc_info.value.label == label
    assert exc_info.value.point == point
    suffix = " (inverse)" if direction == "inverse" else ""
    assert exc_info.value.where == mapdesc.name + suffix


# ---------------------------------------------------------------------------
# registry


def test_catalog_ids_are_stable():
    assert maps.catalog_ids() == [
        "chain1d-henon",
        "henon",
        "hermite",
        "kdv2",
        "kdv3",
        "qp4",
    ]


def test_resolve_params_rejects_unknown_names():
    with pytest.raises(ConfigError):
        maps.resolve_params("henon", {"zeta": 1.0})
    assert maps.resolve_params("henon", {"b": 2.0}) == {"b": 2.0, "c": 0.0}


def test_resolve_params_rejects_non_numeric_values():
    for bad in ("abc", None, True, [1.0]):
        with pytest.raises(ConfigError):
            maps.resolve_params("henon", {"b": bad})
    # numbers pass through unchanged and extra flags stay strings
    assert maps.resolve_params("hermite", {"m": 3}) == {"m": 3}
    assert maps.resolve_params("qp4", {"a": 2, "normalization": "prop2"}) == {
        "a": 2, "b": 1.0, "c": 1.0, "normalization": "prop2",
    }


def test_resolve_params_rejects_non_finite_and_non_integral_values():
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ConfigError):
            maps.resolve_params("qp4", {"a": bad})
    with pytest.raises(ConfigError):
        maps.resolve_params("hermite", {"m": 2.5})
    assert maps.resolve_params("hermite", {"m": 3.0}) == {"m": 3.0}
    point = (2.0, 1.0)
    assert maps.build_map("hermite", {"m": 3.0}).forward(point) == maps.hermite_chain(
        3
    ).forward(point)


def test_resolve_params_gives_each_schema_value_its_default_type():
    assert type(maps.resolve_params("hermite", {"m": 3.0})["m"]) is int
    assert type(maps.resolve_params("qp4", {"a": 2})["a"]) is float


def test_unknown_map_id_raises():
    with pytest.raises(UnknownMapError):
        maps.get_entry("lorenz")


def test_chain_entry_has_no_phase_space_map():
    with pytest.raises(ConfigError):
        maps.build_map("chain1d-henon")


def test_closed_form_determinants_match_numeric():
    rng = np.random.default_rng(19)
    built = [
        maps.henon(1.3, 0.4),
        maps.hermite_chain(3),
        maps.kdv3(),
        maps.kdv2(2.0),
        maps.qp4(2.0, 1.0, 1.0),
    ]
    for mapdesc in built:
        assert mapdesc.det_j is not None
        for pt in core.sample_points(mapdesc, 50, rng=rng):
            closed = mapdesc.det_j(pt)
            numeric = core.det(core.jacobian(mapdesc, pt))
            assert abs(numeric - closed) <= 1e-9 * (1 + abs(closed))


# ---------------------------------------------------------------------------
# build_flow: one shared flow per constructor and resolved parameters


def test_build_flow_shares_one_flow_per_resolved_parameters():
    # 1 and 1.0 resolve to one float, and an omitted b takes its default
    flow = maps.build_flow("henon", {"b": 1})
    assert maps.build_flow("henon", {"b": 1.0}) is flow
    assert maps.build_flow("henon", {}) is flow
    assert flow.map.params == {"b": 1.0, "c": 0.0}


def test_build_flow_keeps_signed_zeros_and_normalizations_apart():
    # the traced code binds 0.0 and -0.0 apart, so their flows differ
    assert maps.build_flow("henon", {"c": 0.0}) is not maps.build_flow(
        "henon", {"c": -0.0}
    )
    prop2 = maps.build_flow("qp4", {"a": 2.0, "normalization": "prop2"})
    display = maps.build_flow("qp4", {"a": 2.0, "normalization": "paper-display"})
    assert prop2 is not display
    assert maps.build_flow("qp4", {"a": 2, "normalization": "prop2"}) is prop2


@pytest.mark.parametrize(
    "map_id, params, error, match",
    [
        ("qp4", {"a": 2}, ConfigError, "needs normalization"),
        # a value the key cannot hash is still the constructor's to refuse
        ("qp4", {"normalization": ["prop2"]}, ConfigError, "unknown qp4 normalization"),
        ("hermite", {"m": 1}, ValueError, "m=1"),
    ],
)
def test_a_refused_flow_is_refused_on_every_call(map_id, params, error, match):
    for _ in range(2):
        with pytest.raises(error, match=match):
            maps.build_flow(map_id, params)
    assert maps._flow.cache_info().currsize == 0


def test_build_flow_keeps_a_bounded_number_of_flows():
    size = maps._flow.cache_info().maxsize
    for c in range(size + 1):
        maps.build_flow("henon", {"c": float(c)})
    assert maps._flow.cache_info().currsize == size


def test_a_replaced_catalog_entry_builds_its_own_flow(monkeypatch):
    flow = maps.build_flow("henon")
    entry = dataclasses.replace(maps.CATALOG["henon"], flow=maps.henon_flow)
    monkeypatch.setitem(maps.CATALOG, "henon", entry)
    assert maps.build_flow("henon") is flow
    entry = dataclasses.replace(entry, flow=lambda b, c: maps.henon_flow(b, c, 2))
    monkeypatch.setitem(maps.CATALOG, "henon", entry)
    assert maps.build_flow("henon").map.name == "henon^2"
