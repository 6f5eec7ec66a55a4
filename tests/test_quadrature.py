"""Adaptive Gauss-Kronrod quadrature tests."""

import math

import pytest

from mapflow.core import Jet
from mapflow.errors import QuadratureError
from mapflow.quadrature import QuadratureCounts, integrate_gk


def test_polynomial_is_exact():
    # degree 7 is inside the Gauss-7/Kronrod-15 exactness range
    val = integrate_gk(lambda s: 3 * s**2, 0.0, 2.0)
    assert val == pytest.approx(8.0, abs=1e-13)


@pytest.mark.parametrize(
    "b, min_panels", [(0.5, 1), (1.0, 2)], ids=["zero-width", "bisected"]
)
def test_counts_charge_every_panel_and_integrand_call(b, min_panels):
    calls = []

    def f(s):
        calls.append(s)
        return 1.0 / (1e-4 + (s - 0.37) ** 2)

    counts = QuadratureCounts(panels=3, integrand_calls=45)
    integrate_gk(f, 0.5, b, abs_tol=1e-9, counts=counts)
    assert counts.integrand_calls - 45 == 15 * (counts.panels - 3) == len(calls)
    assert counts.panels - 3 >= min_panels


def test_transcendental_to_tolerance():
    val = integrate_gk(math.exp, 0.0, 1.0, abs_tol=1e-12)
    assert val == pytest.approx(math.e - 1.0, abs=1e-11)


def test_needs_refinement_on_peaked_integrand():
    # narrow peak forces panel subdivision
    f = lambda s: 1.0 / (1e-4 + (s - 0.37) ** 2)
    want = (math.atan((1 - 0.37) / 1e-2) + math.atan(0.37 / 1e-2)) / 1e-2
    val = integrate_gk(f, 0.0, 1.0, abs_tol=1e-9)
    assert val == pytest.approx(want, rel=1e-9)


def test_zero_width_interval():
    assert integrate_gk(lambda s: s * s, 1.5, 1.5) == 0.0


def test_reversed_limits_flip_sign():
    fwd = integrate_gk(math.exp, 0.0, 1.0)
    rev = integrate_gk(math.exp, 1.0, 0.0)
    assert rev == pytest.approx(-fwd, rel=1e-12)


def test_jet_integrand_integrates_derivative_components():
    # d/da of integral of a*s^2 over [0,1] is 1/3, alongside the value a/3
    a = Jet(2.0, (1.0,))
    val = integrate_gk(lambda s: a * s * s, 0.0, 1.0)
    assert isinstance(val, Jet)
    assert val.value == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert val.partials[0] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_panel_budget_exhaustion_raises():
    rough = lambda s: math.sin(1.0 / (s + 1e-6)) / (s + 1e-6)
    with pytest.raises(QuadratureError):
        integrate_gk(rough, 0.0, 1.0, abs_tol=1e-13, max_panels=8)


@pytest.mark.parametrize(
    "integrand",
    [
        lambda u: float("nan"),
        lambda u: math.inf,
        # max() over the components alone would skip this NaN partial
        lambda u: Jet(1.0, (float("nan"),)),
    ],
    ids=["nan", "inf", "nan-partial"],
)
def test_non_finite_panel_estimate_raises(integrand):
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_gk(integrand, 0.0, 1.0)


@pytest.mark.parametrize(
    "integrand",
    [lambda u: float("nan"), lambda u: -math.inf],
    ids=["nan", "inf"],
)
def test_non_finite_integrand_on_a_zero_width_interval_raises(integrand):
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_gk(integrand, 0.5, 0.5)
