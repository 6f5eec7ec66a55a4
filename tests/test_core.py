"""Core operator tests: gradients, Jacobians, determinants, brackets."""

import itertools
import math
import operator
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from mapflow import core, maps
from mapflow.core import Jet, as_state, compose, det, grad, jacobian, nambu_bracket
from mapflow.errors import (
    ArityError,
    IterateDomainError,
    LogDomainError,
    SingularPointError,
)

safe_floats = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False
)


def fd_grad(f, x, rel=1e-6):
    """Central-difference oracle with the step tied to coordinate size."""
    out = []
    for j in range(len(x)):
        h = rel * (1.0 + abs(x[j]))
        up = list(x)
        dn = list(x)
        up[j] += h
        dn[j] -= h
        out.append((f(up) - f(dn)) / (2 * h))
    return tuple(out)


def cofactor_det(m):
    """Laplace-expansion oracle, independent of the LU path."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


# ---------------------------------------------------------------------------
# jets


@given(safe_floats, safe_floats, safe_floats, safe_floats)
def test_jet_product_rule(a, da, b, db):
    x = Jet(a, (da,))
    y = Jet(b, (db,))
    p = x * y
    assert p.value == a * b
    assert math.isclose(p.partials[0], da * b + a * db, rel_tol=1e-12, abs_tol=1e-12)


@given(safe_floats, safe_floats)
def test_jet_quotient_rule(a, da):
    x = Jet(a, (da,))
    q = (x * x + 2.0) / (x * x + 1.0)
    v = (a * a + 2) / (a * a + 1)
    dv = (2 * a * da * (a * a + 1) - (a * a + 2) * 2 * a * da) / (a * a + 1) ** 2
    assert math.isclose(q.value, v, rel_tol=1e-12)
    assert math.isclose(q.partials[0], dv, rel_tol=1e-9, abs_tol=1e-12)


def test_jet_nested_second_derivative():
    # x^3 at x=3, seeded at two levels: value 27, slope 27, curvature 18
    inner = Jet(3.0, (1.0,))
    outer = Jet(inner, (Jet(1.0, (0.0,)),))
    cube = outer * outer * outer
    assert cube.value.value == 27.0
    assert cube.value.partials[0] == 27.0
    assert cube.partials[0].value == 27.0
    assert cube.partials[0].partials[0] == 18.0


def test_jet_integer_pow_matches_repeated_multiplication():
    x = Jet(1.5, (1.0, 0.0))
    assert (x**3).value == (x * x * x).value
    assert (x**0).value == 1.0
    assert (x**-2).value == pytest.approx(1.5**-2)


def test_jet_pow_refuses_a_non_integer_exponent():
    with pytest.raises(TypeError, match="integer exponents only"):
        Jet(1.5, (1.0,)) ** 1.5


# Reference jet arithmetic on plain data: a float, or a (value, partials)
# pair whose slots hold either.  Each operation follows Python's operator
# dispatch (float op jet reaches the jet's reflected method) and the product,
# quotient and chain rules in the order the formulas below write them; a
# difference is the sum with the negation.


def _as_plain(x):
    if isinstance(x, Jet):
        return (_as_plain(x.value), tuple(_as_plain(p) for p in x.partials))
    return x


def _ref_neg(x):
    if isinstance(x, tuple):
        return (_ref_neg(x[0]), tuple(_ref_neg(p) for p in x[1]))
    return -x


def _ref_add(x, y):
    if isinstance(x, tuple) and isinstance(y, tuple):
        partials = tuple(_ref_add(p, q) for p, q in zip(x[1], y[1]))
        return (_ref_add(x[0], y[0]), partials)
    if isinstance(x, tuple):
        return (_ref_add(x[0], y), x[1])
    if isinstance(y, tuple):
        return (_ref_add(y[0], x), y[1])
    return x + y


def _ref_sub(x, y):
    if isinstance(x, tuple):
        return _ref_add(x, _ref_neg(y))
    if isinstance(y, tuple):
        return _ref_add(_ref_neg(y), x)
    return x - y


def _ref_mul(x, y):
    if isinstance(x, tuple) and isinstance(y, tuple):
        (sv, sp), (ov, op) = x, y
        return (
            _ref_mul(sv, ov),
            tuple(_ref_add(_ref_mul(p, ov), _ref_mul(sv, q)) for p, q in zip(sp, op)),
        )
    if isinstance(x, tuple):
        return (_ref_mul(x[0], y), tuple(_ref_mul(p, y) for p in x[1]))
    if isinstance(y, tuple):
        return _ref_mul(y, x)
    return x * y


def _ref_div(x, y):
    if isinstance(x, tuple) and isinstance(y, tuple):
        (sv, sp), (d, dp) = x, y
        return (
            _ref_div(sv, d),
            tuple(
                _ref_div(_ref_sub(_ref_mul(p, d), _ref_mul(sv, q)), _ref_mul(d, d))
                for p, q in zip(sp, dp)
            ),
        )
    if isinstance(x, tuple):
        return (_ref_div(x[0], y), tuple(_ref_div(p, y) for p in x[1]))
    if isinstance(y, tuple):
        v, vp = y
        partials = tuple(_ref_div(_ref_mul(-x, p), _ref_mul(v, v)) for p in vp)
        return (_ref_div(x, v), partials)
    return x / y


def _ref_pow(x, exponent):
    if exponent < 0:
        return _ref_pow(_ref_div(1.0, x), -exponent)
    if exponent == 0:
        return (1.0, tuple(0.0 for _ in x[1]))
    out = x
    for _ in range(exponent - 1):
        out = _ref_mul(out, x)
    return out


def _ref_log(x):
    if isinstance(x, tuple):
        v, vp = x
        return (_ref_log(v), tuple(_ref_div(p, v) for p in vp))
    return math.log(x)


def _same_bits(compute, reference):
    try:
        want = repr(reference())
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            compute()
        return
    # repr round-trips every float and tells -0.0 from 0.0
    assert repr(_as_plain(compute())) == want


any_float = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def jet_operands(draw, max_partials=3, max_inner=2, values=any_float):
    """Two operands, at least one a jet; the jets are flat or, with inner
    jets in their value and some partial slots, nested one level.  Jets
    carry 1..max_partials partials, and inner jets 1..max_inner."""
    n = draw(st.integers(1, max_partials))
    m = draw(st.integers(1, max_inner))
    nested = draw(st.booleans())

    def flat(size):
        return Jet(draw(values), [draw(values) for _ in range(size)])

    def operand():
        if not nested:
            return flat(n)
        slots = [flat(m) if draw(st.booleans()) else draw(values) for _ in range(n)]
        return Jet(flat(m), slots)

    left = operand()
    right = operand() if draw(st.booleans()) else draw(values)
    return (left, right) if draw(st.booleans()) else (right, left)


@seed(20)
@settings(max_examples=300, deadline=None)
@given(jet_operands(), st.integers(-3, 3))
def test_jet_operators_match_the_reference_bit_for_bit(operands, exponent):
    x, y = operands
    px, py = _as_plain(x), _as_plain(y)
    _same_bits(lambda: x + y, lambda: _ref_add(px, py))
    _same_bits(lambda: x - y, lambda: _ref_sub(px, py))
    _same_bits(lambda: x * y, lambda: _ref_mul(px, py))
    _same_bits(lambda: x / y, lambda: _ref_div(px, py))
    for jet, plain in ((x, px), (y, py)):
        if isinstance(jet, Jet):
            _same_bits(lambda: -jet, lambda: _ref_neg(plain))
            _same_bits(lambda: jet**exponent, lambda: _ref_pow(plain, exponent))


# 1-4 partials, at both levels of a nested jet, against the reference.
# Moderate floats round a reordered expression differently more often than
# any_float's extremes and small integers do.
bounded_or_any_float = st.one_of(any_float, st.floats(-100.0, 100.0))


@seed(16)
@settings(max_examples=500, deadline=None)
@given(
    jet_operands(max_partials=4, max_inner=4, values=bounded_or_any_float),
    st.integers(-3, 3),
)
def test_unrolled_and_general_jet_bodies_match_the_reference(operands, exponent):
    x, y = operands
    px, py = _as_plain(x), _as_plain(y)
    _same_bits(lambda: x + y, lambda: _ref_add(px, py))
    _same_bits(lambda: x - y, lambda: _ref_sub(px, py))
    _same_bits(lambda: x * y, lambda: _ref_mul(px, py))
    _same_bits(lambda: x / y, lambda: _ref_div(px, py))
    for jet, plain in ((x, px), (y, py)):
        if isinstance(jet, Jet):
            _same_bits(lambda: -jet, lambda: _ref_neg(plain))
            _same_bits(lambda: jet**exponent, lambda: _ref_pow(plain, exponent))
            if core.float_value(jet) > 0.0:
                _same_bits(lambda: core.jet_log(jet), lambda: _ref_log(plain))


def _bits(x):
    """Plain jet data with each float replaced by its IEEE 754 bit pattern,
    so that -0.0 and 0.0 are told apart.  A NaN is only "nan": CPython
    gives a NaN + NaN the sign of either operand, depending on whether the
    interpreter has specialised that addition yet."""
    if isinstance(x, tuple):
        return tuple(_bits(c) for c in x)
    return "nan" if math.isnan(x) else struct.unpack("<Q", struct.pack("<d", x))[0]


def _outcome(compute):
    try:
        return _bits(_as_plain(compute()))
    except ZeroDivisionError:
        return ZeroDivisionError


any_float_with_specials = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]),
    st.floats(-100.0, 100.0),
    st.floats(),
)


@seed(24)
@settings(max_examples=300, deadline=None)
@given(jet_operands(max_partials=5, max_inner=5, values=any_float_with_specials))
def test_a_jet_squared_is_the_jet_times_itself_bit_for_bit(operands):
    # 1 to 5 partials, flat and nested, with infinite, NaN and signed-zero
    # entries
    for jet in operands:
        if isinstance(jet, Jet):
            assert _outcome(lambda: jet**2) == _outcome(lambda: jet * jet)
            assert type(jet**2) is type(jet * jet)


@pytest.mark.parametrize("n, cls", [(n, Jet) for n in range(1, 6)])
def test_every_way_of_making_a_jet_gives_the_class_of_its_length(n, cls):
    seeds = core.seed_jets(tuple(1.0 + 0.25 * i for i in range(n)))
    x, y = seeds[0], seeds[-1]
    nested = core.seed_jets(seeds)
    made = [
        *seeds,
        *nested,
        *(s.value for s in nested),
        Jet(2.0, [0.5] * n),
        core.jet_log(x),
        core.jet_log(nested[0]),
        x**0,
        x**3,
        x**-2,
        -x,
        x + y,
        x - y,
        x * y,
        x / y,
        2.0 + x,
        2.0 - x,
        2.0 * x,
        2.0 / x,
        x + 2.0,
        x - 2.0,
        x * 2.0,
        x / 2.0,
        nested[0] * nested[-1],
    ]
    assert [type(j) for j in made] == [cls] * len(made)


@pytest.mark.parametrize(
    "n, m", [(1, 2), (2, 3), (3, 2), (1, 4), (3, 4), (4, 5), (5, 4)]
)
def test_jets_with_different_partial_counts_refuse_every_binary_operator(n, m):
    x = Jet(1.0, [float(i + 1) for i in range(n)])
    y = Jet(2.0, [float(i + 1) for i in range(m)])
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for left, right in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="partials|zip"):
                op(left, right)


# ---------------------------------------------------------------------------
# state validation


def test_as_state_rejects_non_finite():
    with pytest.raises(ValueError):
        as_state((1.0, float("nan")))
    with pytest.raises(ValueError):
        as_state((float("inf"),))
    with pytest.raises(ValueError):
        as_state(())


# ---------------------------------------------------------------------------
# grad


def test_grad_coordinate_projection():
    assert grad(lambda s: s[0], (4.0, -2.0, 7.0)) == (1.0, 0.0, 0.0)


def test_grad_constant_field_is_zero():
    assert grad(lambda s: 3.25, (0.5, 0.7)) == (0.0, 0.0)


def test_grad_quadratic_against_central_differences():
    f = lambda s: s[0] * s[0] - s[1]
    got = grad(f, (3.0, 5.0))
    assert got == (6.0, -1.0)
    oracle = fd_grad(f, (3.0, 5.0))
    assert max(abs(g - o) for g, o in zip(got, oracle)) < 1e-5


def test_grad_matches_central_differences_on_catalog_fields():
    rng = np.random.default_rng(42)
    fields = [
        maps.henon_hamiltonian(2, 1.3, 0.4),
        maps.henon_hamiltonian(3, 1.3, 0.4),
        maps.hermite_hamiltonian(2),
        maps.kdv2_hamiltonian(2.0),
    ]
    worst = 0.0
    for f in fields:
        for _ in range(1000):
            x = tuple(rng.uniform(0.4, 1.8, 2))
            g = grad(f, x)
            o = fd_grad(f, x)
            scale = 1.0 + max(abs(v) for v in o)
            worst = max(worst, max(abs(a - b) for a, b in zip(g, o)) / scale)
    assert worst < 1e-5


def test_grad_raises_on_declared_pole():
    h = maps.kdv2_hamiltonian(2.0)
    from mapflow.errors import LogDomainError

    with pytest.raises(LogDomainError):
        grad(h, (1.0, -10.0))


# ---------------------------------------------------------------------------
# jacobian / det


def test_jacobian_henon_closed_form():
    J = jacobian(maps.henon(2.0, 0.0), (1.0, 3.0))
    assert np.allclose(J, [[0.0, 1.0], [-2.0, 6.0]], atol=0)
    assert det(J) == pytest.approx(2.0, abs=0)


def test_jacobian_kdv3_unit_determinant():
    k3 = maps.kdv3()
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = tuple(rng.uniform(0.2, 2.0, 3))
        assert abs(det(jacobian(k3, x)) - 1.0) < 1e-10


def test_jacobian_identity_map():
    ident = core.MapDescriptor(
        name="identity",
        dimension=3,
        params={},
        forward_fn=lambda s: tuple(s),
        inverse_fn=lambda s: tuple(s),
    )
    assert np.array_equal(jacobian(ident, (0.3, 1.1, -2.0)), np.eye(3))


def test_jacobian_is_row_tuples_of_python_floats():
    J = jacobian(maps.kdv3(), (1.1, 0.9, 1.3))
    assert type(J) is tuple and len(J) == 3
    for row in J:
        assert type(row) is tuple and len(row) == 3
        assert all(type(v) is float for v in row)


def test_det_identity_exact():
    assert det(np.eye(3)) == 1.0
    assert det(np.eye(5)) == 1.0


def test_det_2x2_closed_form():
    b, y = 1.7, 0.35
    assert det([[0.0, 1.0], [-b, 2 * y]]) == pytest.approx(b, abs=0)


def test_det_against_cofactor_oracle():
    rng = np.random.default_rng(3)
    for n in (3, 4, 5):
        for _ in range(20):
            m = rng.uniform(-2, 2, (n, n)).tolist()
            want = cofactor_det(m)
            assert det(m) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_det_singular_matrix_is_zero():
    assert det([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]) == 0.0
    # a 4x4 goes through elimination, which meets a zero pivot column
    singular = [
        [1.0, 2.0, 0.0, 1.0],
        [2.0, 4.0, 0.0, 2.0],
        [0.0, 0.0, 1.0, 0.0],
        [1.0, 2.0, 3.0, 1.0],
    ]
    assert det(singular) == 0.0


def test_det_refuses_a_matrix_that_is_not_square():
    with pytest.raises(ValueError, match="square"):
        det([[1.0, 2.0], [3.0]])


# ---------------------------------------------------------------------------
# signed minors


def test_minors_of_no_rows_is_the_one_dimensional_velocity():
    assert core.minors([]) == (1.0,)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_row_is_orthogonal_to_its_minors(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(200):
        small = rng.integers(-3, 4, size=(n - 1, n)).astype(float).tolist()
        mins = core.minors(small)
        assert len(mins) == n
        for row in small:
            dot = sum(a * b for a, b in zip(row, mins))
            if n <= 4:
                # closed-form minors of small integers are exact
                assert dot == 0.0, small
            else:
                # 4x4 minors pivot and divide, so they round
                assert abs(dot) <= 1e-12 * sum(abs(a * b) for a, b in zip(row, mins))
        rows = rng.uniform(-10.0, 10.0, size=(n - 1, n)).tolist()
        mins = core.minors(rows)
        for row in rows:
            dot = sum(a * b for a, b in zip(row, mins))
            assert abs(dot) <= 1e-12 * sum(abs(a * b) for a, b in zip(row, mins))


# ---------------------------------------------------------------------------
# nambu bracket


def test_bracket_of_coordinates_is_one():
    for n in (1, 2, 3):
        fields = [(lambda j: lambda s: s[j])(j) for j in range(n)]
        assert nambu_bracket(fields, (0.7,) * n) == pytest.approx(1.0, abs=0)


def test_bracket_repeated_field_vanishes():
    f = lambda s: s[0] * s[0] - s[1]
    g = lambda s: s[0] + 2.0 * s[1]
    val = nambu_bracket([f, f], (1.2, 0.4))
    assert abs(val) <= 1e-12


def test_bracket_2d_example_is_constant_one():
    f = lambda s: s[0] * s[0] - s[1]
    x_field = lambda s: s[0]
    rng = np.random.default_rng(11)
    for _ in range(20):
        pt = tuple(rng.uniform(-2, 2, 2))
        assert nambu_bracket([f, x_field], pt) == pytest.approx(1.0, abs=1e-12)


def test_bracket_arity_error():
    with pytest.raises(ArityError):
        nambu_bracket([lambda s: s[0]], (1.0, 2.0))


def test_bracket_antisymmetry_and_linearity():
    rng = np.random.default_rng(5)
    f = lambda s: s[0] ** 2 * s[1] - s[2]
    g = lambda s: s[1] * s[2] + s[0]
    h = lambda s: s[0] + s[1] + s[2] ** 2
    for _ in range(10):
        pt = tuple(rng.uniform(0.2, 2.0, 3))
        base = nambu_bracket([f, g, h], pt)
        swapped = nambu_bracket([g, f, h], pt)
        assert swapped == pytest.approx(-base, rel=1e-12, abs=1e-12)
        two_f = lambda s: 2.0 * f(s)
        assert nambu_bracket([two_f, g, h], pt) == pytest.approx(
            2 * base, rel=1e-12, abs=1e-12
        )


def make_poly(rng, n, n_terms=4, max_deg=2):
    terms = []
    for _ in range(n_terms):
        coeff = float(rng.integers(-3, 4))
        exps = tuple(int(e) for e in rng.integers(0, max_deg + 1, n))
        terms.append((coeff, exps))

    def f(coords):
        total = 0.0
        for coeff, exps in terms:
            term = coeff
            for c, e in zip(coords, exps):
                for _ in range(e):
                    term = term * c
            total = total + term
        return total

    return f


def bracket_identity_residual(rng, n):
    """One random instance of the derivation-chain identity.

    Replacing slot j of the bracket with each coordinate and contracting
    against grad(g) must equal the bracket with g in slot j.
    """
    fields = [make_poly(rng, n) for _ in range(n)]
    g = make_poly(rng, n)
    j = int(rng.integers(0, n))
    pt = tuple(rng.uniform(0.3, 1.5, n))
    dg = grad(g, pt)
    lhs = 0.0
    term_scale = 0.0
    for l in range(n):
        coord = (lambda idx: lambda s: s[idx])(l)
        slotted = fields[:j] + [coord] + fields[j + 1 :]
        term = nambu_bracket(slotted, pt) * dg[l]
        term_scale = max(term_scale, abs(term))
        lhs += term
    rhs = nambu_bracket(fields[:j] + [g] + fields[j + 1 :], pt)
    scale = max(1.0, abs(rhs), term_scale)
    return abs(lhs - rhs) / scale


def test_bracket_derivation_chain_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for k in range(100):
        n = 2 if k % 2 == 0 else 3
        worst = max(worst, bracket_identity_residual(rng, n))
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# composition


def test_compose_one_is_identity_operation():
    h = maps.henon(1.5, 0.2)
    assert compose(h, 1) is h


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: core.compose_sequence([], name="empty"), "at least one map"),
        (lambda: core.compose_sequence([maps.henon(1.0, 0.0), maps.kdv3()], name="mixed"),
         "share a dimension"),
        (lambda: compose(maps.henon(1.0, 0.0), 0), "positive integer"),
    ],
    ids=["empty", "mixed-dimensions", "zero-count"],
)
def test_composition_refuses_what_it_cannot_compose(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_compose_henon_twice_determinant():
    b, c = 1.7, 0.3
    h2 = compose(maps.henon(b, c), 2)
    x = (0.8, 1.1)
    # numeric product of the step determinants
    h = maps.henon(b, c)
    step = det(jacobian(h, x)) * det(jacobian(h, h.forward(x)))
    assert det(jacobian(h2, x)) == pytest.approx(step, rel=1e-12)
    assert det(jacobian(h2, x)) == pytest.approx(b * b, rel=1e-12)


def test_compose_roundtrip_and_det_product():
    rng = np.random.default_rng(17)
    k3 = maps.kdv3()
    for m in (2, 3, 5):
        comp = compose(k3, m)
        for _ in range(5):
            x = tuple(rng.uniform(0.4, 1.6, 3))
            fwd = comp.forward(x)
            back = comp.inverse(fwd)
            assert max(abs(a - b) for a, b in zip(back, x)) < 1e-9
            prod = 1.0
            cur = x
            for _ in range(m):
                prod *= det(jacobian(k3, cur))
                cur = k3.forward(cur)
            assert det(jacobian(comp, x)) == pytest.approx(prod, rel=1e-8)


def test_hermite_chain_det_formula():
    # after m steps the determinant is (m-1)!/(prod of intermediate y)^2
    for m in (2, 3, 5):
        chain = maps.hermite_chain(m)
        x = (7.0, 1.0)
        ys = [x[1]]
        for k in range(1, m - 1):
            ys.append(x[0] - k / ys[-1])
        want = math.factorial(m - 1) / math.prod(ys) ** 2
        assert det(jacobian(chain, x)) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize(
    "composite",
    [compose(maps.henon(1.3, 0.4), 3)] + [maps.hermite_chain(m) for m in range(2, 7)],
    ids=lambda d: d.name,
)
def test_composite_det_j_is_the_chain_rule_product(composite):
    for x in core.sample_points(composite, 25):
        want = det(jacobian(composite, x))
        assert composite.det_j(x) == pytest.approx(want, rel=1e-12)


def test_composite_declares_det_j_only_when_every_step_does():
    anonymous = core.MapDescriptor(
        name="identity",
        dimension=2,
        params={},
        forward_fn=lambda s: tuple(s),
        inverse_fn=lambda s: tuple(s),
    )
    h = maps.henon(1.3, 0.4)
    assert core.compose_sequence((h, anonymous), name="mixed").det_j is None
    assert core.compose_sequence((h, h), name="declared").det_j is not None


def test_compose_iterate_domain_error_carries_step():
    step = maps.hermite_step(1)
    comp = compose(step, 3)
    # (2, 0.5) -> (2, 0) dies applying the second step
    with pytest.raises(IterateDomainError) as exc_info:
        comp.forward((2.0, 0.5))
    assert exc_info.value.step == 2


def test_composite_inverse_domain_error_carries_step():
    # the inverse runs the steps backwards: step 2's inverse takes (2, 1)
    # to (2, 2), where step 1's inverse guard X - Y vanishes
    with pytest.raises(IterateDomainError) as exc_info:
        maps.hermite_chain(3).inverse((2.0, 1.0))
    err = exc_info.value
    assert err.step == 2
    assert isinstance(err.cause, SingularPointError)
    assert err.cause.label == "X - Y"


def test_singular_point_error_names_guard():
    k3 = maps.kdv3()
    # at (1, 1, -1/2) the denominator 1 + zx + x^2 y z hits zero exactly
    with pytest.raises(SingularPointError) as exc_info:
        k3.forward((1.0, 1.0, -0.5))
    assert exc_info.value.label == "1+zx+x^2yz"
    assert exc_info.value.point == (1.0, 1.0, -0.5)


def test_guards_are_called_with_floats_under_jacobian():
    # math.copysign rejects jets, so this guard only works on the float point
    seen = []

    def guard(s):
        seen.append(s)
        return math.copysign(1.0, s[0]) * s[0]

    scaled = core.MapDescriptor(
        name="scaled",
        dimension=2,
        params={},
        forward_fn=lambda s: (2.0 * s[0], s[1]),
        inverse_fn=lambda s: (s[0] / 2.0, s[1]),
        forward_guards=(("|x|", guard),),
    )
    assert np.array_equal(jacobian(scaled, (0.5, 1.0)), [[2.0, 0.0], [0.0, 1.0]])
    assert seen == [(0.5, 1.0)]
    with pytest.raises(SingularPointError) as exc_info:
        jacobian(scaled, (0.0, 1.0))
    assert exc_info.value.label == "|x|"


def test_non_finite_jet_output_raises_under_jacobian():
    poisoned = core.MapDescriptor(
        name="poisoned",
        dimension=2,
        params={},
        forward_fn=lambda s: (s[0] * math.nan, s[1]),
        inverse_fn=lambda s: tuple(s),
    )
    with pytest.raises(SingularPointError) as exc_info:
        jacobian(poisoned, (1.0, 2.0))
    assert exc_info.value.label == "non-finite result"
    assert exc_info.value.point == (1.0, 2.0)


def test_non_finite_inverse_result_names_the_inverse_direction():
    with pytest.raises(SingularPointError) as exc_info:
        maps.kdv3().inverse((1e200, 1e200, 1e200))
    err = exc_info.value
    assert (err.where, err.label) == ("kdv3 (inverse)", "non-finite result")
    assert str(err) == (
        "singular point in kdv3 (inverse): non-finite result at (1e+200, 1e+200, 1e+200)"
    )


def test_inverse_guard_names_the_inverse_direction_on_jets():
    k3 = maps.kdv3()
    with pytest.raises(SingularPointError) as exc_info:
        k3.inverse(core.seed_jets((-1.0, 1.0, 0.0)))
    assert exc_info.value.where == "kdv3 (inverse)"
    assert exc_info.value.label == "1+XY+X^2YZ"
    assert exc_info.value.point == (-1.0, 1.0, 0.0)


@pytest.mark.parametrize("point", [(1.1, 0.9), (1.1, 0.9, 1.0, 1.2)])
def test_a_point_of_the_wrong_length_is_a_value_error(point):
    k3 = maps.kdv3()
    got = len(point)
    with pytest.raises(ValueError, match=rf"^kdv3 takes 3 coordinates, got {got}$"):
        k3.forward(point)
    with pytest.raises(
        ValueError, match=rf"^kdv3 \(inverse\) takes 3 coordinates, got {got}$"
    ):
        k3.inverse(point)
    with pytest.raises(ValueError, match=rf"^kdv3 takes 3 coordinates, got {got}$"):
        k3.forward(core.seed_jets(point))


def test_round_trip_property_all_catalog_maps():
    rng = np.random.default_rng(42)
    built = [
        maps.henon(1.3, 0.4),
        maps.hermite_chain(2),
        maps.hermite_chain(3),
        maps.kdv3(),
        maps.kdv2(2.0),
        maps.qp4(1.0, 1.0, 1.0),
        maps.qp4(2.0, 1.0, 1.0),
    ]
    for mapdesc in built:
        for x in core.sample_points(mapdesc, 1000, rng=rng):
            back = mapdesc.inverse(mapdesc.forward(x))
            scale = 1.0 + max(abs(v) for v in x)
            assert max(abs(a - b) for a, b in zip(back, x)) / scale < 1e-9


# ---------------------------------------------------------------------------
# tracing


def test_a_trace_replays_the_float_operations_bit_for_bit():
    # x * 1.0, 1.0 * x and x / 1.0 are recorded as x, which is exact for
    # every float; nothing with 0.0 or -0.0 is folded, and the two are
    # distinct constants; a repeated or commuted + or * is recorded once
    def fn(x):
        a, b = x
        return (
            a * 2 + 1, -b / (a * a + 1.0), 3 - a * b, 0.5,
            a * 1.0, 1.0 * a, a / 1.0, a / -1.0,
            a * 0.0, 0.0 * a, a * -0.0, a * 0,
            a + 0.0, 0.0 + a, a + -0.0, -0.0 + a, a - 0.0, 0.0 - a, -0.0 - a,
            a * b, b * a, a + b, b + a, a - b, b - a, -a, -a,
        )

    traced = core.trace(fn, 2)
    assert traced.__code__.co_filename == "<trace>"
    values = [0.0, -0.0, 1.0, 2.0, -2.0, 1.5, 0.1, 0.2, 1e-300, 1e300]
    values += [math.inf, math.nan]
    for x in itertools.product(values, repeat=2):
        assert repr(traced(x)) == repr(fn(x)), x


def _compiled_lines(monkeypatch, fn, n):
    """The traced function of ``fn`` and the expressions of the ``vN = ...``
    lines its compiled source holds, in order."""
    sources = []
    compiled = core._compiled
    monkeypatch.setattr(core, "_compiled", lambda s: sources.append(s) or compiled(s))
    traced = core.trace(fn, n)
    (source,) = sources
    lines = [line.strip() for line in source.splitlines()]
    return traced, [line.split(" = ", 1)[1] for line in lines if line[:1] == "v"]


def test_a_negation_made_twice_is_recorded_once(monkeypatch):
    def fn(x):
        return (-x[0], x[1] * -x[0])

    traced, lines = _compiled_lines(monkeypatch, fn, 2)
    assert lines.count("-x0") == 1, lines
    for x in [(1.5, -2.0), (-0.0, 3.0), (0.0, -0.0)]:
        assert repr(traced(x)) == repr(fn(x))


def test_a_call_made_twice_on_the_same_value_is_recorded_once(monkeypatch):
    def fn(x):
        return (core.jet_log(x[0]), x[1] * core.jet_log(x[0]))

    traced, lines = _compiled_lines(monkeypatch, fn, 2)
    assert [line for line in lines if line.endswith("(x0)")] == ["c0(x0)"], lines
    assert repr(traced((math.e, 2.0))) == repr(fn((math.e, 2.0)))
    with pytest.raises(LogDomainError):
        traced((-1.0, 2.0))


@pytest.mark.parametrize(
    "fn",
    [
        lambda x: (float(x[0]),),
        lambda x: (x[0] if x[1] else x[1],),
        lambda x: (x[0] if x[0] < x[1] else x[1],),
        lambda x: (x[0] if x[0] == x[1] else x[1],),
        lambda x: ({x[0]: 1.0}[x[0]],),
        lambda x: (abs(x[0]),),
        lambda x: ((1.0, 2.0)[x[0]],),
        lambda x: (x[0] ** x[1],),
        lambda x: (x[0] * Fraction(1, 3),),
        lambda x: (x[0] * np.float64(2.0),),
        lambda x: (math.sqrt(x[0]),),
        lambda x: (core.float_value(x[0]) > 0.0,),
        lambda x: (x[0] * (1.0 / 0.0),),
    ],
    ids=[
        "float", "bool", "compare", "equal", "hash", "abs", "index", "pow",
        "fraction-constant", "numpy-constant", "math", "float_value", "raises",
    ],
)
def test_a_function_that_reads_a_traced_value_is_not_traced(fn):
    assert core.trace(fn, 2) is None


def _result_or_error(fn, x):
    """The repr of ``fn(x)``, or the type and message of the arithmetic
    error it raises."""
    try:
        return repr(fn(x))
    except ArithmeticError as err:
        return type(err), str(err)


def test_a_traced_int_power_replays_the_float_power_bit_for_bit():
    # x ** k for an int constant k is one line, the C power the float path
    # makes, never rewritten as products; 0.0 ** -1 re-runs the point and
    # raises its ZeroDivisionError, and an overflow raises the float path's
    # OverflowError, also from a power nothing reads
    calls = []

    def fn(x):
        calls.append(x)
        a, b = x
        b**4  # unread
        return (a**2, a**3, a**-1, (a - b) ** 2, b * a**2, a**0, a**1)

    traced = core.trace(fn, 2)
    assert traced.__code__.co_filename == "<trace>"
    assert len(calls) == 1
    values = [0.0, -0.0, 1.0, 2.0, -2.0, 1.5, 0.1, 0.2, 1e-300, 1e300]
    values += [math.inf, math.nan]
    for x in itertools.product(values, repeat=2):
        calls.clear()
        got = _result_or_error(traced, x)
        reran = len(calls)
        assert got == _result_or_error(fn, x), x
        # only a zero base raised to -1 re-runs the point
        assert reran == (x[0] == 0.0 and abs(x[1]) != 1e300), x
    with pytest.raises(OverflowError) as overflow:
        traced((1e300, 1.0))
    with pytest.raises(OverflowError) as kernel:
        fn((1e300, 1.0))
    assert str(overflow.value) == str(kernel.value)
    with pytest.raises(ZeroDivisionError, match="negative power"):
        traced((-0.0, 1.0))


@pytest.mark.parametrize(
    "fn",
    [
        lambda x: (x[0] ** 2.0,),
        lambda x: (2 ** x[0],),
        lambda x: (2.0 ** x[0],),
        lambda x: (x[0] ** True,),
        lambda x: (x[0] ** np.int64(2),),
    ],
    ids=["float-exponent", "int-base", "float-base", "bool-exponent", "numpy-exponent"],
)
def test_a_power_other_than_by_an_int_constant_is_not_traced(fn):
    assert core.trace(fn, 2) is None


def test_a_failed_check_or_division_by_zero_reruns_the_traced_function():
    calls = []

    def fn(x):
        calls.append(x)
        return (core.jet_log(x[0]) / x[1],)

    traced = core.trace(fn, 2)
    assert traced((math.e, 2.0)) == (0.5,)
    assert len(calls) == 1  # the trace
    for bad, error in [((-1.0, 2.0), LogDomainError), ((1.0, 0.0), ZeroDivisionError)]:
        with pytest.raises(error) as exc_info:
            traced(bad)
        assert calls[-1] == bad
        with pytest.raises(error) as kernel:
            fn(bad)
        assert str(exc_info.value) == str(kernel.value)


@pytest.mark.parametrize(
    "op", [operator.add, operator.sub, operator.mul, operator.truediv],
    ids=["add", "sub", "mul", "truediv"],
)
def test_a_traced_scalar_with_a_jet_operand_is_recorded_by_the_jet(op):
    def fn(x):
        _, jet = core.seed_jets(x)
        out = op(core.float_value(x[0]), jet * jet)
        return (out.value, *out.partials)

    traced = core.trace(fn, 2)
    assert traced is not None
    for x in [(1.5, -2.0), (0.1, 0.2), (-3.0, 1e-3)]:
        assert repr(traced(x)) == repr(fn(x))


def test_an_assumed_decision_is_checked_and_an_effect_runs_once_per_call():
    charged = []

    def fn(x):
        core.effect(charged.append, "charge")
        if core.assume(lambda v: v <= 1.0, x[0]):
            return (x[0] * 2.0,)
        return (x[0] * 3.0,)

    traced = core.trace(fn, 1)
    assert traced is not None and charged == []  # the trace makes no effect call
    assert traced((0.5,)) == (1.0,)
    assert charged == ["charge"]
    # the check fails, so fn decides afresh and charges once
    assert traced((2.0,)) == (6.0,)
    assert charged == ["charge"] * 2


def test_a_single_use_chain_longer_than_the_nesting_bound_compiles():
    # each step's value and partials are read once, by the next step, so
    # written into their readers they would nest 600 deep; CPython refuses
    # more than 200 nested parentheses
    def fn(x):
        u, x1 = core.seed_jets(x)
        u = u * x1
        for _ in range(300):
            u = u * 1.0000001 + x1
        return (u.value, *u.partials)

    traced = core.trace(fn, 2)
    assert traced.__code__.co_filename == "<trace>"
    for x in [(1.5, -2.0), (0.1, 0.2), (-0.0, 3.0), (1e300, 1e300), (math.inf, 1.0)]:
        assert repr(traced(x)) == repr(fn(x)), x
