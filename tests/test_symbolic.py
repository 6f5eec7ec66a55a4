"""Symbolic oracle: the hand-written velocity formulas of the catalog equal
the Nambu bracket of their flows' Hamiltonians identically.

Velocity component j is the determinant whose rows are the gradients of
the Hamiltonians followed by the unit row e_j, the same convention as
``flows.nambu_rhs``; here sympy differentiates exactly.
"""

import pytest

from mapflow import maps

sp = pytest.importorskip("sympy")


def laplace_det(rows):
    """Cofactor expansion along the first row; sympy's own Matrix.det
    cancels every entry as it goes, which costs seconds here."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * laplace_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(len(rows))
    )


def bracket_velocity(hamiltonians, coords):
    n = len(coords)
    grads = [[sp.diff(h, c) for c in coords] for h in hamiltonians]
    unit_rows = ([int(k == j) for k in range(n)] for j in range(n))
    return [laplace_det(grads + [e]) for e in unit_rows]


def assert_all_zero(differences):
    # each difference is a rational function: zero exactly when the
    # expanded numerator over a common denominator is
    for d in differences:
        assert sp.expand(sp.numer(sp.together(d))) == 0


def test_kdv3_velocity_is_the_bracket():
    image = sp.symbols("X Y Z")
    h1, h2, _ = maps.kdv3().inverse_fn(image)
    want = bracket_velocity([h1, h2], image)
    got = maps.kdv3_velocity(image)
    assert_all_zero(a - b for a, b in zip(got, want))


def test_qp4_velocity_is_the_bracket_at_unit_parameters():
    image = sp.symbols("X Y Z")
    h1, h2, _ = maps.qp4(1, 1, 1).inverse_fn(image)
    # H2 carries the prop2 scale q^2 = 1
    want = bracket_velocity([h1, h2], image)
    got = maps.qp4_velocity(1, 1, 1)(image)
    assert_all_zero(a - b for a, b in zip(got, want))


def test_kdv2_velocity_is_the_bracket_at_r_two():
    r = 2
    X, Y = image = sp.symbols("X Y")
    p = r + X + r * X * Y
    q = 1 + r * X + X * Y
    w = r * r + r * X + X * Y
    ham = r * sp.log(p / (Y * q * q)) + sp.Rational(1, r) * sp.log(w * q / p)
    source = sp.symbols("x y")
    forward = dict(zip(image, maps.kdv2(r).forward_fn(source)))
    want = [v.subs(forward) for v in bracket_velocity([ham], image)]
    got = maps.kdv2_velocity(r)(source)
    assert_all_zero(a - b for a, b in zip(got, want))
