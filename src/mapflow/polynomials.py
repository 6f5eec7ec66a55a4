"""Exact integer-coefficient polynomials in a single variable.

Coefficients are Python ints stored by ascending degree, so all arithmetic
is exact; these back the recurrence-versus-ODE identity checks that must
hold to the last digit.
"""

from __future__ import annotations

from dataclasses import dataclass


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class ExactPolynomial:
    """Integer polynomial; ``coeffs[k]`` multiplies x**k, zero poly is ()."""

    coeffs: tuple

    @staticmethod
    def of(*coeffs):
        return ExactPolynomial(_trim(int(c) for c in coeffs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        out = [0] * n
        for i, c in enumerate(a):
            out[i] += c
        for i, c in enumerate(b):
            out[i] += c
        return ExactPolynomial(_trim(out))

    def __neg__(self):
        return ExactPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return ExactPolynomial(_trim(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ExactPolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return ExactPolynomial(_trim(out))

    __rmul__ = __mul__

    def derivative(self):
        return ExactPolynomial(
            _trim(k * c for k, c in enumerate(self.coeffs) if k > 0)
        )

    def shift_up(self):
        """Multiply by x."""
        if not self.coeffs:
            return self
        return ExactPolynomial((0,) + self.coeffs)

    def divide_exact(self, k):
        """Divide every coefficient by the integer k; must be exact."""
        out = []
        for c in self.coeffs:
            q, r = divmod(c, k)
            if r != 0:
                raise ValueError(f"coefficient {c} not divisible by {k}")
            out.append(q)
        return ExactPolynomial(_trim(out))

    def eval(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out


ONE = ExactPolynomial.of(1)
X = ExactPolynomial.of(0, 1)


def hermite_polynomials(m_max):
    """The recurrence family P_{k+1} = x P_k - k P_{k-1}, P_0 = 1, P_1 = x.

    This normalization is the unique one compatible with both the
    recurrence and the second-order equation P'' - x P' + m P = 0.
    """
    polys = [ONE, X]
    for k in range(1, m_max):
        polys.append(polys[k].shift_up() - k * polys[k - 1])
    return polys[: m_max + 1]
