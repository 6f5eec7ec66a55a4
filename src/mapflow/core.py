"""Forward-mode derivatives, Jacobians, determinants and Nambu brackets.

Phase-space points are plain tuples of floats.  Scalar fields and map
components are ordinary callables written with arithmetic operators, so the
same code evaluates on floats and on :class:`Jet` values; seeding a point
with jets yields exact first derivatives.  Everything here is a pure
function of its inputs, and all container types are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import (
    ArityError,
    IterateDomainError,
    LogDomainError,
    NonFiniteStateError,
    SingularPointError,
)

GUARD_CUTOFF = 1e-12
DEFAULT_SAMPLE_RANGE = (0.2, 2.0)


def float_value(x):
    """Strip jet layers and return the underlying float."""
    while isinstance(x, Jet):
        x = x.value
    return float(x)


class Jet:
    """A value bundled with its first partial derivatives.

    Arithmetic follows the product, quotient and chain rules exactly.  The
    value and partial slots may themselves hold jets; nesting one level
    gives second derivatives, which is how Jacobian determinants are
    differentiated inside quadrature integrands.
    """

    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        self.value = value
        self.partials = tuple(partials)

    def __repr__(self):
        return f"Jet({self.value!r}, {self.partials!r})"

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(
                self.value + other.value,
                tuple(a + b for a, b in zip(self.partials, other.partials)),
            )
        return Jet(self.value + other, self.partials)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value, tuple(-p for p in self.partials))

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(
                self.value * other.value,
                tuple(
                    p * other.value + self.value * q
                    for p, q in zip(self.partials, other.partials)
                ),
            )
        return Jet(self.value * other, tuple(p * other for p in self.partials))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            inv = other.value
            return Jet(
                self.value / inv,
                tuple(
                    (p * inv - self.value * q) / (inv * inv)
                    for p, q in zip(self.partials, other.partials)
                ),
            )
        return Jet(self.value / other, tuple(p / other for p in self.partials))

    def __rtruediv__(self, other):
        # other / self with other constant along the seeded directions
        v = self.value
        return Jet(
            other / v,
            tuple(-other * p / (v * v) for p in self.partials),
        )

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("jet powers support integer exponents only")
        if exponent < 0:
            return (1.0 / self) ** (-exponent)
        if exponent == 0:
            return Jet(1.0, tuple(0.0 for _ in self.partials))
        out = self
        for _ in range(exponent - 1):
            out = out * self
        return out


def jet_log(x):
    """Natural log for floats and jets, guarding the domain."""
    if float_value(x) <= 0.0:
        raise LogDomainError(f"log of non-positive value {float_value(x)!r}")
    if isinstance(x, Jet):
        return Jet(jet_log(x.value), tuple(p / x.value for p in x.partials))
    return math.log(x)


def seed_jets(coords):
    """Attach unit derivative seeds to each coordinate of a point."""
    n = len(coords)
    return tuple(
        Jet(coords[j], tuple(1.0 if i == j else 0.0 for i in range(n)))
        for j in range(n)
    )


def as_state(coords):
    """Validate a phase-space point: finite floats, at least one coordinate."""
    out = tuple(float(c) for c in coords)
    if not out:
        raise ValueError("state vector must have at least one coordinate")
    for c in out:
        if not math.isfinite(c):
            raise NonFiniteStateError(f"non-finite coordinate in state {out}")
    return out


# ---------------------------------------------------------------------------
# map descriptors


@dataclass(frozen=True)
class MapDescriptor:
    """A differentiable invertible map bundled with its domain guards.

    ``forward_fn`` and ``inverse_fn`` accept a sequence of floats or jets
    and return a tuple of the same flavour.  Guards are ``(label, fn)``
    pairs naming the denominators that must stay away from zero; they are
    called with the point's float values before each evaluation, so poles
    raise instead of propagating huge values, and every output's float
    value must be finite.
    """

    name: str
    dimension: int
    params: Mapping[str, float]
    forward_fn: Callable
    inverse_fn: Callable
    forward_guards: tuple = ()
    inverse_guards: tuple = ()
    det_j: Callable | None = None  # closed-form determinant at a source point
    sample_box: tuple | None = None  # per-coordinate (lo, hi) for sampling

    def forward(self, state):
        return self._evaluate(self.forward_fn, self.forward_guards, self.name, state)

    def inverse(self, state):
        return self._evaluate(
            self.inverse_fn, self.inverse_guards, self.name + " (inverse)", state
        )

    def _evaluate(self, fn, guards, where, state):
        point = tuple(float_value(c) for c in state)
        scale = 1.0 + max(map(abs, point), default=0.0)
        for label, guard in guards:
            if abs(guard(point)) <= GUARD_CUTOFF * scale:
                raise SingularPointError(where, label, point)
        out = tuple(fn(state))
        if not all(math.isfinite(float_value(c)) for c in out):
            raise SingularPointError(self.name, "non-finite result", point)
        return out

    def box(self):
        if self.sample_box is not None:
            return self.sample_box
        return (DEFAULT_SAMPLE_RANGE,) * self.dimension


def sample_points(mapdesc, count, seed=42, rng=None):
    """Random points inside the map's declared sampling box."""
    if rng is None:
        rng = np.random.default_rng(seed)
    box = mapdesc.box()
    pts = []
    for _ in range(count):
        pts.append(tuple(float(rng.uniform(lo, hi)) for lo, hi in box))
    return pts


# ---------------------------------------------------------------------------
# derivative operators


def grad(f, point):
    """Gradient of a scalar field at a point, by forward-mode seeding."""
    (row,) = jet_rows(lambda s: (f(s),), as_state(point))
    return tuple(float(p) for p in row)


def jet_rows(func, coords):
    """Derivative rows of a vector function; coords may carry jets.

    The one place points are seeded and partials read off: a component
    that does not depend on the coordinates gives a zero row.
    """
    n = len(coords)
    return [
        list(comp.partials) if isinstance(comp, Jet) else [0.0] * n
        for comp in func(seed_jets(coords))
    ]


def jacobian(mapdesc, point):
    """Jacobian matrix of the forward map at a point, entry (i, j) = dF_i/dx_j."""
    x = as_state(point)
    rows = jet_rows(mapdesc.forward, x)
    return np.array(rows, dtype=float)


def det(matrix):
    """Determinant via closed forms up to 3x3, LU with partial pivoting beyond.

    Entries may be jets; pivoting compares the underlying float magnitudes,
    so the elimination itself stays exact under the jet arithmetic.
    """
    rows = [list(r) for r in matrix]
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("determinant needs a square matrix")
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    sign = 1.0
    for k in range(n):
        p = max(range(k, n), key=lambda r: abs(float_value(rows[r][k])))
        if abs(float_value(rows[p][k])) == 0.0:
            return 0.0
        if p != k:
            rows[p], rows[k] = rows[k], rows[p]
            sign = -sign
        pivot = rows[k][k]
        for i in range(k + 1, n):
            factor = rows[i][k] / pivot
            for j in range(k + 1, n):
                rows[i][j] = rows[i][j] - factor * rows[k][j]
    out = sign
    for k in range(n):
        out = out * rows[k][k]
    return out


def nambu_bracket(fields, point):
    """Bracket of n scalar fields at an n-dimensional point.

    Defined as the determinant of the matrix with rows grad(f_i).  It is
    multilinear and alternating in the fields.
    """
    x = as_state(point)
    n = len(x)
    fields = tuple(fields)
    if len(fields) != n:
        raise ArityError(
            f"bracket over {n} coordinates needs exactly {n} fields, "
            f"got {len(fields)}"
        )
    rows = jet_rows(lambda s: [f(s) for f in fields], x)
    return float(det([[float(p) for p in row] for row in rows]))


def map_det_field(mapdesc):
    """Jacobian determinant of the forward map as a scalar field over x-space.

    The returned callable accepts float or jet coordinates; with jets the
    map is evaluated one seeding level deeper, which supplies the second
    derivatives the determinant's own gradient needs.
    """

    def field_fn(coords):
        rows = jet_rows(mapdesc.forward, coords)
        return det(rows)

    return field_fn


# ---------------------------------------------------------------------------
# composition


def compose_sequence(steps, name, params=None, sample_box=None, det_j=None):
    """Descriptor for step_k(...step_2(step_1(x))); inverse runs backwards."""
    steps = tuple(steps)
    if not steps:
        raise ValueError("need at least one map to compose")
    dim = steps[0].dimension
    for s in steps:
        if s.dimension != dim:
            raise ValueError("composed maps must share a dimension")

    def fwd(state):
        cur = state
        for k, step in enumerate(steps, start=1):
            try:
                cur = step.forward(cur)
            except SingularPointError as exc:
                raise IterateDomainError(name, k, exc) from exc
        return cur

    def inv(state):
        cur = state
        for k, step in enumerate(reversed(steps), start=1):
            try:
                cur = step.inverse(cur)
            except SingularPointError as exc:
                raise IterateDomainError(name + " (inverse)", k, exc) from exc
        return cur

    return MapDescriptor(
        name=name,
        dimension=dim,
        params=dict(params or steps[0].params),
        forward_fn=fwd,
        inverse_fn=inv,
        det_j=det_j,
        sample_box=sample_box or steps[0].sample_box,
    )


def compose(mapdesc, m):
    """The m-fold composition of a map with itself."""
    if m < 1:
        raise ValueError("composition count must be a positive integer")
    if m == 1:
        return mapdesc

    det_j = None
    if mapdesc.det_j is not None:

        def det_j(state):
            total = 1.0
            cur = state
            for _ in range(m):
                total = total * mapdesc.det_j(cur)
                cur = mapdesc.forward(cur)
            return total

    return compose_sequence(
        (mapdesc,) * m,
        name=f"{mapdesc.name}^{m}",
        params=mapdesc.params,
        sample_box=mapdesc.sample_box,
        det_j=det_j,
    )
