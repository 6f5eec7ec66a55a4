"""Forward-mode derivatives, Jacobians, determinants and Nambu brackets.

Phase-space points are plain tuples of floats.  Scalar fields and map
components are ordinary callables written with arithmetic operators, so the
same code evaluates on floats and on :class:`Jet` values; seeding a point
with jets yields exact first derivatives.  Everything here is a pure
function of its inputs, and all container types are immutable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

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
    gives second derivatives.  The program nests them only where a
    quadrature integrand differentiates the Jacobian determinant of a map
    that declares no closed-form ``det_j``.

    The operators dispatch on the jet's type, never on its length.
    ``Jet(value, partials)`` copies the partials into a tuple and returns a
    jet of the class that matches their number: 2 and 3 partials each have
    a subclass whose operators write every partial out one by one, and
    ``Jet`` itself serves 1 and 4 or more through comprehensions.  Every
    operator builds its result in its own class, so the jets that
    ``seed_jets`` makes keep their class through any arithmetic.  Both
    kinds of body compute each partial as the same expression in the same
    operand order, so they agree bit for bit.  The two operands of a binary
    operator must carry the same number of partials, as jets seeded
    together do; a jet with any other number is a ``ValueError``.
    """

    __slots__ = ("value", "partials")

    def __new__(cls, value, partials):
        return _new_jet(value, tuple(partials))

    def __repr__(self):
        return f"Jet({self.value!r}, {self.partials!r})"

    def __add__(self, other):
        if isinstance(other, Jet):
            sp, op = self.partials, other.partials
            partials = tuple([p + q for p, q in zip(sp, op, strict=True)])
            return _jet(self.value + other.value, partials)
        return _jet(self.value + other, self.partials)

    __radd__ = __add__

    def __neg__(self):
        return _jet(-self.value, tuple([-p for p in self.partials]))

    # x - y is x + (-y) bit for bit in IEEE 754, so no negated jet is built
    def __sub__(self, other):
        if isinstance(other, Jet):
            sp, op = self.partials, other.partials
            partials = tuple([p - q for p, q in zip(sp, op, strict=True)])
            return _jet(self.value - other.value, partials)
        return _jet(self.value - other, self.partials)

    def __rsub__(self, other):
        return _jet(other - self.value, tuple([-p for p in self.partials]))

    def __mul__(self, other):
        sv, sp = self.value, self.partials
        if isinstance(other, Jet):
            ov, op = other.value, other.partials
            partials = tuple([p * ov + sv * q for p, q in zip(sp, op, strict=True)])
            return _jet(sv * ov, partials)
        return _jet(sv * other, tuple([p * other for p in sp]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        sv, sp = self.value, self.partials
        if isinstance(other, Jet):
            ov, op = other.value, other.partials
            sq = ov * ov
            partials = tuple(
                [(p * ov - sv * q) / sq for p, q in zip(sp, op, strict=True)]
            )
            return _jet(sv / ov, partials)
        return _jet(sv / other, tuple([p / other for p in sp]))

    def __rtruediv__(self, other):
        # other / self with other constant along the seeded directions
        v, c = self.value, -other
        sq = v * v
        return _jet(other / v, tuple([c * p / sq for p in self.partials]))

    def __pow__(self, exponent):
        """Repeated multiplication, left to right; a negative exponent
        raises 1 / self.  A square is the one product ``self * self`` that
        the loop would make, without the loop."""
        if not isinstance(exponent, int):
            raise TypeError("jet powers support integer exponents only")
        if exponent == 2:
            return self * self
        if exponent < 0:
            return (1.0 / self) ** (-exponent)
        if exponent == 0:
            return _new_jet(1.0, (0.0,) * len(self.partials))
        out = self
        for _ in range(exponent - 1):
            out = out * self
        return out


def _mismatch(jet, other):
    """The error for a binary operator on jets with different numbers of
    partials."""
    return ValueError(
        f"jet operands carry {len(jet.partials)} and {len(other.partials)} partials"
    )


class _Jet2(Jet):
    """A jet with 2 partials, each written out."""

    __slots__ = ()

    def __add__(self, other):
        if other.__class__ is _Jet2:
            (p0, p1), (q0, q1) = self.partials, other.partials
            return _jet2(self.value + other.value, (p0 + q0, p1 + q1))
        if isinstance(other, Jet):
            raise _mismatch(self, other)
        return _jet2(self.value + other, self.partials)

    __radd__ = __add__

    def __neg__(self):
        p0, p1 = self.partials
        return _jet2(-self.value, (-p0, -p1))

    def __sub__(self, other):
        if other.__class__ is _Jet2:
            (p0, p1), (q0, q1) = self.partials, other.partials
            return _jet2(self.value - other.value, (p0 - q0, p1 - q1))
        if isinstance(other, Jet):
            raise _mismatch(self, other)
        return _jet2(self.value - other, self.partials)

    def __rsub__(self, other):
        if isinstance(other, Jet):
            raise _mismatch(self, other)
        p0, p1 = self.partials
        return _jet2(other - self.value, (-p0, -p1))

    def __mul__(self, other):
        sv, (p0, p1) = self.value, self.partials
        if other.__class__ is _Jet2:
            ov, (q0, q1) = other.value, other.partials
            return _jet2(sv * ov, (p0 * ov + sv * q0, p1 * ov + sv * q1))
        if isinstance(other, Jet):
            raise _mismatch(self, other)
        return _jet2(sv * other, (p0 * other, p1 * other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        sv, (p0, p1) = self.value, self.partials
        if other.__class__ is _Jet2:
            ov, (q0, q1) = other.value, other.partials
            sq = ov * ov
            return _jet2(sv / ov, ((p0 * ov - sv * q0) / sq, (p1 * ov - sv * q1) / sq))
        if isinstance(other, Jet):
            raise _mismatch(self, other)
        return _jet2(sv / other, (p0 / other, p1 / other))

    def __rtruediv__(self, other):
        if isinstance(other, Jet):
            raise _mismatch(self, other)
        v, c, (p0, p1) = self.value, -other, self.partials
        sq = v * v
        return _jet2(other / v, (c * p0 / sq, c * p1 / sq))


class _Jet3(Jet):
    """A jet with 3 partials, each written out."""

    __slots__ = ()

    def __add__(self, other):
        if other.__class__ is _Jet3:
            (p0, p1, p2), (q0, q1, q2) = self.partials, other.partials
            return _jet3(self.value + other.value, (p0 + q0, p1 + q1, p2 + q2))
        if isinstance(other, Jet):
            raise _mismatch(self, other)
        return _jet3(self.value + other, self.partials)

    __radd__ = __add__

    def __neg__(self):
        p0, p1, p2 = self.partials
        return _jet3(-self.value, (-p0, -p1, -p2))

    def __sub__(self, other):
        if other.__class__ is _Jet3:
            (p0, p1, p2), (q0, q1, q2) = self.partials, other.partials
            return _jet3(self.value - other.value, (p0 - q0, p1 - q1, p2 - q2))
        if isinstance(other, Jet):
            raise _mismatch(self, other)
        return _jet3(self.value - other, self.partials)

    def __rsub__(self, other):
        if isinstance(other, Jet):
            raise _mismatch(self, other)
        p0, p1, p2 = self.partials
        return _jet3(other - self.value, (-p0, -p1, -p2))

    def __mul__(self, other):
        sv, (p0, p1, p2) = self.value, self.partials
        if other.__class__ is _Jet3:
            ov, (q0, q1, q2) = other.value, other.partials
            return _jet3(
                sv * ov, (p0 * ov + sv * q0, p1 * ov + sv * q1, p2 * ov + sv * q2)
            )
        if isinstance(other, Jet):
            raise _mismatch(self, other)
        return _jet3(sv * other, (p0 * other, p1 * other, p2 * other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        sv, (p0, p1, p2) = self.value, self.partials
        if other.__class__ is _Jet3:
            ov, (q0, q1, q2) = other.value, other.partials
            sq = ov * ov
            partials = (
                (p0 * ov - sv * q0) / sq,
                (p1 * ov - sv * q1) / sq,
                (p2 * ov - sv * q2) / sq,
            )
            return _jet3(sv / ov, partials)
        if isinstance(other, Jet):
            raise _mismatch(self, other)
        return _jet3(sv / other, (p0 / other, p1 / other, p2 / other))

    def __rtruediv__(self, other):
        if isinstance(other, Jet):
            raise _mismatch(self, other)
        v, c, (p0, p1, p2) = self.value, -other, self.partials
        sq = v * v
        return _jet3(other / v, (c * p0 / sq, c * p1 / sq, c * p2 / sq))


def _maker(cls):
    """A constructor of ``cls`` jets that holds the tuple ``partials``
    itself, not a copy."""

    def make(value, partials, _new=object.__new__, _cls=cls):
        out = _new(_cls)
        out.value = value
        out.partials = partials
        return out

    return make


_jet, _jet2, _jet3 = _maker(Jet), _maker(_Jet2), _maker(_Jet3)
_MAKERS = {2: _jet2, 3: _jet3}


def _new_jet(value, partials):
    """A jet of the class that matches the number of partials, holding the
    tuple ``partials`` itself."""
    return _MAKERS.get(len(partials), _jet)(value, partials)


def jet_log(x):
    """Natural log for floats and jets, guarding the domain."""
    if float_value(x) <= 0.0:
        raise LogDomainError(f"log of non-positive value {float_value(x)!r}")
    if isinstance(x, Jet):
        v = x.value
        return _new_jet(jet_log(v), tuple([p / v for p in x.partials]))
    return math.log(x)


@lru_cache(maxsize=16)
def _unit_seeds(n):
    """The n unit partial tuples; shared, since tuples are immutable."""
    return tuple(tuple(1.0 if i == j else 0.0 for i in range(n)) for j in range(n))


def seed_jets(coords):
    """Attach unit derivative seeds to each coordinate of a point."""
    n = len(coords)
    return tuple(map(_MAKERS.get(n, _jet), coords, _unit_seeds(n)))


def as_state(coords):
    """Validate a phase-space point: finite floats, at least one coordinate."""
    out = tuple(map(float, coords))
    if not out:
        raise ValueError("state vector must have at least one coordinate")
    if not all(map(math.isfinite, out)):
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
        if len(state) != self.dimension:
            raise ValueError(
                f"{where} takes {self.dimension} coordinates, got {len(state)}"
            )
        point = tuple(map(float_value, state))
        scale = 1.0 + max(map(abs, point), default=0.0)
        for label, guard in guards:
            if abs(guard(point)) <= GUARD_CUTOFF * scale:
                raise SingularPointError(where, label, point)
        out = tuple(fn(state))
        if not all(map(math.isfinite, map(float_value, out))):
            raise SingularPointError(where, SingularPointError.NON_FINITE, point)
        return out

    def box(self):
        if self.sample_box is not None:
            return self.sample_box
        return (DEFAULT_SAMPLE_RANGE,) * self.dimension


def sample_points(mapdesc, count, seed=42, rng=None):
    """Random points inside the map's declared sampling box."""
    if rng is None:
        rng = random.Random(seed)
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


def jet_values_rows(func, coords):
    """Values and derivative rows of a vector function from one seeded
    evaluation; coords may carry jets.

    The one place points are seeded and partials read off: a component
    that does not depend on the coordinates gives a zero row.
    """
    n = len(coords)
    values, rows = [], []
    for comp in func(seed_jets(coords)):
        if isinstance(comp, Jet):
            values.append(comp.value)
            rows.append(list(comp.partials))
        else:
            values.append(comp)
            rows.append([0.0] * n)
    return values, rows


def jet_rows(func, coords):
    """Derivative rows of a vector function; coords may carry jets."""
    return jet_values_rows(func, coords)[1]


def jacobian(mapdesc, point):
    """Jacobian rows of the forward map at a point, entry (i, j) = dF_i/dx_j."""
    rows = jet_rows(mapdesc.forward, as_state(point))
    return tuple(tuple(float(p) for p in row) for row in rows)


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

    The returned callable accepts float or jet coordinates.  It is the
    descriptor's declared ``det_j`` when there is one, so jet coordinates
    stay single-level.  Otherwise the determinant of the map's derivative
    rows is taken; with jets the map is then evaluated one seeding level
    deeper, which supplies the second derivatives the determinant's own
    gradient needs.
    """
    if mapdesc.det_j is not None:
        return mapdesc.det_j

    def field_fn(coords):
        rows = jet_rows(mapdesc.forward, coords)
        return det(rows)

    return field_fn


# ---------------------------------------------------------------------------
# composition


def compose_sequence(steps, name, params=None, sample_box=None):
    """Descriptor for step_k(...step_2(step_1(x))); inverse runs backwards.

    Its guards are the first step's forward and the last step's inverse ones.
    When every step declares ``det_j``, so does the composite: by the chain
    rule it is the product of the step determinants at successive iterates.
    """
    steps = tuple(steps)
    if not steps:
        raise ValueError("need at least one map to compose")
    dim = steps[0].dimension
    for s in steps:
        if s.dimension != dim:
            raise ValueError("composed maps must share a dimension")

    def advance(k, state):
        try:
            return steps[k - 1].forward(state)
        except SingularPointError as exc:
            raise IterateDomainError(name, k, exc) from exc

    def fwd(state):
        cur = state
        for k in range(1, len(steps) + 1):
            cur = advance(k, cur)
        return cur

    def inv(state):
        cur = state
        for k, step in enumerate(reversed(steps), start=1):
            try:
                cur = step.inverse(cur)
            except SingularPointError as exc:
                raise IterateDomainError(name + " (inverse)", k, exc) from exc
        return cur

    def det_j(state):
        cur = state
        total = steps[0].det_j(cur)
        for k in range(1, len(steps)):
            cur = advance(k, cur)
            total = total * steps[k].det_j(cur)
        return total

    declared = all(s.det_j is not None for s in steps)
    return MapDescriptor(
        name=name,
        dimension=dim,
        params=dict(params or steps[0].params),
        forward_fn=fwd,
        inverse_fn=inv,
        forward_guards=steps[0].forward_guards,
        inverse_guards=steps[-1].inverse_guards,
        det_j=det_j if declared else None,
        sample_box=sample_box or steps[0].sample_box,
    )


def compose(mapdesc, m):
    """The m-fold composition of a map with itself."""
    if m < 1:
        raise ValueError("composition count must be a positive integer")
    if m == 1:
        return mapdesc
    return compose_sequence((mapdesc,) * m, name=f"{mapdesc.name}^{m}")
