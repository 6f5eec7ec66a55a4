"""Forward-mode derivatives, Jacobians, determinants and Nambu brackets.

Phase-space points are plain tuples of floats.  Scalar fields and map
components are ordinary callables written with arithmetic operators, so the
same code evaluates on floats and on :class:`Jet` values; seeding a point
with jets yields exact first derivatives.  Everything here is a pure
function of its inputs, and all container types are immutable.

Every decision the jet layer takes on a value, and every ``math`` call on
one, goes through :func:`on_floats` (such as :func:`jet_log`'s domain
check and logarithm) or is a map's guard or finiteness check.  That lets
:func:`trace` run a function of a point once on traced scalars, which
record each float operation the jets make, and compile the record into
straight-line float code: each distinct operation once, negations and
recorded calls included, on the operands the jets gave it, so the same
bits (see ``_Tape``).  Divisions, powers, calls and checks run in the
order the jets first made them; a ``+ - *`` or negation whose value one
other line reads is written into that line.  A call through
``on_floats`` is recorded as a call that runs on the point's floats.  A
map's guard and finiteness checks are recorded as inline check lines over
the traced values (see ``MapDescriptor``).  When a call or check
raises, or a division by zero does, the point re-runs through the
traced function itself, which raises what it always has.  A decision
that may go either way goes through :func:`assume`: a trace takes it as
true and records a check that re-runs the point the same way when it is
false there.  A call made only for its
effect, such as charging a work counter, goes through :func:`effect`: a
trace makes no such call but records it, and the compiled code makes it
once every check has passed, so a point that re-runs is charged once.  A
trace is abandoned (``trace`` returns None) when the traced function reads
a traced value any other way (``float``, ``bool``, a comparison,
``hash``, ``abs``, an index, or ``**`` other than by an int constant),
meets a constant that is neither ``int`` nor ``float``, or raises.
:func:`det` reads none up to 3x3 and pivots on values beyond, so a flow's
bracket velocity, whose minors are (n-1)x(n-1), traces up to n = 4.  A
trace freezes every constant it meets, so it is valid only for a function
of its point alone.
"""

from __future__ import annotations

import math
import random
import threading
from collections import Counter
from itertools import chain
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

from .errors import (
    ArityError,
    IterateDomainError,
    LogDomainError,
    MapflowError,
    NonFiniteStateError,
    SingularPointError,
)

GUARD_CUTOFF = 1e-12
DEFAULT_SAMPLE_RANGE = (0.2, 2.0)


def float_value(x):
    """Strip jet layers and return the underlying float; a traced scalar
    stands for a float and is returned as it is."""
    while isinstance(x, Jet):
        x = x.value
    return x if x.__class__ is _Traced else float(x)


class Jet:
    """A value bundled with its first partial derivatives.

    Arithmetic follows the product, quotient and chain rules exactly.  The
    value and partial slots may themselves hold jets; nesting one level
    gives second derivatives.  The program nests them only where a
    quadrature integrand differentiates the Jacobian determinant of a map
    that declares no closed-form ``det_j``.

    One class serves any number of partials: ``Jet(value, partials)``
    copies the partials into a tuple, and every operator computes each
    partial through one comprehension.  The two operands of a binary
    operator must carry the same number of partials, as jets seeded
    together do; on any other pair ``zip(strict=True)`` raises
    ``ValueError``.
    """

    __slots__ = ("value", "partials")

    def __new__(cls, value, partials):
        return _jet(value, tuple(partials))

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
        raises 1 / self."""
        if not isinstance(exponent, int):
            raise TypeError("jet powers support integer exponents only")
        if exponent < 0:
            return (1.0 / self) ** (-exponent)
        if exponent == 0:
            return _jet(1.0, (0.0,) * len(self.partials))
        out = self
        for _ in range(exponent - 1):
            out = out * self
        return out


def _jet(value, partials, _new=object.__new__):
    """A jet that holds the tuple ``partials`` itself, not a copy."""
    out = _new(Jet)
    out.value = value
    out.partials = partials
    return out


def jet_log(x):
    """Natural log for floats and jets, guarding the domain."""
    if isinstance(x, Jet):
        v = x.value
        return _jet(jet_log(v), tuple([p / v for p in x.partials]))
    return on_floats(_log, x)


def _log(x):
    if float(x) <= 0.0:
        raise LogDomainError(f"log of non-positive value {float(x)!r}")
    return math.log(x)


@lru_cache(maxsize=16)
def _unit_seeds(n):
    """The n unit partial tuples; shared, since tuples are immutable."""
    return tuple(tuple(1.0 if i == j else 0.0 for i in range(n)) for j in range(n))


def seed_jets(coords):
    """Attach unit derivative seeds to each coordinate of a point."""
    return tuple(map(_jet, coords, _unit_seeds(len(coords))))


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
    value must be finite.  Under a trace both checks are recorded as one
    inline line each: the guards run on the traced point, so their
    arithmetic is recorded once and shared with the map's own factors.  A
    guard that reads a value keeps the recorded call of ``on_floats``.
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
        tape = _tape_of(point)
        if guards:
            if tape is None:
                _refuse_poles(point, where, guards)
            elif not tape.check(_poles_fail, point, guards):
                on_floats(_refuse_poles, point, where, guards)
        out = tuple(fn(state))
        values = tuple(map(float_value, out))
        if tape is None:
            _refuse_non_finite(values, where, point)
        else:
            tape.check(_non_finite_fail, values)
        return out

    def box(self):
        if self.sample_box is not None:
            return self.sample_box
        return (DEFAULT_SAMPLE_RANGE,) * self.dimension


def _refuse_poles(point, where, guards):
    scale = 1.0 + max(map(abs, point), default=0.0)
    for label, guard in guards:
        if abs(guard(point)) <= GUARD_CUTOFF * scale:
            raise SingularPointError(where, label, point)


def _refuse_non_finite(values, where, point):
    if not all(map(math.isfinite, values)):
        raise SingularPointError(where, SingularPointError.NON_FINITE, point)


def _tape_of(values):
    """The tape of the first traced scalar among ``values``, else None."""
    for v in values:
        if v.__class__ is _Traced:
            return v.tape
    return None


def _poles_fail(tape, point, guards):
    """``_refuse_poles``'s condition as a form over the recorded guard
    values and point (see ``_Tape.record``), and the names it reads."""
    first, *rest = [tape.operand(guard(point)) for _, guard in guards]
    xs = [tape.operand(x) for x in point]
    largest = ", ".join(["abs({})"] * len(xs))
    if len(xs) > 1:
        largest = "max(" + largest + ")"
    fails = "abs({}) <= (s_ := {} * (1.0 + " + largest + "))"
    fails += " or abs({}) <= s_" * len(rest)
    return fails, (first, tape.const(GUARD_CUTOFF), *xs, *rest)


def _non_finite_fail(tape, values):
    """``_refuse_non_finite``'s condition as a form over the recorded
    values, and the names it reads."""
    names = [tape.operand(v) for v in values]
    return "not (" + " and ".join(["isfinite({})"] * len(names)) + ")", names


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
    so the elimination itself stays exact under the jet arithmetic.  The
    closed forms read no value, so a trace records them; pivoting reads
    traced values and abandons a trace.
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


def minors(rows):
    """The signed minors of n-1 rows of n floats or jets: component j is
    det(rows + [e_j]), so each row dotted with them is zero; no rows give
    (1.0,).  Up to n = 4 they are ``det``'s closed forms, which read no value."""
    n = len(rows) + 1
    return tuple(
        (1.0 if (n + j + 1) % 2 == 0 else -1.0)
        * det([row[:j] + row[j + 1 :] for row in rows])
        for j in range(n)
    )


def nambu_bracket(fields, point):
    """Bracket of n scalar fields at an n-dimensional point.

    Defined as the determinant of the matrix with rows grad(f_i): the last
    row dotted with the others' ``minors``.  Multilinear and alternating.
    """
    x = as_state(point)
    n = len(x)
    fields = tuple(fields)
    if len(fields) != n:
        raise ArityError(
            f"bracket over {n} coordinates needs exactly {n} fields, "
            f"got {len(fields)}"
        )
    *rows, last = jet_rows(lambda s: [f(s) for f in fields], x)
    return float(sum(p * c for p, c in zip(last, minors(rows))))


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


# ---------------------------------------------------------------------------
# tracing


class _Untraceable(Exception):
    """A traced scalar was used in a way a recorded trace cannot replay."""


class _Unassumed(MapflowError):
    """A decision a trace assumed true is false at this point."""


def _refuse(self, *args):
    raise _Untraceable("a traced value was read")


def _binary(symbol):
    """The operator and its reflected form, each recorded by the tape."""

    def op(self, other):
        if isinstance(other, Jet):  # the jet's reflected operator records it
            return NotImplemented
        return self.tape.arithmetic(self, symbol, other)

    def rop(self, other):
        return self.tape.arithmetic(other, symbol, self)

    return op, rop


class _Traced:
    """A float under a trace.  ``+ - * /``, their reflected forms,
    negation and a power with an int constant exponent each record one
    operation on the tape and return the traced scalar it assigns; with a
    jet operand they leave the operation to the jet, whose parts then
    record it.  Every other use reads the value, which a trace cannot
    replay at another point, and abandons the trace."""

    __slots__ = ("tape", "name")

    def __init__(self, tape, name):
        self.tape = tape
        self.name = name

    __add__, __radd__ = _binary("+")
    __sub__, __rsub__ = _binary("-")
    __mul__, __rmul__ = _binary("*")
    __truediv__, __rtruediv__ = _binary("/")

    def __neg__(self):
        return self.tape.record("-{}", (self.name,), droppable=True)

    def __pow__(self, exponent):
        """``self ** k`` for an int constant k, the one C operation the
        float path makes; any other exponent abandons the trace."""
        if exponent.__class__ is not int:
            _refuse(self)
        return self.tape.arithmetic(self, "**", exponent)

    __float__ = __bool__ = __index__ = __abs__ = __hash__ = _refuse
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __rpow__ = _refuse


def _is_one(value):
    return value.__class__ is float and value == 1.0


# how deep the parentheses of values written into their readers may nest:
# CPython refuses more than 200, and a call or check adds a few of its own
_INLINE_DEPTH = 50


# the form of each arithmetic operation over its two operands' names
_FORMS = {symbol: "{} " + symbol + " {}" for symbol in ("+", "-", "*", "/", "**")}


class _Tape:
    """The straight-line code a trace records, with the constants it reads
    bound by position, and the calls it makes for their effect alone once
    every line has run.

    Each distinct line is recorded once, keyed in ``known`` on its form
    and the names it reads: an arithmetic operation on its operator and
    operand names, with the operands of ``+`` and ``*`` in one order (both
    commute bit for bit), a negation on its operand, a recorded call on
    its function and arguments, and a check on its condition.  A recorded
    call is of a pure function, so the first line stands for every repeat,
    and a repeated check could fail only where the first already has.
    ``x * 1.0``, ``1.0 * x`` and ``x / 1.0`` are ``x`` itself, bit for
    bit.  Each distinct constant is bound once: an int or float by its
    class and ``repr``, so that 0.0 and -0.0 stay apart, any other by
    identity.  Each line keeps the names it reads, so that ``source``
    drops the ``+ - *`` and negation lines whose values nothing reads, and
    writes each one that a single other line reads into that line; none of
    them can raise on floats.  A division or a power can, and a recorded
    call or check line may, so all four are always kept as lines of their
    own.  A check line (``check``) raises ``_Unassumed`` through the
    compiled code's ``FAIL`` where its condition holds, and assigns
    nothing; a map writes its guard and finiteness checks this way.  A
    call made for its effect (``effect``) is not a line: it is recorded
    once per call.  A constant that only dropped lines read is not bound."""

    def __init__(self):
        self.lines = []  # (name, form, names read, droppable)
        self.known = {}  # (form, names read) -> the traced scalar that holds it
        self.consts = []
        self.const_names = {}
        self.effects = []  # (form, names read) of a call

    def record(self, form, reads, droppable=False):
        """The traced scalar that holds ``form`` over ``reads``, an
        expression with ``{}`` for each name it reads, in order; recorded
        as a new line only when no earlier line holds the same one."""
        out = self.known.get((form, reads))
        if out is None:
            out = self.known[form, reads] = _Traced(self, f"v{len(self.lines)}")
            self.lines.append((out.name, form, reads, droppable))
        return out

    def arithmetic(self, left, symbol, right):
        """``left symbol right``, where one operand is a traced scalar and
        the other a traced scalar or an int or float (an int for ``**``)."""
        if symbol == "*" and _is_one(left):
            return right
        if symbol in "*/" and _is_one(right):
            return left
        a, b = self.operand(left), self.operand(right)
        if symbol in "+*" and b < a:
            a, b = b, a
        return self.record(_FORMS[symbol], (a, b), symbol in ("+", "-", "*"))

    def check(self, fails, *args):
        """Record the check that ``fails(self, *args)`` writes, a condition
        and the names it reads, as one line, ``if condition: FAIL()``,
        that raises ``_Unassumed`` where the condition holds, so that the
        point re-runs through the traced function, which raises the error
        the check stands for; a map's guard and finiteness checks.  False,
        recording nothing, when the condition reads a value, as a guard
        that calls ``abs`` does."""
        try:
            condition, reads = fails(self, *args)
        except _Untraceable:
            return False
        self.record("if " + condition + ": FAIL()", tuple(reads))
        return True

    def const(self, value):
        cls = value.__class__
        key = (cls, repr(value)) if cls is float or cls is int else id(value)
        name = self.const_names.get(key)
        if name is None:
            name = self.const_names[key] = f"c{len(self.consts)}"
            self.consts.append(value)
        return name

    def operand(self, value):
        """An arithmetic operand: a traced scalar or an int or float."""
        if value.__class__ is _Traced:
            return value.name
        if value.__class__ is float or value.__class__ is int:
            return self.const(value)
        raise _Untraceable(f"a {type(value).__name__} constant")

    def arg(self, value, reads):
        """The form of an argument of a recorded call, a traced scalar, a
        tuple that holds one, or any constant, whose names are added to
        ``reads``."""
        if value.__class__ is tuple and any(v.__class__ is _Traced for v in value):
            return "(" + _listed(self.arg(v, reads) for v in value) + ")"
        reads.append(value.name if value.__class__ is _Traced else self.const(value))
        return "{}"

    def call(self, fn, args):
        """The form of the call ``fn(*args)`` and the names it reads, its
        constants included."""
        reads = [self.const(fn)]
        form = "{}(" + ", ".join([self.arg(a, reads) for a in args]) + ")"
        return form, tuple(reads)

    def source(self, inputs, out):
        """The lines that compute ``out`` or may raise, in the order they
        were recorded, and the constants they read.  One backward pass
        keeps a line when it may raise or a kept line, a call or ``out``
        reads its value, and binds a constant only when one of those reads
        it.  Then each kept ``+ - *`` or negation line that exactly one
        other kept line reads, and no call or ``out``, is written into that
        line in parentheses instead of assigned, while its parentheses nest
        at most ``_INLINE_DEPTH`` deep.  It cannot raise and has no effect,
        and every name is assigned once, so making it where its value is
        read changes no operand and no bit."""
        outside = set(out)
        for _, reads in self.effects:
            outside.update(reads)
        live = set(outside)
        kept = []
        for line in reversed(self.lines):
            name, _, reads, droppable = line
            if not droppable or name in live:
                live.update(reads)
                kept.append(line)
        kept.reverse()
        uses = Counter(chain.from_iterable([reads for _, _, reads, _ in kept]))
        once = {name for name, count in uses.items() if count == 1} - outside
        inlined = {}  # name -> its expression in parentheses
        depth = {}  # name -> how deep those nest
        body = []
        for name, form, reads, droppable in kept:
            expr = form.format(*map(inlined.get, reads, reads))
            if droppable and name in once:
                nest = 1 + max([depth.get(r, 0) for r in reads])
                if nest <= _INLINE_DEPTH:
                    inlined[name] = f"({expr})"
                    depth[name] = nest
                    continue
            body.append(expr if form.startswith("if ") else f"{name} = {expr}")
        bound = [i for i in range(len(self.consts)) if f"c{i}" in live]
        source = "\n".join(
            [
                f"def bind(fallback, {_listed(f'c{i}' for i in bound)}):",
                "    def traced(x):",
                "        try:",
                "            " + _listed(inputs) + "= x",
                *("            " + line for line in body),
                "        except (ZeroDivisionError, MapflowError):",
                "            return fallback(x)",
                *("        " + form.format(*reads) for form, reads in self.effects),
                f"        return ({_listed(out)})",
                "    return traced",
            ]
        )
        return source, [self.consts[i] for i in bound]


def on_floats(fn, first, *rest):
    """``fn(first, *rest)``, where ``first`` is a float or a tuple of them:
    the one place the jet layer decides on a value or calls ``math`` on
    it, apart from a map's guard and finiteness checks, which a trace
    writes inline (see ``MapDescriptor``); only a guard that reads a value
    comes here.

    When ``first`` is, or holds, a traced scalar, the call is recorded
    instead, once for each distinct call (see ``_Tape``), as a call that
    runs on that point's floats, and a traced scalar stands for its
    result.  So ``fn`` may decide on ``first``
    alone; the other arguments are constants of the trace, or tuples of
    its scalars."""
    tape = _tape_of(first if first.__class__ is tuple else (first,))
    if tape is None:
        return fn(first, *rest)
    return tape.record(*tape.call(fn, (first, *rest)))


def assume(fn, first, *rest):
    """``fn(first, *rest)``, a decision on ``first`` alone (a float or a
    tuple of them) that is true on the path a trace takes.

    When ``first`` is, or holds, a traced scalar, the trace takes that
    path: it returns True and records a check that raises a MapflowError
    when ``fn`` is false on the point's floats, so that the point re-runs
    through the traced function, which decides afresh."""
    if _tape_of(first if first.__class__ is tuple else (first,)) is None:
        return fn(first, *rest)
    on_floats(_assumed, first, fn, *rest)
    return True


def _assumed(first, fn, *rest):
    if not fn(first, *rest):
        raise _Unassumed(f"{fn.__name__} is false at {first!r}")


def _fail():
    raise _Unassumed("a recorded check failed")


class _Active(threading.local):
    tape = None  # the tape of the trace running in this thread


_active = _Active()


def effect(fn, *args):
    """``fn(*args)``, a call made for its effect alone, such as charging a
    work counter.  Under a trace it is recorded instead of made: the
    compiled code makes it after every recorded line has run, so a point
    that re-runs through the traced function is charged by that alone.
    Its arguments are constants of the trace."""
    tape = _active.tape
    if tape is None:
        fn(*args)
    else:
        tape.effects.append(tape.call(fn, args))


def trace(fn, n):
    """``fn``, a function of a tuple of n floats that returns a tuple of
    floats, run once on traced scalars and compiled into straight-line
    float code; None when the trace is abandoned.

    The compiled function makes each distinct float operation the trace
    made once, on the same operands, and none whose value goes unread and
    that cannot raise; those that may raise run in the order the trace
    first made them (see ``_Tape``), so it returns the same bits.  When a
    recorded ``on_floats`` call raises a MapflowError, an ``assume`` check
    or an inline guard or finiteness check fails, or a division by zero is
    raised, it returns ``fn`` of the point instead, which raises what it
    always has; otherwise it makes the recorded ``effect`` calls and
    returns.  The trace itself makes none of them."""
    tape = _Tape()
    inputs = [_Traced(tape, f"x{i}") for i in range(n)]
    outer, _active.tape = _active.tape, tape
    try:
        out = [tape.operand(v) for v in fn(tuple(inputs))]
    except Exception:  # abandoned: fn stays the way to evaluate it
        return None
    finally:
        _active.tape = outer
    source, consts = tape.source([v.name for v in inputs], out)
    return _compiled(source)(fn, *consts)


def _listed(names):
    """The names as the items of a Python list, each followed by a comma."""
    return "".join(name + ", " for name in names)


def _exec(source):
    """The ``bind`` function of generated source, compiled afresh."""
    namespace = {"MapflowError": MapflowError, "FAIL": _fail}
    namespace["isfinite"] = math.isfinite
    exec(compile(source, "<trace>", "exec"), namespace)
    return namespace["bind"]


@lru_cache(maxsize=64)
def _compiled(source):
    """``_exec`` of a trace's, a Runge-Kutta step's or a Runge-Kutta
    loop's source, compiled once per source."""
    return _exec(source)
