"""Adaptive Gauss-Kronrod quadrature over float- or jet-valued integrands.

A 7-point Gauss rule embedded in a 15-point Kronrod rule, refined by
bisecting the interval with the largest error estimate.  Because a
quadrature approximation is a fixed linear combination of integrand
evaluations, applying the same nodes and weights to jet values integrates
the derivative components alongside the value.  The numeric Hamiltonian
builder relies on this for the derivatives along the coordinates the
integral does not run over; the one it runs over gets its derivative from
the integrand at the endpoint instead.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from .core import Jet
from .errors import QuadratureError

# Kronrod-15 abscissae (positive half) and weights, Gauss-7 weights on the
# odd-indexed abscissae.  Standard QUADPACK dqk15 constants.
_XK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


@dataclass
class QuadratureCounts:
    """Running totals of the work ``integrate_gk`` does: 15-point panels
    and the integrand evaluations they make."""

    panels: int = 0
    integrand_calls: int = 0


def _flatten(x, out):
    if isinstance(x, Jet):
        _flatten(x.value, out)
        for p in x.partials:
            _flatten(p, out)
    else:
        out.append(float(x))


def _norm(x):
    comps = []
    _flatten(x, comps)
    # max() skips a NaN that is not the first component
    if not all(map(math.isfinite, comps)):
        raise QuadratureError("non-finite quadrature panel estimate")
    return max(abs(c) for c in comps)


def _kronrod(f, a, b, counts):
    """One 15-point panel, charged to ``counts``; returns (kronrod
    estimate, error estimate)."""
    counts.panels += 1
    counts.integrand_calls += 2 * len(_XK) - 1
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    gauss = 0.0
    kron = 0.0
    for i, x in enumerate(_XK):
        if x == 0.0:
            fx = f(mid)
            kron = kron + _WK[i] * fx
            gauss = gauss + _WG[3] * fx
        else:
            f_lo = f(mid - half * x)
            f_hi = f(mid + half * x)
            pair = f_lo + f_hi
            kron = kron + _WK[i] * pair
            if i % 2 == 1:
                gauss = gauss + _WG[i // 2] * pair
    kron = kron * half
    gauss = gauss * half
    return kron, _norm(kron - gauss)


def integrate_gk(f, a, b, abs_tol=1e-10, max_panels=512, counts=None):
    """Integral of ``f`` over [a, b] to absolute tolerance ``abs_tol``.

    ``f`` may return floats or jets; the error is measured over every
    component.  Raises :class:`QuadratureError` when a panel's estimate is
    not finite, or when the panel budget is exhausted before the tolerance
    is met.  ``counts``, a ``QuadratureCounts``, is charged with every
    panel and integrand evaluation made.
    """
    if counts is None:
        counts = QuadratureCounts()
    value, err = _kronrod(f, a, b, counts)
    counter = itertools.count()
    heap = [(-err, next(counter), a, b, value)]
    total_err = err
    while total_err > abs_tol:
        if len(heap) >= max_panels:
            raise QuadratureError(
                f"quadrature stalled at estimated error {total_err:.3e} "
                f"with {len(heap)} panels (target {abs_tol:.1e})"
            )
        neg_err, _, lo, hi, _ = heapq.heappop(heap)
        total_err += neg_err  # removes the old panel's error
        mid = 0.5 * (lo + hi)
        for seg in ((lo, mid), (mid, hi)):
            v, e = _kronrod(f, *seg, counts)
            heapq.heappush(heap, (-e, next(counter), seg[0], seg[1], v))
            total_err += e
    out = None
    for _, _, _, _, v in heap:
        out = v if out is None else out + v
    return out
