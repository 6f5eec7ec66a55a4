"""Core micro-probes: single jet and map operations, called directly.

Each probe times a batch of calls several times and reports the median
batch time per call.  The flat probes track what dopri5/rk4 with
closed-form Hamiltonians pay per rhs; the nested ones track what a
quadrature integrand pays.
"""

from __future__ import annotations

import statistics
from time import perf_counter

POINT = (1.1, 0.9, 1.3)
REPEATS = 7


def _per_call(fn, budget_s=0.05):
    """Median seconds per call of ``fn`` over REPEATS batches."""
    reps = 1
    while True:
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        if perf_counter() - t0 >= budget_s / REPEATS or reps >= 1 << 20:
            break
        reps *= 2
    samples = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        samples.append((perf_counter() - t0) / reps)
    return statistics.median(samples)


def _nested_seeds(core, x):
    """Seeds whose value and partial slots are themselves jets, as
    ``core.jet_rows`` builds them when differentiating jet coordinates."""
    inner = core.seed_jets(x)
    n = len(inner)
    return tuple(
        core.Jet(inner[j], tuple(1.0 if i == j else 0.0 for i in range(n)))
        for j in range(n)
    )


def run(mf):
    core = mf.core
    kdv3 = mf.maps.kdv3()
    flat = core.seed_jets(POINT)
    nested = _nested_seeds(core, POINT)
    det_field = core.map_det_field(kdv3)
    a, b = flat[0], flat[1]
    na, nb = nested[0], nested[1]
    return {
        "core.jet_mul_ns": _per_call(lambda: a * b) * 1e9,
        "core.jet_mul_nested_ns": _per_call(lambda: na * nb) * 1e9,
        "core.kdv3_forward_float_us": _per_call(lambda: kdv3.forward(POINT)) * 1e6,
        "core.kdv3_forward_jet_us": _per_call(lambda: kdv3.forward(flat)) * 1e6,
        "core.kdv3_forward_nested_us": _per_call(lambda: kdv3.forward(nested)) * 1e6,
        "core.det_field_us": _per_call(lambda: det_field(flat)) * 1e6,
        "core.jacobian_us": _per_call(lambda: core.jacobian(kdv3, POINT)) * 1e6,
    }
