"""Host speed, timed with a fixed pure-Python reference loop.

The benchmark gets a few cores of a shared host.  Other tenants' load makes
every pure-Python loop on it take up to twice as long, for seconds to
minutes at a time, and that drift swamps a 25 % bound.  The reference loop runs none of
the program's code, so its time measures the host alone.  The runner times
it between calls and scales the bounded time figures by it, to what they
would be on a host where one reference pass takes ``NOMINAL_S``.  At a
given host speed the scale is fixed, so a change of the program moves the
scaled figures by the same share as the raw ones.

    python3 perfbench/hostspeed.py   # median pass time on this host
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# One pass of ``_reference`` on the 2-core shared VM the bounds were set
# on, at its fast end (it took 1.2 to 2.6 ms there).  Only a scale: every
# figure uses the same value.
NOMINAL_S = 1.2e-3
PASSES = 3  # passes per sample; the sample is their median


def _reference(n=2400):
    """Float arithmetic, small tuples, attribute and dict traffic and
    calls: the mix the program's jet arithmetic makes."""
    acc = 0.0
    table = {}
    for i in range(n):
        pair = (i * 0.5, 1.0 + i)
        acc = acc * 0.999 + pair[0] * pair[1] - abs(acc) * 1e-9
        table[i & 63] = pair
        acc += len(table) * 1e-12 + max(pair) * 1e-15
    return acc


def sample():
    """Seconds of one reference pass, the median of PASSES.  The garbage
    collector is off meanwhile, so the size of the program's heap does not
    enter the time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PASSES):
            t0 = perf_counter()
            _reference()
            times.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def slowdown(samples):
    """How much slower than nominal the host ran over ``samples``."""
    return statistics.median(samples) / NOMINAL_S


def timed(fn, *args):
    """``fn(*args)`` and its seconds at nominal host speed, scaled by
    samples taken just before and just after it."""
    before = [sample() for _ in range(3)]
    t0 = perf_counter()
    result = fn(*args)
    took = perf_counter() - t0
    return result, took / slowdown(before + [sample() for _ in range(3)])


if __name__ == "__main__":
    print(statistics.median(sample() for _ in range(200)))
