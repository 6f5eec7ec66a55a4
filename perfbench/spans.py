"""In-process span tracing for the traced benchmark run.

``Tracer.install`` rebinds a few public names of the program to timing
wrappers; nothing in the program changes and the untraced runs never call
it.  Each span records its name, start, end and parent span.  Parents come
from a thread-local stack; a thread with an empty stack (a scan pool
worker) takes the client thread's innermost open span as its parent, so
the per-point spans of a scan hang under that scan.  Spans are kept in
per-thread arrays in memory and summarised or written out at the end.
"""

from __future__ import annotations

import itertools
import threading
from array import array
from time import perf_counter

import numpy as np


class _Buffer:
    __slots__ = ("name", "sid", "parent", "start", "end")

    def __init__(self):
        self.name = array("H")
        self.sid = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self._client_stack = self._stack()
        # integrator counters reported by the program's own Trajectory.stats
        self.steps = {"rhs_evals": 0, "steps_accepted": 0, "steps_rejected": 0}
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            local.buf = _Buffer()
            with self._lock:
                self._buffers.append(local.buf)
            return local.stack

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name, on_result=None):
        """A callable that records one span around each call of ``fn``."""
        nid = self._name_id(name)
        ids = self._ids
        client = self._client_stack

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = client[-1] if client else 0
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                buf = self._local.buf
                buf.name.append(nid)
                buf.sid.append(sid)
                buf.parent.append(parent)
                buf.start.append(t0)
                buf.end.append(t1)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_trajectory(self, traj):
        stats = traj.stats
        with self._lock:
            self.steps["rhs_evals"] += stats.rhs_evals
            self.steps["steps_accepted"] += stats.accepted
            self.steps["steps_rejected"] += stats.rejected

    def install(self, mf):
        """Rebind the traced public names; ``uninstall`` puts them back."""
        flows, harness = mf.flows, mf.harness
        integrate_gk = flows.integrate_gk

        def traced_gk(f, *args, **kwargs):
            return integrate_gk(self.wrap(f, "quadrature.integrand"), *args, **kwargs)

        plan = [
            (mf.cli, "main", "cli.main", None),
            (harness, "verify_correspondence", "harness.verify_correspondence", None),
            (harness, "qp4_normalization_report", "harness.qp4_normalization_report", None),
            (harness, "conservation_scan", "harness.conservation_scan", None),
            (flows, "integrate", "flows.integrate", self._count_trajectory),
            (flows, "nambu_rhs", "flows.nambu_rhs", None),
            (flows, "source_rhs", "flows.source_rhs", None),
        ]
        for module, attr, name, hook in plan:
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, hook))
        self._restore.append((flows, "integrate_gk", integrate_gk))
        flows.integrate_gk = self.wrap(traced_gk, "quadrature.integrate_gk")

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore = []

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        """All spans as parallel numpy arrays (name id, id, parent, start, end)."""
        with self._lock:
            bufs = list(self._buffers)
        cols = {}
        for key, dtype in (("name", np.int64), ("sid", np.int64), ("parent", np.int64),
                           ("start", np.float64), ("end", np.float64)):
            parts = [np.frombuffer(getattr(b, key), dtype=getattr(b, key).typecode)
                     for b in bufs if len(getattr(b, key))]
            cols[key] = (np.concatenate(parts).astype(dtype) if parts
                         else np.zeros(0, dtype=dtype))
        assert len({len(c) for c in cols.values()}) == 1, "span columns misaligned"
        return cols

    def counts(self):
        """Span count per name, plus the integrator counters."""
        spans = self.arrays()
        per_name = np.bincount(spans["name"], minlength=len(self.names))
        out = {name: int(per_name[i]) for i, name in enumerate(self.names)}
        with self._lock:
            out.update(self.steps)
        return out

    def summary(self):
        """Per span name: count, total, median and self (child-excluded) time.

        A span's self time is its duration minus the union of its
        children's intervals; children of one scan overlap across threads,
        so the union is taken, not the sum.
        """
        s = self.arrays()
        if not len(s["sid"]):
            return {}
        origin = s["start"].min()
        start = s["start"] - origin
        end = s["end"] - origin
        dur = end - start
        index = np.full(int(s["sid"].max()) + 1, -1, dtype=np.int64)
        index[s["sid"]] = np.arange(len(s["sid"]))
        has_parent = (s["parent"] > 0) & (s["parent"] < len(index))
        covered = np.zeros(len(dur))
        kids = np.nonzero(has_parent)[0]
        if len(kids):
            pidx = index[s["parent"][kids]]
            kids, pidx = kids[pidx >= 0], pidx[pidx >= 0]
            order = np.lexsort((start[kids], pidx))
            kids, pidx = kids[order], pidx[order]
            # shift each parent's children into a disjoint band so a single
            # running maximum never crosses from one parent to the next
            band = float(end.max()) + 1.0
            _, group = np.unique(pidx, return_inverse=True)
            ks = start[kids] + group * band
            ke = end[kids] + group * band
            reach = np.concatenate(([-np.inf], np.maximum.accumulate(ke)[:-1]))
            gain = np.clip(ke - np.maximum(ks, reach), 0.0, None)
            covered = np.bincount(pidx, weights=gain, minlength=len(dur))
        own = dur - covered
        out = {}
        for i, name in enumerate(self.names):
            sel = s["name"] == i
            if not sel.any():
                continue
            out[name] = {
                "count": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "median_s": float(np.median(dur[sel])),
                "self_s": float(own[sel].sum()),
            }
        return out

    def children_durations(self, child, parent):
        """Durations of ``child`` spans whose parent is a ``parent`` span."""
        s = self.arrays()
        if child not in self._name_ids or parent not in self._name_ids:
            return np.zeros(0)
        parents = s["sid"][s["name"] == self._name_ids[parent]]
        sel = (s["name"] == self._name_ids[child]) & np.isin(s["parent"], parents)
        return (s["end"] - s["start"])[sel]

    def save(self, path):
        """Write every span to ``path`` as a compressed npz file."""
        s = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **s)
