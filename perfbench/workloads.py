"""The four benchmark workloads: seeded inputs, the public call each op
makes, and the independent check applied to what the call returned.

Every workload is driven by one client in a closed loop (the next call
starts when the previous one returns).  A workload's ``round_inputs(seed)``
is the fixed list of calls one round makes; the runner repeats whole
rounds, so for a given seed every run executes the same calls in the same
order.  Inputs are seeded jitter around the points the acceptance tests
use.

Each call ends in one of three ways, per op:

* pass  - the program reported success and the check agrees;
* fail  - the program reported failure (non-zero exit, exception,
          ``passed: false``); recorded by exit code or exception class;
* wrong - the program reported success but the check disagrees.

``failed`` counts fail + wrong; the run is ``correct`` only when no op is
wrong.  Failures are never retried or filtered out.
"""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass, field

TOL_DEVIATION = 1e-6
TOL_DRIFT = 1e-7
# Per-integration step budget: a stall near a pole becomes a counted
# MaxStepsError instead of a hung run.  The catalog inputs below need at
# most ~300 dopri5 steps and ~550 rk4 steps.
MAX_STEPS = 5000
# Quadrature-built rhs cost ~1-17 ms each; the inputs need at most ~110
# steps, and 300 steps of kdv3 stay well inside one run's time.
NUMERIC_MAX_STEPS = 300
RK4_STEP = 2e-3
# verify end times are jittered on a 1/256 grid: on it the harness's sample
# times t0 + (t1-t0)*i/20 land exactly on t1.  Off the grid the last sample
# overshoots t1 by one ulp for a few percent of inputs (the t_eval endpoint
# defect of ROADMAP item 2), and the benchmark's workloads must be ones on
# which no op fails; run.py shows that defect once per run instead.
T1_GRID = 1.0 / 256


@dataclass
class Outcome:
    """What one call counted for after its output was checked."""

    units: int  # ops the call stands for (grid points for a scan, else 1)
    failures: list = field(default_factory=list)  # one label per failed unit
    wrong: int = 0  # failed units whose output claimed success
    counters: dict = field(default_factory=dict)  # integrator counts in the output
    out_bytes: int = 0


def _t1(rng, centre, half_width):
    """``centre`` jittered by up to ``half_width`` in steps of T1_GRID."""
    steps = round(half_width / T1_GRID)
    return (round(centre / T1_GRID) + rng.randint(-steps, steps)) * T1_GRID


def _fmt(v):
    return repr(float(v))


def _relative_deviation(a, b):  # the checks use none of the harness's own code
    ref = max(abs(v) for v in b)
    return max(abs(x - y) for x, y in zip(a, b)) / (1.0 + ref)


def _integrator_counters(integ):
    return {
        "rhs_evals": int(integ["rhs_evals"]),
        "steps_accepted": int(integ["accepted"]),
        "steps_rejected": int(integ["rejected"]),
    }


def _read_json(out_path):
    with open(out_path) as fh:
        text = fh.read()
    return json.loads(text), len(text.encode())


def _fail(units, label, wrong=False):
    return Outcome(units=units, failures=[label] * units, wrong=units if wrong else 0)


class _CliWorkload:
    """A workload whose op is one in-process ``mapflow`` command line."""

    flows_used = ()  # (map_id, params) of every catalog flow the commands build

    def setup(self, mf, timer):
        for map_id, params in self.flows_used:
            timer("maps.build_flow", mf.maps.build_flow, map_id, params)
        return {}

    def call(self, mf, ctx, spec, out_path):
        try:
            return mf.cli.main(spec["argv"] + ["--out", out_path])
        except SystemExit as exc:  # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 2


# ---------------------------------------------------------------------------
# verify-catalog


class VerifyCatalog(_CliWorkload):
    """``mapflow verify`` in process, round-robin over six catalog cases.

    Closed-form Hamiltonians keep each rhs at tens of microseconds, so the
    time goes to dopri5 stepping with t_eval clipping, flat jets, the
    oracle map evaluations and JSON emission; no quadrature runs.
    """

    name = "verify-catalog"
    cycles = 10
    cycle = ("henon", "hermite3", "kdv3", "kdv2", "qp4", "qp4-prop2")
    flows_used = (
        ("henon", {"b": 1.0, "c": 0.0}),
        ("hermite", {"m": 3}),
        ("kdv3", {}),
        ("kdv2", {"r": 2.0}),
        ("qp4", {"a": 1.0, "b": 1.0, "c": 1.0}),
        ("qp4", {"a": 2.0, "b": 1.0, "c": 1.0, "normalization": "prop2"}),
    )

    def round_inputs(self, mf, seed):
        rng = random.Random(f"{self.name}:{seed}")
        u = rng.uniform
        out = []
        for _ in range(self.cycles):
            for kind in self.cycle:
                t1 = _t1(rng, 2.0, 0.1)
                if kind == "henon":
                    argv = ["--map", "henon", "--param", "b=1", "--param", "c=0",
                            "--x0", _fmt(1.0 + u(-0.1, 0.1)), "--t0", "0"]
                elif kind == "hermite3":
                    c = 10.0 + u(-0.5, 0.5)
                    x0 = mf.maps.hermite_source_constraint(3, c, 0.5)
                    argv = ["--map", "hermite", "--param", "m=3",
                            "--x0", _fmt(x0), "--t0", "0.5"]
                elif kind == "kdv3":
                    x0 = (1.1 + u(-0.05, 0.05), 0.9 + u(-0.05, 0.05))
                    argv = ["--map", "kdv3", "--x0", ",".join(map(_fmt, x0)),
                            "--t0", "1"]
                elif kind == "kdv2":
                    argv = ["--map", "kdv2", "--param", "r=2",
                            "--x0", _fmt(1.0 + u(-0.05, 0.05)), "--t0", "1"]
                else:
                    x0 = (1.0 + u(-0.05, 0.05), 1.0 + u(-0.05, 0.05))
                    params = ["--param", "a=2", "--param", "normalization=prop2"]
                    argv = ["--map", "qp4"] + (params if kind == "qp4-prop2" else [])
                    argv += ["--x0", ",".join(map(_fmt, x0)), "--t0", "1"]
                argv = ["verify"] + argv + ["--t1", _fmt(t1),
                                            "--max-steps", str(MAX_STEPS)]
                out.append({"kind": kind, "argv": argv})
        return out

    def check(self, mf, ctx, spec, rc, out_path):
        if rc != 0:
            return _fail(1, f"exit-{rc}")
        try:
            payload, nbytes = _read_json(out_path)
        except (OSError, ValueError):
            return _fail(1, "check-unreadable", wrong=True)
        ok = (
            payload.get("passed") is True
            and payload["max_deviation"] <= TOL_DEVIATION
            and all(d <= TOL_DRIFT for d in payload["ham_drift"])
        )
        if spec["kind"] == "qp4-prop2":
            oracle = payload.get("normalization_oracle") or {}
            ok = ok and oracle.get("decisive") is True and oracle.get("winner") == "prop2"
        out = Outcome(units=1, counters=_integrator_counters(payload["integrator"]),
                      out_bytes=nbytes)
        if not ok:
            out.failures, out.wrong = ["check"], 1
        return out


# ---------------------------------------------------------------------------
# scan-kdv3


class ScanKdv3(_CliWorkload):
    """``mapflow scan --map kdv3`` in process over a seeded offset of the
    0.5:1.5 box, at the default worker count.  The op is a grid point.

    The only workload that fans out through ``conservation_scan``'s
    thread pool, so pool and lane-batching changes act here.
    """

    name = "scan-kdv3"
    cycles = 4
    axis_points = 3
    flows_used = (("kdv3", {}),)

    def round_inputs(self, mf, seed):
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for _ in range(self.cycles):
            axes = []
            for _ in range(2):
                d = rng.uniform(-0.05, 0.05)
                axes.append(f"{_fmt(0.5 + d)}:{_fmt(1.5 + d)}:{self.axis_points}")
            argv = ["scan", "--map", "kdv3", "--grid", ",".join(axes),
                    "--t0", "1", "--t1", "2", "--max-steps", str(MAX_STEPS)]
            out.append({"kind": "kdv3", "argv": argv, "units": self.axis_points ** 2})
        return out

    def check(self, mf, ctx, spec, rc, out_path):
        points = self.axis_points ** 2
        if rc not in (0, 1):
            return _fail(points, f"exit-{rc}")
        try:
            payload, nbytes = _read_json(out_path)
        except (OSError, ValueError):
            return _fail(points, "check-unreadable", wrong=True)
        results = payload.get("results", [])
        if len(results) != points:
            return _fail(points, "check-points", wrong=True)
        out = Outcome(units=points, out_bytes=nbytes)
        for r in results:
            good = (
                r["error"] is None
                and r["max_deviation"] <= TOL_DEVIATION
                and r["max_drift"] <= TOL_DRIFT
            )
            if r["passed"] and good:
                continue
            if r["passed"]:
                out.failures.append("check")
                out.wrong += 1
            elif r["error"]:
                out.failures.append(r["error"].split(":", 1)[0])
            else:
                out.failures.append("verify-fail")
        all_passed = not out.failures
        if payload["summary"]["all_passed"] is not all_passed or (rc == 0) is not all_passed:
            return _fail(points, "check-summary", wrong=True)
        return out


# ---------------------------------------------------------------------------
# numeric-hamiltonians


class NumericHamiltonians:
    """``harness.verify_correspondence`` with quadrature-built Hamiltonians
    (``flows.build_hamiltonians``), the paper's general construction.

    Each rhs is a 15-node Kronrod panel over nested jets, so quadrature and
    nested-jet arithmetic dominate; flat-jet changes should not move it.
    """

    name = "numeric-hamiltonians"
    cycles = 1
    # one call of each kind keeps a round near 5 s, so a run holds several
    cycle = ("henon", "hermite2", "qp4", "kdv3")

    def setup(self, mf, timer):
        build = mf.flows.build_hamiltonians
        maps = mf.maps
        return {
            "henon": timer("flows.build_hamiltonians", build,
                           maps.build_map("henon", {"b": 1.0, "c": 0.0})),
            "qp4": timer("flows.build_hamiltonians", build,
                         maps.build_map("qp4", {"a": 1.0, "b": 1.0, "c": 1.0})),
            "kdv3": timer("flows.build_hamiltonians", build, maps.build_map("kdv3")),
            # the chain's det J depends on y, so the condition check is off and
            # the reference sits at x = 0, as the acceptance tests build it
            "hermite2": timer("flows.build_hamiltonians", build,
                              maps.hermite_chain(2), ref_point=(0.0, 1.0), check=False),
        }

    def round_inputs(self, mf, seed):
        rng = random.Random(f"{self.name}:{seed}")
        u = rng.uniform
        out = []
        for _ in range(self.cycles):
            for kind in self.cycle:
                if kind == "henon":
                    spec = ("henon", {"b": 1.0, "c": 0.0}, (1.0 + u(-0.1, 0.1),),
                            (0.0, _t1(rng, 2.0, 0.1)))
                elif kind == "qp4":
                    spec = ("qp4", {"a": 1.0, "b": 1.0, "c": 1.0},
                            (1.0 + u(-0.05, 0.05), 1.0 + u(-0.05, 0.05)),
                            (1.0, _t1(rng, 2.0, 0.1)))
                elif kind == "kdv3":
                    spec = ("kdv3", None, (1.1 + u(-0.05, 0.05), 0.9 + u(-0.05, 0.05)),
                            (1.0, _t1(rng, 1.3, 0.02)))
                else:
                    c = 10.0 + u(-0.5, 0.5)
                    spec = ("hermite", {"m": 2},
                            (mf.maps.hermite_source_constraint(2, c, 0.5),),
                            (0.5, _t1(rng, 2.0, 0.1)))
                map_id, params, x0, t_range = spec
                out.append({"kind": kind, "map_id": map_id, "params": params,
                            "x0": x0, "t_range": t_range})
        return out

    def call(self, mf, ctx, spec, out_path):
        return mf.harness.verify_correspondence(
            spec["map_id"],
            spec["params"],
            x0=spec["x0"],
            t_range=spec["t_range"],
            cfg=mf.flows.IntegratorConfig(max_steps=NUMERIC_MAX_STEPS),
            flow=ctx[spec["kind"]],
        )

    def check(self, mf, ctx, spec, report, out_path):
        out = Outcome(units=1, counters=_integrator_counters(report.integrator))
        if not report.passed:
            out.failures = ["verify-fail"]
        elif report.max_deviation > TOL_DEVIATION or max(report.ham_drift) > TOL_DRIFT:
            out.failures, out.wrong = ["check"], 1
        return out


# ---------------------------------------------------------------------------
# flow-rk4


class FlowRk4(_CliWorkload):
    """``mapflow flow --method rk4`` in process for henon and kdv3.

    Fixed-step RK4 skips dopri5 adaptivity and clipping, so dense-output or
    FSAL changes should not move it; it is the only path through
    ``trajectory_csv`` and the CSV writer.
    """

    name = "flow-rk4"
    cycles = 6
    cycle = ("henon", "kdv3")
    flows_used = (("henon", {"b": 1.0, "c": 0.0}), ("kdv3", {}))

    def setup(self, mf, timer):
        super().setup(mf, timer)
        # oracle maps for the last-row check, built outside the timed loop
        return {map_id: mf.maps.build_map(map_id, params) for map_id, params in self.flows_used}

    def round_inputs(self, mf, seed):
        rng = random.Random(f"{self.name}:{seed}")
        u = rng.uniform
        out = []
        for _ in range(self.cycles):
            for kind in self.cycle:
                if kind == "henon":
                    x0, t0 = (1.0 + u(-0.1, 0.1),), 0.0
                    params = ["--param", "b=1", "--param", "c=0"]
                else:
                    x0, t0 = (1.1 + u(-0.05, 0.05), 0.9 + u(-0.05, 0.05)), 1.0
                    params = []
                t1 = t0 + 1.0 + u(-0.1, 0.1)
                argv = ["flow", "--map", kind] + params + [
                    "--x0", ",".join(map(_fmt, x0)), "--t0", _fmt(t0), "--t1", _fmt(t1),
                    "--method", "rk4", "--step", _fmt(RK4_STEP),
                    "--max-steps", str(MAX_STEPS)]
                out.append({"kind": kind, "argv": argv, "x0": x0, "t1": t1})
        return out

    def check(self, mf, ctx, spec, rc, out_path):
        if rc != 0:
            return _fail(1, f"exit-{rc}")
        mapdesc = ctx[spec["kind"]]
        n = mapdesc.dimension
        try:
            with open(out_path, newline="") as fh:
                rows = list(csv.reader(fh))
            nbytes = os.path.getsize(out_path)
            last = [float(v) for v in rows[-1]]
        except (OSError, ValueError, IndexError):
            return _fail(1, "check-unreadable", wrong=True)
        want = mapdesc.forward(tuple(spec["x0"]) + (spec["t1"],))
        ok = (
            len(rows[0]) == 1 + n + (n - 1)
            and len(last) == len(rows[0])
            and abs(last[0] - spec["t1"]) <= 1e-12 * (1.0 + abs(spec["t1"]))
            and _relative_deviation(last[1 : 1 + n], want) <= TOL_DEVIATION
        )
        out = Outcome(units=1, out_bytes=nbytes)
        if not ok:
            out.failures, out.wrong = ["check"], 1
        return out


WORKLOADS = {w.name: w for w in (VerifyCatalog(), ScanKdv3(), NumericHamiltonians(), FlowRk4())}
