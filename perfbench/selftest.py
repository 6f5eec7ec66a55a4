"""Self-test of the benchmark at its smallest size (``--seconds 0``: one round).

    python3 perfbench/selftest.py

Checks that

1. every metric named in BENCHMARK.json is printed with its unit, for
   every workload, untraced and traced, and each run carries provenance;
2. the criterion-11 negative control (a corrupted Henon Hamiltonian passed
   through ``flow=``) is counted as a failure, not as a pass, and output
   the check cannot read is counted as a wrong op;
3. traced and untraced runs report the same work counters, and the traced
   counters repeat exactly across two runs of the same seed;
4. in a directory holding only BENCHMARK.json and the benchmark's files the
   benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import types

import program
import run
from workloads import WORKLOADS

SEED = 7
BENCHMARK_JSON = os.path.join(program.ROOT, "BENCHMARK.json")


def bench(*args, cwd=program.ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def tiny(workload, trace):
    done = bench("--workload", workload, "--seed", str(SEED), "--seconds", "0",
                 "--trace", str(trace))
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {done.returncode}:\n"
                             f"{done.stderr}")
    lines = done.stdout.strip().splitlines()
    detail = next(json.loads(line[len("detail: "):]) for line in lines
                  if line.startswith("detail: "))
    return json.loads(lines[-1]), detail


def check_metrics(spec, result, detail, key):
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{key}: printed {got}, declared {want}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{name} is not a number"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    prov = detail["provenance"]
    for field in ("seed", "git_commit", "python", "numpy", "cpu_count", "scan_workers"):
        assert field in prov, f"provenance lacks {field}"
    assert prov["seed"] == SEED


def check_negative_control():
    mf = program.load()
    wl = WORKLOADS["numeric-hamiltonians"]
    good = mf.maps.build_flow("henon", {"b": 1.0, "c": 0.0})
    broken = mf.flows.FlowSystem(
        map=good.map,
        time_index=good.time_index,
        hamiltonians=(lambda s: s[0] * s[0],),
        det_j_field=good.det_j_field,
    )
    spec = {"kind": "henon", "map_id": "henon", "params": {"b": 1.0, "c": 0.0},
            "x0": (1.0,), "t_range": (0.0, 2.0), "units": 1}
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        out_path = os.path.join(tmp, "output")
        bad = run.run_phase(wl, mf, {"henon": broken}, [spec], 0, out_path)
        ok = run.run_phase(wl, mf, {"henon": good}, [spec], 0, out_path)
    assert (bad.attempted, bad.failed, bad.wrong) == (1, 1, 0), vars(bad)
    assert bad.throughput() == 0.0
    assert (ok.attempted, ok.failed) == (1, 0), vars(ok)


def check_malformed_output():
    """Output the check cannot read counts as a wrong op, and the loop goes on."""
    mf = program.load()
    numeric = WORKLOADS["numeric-hamiltonians"]
    wl = types.SimpleNamespace(call=lambda *args: object(), check=numeric.check)
    spec = {"kind": "henon", "units": 1}
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        phase = run.run_phase(wl, mf, {}, [spec, spec], 0, os.path.join(tmp, "output"))
    assert (phase.attempted, phase.failed, phase.wrong) == (2, 2, 2), vars(phase)
    assert dict(phase.failures) == {"check-AttributeError": 2}, phase.failures


def check_bare_directory():
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        shutil.copy(BENCHMARK_JSON, tmp)
        dest = os.path.join(tmp, "perfbench")
        os.mkdir(dest)
        for name in os.listdir(program.BENCH_DIR):
            if name.endswith(".py"):
                shutil.copy(os.path.join(program.BENCH_DIR, name), dest)
        done = bench("--workload", "verify-catalog", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp)
    assert done.returncode != 0, "benchmark succeeded without the program"
    assert not any(line.startswith("{") for line in done.stdout.splitlines()), done.stdout


def main():
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    check_negative_control()
    print("ok  negative control counted as a failure")
    check_malformed_output()
    print("ok  malformed output counted as wrong")
    check_bare_directory()
    print("ok  no result without the program")

    for name in WORKLOADS:
        plain, plain_detail = tiny(name, 0)
        check_metrics(spec, plain, plain_detail, "end_to_end")
        traced, traced_detail = tiny(name, 1)
        check_metrics(spec, traced, traced_detail, "per_layer")
        again, again_detail = tiny(name, 1)

        report = plain_detail["first_round"]["report_counters"]
        assert traced_detail["untraced_first_round"]["report_counters"] == report
        assert traced_detail["first_round"]["report_counters"] == report
        counters = traced_detail["first_round"]["traced_counters"]
        assert again_detail["first_round"]["traced_counters"] == counters
        assert plain_detail["first_round"]["failures"] == \
            traced_detail["first_round"]["failures"]
        if report:
            # the program's reports cover the image flow only; constrained maps
            # add a source-space integration the wrappers also count
            for key, value in report.items():
                assert counters[key] >= value, (name, key, counters[key], value)
        if name in ("verify-catalog", "flow-rk4"):
            assert counters.get("quadrature.integrate_gk", 0) == 0
            assert counters.get("quadrature.integrand", 0) == 0
        print(f"ok  {name}: metrics, units, provenance, counters "
              f"(rhs_evals {counters['rhs_evals']})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
