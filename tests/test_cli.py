"""Command-line interface tests: formats, exit codes, determinism."""

import argparse
import errno
import json
import os
import stat
import subprocess
import sys
import warnings

import pytest

from mapflow import cli, core, flows, harness, maps
from mapflow.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_shows_catalog(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    for map_id in maps.catalog_ids():
        assert map_id in out


def test_jacobian_point_evaluation(capsys):
    code, out, _ = run_cli(
        capsys,
        "jacobian",
        "--map",
        "henon",
        "--param",
        "b=2",
        "--param",
        "c=0",
        "--point",
        "1,3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [[0.0, 1.0], [-2.0, 6.0]]
    assert payload["det"] == 2.0


def test_flow_writes_csv_with_expected_endpoint(tmp_path, capsys):
    out_file = tmp_path / "traj.csv"
    code, _, _ = run_cli(
        capsys,
        "flow",
        "--map",
        "henon",
        "--param",
        "b=1",
        "--param",
        "c=0",
        "--x0",
        "1",
        "--t0",
        "0",
        "--t1",
        "2",
        "--out",
        str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "t,X1,X2,H1"
    assert len(lines) == 22  # header + 21 samples
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == 2.0
    assert abs(last[1] - 2.0) < 1e-8
    assert abs(last[2] - 3.0) < 1e-8


def test_flow_csv_hamiltonian_columns_recompute(tmp_path, capsys):
    out_file = tmp_path / "traj.csv"
    code, _, _ = run_cli(
        capsys,
        "flow",
        "--map",
        "kdv3",
        "--x0",
        "1.1,0.9",
        "--t0",
        "1",
        "--t1",
        "2",
        "--out",
        str(out_file),
    )
    assert code == 0
    flow = maps.build_flow("kdv3")
    lines = out_file.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["t", "X1", "X2", "X3", "H1", "H2"]
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        state = tuple(vals[1:4])
        recomputed = flow.hamiltonian_values(state)
        assert abs(recomputed[0] - vals[4]) <= 1e-12 * (1 + abs(vals[4]))
        assert abs(recomputed[1] - vals[5]) <= 1e-12 * (1 + abs(vals[5]))


def test_flow_samples_flag_controls_row_count(tmp_path, capsys):
    out_file = tmp_path / "traj.csv"
    code, _, _ = run_cli(
        capsys,
        "flow",
        "--map",
        "henon",
        "--x0",
        "1",
        "--t0",
        "0",
        "--t1",
        "1",
        "--samples",
        "5",
        "--out",
        str(out_file),
    )
    assert code == 0
    assert len(out_file.read_text().strip().splitlines()) == 6


def test_flow_csv_identical_bytes(tmp_path, capsys):
    args = ["flow", "--map", "kdv3", "--x0", "1.1,0.9", "--t0", "1", "--t1", "2"]
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(f1))[0] == 0
    assert run_cli(capsys, *args, "--out", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_identical_invocations_identical_bytes(tmp_path, capsys):
    args = [
        "verify",
        "--map",
        "kdv3",
        "--x0",
        "1.1,0.9",
        "--t0",
        "1",
        "--t1",
        "2",
    ]
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    assert run_cli(capsys, *args, "--out", str(f1))[0] == 0
    assert run_cli(capsys, *args, "--out", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_verify_pass_and_report_schema(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--map", "kdv3", "--x0", "1.1,0.9", "--t0", "1", "--t1", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "correspondence"
    assert payload["map_id"] == "kdv3"
    assert payload["passed"] is True
    assert payload["max_deviation"] < 1e-6
    assert len(payload["deviations"]) >= 20
    assert set(payload["integrator"]) == {
        "method", "rel_tol", "abs_tol", "accepted", "rejected", "rhs_evals"
    }


def test_verify_qp4_records_normalization_winner(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--map",
        "qp4",
        "--param",
        "a=2",
        "--param",
        "normalization=prop2",
        "--x0",
        "1,1",
        "--t0",
        "1",
        "--t1",
        "1.5",
    )
    assert code == 0
    payload = json.loads(out)
    oracle = payload["normalization_oracle"]
    assert oracle["winner"] == "prop2"
    assert oracle["decisive"] is True


def test_verify_qp4_shares_its_flow_with_the_normalization_oracle(
    capsys, monkeypatch
):
    # the verified prop2 flow is the oracle's prop2 candidate: two velocities
    # are traced, the verified flow's and the paper-display candidate's; the
    # verified flow also traces its image and Hamiltonian values, and the
    # oracle reads its truth off the prop2 flow's traced image time column
    traced = []
    trace = core.trace

    def spy(fn, n):
        traced.append((getattr(fn, "func", fn).__name__, n))
        return trace(fn, n)

    monkeypatch.setattr(core, "trace", spy)
    code, out, _ = run_cli(
        capsys, "verify", "--map", "qp4", "--param", "a=2",
        "--param", "normalization=prop2", "--x0", "1,1", "--t0", "1", "--t1", "1.5",
    )
    assert code == 0
    assert json.loads(out)["normalization_oracle"]["winner"] == "prop2"
    assert traced == [
        ("forward", 3),
        ("_hamiltonian_floats", 3),
        ("_bracket_velocity", 3),
        ("_image_time_column", 3),
        ("_bracket_velocity", 3),
    ]


def test_verify_pole_on_the_source_path_is_a_numerical_failure(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--map", "kdv3", "--x0", "32.07364999713352,0.7720383563118013",
        "--t0", "-1.356", "--t1", "-1.242",
    )
    assert code == 3
    assert out == ""
    assert "1+xy+xy^2z vanishes between t=-1.3503 and t=-1.3446" in err


def test_verify_pole_names_the_guard_the_source_point_crosses(capsys):
    # x0 after an equals sign, as a negative value must be given there too
    code, out, err = run_cli(
        capsys, "verify", "--map", "kdv3", "--x0=-1,1", "--t0", "1", "--t1", "3"
    )
    assert (code, out) == (3, "")
    assert err == (
        "mapflow: numerical failure: singular point in kdv3: 1+yz+xyz^2 "
        "vanishes between t=1.6 and t=1.7\n"
    )


def test_flow_refuses_a_pole_on_the_source_path_before_integrating(
    capsys, velocity_calls
):
    code, out, err = run_cli(
        capsys, "flow", "--map", "kdv3", "--x0", "32.07364999713352,0.7720383563118013",
        "--t0", "-1.356", "--t1", "-1.242", "--max-steps", "3000",
    )
    assert (code, out) == (3, "")
    assert "1+xy+xy^2z vanishes between t=-1.3503 and t=-1.3446" in err
    assert velocity_calls == []


@pytest.mark.parametrize("m", ["1", "4"])
def test_a_hermite_m_without_a_closed_form_is_a_usage_error(capsys, m):
    code, out, err = run_cli(
        capsys, "verify", "--map", "hermite", "--param", f"m={m}",
        "--x0", "42", "--t0", "0.5", "--t1", "2",
    )
    assert (code, out) == (2, "")
    assert err == f"mapflow: no closed-form chain Hamiltonian for m={m}\n"


def test_a_counter_on_the_flow_velocity_sees_every_rhs_evaluation(
    capsys, velocity_calls
):
    # the positive control for the test above: integrating calls the flow's
    # velocity once per evaluation the report counts
    code, out, _ = run_cli(
        capsys, "verify", "--map", "kdv3", "--x0", "1.1,0.9", "--t0", "1", "--t1", "2"
    )
    assert code == 0
    assert len(velocity_calls) == json.loads(out)["integrator"]["rhs_evals"] > 0


@pytest.mark.parametrize("method", ["dopri5", "rk4"])
@pytest.mark.parametrize(
    "argv",
    [
        ["--map", "henon", "--x0", "1.0", "--t0", "0", "--t1", "1e-14"],
        ["--map", "henon", "--x0", "1.0", "--t0", "0", "--t1", "1e-100"],
        ["--map", "henon", "--x0", "1.0", "--t0", "1", "--t1", "1.00000000000001"],
        ["--map", "kdv3", "--x0", "1.1,0.9", "--t0", "1", "--t1", "1.00000000000001"],
    ],
)
def test_a_span_below_a_hundred_underflow_floors_is_stepped(capsys, argv, method):
    # dopri5's first step, a hundredth of the span, starts at the floor
    code, out, err = run_cli(capsys, "verify", *argv, "--method", method)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["passed"]
    assert payload["sample_times"][-1] == float(argv[-1])


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["verify", "--map", "henon", "--x0", "1", "--t0", "1e6", "--t1",
             "1000000.000000001"],
            "the span 1.0477378964424133e-09 from t0=1000000.0 is too short for "
            "21 distinct sample times",
        ),
        (
            ["flow", "--map", "henon", "--x0", "1", "--t0", "1e6", "--t1",
             "1000000.000000001", "--samples", "12"],
            "the span 1.0477378964424133e-09 from t0=1000000.0 is too short for "
            "12 distinct sample times",
        ),
        (
            ["scan", "--map", "kdv3", "--grid", "1:1.1:2,1:1.1:1", "--t0", "1",
             "--t1", "1.0000000000000002"],
            "the span 2.220446049250313e-16 from t0=1.0 is too short for "
            "21 distinct sample times",
        ),
    ],
)
def test_a_span_too_short_for_its_samples_is_a_usage_error(
    capsys, monkeypatch, argv, message
):
    def refuse(*args):
        raise AssertionError("no source path may be found")

    monkeypatch.setattr(harness, "_source_path", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"mapflow: {message}\n")


def test_scan_configuration_error_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "scan", "--map", "qp4", "--param", "a=2",
        "--grid", "0.9:1.1:2,0.9:1.1:1", "--t0", "1", "--t1", "1.2",
    )
    assert (code, out) == (2, "")
    assert err == (
        "mapflow: qp4 with |abc| != 1 needs normalization='prop2' or "
        "'paper-display'\n"
    )


def test_verify_reports_how_its_oracle_was_found(capsys):
    runs = {
        "kdv2": ["--map", "kdv2", "--x0", "1", "--t0", "1", "--t1", "2"],
        "henon": HENON_RUN,
    }
    oracles = {}
    for name, run in runs.items():
        code, out, _ = run_cli(capsys, "verify", *run)
        assert code == 0
        oracles[name] = json.loads(out)["oracle"]
    assert oracles["henon"] == {"method": "time-slot"}
    assert set(oracles["kdv2"]) == {"method", "newton_iterations", "max_residual"}
    assert oracles["kdv2"]["method"] == "level-set"


def test_level_set_that_is_not_reached_is_a_numerical_failure(capsys, monkeypatch):
    monkeypatch.setattr(harness, "LEVEL_SET_MAX_ITERATIONS", 1)
    code, out, err = run_cli(
        capsys, "verify", "--map", "hermite", "--param", "m=3", "--x0", "42",
        "--t0", "0.5", "--t1", "2",
    )
    assert (code, out) == (3, "")
    assert err.startswith(
        "mapflow: numerical failure: level set of hermite[m=3] not reached at t="
    )
    assert err.count("\n") == 1


def test_unknown_map_exits_with_usage_code(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--map", "nosuch", "--x0", "1", "--t0", "0", "--t1", "1"
    )
    assert code == 2
    assert "unknown map id" in err


def test_a_map_without_a_flow_exits_with_usage_code(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--map", "chain1d-henon",
        "--x0", "1", "--t0", "0", "--t1", "1",
    )
    assert code == 2
    assert "has no associated flow" in err


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    cli.build_parser.cache_clear()
    try:
        assert run_cli(capsys, "list")[0] == 0
        assert built  # the first call builds the parser and its subparsers
        first = len(built)
        assert run_cli(capsys, "list")[0] == 0
        assert len(built) == first
    finally:
        cli.build_parser.cache_clear()


def test_unknown_parameter_exits_with_usage_code(capsys):
    code, _, err = run_cli(
        capsys,
        "verify",
        "--map",
        "henon",
        "--param",
        "zeta=3",
        "--x0",
        "1",
        "--t0",
        "0",
        "--t1",
        "1",
    )
    assert code == 2
    assert "zeta" in err


def test_non_numeric_parameter_exits_with_usage_code(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--map", "henon", "--param", "b=abc",
        "--x0", "0.5", "--t0", "0", "--t1", "1",
    )
    assert code == 2
    assert "'b'" in err and "abc" in err


@pytest.mark.parametrize(
    "t0, t1",
    # t0 + (t1 - t0) * 20 / 20 overshoots t1 by one ulp, then undershoots it
    [("0", "1.984114316166169"), ("-0.667", "1.043561")],
)
def test_verify_last_sample_is_exactly_t1(capsys, t0, t1):
    code, out, _ = run_cli(
        capsys, "verify", "--map", "henon", "--x0", "0.5", "--t0", t0, "--t1", t1
    )
    assert code == 0
    times = json.loads(out)["sample_times"]
    assert len(times) == 21
    assert times[-1] == float(t1)


def test_missing_required_flag_exits_with_usage_code(capsys):
    code, _, err = run_cli(capsys, "verify", "--map", "kdv3", "--t0", "1", "--t1", "2")
    assert code == 2
    assert "--x0" in err


def test_numerical_failure_exit_code(capsys):
    # evaluating the lattice map on a pole is a numerical failure, not usage
    code, _, err = run_cli(
        capsys, "jacobian", "--map", "kdv3", "--point", "1,1,-0.5"
    )
    assert code == 3
    assert "singular" in err


def test_scan_exit_codes_and_schema(tmp_path, capsys):
    out_file = tmp_path / "scan.json"
    code, _, _ = run_cli(
        capsys,
        "scan",
        "--map",
        "kdv3",
        "--grid",
        "0.8:1.2:2,0.8:1.2:2",
        "--t0",
        "1",
        "--t1",
        "1.5",
        "--out",
        str(out_file),
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["type"] == "scan"
    assert payload["summary"]["points"] == 4
    assert payload["summary"]["all_passed"] is True
    assert len(payload["results"]) == 4


def test_scan_failure_exit_code(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan",
        "--map",
        "kdv3",
        "--grid=-0.9:-0.9:1,0.2:0.2:1",
        "--t0",
        "1",
        "--t1",
        "2",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["summary"]["all_passed"] is False


def test_hermite_check_command(capsys):
    code, out, _ = run_cli(capsys, "hermite-check", "--m-max", "12")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["m_max"] == 12


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--map", "kdv3", "--x0", "1.1,0.9", "--t0", "1", "--t1", "2"],
        ["chain", "--m", "3"],
        ["hermite-check", "--m-max", "40"],
    ],
    ids=["verify-kdv3", "chain", "hermite-check"],
)
def test_a_report_holds_no_nan_or_infinity(tmp_path, capsys, argv):
    # NaN and Infinity are not JSON (RFC 8259), though json writes them
    out = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, *argv, "--out", str(out))
    assert code == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    assert json.loads(out.read_text(), parse_constant=refuse)


def test_hermite_check_needs_two_members(capsys):
    code, out, err = run_cli(capsys, "hermite-check", "--m-max", "1")
    assert (code, out) == (2, "")
    assert err == "mapflow: m_max must be at least 2\n"


def test_chain_command(capsys):
    code, out, _ = run_cli(capsys, "chain", "--m", "3", "--a", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["m"] == 3


def test_chain_command_long_chain_uses_exact_identity(capsys):
    code, out, _ = run_cli(capsys, "chain", "--m", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["hamilton_ok"] is None  # chain_suite checks it at m in {2, 3} only
    assert payload["gradient_identity_max_rel_err"] < 1e-10


@pytest.mark.parametrize("m, expected", [("10", 0), ("11", 3), ("13", 3)])
def test_chain_that_overflows_is_a_numerical_failure(capsys, m, expected):
    # over the 20 default states, q_0 first overflows at m = 11
    code, out, err = run_cli(capsys, "chain", "--m", m)
    assert code == expected
    if expected == 0:
        assert json.loads(out)["passed"] is True
    else:
        assert out == ""
        assert "non-finite result" in err


@pytest.mark.parametrize("value", ["inf", "1e400"])
@pytest.mark.parametrize("flag", ["--rel-tol", "--abs-tol", "--step"])
def test_non_finite_integrator_settings_are_usage_errors(capsys, flag, value):
    method = "rk4" if flag == "--step" else "dopri5"
    code, out, err = run_cli(
        capsys, "verify", "--map", "kdv3", "--x0", "1.1,0.9", "--t0", "1",
        "--t1", "2", "--method", method, flag, value,
    )
    assert (code, out) == (2, "")
    assert err == "mapflow: integrator tolerances and step must be finite and > 0\n"


@pytest.mark.parametrize("states", ["0", "-3"])
def test_chain_with_no_states_is_a_usage_error(capsys, states):
    code, out, err = run_cli(capsys, "chain", "--states", states)
    assert (code, out) == (2, "")
    assert err == "mapflow: --states must be at least 1\n"


def test_config_file_provides_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "map": "henon",
                "params": {"b": 1.0, "c": 0.0},
                "x0": "1",
                "t0": 0.0,
                "t1": 1.0,
            }
        )
    )
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["t1"] == 1.0
    # a flag overrides the config value
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg), "--t1", "2")
    assert code == 0
    assert json.loads(out)["t1"] == 2.0


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"map": "kdv3", "bogus": 1}))
    code, _, err = run_cli(
        capsys, "verify", "--config", str(cfg), "--x0", "1,1", "--t0", "1", "--t1", "2"
    )
    assert code == 2
    assert "bogus" in err


def test_config_file_threads_key_is_unknown(tmp_path, capsys):
    # scan points run sequentially; there is no thread count to configure
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"map": "kdv3", "threads": 2}))
    code, _, err = run_cli(
        capsys, "scan", "--config", str(cfg), "--grid", "1:1:1,1:1:1",
        "--t0", "1", "--t1", "2",
    )
    assert code == 2
    assert "threads" in err


def test_config_file_time_index_key_is_unknown(tmp_path, capsys):
    # no command reads a time index from the config
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"map": "kdv3", "time_index": 2}))
    code, _, err = run_cli(
        capsys, "verify", "--config", str(cfg), "--x0", "1.1,0.9",
        "--t0", "1", "--t1", "2",
    )
    assert code == 2
    assert "time_index" in err


def test_seed_flag_only_where_it_is_used(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["flow", "--map", "henon", "--x0", "1", "--t0", "0", "--t1", "1",
              "--seed", "7"])
    assert exc_info.value.code == 2
    code, out, _ = run_cli(capsys, "chain", "--m", "3", "--seed", "7")
    assert code == 0
    assert json.loads(out)["passed"]


@pytest.mark.parametrize(
    "argv",
    [
        ["jacobian", "--map", "henon", "--param", "b=inf", "--point", "1,2"],
        ["verify", "--map", "henon", "--param", "b=nan",
         "--x0", "1", "--t0", "0", "--t1", "1"],
        ["verify", "--map", "henon", "--param", "c=-inf",
         "--x0", "1", "--t0", "0", "--t1", "1"],
    ],
)
def test_non_finite_parameter_exits_with_usage_code(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_non_integral_integer_parameter_exits_with_usage_code(capsys):
    argv = ["verify", "--map", "hermite", "--x0", "2.5", "--t0", "0.5", "--t1", "1"]
    code, _, err = run_cli(capsys, *argv, "--param", "m=2.5")
    assert code == 2
    assert "'m'" in err and "integer" in err
    # an integral float still selects the chain
    code, out, _ = run_cli(capsys, *argv, "--param", "m=2.0")
    assert code == 0
    assert json.loads(out)["params"] == {"m": 2.0}


def test_atomic_write_leaves_no_temp_files(tmp_path, capsys):
    out_file = tmp_path / "out.json"
    code, _, _ = run_cli(
        capsys,
        "verify",
        "--map",
        "kdv3",
        "--x0",
        "1.1,0.9",
        "--t0",
        "1",
        "--t1",
        "2",
        "--out",
        str(out_file),
    )
    assert code == 0
    assert out_file.exists()
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".mapflow-")]
    assert leftovers == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_out_file_gets_the_mode_open_would_give(tmp_path, capsys, umask, mode):
    out_file = tmp_path / "o.json"
    old = os.umask(umask)
    try:
        code, _, _ = run_cli(
            capsys, "verify", "--map", "kdv3", "--x0", "1.1,0.9", "--t0", "1",
            "--t1", "1.2", "--out", str(out_file),
        )
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(out_file.stat().st_mode) == mode


KDV3_SHORT = ["verify", "--map", "kdv3", "--x0", "1.1,0.9", "--t0", "1", "--t1", "1.2"]


def test_out_keeps_the_mode_of_an_existing_file(tmp_path, capsys):
    out_file = tmp_path / "e.json"
    out_file.write_text("old\n")
    out_file.chmod(0o600)
    old = os.umask(0o022)
    try:
        code, _, _ = run_cli(capsys, *KDV3_SHORT, "--out", str(out_file))
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(out_file.stat().st_mode) == 0o600
    assert json.loads(out_file.read_text())["passed"] is True


@pytest.mark.parametrize("exists", [True, False], ids=["symlink", "dangling-symlink"])
def test_out_writes_through_a_symlink(tmp_path, capsys, exists):
    (tmp_path / "links").mkdir()
    link, out_file = tmp_path / "links" / "o.json", tmp_path / "e.json"
    if exists:
        out_file.write_text("old\n")
    link.symlink_to(out_file)
    assert run_cli(capsys, *KDV3_SHORT, "--out", str(link))[0] == 0
    assert link.is_symlink() and link.readlink() == out_file
    assert json.loads(out_file.read_text())["passed"] is True
    assert sorted(os.listdir(tmp_path)) == ["e.json", "links"]


def test_out_through_a_symlink_keeps_the_mode_of_its_target(tmp_path, capsys):
    # a private report stays private whichever name it is written by
    private, link = tmp_path / "private.json", tmp_path / "link.json"
    private.touch(mode=0o600)
    link.symlink_to("private.json")
    old = os.umask(0o022)
    try:
        for target in (private, link):
            assert run_cli(capsys, *KDV3_SHORT, "--out", str(target))[0] == 0
            assert stat.S_IMODE(private.stat().st_mode) == 0o600
    finally:
        os.umask(old)
    assert link.is_symlink()
    assert json.loads(private.read_text())["passed"] is True


def _fail(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _unwritable_file(fd, mode, fdopen=os.fdopen):
    fh = fdopen(fd, mode)
    fh.write = _fail
    return fh


@pytest.mark.parametrize(
    "name, replacement",
    [("fdopen", _unwritable_file), ("replace", _fail)],
    ids=["write", "rename"],
)
def test_a_failed_final_write_is_a_usage_error(
    tmp_path, capsys, monkeypatch, name, replacement
):
    monkeypatch.setattr(os, name, replacement)
    target = tmp_path / "o.json"
    code, out, err = run_cli(capsys, "list", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"mapflow: cannot write output file {target}: No space left on device\n"
    assert os.listdir(tmp_path) == []


def test_chain_map_rejected_by_phase_space_commands(capsys):
    code, _, err = run_cli(
        capsys, "jacobian", "--map", "chain1d-henon", "--point", "1,1"
    )
    assert code == 2
    assert "chain" in err


def exit_code(capsys, *argv):
    """Exit code and stderr, whether main returns or argparse exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


HENON_RUN = ["--map", "henon", "--x0", "1", "--t0", "0", "--t1", "1"]


@pytest.mark.parametrize("key, value", [("seed", 7), ("m_max", 3), ("states", 9),
                                        ("grid", "1:1:1")])
def test_config_keys_are_the_subcommands_own_flags(tmp_path, capsys, key, value):
    # flow has no --seed, --m-max, --states or --grid, so neither has its config
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, err = exit_code(capsys, "flow", "--config", str(cfg), *HENON_RUN)
    assert code == 2
    assert key in err


@pytest.mark.parametrize("config", [{"t0": [1]}, {"x0": [1]}, {"t0": True},
                                    {"params": [1]}, {"params": {"b": [1]}}])
def test_config_values_must_be_strings_or_numbers(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, err = exit_code(capsys, "verify", "--config", str(cfg), *HENON_RUN)
    assert code == 2
    assert "config" in err


@pytest.mark.parametrize("key, value", [("max_steps", 2.7), ("samples", 2.9),
                                        ("t1", "nan")])
def test_config_values_are_parsed_by_the_flag_type(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    with pytest.raises(SystemExit) as exc_info:
        main(["verify", "--config", str(cfg), *HENON_RUN])
    assert exc_info.value.code == 2
    assert "--" + key.replace("_", "-") in capsys.readouterr().err


def test_config_numbers_and_negative_values_run(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"map": "hermite", "params": {"m": 3}, "x0": 2.5,
                               "t0": -1, "t1": -0.5, "samples": 5}))
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    assert payload["x0"] == [2.5]
    assert payload["t0"] == -1.0
    assert payload["params"] == {"m": 3.0}  # config params parse like --param
    assert len(payload["sample_times"]) == 5


def test_unreadable_config_file_exits_with_usage_code(tmp_path, capsys):
    code, out, err = run_cli(capsys, "chain", "--config", str(tmp_path))
    assert (code, out) == (2, "")
    assert "config file" in err


def test_config_file_missing_required_value_names_the_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"map": "henon", "x0": "1", "t0": 0}))
    code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "--t1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--map", "henon", "--x0", "1", "--t0", "nan", "--t1", "1"],
        ["verify", "--map", "henon", "--x0", "1", "--t0", "0", "--t1", "inf"],
        ["verify", "--map", "henon", "--x0", "nan", "--t0", "0", "--t1", "1"],
        ["jacobian", "--map", "henon", "--point", "1,-inf"],
        ["scan", "--map", "kdv3", "--grid", "nan:1:2,1:1:1", "--t0", "1", "--t1", "2"],
        ["chain", "--a", "inf"],
        ["verify", *HENON_RUN, "--rel-tol", "nan"],
        ["flow", *HENON_RUN, "--method", "rk4", "--step", "nan"],
    ],
)
def test_non_finite_numbers_exit_with_usage_code(capsys, argv):
    code, _ = exit_code(capsys, *argv)
    assert code == 2


@pytest.mark.parametrize(
    "map_id, point, message",
    [
        ("kdv3", "1,2", "kdv3 takes 3 coordinates, got 2"),
        ("henon", "1,2,3", "henon takes 2 coordinates, got 3"),
    ],
)
def test_jacobian_at_a_point_of_the_wrong_length_is_a_usage_error(
    capsys, map_id, point, message
):
    code, out, err = run_cli(capsys, "jacobian", "--map", map_id, "--point", point)
    assert (code, out) == (2, "")
    assert err == f"mapflow: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--map", "kdv3", "--x0", "1.1,0.9,77",
          "--t0", "1", "--t1", "1.5"],
         "needs exactly 2 non-time coordinates"),
        (["scan", "--map", "kdv3", "--grid", "1:1.2:2,0.9:1:1,5:7:2",
          "--t0", "1", "--t1", "1.5"],
         "grid needs exactly 2 axes, one per non-time coordinate, got 3"),
    ],
    ids=["verify", "scan"],
)
def test_a_full_point_with_the_time_slot_is_a_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", *HENON_RUN, "--param", "b3"], "--param expects name=value"),
        (["verify", "--map", "henon", "--x0", "one", "--t0", "0", "--t1", "1"],
         "expected comma-separated numbers"),
        (["jacobian", "--map", "henon", "--point", "1,x"],
         "expected comma-separated numbers"),
        (["verify", "--map", "henon", "--x0", "1", "--t0", "abc", "--t1", "1"],
         "invalid float value: 'abc'"),
        (["scan", "--map", "kdv3", "--grid", "1:2,1:1:1", "--t0", "1", "--t1", "2"],
         "grid axis must be lo:hi:count"),
        (["scan", "--map", "kdv3", "--grid", "1:x:2,1:1:1", "--t0", "1", "--t1", "2"],
         "bad grid axis '1:x:2'"),
        (["scan", "--map", "kdv3", "--grid", "1:2:0,1:1:1", "--t0", "1", "--t1", "2"],
         "grid axis needs at least one point"),
        (["scan", "--map", "kdv3", "--grid", "1e6:1000000.000000001:21,1:1:1",
          "--t0", "1", "--t1", "2"],
         "grid axis 1 from 1000000.0 to 1000000.000000001 is too short for "
         "21 distinct points"),
    ],
    ids=["param", "x0", "point", "t0", "grid-parts", "grid-number", "grid-count",
         "grid-repeats"],
)
def test_malformed_values_are_usage_errors(capsys, argv, message):
    code, err = exit_code(capsys, *argv)
    assert code == 2
    assert message in err


def test_method_choices_are_the_integrator_tableaus(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    out = capsys.readouterr().out
    assert "--method {dopri5,rk4}" in out


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "config file not found"),
        ("{", "is not valid JSON"),
        ("[1]", "config file must hold a JSON object"),
    ],
    ids=["missing", "not-json", "not-object"],
)
def test_bad_config_file_is_a_usage_error(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    code, out, err = run_cli(capsys, "chain", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["verify", "--map", "henon", "--x0", "1", "--t1", "0.5"], "--t0", "-1e-1"),
        (["verify", "--map", "kdv3", "--t0", "1", "--t1", "1.5"], "--x0", "-1.1,-0.9"),
        (["jacobian", "--map", "henon"], "--point", "-1,2"),
        (["scan", "--map", "kdv3", "--t0", "1", "--t1", "1.5"],
         "--grid", "-1.2:-1:2,-0.9:-0.8:2"),
        (["chain"], "--a", "-1e-3"),
        (["verify", "--map", "henon", "--x0", "1", "--t1", "0.5"], "--t0", "-1"),
    ],
    ids=["t0", "x0", "point", "grid", "a", "t0-integer"],
)
def test_negative_values_read_the_same_after_a_space_or_an_equals_sign(
    capsys, argv, flag, value
):
    spaced = run_cli(capsys, *argv, flag, value)
    joined = run_cli(capsys, *argv, f"{flag}={value}")
    assert spaced[:2] == joined[:2]
    assert spaced[0] == 0


def test_a_value_that_is_not_a_number_still_needs_an_equals_sign(capsys):
    code, err = exit_code(capsys, "verify", *HENON_RUN, "--t0", "-x")
    assert code == 2
    assert "argument --t0: expected one argument" in err


@pytest.mark.parametrize("target", ["missing/out.json", "out"], ids=["no-dir", "a-dir"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, monkeypatch, target):
    (tmp_path / "out").mkdir()
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "list", "--out", target)
    assert (code, out) == (2, "")
    assert err.startswith(f"mapflow: cannot write output file {target}: ")
    assert [p for p in os.listdir(tmp_path) if p.startswith(".mapflow-")] == []


def test_unwritable_output_fails_before_any_computation(capsys, monkeypatch):
    def entered(*args, **kwargs):
        raise AssertionError("conservation_scan ran")

    monkeypatch.setattr(harness, "conservation_scan", entered)
    code, out, err = run_cli(
        capsys, "scan", "--map", "kdv3", "--grid", "0.5:1.5:6,0.5:1.5:6",
        "--t0", "1", "--t1", "2", "--out", "/missing/dir/o.json",
    )
    assert (code, out) == (2, "")
    assert err.startswith("mapflow: cannot write output file /missing/dir/o.json: ")


KDV3_LOOSE = ["verify", "--map", "kdv3", "--x0", "1.3521102253454633,1.1188385919717914",
              "--t0", "1", "--t1", "1.5866867221158794", "--rel-tol", "1e-6",
              "--abs-tol", "1e-8", "--samples", "7"]


@pytest.mark.parametrize(
    "argv, code, written",
    [
        (KDV3_LOOSE, 1, True),
        (["verify", *HENON_RUN[:-1], "1e200"], 3, False),
        (["verify", "--map", "nope", "--x0", "1", "--t0", "0", "--t1", "1"], 2, False),
    ],
    ids=["verify-fail", "numerical", "usage"],
)
def test_every_exit_removes_the_temp_output_file(tmp_path, capsys, argv, code, written):
    target = tmp_path / "out.json"
    assert run_cli(capsys, *argv, "--out", str(target))[0] == code
    assert target.exists() == written
    assert [p for p in os.listdir(tmp_path) if p.startswith(".mapflow-")] == []


def test_an_exception_removes_the_temp_output_file(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "verify_correspondence", broken)
    with pytest.raises(RuntimeError, match="boom"):
        main([*KDV3_LOOSE, "--out", str(tmp_path / "out.json")])
    assert os.listdir(tmp_path) == []


def test_verify_has_no_seed(tmp_path, capsys):
    code, _ = exit_code(capsys, "verify", *HENON_RUN, "--seed", "7")
    assert code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))
    code, err = exit_code(capsys, "verify", "--config", str(cfg), *HENON_RUN)
    assert code == 2
    assert "seed" in err


def test_overflowing_integration_is_a_numerical_failure(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--map", "henon", "--x0", "1", "--t0", "0", "--t1", "1e200"
    )
    assert code == 3
    assert out == ""
    assert "non-finite" in err


def test_overflow_warning_stays_off_stderr(capsys):
    # a warning shown outside pytest would precede the one-line message
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, "verify", *HENON_RUN, "--t1", "1e200")
    assert code == 3
    message = "non-finite coordinate in state (3e+197, inf)"
    assert err == f"mapflow: numerical failure: {message}\n"


def test_division_by_zero_in_a_hamiltonian_is_a_numerical_failure(capsys):
    code, out, err = run_cli(
        capsys,
        "verify",
        "--map",
        "hermite",
        "--param",
        "m=3",
        "--x0",
        "94101122.9678407",
        "--t0",
        "-2.5003391910984307",
        "--t1",
        "-2.500260355881004",
    )
    assert (code, out) == (3, "")
    # the m=3 Hamiltonian divides by Y - X, which vanishes at the image point
    place = "hermite[m=3]: a denominator of H1 vanishes"
    point = "(151867642.1956704, 151867642.1956704)"
    assert err == f"mapflow: numerical failure: singular point in {place} at {point}\n"


@pytest.mark.parametrize("t0, t1, samples", [("0.1", "0.9", "11"), ("1", "2", "21")])
def test_flow_samples_the_verify_report_times(tmp_path, capsys, t0, t1, samples):
    run = ["--map", "henon", "--x0", "0.7", "--t0", t0, "--t1", t1]
    run += ["--samples", samples]
    csv_path = tmp_path / "traj.csv"
    assert main(["flow", *run, "--out", str(csv_path)]) == 0
    code, out, _ = run_cli(capsys, "verify", *run)
    assert code == 0
    rows = csv_path.read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == json.loads(out)["sample_times"]


@pytest.mark.parametrize("samples", ["0", "1"])
def test_flow_needs_at_least_two_samples(capsys, samples):
    code, out, err = run_cli(capsys, "flow", *HENON_RUN, "--samples", samples)
    assert code == 2
    assert out == ""
    assert "--samples" in err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_flow_and_verify_share_the_samples_check(tmp_path, capsys, source):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 1}))
    extra = ["--samples", "1"] if source == "flag" else ["--config", str(cfg)]
    results = [run_cli(capsys, cmd, *HENON_RUN, *extra) for cmd in ("flow", "verify")]
    assert results[0] == results[1] == (2, "", "mapflow: --samples must be at least 2\n")


NO_NUMPY_SCRIPT = """
import contextlib, io, sys
from mapflow import cli, flows, maps
runs = [
    ["jacobian", "--map", "kdv3", "--point", "1.1,0.9,1.3"],
    ["verify", "--map", "qp4", "--param", "a=2", "--param", "normalization=prop2",
     "--x0", "1,1", "--t0", "1", "--t1", "1.5"],
    ["scan", "--map", "kdv3", "--grid", "1:1:1,1:1:1", "--t0", "1", "--t1", "1.5"],
    ["chain", "--m", "4", "--states", "3"],
    ["hermite-check", "--m-max", "4"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
flows.build_hamiltonians(maps.kdv3())
print(codes, "numpy" in sys.modules)
"""


def test_program_runs_without_importing_numpy():
    # a fresh process: this one has numpy loaded by the tests themselves
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[0, 0, 0, 0, 0] False\n"


QUADRATURE_VERIFY_SCRIPT = """
import json
from mapflow import flows, harness, maps
flow = flows.build_hamiltonians(
    maps.hermite_chain(2), ref_point=(0.0, 1.0), check=False
)
report = harness.verify_correspondence(
    "hermite", {"m": 2}, x0=(2.6060594742725938,), t_range=(0.5, 2.01953125),
    flow=flow,
)
assert report.passed
assert report.quadrature == {"panels": 628, "integrand_calls": 9420}, report.quadrature
assert flow.velocity is not flow.jet_velocity
print(json.dumps(report.to_dict()))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["-m", "mapflow.cli", "flow", "--map", "kdv3", "--x0", "1.1,0.9", "--t0", "1",
         "--t1", "2", "--method", "rk4", "--step", "2e-3"],
        ["-c", QUADRATURE_VERIFY_SCRIPT],
        # the traced level-set Newton, over one and two free slots' minors
        ["-m", "mapflow.cli", "verify", "--map", "hermite", "--param", "m=3",
         "--x0", "42", "--t0", "0.5", "--t1", "2"],
        ["-m", "mapflow.cli", "verify", "--map", "kdv2", "--param", "r=2",
         "--x0", "1", "--t0", "1", "--t1", "2"],
        # qp4's guard and finiteness checks inline in its traced velocity
        ["-m", "mapflow.cli", "flow", "--map", "qp4", "--x0", "1,1", "--t0", "1",
         "--t1", "2", "--method", "rk4", "--step", "2e-3"],
    ],
    ids=["kdv3-rk4-flow", "hermite2-quadrature-verify", "hermite3-verify",
         "kdv2-verify", "qp4-rk4-flow"],
)
def test_traced_runs_write_the_same_bytes_under_two_hash_seeds(argv):
    # traced and compiled code follows the order operations are recorded
    # in, never a hash order; each seed needs a fresh process
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, *argv], env=env, capture_output=True, timeout=120
        )
        assert (done.returncode, done.stderr) == (0, b"")
        outputs.append(done.stdout)
    assert outputs[0] and outputs[0] == outputs[1]
