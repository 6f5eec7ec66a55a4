"""Command-line interface tests: formats, exit codes, determinism."""

import json
import os
import warnings

import pytest

from mapflow import maps
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
    assert set(payload["integrator"]) == {"method", "accepted", "rejected", "rhs_evals"}


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


def test_unknown_map_exits_with_usage_code(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--map", "nosuch", "--x0", "1", "--t0", "0", "--t1", "1"
    )
    assert code == 2
    assert "unknown map id" in err


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
    assert payload["hamilton_ok"] is None  # finite differences out of scope
    assert payload["gradient_identity_max_rel_err"] < 1e-10


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
    assert err == "mapflow: numerical failure: float division by zero\n"


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
