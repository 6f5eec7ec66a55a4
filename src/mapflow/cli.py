"""Command-line front end.

Subcommands: list, jacobian, flow, verify, scan, hermite-check, chain.
Outputs are CSV trajectories and JSON reports, written atomically (temp
file plus rename) so concurrent invocations never observe partial files.
Exit codes: 0 pass, 1 verification failure, 2 usage or configuration
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import core, flows, harness, maps
from .errors import ConfigError, MapflowError, UnknownMapError
from .flows import IntegratorConfig

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# output helpers


def write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mapflow-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(text, out_path):
    if out_path:
        write_atomic(out_path, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def trajectory_csv(traj, dimension, n_hams):
    header = (
        ["t"]
        + [f"X{i}" for i in range(1, dimension + 1)]
        + [f"H{j}" for j in range(1, n_hams + 1)]
    )
    lines = [",".join(header)]
    for t, state, hams in zip(traj.times, traj.states, traj.ham_values):
        row = [format(t, ".17g")]
        row += [format(v, ".17g") for v in state]
        row += [format(v, ".17g") for v in hams]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument plumbing


def parse_value(text):
    try:
        return float(text)
    except ValueError:
        return text


def parse_params(pairs):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--param expects name=value, got {pair!r}")
        name, value = pair.split("=", 1)
        out[name.strip()] = parse_value(value.strip())
    return out


def parse_floats(text):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


def parse_grid(text):
    axes = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid axis must be lo:hi:count, got {chunk!r}")
        try:
            axes.append((float(parts[0]), float(parts[1]), int(parts[2])))
        except ValueError:
            raise ConfigError(f"bad grid axis {chunk!r}") from None
    return tuple(axes)


def load_config(path):
    """The JSON object in the config file ({} without one); unknown keys
    are rejected."""
    if not path:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(cfg) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return cfg


CONFIG_KEYS = {
    "map",
    "params",
    "x0",
    "point",
    "t0",
    "t1",
    "samples",
    "method",
    "rel_tol",
    "abs_tol",
    "step",
    "max_steps",
    "grid",
    "seed",
    "m_max",
    "m",
    "a",
    "c",
    "states",
    "out",
}


def resolve(args, config, key, default=None):
    """Command-line flag, else config-file value, else default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def integrator_config(args, config):
    return IntegratorConfig(
        method=resolve(args, config, "method", "dopri5"),
        rel_tol=float(resolve(args, config, "rel_tol", 1e-10)),
        abs_tol=float(resolve(args, config, "abs_tol", 1e-12)),
        step=float(resolve(args, config, "step", 1e-3)),
        max_steps=int(resolve(args, config, "max_steps", 10**6)),
    )


def merged_params(args, config):
    params = {}
    cfg_params = config.get("params", {})
    if cfg_params and not isinstance(cfg_params, dict):
        raise ConfigError("config 'params' must be an object")
    params.update(cfg_params)
    params.update(parse_params(getattr(args, "param", None)))
    return params


def add_common(parser, with_map=True, with_integrator=True):
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--out", help="output file (written atomically)")
    if with_map:
        parser.add_argument("--map", dest="map_id", help="catalog map id")
        parser.add_argument(
            "--param",
            action="append",
            metavar="NAME=VALUE",
            help="map parameter override (repeatable)",
        )
    if with_integrator:
        parser.add_argument("--method", choices=["dopri5", "rk4"])
        parser.add_argument("--rel-tol", dest="rel_tol", type=float)
        parser.add_argument("--abs-tol", dest="abs_tol", type=float)
        parser.add_argument("--step", type=float)
        parser.add_argument("--max-steps", dest="max_steps", type=int)


def map_inputs(args):
    """Config, map id and parameter overrides of a map subcommand."""
    config = load_config(args.config)
    map_id = resolve(args, config, "map_id", config.get("map"))
    if not map_id:
        raise ConfigError("a --map id is required")
    return config, map_id, merged_params(args, config)


def required_point(args, config, key):
    """Comma-separated coordinates from a required flag or config value."""
    value = resolve(args, config, key)
    if value is None:
        raise ConfigError(f"--{key} is required")
    return parse_floats(value) if isinstance(value, str) else tuple(value)


def time_span(args, config):
    t0 = resolve(args, config, "t0")
    t1 = resolve(args, config, "t1")
    if t0 is None or t1 is None:
        raise ConfigError("--t0 and --t1 are required")
    return float(t0), float(t1)


# ---------------------------------------------------------------------------
# subcommands


def cmd_list(args):
    lines = []
    for map_id in maps.catalog_ids():
        entry = maps.get_entry(map_id)
        schema = ", ".join(f"{k}={v}" for k, v in entry.param_schema.items())
        schema = schema or "(no parameters)"
        lines.append(f"{map_id:14s} {schema:28s} {entry.description}")
    emit("\n".join(lines) + "\n", args.out)
    return EXIT_PASS


def cmd_jacobian(args):
    config, map_id, params = map_inputs(args)
    point = required_point(args, config, "point")
    mapdesc = maps.build_map(map_id, params)
    matrix = core.jacobian(mapdesc, point)
    payload = {
        "type": "jacobian",
        "map_id": map_id,
        "params": maps.resolve_params(map_id, params),
        "point": list(point),
        "matrix": [[float(v) for v in row] for row in matrix],
        "det": float(core.det(matrix)),
    }
    emit(json_text(payload), args.out)
    return EXIT_PASS


def cmd_flow(args):
    config, map_id, params = map_inputs(args)
    x0 = required_point(args, config, "x0")
    t0, t1 = time_span(args, config)
    samples = int(resolve(args, config, "samples", 21))
    cfg = integrator_config(args, config)

    flow = maps.build_flow(map_id, params)
    x_start = harness.source_start(flow, x0, t0)
    image0 = flow.map.forward(x_start)
    t_eval = np.linspace(t0, t1, samples)
    traj = flows.integrate_flow(flow, image0, t0, t1, cfg=cfg, t_eval=t_eval)
    emit(
        trajectory_csv(traj, flow.map.dimension, len(flow.hamiltonians)),
        args.out,
    )
    return EXIT_PASS


def cmd_verify(args):
    config, map_id, params = map_inputs(args)
    x0 = required_point(args, config, "x0")
    t_range = time_span(args, config)
    cfg = integrator_config(args, config)
    samples = int(resolve(args, config, "samples", 21))

    report = harness.verify_correspondence(
        map_id,
        params,
        x0=x0,
        t_range=t_range,
        cfg=cfg,
        num_samples=samples,
    )
    payload = report.to_dict()
    if map_id == "qp4":
        p = report.params
        oracle = harness.qp4_normalization_report(
            p["a"], p["b"], p["c"], seed=int(resolve(args, config, "seed", 42))
        )
        payload["normalization_oracle"] = oracle.to_dict()
    emit(json_text(payload), args.out)
    return EXIT_PASS if report.passed else EXIT_VERIFY_FAIL


def cmd_scan(args):
    config, map_id, params = map_inputs(args)
    grid_text = resolve(args, config, "grid")
    if grid_text is None:
        raise ConfigError("--grid is required (lo:hi:count per coordinate)")
    grid = parse_grid(grid_text) if isinstance(grid_text, str) else tuple(
        tuple(axis) for axis in grid_text
    )
    t_range = time_span(args, config)
    cfg = integrator_config(args, config)

    report = harness.conservation_scan(
        map_id, params, grid=grid, t_range=t_range, cfg=cfg
    )
    emit(json_text(report.to_dict()), args.out)
    return EXIT_PASS if report.summary["all_passed"] else EXIT_VERIFY_FAIL


def cmd_hermite_check(args):
    config = load_config(args.config)
    m_max = int(resolve(args, config, "m_max", 12))
    report = maps.hermite_suite(m_max)
    emit(json_text(report), args.out)
    return EXIT_PASS if report["passed"] else EXIT_VERIFY_FAIL


def cmd_chain(args):
    config = load_config(args.config)
    report = harness.chain_suite(
        m=int(resolve(args, config, "m", 2)),
        a=float(resolve(args, config, "a", 0.0)),
        c=float(resolve(args, config, "c", 0.0)),
        n_states=int(resolve(args, config, "states", 20)),
        seed=int(resolve(args, config, "seed", 42)),
    )
    emit(json_text(report), args.out)
    return EXIT_PASS if report["passed"] else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mapflow",
        description=(
            "Construct Nambu-Hamiltonian flows from invertible maps, "
            "integrate them and verify the map-flow correspondence."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="show the map catalog")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser("jacobian", help="Jacobian matrix and determinant at a point")
    add_common(p, with_integrator=False)
    p.add_argument("--point", help="comma-separated source coordinates")
    p.set_defaults(fn=cmd_jacobian)

    p = sub.add_parser("flow", help="integrate a flow and write a CSV trajectory")
    add_common(p)
    p.add_argument("--x0", help="comma-separated non-time source coordinates")
    p.add_argument("--t0", type=float)
    p.add_argument("--t1", type=float)
    p.add_argument("--samples", type=int, help="number of CSV rows (default 21)")
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("verify", help="map-flow correspondence report")
    add_common(p)
    p.add_argument("--x0", help="comma-separated non-time source coordinates")
    p.add_argument("--t0", type=float)
    p.add_argument("--t1", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, help="qp4 normalization oracle seed (default 42)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("scan", help="correspondence scan over a source grid")
    add_common(p)
    p.add_argument("--grid", help="per-coordinate axes lo:hi:count, comma separated")
    p.add_argument("--t0", type=float)
    p.add_argument("--t1", type=float)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("hermite-check", help="exact recurrence identity suite")
    add_common(p, with_map=False, with_integrator=False)
    p.add_argument("--m-max", dest="m_max", type=int)
    p.set_defaults(fn=cmd_hermite_check)

    p = sub.add_parser("chain", help="three-term chain determinant and Hamilton checks")
    add_common(p, with_map=False, with_integrator=False)
    p.add_argument("--m", type=int)
    p.add_argument("--a", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--states", type=int)
    p.add_argument("--seed", type=int, help="random state seed (default 42)")
    p.set_defaults(fn=cmd_chain)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, UnknownMapError) as exc:
        print(f"mapflow: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MapflowError as exc:
        print(f"mapflow: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"mapflow: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
