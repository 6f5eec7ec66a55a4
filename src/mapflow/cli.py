"""Command-line front end.

Subcommands: list, jacobian, flow, verify, scan, hermite-check, chain.
Outputs are CSV trajectories and JSON reports, written atomically (temp
file plus rename) so concurrent invocations never observe partial files.
Exit codes: 0 pass, 1 verification failure, 2 usage or configuration
error, 3 numerical failure.  argparse declares every option once; a
``--config`` file's values are parsed as flags of the subcommand, ahead
of (and so overridden by) the command line's own.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile

from . import core, harness, maps
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


def parse_param(pair):
    """``name=value``; the value is a float where it parses as one."""
    name, sep, value = pair.partition("=")
    if not sep:
        raise ConfigError(f"--param expects name=value, got {pair!r}")
    try:
        return name.strip(), float(value)
    except ValueError:
        return name.strip(), value.strip()


def parse_floats(text):
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"expected finite numbers, got {text!r}")
    return values


def finite_float(text):
    try:
        value = float(text)
    except ValueError:
        # argparse's own wording for a type=float flag
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def parse_grid(text):
    axes = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid axis must be lo:hi:count, got {chunk!r}")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"bad grid axis {chunk!r}") from None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigError(f"bad grid axis {chunk!r}")
        axes.append((lo, hi, count))
    return tuple(axes)


def config_text(key, value):
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"config {key!r} must be a string or a number")
    return str(value)


def config_flags(parser, path):
    """The config file's entries as ``--flag=value`` arguments of a
    subcommand parser, so the flags' own types parse them.

    A key is the destination of one of the parser's options; ``params``
    holds the ``--param`` pairs as an object.
    """
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    flags = {
        action.dest: action.option_strings[0]
        for action in parser._actions
        if action.option_strings and action.dest not in ("help", "config")
    }
    if "param" in flags:
        flags["params"] = flags.pop("param")
    unknown = set(config) - set(flags)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    argv = []
    for key, value in config.items():
        if key != "params":
            argv.append(f"{flags[key]}={config_text(key, value)}")
        elif isinstance(value, dict):
            argv += [f"--param={n}={config_text(key, v)}" for n, v in value.items()]
        else:
            raise ConfigError("config 'params' must be an object")
    return argv


def given(**values):
    """The keyword arguments whose flag was set; the callee's defaults fill the rest."""
    return {k: v for k, v in values.items() if v is not None}


def integrator_config(args):
    fields = dataclasses.fields(IntegratorConfig)
    return IntegratorConfig(**given(**{f.name: getattr(args, f.name) for f in fields}))


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
    params = dict(args.param)
    mapdesc = maps.build_map(args.map, params)
    matrix = core.jacobian(mapdesc, args.point)
    payload = {
        "type": "jacobian",
        "map_id": args.map,
        "params": maps.resolve_params(args.map, params),
        "point": list(args.point),
        "matrix": [[float(v) for v in row] for row in matrix],
        "det": float(core.det(matrix)),
    }
    emit(json_text(payload), args.out)
    return EXIT_PASS


def cmd_flow(args):
    if args.samples < 2:
        raise ConfigError("--samples must be at least 2")
    cfg = integrator_config(args)

    flow = maps.build_flow(args.map, dict(args.param))
    _, traj = harness.flow_from_source(
        flow, args.x0, args.t0, args.t1, cfg, args.samples
    )
    emit(trajectory_csv(traj, flow.map.dimension, len(flow.hamiltonians)), args.out)
    return EXIT_PASS


def cmd_verify(args):
    report = harness.verify_correspondence(
        args.map,
        dict(args.param),
        x0=args.x0,
        t_range=(args.t0, args.t1),
        cfg=integrator_config(args),
        num_samples=args.samples,
    )
    payload = report.to_dict()
    if args.map == "qp4":
        p = report.params
        oracle = harness.qp4_normalization_report(
            p["a"], p["b"], p["c"], seed=args.seed
        )
        payload["normalization_oracle"] = oracle.to_dict()
    emit(json_text(payload), args.out)
    return EXIT_PASS if report.passed else EXIT_VERIFY_FAIL


def cmd_scan(args):
    report = harness.conservation_scan(
        args.map,
        dict(args.param),
        grid=args.grid,
        t_range=(args.t0, args.t1),
        cfg=integrator_config(args),
    )
    emit(json_text(report.to_dict()), args.out)
    return EXIT_PASS if report.summary["all_passed"] else EXIT_VERIFY_FAIL


def cmd_hermite_check(args):
    report = maps.hermite_suite(args.m_max)
    emit(json_text(report), args.out)
    return EXIT_PASS if report["passed"] else EXIT_VERIFY_FAIL


def cmd_chain(args):
    report = harness.chain_suite(
        seed=args.seed, **given(m=args.m, a=args.a, c=args.c, n_states=args.states)
    )
    emit(json_text(report), args.out)
    return EXIT_PASS if report["passed"] else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# entry point


def add_common(parser, with_map=True, with_integrator=True):
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--out", help="output file (written atomically)")
    if with_map:
        parser.add_argument("--map", metavar="MAP_ID", help="catalog map id")
        parser.add_argument(
            "--param",
            type=parse_param,
            action="append",
            default=[],
            metavar="NAME=VALUE",
            help="map parameter override (repeatable)",
        )
    if with_integrator:
        parser.add_argument("--method", choices=["dopri5", "rk4"])
        parser.add_argument("--rel-tol", type=float)
        parser.add_argument("--abs-tol", type=float)
        parser.add_argument("--step", type=float)
        parser.add_argument("--max-steps", type=int)


def add_span(parser):
    parser.add_argument("--t0", type=finite_float)
    parser.add_argument("--t1", type=finite_float)


def build_parser():
    """The parser; each subcommand's ``required`` lists the options that
    must be set once a config file is merged."""
    parser = argparse.ArgumentParser(
        prog="mapflow",
        description=(
            "Construct Nambu-Hamiltonian flows from invertible maps, "
            "integrate them and verify the map-flow correspondence."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    x0_help = "comma-separated non-time source coordinates"
    samples, seed = harness.DEFAULT_SAMPLES, harness.DEFAULT_SEED

    p = sub.add_parser("list", help="show the map catalog")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_list, required=())

    p = sub.add_parser("jacobian", help="Jacobian matrix and determinant at a point")
    add_common(p, with_integrator=False)
    p.add_argument(
        "--point", type=parse_floats, help="comma-separated source coordinates"
    )
    p.set_defaults(fn=cmd_jacobian, required=("map", "point"))

    p = sub.add_parser("flow", help="integrate a flow and write a CSV trajectory")
    add_common(p)
    p.add_argument("--x0", type=parse_floats, help=x0_help)
    add_span(p)
    p.add_argument(
        "--samples",
        type=int,
        default=samples,
        help="number of CSV rows (default %(default)s)",
    )
    p.set_defaults(fn=cmd_flow, required=("map", "x0", "t0", "t1"))

    p = sub.add_parser("verify", help="map-flow correspondence report")
    add_common(p)
    p.add_argument("--x0", type=parse_floats, help=x0_help)
    add_span(p)
    p.add_argument("--samples", type=int, default=samples)
    p.add_argument(
        "--seed",
        type=int,
        default=seed,
        help="qp4 normalization oracle seed (default %(default)s)",
    )
    p.set_defaults(fn=cmd_verify, required=("map", "x0", "t0", "t1"))

    p = sub.add_parser("scan", help="correspondence scan over a source grid")
    add_common(p)
    p.add_argument(
        "--grid",
        type=parse_grid,
        help="per-coordinate axes lo:hi:count, comma separated",
    )
    add_span(p)
    p.set_defaults(fn=cmd_scan, required=("map", "grid", "t0", "t1"))

    p = sub.add_parser("hermite-check", help="exact recurrence identity suite")
    add_common(p, with_map=False, with_integrator=False)
    p.add_argument("--m-max", type=int, default=12)
    p.set_defaults(fn=cmd_hermite_check, required=())

    p = sub.add_parser("chain", help="three-term chain determinant and Hamilton checks")
    add_common(p, with_map=False, with_integrator=False)
    p.add_argument("--m", type=int)
    p.add_argument("--a", type=finite_float)
    p.add_argument("--c", type=finite_float)
    p.add_argument("--states", type=int)
    p.add_argument(
        "--seed", type=int, default=seed, help="random state seed (default %(default)s)"
    )
    p.set_defaults(fn=cmd_chain, required=())

    for p in sub.choices.values():
        p.set_defaults(command_parser=p)
    return parser


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the config's flags go first, so the command line's own win
            at = argv.index(args.command) + 1
            flags = config_flags(args.command_parser, args.config)
            args = parser.parse_args(argv[:at] + flags + argv[at:])
        for dest in args.required:
            if getattr(args, dest) is None:
                raise ConfigError(f"--{dest} is required")
        return args.fn(args)
    except (ConfigError, UnknownMapError) as exc:
        print(f"mapflow: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MapflowError, ArithmeticError) as exc:
        print(f"mapflow: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"mapflow: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
