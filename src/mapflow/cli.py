"""Command-line front end.

Subcommands: list, jacobian, flow, verify, scan, hermite-check, chain.
Outputs are CSV trajectories and JSON reports, written atomically (temp
file plus rename) so concurrent invocations never observe partial files;
the temp file is made before the command computes anything, so an
``--out`` that cannot be written fails at once.
Exit codes: 0 pass, 1 verification failure, 2 usage or configuration
error, 3 numerical failure.  argparse declares every option once; a
``--config`` file's values are parsed as flags of the subcommand, ahead
of (and so overridden by) the command line's own.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import json
import math
import os
import re
import sys

from . import core, harness, maps
from .errors import ConfigError, MapflowError, UnknownMapError
from .flows import _TABLEAUS, IntegratorConfig

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# output helpers


def _unwritable(path, exc):
    return ConfigError(f"cannot write output file {path}: {exc.strerror}")


@contextlib.contextmanager
def output(path):
    """The function that writes a command's output text: to standard output
    when ``path`` is empty, else atomically to ``path``.

    The temp file is made on entry, before the command computes anything,
    so a path that cannot be written is a ConfigError at once; writing
    renames it onto ``path``, and every exit that has not written removes
    it.  As with ``open(path, "w")``, a symlink is written through (the
    temp file sits next to the file the link resolves to), an existing
    file keeps its permission bits and a new one gets 0o666 less the umask.
    """
    if not path:
        yield sys.stdout.write
        return
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        target = os.path.realpath(path)
        tmp = os.path.join(
            os.path.dirname(target), f".mapflow-{os.urandom(8).hex()}.tmp"
        )
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise _unwritable(path, exc) from None
    fh = os.fdopen(fd, "w")

    def write(text):
        try:
            with fh:
                with contextlib.suppress(FileNotFoundError):
                    os.fchmod(fd, os.stat(target).st_mode & 0o777)
                fh.write(text)
            os.replace(tmp, target)
        except OSError as exc:
            raise _unwritable(path, exc) from None

    try:
        yield write
    finally:
        fh.close()
        if os.path.exists(tmp):
            os.unlink(tmp)


def json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def trajectory_csv(traj, dimension):
    """CSV columns t, X1..Xn and H1..H{n-1}, n = dimension, one row per sample."""
    header = (
        ["t"]
        + [f"X{i}" for i in range(1, dimension + 1)]
        + [f"H{j}" for j in range(1, dimension)]
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
# subcommands: each returns its output text and exit code, and ``main``
# writes the text


def cmd_list(args):
    lines = []
    for map_id in maps.catalog_ids():
        entry = maps.get_entry(map_id)
        schema = ", ".join(f"{k}={v}" for k, v in entry.param_schema.items())
        schema = schema or "(no parameters)"
        lines.append(f"{map_id:14s} {schema:28s} {entry.description}")
    return "\n".join(lines) + "\n", EXIT_PASS


def cmd_jacobian(args):
    params = dict(args.param)
    mapdesc = maps.build_map(args.map, params)
    matrix = core.jacobian(mapdesc, args.point)
    payload = {
        "type": "jacobian",
        "map_id": args.map,
        "params": maps.resolve_params(args.map, params),
        "point": list(args.point),
        "matrix": matrix,
        "det": core.det(matrix),
    }
    return json_text(payload), EXIT_PASS


def cmd_flow(args):
    flow = maps.build_flow(args.map, dict(args.param))
    _, _, traj = harness.flow_from_source(
        flow, args.x0, args.t0, args.t1, integrator_config(args), args.samples
    )
    return trajectory_csv(traj, flow.map.dimension), EXIT_PASS


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
        oracle = harness.qp4_normalization_report(p["a"], p["b"], p["c"])
        payload["normalization_oracle"] = oracle.to_dict()
    return json_text(payload), EXIT_PASS if report.passed else EXIT_VERIFY_FAIL


def cmd_scan(args):
    report = harness.conservation_scan(
        args.map,
        dict(args.param),
        grid=args.grid,
        t_range=(args.t0, args.t1),
        cfg=integrator_config(args),
    )
    code = EXIT_PASS if report.summary["all_passed"] else EXIT_VERIFY_FAIL
    return json_text(report.to_dict()), code


def cmd_hermite_check(args):
    report = maps.hermite_suite(args.m_max)
    return json_text(report), EXIT_PASS if report["passed"] else EXIT_VERIFY_FAIL


def cmd_chain(args):
    report = harness.chain_suite(
        seed=args.seed, **given(m=args.m, a=args.a, c=args.c, n_states=args.states)
    )
    return json_text(report), EXIT_PASS if report["passed"] else EXIT_VERIFY_FAIL


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
        parser.add_argument("--method", choices=sorted(_TABLEAUS))
        parser.add_argument("--rel-tol", type=float)
        parser.add_argument("--abs-tol", type=float)
        parser.add_argument("--step", type=float)
        parser.add_argument("--max-steps", type=int)


def add_span(parser):
    parser.add_argument("--t0", type=finite_float)
    parser.add_argument("--t1", type=finite_float)


@functools.cache
def build_parser():
    """The parser, built on first use and shared by later calls; each
    subcommand's ``required`` lists the options that must be set once a
    config file is merged."""
    parser = argparse.ArgumentParser(
        prog="mapflow",
        description=(
            "Construct Nambu-Hamiltonian flows from invertible maps, "
            "integrate them and verify the map-flow correspondence."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    x0_help = "comma-separated source coordinates, one per non-time slot"
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
    p.set_defaults(fn=cmd_verify, required=("map", "x0", "t0", "t1"))

    p = sub.add_parser("scan", help="correspondence scan over a source grid")
    add_common(p)
    p.add_argument(
        "--grid",
        type=parse_grid,
        help="one lo:hi:count axis per non-time coordinate, comma separated",
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
        # no option looks like a number, so -1e-1, -1,2 and -1.2:-1:2 are
        # values; argparse's own pattern takes only -1 and -.5 as values
        p._negative_number_matcher = re.compile(r"-\.?\d")
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
        if getattr(args, "samples", 2) < 2:
            raise ConfigError("--samples must be at least 2")
        if getattr(args, "states", None) is not None and args.states < 1:
            raise ConfigError("--states must be at least 1")
        with output(args.out) as write:
            text, code = args.fn(args)
            write(text)
        return code
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
