"""Loading the program under test from the checkout, and workload set-up."""

from __future__ import annotations

import importlib
import os
import sys
import types
from time import perf_counter

import hostspeed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/mapflow`` to benchmark."""


def load():
    """Import mapflow from this checkout's ``src`` and nowhere else."""
    package = os.path.join(SRC, "mapflow")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise MissingProgram(f"no mapflow package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("mapflow.cli")
    if os.path.dirname(os.path.abspath(cli.__file__)) != package:
        raise MissingProgram(f"mapflow was imported from {cli.__file__}, not {package}")
    mods = {name: importlib.import_module(f"mapflow.{name}")
            for name in ("core", "flows", "harness", "maps", "quadrature")}
    return types.SimpleNamespace(cli=cli, **mods)


def setup(workload):
    """Import the program and build every flow the workload uses.

    Returns the module namespace, the workload context, the build-function
    call durations and the set-up seconds at nominal host speed.
    """
    builds = {}

    def timer(name, fn, *args, **kwargs):
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        builds.setdefault(name, []).append(perf_counter() - t0)
        return result

    def load_and_build():
        mf = load()
        return mf, workload.setup(mf, timer)

    (mf, ctx), seconds = hostspeed.timed(load_and_build)
    return mf, ctx, builds, seconds
