import pytest

from mapflow import core, flows, maps


@pytest.fixture(autouse=True)
def fresh_catalog_flows():
    # maps.build_flow keeps its flows for the process, and the compile
    # caches their code: each test builds, traces, compiles and checks its
    # own, so none passes on a cache an earlier test left warm
    maps._flow.cache_clear()
    core._compiled.cache_clear()
    flows._step.cache_clear()
    flows._loop.cache_clear()
    flows._checked.cache_clear()
