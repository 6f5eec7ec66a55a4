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


@pytest.fixture
def velocity_calls(monkeypatch):
    # the states every flow's velocity is called on from here on: the
    # compiled Runge-Kutta step calls it once per rhs evaluation
    calls = []
    velocity = flows.FlowSystem.velocity

    def counted(flow):
        traced = velocity.__get__(flow)
        return lambda x: calls.append(x) or traced(x)

    monkeypatch.setattr(flows.FlowSystem, "velocity", property(counted))
    return calls
