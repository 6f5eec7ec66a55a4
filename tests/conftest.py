import pytest

from mapflow import maps


@pytest.fixture(autouse=True)
def fresh_catalog_flows():
    # maps.build_flow keeps its flows for the process; each test builds,
    # traces and checks its own
    maps._flow.cache_clear()
