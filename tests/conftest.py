import pytest

from s3census import enumeration


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="run tests marked slow (long sweeps)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def fresh_spf_state():
    """An empty factor-table cache, restored after the test."""
    saved = dict(enumeration._spf_state)
    enumeration._spf_state.clear()
    yield enumeration._spf_state
    enumeration._spf_state.clear()
    enumeration._spf_state.update(saved)
