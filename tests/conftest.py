import pytest

from gbpkit import build_factor_graph

import helpers

try:
    from hypothesis import settings
except ImportError:  # test_properties.py skips itself
    pass
else:
    # Fixed examples, a bounded count and no example database: the suite
    # runs the same cases every time, in a few seconds.
    settings.register_profile(
        "gbpkit", derandomize=True, max_examples=50, deadline=None, database=None
    )
    settings.load_profile("gbpkit")


@pytest.fixture
def loop_model():
    return helpers.loop_model()


@pytest.fixture
def loop_graph(loop_model):
    return build_factor_graph(loop_model)
