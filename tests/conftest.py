import sys
from pathlib import Path

import pytest
from hypothesis import settings

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE))

settings.register_profile("deterministic", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("deterministic")


def pytest_collection_modifyitems(items):
    """Silent numpy overflow or invalid casts fail the suite."""
    for item in items:
        if item.path.is_relative_to(HERE):
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))
