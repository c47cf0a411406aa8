from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)
