import warnings

import pytest

# Hypothesis imports this module (and, through libcst, mypy_extensions) only when a
# test fails; under filterwarnings = error the import's DeprecationWarning would
# abort the run inside the plugin's report hook.  Importing it here, with just that
# warning ignored, lets a failing property be reported and the run go on.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from hypothesis import settings

# CI runs the properties on a fixed set of examples and no example database, so the
# same commit draws the same inputs on every machine: pytest --hypothesis-profile=ci
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)

from mcs_qkd import ConstantF, Scenario, SourceFamily
from reference import scenario


@pytest.fixture
def kth15_scenario():
    """Factory for KTH15 scenarios at a chosen family and distance."""

    def make(family: SourceFamily, distance_km: float = 5.0, f0: float = 1.16,
             paper_literal_sign: bool = False) -> Scenario:
        return scenario(family, distance_km, ConstantF(f0), paper_literal_sign)

    return make


@pytest.fixture
def kth15_channel(kth15_scenario):
    return kth15_scenario(SourceFamily.COHERENT_BB84).channel


@pytest.fixture
def kth15_detector(kth15_scenario):
    return kth15_scenario(SourceFamily.COHERENT_BB84).detector
