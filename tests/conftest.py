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

from mcs_qkd import ChannelModel, ConstantF, DetectorModel, Scenario, SourceFamily


@pytest.fixture
def kth15_detector():
    return DetectorModel(dark_prob_Pd=2e-4, baseline_error_c=0.01)


@pytest.fixture
def kth15_channel():
    return ChannelModel(loss_coeff_a=0.2, distance_l=5.0, receiver_loss_L=1.0, detector_eff=0.18)


@pytest.fixture
def kth15_scenario(kth15_channel, kth15_detector):
    """Factory for KTH15 scenarios at a chosen family and distance."""

    def make(family: SourceFamily, distance_km: float = 5.0, f0: float = 1.16,
             paper_literal_sign: bool = False) -> Scenario:
        return Scenario(
            source_family=family,
            channel=kth15_channel.at_distance(distance_km),
            detector=kth15_detector,
            f_policy=ConstantF(f0),
            paper_literal_sign=paper_literal_sign,
        )

    return make
