"""The array-based Section 2.4 peak detection against its loop reference.

``find_peaks`` and ``peak_regions`` select candidates and walk lobes with
array code; ``tests/core/_oracle.py`` keeps the point-by-point walks they
replace.  Both must agree bit for bit: the same peaks in the same order
with the same floats, the same lobe masks and, composed into Figure 8, the
same suppressed power.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (AoASpectrum, MultipathSuppressor, find_peaks,
                        peak_regions)

from tests.core._oracle import (reference_find_peaks, reference_peak_regions,
                                reference_suppress, roaming_groups)


@st.composite
def spectra(draw):
    """Circular spectra rich in the cases a local-maximum test can get wrong.

    Integer levels give plateaus and exact ties (across the 0/360 seam
    too), sparse spikes sit on either end of the grid, and flat spectra
    are all-equal or all-zero with at most one hole.
    """
    n = draw(st.integers(4, 72))
    kind = draw(st.sampled_from(["levels", "noise", "spikes", "flat"]))
    if kind == "levels":
        power = np.array(draw(st.lists(st.integers(0, 3), min_size=n,
                                       max_size=n)), dtype=float)
    elif kind == "noise":
        power = np.array(draw(st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n)))
    elif kind == "spikes":
        power = np.full(n, draw(st.sampled_from([0.0, 0.01])))
        for index in draw(st.lists(st.sampled_from([0, n - 1])
                                   | st.integers(0, n - 1), max_size=4)):
            power[index] = draw(st.floats(0.05, 1.0))
    else:
        power = np.full(n, draw(st.sampled_from([0.0, 1.0])))
        if draw(st.booleans()):
            power[draw(st.integers(0, n - 1))] = 0.5
    return AoASpectrum(np.linspace(0.0, 360.0, n, endpoint=False), power)


def _fields(peaks):
    """Every field of every peak, floats as their exact bit patterns."""
    return [(peak.index, peak.angle_deg.hex(), peak.power.hex(),
             peak.prominence.hex()) for peak in peaks]


class TestFindPeaksMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(spectrum=spectra(),
           height=st.floats(0.0, 1.0),
           prominence=st.floats(0.0, 1.0),
           max_peaks=st.none() | st.integers(0, 5))
    def test_random_spectra(self, spectrum, height, prominence, max_peaks):
        assert _fields(find_peaks(spectrum, height, prominence, max_peaks)) \
            == _fields(reference_find_peaks(spectrum, height, prominence,
                                             max_peaks))

    @settings(max_examples=200, deadline=None)
    @given(spectrum=spectra(), valley=st.floats(0.0, 0.99))
    def test_random_lobes(self, spectrum, valley):
        for peak in reference_find_peaks(spectrum, 0.0, 0.0):
            assert np.array_equal(peak_regions(spectrum, peak, valley),
                                  reference_peak_regions(spectrum, peak,
                                                         valley))


@pytest.fixture(scope="module")
def roaming():
    """A two-client, four-step roaming capture: 48 groups of 3 spectra."""
    return roaming_groups(num_clients=2, num_steps=4)


class TestRoamingCapture:
    def test_peaks_and_lobes(self, roaming):
        for group in roaming:
            for spectrum in group:
                for height in (0.05, MultipathSuppressor().min_relative_height):
                    peaks = find_peaks(spectrum, height)
                    assert _fields(peaks) == _fields(
                        reference_find_peaks(spectrum, height))
                    for peak in peaks:
                        assert np.array_equal(
                            peak_regions(spectrum, peak),
                            reference_peak_regions(spectrum, peak))

    @pytest.mark.parametrize("primary_index", [0, 2])
    def test_suppress_power_bit_equal(self, roaming, primary_index):
        suppressor = MultipathSuppressor()
        changed = 0
        for group in roaming:
            expected = reference_suppress(suppressor, group, primary_index)
            actual = suppressor.suppress(group, primary_index)
            assert np.array_equal(actual.power, expected.power)
            changed += not np.array_equal(actual.power,
                                          group[primary_index].power)
        # The capture exercises the removal path, not only pass-through.
        assert changed > 0
