"""The stacked Section 2.4 pass against its loop reference.

``find_peaks_many`` and ``lobe_extents`` find the peaks and walk the lobes
of a whole power stack with array code, and
``MultipathSuppressor.suppress_many`` runs Figure 8 on many groups at
once; ``find_peaks``, ``peak_regions`` and ``suppress`` are batches of one
through them.  ``tests/core/_oracle.py`` keeps the point-by-point walks
and the per-group Figure 8 they replace.  Both must agree bit for bit: the
same peaks in the same order with the same floats, the same lobe masks
and the same suppressed power.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (AoASpectrum, MultipathSuppressor, find_peaks,
                        peak_regions)
from repro.core.peaks import SpectrumPeak, find_peaks_many, lobe_extents
from repro.errors import EstimationError

from tests.core._oracle import (reference_find_peaks, reference_peak_regions,
                                reference_suppress, roaming_groups)


@st.composite
def spectra(draw, n=None):
    """Circular spectra rich in the cases a local-maximum test can get wrong.

    Integer levels give plateaus and exact ties (across the 0/360 seam
    too), sparse spikes sit on either end of the grid, and flat spectra
    are all-equal or all-zero with at most one hole.  ``n`` fixes the grid
    length.
    """
    n = draw(st.integers(4, 72)) if n is None else n
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


class TestStackedPeakSearch:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(4, 72), rows=st.integers(1, 6),
           height=st.floats(0.0, 1.0), prominence=st.floats(0.0, 1.0),
           max_peaks=st.none() | st.integers(0, 5),
           valley=st.floats(0.0, 0.99))
    def test_stack_matches_row_by_row_reference(self, data, n, rows, height,
                                                prominence, max_peaks,
                                                valley):
        stack = [data.draw(spectra(n)) for _ in range(rows)]
        power = np.array([spectrum.power for spectrum in stack])
        found = find_peaks_many(power, height, prominence, max_peaks)
        left, right = lobe_extents(power, found.rows, found.index,
                                   found.power, valley)
        for row, spectrum in enumerate(stack):
            mine = found.rows == row
            expected = reference_find_peaks(spectrum, height, prominence,
                                            max_peaks)
            assert _fields(_stack_peaks(spectrum, found, mine)) \
                == _fields(expected)
            for peak, reach_left, reach_right in zip(
                    expected, left[mine], right[mine], strict=True):
                assert np.array_equal(
                    _lobe(n, peak.index, reach_left, reach_right),
                    reference_peak_regions(spectrum, peak, valley))

    def test_edge_rows_in_one_stack(self):
        n = 12
        rows = np.array([
            np.zeros(n),                                    # all zero
            np.eye(1, n, 5)[0],                             # one spike
            np.ones(n),                                     # flat
            [2, 0, 1, 1, 0, 3, 3, 0, 1, 0, 1, 2],           # plateaus, seam
            [3, 3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 3],           # seam plateau
        ], dtype=float)
        angles = np.linspace(0.0, 360.0, n, endpoint=False)
        found = find_peaks_many(rows, 0.0, 0.0)
        for row, power in enumerate(rows):
            spectrum = AoASpectrum(angles, power)
            assert _fields(_stack_peaks(spectrum, found, found.rows == row)) \
                == _fields(reference_find_peaks(spectrum, 0.0, 0.0))
        assert not np.isin([0, 2], found.rows).any()
        assert found.index[found.rows == 4].tolist() == [11, 5]

    @settings(max_examples=200, deadline=None)
    @given(spectrum=spectra(), prominence=st.floats(0.0, 1.0),
           max_peaks=st.integers(0, 3))
    def test_batch_of_one_with_non_default_options(self, spectrum,
                                                   prominence, max_peaks):
        found = find_peaks_many(spectrum.power[np.newaxis], 0.05,
                                prominence, max_peaks)
        assert _fields(find_peaks(spectrum, 0.05, prominence, max_peaks)) \
            == _fields(_stack_peaks(spectrum, found, found.rows == 0)) \
            == _fields(reference_find_peaks(spectrum, 0.05, prominence,
                                             max_peaks))


def _stack_peaks(spectrum, found, mine):
    """The stacked search's peaks of one row, as :class:`SpectrumPeak`."""
    return [SpectrumPeak(float(spectrum.angles_deg[index]), float(power),
                         float(prominence), int(index))
            for index, power, prominence in zip(
                found.index[mine], found.power[mine], found.prominence[mine],
                strict=True)]


def _lobe(n, index, left, right):
    mask = np.zeros(n, dtype=bool)
    mask[np.arange(index - left, index + right + 1) % n] = True
    return mask


@st.composite
def group_batches(draw):
    """Ragged groups of 1-3 spectra on two grid lengths, in one call.

    Each group's companions are either independent spectra or the primary
    rolled by a few points, so primaries carry both matched and unmatched
    peaks; every spectrum gets its own angle offset, some beyond 360.
    """
    lengths = draw(st.lists(st.integers(4, 48), min_size=2, max_size=2))
    groups = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.sampled_from(lengths))
        group = [draw(spectra(n))]
        for _ in range(draw(st.integers(0, 2))):
            if draw(st.booleans()):
                shift = draw(st.integers(-3, 3))
                group.append(AoASpectrum(group[0].angles_deg,
                                         np.roll(group[0].power, shift)))
            else:
                group.append(draw(spectra(draw(st.sampled_from(lengths)))))
        offsets = draw(st.lists(st.sampled_from([0.0, 2.5, -7.0, 357.5]),
                                min_size=len(group), max_size=len(group)))
        groups.append([AoASpectrum(spectrum.angles_deg + offset,
                                   spectrum.power)
                       for spectrum, offset in zip(group, offsets,
                                                   strict=True)])
    return groups


class TestStackedSuppression:
    @settings(max_examples=300, deadline=None)
    @given(groups=group_batches(),
           tolerance=st.sampled_from([0.0, 5.0, 20.0, 90.0]),
           height=st.floats(0.0, 0.5),
           residual=st.sampled_from([0.0, 0.05, 0.5]))
    def test_matches_per_group_reference(self, groups, tolerance, height,
                                         residual):
        suppressor = MultipathSuppressor(tolerance_deg=tolerance,
                                         min_relative_height=height,
                                         residual_fraction=residual)
        outputs = suppressor.suppress_many(groups)
        assert len(outputs) == len(groups)
        for group, output in zip(groups, outputs, strict=True):
            expected = reference_suppress(suppressor, group)
            assert output.power.tobytes() == expected.power.tobytes()
            if len(group) == 1:
                assert output is group[0]

    def test_overlapping_unmatched_lobes_scale_twice(self):
        # Two primary peaks share their valley point (index 7); the
        # companion's only peak is far away, so both lobes are unmatched
        # and the shared point is scaled once per lobe.
        angles = np.linspace(0.0, 360.0, 36, endpoint=False)
        power = np.full(36, 0.01)
        power[3:12] = [0.5, 0.8, 1.0, 0.8, 0.6, 0.8, 0.9, 0.7, 0.5]
        companion = np.full(36, 0.01)
        companion[25] = 1.0
        group = [AoASpectrum(angles, power), AoASpectrum(angles, companion)]
        suppressor = MultipathSuppressor(residual_fraction=0.5)
        output = suppressor.suppress_many([group])[0]
        assert output.power[7] == 0.6 * 0.5 * 0.5
        assert output.power[6] == 0.8 * 0.5
        assert output.power.tobytes() \
            == reference_suppress(suppressor, group).power.tobytes()

    def test_empty_group_is_rejected(self):
        with pytest.raises(EstimationError, match="empty spectrum group"):
            MultipathSuppressor().suppress_many([[]])


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

    def test_one_stacked_call_equals_the_per_group_reference(self, roaming):
        suppressor = MultipathSuppressor()
        for group, output in zip(roaming, suppressor.suppress_many(roaming),
                                 strict=True):
            assert output.power.tobytes() \
                == reference_suppress(suppressor, group).power.tobytes()
