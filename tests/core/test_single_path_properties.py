"""Section 2.3 and 2.4 checked against geometry, not against older code.

A noiseless frame that arrives over one path has a known answer: the
bearing of that path in the array's local frame.  These properties build
such frames from :meth:`MultipathChannel.from_bearings` and
:meth:`ArrayReceiver.noiseless_response` and check that

* the frontend's strongest peak lies within one grid step of the true
  bearing (or of its mirror across the antenna row, when no symmetry
  antenna resolves the Section 2.3.4 ambiguity);
* a group of two or three such frames from a slowly moving client keeps
  its direct-path lobe through Section 2.4 suppression: the power at the
  true bearing is not scaled by ``residual_fraction``.

Bearings stay at least 15 degrees away from endfire, where a linear
row's resolution collapses and a bearing meets its own mirror.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ap import APConfig, ArrayTrackAP
from repro.ap.buffer import BufferEntry
from repro.array.receiver import ArrayReceiver, SnapshotMatrix
from repro.channel import MultipathChannel
from repro.core.suppression import MultipathSuppressor
from repro.geometry import Point2D

#: Bearings in the array's local frame, at least 15 degrees from endfire
#: (0 and 180 degrees along the antenna row), on either side of the row.
LOCAL_BEARINGS = st.one_of(st.floats(15.0, 165.0), st.floats(195.0, 345.0))
ORIENTATIONS = st.floats(0.0, 360.0, exclude_max=True)


def _ap(orientation_deg, use_symmetry):
    config = APConfig(use_symmetry_antenna=use_symmetry,
                      apply_phase_offsets=False)
    return ArrayTrackAP("ap", Point2D(0.0, 0.0), orientation_deg,
                        config=config, rng=np.random.default_rng(0))


def _frame(ap, local_bearing_deg, timestamp_s, seed):
    """One noiseless single-path frame: the array response times random
    unit-modulus symbols."""
    channel = MultipathChannel.from_bearings(
        [(local_bearing_deg + ap.array.orientation_deg) % 360.0], [1.0],
        direct_index=0, client_id="c", ap_id=ap.ap_id)
    response = ArrayReceiver(ap.array, apply_phase_offsets=False) \
        .noiseless_response(channel)
    phases = np.random.default_rng(seed).uniform(
        0.0, 2.0 * np.pi, ap.config.snapshots_per_frame)
    samples = np.outer(response, np.exp(1j * phases))
    snapshots = SnapshotMatrix(samples, client_id="c", ap_id=ap.ap_id,
                               timestamp_s=timestamp_s)
    return BufferEntry(snapshots, "c", timestamp_s, seed)


def _distance_deg(a, b):
    difference = np.abs(np.asarray(a) - b) % 360.0
    return np.minimum(difference, 360.0 - difference)


@settings(max_examples=40, deadline=None)
@given(bearing=LOCAL_BEARINGS, orientation=ORIENTATIONS,
       use_symmetry=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_noiseless_single_path_peaks_at_the_true_bearing(
        bearing, orientation, use_symmetry, seed):
    ap = _ap(orientation, use_symmetry)
    spectrum = ap.compute_spectrum(_frame(ap, bearing, 0.0, seed))
    peak = spectrum.angles_deg[int(np.argmax(spectrum.power))]
    error = _distance_deg(peak, bearing)
    if not use_symmetry:
        # A linear row cannot tell a bearing from its mirror.
        error = min(error, _distance_deg(peak, -bearing))
    assert error <= spectrum.resolution_deg + 1e-9


@settings(max_examples=40, deadline=None)
@given(bearing=LOCAL_BEARINGS, orientation=ORIENTATIONS,
       use_symmetry=st.booleans(),
       moves=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=2),
       gaps=st.lists(st.floats(0.005, 0.09), min_size=2, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_single_path_group_keeps_its_direct_path_lobe(
        bearing, orientation, use_symmetry, moves, gaps, seed):
    ap = _ap(orientation, use_symmetry)
    bearings = [bearing] + [bearing + move for move in moves]
    times = np.concatenate([[0.0], np.cumsum(gaps[:len(moves)])])
    group = ap.compute_spectra([
        _frame(ap, frame_bearing, float(time), seed + index)
        for index, (frame_bearing, time) in enumerate(zip(bearings, times,
                                                          strict=True))])
    suppressor = MultipathSuppressor()
    # Spaced under the 100 ms window: the frames form one group.
    assert [len(frames) for frames in suppressor.group(group)] \
        == [len(group)]
    primary = group[0]
    suppressed = suppressor.suppress_many([group])[0]
    true_index = int(np.argmin(_distance_deg(primary.angles_deg, bearing)))
    assert suppressed.power[true_index] == primary.power[true_index]
