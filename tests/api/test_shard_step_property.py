"""The one Section 2.4 step, checked against the oracle.

``drain_shard`` is the only code that picks the spectra Equation 8 folds.
Whatever the switches and the client order, a fix must be the one :class:`~repro.core.batch.BatchLocalizer` computes from spectra chosen
by :func:`~repro.core.suppression.group_spectra_by_time` plus the reference
Figure 8 suppression in ``tests/core/_oracle.py``:

* ``session.suppress_multipath`` on (``tick``/``flush``): every group's
  primary, grouped on the ingest-resolved timestamps;
* else ``server.enable_multipath_suppression`` on and at least two frames:
  the earliest group's primary, grouped on each spectrum's own time;
* else the AP's first frame.

Sharding must not change a fix either: ``drain_shard`` over the service's
contiguous split, merged in order, equals one ``drain_shard`` over the
whole batch.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.api import ArrayTrackConfig, ArrayTrackService
from repro.api._procpool import drain_shard
from repro.core import (AoASpectrum, BatchLocalizer, default_angle_grid,
                        group_spectra_by_time)
from repro.geometry import Point2D, bearing_deg

from tests.core._oracle import reference_suppress

BOUNDS = (0.0, 0.0, 20.0, 10.0)
AP_POSITIONS = [Point2D(1.0, 1.0), Point2D(19.0, 1.0), Point2D(10.0, 9.5)]
#: Ingest-time overrides: bursts of the same frames regroup differently.
OVERRIDE_TIMES = (0.0, 0.02, 0.05, 0.5, 0.53, 1.0)


def _lobe(angles, bearing, width):
    distance = np.minimum(np.abs(angles - bearing),
                          360 - np.abs(angles - bearing))
    return np.exp(-0.5 * (distance / width) ** 2)


def _spectrum(ap_index, target, ghost, timestamp_s, client_id, rng):
    """A lobe towards ``target``, an optional ghost lobe, and noise."""
    position = AP_POSITIONS[ap_index]
    angles = default_angle_grid(1.0)
    power = _lobe(angles, bearing_deg(position, target), 3.0) \
        + 0.02 * rng.random(angles.shape[0]) + 1e-4
    if ghost is not None:
        power += 0.8 * _lobe(angles, ghost, 3.0)
    return AoASpectrum(angles, power, ap_position=position,
                       ap_id=f"ap{ap_index}", client_id=client_id,
                       timestamp_s=timestamp_s)


@st.composite
def scenarios(draw):
    """Clients' frames as ``(client, ap, spectrum, override)`` in ingest order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_aps = draw(st.integers(2, 3))
    frames = []
    for index in range(draw(st.integers(1, 6))):
        client_id = f"c{index}"
        target = Point2D(draw(st.floats(2.0, 18.0)), draw(st.floats(2.0, 8.0)))
        for ap_index in range(num_aps):
            # One or two bursts of 1-3 frames, 30 ms apart within a burst.
            for start in draw(st.sampled_from([(0.0,), (0.0, 1.0),
                                               (1.0, 0.0)])):
                for frame in range(draw(st.integers(1, 3))):
                    ghost = draw(st.one_of(st.none(),
                                           st.floats(0.0, 359.0)))
                    spectrum = _spectrum(ap_index, target, ghost,
                                         start + 0.03 * frame, client_id, rng)
                    override = draw(st.sampled_from(OVERRIDE_TIMES))
                    frames.append((client_id, f"ap{ap_index}", spectrum,
                                   override))
    order = draw(st.permutations(range(len(frames))))
    return [frames[index] for index in order]


def _service(stream, batch_rule, parallel=None):
    config = ArrayTrackConfig(bounds=BOUNDS).updated({
        "server.localizer.grid_resolution_m": 0.5,
        "server.enable_multipath_suppression": batch_rule,
        "session.suppress_multipath": stream,
    })
    if parallel is not None:
        config = config.updated({
            f"parallel.{key}": value for key, value in parallel.items()})
    return ArrayTrackService(config)


def _oracle_spectra(service, per_client):
    """The spectra the paper's rule picks, from grouping plus the oracle."""
    suppressor = service.config.suppressor
    stream = service.config.session.suppress_multipath
    batch_rule = service.config.server.enable_multipath_suppression
    chosen = {}
    for client_id, per_ap in per_client.items():
        spectra = []
        for frames in per_ap.values():
            raw = [spectrum for spectrum, _ in frames]
            if stream:
                groups = group_spectra_by_time(
                    raw, suppressor.window_s, suppressor.max_group_size,
                    timestamps=[override for _, override in frames])
                spectra.extend(reference_suppress(suppressor, group)
                               for group in groups)
            elif batch_rule and len(raw) >= 2:
                groups = group_spectra_by_time(
                    raw, suppressor.window_s, suppressor.max_group_size)
                spectra.append(reference_suppress(suppressor, groups[0]))
            else:
                spectra.append(raw[0])
        chosen[client_id] = spectra
    return chosen


def _assert_same_fix(actual, expected):
    assert actual.position.x == expected.position.x
    assert actual.position.y == expected.position.y
    assert actual.likelihood == expected.likelihood
    assert actual.num_aps == expected.num_aps


@settings(max_examples=40, deadline=None)
@given(frames=scenarios(), stream=st.booleans(), batch_rule=st.booleans(),
       data=st.data())
def test_shard_step_equals_grouping_plus_oracle(frames, stream, batch_rule,
                                                data):
    with _service(stream, batch_rule) as service:
        # Per client and per AP, (spectrum, override) in ingest order.
        per_client = {}
        for client_id, ap_id, spectrum, override in frames:
            service.ingest(ap_id, spectrum, timestamp_s=override)
            per_client.setdefault(client_id, {}).setdefault(
                ap_id, []).append((spectrum, override))
        flushed = service.flush()
        expected = BatchLocalizer(
            BOUNDS, service.config.server.localizer).estimate_batch(
                _oracle_spectra(service, per_client))
        assert set(flushed) == set(expected)
        for client_id, estimate in expected.items():
            _assert_same_fix(flushed[client_id], estimate)

        batch = {client_id: {ap_id: [spectrum for spectrum, _ in pairs]
                             for ap_id, pairs in per_ap.items()}
                 for client_id, per_ap in per_client.items()}
        in_order = service.localize_many(batch)
        order = data.draw(st.permutations(list(batch)))
        permuted = service.localize_many({client_id: batch[client_id]
                                          for client_id in order})
        assert list(permuted) == order
        for client_id, estimate in in_order.items():
            _assert_same_fix(permuted[client_id], estimate)


@settings(max_examples=40, deadline=None)
@given(frames=scenarios(), stream=st.booleans(), batch_rule=st.booleans(),
       num_workers=st.integers(2, 4), min_clients=st.integers(1, 2))
def test_sharded_drain_equals_one_drain(frames, stream, batch_rule,
                                        num_workers, min_clients):
    # A process-backed service only for its split: nothing here localizes,
    # so no pool starts.
    service = _service(stream, batch_rule, {
        "backend": "process", "num_workers": num_workers,
        "min_clients_per_worker": min_clients})
    batch, times = {}, {}
    for client_id, ap_id, spectrum, override in frames:
        batch.setdefault(client_id, {}).setdefault(ap_id, []).append(spectrum)
        times.setdefault(client_id, {}).setdefault(ap_id, []).append(override)
    stream_times = times if stream else None
    shards = service._shards(list(batch))
    assume(shards is not None)
    assert [client_id for shard in shards for client_id in shard] \
        == list(batch)
    merged = {}
    for shard in shards:
        merged.update(drain_shard(
            service.server, service.config.suppressor,
            {client_id: batch[client_id] for client_id in shard},
            stream_times))
    whole = drain_shard(service.server, service.config.suppressor, batch,
                        stream_times)
    assert list(merged) == list(whole)
    for client_id, estimate in whole.items():
        _assert_same_fix(merged[client_id], estimate)
    assert service._procpool is None
