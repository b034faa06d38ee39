"""How raw frames are ingested and ticked never shows in the fixes.

The service buffers screened raw frames and computes their spectra at the
first read, in one stacked Section 2.3 pass over everything a ``tick()``
drains.  So a frame shares its frontend pass with whatever happens to be
pending then.  These metamorphic checks feed the same raw frames one at a
time, as one ``ingest_many`` per AP, or interleaved across APs in random
order, drained by one ``tick()`` or several, and require bit-identical
fixes from every schedule and from ``localize_many`` over
:meth:`~repro.ap.access_point.ArrayTrackAP.compute_spectra` output.

Each client's frames reach the service in one fixed AP order under every
schedule: Equation 8 multiplies the APs in first-ingest order, and a
different order moves the likelihood by a few ulps, which is a property
of synthesis, not of the frontend.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ArrayTrackConfig, ArrayTrackService
from repro.channel import MultipathChannel
from repro.errors import PoisonFrameError
from repro.geometry import Point2D, bearing_deg

BOUNDS = (0.0, 0.0, 20.0, 10.0)
AP_POSITIONS = [Point2D(1.0, 1.0), Point2D(19.0, 1.0), Point2D(10.0, 9.5),
                Point2D(1.0, 9.0)]
TARGETS = {"c0": Point2D(7.0, 4.0), "c1": Point2D(14.0, 6.0),
           "c2": Point2D(4.0, 7.5)}
BURST = 2
FRAMES_PER_CLIENT = BURST * len(AP_POSITIONS)


def _service(suppress):
    service = ArrayTrackService(ArrayTrackConfig(bounds=BOUNDS).updated({
        "server.localizer.grid_resolution_m": 0.25,
        "session.emit_every_frames": FRAMES_PER_CLIENT,
        "session.suppress_multipath": suppress}))
    for index, position in enumerate(AP_POSITIONS):
        service.build_ap(f"ap{index}", position, orientation_deg=40.0 * index,
                         rng=np.random.default_rng(index))
    return service


def _captures(service):
    """Every ``(ap id, entry)`` in canonical order: client, AP, frame."""
    rng = np.random.default_rng(11)
    captures = []
    for client_id, target in TARGETS.items():
        for ap in service.aps.values():
            channel = MultipathChannel.from_bearings(
                [bearing_deg(ap.position, target), 200.0],
                [1.0, 0.4 * np.exp(0.7j)], direct_index=0,
                client_id=client_id)
            captures.extend(
                (ap.ap_id, ap.overhear(channel, timestamp_s=0.03 * frame,
                                       rng=rng))
                for frame in range(BURST))
    return captures


def _interleaved(captures, rand):
    """A random interleaving across clients and APs.

    Within a client, frames keep their order at each AP and the APs first
    appear in canonical order; everything else is shuffled.
    """
    by_client = {}
    for ap_id, entry in captures:
        by_client.setdefault(entry.client_id, {}) \
            .setdefault(ap_id, []).append((ap_id, entry))
    ordered = {}
    for client_id, queues in by_client.items():
        queues = [list(queue) for queue in queues.values()]
        started, sequence = 0, []
        while any(queues):
            eligible = [index for index in range(started)
                        if queues[index]]
            if started < len(queues):
                eligible.append(started)
            pick = rand.choice(eligible)
            started = max(started, pick + 1)
            sequence.append(queues[pick].pop(0))
        ordered[client_id] = sequence
    slots = [client_id for client_id, sequence in ordered.items()
             for _ in sequence]
    rand.shuffle(slots)
    return [ordered[client_id].pop(0) for client_id in slots]


def _calls(captures, schedule, rand):
    """Split the captures into ``ingest_many`` calls by ``schedule``."""
    if schedule == "one-at-a-time":
        return [[capture] for capture in captures]
    if schedule == "per-ap":
        calls = {}
        for ap_id, entry in captures:
            calls.setdefault(ap_id, []).append((ap_id, entry))
        return list(calls.values())
    calls = []
    for ap_id, entry in _interleaved(captures, rand):
        if calls and calls[-1][0][0] == ap_id and rand.random() < 0.7:
            calls[-1].append((ap_id, entry))
        else:
            calls.append([(ap_id, entry)])
    return calls


def _run(calls, service, ticks):
    """Ingest ``calls`` in order (a one-frame call through ``ingest``),
    ticking after each call index in ``ticks`` and once at the end;
    return every fix as float hex."""
    fixes = {}
    for index, call in enumerate(calls):
        if len(call) == 1:
            service.ingest(*call[0])
        else:
            service.ingest_many(call[0][0], [entry for _, entry in call])
        if index in ticks:
            fixes.update(service.tick())
    fixes.update(service.tick())
    assert service.health()["ingest"]["pending_frames"] == 0
    return _hex(fixes)


def _hex(fixes):
    return {client_id: (fix.position.x.hex(), fix.position.y.hex(),
                        fix.likelihood.hex())
            for client_id, fix in sorted(fixes.items())}


def _reference(service, captures):
    """``localize_many`` over per-AP ``compute_spectra`` output."""
    aps = service.aps
    spectra = {}
    for ap_id, entry in captures:
        spectra.setdefault(entry.client_id, {}).setdefault(ap_id, []) \
            .append(entry)
    return _hex(service.localize_many(
        {client_id: {ap_id: aps[ap_id].compute_spectra(entries)
                     for ap_id, entries in by_ap.items()}
         for client_id, by_ap in spectra.items()}))


@pytest.fixture(scope="module", params=[False, True],
                ids=["plain", "suppressed"])
def baseline(request):
    """Fixes of the per-AP schedule drained by one tick."""
    service = _service(request.param)
    captures = _captures(service)
    fixes = _run(_calls(captures, "per-ap", None), service, ())
    assert sorted(fixes) == sorted(TARGETS)
    return request.param, captures, fixes


def test_one_tick_equals_localize_many_over_compute_spectra():
    service = _service(suppress=False)
    captures = _captures(service)
    expected = _reference(service, captures)
    assert _run(_calls(captures, "per-ap", None), service, ()) == expected


@settings(max_examples=12, deadline=None)
@given(schedule=st.sampled_from(["one-at-a-time", "per-ap", "interleaved"]),
       rand=st.randoms(use_true_random=False),
       tick_share=st.floats(0.0, 0.5))
def test_every_schedule_gives_the_same_fixes(baseline, schedule, rand,
                                             tick_share):
    suppress, captures, expected = baseline
    calls = _calls(captures, schedule, rand)
    ticks = {index for index in range(len(calls))
             if rand.random() < tick_share}
    assert _run(calls, _service(suppress), ticks) == expected


def test_poison_in_the_last_call_leaves_earlier_frames_and_fixes(baseline):
    suppress, captures, expected = baseline
    service = _service(suppress)
    calls = _calls(captures, "per-ap", None)
    for call in calls:
        service.ingest_many(call[0][0], [entry for _, entry in call])
    ap_id, entry = captures[0]
    samples = entry.snapshots.samples.copy()
    samples[0, 0] = np.nan
    poisoned = replace(entry, client_id="c9", snapshots=replace(
        entry.snapshots, samples=samples, client_id="c9"))
    late = replace(captures[1][1], client_id="c9", snapshots=replace(
        captures[1][1].snapshots, client_id="c9"))
    with pytest.raises(PoisonFrameError, match="'c9'"):
        service.ingest_many(ap_id, [late, poisoned])
    health = service.health()["ingest"]
    assert health["pending_frames"] == len(captures)
    assert health["poison_rejected"] == 1
    assert service.session("c9").pending_frames == 0
    fixes = _hex(service.tick())
    assert fixes == expected
