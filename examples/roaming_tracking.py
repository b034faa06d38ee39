#!/usr/bin/env python3
"""Real-time tracking of a client roaming through the office.

The paper's motivating applications (augmented-reality navigation, retail
analytics) need a continuous stream of fine-grained location fixes while the
user walks around.  This example walks a client along a corridor waypoint
track and drives the ``ArrayTrackService`` facade the way a live deployment
would: at every step the client transmits a short burst of frames (moving a
few centimetres between them), every overheard frame is streamed into the
client's session with ``service.ingest``, and ``service.tick`` drains ready
sessions through one batched synthesis pass.

The full paper pipeline is enabled: the streaming multipath-suppression
stage (Section 2.4) groups each burst by capture time and removes peaks
that wander between frames before synthesis, and every fix lands in the
built-in per-client tracker -- read back with ``service.track`` /
``service.latest_fix``.

Run with:  python examples/roaming_tracking.py
"""

from __future__ import annotations

import numpy as np

from repro import ArrayTrackConfig, ArrayTrackService
from repro.channel import movement_track, random_waypoint_track
from repro.geometry import Point2D
from repro.testbed import ScenarioConfig, SimulatedDeployment, build_office_testbed

FRAMES_PER_BURST = 3


def main() -> None:
    testbed = build_office_testbed()
    deployment = SimulatedDeployment(
        testbed, ScenarioConfig(frames_per_client=FRAMES_PER_BURST,
                                snr_db=25.0, seed=42))
    # One config tree: localizer grid, streaming trigger (one fix per
    # burst) and the multipath-suppression stage all in one place.
    config = ArrayTrackConfig(bounds=testbed.bounds).updated({
        "server.localizer.grid_resolution_m": 0.15,
        "session.emit_every_frames": FRAMES_PER_BURST,
        "session.suppress_multipath": True,
        "suppressor.max_group_size": FRAMES_PER_BURST,
    })
    service = ArrayTrackService(config)

    # A walk along the central corridor (y = 9.5 m) from west to east.
    waypoints = random_waypoint_track(Point2D(5.0, 9.5), Point2D(35.0, 9.5),
                                      num_samples=12)
    rng = np.random.default_rng(42)
    fix_interval_s = 0.5  # one localizable burst every half second
    errors_cm = []
    print(f"{'t (s)':>6} | {'true position':>16} | {'estimate':>16} | error")
    for index, waypoint in enumerate(waypoints):
        timestamp = index * fix_interval_s
        deployment.clear()
        # The burst: three frames 30 ms apart while the walker inadvertently
        # moves a few centimetres -- the movement the suppression stage
        # exploits (direct-path peaks stay put, multipath peaks wander).
        burst = movement_track(waypoint, FRAMES_PER_BURST, rng=rng)
        deployment.capture_client("roamer", positions=burst,
                                  start_time_s=timestamp)
        # Stream every AP's spectra of this burst into the session...
        for ap_id, spectra in deployment.spectra_for_client("roamer").items():
            for spectrum in spectra:
                service.ingest(ap_id, spectrum, client_id="roamer")
        # ...and let the service emit the fixes whose triggers fired.
        fixes = service.tick(now_s=timestamp)
        estimate = fixes["roamer"]
        error_cm = estimate.position.distance_to(waypoint) * 100.0
        errors_cm.append(error_cm)
        print(f"{timestamp:6.1f} | ({waypoint.x:6.2f}, {waypoint.y:5.2f}) m "
              f"| ({estimate.position.x:6.2f}, {estimate.position.y:5.2f}) m "
              f"| {error_cm:5.0f} cm")

    track = service.track("roamer")
    latest = service.latest_fix("roamer")
    assert latest is not None and latest == track[-1]
    print()
    print(f"fixes emitted              : {len(track)}")
    print(f"latest fix                 : ({latest.position.x:.2f}, "
          f"{latest.position.y:.2f}) m at t={latest.timestamp_s:.1f} s")
    print(f"median error over the walk : {np.median(errors_cm):.0f} cm")
    print(f"mean error over the walk   : {np.mean(errors_cm):.0f} cm")
    print(f"smoothed path length       : {service.tracker.path_length_m('roamer'):.1f} m "
          f"(ground truth {waypoints[0].distance_to(waypoints[-1]):.1f} m straight line)")


if __name__ == "__main__":
    main()
