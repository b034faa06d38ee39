"""Experiment runners regenerating every table and figure of the paper.

Each public function reproduces one evaluation artefact (Figures 3-21,
Table 1, the Section 4.3/4.4 analyses and the related-work baselines) on the
simulated testbed and returns a plain-data result object that the report
module renders and the benchmark suite asserts against.  The experiment ids
match DESIGN.md's per-experiment index (E-FIG13, E-TAB1, ...).

All experiments accept sizing parameters so that unit tests can run a small
slice quickly while the benchmark harness runs the paper-sized version.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.ap.collision import CollisionResolver, merge_channels
from repro.ap.latency import LatencyModel
from repro.api import ArrayTrackConfig, ArrayTrackService
from repro.baselines import (
    FingerprintLocalizer,
    ModelBasedRssLocalizer,
    RssFingerprint,
    WeightedCentroidLocalizer,
)
from repro.channel import movement_track, perturb_position, random_waypoint_track
from repro.core import (
    MultipathSuppressor,
    SpectrumConfig,
    find_peaks,
    match_peak,
)
from repro.core.spectrum import AoASpectrum
from repro.errors import EstimationError
from repro.eval.metrics import ErrorStatistics, empirical_cdf, summarize_errors
from repro.geometry import Point2D, bearing_deg
from repro.geometry.vector import angle_difference_deg
from repro.signal import (
    MatchedFilterDetector,
    SchmidlCoxDetector,
    add_awgn,
    generate_preamble,
)
from repro.testbed import OfficeTestbed, ScenarioConfig, SimulatedDeployment, build_office_testbed

__all__ = [
    "LocalizationSweepResult",
    "run_localization_sweep",
    "fig3_example_spectrum",
    "fig7_spatial_smoothing",
    "table1_peak_stability",
    "fig9_multipath_suppression",
    "fig13_static_localization",
    "fig14_heatmaps",
    "fig15_arraytrack_localization",
    "fig16_antenna_count",
    "fig17_pillar_blocking",
    "fig18_height_orientation",
    "fig19_sample_count",
    "fig20_snr_sweep",
    "fig21_latency",
    "appendix_a_height_error",
    "sec434_detection_snr",
    "sec435_collisions",
    "baseline_comparison",
    "RoamingTrackingResult",
    "roaming_tracking",
    "roaming_tracking_comparison",
]


# ----------------------------------------------------------------------
# Shared infrastructure
# ----------------------------------------------------------------------
@dataclass
class LocalizationSweepResult:
    """Result of a localization campaign over AP-count subsets.

    Attributes
    ----------
    statistics:
        Mapping of the number of APs to the error statistics across all
        evaluated (client, AP-subset) pairs.
    cdfs:
        Mapping of the number of APs to ``(grid_cm, fraction)`` CDF arrays.
    errors_cm:
        Raw error samples per AP count (for downstream analysis).
    """

    statistics: dict[int, ErrorStatistics]
    cdfs: dict[int, tuple[np.ndarray, np.ndarray]]
    errors_cm: dict[int, list[float]]


def _default_scenario(**overrides) -> ScenarioConfig:
    """Scenario defaults shared by the localization experiments."""
    parameters = dict(frames_per_client=3, seed=2013)
    parameters.update(overrides)
    return ScenarioConfig(**parameters)


def _service(bounds: tuple[float, float, float, float],
             grid_resolution_m: float, **server_overrides) -> ArrayTrackService:
    """The facade every end-to-end experiment localizes through.

    Spectrum floor and all other knobs are the facade defaults; only the
    grid resolution and explicit server overrides are dialled in.
    """
    overrides = {"server.localizer.grid_resolution_m": grid_resolution_m}
    overrides.update({f"server.{key}": value
                      for key, value in server_overrides.items()})
    return ArrayTrackService(ArrayTrackConfig(bounds=bounds).updated(overrides))


def _ap_subsets(ap_ids: Sequence[str], subset_size: int,
                max_subsets: int | None) -> list[tuple[str, ...]]:
    """Return AP-id subsets of the given size (optionally capped, spread evenly)."""
    subsets = list(itertools.combinations(ap_ids, subset_size))
    if max_subsets is not None and len(subsets) > max_subsets:
        indices = np.linspace(0, len(subsets) - 1, max_subsets).astype(int)
        subsets = [subsets[i] for i in indices]
    return subsets


def run_localization_sweep(testbed: OfficeTestbed | None = None,
                           scenario: ScenarioConfig | None = None,
                           ap_counts: Sequence[int] = (3, 4, 5, 6),
                           num_clients: int | None = None,
                           max_subsets_per_count: int | None = 4,
                           grid_resolution_m: float = 0.25,
                           enable_multipath_suppression: bool = True,
                           ) -> LocalizationSweepResult:
    """Run the core localization campaign behind Figures 13 and 15.

    For every requested AP count, every (capped) subset of that many APs and
    every client, the client's buffered frames are localized and the error
    against ground truth recorded.

    Parameters
    ----------
    testbed:
        Environment description (the default 41-client office when omitted).
    scenario:
        Capture scenario; the semi-static 3-frame default when omitted.
    ap_counts:
        AP subset sizes to sweep (the paper uses 3, 4, 5 and 6).
    num_clients:
        Number of clients evaluated (all 41 when omitted).
    max_subsets_per_count:
        Cap on the number of AP subsets per count (None evaluates every
        combination, as the paper does).
    grid_resolution_m:
        Localization grid resolution (the paper uses 0.10 m).
    enable_multipath_suppression:
        Run the Section 2.4 suppression at the server.
    """
    testbed = testbed if testbed is not None else build_office_testbed()
    scenario = scenario if scenario is not None else _default_scenario()
    deployment = SimulatedDeployment(testbed, scenario)
    service = _service(
        testbed.bounds, grid_resolution_m,
        enable_multipath_suppression=enable_multipath_suppression)
    clients = testbed.client_ids()
    if num_clients is not None:
        clients = clients[:num_clients]
    errors: dict[int, list[float]] = {count: [] for count in ap_counts}
    for client_id in clients:
        deployment.clear()
        spectra = deployment.collect_client_spectra(client_id)
        ground_truth = testbed.client_position(client_id)
        for count in ap_counts:
            for subset in _ap_subsets(testbed.ap_ids(), count, max_subsets_per_count):
                subset_spectra = {ap: spectra[ap] for ap in subset if ap in spectra}
                if not subset_spectra:
                    continue
                estimate = service.localize(subset_spectra, client_id)
                errors[count].append(estimate.error_to(ground_truth) * 100.0)
    statistics = {count: summarize_errors(samples)
                  for count, samples in errors.items() if samples}
    cdfs = {count: empirical_cdf(samples)
            for count, samples in errors.items() if samples}
    return LocalizationSweepResult(statistics=statistics, cdfs=cdfs, errors_cm=errors)


# ----------------------------------------------------------------------
# Spectrum-level experiments (Figures 3, 7, 9, 17; Table 1)
# ----------------------------------------------------------------------
@dataclass
class SpectrumExperimentResult:
    """A collection of labelled spectra with the relevant summary numbers."""

    spectra: dict[str, AoASpectrum]
    summary: dict[str, float]


def _single_link_deployment(scenario: ScenarioConfig | None = None
                            ) -> tuple[OfficeTestbed, SimulatedDeployment]:
    testbed = build_office_testbed()
    scenario = scenario if scenario is not None else _default_scenario(frames_per_client=1)
    return testbed, SimulatedDeployment(testbed, scenario)


def fig3_example_spectrum(client_id: str = "client-17",
                          ap_id: str = "2") -> SpectrumExperimentResult:
    """E-FIG3: a representative AoA spectrum of one client at one AP."""
    testbed, deployment = _single_link_deployment()
    ap = deployment.aps[ap_id]
    position = testbed.client_position(client_id)
    channel = deployment.channel_builder.build(position, ap.position,
                                               client_id=client_id, ap_id=ap_id)
    entry = ap.overhear(channel)
    spectrum = ap.compute_spectrum(entry)
    true_bearing = bearing_deg(ap.position, position)
    peaks = find_peaks(spectrum, min_relative_height=0.1)
    direct_offset = min(
        (angle_difference_deg((p.angle_deg + spectrum.ap_orientation_deg) % 360.0,
                              true_bearing) for p in peaks),
        default=float("nan"))
    return SpectrumExperimentResult(
        spectra={"example": spectrum},
        summary={
            "num_peaks": float(len(peaks)),
            "true_bearing_deg": float(true_bearing),
            "closest_peak_offset_deg": float(direct_offset),
        })


def fig7_spatial_smoothing(group_counts: Sequence[int] = (1, 2, 3, 4),
                           client_id: str = "client-20",
                           ap_id: str = "2") -> SpectrumExperimentResult:
    """E-FIG7: the effect of the number of spatial smoothing groups."""
    testbed, deployment = _single_link_deployment()
    ap = deployment.aps[ap_id]
    position = testbed.client_position(client_id)
    channel = deployment.channel_builder.build(position, ap.position,
                                               client_id=client_id, ap_id=ap_id)
    entry = ap.overhear(channel)
    spectra: dict[str, AoASpectrum] = {}
    summary: dict[str, float] = {}
    from repro.core.pipeline import SpectrumComputer  # local import to avoid cycle

    for groups in group_counts:
        config = SpectrumConfig(smoothing_groups=groups, apply_weighting=False)
        computer = SpectrumComputer(config)
        snapshots = ap._compensate(entry.snapshots)
        spectrum = computer.compute(snapshots, ap.array, ap.linear_indices)
        label = f"NG={groups}"
        spectra[label] = spectrum
        summary[f"num_peaks_NG{groups}"] = float(
            len(find_peaks(spectrum, min_relative_height=0.15)))
    return SpectrumExperimentResult(spectra=spectra, summary=summary)


@dataclass
class PeakStabilityResult:
    """E-TAB1: frequency of direct/reflection peak changes under movement."""

    total_positions: int
    fraction_direct_same_reflection_changed: float
    fraction_direct_same_reflection_same: float
    fraction_direct_changed_reflection_changed: float
    fraction_direct_changed_reflection_same: float

    def as_dict(self) -> dict[str, float]:
        return {
            "direct same / reflections changed":
                self.fraction_direct_same_reflection_changed,
            "direct same / reflections same":
                self.fraction_direct_same_reflection_same,
            "direct changed / reflections changed":
                self.fraction_direct_changed_reflection_changed,
            "direct changed / reflections same":
                self.fraction_direct_changed_reflection_same,
        }

    @property
    def fraction_direct_same(self) -> float:
        """Total fraction of positions where the direct-path peak was stable."""
        return (self.fraction_direct_same_reflection_changed
                + self.fraction_direct_same_reflection_same)


def table1_peak_stability(num_positions: int = 100,
                          movement_m: float = 0.05,
                          seed: int = 41) -> PeakStabilityResult:
    """E-TAB1: peak stability microbenchmark at randomly chosen positions.

    For each random position an AoA spectrum is generated there and at a
    point ``movement_m`` away; the peak nearest the true bearing is labelled
    the direct path and the others reflections; a peak is "unchanged" if the
    second spectrum has a peak within five degrees.
    """
    if num_positions < 1:
        raise EstimationError("num_positions must be >= 1")
    testbed, deployment = _single_link_deployment()
    rng = np.random.default_rng(seed)
    counts = np.zeros(4, dtype=int)
    evaluated = 0
    while evaluated < num_positions:
        position = Point2D(float(rng.uniform(2.0, 38.0)), float(rng.uniform(2.0, 16.0)))
        ap_id = str(rng.integers(1, 7))
        ap = deployment.aps[ap_id]
        site = testbed.ap_site(ap_id)
        entries = []
        for point in (position, perturb_position(position, movement_m, rng=rng)):
            channel = deployment.channel_builder.build(point, ap.position,
                                                       client_id="probe", ap_id=ap_id)
            entries.append(ap.overhear(channel, rng=rng))
            ap.clear()
        # Both captures run through the batched frontend in one pass.
        spectra = ap.compute_spectra(entries)
        local_true = (bearing_deg(site.position, position) - site.orientation_deg) % 360.0
        first_peaks = find_peaks(spectra[0], min_relative_height=0.15)
        second_peaks = find_peaks(spectra[1], min_relative_height=0.15)
        if not first_peaks:
            continue
        direct = min(first_peaks,
                     key=lambda p: angle_difference_deg(p.angle_deg, local_true))
        if angle_difference_deg(direct.angle_deg, local_true) > 10.0:
            continue  # The direct path did not produce an identifiable peak.
        reflections = [p for p in first_peaks if p is not direct]
        if not reflections:
            continue
        direct_same = match_peak(direct, second_peaks) is not None
        changed = sum(1 for p in reflections if match_peak(p, second_peaks) is None)
        reflections_changed = changed >= max(1, len(reflections)) / 2.0
        index = (0 if direct_same else 2) + (0 if reflections_changed else 1)
        counts[index] += 1
        evaluated += 1
    fractions = counts / max(evaluated, 1)
    return PeakStabilityResult(
        total_positions=evaluated,
        fraction_direct_same_reflection_changed=float(fractions[0]),
        fraction_direct_same_reflection_same=float(fractions[1]),
        fraction_direct_changed_reflection_changed=float(fractions[2]),
        fraction_direct_changed_reflection_same=float(fractions[3]),
    )


def fig9_multipath_suppression(client_id: str = "client-23",
                               ap_id: str = "4") -> SpectrumExperimentResult:
    """E-FIG9: the multipath suppression algorithm on a pair of spectra."""
    testbed, deployment = _single_link_deployment(_default_scenario(frames_per_client=3))
    deployment.capture_client(client_id, ap_ids=[ap_id])
    spectra = deployment.spectra_for_client(client_id, [ap_id])[ap_id]
    suppressor = MultipathSuppressor()
    suppressed = suppressor.suppress(spectra)
    primary_peaks = find_peaks(spectra[0], min_relative_height=0.15)
    # A primary peak counts as "retained" if the suppression step left at
    # least half of its power in place; the others were judged unstable
    # (reflection paths) and removed.
    retained = sum(
        1 for peak in primary_peaks
        if suppressed.power_at_local(peak.angle_deg)[0] >= 0.5 * peak.power)
    result_spectra = {f"frame-{i}": s for i, s in enumerate(spectra)}
    result_spectra["suppressed"] = suppressed
    return SpectrumExperimentResult(
        spectra=result_spectra,
        summary={
            "peaks_before": float(len(primary_peaks)),
            "peaks_after": float(retained),
        })


def fig17_pillar_blocking() -> SpectrumExperimentResult:
    """E-FIG17: spectra of clients whose direct path crosses 0, 1 or 2 pillars.

    The paper keeps the client on a line with the AP while blocking the
    direct path with more pillars; even behind two pillars the direct-path
    peak remains among the strongest few.  The office floorplan has pillars
    1 and 2 on the y = 9 m line, so the probe AP is placed on that line near
    the west wall and the clients progressively further east behind the
    pillars.
    """
    from repro.ap.access_point import APConfig, ArrayTrackAP

    testbed, deployment = _single_link_deployment()
    ap = ArrayTrackAP("fig17-probe", Point2D(2.0, 9.0), orientation_deg=60.0,
                      config=APConfig(apply_phase_offsets=False),
                      rng=np.random.default_rng(17))
    clients = {
        "no blocking": Point2D(6.0, 9.0),
        "blocked by 1 pillar": Point2D(13.0, 9.0),
        "blocked by 2 pillars": Point2D(23.0, 9.0),
    }
    spectra: dict[str, AoASpectrum] = {}
    summary: dict[str, float] = {}
    for label, position in clients.items():
        channel = deployment.channel_builder.build(position, ap.position,
                                                   client_id=label, ap_id=ap.ap_id)
        entry = ap.overhear(channel)
        spectrum = ap.compute_spectrum(entry)
        ap.clear()
        spectra[label] = spectrum
        local_true = (bearing_deg(ap.position, position)
                      - ap.array.orientation_deg) % 360.0
        peaks = find_peaks(spectrum, min_relative_height=0.05)
        rank = _peak_rank_near(peaks, local_true, tolerance_deg=8.0)
        summary[f"direct_peak_rank [{label}]"] = float(rank)
        summary[f"pillars_crossed [{label}]"] = float(
            len(testbed.floorplan.pillars_crossed(position, ap.position)))
    return SpectrumExperimentResult(spectra=spectra, summary=summary)


def _peak_rank_near(peaks: Sequence, angle_deg: float, tolerance_deg: float) -> int:
    """Return the 1-based power rank of the peak nearest ``angle_deg`` (0 if none)."""
    for rank, peak in enumerate(peaks, start=1):
        if angle_difference_deg(peak.angle_deg, angle_deg) <= tolerance_deg:
            return rank
    return 0


# ----------------------------------------------------------------------
# Localization experiments (Figures 13-16, 18)
# ----------------------------------------------------------------------
def fig13_static_localization(num_clients: int | None = 20,
                              max_subsets_per_count: int | None = 3,
                              grid_resolution_m: float = 0.25
                              ) -> LocalizationSweepResult:
    """E-FIG13: raw (unoptimized) localization error CDFs for 3-6 APs.

    "Unoptimized" means: single frame per client, no array geometry
    weighting, no symmetry removal and no multipath suppression -- the plain
    Equation 8 synthesis of mirrored MUSIC spectra.
    """
    scenario = _default_scenario(
        frames_per_client=1,
        use_symmetry_antenna=False,
        spectrum=SpectrumConfig(apply_weighting=False),
    )
    return run_localization_sweep(
        scenario=scenario, num_clients=num_clients,
        max_subsets_per_count=max_subsets_per_count,
        grid_resolution_m=grid_resolution_m,
        enable_multipath_suppression=False)


def fig15_arraytrack_localization(num_clients: int | None = 20,
                                  max_subsets_per_count: int | None = 3,
                                  grid_resolution_m: float = 0.25
                                  ) -> dict[str, LocalizationSweepResult]:
    """E-FIG15: full-ArrayTrack vs unoptimized CDFs for 3-6 APs."""
    arraytrack = run_localization_sweep(
        num_clients=num_clients, max_subsets_per_count=max_subsets_per_count,
        grid_resolution_m=grid_resolution_m)
    unoptimized = fig13_static_localization(
        num_clients=num_clients, max_subsets_per_count=max_subsets_per_count,
        grid_resolution_m=grid_resolution_m)
    return {"arraytrack": arraytrack, "unoptimized": unoptimized}


def fig14_heatmaps(client_id: str = "client-19",
                   grid_resolution_m: float = 0.25) -> dict[int, float]:
    """E-FIG14: fix error as APs are added one at a time.

    Returns the localization error (cm) of the service's refined fix (the
    grid seeds plus hill climbing) when the spectra of the first k APs
    (k = 1..6) are combined.  The paper's figure shows the corresponding
    likelihood surfaces; :meth:`repro.core.BatchLocalizer.heatmaps`
    builds them.
    """
    testbed = build_office_testbed()
    deployment = SimulatedDeployment(testbed, _default_scenario())
    service = _service(testbed.bounds, grid_resolution_m)
    spectra = deployment.collect_client_spectra(client_id)
    ground_truth = testbed.client_position(client_id)
    errors: dict[int, float] = {}
    ap_order = testbed.ap_ids()
    for count in range(1, len(ap_order) + 1):
        subset = {ap: spectra[ap] for ap in ap_order[:count] if ap in spectra}
        estimate = service.localize(subset, client_id)
        errors[count] = estimate.error_to(ground_truth) * 100.0
    return errors


def fig16_antenna_count(antenna_counts: Sequence[int] = (4, 6, 8),
                        num_clients: int | None = 20,
                        grid_resolution_m: float = 0.25
                        ) -> dict[int, ErrorStatistics]:
    """E-FIG16: localization accuracy with 4-, 6- and 8-antenna APs."""
    results: dict[int, ErrorStatistics] = {}
    for antennas in antenna_counts:
        scenario = _default_scenario(num_antennas=antennas)
        sweep = run_localization_sweep(
            scenario=scenario, ap_counts=(6,), num_clients=num_clients,
            max_subsets_per_count=1, grid_resolution_m=grid_resolution_m)
        results[antennas] = sweep.statistics[6]
    return results


def fig18_height_orientation(num_clients: int | None = 20,
                             height_offset_m: float = 1.5,
                             orientation_mismatch_deg: float = 90.0,
                             grid_resolution_m: float = 0.25
                             ) -> dict[str, ErrorStatistics]:
    """E-FIG18: robustness to client height and antenna orientation changes."""
    results: dict[str, ErrorStatistics] = {}
    variants = {
        "original": {},
        "different antenna heights": {"height_offset_m": height_offset_m},
        "different antenna orientations": {
            "polarization_mismatch_deg": orientation_mismatch_deg,
            # The received power drop shows up as a lower capture SNR.
            "snr_db": 25.0 - 15.0,
        },
    }
    for label, overrides in variants.items():
        scenario = _default_scenario(**overrides)
        sweep = run_localization_sweep(
            scenario=scenario, ap_counts=(6,), num_clients=num_clients,
            max_subsets_per_count=1, grid_resolution_m=grid_resolution_m)
        results[label] = sweep.statistics[6]
    return results


# ----------------------------------------------------------------------
# Robustness experiments (Figures 19-20, Sections 4.3.4-4.3.5, Appendix A)
# ----------------------------------------------------------------------
def fig19_sample_count(sample_counts: Sequence[int] = (1, 5, 10, 100),
                       num_packets: int = 30,
                       client_id: str = "client-11",
                       ap_id: str = "2",
                       snr_db: float = 12.0,
                       seed: int = 19) -> dict[int, dict[str, float]]:
    """E-FIG19: AoA spectrum stability versus the number of preamble samples.

    For each sample count, ``num_packets`` packets from the same client are
    processed and the spread (standard deviation) of the strongest peak's
    bearing across packets is reported, along with the mean absolute bearing
    error against the direct path.  The paper observes that spectra are
    already stable with about five samples.
    """
    testbed, deployment = _single_link_deployment()
    ap = deployment.aps[ap_id]
    site = testbed.ap_site(ap_id)
    position = testbed.client_position(client_id)
    channel = deployment.channel_builder.build(position, ap.position,
                                               client_id=client_id, ap_id=ap_id)
    local_true = (bearing_deg(site.position, position) - site.orientation_deg) % 360.0
    rng = np.random.default_rng(seed)
    results: dict[int, dict[str, float]] = {}
    for count in sample_counts:
        bearings: list[float] = []
        entries = [ap.overhear(channel, num_snapshots=count, snr_db=snr_db,
                               rng=rng)
                   for _ in range(num_packets)]
        ap.clear()
        # All packets of one sample count share one batched-frontend pass.
        for spectrum in ap.compute_spectra(entries):
            peaks = find_peaks(spectrum, min_relative_height=0.3)
            if peaks:
                bearings.append(peaks[0].angle_deg)
        if not bearings:
            results[count] = {"bearing_std_deg": float("nan"),
                              "mean_error_deg": float("nan")}
            continue
        errors = [angle_difference_deg(b, local_true) for b in bearings]
        mean_bearing = float(np.mean(bearings))
        spread = float(np.sqrt(np.mean(
            [angle_difference_deg(b, mean_bearing) ** 2 for b in bearings])))
        results[count] = {
            "bearing_std_deg": spread,
            "mean_error_deg": float(np.mean(errors)),
        }
    return results


def fig20_snr_sweep(snrs_db: Sequence[float] = (15.0, 8.0, 2.0, -5.0),
                    client_id: str = "client-11",
                    ap_id: str = "2",
                    seed: int = 20) -> dict[float, dict[str, float]]:
    """E-FIG20: AoA spectrum quality versus SNR.

    Reports, per SNR, the fraction of the spectrum's power concentrated
    within ten degrees of the true bearing (a numeric proxy for the paper's
    visual "spectrum stays sharp / large side lobes appear" comparison) and
    the bearing error of the strongest peak.  Both degrade markedly once
    the SNR drops below roughly 0 dB.
    """
    testbed, deployment = _single_link_deployment()
    ap = deployment.aps[ap_id]
    site = testbed.ap_site(ap_id)
    position = testbed.client_position(client_id)
    channel = deployment.channel_builder.build(position, ap.position,
                                               client_id=client_id, ap_id=ap_id)
    local_true = (bearing_deg(site.position, position) - site.orientation_deg) % 360.0
    rng = np.random.default_rng(seed)
    results: dict[float, dict[str, float]] = {}
    for snr_db in snrs_db:
        concentration_samples = []
        error_samples = []
        entries = [ap.overhear(channel, snr_db=snr_db, rng=rng)
                   for _ in range(10)]
        ap.clear()
        # All packets of one SNR share one batched-frontend pass.
        for spectrum in ap.compute_spectra(entries):
            distances = np.minimum(np.abs(spectrum.angles_deg - local_true),
                                   360.0 - np.abs(spectrum.angles_deg - local_true))
            near_true = float(np.sum(spectrum.power[distances <= 10.0]))
            concentration_samples.append(near_true / max(float(np.sum(spectrum.power)),
                                                         1e-12))
            peaks = find_peaks(spectrum, min_relative_height=0.3)
            if peaks:
                error_samples.append(angle_difference_deg(peaks[0].angle_deg, local_true))
        results[snr_db] = {
            "power_near_true_bearing": float(np.mean(concentration_samples)),
            "strongest_peak_error_deg": float(np.mean(error_samples))
            if error_samples else float("nan"),
        }
    return results


def sec434_detection_snr(snrs_db: Sequence[float] = (10.0, 0.0, -5.0, -10.0, -15.0),
                         num_trials: int = 20,
                         seed: int = 434) -> dict[float, dict[str, float]]:
    """E-SEC434: packet detection rate versus SNR for both detectors.

    The matched-filter detector that correlates against all the known
    training symbols should keep detecting down to about -10 dB; the plain
    Schmidl-Cox autocorrelation gives up earlier.
    """
    rng = np.random.default_rng(seed)
    preamble = generate_preamble()
    silence_samples = len(preamble) // 2
    matched = MatchedFilterDetector()
    schmidl_cox = SchmidlCoxDetector()
    results: dict[float, dict[str, float]] = {}
    for snr_db in snrs_db:
        matched_hits = 0
        schmidl_hits = 0
        for _ in range(num_trials):
            delayed = preamble.delayed(silence_samples)
            noisy = add_awgn(delayed, snr_db, rng=rng,
                             reference_power=preamble.power())
            if matched.detect(noisy).detected:
                matched_hits += 1
            if schmidl_cox.detect(noisy).detected:
                schmidl_hits += 1
        results[snr_db] = {
            "matched_filter_rate": matched_hits / num_trials,
            "schmidl_cox_rate": schmidl_hits / num_trials,
        }
    return results


def sec435_collisions(num_trials: int = 10, seed: int = 435) -> dict[str, float]:
    """E-SEC435: AoA recovery for two colliding packets via cancellation.

    The first client's preamble arrives alone; by the time the second
    client's preamble arrives, both signals are on the air.  The resolver
    removes the first client's bearings from the combined spectrum; success
    means the strongest remaining peak points at the second client.
    """
    testbed, deployment = _single_link_deployment()
    ap_id = "2"
    ap = deployment.aps[ap_id]
    site = testbed.ap_site(ap_id)
    rng = np.random.default_rng(seed)
    resolver = CollisionResolver()
    successes = 0
    bearing_errors: list[float] = []
    # Collisions between clients the AP can barely hear are uninteresting
    # (the AP would not decode either of them anyway); pick colliding
    # clients within normal coverage range of the probe AP.
    client_ids = [cid for cid in testbed.client_ids()
                  if testbed.client_position(cid).distance_to(ap.position) < 16.0]
    for _trial in range(num_trials):
        first_id, second_id = rng.choice(client_ids, size=2, replace=False)
        first_pos = testbed.client_position(str(first_id))
        second_pos = testbed.client_position(str(second_id))
        try:
            first_channel = deployment.channel_builder.build(
                first_pos, ap.position, client_id=str(first_id), ap_id=ap_id)
            second_channel = deployment.channel_builder.build(
                second_pos, ap.position, client_id=str(second_id), ap_id=ap_id)
        except EstimationError:
            continue
        except Exception:
            # A client the probe AP cannot hear at all: not a collision case.
            continue
        entry_first = ap.overhear(first_channel, rng=rng)
        first_spectrum = ap.compute_spectrum(entry_first)
        ap.clear()
        combined = merge_channels(first_channel, second_channel, ap_id=ap_id)
        entry_combined = ap.overhear(combined, rng=rng)
        combined_spectrum = ap.compute_spectrum(entry_combined)
        ap.clear()
        recovered = resolver.cancel(first_spectrum, combined_spectrum)
        peaks = find_peaks(recovered, min_relative_height=0.2, max_peaks=3)
        if not peaks:
            continue
        local_second = (bearing_deg(site.position, second_pos)
                        - site.orientation_deg) % 360.0
        # Success: the second transmitter's bearing (or its linear-array
        # mirror) appears among the strongest remaining peaks.
        candidate_errors = []
        for peak in peaks:
            candidate_errors.append(angle_difference_deg(peak.angle_deg, local_second))
            candidate_errors.append(angle_difference_deg(
                (360.0 - peak.angle_deg) % 360.0, local_second))
        error = min(candidate_errors)
        bearing_errors.append(error)
        if error <= 10.0:
            successes += 1
    return {
        "success_rate": successes / num_trials,
        "mean_bearing_error_deg": float(np.mean(bearing_errors))
        if bearing_errors else float("nan"),
    }


def appendix_a_height_error(height_m: float = 1.5,
                            distances_m: Sequence[float] = (5.0, 10.0)
                            ) -> dict[float, float]:
    """Appendix A: analytic percentage error from an AP/client height offset.

    ``error = 1 / cos(phi) - 1`` with ``cos(phi) = d / sqrt(d^2 + h^2)``;
    roughly 4% at 5 m and 1% at 10 m for a 1.5 m height difference.
    """
    results = {}
    for distance in distances_m:
        if distance <= 0:
            raise EstimationError("distances must be positive")
        cos_phi = distance / math.hypot(distance, height_m)
        results[distance] = (1.0 / cos_phi) - 1.0
    return results


# ----------------------------------------------------------------------
# System-level experiments (Figure 21, baselines)
# ----------------------------------------------------------------------
def fig21_latency(payload_bytes: int = 1500,
                  bitrates_mbps: Sequence[float] = (54.0, 1.0),
                  measure_python_processing: bool = True,
                  grid_resolution_m: float = 0.25) -> dict[str, dict[str, float]]:
    """E-FIG21: the end-to-end latency breakdown for slow and fast frames."""
    testbed = build_office_testbed()
    deployment = SimulatedDeployment(testbed, _default_scenario())
    service = _service(testbed.bounds, grid_resolution_m)
    client_id = testbed.client_ids()[0]
    spectra = deployment.collect_client_spectra(client_id)
    service.localize(spectra, client_id)
    results: dict[str, dict[str, float]] = {}
    for bitrate in bitrates_mbps:
        breakdown = service.latency_breakdown(
            payload_bytes, bitrate,
            use_measured_processing=measure_python_processing)
        results[f"{bitrate:g} Mbit/s"] = breakdown.as_dict()
    results["paper model"] = LatencyModel().breakdown(payload_bytes, 54.0).as_dict()
    return results


def _survey_axis(start: float, stop: float, step: float) -> np.ndarray:
    """Survey positions in ``[start, stop)`` on their exact point count.

    The float-step ``np.arange(start, stop, step)`` form drifts both count
    and endpoint with rounding (repro-lint RPR001); this keeps arange's
    ``ceil((stop - start) / step)`` count but pins the values with
    ``np.linspace`` so the survey grid is reproducible.
    """
    num = max(int(np.ceil((stop - start) / step)), 0)
    return np.linspace(start, start + step * (num - 1), num)


def baseline_comparison(num_clients: int | None = 15,
                        survey_grid_m: float = 2.0,
                        grid_resolution_m: float = 0.25,
                        seed: int = 99) -> dict[str, ErrorStatistics]:
    """E-BASE: ArrayTrack versus RSSI fingerprinting / model / centroid.

    All systems run against the same clients and the same channel model; the
    fingerprinting baseline gets a dense offline survey (which ArrayTrack
    does not need), and still lands in the metre range.
    """
    testbed = build_office_testbed()
    deployment = SimulatedDeployment(testbed, _default_scenario())
    service = _service(testbed.bounds, grid_resolution_m)
    ap_positions = {site.ap_id: site.position for site in testbed.ap_sites}
    transmit_power_dbm = 15.0
    rng = np.random.default_rng(seed)

    def observe_rssi(position: Point2D) -> dict[str, float]:
        observation = {}
        for ap_id, ap_position in ap_positions.items():
            try:
                channel = deployment.channel_builder.build(position, ap_position,
                                                           client_id="rss", ap_id=ap_id)
            except Exception:
                # The AP cannot hear the client at all: report the noise floor.
                observation[ap_id] = -95.0
                continue
            # Commodity NICs report whole-dB RSSI with a little measurement noise.
            observation[ap_id] = channel.rssi_dbm(transmit_power_dbm) + float(
                rng.normal(scale=1.0))
        return observation

    # Offline survey for the fingerprinting baseline.
    xmin, ymin, xmax, ymax = testbed.bounds
    fingerprints = []
    for x in _survey_axis(xmin + 1.0, xmax - 0.5, survey_grid_m):
        for y in _survey_axis(ymin + 1.0, ymax - 0.5, survey_grid_m):
            point = Point2D(float(x), float(y))
            fingerprints.append(RssFingerprint(point, observe_rssi(point)))
    fingerprint_localizer = FingerprintLocalizer(k=3)
    fingerprint_localizer.train(fingerprints)
    model_localizer = ModelBasedRssLocalizer(ap_positions, transmit_power_dbm)
    centroid_localizer = WeightedCentroidLocalizer(ap_positions)

    clients = testbed.client_ids()
    if num_clients is not None:
        clients = clients[:num_clients]
    errors: dict[str, list[float]] = {
        "arraytrack": [], "rss fingerprinting": [],
        "rss model": [], "weighted centroid": [],
    }
    for client_id in clients:
        ground_truth = testbed.client_position(client_id)
        deployment.clear()
        spectra = deployment.collect_client_spectra(client_id)
        estimate = service.localize(spectra, client_id)
        errors["arraytrack"].append(estimate.error_to(ground_truth) * 100.0)
        rssi = observe_rssi(ground_truth)
        errors["rss fingerprinting"].append(
            fingerprint_localizer.locate(rssi).distance_to(ground_truth) * 100.0)
        errors["rss model"].append(
            model_localizer.locate(rssi, testbed.bounds).distance_to(ground_truth) * 100.0)
        errors["weighted centroid"].append(
            centroid_localizer.locate(rssi).distance_to(ground_truth) * 100.0)
    return {name: summarize_errors(samples) for name, samples in errors.items()}


# ----------------------------------------------------------------------
# Streaming mobility experiment (roaming clients, Section 2.4 end to end)
# ----------------------------------------------------------------------
@dataclass
class RoamingTrackingResult:
    """E-ROAM: streaming fixes for clients roaming through the office.

    Attributes
    ----------
    num_clients:
        Concurrently tracked clients.
    num_fixes:
        Fixes emitted over the whole walk (ideally clients x steps).
    errors_cm:
        Per-fix localization error against the burst's true position.
    median_error_cm / mean_error_cm:
        Summary statistics over ``errors_cm``.
    fixes_per_s:
        Tracked-clients-per-second throughput of the service side of the
        loop (ingest + tick wall-clock; the channel simulation that
        produces the frames is excluded).
    path_length_m:
        Smoothed trajectory length per client, from the service tracker.
    """

    num_clients: int
    num_fixes: int
    errors_cm: list[float]
    median_error_cm: float
    mean_error_cm: float
    fixes_per_s: float
    path_length_m: dict[str, float]


def roaming_tracking(num_clients: int = 3,
                     num_steps: int = 8,
                     frames_per_burst: int = 3,
                     ap_count: int = 3,
                     suppress: bool = True,
                     grid_resolution_m: float = 0.25,
                     snr_db: float = 8.0,
                     movement_max_step_m: float = 0.05,
                     step_interval_s: float = 0.5,
                     seed: int = 2013) -> RoamingTrackingResult:
    """E-ROAM: track roaming clients through the streaming service.

    Each client walks a corridor waypoint track; at every step it transmits
    a burst of ``frames_per_burst`` frames 30 ms apart while inadvertently
    moving a few centimetres between frames (the Section 2.4 premise:
    direct-path peaks stay put while multipath/noise peaks wander).  Every
    frame is streamed into the client's session and ``tick`` drains the
    burst through the batched synthesis, with the multipath-suppression
    stage on or off.  The server-side (batch-path) suppressor stays
    disabled in both variants so the comparison isolates the streaming
    stage.

    The defaults model roaming at the edge of coverage: only three APs
    overhear the clients and the capture SNR is low (8 dB -- Figure 20
    territory, where spurious sidelobes rival the direct peak).  Spurious
    peaks decorrelate between the burst's frames while the direct-path
    peak stays put, which is precisely the regime the Figure 8 algorithm
    targets; at high SNR with dense AP coverage the synthesis is already
    multipath-robust and suppression has nothing to fix.  The same
    ``seed`` produces identical captures for both ``suppress`` settings,
    so paired runs are directly comparable.
    """
    if num_steps < 2:
        raise EstimationError("num_steps must be >= 2")
    if num_clients < 1:
        raise EstimationError("num_clients must be >= 1")
    testbed = build_office_testbed()
    scenario = ScenarioConfig(frames_per_client=frames_per_burst,
                              snr_db=snr_db, seed=seed)
    deployment = SimulatedDeployment(testbed, scenario)
    ap_ids = testbed.ap_ids()[:ap_count]
    config = ArrayTrackConfig(bounds=testbed.bounds).updated({
        "server.localizer.grid_resolution_m": grid_resolution_m,
        "server.enable_multipath_suppression": False,
        "session.emit_every_frames": frames_per_burst,
        "session.suppress_multipath": bool(suppress),
    })
    service = ArrayTrackService(config)
    walk_rng = np.random.default_rng(seed)
    # Corridor walks on staggered lanes, west to east.
    lanes = (9.5, 5.0, 13.0)
    tracks = {
        f"roamer-{index}": random_waypoint_track(
            Point2D(6.0 + 2.0 * index, lanes[index % len(lanes)]),
            Point2D(34.0 - 2.0 * index, lanes[index % len(lanes)]),
            num_samples=num_steps)
        for index in range(num_clients)
    }
    errors_cm: list[float] = []
    num_fixes = 0
    service_time_s = 0.0
    for step in range(num_steps):
        now = step * step_interval_s
        for client_id, track in tracks.items():
            burst = movement_track(track[step], frames_per_burst,
                                   max_step_m=movement_max_step_m,
                                   rng=walk_rng)
            deployment.capture_client(client_id, ap_ids, positions=burst,
                                      start_time_s=now)
        # Spectrum computation happens AP-side (outside the timed region):
        # only the service's share of the loop -- ingest + tick -- counts
        # towards the tracked-clients-per-second figure.
        frames = [(ap_id, spectrum, client_id)
                  for client_id in tracks
                  for ap_id, spectra in deployment.spectra_for_client(
                      client_id, ap_ids).items()
                  for spectrum in spectra]
        start = time.perf_counter()
        for ap_id, spectrum, client_id in frames:
            service.ingest(ap_id, spectrum, client_id=client_id)
        fixes = service.tick(now_s=now)
        service_time_s += time.perf_counter() - start
        deployment.clear()
        for client_id, estimate in fixes.items():
            errors_cm.append(
                estimate.position.distance_to(tracks[client_id][step]) * 100.0)
            num_fixes += 1
    # summarize_errors validates the sample (rejects NaN/inf) before any
    # quantile runs -- the repro-lint RPR007 contract.
    stats = summarize_errors(errors_cm) if errors_cm else None
    return RoamingTrackingResult(
        num_clients=num_clients,
        num_fixes=num_fixes,
        errors_cm=errors_cm,
        median_error_cm=stats.median_cm if stats is not None else float("nan"),
        mean_error_cm=stats.mean_cm if stats is not None else float("nan"),
        fixes_per_s=num_fixes / service_time_s if service_time_s > 0 else 0.0,
        path_length_m={client_id: service.tracker.path_length_m(client_id)
                       for client_id in tracks},
    )


def roaming_tracking_comparison(**kwargs) -> dict[str, RoamingTrackingResult]:
    """E-ROAM: the roaming scenario with and without multipath suppression.

    Both variants run the identical captures (same seed, same walks), so
    the error difference is attributable to the suppression stage alone.
    """
    return {
        "suppressed": roaming_tracking(suppress=True, **kwargs),
        "unsuppressed": roaming_tracking(suppress=False, **kwargs),
    }
