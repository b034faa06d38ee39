"""Tests for the ArrayTrackConfig tree: round-tripping, validation, overrides."""

import json
import re
from dataclasses import fields, is_dataclass

import pytest

from repro.ap import APConfig
from repro.api import ArrayTrackConfig, ResilienceConfig, SessionConfig
from repro.constants import DEFAULT_SPECTRUM_FLOOR
from repro.core import LocalizerConfig, SpectrumConfig, SuppressorConfig
from repro.errors import ConfigurationError
from repro.server import ServerConfig


class TestRoundTrip:
    def test_dict_round_trip_is_equal(self):
        config = ArrayTrackConfig(bounds=(0.0, 0.0, 20.0, 10.0))
        assert ArrayTrackConfig.from_dict(config.to_dict()) == config

    def test_dict_round_trip_with_non_default_values(self):
        config = ArrayTrackConfig(
            bounds=(1.0, 2.0, 30.0, 18.0),
            ap=APConfig(spectrum=SpectrumConfig(method="capon")),
            server=ServerConfig(
                localizer=LocalizerConfig(grid_resolution_m=0.5,
                                          spectrum_floor=0.1),
                enable_multipath_suppression=False),
            session=SessionConfig(emit_every_frames=5, max_age_s=0.25),
            suppressor=SuppressorConfig(tolerance_deg=7.0),
        )
        restored = ArrayTrackConfig.from_dict(config.to_dict())
        assert restored == config
        assert restored.suppressor.tolerance_deg == 7.0

    def test_json_round_trip(self):
        config = ArrayTrackConfig(
            bounds=(0.0, 0.0, 8.0, 4.0),
            ap=APConfig(spectrum=SpectrumConfig(method="bartlett")))
        assert ArrayTrackConfig.from_json(config.to_json()) == config

    def test_file_round_trip(self, tmp_path):
        config = ArrayTrackConfig(bounds=(0.0, 0.0, 8.0, 4.0))
        path = str(tmp_path / "service.json")
        config.to_file(path)
        assert ArrayTrackConfig.from_file(path) == config

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ArrayTrackConfig.from_file(str(tmp_path / "absent.json"))

    def test_bounds_list_normalized_to_tuple(self):
        config = ArrayTrackConfig.from_dict({"bounds": [0, 0, 5, 5]})
        assert config.bounds == (0.0, 0.0, 5.0, 5.0)


def _leaves(tree, prefix=""):
    """Dotted paths of every non-mapping value in a ``to_dict()`` tree."""
    paths = []
    for key, value in tree.items():
        if isinstance(value, dict):
            paths.extend(_leaves(value, f"{prefix}{key}."))
        else:
            paths.append(prefix + key)
    return paths


#: Every configuration knob, by dotted path.  Adding or removing one
#: must show up here in review.
CONFIG_LEAVES = [
    "ap.apply_phase_offsets", "ap.buffer_capacity", "ap.num_antennas",
    "ap.snapshots_per_frame", "ap.snr_db",
    "ap.spectrum.angle_resolution_deg", "ap.spectrum.apply_weighting",
    "ap.spectrum.method", "ap.spectrum.smoothing_groups",
    "ap.use_symmetry_antenna",
    "bounds",
    "parallel.backend", "parallel.min_clients_per_worker",
    "parallel.num_workers",
    "resilience.breaker_recovery_s",
    "resilience.breaker_threshold", "resilience.fault_plan",
    "resilience.max_total_pending_frames",
    "resilience.shard_timeout_s", "resilience.shed_policy",
    "server.enable_multipath_suppression",
    "server.localizer.grid_resolution_m",
    "server.localizer.num_seeds",
    "server.localizer.refine_with_hill_climbing",
    "server.localizer.spectrum_floor",
    "session.emit_every_frames", "session.max_age_s",
    "session.max_pending_frames", "session.suppress_multipath",
    "suppressor.max_group_size",
    "suppressor.min_relative_height", "suppressor.residual_fraction",
    "suppressor.tolerance_deg", "suppressor.window_s",
]


class TestLeaves:
    def test_config_leaves_are_pinned(self):
        leaves = sorted(_leaves(ArrayTrackConfig().to_dict()))
        assert leaves == CONFIG_LEAVES
        assert len(leaves) == 34


def _section_leaves():
    """``(dotted path, annotation)`` of every leaf inside a section."""
    def walk(section, prefix):
        for spec in fields(section):
            value = getattr(section, spec.name)
            if is_dataclass(value):
                yield from walk(value, f"{prefix}{spec.name}.")
            else:
                yield prefix + spec.name, spec.type
    config = ArrayTrackConfig()
    for spec in fields(config):
        value = getattr(config, spec.name)
        if is_dataclass(value):
            yield from walk(value, f"{spec.name}.")


BOOL_LEAVES = sorted(path for path, annotation in _section_leaves()
                     if annotation == "bool")
FLOAT_LEAVES = sorted(path for path, annotation in _section_leaves()
                      if annotation in ("float", "float | None"))


def _nested(path, value):
    data = value
    for part in reversed(path.split(".")):
        data = {part: data}
    return data


def _env_name(path):
    return "ARRAYTRACK_" + path.upper().replace(".", "__")


def _names_path(path):
    section = path.rsplit(".", 1)[0]
    return rf"invalid value under config\.{re.escape(section)}: "


class TestLeafTypes:
    def test_typed_leaves_cover_every_bool_and_float_default(self):
        defaults = ArrayTrackConfig().to_dict()
        by_value = {"bool": [], "float": []}
        for path in _leaves(defaults):
            value = defaults
            for part in path.split("."):
                value = value[part]
            if isinstance(value, bool):
                by_value["bool"].append(path)
            elif isinstance(value, float) and path != "bounds":
                by_value["float"].append(path)
        assert sorted(by_value["bool"]) == BOOL_LEAVES
        assert set(by_value["float"]) <= set(FLOAT_LEAVES)
        assert len(BOOL_LEAVES) == 6
        assert len(FLOAT_LEAVES) == 11

    @pytest.mark.parametrize("path", BOOL_LEAVES)
    @pytest.mark.parametrize("value", ["False", "true", 0, 1, None])
    def test_bool_leaf_takes_only_a_bool_from_a_dict(self, path, value):
        with pytest.raises(ConfigurationError, match=_names_path(path)):
            ArrayTrackConfig.from_dict(_nested(path, value))

    @pytest.mark.parametrize("path", BOOL_LEAVES)
    @pytest.mark.parametrize("raw", ["False", "True", "0", "1", "null"])
    def test_bool_leaf_takes_only_a_bool_from_the_environment(self, path,
                                                              raw):
        # ``False`` is not JSON, so it used to arrive as the truthy string.
        with pytest.raises(ConfigurationError, match=_names_path(path)):
            ArrayTrackConfig().with_env_overrides({_env_name(path): raw})

    @pytest.mark.parametrize("path", BOOL_LEAVES)
    def test_bool_leaf_accepts_json_booleans(self, path):
        config = ArrayTrackConfig().with_env_overrides(
            {_env_name(path): "false"})
        value = config.to_dict()
        for part in path.split("."):
            value = value[part]
        assert value is False

    @pytest.mark.parametrize("path", FLOAT_LEAVES)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), True, "0.5"])
    def test_float_leaf_takes_only_a_finite_number_from_a_dict(self, path,
                                                              value):
        with pytest.raises(ConfigurationError, match=_names_path(path)):
            ArrayTrackConfig.from_dict(_nested(path, value))

    @pytest.mark.parametrize("path", FLOAT_LEAVES)
    @pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity", "true",
                                     "fast"])
    def test_float_leaf_takes_only_a_finite_number_from_the_environment(
            self, path, raw):
        with pytest.raises(ConfigurationError, match=_names_path(path)):
            ArrayTrackConfig().with_env_overrides({_env_name(path): raw})

    def test_generic_check_names_the_leaf(self):
        with pytest.raises(ConfigurationError,
                           match=r"config\.server\.localizer: "
                                 r"refine_with_hill_climbing must be a "
                                 r"boolean, got 'False'"):
            ArrayTrackConfig().with_env_overrides(
                {"ARRAYTRACK_SERVER__LOCALIZER__REFINE_WITH_HILL_CLIMBING":
                 "False"})
        with pytest.raises(ConfigurationError,
                           match=r"config\.ap: snr_db must be a finite "
                                 r"number, got nan"):
            ArrayTrackConfig.from_dict({"ap": {"snr_db": float("nan")}})

    @pytest.mark.parametrize("value", [0, -3])
    def test_buffer_capacity_below_one_fails_at_load(self, value):
        with pytest.raises(ConfigurationError,
                           match=r"config\.ap: buffer_capacity must be >= 1"):
            ArrayTrackConfig.from_dict({"ap": {"buffer_capacity": value}})


class TestDefaults:
    def test_service_spectrum_floor_is_documented_default(self):
        config = ArrayTrackConfig()
        assert config.server.localizer.spectrum_floor == DEFAULT_SPECTRUM_FLOOR
        assert DEFAULT_SPECTRUM_FLOOR == pytest.approx(0.05)

    def test_plain_localizer_shares_the_service_floor(self):
        # One default: a directly built localizer and the service tree
        # agree on the floor.
        assert LocalizerConfig().spectrum_floor == DEFAULT_SPECTRUM_FLOOR
        assert ArrayTrackConfig().server == ServerConfig()

    def test_partial_server_section_keeps_facade_floor(self):
        config = ArrayTrackConfig.from_dict({"server": {}})
        assert config.server.localizer.spectrum_floor == DEFAULT_SPECTRUM_FLOOR
        assert config.server == ServerConfig()

    def test_partial_localizer_section_keeps_other_defaults(self):
        config = ArrayTrackConfig.from_dict(
            {"server": {"localizer": {"grid_resolution_m": 0.5}}})
        assert config.server.localizer.grid_resolution_m == 0.5
        assert config.server.localizer.num_seeds == 3
        # A hand-written partial localizer dict must keep the facade's
        # documented floor, exactly like updated() with the same override.
        assert config.server.localizer.spectrum_floor == DEFAULT_SPECTRUM_FLOOR
        assert config == ArrayTrackConfig().updated(
            {"server.localizer.grid_resolution_m": 0.5})

    def test_explicit_floor_wins_over_facade_default(self):
        config = ArrayTrackConfig.from_dict(
            {"server": {"localizer": {"spectrum_floor": 0.02}}})
        assert config.server.localizer.spectrum_floor == 0.02


class TestRejection:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            ArrayTrackConfig.from_dict({"bogus": 1})

    @pytest.mark.parametrize("section", [
        {"grid_res": 0.1},
        {"vectorized_refinement": True},
    ])
    def test_unknown_nested_key_names_path(self, section):
        with pytest.raises(ConfigurationError,
                           match=r"config\.server\.localizer"):
            ArrayTrackConfig.from_dict({"server": {"localizer": section}})

    @pytest.mark.parametrize("section", [
        {"mode": "music"},
        {"vectorized_frontend": True},
    ])
    def test_unknown_ap_spectrum_key(self, section):
        with pytest.raises(ConfigurationError, match=r"config\.ap\.spectrum"):
            ArrayTrackConfig.from_dict({"ap": {"spectrum": section}})

    @pytest.mark.parametrize("section, key, value", [
        ("resilience", "supervise_pool", False),
        ("resilience", "breaker_enabled", False),
        ("server", "measure_processing_time", True),
        # ``BatchLocalizer.heatmaps`` builds the full plane on request.
        ("server.localizer", "keep_heatmap", True),
        # A failed pool round is served serially, not retried in the pool.
        ("resilience", "max_retries", 2),
        ("resilience", "backoff_base_s", 0.05),
        ("resilience", "backoff_max_s", 2.0),
        ("resilience", "backoff_jitter", 0.25),
        ("resilience", "retry_seed", 0),
        # Poison screening at ingest is always on.
        ("resilience", "reject_poison_frames", False),
        # The Section 2.3 frontend is the paper's: forward-only smoothing,
        # arrivals in the horizontal plane, an automatic source count and
        # a fixed 2.3.4 attenuation.
        ("ap.spectrum", "forward_backward", True),
        ("ap.spectrum", "elevation_deg", 10.0),
        ("ap.spectrum", "num_sources", 2),
        ("ap.spectrum", "symmetry_attenuation", 0.1),
        # The Equation 8 stack is always normalized.
        ("server.localizer", "normalize_spectra", False),
        # The gap rule and max_group_size bound a group's span.
        ("suppressor", "max_span_s", 0.2),
    ])
    def test_removed_switches_are_unknown_keys(self, section, key, value):
        data = {key: value}
        for part in reversed(section.split(".")):
            data = {part: data}
        path = rf"config\.{re.escape(section)}\b"
        with pytest.raises(ConfigurationError, match=path):
            ArrayTrackConfig.from_dict(data)
        with pytest.raises(ConfigurationError, match=path):
            ArrayTrackConfig.from_json(json.dumps(data))
        with pytest.raises(ConfigurationError,
                           match=rf"unknown configuration path "
                                 rf"'{re.escape(section)}\.{key}'"):
            ArrayTrackConfig().with_env_overrides(
                {f"ARRAYTRACK_{section.upper().replace('.', '__')}__"
                 f"{key.upper()}": json.dumps(value)})

    @pytest.mark.parametrize("leaf", [
        spec.name for spec in fields(SuppressorConfig)])
    def test_server_suppressor_section_is_unknown(self, leaf):
        # The top-level ``suppressor`` section parameterizes both switches.
        value = getattr(SuppressorConfig(), leaf)
        data = {"server": {"suppressor": {leaf: value}}}
        with pytest.raises(ConfigurationError,
                           match=r"unknown key\(s\) \['suppressor'\] "
                                 r"under config\.server"):
            ArrayTrackConfig.from_dict(data)
        with pytest.raises(ConfigurationError, match=r"config\.server\b"):
            ArrayTrackConfig.from_json(json.dumps(data))
        path = rf"unknown configuration path 'server\.suppressor\.{leaf}'"
        with pytest.raises(ConfigurationError, match=path):
            ArrayTrackConfig().updated({f"server.suppressor.{leaf}": value})
        with pytest.raises(ConfigurationError, match=path):
            ArrayTrackConfig().with_env_overrides(
                {f"ARRAYTRACK_SERVER__SUPPRESSOR__{leaf.upper()}":
                 json.dumps(value)})

    @pytest.mark.parametrize("data, message", [
        ({"server": {"localizer": {"grid_resolution_m": -1.0}}},
         r"config\.server\.localizer: grid_resolution_m must be positive"),
        ({"ap": {"spectrum": {"angle_resolution_deg": 0.0}}},
         r"config\.ap\.spectrum: angle resolution must be positive"),
        # NaN raised a bare ValueError from round(); 1e-320 overflowed
        # 180 / resolution and escaped the loader as an OverflowError.
        ({"ap": {"spectrum": {"angle_resolution_deg": float("nan")}}},
         r"config\.ap\.spectrum: angle resolution must be positive"),
        ({"ap": {"spectrum": {"angle_resolution_deg": 1e-320}}},
         r"config\.ap\.spectrum: angle resolution must divide 180"),
    ])
    def test_invalid_value_wrapped_with_path(self, data, message):
        with pytest.raises(ConfigurationError, match=message):
            ArrayTrackConfig.from_dict(data)

    @pytest.mark.parametrize("antennas, groups", [(2, 2), (4, 4), (8, 9)])
    def test_smoothing_too_deep_for_the_row_fails_at_load(self, antennas,
                                                          groups):
        # Used to load; only building an AP from it raised.
        size = antennas - groups + 1
        with pytest.raises(ConfigurationError,
                           match=rf"config\.ap: spectrum\.smoothing_groups="
                                 rf"{groups} over num_antennas={antennas} "
                                 rf"leaves only {size} virtual antennas"):
            ArrayTrackConfig().updated({"ap.num_antennas": antennas,
                                        "ap.spectrum.smoothing_groups": groups})

    @pytest.mark.parametrize("path, value, message", [
        ("server.localizer.grid_resolution_m", float("nan"),
         "grid_resolution_m must be positive and finite"),
        ("server.localizer.grid_resolution_m", float("inf"),
         "grid_resolution_m must be positive and finite"),
        ("server.localizer.num_seeds", 2.0, "num_seeds must be an int"),
        ("server.localizer.num_seeds", 2.5, "num_seeds must be an int"),
        ("server.localizer.num_seeds", True, "num_seeds must be an int"),
    ])
    def test_invalid_localizer_override_names_path(self, path, value,
                                                   message):
        # These used to pass and fail later with a raw ValueError or
        # TypeError from the first localization.
        with pytest.raises(ConfigurationError,
                           match=rf"config\.server\.localizer: {message}"):
            ArrayTrackConfig().updated({path: value})

    def test_tracker_section_is_unknown(self):
        # The tracker has one behaviour: module constants, no section.
        assert "tracker" not in ArrayTrackConfig().to_dict()
        with pytest.raises(ConfigurationError,
                           match=r"unknown key\(s\) \['tracker'\] "
                                 r"under config"):
            ArrayTrackConfig.from_dict({"tracker": {}})
        with pytest.raises(ConfigurationError,
                           match="unknown configuration path "
                                 "'tracker.max_history'"):
            ArrayTrackConfig().updated({"tracker.max_history": 4})

    @pytest.mark.parametrize("leaf, value", [
        ("smoothing_factor", 0.6),
        ("max_history", 100),
        ("on_out_of_order", "insert"),
    ])
    @pytest.mark.parametrize("entry", ["from_dict", "updated"])
    def test_retired_tracker_leaf_fails_at_load(self, entry, leaf, value):
        # A config written for the old tracker section must fail loudly,
        # not run with the module constants it meant to override.
        with pytest.raises(ConfigurationError, match="tracker"):
            if entry == "from_dict":
                ArrayTrackConfig.from_dict({"tracker": {leaf: value}})
            else:
                ArrayTrackConfig().updated({f"tracker.{leaf}": value})

    @pytest.mark.parametrize("key, value", [
        ("min_relative_height", 1.5),
        # NaN windows made every frame its own group (suppression silently
        # off) and a NaN tolerance matched no peak.
        ("window_s", float("nan")),
        ("window_s", float("inf")),
        ("tolerance_deg", float("nan")),
        ("max_group_size", 2.5),
        ("max_group_size", True),
    ])
    def test_invalid_suppressor_value_fails_at_config_load(self, key, value):
        # A bad value must fail here, not as an EstimationError from
        # find_peaks (or as silently skipped suppression) once a stream is
        # already running.
        with pytest.raises(ConfigurationError,
                           match=rf"config\.suppressor: {key}"):
            ArrayTrackConfig.from_dict({"suppressor": {key: value}})

    @pytest.mark.parametrize("key, value", [
        ("suppress_multipath", "yes"),
        ("max_age_s", float("nan")),
        ("max_age_s", float("inf")),
    ])
    def test_invalid_session_value(self, key, value):
        with pytest.raises(ConfigurationError,
                           match=rf"config\.session: {key}"):
            ArrayTrackConfig.from_dict({"session": {key: value}})

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigurationError, match="must be a mapping"):
            ArrayTrackConfig.from_dict({"server": 3})

    def test_degenerate_bounds(self):
        with pytest.raises(ConfigurationError, match="bounds"):
            ArrayTrackConfig(bounds=(5.0, 0.0, 1.0, 10.0))
        with pytest.raises(ConfigurationError, match="bounds"):
            ArrayTrackConfig(bounds=(0.0, 0.0, 1.0))

    @pytest.mark.parametrize("value", ["music", "bartlett", ""])
    def test_estimator_key_is_unknown(self, value):
        # ``ap.spectrum.method`` is the one estimator switch.
        with pytest.raises(ConfigurationError,
                           match=r"unknown key\(s\) \['estimator'\] "
                                 r"under config"):
            ArrayTrackConfig.from_dict({"estimator": value})
        with pytest.raises(ConfigurationError, match="'estimator'"):
            ArrayTrackConfig.from_json(json.dumps({"estimator": value}))
        with pytest.raises(ConfigurationError,
                           match="unknown configuration path 'estimator'"):
            ArrayTrackConfig().updated({"estimator": value})
        # Not a section name: ignored like ARRAYTRACK_HOME.
        config = ArrayTrackConfig()
        assert config.with_env_overrides(
            {"ARRAYTRACK_ESTIMATOR": value}) is config

    def test_non_mapping_config(self):
        with pytest.raises(ConfigurationError):
            ArrayTrackConfig.from_dict([1, 2, 3])


class TestOverrides:
    def test_dotted_path_overrides(self):
        config = ArrayTrackConfig(bounds=(0.0, 0.0, 5.0, 5.0))
        updated = config.updated({
            "server.localizer.grid_resolution_m": 0.4,
            "ap.spectrum.method": "capon",
            "session.emit_every_frames": 1,
        })
        assert updated.server.localizer.grid_resolution_m == 0.4
        assert updated.ap.spectrum.method == "capon"
        assert updated.session.emit_every_frames == 1
        # The original is untouched.
        assert config.ap.spectrum.method == "music"

    def test_unknown_dotted_path_rejected(self):
        config = ArrayTrackConfig()
        with pytest.raises(ConfigurationError, match="unknown configuration path"):
            config.updated({"server.localizer.grid_res": 0.4})
        with pytest.raises(ConfigurationError, match="unknown configuration path"):
            config.updated({"nonsense.key": 1})

    def test_env_overrides(self):
        config = ArrayTrackConfig(bounds=(0.0, 0.0, 5.0, 5.0))
        updated = config.with_env_overrides({
            "ARRAYTRACK_AP__SPECTRUM__METHOD": "bartlett",
            "ARRAYTRACK_SERVER__LOCALIZER__SPECTRUM_FLOOR": "0.1",
            "ARRAYTRACK_SESSION__MAX_AGE_S": "0.5",
            "UNRELATED_VARIABLE": "ignored",
        })
        assert updated.ap.spectrum.method == "bartlett"
        assert updated.server.localizer.spectrum_floor == 0.1
        assert updated.session.max_age_s == 0.5

    def test_env_override_reaches_session_and_suppressor_sections(self):
        config = ArrayTrackConfig(bounds=(0.0, 0.0, 5.0, 5.0))
        updated = config.with_env_overrides({
            "ARRAYTRACK_SESSION__SUPPRESS_MULTIPATH": "true",
            "ARRAYTRACK_SUPPRESSOR__TOLERANCE_DEG": "7.5",
        })
        assert updated.session.suppress_multipath is True
        assert updated.suppressor.tolerance_deg == 7.5

    def test_env_overrides_noop_without_matches(self):
        config = ArrayTrackConfig(bounds=(0.0, 0.0, 5.0, 5.0))
        assert config.with_env_overrides({"HOME": "/root"}) is config

    def test_env_overrides_ignore_unrelated_arraytrack_variables(self):
        # Deployment variables sharing the prefix but not naming a config
        # section must not crash startup.
        config = ArrayTrackConfig(bounds=(0.0, 0.0, 5.0, 5.0))
        updated = config.with_env_overrides({
            "ARRAYTRACK_HOME": "/opt/arraytrack",
            "ARRAYTRACK_LOG_LEVEL": "debug",
            "ARRAYTRACK_ESTIMATOR": "bartlett",
            "ARRAYTRACK_AP__SPECTRUM__METHOD": "capon",
        })
        assert updated.ap.spectrum.method == "capon"

    def test_env_override_typo_inside_section_still_rejected(self):
        config = ArrayTrackConfig()
        with pytest.raises(ConfigurationError, match="unknown configuration path"):
            config.with_env_overrides(
                {"ARRAYTRACK_SERVER__LOCALISER__SPECTRUM_FLOOR": "0.1"})

    def test_env_override_bad_value_rejected(self):
        config = ArrayTrackConfig()
        with pytest.raises(ConfigurationError):
            config.with_env_overrides(
                {"ARRAYTRACK_SERVER__LOCALIZER__NUM_SEEDS": "0"})


class TestSessionConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"emit_every_frames": -1},
        {"max_age_s": -0.5},
        {"max_age_s": float("nan")},
        {"max_pending_frames": 0},
        {"suppress_multipath": 1},
        {"emit_every_frames": True},
        {"max_pending_frames": 2.5},
        {"emit_every_frames": "3"},
    ])
    def test_invalid_session_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            SessionConfig(**kwargs)


class TestResilienceSection:
    def test_defaults(self):
        config = ArrayTrackConfig()
        assert config.resilience == ResilienceConfig()
        assert config.resilience.max_total_pending_frames is None
        assert config.resilience.shed_policy == "shed-oldest"

    def test_round_trips_with_non_default_values(self):
        config = ArrayTrackConfig(
            bounds=(0.0, 0.0, 5.0, 5.0),
            resilience=ResilienceConfig(
                shard_timeout_s=3.0, breaker_threshold=1,
                breaker_recovery_s=0.5, max_total_pending_frames=128,
                shed_policy="reject",
                fault_plan='[{"kind": "poison-frame"}]'))
        restored = ArrayTrackConfig.from_dict(config.to_dict())
        assert restored == config
        assert restored.resilience.shard_timeout_s == 3.0
        assert ArrayTrackConfig.from_json(config.to_json()) == config

    @pytest.mark.parametrize("kwargs", [
        {"shard_timeout_s": 0.0},
        {"shard_timeout_s": -1.0},
        {"shard_timeout_s": float("inf")},
        {"shard_timeout_s": float("nan")},
        {"breaker_threshold": 0},
        {"breaker_threshold": True},
        {"breaker_recovery_s": -1.0},
        {"breaker_recovery_s": float("nan")},
        {"breaker_recovery_s": float("inf")},
        {"max_total_pending_frames": 0},
        {"shed_policy": "drop-newest"},
        {"fault_plan": 42},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(**kwargs)

    @pytest.mark.parametrize("key, value", [
        ("shed_policy", "panic"),
        # inf overflowed the pool's deadline arithmetic; NaN timed every
        # shard out at once or never half-opened the breaker.
        ("shard_timeout_s", float("inf")),
        ("shard_timeout_s", float("nan")),
        ("breaker_threshold", 0),
        ("breaker_recovery_s", float("inf")),
        ("breaker_recovery_s", float("nan")),
    ])
    def test_invalid_value_names_path_from_dict(self, key, value):
        with pytest.raises(ConfigurationError,
                           match=rf"config\.resilience: {key}"):
            ArrayTrackConfig.from_dict({"resilience": {key: value}})

    def test_env_override_reaches_resilience_section(self):
        config = ArrayTrackConfig(bounds=(0.0, 0.0, 5.0, 5.0))
        updated = config.with_env_overrides({
            "ARRAYTRACK_RESILIENCE__BREAKER_THRESHOLD": "4",
            "ARRAYTRACK_RESILIENCE__SHARD_TIMEOUT_S": "2.5",
            "ARRAYTRACK_RESILIENCE__SHED_POLICY": "reject",
        })
        assert updated.resilience.breaker_threshold == 4
        assert updated.resilience.shard_timeout_s == 2.5
        assert updated.resilience.shed_policy == "reject"

    def test_dotted_override_reaches_resilience_section(self):
        config = ArrayTrackConfig(bounds=(0.0, 0.0, 5.0, 5.0)).updated(
            {"resilience.max_total_pending_frames": 64})
        assert config.resilience.max_total_pending_frames == 64


class TestSuppressorAlias:
    def test_alias_is_the_suppressor_dataclass(self):
        from repro.core.suppression import MultipathSuppressor

        assert SuppressorConfig is MultipathSuppressor

    def test_spectrum_config_round_trips_inside_ap_section(self):
        config = ArrayTrackConfig(bounds=(0.0, 0.0, 5.0, 5.0))
        data = config.to_dict()
        assert data["ap"]["spectrum"]["method"] == "music"
        restored = ArrayTrackConfig.from_dict(data)
        assert restored.ap.spectrum == SpectrumConfig()
