"""Tests for the deterministic fault-injection harness itself.

The harness is the foundation the whole resilience suite stands on, so its
own determinism contract is tested first: same spec, same seed => same
firing schedule, in-process and across the env-var round trip.
"""

import json
import os

import numpy as np
import pytest

from repro.core import AoASpectrum, default_angle_grid
from repro.errors import ConfigurationError
from repro.testing import faults


@pytest.fixture(autouse=True)
def clean_harness():
    """Every test starts and ends fault-free (and env-clean)."""
    faults.deactivate()
    yield
    faults.deactivate()


def _spectrum():
    angles = default_angle_grid(1.0)
    return AoASpectrum(angles, np.ones_like(angles), ap_position=None,
                       client_id="c0", ap_id="ap0")


def _poisoned(spectrum):
    """Whether one ``poison`` hook call fired on ``spectrum``."""
    return faults.poison(spectrum) is not spectrum


class TestFaultSpec:
    def test_validation_rejects_unknown_kind_stage_and_bad_numbers(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            faults.FaultSpec(kind="explode-the-moon")
        # Retired together with the thread backend and the shared-memory
        # transport they drove.
        for retired in ("thread-shard-failure", "shm-allocation-failure"):
            with pytest.raises(ConfigurationError, match="unknown fault kind"):
                faults.FaultSpec(kind=retired)
        for stage in ("mid-attach", "before-attach"):
            with pytest.raises(ConfigurationError,
                               match="unknown fault stage"):
                faults.FaultSpec(kind="slow-worker", stage=stage)
        with pytest.raises(ConfigurationError, match="probability"):
            faults.FaultSpec(kind="slow-worker", probability=1.5)
        with pytest.raises(ConfigurationError, match="times"):
            faults.FaultSpec(kind="slow-worker", times=-1)
        with pytest.raises(ConfigurationError, match="delay_s"):
            faults.FaultSpec(kind="slow-worker", delay_s=-0.1)

    def test_dict_round_trip_and_unknown_key_rejection(self):
        spec = faults.FaultSpec(kind="kill-worker-mid-shard",
                                stage="after-attach", probability=0.5,
                                times=2, seed=7)
        assert faults.FaultSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ConfigurationError, match="typo_key"):
            faults.FaultSpec.from_dict({"kind": "slow-worker",
                                        "typo_key": 1})
        with pytest.raises(ConfigurationError, match="needs a 'kind'"):
            faults.FaultSpec.from_dict({"stage": "after-attach"})


class TestActivation:
    def test_activate_exports_env_and_deactivate_clears_it(self):
        spec = faults.FaultSpec(kind="poison-frame", times=1)
        faults.activate(spec)
        assert faults.ENV_VAR in os.environ
        decoded = json.loads(os.environ[faults.ENV_VAR])
        assert decoded == [spec.to_dict()]
        assert faults.active_specs() == (spec,)
        faults.deactivate()
        assert faults.ENV_VAR not in os.environ
        assert faults.active_specs() == ()

    def test_env_round_trip_resolves_lazily_like_a_spawned_worker(self):
        spec = faults.FaultSpec(kind="poison-frame", times=3,
                                probability=0.5, seed=11)
        faults.activate(spec)
        # Simulate what a freshly spawned worker does: no programmatic
        # activation, just the inherited environment variable.
        faults._ACTIVE = None
        assert faults.active_specs() == (spec,)

    def test_activate_json_rejects_garbage(self):
        with pytest.raises(ConfigurationError, match="invalid fault plan"):
            faults.activate_json("{not json")
        with pytest.raises(ConfigurationError, match="JSON list"):
            faults.activate_json('"just a string"')

    def test_injected_faults_context_manager_restores_clean_state(self):
        spectrum = _spectrum()
        with faults.injected_faults(faults.FaultSpec(kind="poison-frame")):
            assert _poisoned(spectrum)
        assert not _poisoned(spectrum)   # no active plan: a pass-through
        assert faults.ENV_VAR not in os.environ


class TestDeterminism:
    def test_probability_stream_is_seeded_and_reproducible(self):
        def schedule(seed):
            faults.activate(faults.FaultSpec(kind="poison-frame",
                                             probability=0.3, seed=seed))
            spectrum = _spectrum()
            fired = [_poisoned(spectrum) for _ in range(40)]
            faults.deactivate()
            return fired

        assert schedule(5) == schedule(5)
        assert schedule(5) != schedule(6)
        assert any(schedule(5)) and not all(schedule(5))

    def test_times_budget_bounds_firings_in_process(self):
        faults.activate(faults.FaultSpec(kind="poison-frame", times=2))
        spectrum = _spectrum()
        fired = sum(_poisoned(spectrum) for _ in range(10))
        assert fired == 2
        assert faults.fired_counts() == {"poison-frame": 2}

    def test_token_dir_budget_is_claimed_atomically(self, tmp_path):
        spec = faults.FaultSpec(kind="poison-frame", times=2,
                                token_dir=str(tmp_path))
        faults.activate(spec)
        spectrum = _spectrum()
        fired = sum(_poisoned(spectrum) for _ in range(10))
        assert fired == 2
        tokens = sorted(p.name for p in tmp_path.iterdir())
        assert tokens == ["poison-frame.0000.token",
                          "poison-frame.0001.token"]

    def test_token_budget_survives_simulated_process_restart(self, tmp_path):
        spec = faults.FaultSpec(kind="poison-frame", times=1,
                                token_dir=str(tmp_path))
        faults.activate(spec)
        spectrum = _spectrum()
        assert _poisoned(spectrum)
        faults._ACTIVE = None   # "new process" inherits env + token dir
        # Budget spent: must not fire again.
        assert not _poisoned(spectrum)
        assert faults.fired_counts() == {"poison-frame": 0}


class TestHooks:
    def test_stage_restriction_matches_only_that_stage(self):
        faults.activate(faults.FaultSpec(kind="slow-worker",
                                         stage="after-attach",
                                         delay_s=0.0))
        faults.worker_shard("before-return")
        assert faults.fired_counts() == {"slow-worker": 0}
        faults.worker_shard("after-attach")
        assert faults.fired_counts() == {"slow-worker": 1}

    def test_unstaged_spec_fires_at_every_stage(self):
        faults.activate(faults.FaultSpec(kind="slow-worker", delay_s=0.0))
        for stage in faults.STAGES:
            faults.worker_shard(stage)
        assert faults.fired_counts() == {"slow-worker": len(faults.STAGES)}

    @pytest.mark.parametrize("stage", list(faults.STAGES))
    def test_kill_exits_the_worker_only_at_its_stage(self, stage,
                                                     monkeypatch):
        exits = []

        def fake_exit(code):
            exits.append(code)
            raise SystemExit(code)

        monkeypatch.setattr(faults.os, "_exit", fake_exit)
        faults.activate(faults.FaultSpec(kind="kill-worker-mid-shard",
                                         stage=stage, times=1))
        for other in faults.STAGES:
            if other != stage:
                faults.worker_shard(other)
        assert exits == []
        with pytest.raises(SystemExit):
            faults.worker_shard(stage)
        assert exits == [faults.KILL_EXIT_CODE]
        assert faults.fired_counts() == {"kill-worker-mid-shard": 1}

    def test_poison_returns_copy_with_nan_and_leaves_input_alone(self):
        spectrum = _spectrum()
        assert faults.poison(spectrum) is spectrum   # cold: pass-through
        faults.activate(faults.FaultSpec(kind="poison-frame", times=1))
        poisoned = faults.poison(spectrum)
        assert poisoned is not spectrum
        assert np.isnan(poisoned.power[0])
        assert not np.isnan(spectrum.power).any()
        assert faults.poison(spectrum) is spectrum   # budget spent

    def test_hooks_are_noops_without_a_plan(self):
        faults.worker_shard("after-attach")
        assert not _poisoned(_spectrum())
        assert faults.fired_counts() == {}
