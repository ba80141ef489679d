"""The deterministic fault-injection harness (`repro.faults`).

Determinism is the whole point: every test here asserts that injection
decisions are pure functions of (seed, site, key, attempt), because the
robustness suite (test_explore_robust.py) relies on replaying the exact
same faults across processes and runs.
"""

from __future__ import annotations

import logging
import signal

import pytest

from repro import faults
from repro.exceptions import ParameterError
from repro.faults import FaultProfile, InjectedFault


class TestFaultProfile:
    def test_defaults_inject_nothing(self):
        profile = FaultProfile()
        for site in faults.SITES:
            assert not faults.should_fire(site, "any-key", profile=profile)

    def test_rates_must_be_probabilities(self):
        with pytest.raises(ParameterError, match="must be in \\[0, 1\\]"):
            FaultProfile(transient=1.5)
        with pytest.raises(ParameterError, match="must be in \\[0, 1\\]"):
            FaultProfile(crash=-0.1)

    def test_seed_must_be_a_non_negative_int(self):
        with pytest.raises(ParameterError, match="seed"):
            FaultProfile(seed=-1)
        with pytest.raises(ParameterError, match="seed"):
            FaultProfile(seed=1.5)  # type: ignore[arg-type]

    def test_fail_attempts_rejects_zero(self):
        with pytest.raises(ParameterError, match="fail_attempts"):
            FaultProfile(fail_attempts=0)
        with pytest.raises(ParameterError, match="fail_attempts"):
            FaultProfile(fail_attempts=-2)

    def test_parse_preset_names(self):
        assert FaultProfile.parse("chaos") is faults.PROFILES["chaos"]
        assert FaultProfile.parse("crashy").crash == 1.0
        assert FaultProfile.parse("permafail").fail_attempts == -1

    def test_parse_key_value_spec(self):
        profile = FaultProfile.parse("transient=0.5, seed=9, fail_attempts=-1")
        assert profile == FaultProfile(seed=9, transient=0.5, fail_attempts=-1)

    def test_parse_rejects_unknown_keys_and_bad_values(self):
        with pytest.raises(ParameterError, match="unknown fault profile field"):
            FaultProfile.parse("typo=1.0")
        with pytest.raises(ParameterError, match="bad value"):
            FaultProfile.parse("transient=lots")
        with pytest.raises(ParameterError, match="key=value or a preset"):
            FaultProfile.parse("chaos-but-typoed")

    def test_to_spec_round_trips_through_parse(self):
        for profile in (
            FaultProfile(seed=3, crash=0.25, hang_seconds=1.5),
            FaultProfile(),
            *faults.PROFILES.values(),
        ):
            assert FaultProfile.parse(profile.to_spec()) == profile

    def test_with_revalidates(self):
        profile = FaultProfile(seed=1)
        assert profile.with_(transient=1.0).transient == 1.0
        with pytest.raises(ParameterError):
            profile.with_(transient=2.0)


class TestShouldFire:
    def test_deterministic_across_calls(self):
        profile = FaultProfile(seed=7, transient=0.5)
        keys = [faults.fault_key(f"point-{i}") for i in range(64)]
        first = [faults.should_fire(faults.POINT_TRANSIENT, k, profile=profile) for k in keys]
        second = [faults.should_fire(faults.POINT_TRANSIENT, k, profile=profile) for k in keys]
        assert first == second
        # A 0.5 rate over 64 keys selects some and spares some.
        assert any(first) and not all(first)

    def test_seed_changes_the_selection(self):
        keys = [faults.fault_key(f"point-{i}") for i in range(64)]
        a = [
            faults.should_fire(faults.POINT_TRANSIENT, k, profile=FaultProfile(seed=1, transient=0.5))
            for k in keys
        ]
        b = [
            faults.should_fire(faults.POINT_TRANSIENT, k, profile=FaultProfile(seed=2, transient=0.5))
            for k in keys
        ]
        assert a != b

    def test_sites_are_independent(self):
        profile = FaultProfile(seed=7, transient=0.5, crash=0.5)
        keys = [faults.fault_key(f"point-{i}") for i in range(64)]
        transient = [faults.should_fire(faults.POINT_TRANSIENT, k, profile=profile) for k in keys]
        crash = [faults.should_fire(faults.WORKER_CRASH, k, profile=profile) for k in keys]
        assert transient != crash

    def test_rate_one_selects_everything(self):
        profile = FaultProfile(seed=0, transient=1.0)
        for i in range(16):
            assert faults.should_fire(faults.POINT_TRANSIENT, faults.fault_key(str(i)), profile=profile)

    def test_fail_attempts_gates_retries(self):
        once = FaultProfile(seed=0, transient=1.0, fail_attempts=1)
        assert faults.should_fire(faults.POINT_TRANSIENT, "k", 0, profile=once)
        assert not faults.should_fire(faults.POINT_TRANSIENT, "k", 1, profile=once)
        forever = once.with_(fail_attempts=-1)
        assert faults.should_fire(faults.POINT_TRANSIENT, "k", 99, profile=forever)

    def test_unknown_site_raises(self):
        with pytest.raises(ParameterError, match="unknown fault site"):
            faults.should_fire("disk.full", "k", profile=FaultProfile())

    def test_no_active_profile_means_no_faults(self):
        with faults.no_faults():
            assert not faults.should_fire(
                faults.POINT_TRANSIENT, "k"
            )


class TestActivation:
    def test_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "permafail")
        with faults.fault_profile(FaultProfile(seed=5)):
            assert faults.active_profile() == FaultProfile(seed=5)
        with faults.no_faults():
            assert faults.active_profile() is None
        assert faults.active_profile() is faults.PROFILES["permafail"]

    def test_environment_spec_parses(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "transient=1.0,seed=3")
        assert faults.active_profile() == FaultProfile(seed=3, transient=1.0)

    def test_blank_environment_is_inactive(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "   ")
        assert faults.active_profile() is None

    def test_context_manager_restores_previous(self):
        outer = FaultProfile(seed=1)
        with faults.fault_profile(outer):
            with faults.fault_profile(FaultProfile(seed=2)):
                assert faults.active_profile() == FaultProfile(seed=2)
            assert faults.active_profile() == outer

    def test_set_profile_rejects_non_profiles(self):
        with pytest.raises(ParameterError, match="FaultProfile or None"):
            faults.set_profile("chaos")  # type: ignore[arg-type]


class TestMaybeInject:
    def test_transient_raises_injected_fault(self):
        with faults.fault_profile(FaultProfile(seed=0, transient=1.0)):
            with pytest.raises(InjectedFault, match="point.transient"):
                faults.maybe_inject(faults.POINT_TRANSIENT, faults.fault_key("x"))

    def test_injected_fault_is_not_a_qla_error(self):
        from repro.exceptions import QLAError

        assert not issubclass(InjectedFault, QLAError)

    def test_noop_when_inactive(self):
        with faults.no_faults():
            faults.maybe_inject(faults.POINT_TRANSIENT, "k")

    def test_fired_fault_is_logged(self, caplog):
        key = faults.fault_key("x")
        with faults.fault_profile(FaultProfile(seed=0, transient=1.0)):
            with caplog.at_level(logging.WARNING, logger="repro"):
                with pytest.raises(InjectedFault):
                    faults.maybe_inject(faults.POINT_TRANSIENT, key, attempt=0)
        messages = [r.getMessage() for r in caplog.records if r.name == "repro"]
        assert messages == [f"injecting point.transient fault (key={key[:12]}..., attempt=0)"]
        assert caplog.records[0].levelno == logging.WARNING

    @pytest.mark.parametrize("site", [faults.WORKER_CRASH, faults.EXPLORE_CLAIM])
    def test_kill_sites_log_before_the_sigkill(self, caplog, monkeypatch, site):
        kills = []
        monkeypatch.setattr(
            faults.os, "kill", lambda pid, sig: kills.append((sig, len(caplog.records)))
        )
        profile = FaultProfile(seed=0, crash=1.0, claim=1.0)
        with faults.fault_profile(profile), caplog.at_level(logging.WARNING, logger="repro"):
            # The stand-in kill returns, so the call falls through to a raise.
            with pytest.raises(InjectedFault):
                faults.maybe_inject(site, faults.fault_key("x"))
        assert kills == [(signal.SIGKILL, 1)]
        assert caplog.records[0].getMessage().startswith(f"injecting {site} fault")

    def test_nothing_is_logged_when_no_fault_fires(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro"):
            with faults.no_faults():
                faults.maybe_inject(faults.POINT_TRANSIENT, "k")
            with faults.fault_profile(FaultProfile(seed=0, transient=1.0, fail_attempts=1)):
                faults.maybe_inject(faults.POINT_TRANSIENT, "k", attempt=1)
            with faults.fault_profile(FaultProfile(seed=0)):
                faults.maybe_inject(faults.WORKER_CRASH, "k")
        assert [r for r in caplog.records if r.name == "repro"] == []

    def test_hang_sleeps_then_proceeds(self):
        import time

        profile = FaultProfile(seed=0, hang=1.0, hang_seconds=0.05)
        with faults.fault_profile(profile):
            start = time.monotonic()
            faults.maybe_inject(faults.WORKER_HANG, faults.fault_key("x"))
            assert time.monotonic() - start >= 0.05


class TestKernelTierGate:
    def test_kernel_fault_degrades_auto_to_numpy(self):
        from repro.stabilizer import fused

        with faults.fault_profile(FaultProfile(seed=0, kernel=1.0)):
            assert fused.kernel_tier() == "numpy"

    def test_kernel_fault_fails_explicit_native_requests(self, monkeypatch):
        from repro.exceptions import SimulationError
        from repro.stabilizer import fused

        monkeypatch.setenv("REPRO_FUSED_KERNEL", "cext")
        with faults.fault_profile(FaultProfile(seed=0, kernel=1.0)):
            with pytest.raises(SimulationError, match="injected native-kernel"):
                fused.kernel_tier()

    def test_tier_cache_not_polluted_by_faulted_calls(self):
        from repro.stabilizer import fused

        clean = fused.kernel_tier()
        with faults.fault_profile(FaultProfile(seed=0, kernel=1.0)):
            assert fused.kernel_tier() == "numpy"
        assert fused.kernel_tier() == clean


class TestCacheCorruptGate:
    def test_corrupt_store_is_evicted_and_healed_on_read(self, tmp_path):
        from repro.api.specs import ExperimentSpec, NoiseSpec, SamplingSpec
        from repro.api.runner import run
        from repro.explore.cache import ResultCache, cache_key

        spec = ExperimentSpec(
            experiment="syndrome_rate",
            noise=NoiseSpec(kind="technology"),
            sampling=SamplingSpec(shots=0, seed=1),
        )
        with faults.no_faults():
            result = run(spec)
        cache = ResultCache(tmp_path)
        key = cache_key(spec, engine="none")
        with faults.fault_profile(FaultProfile(seed=0, corrupt=1.0)):
            cache.put(key, result)
        with faults.no_faults():
            assert cache.get(key) is None
            assert cache.corrupt_evictions == 1
            assert cache.stats["corrupt_evictions"] == 1
            # The eviction healed the slot: a clean re-store hits again.
            cache.put(key, result)
            assert cache.get(key) is not None
