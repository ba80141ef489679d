"""Tests for the stochastic interconnect layer (repro.desim.links).

Covers the link-parameter validation and feasibility contracts, the
demand-driven pipeline realization, bit-identical noisy traces for
identical seeds, the deterministic configuration's exact equivalence with
the scheduled-delivery path, the spec-layer plumbing
(:class:`~repro.api.specs.LinkSpec` / ``MachineSpec.link_*``), the
cross-validation of :func:`~repro.desim.links.simulate_connection` against
the analytic :class:`~repro.teleport.repeater.ConnectionTimeModel`, and the
:func:`~repro.explore.reproduce_fig9_noisy` driver's monotone-makespan
claim.
"""

from __future__ import annotations

import json

import pytest

from repro import faults
from repro.api import (
    ExecutionSpec,
    ExperimentSpec,
    MachineSpec,
    NoiseSpec,
    SamplingSpec,
    run,
)
from repro.api.specs import LINK_PROTOCOLS, LinkSpec
from repro.desim import (
    LinkModel,
    LinkParameters,
    QLAMachineModel,
    adder_workload_circuit,
    simulate_circuit,
    simulate_connection,
)
from repro.exceptions import DesimError, ParameterError
from repro.explore import ResultCache, reproduce_fig9_noisy
from repro.teleport.purification import (
    bennett_purification_map,
    pumping_fixpoint_fidelity,
    purification_rounds_needed,
)
from repro.teleport.repeater import ConnectionTimeModel

# Pinned determinism fingerprints.  DETERMINISTIC_DIGEST is the digest of
# the scheduled-delivery path (same constant test_desim.py pins); the
# stochastic-link digest pins the full noisy pipeline -- generation
# attempts, pumping draws, stall attribution -- behind one constant.
DETERMINISTIC_DIGEST = "e857f33e1d5a051c85499ffe3fa5f5cb4e484ebb0ec2e9d85c6a20d85cdbed41"
NOISY_DIGEST = "9df71be3ba35f42445f811b3358859780f83d13363000a6e12df22a43f69d310"

NOISY_LINK = LinkParameters(
    attempt_success_probability=0.9,
    base_fidelity=0.95,
    target_fidelity=0.96,
)


# The link paths NOISY_DIGEST alone leaves unpinned: low success probability
# with Deutsch pumping, repeater segments with channel loss, memory decay and
# two pumping rounds, each also under a fault profile that forces extra
# attempts.  Rows: (id, link, clean, under "link=0.3,seed=4"), each outcome
# being (digest, attempts, rounds, generation stall, purification stall) of
# the 4-bit adder on a 5x5 bandwidth-2 array at seed 11.
LINK_MATRIX = [
    (
        "noisy",
        NOISY_LINK,
        (NOISY_DIGEST, 274, 116, 10368, 293008),
        ("1c257a9b26415f12a5019e8bf567606e5f60aebfc85803db982a25e3701d5be3", 326, 116, 36288, 304240),
    ),
    (
        "inversion-deutsch",
        LinkParameters(
            attempt_success_probability=0.2,
            base_fidelity=0.94,
            target_fidelity=0.96,
            purification_protocol="deutsch",
        ),
        ("060b6cfd4880c459a94c25c91c4f1c97a1365283d4b31a5ff133101f257e0355", 1252, 116, 238464, 593152),
        ("310f617166d02ffa86ca472eedf0eaacd054a2bf24b07c96c91125fd934e4572", 1304, 116, 264384, 592288),
    ),
    (
        "repeaters-channel-loss",
        LinkParameters(
            attempt_success_probability=0.5,
            base_fidelity=0.97,
            target_fidelity=0.96,
            repeater_segments=3,
            channel_error_per_hop=0.02,
        ),
        ("b9fe667f799090727e671eb1e81d4776c7ec4f7b6d906757c73e21ab11ab5088", 707, 0, 73440, 377856),
        ("166aae0db886ad6c816eae64565011d39c8ee1382aa17512cbe3ec960d7d53e3", 759, 0, 95040, 380448),
    ),
    (
        "memory-decay",
        LinkParameters(
            base_fidelity=0.95,
            target_fidelity=0.96,
            memory_decay_per_cycle=1e-5,
            repeater_segments=2,
        ),
        ("7866a893b9aa1937665ddfabe1238fe8978e5238d16f126112d21dcc6e1ff51b", 508, 232, 9504, 452640),
        ("e281e540f680f74ebe9f1e8eb483117d7c08399c2f487d523689e9b4ca1b049b", 560, 232, 28512, 464736),
    ),
    (
        "two-rounds",
        LinkParameters(base_fidelity=0.94, target_fidelity=0.96),
        ("a6022cd273ba6d0f9f67ee968a4792ff6a070ba003a2812be0de74a607ba69f8", 408, 232, 10368, 529288),
        ("b9ae085b6c2f2515f7ebe9d0c1f44f1b41a619df8cfd0fd03e84957e2a6eff6e", 460, 232, 29376, 541384),
    ),
]


def _machine(link: LinkParameters | None = None) -> QLAMachineModel:
    return QLAMachineModel.build(rows=5, columns=5, bandwidth=2, level=1, link=link)


# ----------------------------------------------------------------------
# Parameters: validation and analytic agreement
# ----------------------------------------------------------------------


class TestLinkParameters:
    def test_default_is_deterministic(self):
        params = LinkParameters()
        assert params.is_deterministic
        assert params.pumping_rounds() == 0
        assert params.pumped_fidelity() == 1.0

    def test_noisy_configuration_is_not_deterministic(self):
        assert not NOISY_LINK.is_deterministic

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"attempt_success_probability": 0.0},
            {"attempt_success_probability": 1.5},
            {"base_fidelity": 0.1},
            {"target_fidelity": 1.2},
            {"purification_protocol": "oxford"},
            {"repeater_segments": 0},
            {"channel_error_per_hop": 1.0},
            {"memory_decay_per_cycle": -0.1},
            {"attempt_cycles": -1},
        ],
    )
    def test_invalid_parameters_raise(self, kwargs):
        with pytest.raises(DesimError):
            LinkParameters(**kwargs)

    def test_unreachable_target_cites_the_fixpoint(self):
        fixpoint = pumping_fixpoint_fidelity(0.95)
        with pytest.raises(DesimError, match="converges"):
            LinkParameters(base_fidelity=0.95, target_fidelity=0.99)
        assert fixpoint < 0.99

    @pytest.mark.parametrize(
        "base, protocol, expected",
        [(0.99, "bennett", 0), (0.95, "bennett", 1), (0.94, "bennett", 2),
         (0.99, "deutsch", 0), (0.94, "deutsch", 1)],
    )
    def test_pumping_rounds_match_the_analytic_layer(self, base, protocol, expected):
        params = LinkParameters(
            base_fidelity=base, target_fidelity=0.96, purification_protocol=protocol
        )
        assert params.pumping_rounds() == expected
        assert params.pumping_rounds() == purification_rounds_needed(
            params.elementary_fidelity,
            0.96,
            elementary_fidelity=params.elementary_fidelity,
            protocol=protocol,
        )
        assert params.pumped_fidelity() >= 0.96 or expected == 0

    def test_channel_error_degrades_the_elementary_fidelity(self):
        clean = LinkParameters(base_fidelity=0.97, target_fidelity=0.95)
        lossy = LinkParameters(
            base_fidelity=0.97, target_fidelity=0.95, channel_error_per_hop=0.02
        )
        assert clean.elementary_fidelity == pytest.approx(0.97)
        assert lossy.elementary_fidelity < clean.elementary_fidelity


# ----------------------------------------------------------------------
# Pipeline realization: anchor semantics and stall attribution
# ----------------------------------------------------------------------


class TestLinkModel:
    def _model(self, params: LinkParameters, seed: int = 7) -> LinkModel:
        import numpy as np

        return LinkModel(
            params,
            np.random.default_rng(seed),
            window_cycles=1000,
            transfer_cycles=1000,
            gate_cycles=10,
        )

    # Demand 3, requested for window 5, served in window 6 over two hops.
    TRANSFER = (3, 6, 5, 2)

    def test_anchor_raises_the_deadline(self):
        model = self._model(NOISY_LINK)
        early = model.realize(*self.TRANSFER, anchor_cycle=0)
        late = self._model(NOISY_LINK).realize(*self.TRANSFER, anchor_cycle=50_000)
        assert early.ready_cycle >= early.scheduled_cycle
        assert late.anchor_cycle == 50_000
        assert late.ready_cycle >= 50_000
        assert late.start_cycle == 50_000 - 1000

    def test_stall_split_accounts_for_the_full_overrun(self):
        model = self._model(NOISY_LINK)
        activity = model.realize(*self.TRANSFER, anchor_cycle=10_000)
        deadline = max(activity.scheduled_cycle, activity.anchor_cycle)
        overrun = activity.ready_cycle - deadline
        assert overrun >= 0
        assert activity.generation_stall + activity.purification_stall == overrun
        assert activity.generation_attempts >= activity.segments
        assert 0.25 <= activity.delivered_fidelity <= 1.0
        assert (activity.demand_id, activity.window, activity.requested_window) == (3, 6, 5)
        assert activity.segments == 2

    def test_same_rng_seed_reproduces_the_activity(self):
        a = self._model(NOISY_LINK, seed=3).realize(*self.TRANSFER, anchor_cycle=100)
        b = self._model(NOISY_LINK, seed=3).realize(*self.TRANSFER, anchor_cycle=100)
        assert a == b

    @pytest.mark.no_chaos
    def test_fault_attempts_delay_only_the_first_segment(self):
        # Perfect generation and no pumping: every segment takes exactly one
        # attempt, so the four forced failures are all the faulted transfer
        # adds, charged once, to one segment's duration.
        params = LinkParameters(base_fidelity=0.97, target_fidelity=0.96)
        clean = self._model(params).realize(*self.TRANSFER)
        with faults.fault_profile(faults.FaultProfile.parse("link=1.0,seed=1")):
            faulted = self._model(params).realize(*self.TRANSFER)
        assert faulted.faulted and not clean.faulted
        assert clean.generation_attempts == 2
        assert faulted.generation_attempts == 2 + 4
        assert faulted.generation_cycles == 6 * 1000
        assert faulted.ready_cycle - clean.ready_cycle == 4 * 1000


# ----------------------------------------------------------------------
# Machine replay: determinism contracts
# ----------------------------------------------------------------------


class TestNoisyReplay:
    @pytest.mark.no_chaos
    def test_deterministic_link_reproduces_the_scheduled_path_bit_for_bit(self):
        report = simulate_circuit(
            adder_workload_circuit(4), _machine(LinkParameters()), seed=123
        )
        assert report.trace_digest == DETERMINISTIC_DIGEST
        assert not any(r.kind.startswith("link_") for r in report.trace)
        assert report.metrics.link_generation_attempts == 0
        assert report.metrics.link_mean_delivered_fidelity == 1.0

    @pytest.mark.no_chaos
    def test_noisy_trace_digest_is_pinned(self):
        report = simulate_circuit(
            adder_workload_circuit(4), _machine(NOISY_LINK), seed=11
        )
        assert report.trace_digest == NOISY_DIGEST
        assert report.metrics.link_generation_attempts == 274
        assert report.metrics.link_purification_rounds == 116

    @pytest.mark.no_chaos
    def test_same_seed_same_trace_different_seed_different_trace(self):
        circuit = adder_workload_circuit(4)
        machine = _machine(NOISY_LINK)
        a = simulate_circuit(circuit, machine, seed=11)
        b = simulate_circuit(circuit, machine, seed=11)
        c = simulate_circuit(circuit, machine, seed=12)
        assert a.trace_digest == b.trace_digest
        assert a.trace_digest != c.trace_digest

    @pytest.mark.no_chaos
    def test_noisy_links_stretch_the_makespan_and_emit_link_records(self):
        circuit = adder_workload_circuit(4)
        deterministic = simulate_circuit(circuit, _machine(), seed=11)
        noisy = simulate_circuit(circuit, _machine(NOISY_LINK), seed=11)
        assert noisy.metrics.makespan_cycles > deterministic.metrics.makespan_cycles
        kinds = {r.kind for r in noisy.trace}
        assert {"link_generation", "link_purification", "link_delivery"} <= kinds
        assert noisy.metrics.link_purification_stall_cycles > 0
        assert noisy.metrics.link_mean_delivered_fidelity < 1.0
        deliveries = [r for r in noisy.trace if r.kind == "link_delivery"]
        assert len(deliveries) == len(
            [d for d in noisy.workload.demands]
        ) - len(noisy.schedule.unserved)

    @pytest.mark.no_chaos
    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "link-faults"])
    @pytest.mark.parametrize("case", LINK_MATRIX, ids=[case[0] for case in LINK_MATRIX])
    def test_link_matrix_is_pinned(self, case, faulted):
        _, link, clean, under_faults = case
        profile = faults.FaultProfile.parse("link=0.3,seed=4") if faulted else None
        with faults.fault_profile(profile):
            report = simulate_circuit(adder_workload_circuit(4), _machine(link), seed=11)
        metrics = report.metrics
        assert (
            report.trace_digest,
            metrics.link_generation_attempts,
            metrics.link_purification_rounds,
            metrics.link_generation_stall_cycles,
            metrics.link_purification_stall_cycles,
        ) == (under_faults if faulted else clean)

    def test_chaos_profile_degrades_links_deterministically(self):
        circuit = adder_workload_circuit(4)
        with faults.fault_profile(faults.PROFILES["chaos"]):
            first = simulate_circuit(circuit, _machine(NOISY_LINK), seed=11)
            second = simulate_circuit(circuit, _machine(NOISY_LINK), seed=11)
            assert first.trace_digest == second.trace_digest
            assert any(r.kind == "link_fault" for r in first.trace)
            assert (
                first.metrics.link_generation_attempts
                > 274  # the fault site forces extra failed attempts
            )
            # The deterministic configuration has no stochastic pipeline for
            # the site to degrade: chaos leaves its trace untouched.
            inert = simulate_circuit(circuit, _machine(), seed=123)
            assert inert.trace_digest == DETERMINISTIC_DIGEST


# ----------------------------------------------------------------------
# Spec layer
# ----------------------------------------------------------------------


class TestLinkSpec:
    def test_machine_spec_round_trips_link_fields_exactly(self):
        spec = ExperimentSpec(
            experiment="machine_sim",
            noise=NoiseSpec(kind="technology"),
            sampling=SamplingSpec(shots=0),
            execution=ExecutionSpec(backend="desim"),
            machine=MachineSpec(
                rows=5,
                columns=5,
                bandwidth=2,
                link_attempt_success_probability=0.9,
                link_base_fidelity=0.95,
                link_target_fidelity=0.96,
                link_purification_protocol="deutsch",
                link_repeater_segments=2,
                link_channel_error_per_hop=0.01,
                link_memory_decay_per_cycle=1e-6,
            ),
        )
        payload = json.dumps(spec.to_dict(), sort_keys=True)
        restored = ExperimentSpec.from_dict(json.loads(payload))
        assert restored == spec
        assert restored.machine == spec.machine
        assert json.dumps(restored.to_dict(), sort_keys=True) == payload

    def test_link_accessor_builds_a_validated_spec(self):
        spec = MachineSpec(rows=5, columns=5, link_base_fidelity=0.95, link_target_fidelity=0.96)
        link = spec.link()
        assert isinstance(link, LinkSpec)
        assert not link.is_deterministic
        assert link.elementary_fidelity == pytest.approx(0.95)
        assert MachineSpec(rows=5, columns=5).link().is_deterministic
        assert set(LINK_PROTOCOLS) == {"bennett", "deutsch"}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"link_attempt_success_probability": 0.0},
            {"link_base_fidelity": 0.2},
            {"link_purification_protocol": "oxford"},
            {"link_repeater_segments": 0},
            {"link_base_fidelity": 0.95, "link_target_fidelity": 0.99},
        ],
    )
    def test_invalid_link_fields_fail_spec_validation(self, kwargs):
        with pytest.raises(ParameterError):
            MachineSpec(rows=5, columns=5, **kwargs)

    @pytest.mark.no_chaos
    def test_registry_runs_are_seed_deterministic(self):
        spec = ExperimentSpec(
            experiment="machine_sim",
            noise=NoiseSpec(kind="technology"),
            sampling=SamplingSpec(shots=0, seed=11),
            execution=ExecutionSpec(backend="desim"),
            machine=MachineSpec(
                rows=5,
                columns=5,
                bandwidth=2,
                link_attempt_success_probability=0.9,
                link_base_fidelity=0.95,
                link_target_fidelity=0.96,
            ),
        )
        first = run(spec)
        second = run(spec)
        assert first.value["trace_digest"] == second.value["trace_digest"]
        assert first.value["link_generation_attempts"] > 0


# ----------------------------------------------------------------------
# Cross-validation against the analytic repeater model
# ----------------------------------------------------------------------


class TestConnectionCrossValidation:
    def test_unseeded_simulation_matches_the_analytic_estimate(self):
        model = ConnectionTimeModel()
        estimate = model.estimate(160.0, 20.0)
        report = simulate_connection(model, 160.0, 20.0)
        assert report.num_segments == estimate.num_segments
        assert report.purification_rounds == estimate.purification_rounds
        assert report.swap_levels == estimate.swap_levels
        assert report.final_fidelity == pytest.approx(estimate.final_fidelity)
        assert report.connection_seconds == pytest.approx(
            estimate.connection_time_seconds, rel=1e-3
        )
        assert report.round_failures == 0

    def test_seeded_simulation_averages_near_the_analytic_estimate(self):
        model = ConnectionTimeModel()
        analytic = model.estimate(160.0, 20.0).connection_time_seconds
        samples = [
            simulate_connection(model, 160.0, 20.0, seed=s).connection_seconds
            for s in range(20)
        ]
        mean = sum(samples) / len(samples)
        # Round failures only ever add time, and the per-round failure
        # probability near the Figure 9 fidelities is a few percent.
        assert min(samples) >= analytic * (1.0 - 1e-9)
        assert mean == pytest.approx(analytic, rel=0.10)
        success, _ = bennett_purification_map(model.elementary_fidelity(20.0))
        assert success > 0.8

    def test_infeasible_connection_raises(self):
        model = ConnectionTimeModel(end_to_end_error_budget=1e-15)
        with pytest.raises(DesimError):
            simulate_connection(model, 160.0, 20.0)


# ----------------------------------------------------------------------
# Paper driver
# ----------------------------------------------------------------------


class TestReproduceFig9Noisy:
    @pytest.mark.no_chaos
    def test_makespan_rises_strictly_as_fidelity_drops(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        rows = reproduce_fig9_noisy(cache=cache)
        assert len(rows) == 6
        for protocol in ("bennett", "deutsch"):
            points = sorted(
                (
                    (row["machine.link_base_fidelity"], row["makespan_cycles"])
                    for row in rows
                    if row["machine.link_purification_protocol"] == protocol
                ),
                reverse=True,
            )
            makespans = [makespan for _, makespan in points]
            assert all(a < b for a, b in zip(makespans, makespans[1:])), protocol
        bennett = {
            row["machine.link_base_fidelity"]: row["link_purification_rounds"]
            for row in rows
            if row["machine.link_purification_protocol"] == "bennett"
        }
        assert bennett[0.99] == 0
        assert 0 < bennett[0.95] < bennett[0.94]
        replay = reproduce_fig9_noisy(cache=cache)
        assert all(row["cached"] for row in replay)
        volatile = ("cached", "wall_time_seconds", "point_wall_seconds", "attempts")
        stable = [
            {k: v for k, v in row.items() if k not in volatile} for row in rows
        ]
        assert [
            {k: v for k, v in row.items() if k not in volatile} for row in replay
        ] == stable
