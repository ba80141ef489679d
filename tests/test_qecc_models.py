"""Tests for the concatenation (Eq. 2), latency (Eq. 1) and threshold models."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.qecc.concatenation import (
    ConcatenationModel,
    EMPIRICAL_THRESHOLD,
    EXPECTED_AVERAGE_COMPONENT_FAILURE,
    THEORETICAL_THRESHOLD,
    achievable_system_size,
    failure_rate_at_level,
    required_recursion_level,
)
from repro.qecc.latency import (
    EccLatencyModel,
    PAPER_ANCILLA_PREP_TIME_LEVEL2,
    PAPER_ECC_TIME_LEVEL1,
    PAPER_ECC_TIME_LEVEL2,
)
from repro.qecc.threshold import (
    estimate_threshold_crossing,
    fit_concatenation_coefficient,
    pseudothreshold_from_coefficient,
)
from repro.iontrap.parameters import CURRENT_PARAMETERS


class TestEquation2:
    def test_level_zero_returns_physical_rate(self):
        assert failure_rate_at_level(1e-4, 0) == 1e-4

    def test_level2_failure_matches_paper_value(self):
        # Section 4.1.2: with p0 the average expected failure rate, r = 12 and
        # pth = 7.5e-5 the level-2 failure rate is about 1.0e-16.
        rate = failure_rate_at_level(EXPECTED_AVERAGE_COMPONENT_FAILURE, 2)
        assert rate == pytest.approx(1.0e-16, rel=0.15)

    def test_achievable_size_matches_paper_value(self):
        # "...a computer of size S = KQ = 9.9e15 elementary steps."
        size = achievable_system_size(EXPECTED_AVERAGE_COMPONENT_FAILURE, 2)
        assert size == pytest.approx(9.9e15, rel=0.15)

    def test_empirical_threshold_gives_1e21_reliability(self):
        # "Reevaluating Equation 2 with the empirical value for pth we get an
        # estimated level 2 reliability approaching 1e-21."
        rate = failure_rate_at_level(
            EXPECTED_AVERAGE_COMPONENT_FAILURE, 2, threshold=EMPIRICAL_THRESHOLD
        )
        assert 1e-22 < rate < 1e-20

    def test_failure_rate_decreases_with_level_below_threshold(self):
        p0 = 1e-6
        rates = [failure_rate_at_level(p0, level) for level in range(4)]
        assert all(rates[i + 1] < rates[i] for i in range(3))

    def test_failure_rate_increases_with_level_above_threshold(self):
        p0 = 10 * THEORETICAL_THRESHOLD
        assert failure_rate_at_level(p0, 2) > failure_rate_at_level(p0, 1)

    def test_required_level_for_shor_1024(self):
        # Shor-1024 needs S ~ 4.4e12 steps; level 2 suffices, level 1 does not.
        level = required_recursion_level(EXPECTED_AVERAGE_COMPONENT_FAILURE, 4.4e12)
        assert level == 2

    def test_required_level_rejects_above_threshold(self):
        with pytest.raises(ParameterError):
            required_recursion_level(1e-3, 1e12)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ParameterError):
            failure_rate_at_level(-0.1, 1)
        with pytest.raises(ParameterError):
            failure_rate_at_level(1e-6, -1)
        with pytest.raises(ParameterError):
            failure_rate_at_level(1e-6, 1, threshold=0.0)

    def test_model_wrapper_consistency(self):
        model = ConcatenationModel()
        assert model.failure_rate(2) == failure_rate_at_level(
            EXPECTED_AVERAGE_COMPONENT_FAILURE, 2
        )
        assert model.required_level(4.4e12) == 2
        assert model.physical_qubits_per_logical(2) == 49

    def test_current_parameters_are_above_threshold(self):
        # The experimentally achieved (2005) rates do not support recursion.
        assert CURRENT_PARAMETERS.average_component_failure > THEORETICAL_THRESHOLD


class TestEquation1Latency:
    def test_level_ordering(self):
        model = EccLatencyModel()
        assert 0.0 < model.ecc_time(1) < model.ecc_time(2)

    def test_level1_matches_paper_order_of_magnitude(self):
        model = EccLatencyModel()
        assert model.ecc_time(1) == pytest.approx(PAPER_ECC_TIME_LEVEL1, rel=0.5)

    def test_level2_matches_paper_order_of_magnitude(self):
        model = EccLatencyModel()
        assert model.ecc_time(2) == pytest.approx(PAPER_ECC_TIME_LEVEL2, rel=0.5)

    def test_ancilla_prep_is_fraction_of_level2_cycle(self):
        model = EccLatencyModel()
        prep = model.ancilla_preparation_time(2)
        assert prep == pytest.approx(PAPER_ANCILLA_PREP_TIME_LEVEL2, rel=0.5)
        assert prep < model.ecc_time(2)

    def test_level_zero_is_free(self):
        model = EccLatencyModel()
        assert model.ecc_time(0) == 0.0

    def test_nontrivial_cycle_longer_than_trivial(self):
        breakdown = EccLatencyModel().breakdown(2)
        assert breakdown.nontrivial_cycle > breakdown.trivial_cycle
        assert breakdown.trivial_cycle <= breakdown.expected_cycle <= breakdown.nontrivial_cycle

    def test_expected_cycle_close_to_trivial_when_syndromes_rare(self):
        breakdown = EccLatencyModel().breakdown(1)
        assert breakdown.expected_cycle == pytest.approx(breakdown.trivial_cycle, rel=1e-2)

    def test_logical_gate_time_includes_ecc(self):
        model = EccLatencyModel()
        assert model.logical_gate_time(2) > model.ecc_time(2)
        assert model.logical_gate_time(2, two_qubit=True) > model.logical_gate_time(2)

    def test_measurement_dominates_interaction(self):
        model = EccLatencyModel()
        assert model.transversal_measurement_time > model.parameters.double_gate_time

    def test_invalid_levels_rejected(self):
        model = EccLatencyModel()
        with pytest.raises(ParameterError):
            model.ancilla_preparation_time(0)
        with pytest.raises(ParameterError):
            model.syndrome_extraction_time(0)
        with pytest.raises(ParameterError):
            model.breakdown(-1)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ParameterError):
            EccLatencyModel(encoding_cnot_depth=-1)
        with pytest.raises(ParameterError):
            EccLatencyModel(nontrivial_rate_l1=1.5)

    def test_slower_technology_gives_longer_cycles(self):
        from dataclasses import replace

        from repro.iontrap.parameters import EXPECTED_PARAMETERS

        slow = replace(EXPECTED_PARAMETERS, measure_time=1e-3, name="slow")
        fast_model = EccLatencyModel()
        slow_model = EccLatencyModel(parameters=slow)
        assert slow_model.ecc_time(2) > fast_model.ecc_time(2)


class TestThresholdEstimation:
    def test_fit_recovers_known_coefficient(self):
        physical = [1e-3, 2e-3, 3e-3]
        logical = [500 * p**2 for p in physical]
        assert fit_concatenation_coefficient(physical, logical) == pytest.approx(500.0)

    def test_fit_skips_zero_points(self):
        physical = [1e-3, 2e-3, 3e-3]
        logical = [0.0, 500 * (2e-3) ** 2, 500 * (3e-3) ** 2]
        assert fit_concatenation_coefficient(physical, logical) == pytest.approx(500.0)

    def test_fit_with_all_zero_points_rejected(self):
        with pytest.raises(ParameterError):
            fit_concatenation_coefficient([1e-3], [0.0])

    def test_pseudothreshold_is_inverse_coefficient_at_level1(self):
        assert pseudothreshold_from_coefficient(500.0) == pytest.approx(1 / 500.0)

    def test_crossing_of_analytic_curves(self):
        # Level 1: 400 p^2, level 2: 400^3 p^4 -> crossing at p = 1/400.
        physical = [1e-3, 2e-3, 3e-3, 4e-3]
        level1 = [400 * p**2 for p in physical]
        level2 = [400**3 * p**4 for p in physical]
        estimate = estimate_threshold_crossing(physical, level1, level2)
        assert estimate.threshold == pytest.approx(1 / 400.0, rel=0.2)
        assert estimate.lower <= estimate.threshold <= estimate.upper

    def test_crossing_requires_two_points(self):
        with pytest.raises(ParameterError):
            estimate_threshold_crossing([1e-3], [1e-4], [1e-5])

    def test_crossing_contains_operator(self):
        physical = [1e-3, 2e-3, 3e-3, 4e-3]
        level1 = [400 * p**2 for p in physical]
        level2 = [400**3 * p**4 for p in physical]
        estimate = estimate_threshold_crossing(physical, level1, level2)
        assert estimate.threshold in estimate

    def test_no_extrapolation_when_level2_stays_below(self):
        # 1/A = 3.5e-3 lies past the sweep: the Fig. 7 case that used to
        # extrapolate to a negative crossing with an inverted band.
        physical = [1e-3, 1.5e-3, 2e-3, 2.5e-3]
        level1 = [285 * p**2 for p in physical]
        level2 = [285**3 * p**4 for p in physical]
        estimate = estimate_threshold_crossing(
            physical, level1, level2, [1e-5] * 4, [1e-6] * 4
        )
        assert estimate.threshold is None
        assert (estimate.lower, estimate.upper) == (2.5e-3, None)
        assert 1e-2 in estimate and 2e-3 not in estimate

    def test_no_extrapolation_when_level2_stays_above(self):
        physical = [4e-3, 6e-3, 8e-3]
        level1 = [400 * p**2 for p in physical]
        level2 = [400**3 * p**4 for p in physical]
        estimate = estimate_threshold_crossing(physical, level1, level2)
        assert estimate.threshold is None
        assert (estimate.lower, estimate.upper) == (0.0, 4e-3)
        assert 1e-3 in estimate and 5e-3 not in estimate

    def test_crossing_at_an_endpoint(self):
        physical = [1e-3, 2e-3, 2.5e-3]
        level1 = [400 * p**2 for p in physical]
        level2 = [400**3 * p**4 for p in physical]
        level2[-1] = level1[-1]
        estimate = estimate_threshold_crossing(physical, level1, level2)
        assert estimate.threshold == 2.5e-3
        assert estimate.lower <= estimate.threshold <= estimate.upper
        assert estimate.upper - estimate.lower > 0.0

    def test_exact_tie_is_the_crossing(self):
        physical = [1e-3, 2e-3, 3e-3]
        level1 = [1e-4, 4e-4, 9e-4]
        level2 = [1e-5, 4e-4, 2e-3]
        estimate = estimate_threshold_crossing(
            physical, level1, level2, [1e-5] * 3, [1e-5] * 3
        )
        assert estimate.threshold == 2e-3
        assert 0.0 <= estimate.lower < 2e-3 < estimate.upper

    def test_points_without_failures_are_no_crossing(self):
        # 0 == 0 at the low rates is not a tie: nothing was observed there.
        physical = [1e-3, 2e-3, 3e-3, 4e-3]
        estimate = estimate_threshold_crossing(
            physical, [0.0, 0.0, 1e-4, 2e-4], [0.0, 0.0, 1e-6, 4e-6]
        )
        assert estimate.threshold is None
        assert (estimate.lower, estimate.upper) == (4e-3, None)
        nothing = estimate_threshold_crossing(physical[:2], [0.0, 0.0], [0.0, 0.0])
        assert (nothing.threshold, nothing.lower, nothing.upper) == (None, 0.0, None)

    def test_band_is_never_inverted_or_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            physical = np.sort(rng.uniform(0.0, 1e-2, size=4))
            level1 = rng.binomial(500, 0.01, size=4) / 500
            level2 = rng.binomial(500, 0.01, size=4) / 500
            estimate = estimate_threshold_crossing(
                physical, level1, level2, np.sqrt(level1 / 500), np.sqrt(level2 / 500)
            )
            assert estimate.lower >= 0.0
            assert estimate.upper is None or estimate.lower <= estimate.upper
            if estimate.threshold is not None:
                assert estimate.threshold in estimate

    def test_negative_rates_rejected(self):
        with pytest.raises(ParameterError):
            estimate_threshold_crossing([-1e-3, 1e-3], [1e-4, 1e-4], [1e-5, 1e-3])
