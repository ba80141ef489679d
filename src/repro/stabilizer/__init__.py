"""Polynomial-time stabilizer (Clifford) circuit simulation.

This package is the reproduction of the simulation core of ARQ, the
architecture simulator introduced by the paper.  ARQ avoids exponential state
vector costs by restricting itself to the stabilizer formalism
(Aaronson & Gottesman, quant-ph/0406196): Clifford gates, Pauli errors and
Z-basis measurement can all be simulated in time polynomial in the number of
qubits, which is exactly what is required to evaluate error-correction
circuits under Pauli noise.
"""

from repro.stabilizer.tableau import StabilizerTableau, MeasurementResult
from repro.stabilizer.packed import (
    lane_mask_words,
    num_words,
    pack_bits,
    popcount,
    unpack_bits,
)
from repro.stabilizer.fused import (
    PauliFrameBatch,
    execute_fused,
    kernel_tier,
)
from repro.stabilizer.noise import (
    NoiseModel,
    DepolarizingNoise,
    OperationNoise,
    NoiselessModel,
    PauliChannel,
)
from repro.stabilizer.monte_carlo import (
    MonteCarloResult,
    estimate_failure_rate,
    estimate_failure_rate_batched,
)

__all__ = [
    "StabilizerTableau",
    "PauliFrameBatch",
    "execute_fused",
    "kernel_tier",
    "MeasurementResult",
    "lane_mask_words",
    "num_words",
    "pack_bits",
    "popcount",
    "unpack_bits",
    "NoiseModel",
    "DepolarizingNoise",
    "OperationNoise",
    "NoiselessModel",
    "PauliChannel",
    "MonteCarloResult",
    "estimate_failure_rate",
    "estimate_failure_rate_batched",
]
