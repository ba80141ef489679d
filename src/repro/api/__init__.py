"""The unified experiment API: declarative specs -> backends -> results.

One pipeline replaces the per-driver kwargs entry points::

    from repro.api import ExperimentSpec, NoiseSpec, SamplingSpec, ExecutionSpec, run

    spec = ExperimentSpec(
        experiment="threshold_sweep",
        noise=NoiseSpec(kind="uniform", physical_rates=(1e-3, 2e-3)),
        sampling=SamplingSpec(shots=8192, seed=7),
        execution=ExecutionSpec(backend="auto", num_shards=8, num_workers=4),
    )
    result = run(spec)
    print(result.value.pseudothreshold, result.backend, result.engine)

    # exact replay, any worker count:
    again = run(ExperimentSpec.from_json(result.spec_json))
    assert again.value == result.value

Specs are frozen, strictly validated and JSON round-trippable
(:mod:`repro.api.specs`); ``ExecutionSpec.backend`` names one of the five
built-in execution strategies, resolved by the fixed table of
:mod:`repro.api.registry`; results carry full provenance
(:mod:`repro.api.results`).
"""

from repro.api.specs import (
    CircuitSpec,
    ExecutionSpec,
    ExperimentSpec,
    MachineSpec,
    NoiseSpec,
    SamplingSpec,
)
from repro.api.registry import BackendRegistry, default_registry
from repro.api.results import RunResult
from repro.api.runner import run

__all__ = [
    "ExperimentSpec",
    "NoiseSpec",
    "CircuitSpec",
    "SamplingSpec",
    "ExecutionSpec",
    "MachineSpec",
    "BackendRegistry",
    "default_registry",
    "RunResult",
    "run",
]
