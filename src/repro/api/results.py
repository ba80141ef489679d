"""Provenance-carrying run results.

Every :func:`repro.api.run` call returns a :class:`RunResult` that records,
next to the experiment's value, everything needed to reproduce it exactly:
the spec it ran (with fresh entropy materialized into the seed field), the
resolved strategy and engine names, the seed entropy, the shard count, the
wall time and the library version.  ``RunResult.to_json`` /
``RunResult.from_json`` round-trip the whole object, and
``ExperimentSpec.from_json(result.spec_json)`` re-runs the experiment bit for
bit on any worker count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.exceptions import ParameterError
from repro.stabilizer.monte_carlo import MonteCarloResult
from repro.api.specs import ExperimentSpec

__all__ = ["RunResult"]


def _sweep_to_dict(sweep) -> dict:
    return {
        "physical_rates": list(sweep.physical_rates),
        "level1": [{"failures": r.failures, "trials": r.trials} for r in sweep.level1],
        "level1_rates": list(sweep.level1_rates),
        "level2_rates": list(sweep.level2_rates),
        "concatenation_coefficient": sweep.concatenation_coefficient,
        "threshold": {
            "threshold": sweep.threshold.threshold,
            "lower": sweep.threshold.lower,
            "upper": sweep.threshold.upper,
            "level_a": sweep.threshold.level_a,
            "level_b": sweep.threshold.level_b,
        },
        "seed_entropy": list(sweep.seed_entropy)
        if isinstance(sweep.seed_entropy, tuple)
        else sweep.seed_entropy,
        "num_shards": sweep.num_shards,
    }


def _sweep_from_dict(data: dict):
    from repro.arq.experiments import ThresholdSweepResult
    from repro.qecc.threshold import ThresholdEstimate

    entropy = data["seed_entropy"]
    return ThresholdSweepResult(
        physical_rates=tuple(data["physical_rates"]),
        level1=tuple(MonteCarloResult(**point) for point in data["level1"]),
        level1_rates=tuple(data["level1_rates"]),
        level2_rates=tuple(data["level2_rates"]),
        concatenation_coefficient=data["concatenation_coefficient"],
        threshold=ThresholdEstimate(**data["threshold"]),
        seed_entropy=tuple(entropy) if isinstance(entropy, list) else entropy,
        num_shards=data["num_shards"],
    )


def _value_to_jsonable(experiment: str, value) -> object:
    if experiment == "threshold_sweep":
        return _sweep_to_dict(value)
    if experiment == "logical_failure":
        return {"failures": value.failures, "trials": value.trials}
    return dict(value)  # syndrome_rate / machine_sim: plain JSON dicts already


def _value_from_jsonable(experiment: str, data) -> object:
    if experiment == "threshold_sweep":
        return _sweep_from_dict(data)
    if experiment == "logical_failure":
        return MonteCarloResult(failures=data["failures"], trials=data["trials"])
    return dict(data)


@dataclass(frozen=True)
class RunResult:
    """The outcome of one :func:`repro.api.run` call, with full provenance.

    Attributes
    ----------
    spec:
        Echo of the executed spec.  If the submitted spec had ``seed=None``,
        this echo carries the entropy that was actually drawn, so
        ``ExperimentSpec.from_json(result.spec_json)`` replays exactly.
    value:
        The experiment's result: a
        :class:`~repro.arq.experiments.ThresholdSweepResult` for threshold
        sweeps, a :class:`~repro.stabilizer.monte_carlo.MonteCarloResult` for
        logical-failure estimates, the syndrome-rate dictionary, or the
        machine-simulation metrics dictionary (trace digest included).
    backend:
        Name of the registered strategy that executed the shots.
    engine:
        Concrete engine the batches ran on (``"frame"`` or ``"scalar"``)
        -- ``"auto"`` resolves to ``"frame"``.
    seed_entropy:
        Root SeedSequence entropy of the run.
    num_shards:
        Shard count of the deterministic shard plan.
    wall_time_seconds:
        Wall-clock duration of the run.
    library_version:
        ``repro.__version__`` that produced the result.
    """

    spec: ExperimentSpec
    value: object
    backend: str
    engine: str
    seed_entropy: int | tuple[int, ...] | None
    num_shards: int
    wall_time_seconds: float
    library_version: str

    @property
    def spec_json(self) -> str:
        """The executed spec as JSON -- feed to ``ExperimentSpec.from_json`` to replay."""
        return self.spec.to_json()

    def to_dict(self) -> dict:
        """The result as a JSON-ready dictionary (:meth:`from_dict` round-trips)."""
        return {
            "spec": self.spec.to_dict(),
            "value": _value_to_jsonable(self.spec.experiment, self.value),
            "backend": self.backend,
            "engine": self.engine,
            "seed_entropy": list(self.seed_entropy)
            if isinstance(self.seed_entropy, tuple)
            else self.seed_entropy,
            "num_shards": self.num_shards,
            "wall_time_seconds": self.wall_time_seconds,
            "library_version": self.library_version,
        }

    def to_json(self, indent: int | None = None) -> str:
        """Serialize the full result -- value, spec echo and provenance -- to JSON."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: object) -> "RunResult":
        if not isinstance(data, dict):
            raise ParameterError(f"a run result must be a JSON object, got {type(data).__name__}")
        required = {"spec", "value", "backend", "engine", "seed_entropy",
                    "num_shards", "wall_time_seconds", "library_version"}
        missing = sorted(required - set(data))
        if missing:
            raise ParameterError(f"run result is missing fields: {missing}")
        unknown = sorted(set(data) - required)
        if unknown:
            raise ParameterError(f"unknown run result fields: {unknown}")
        spec = ExperimentSpec.from_dict(data["spec"])
        entropy = data["seed_entropy"]
        return cls(
            spec=spec,
            value=_value_from_jsonable(spec.experiment, data["value"]),
            backend=data["backend"],
            engine=data["engine"],
            seed_entropy=tuple(entropy) if isinstance(entropy, list) else entropy,
            num_shards=data["num_shards"],
            wall_time_seconds=data["wall_time_seconds"],
            library_version=data["library_version"],
        )

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ParameterError(f"run result is not valid JSON: {error}") from error
        return cls.from_dict(data)
