"""The single entry point: ``repro.api.run(spec)``.

The runner turns a declarative :class:`~repro.api.specs.ExperimentSpec` into
an execution: it materializes fresh seed entropy (so every run is replayable),
resolves the execution strategy and engine name from the built-in table
of :mod:`repro.api.registry`, builds the picklable shard task
for the workload, runs it, and wraps the value in a provenance-carrying
:class:`~repro.api.results.RunResult`.

Determinism contract: for a fixed spec (seed included), ``run`` resolves to
the same backend, the same shard plan and the same random streams on any
machine and any worker count --
``run(ExperimentSpec.from_json(result.spec_json))`` reproduces
``result.value`` bit for bit.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # the sweep types live above this module; import for types only
    from repro.explore.runner import SweepResult
    from repro.explore.sweep import SweepSpec

from repro.exceptions import ParameterError
from repro.api.registry import default_registry
from repro.api.results import RunResult
from repro.api.specs import ExperimentSpec

__all__ = ["run", "resolved_engine"]


def _normalized_entropy(seed) -> int | tuple[int, ...]:
    return tuple(int(word) for word in seed) if isinstance(seed, (list, tuple)) else int(seed)


def _make_task(spec: ExperimentSpec, physical_rate: float, metric: str):
    from repro.parallel import Level1ShardTask

    return Level1ShardTask(
        physical_rate=physical_rate,
        parameters=spec.noise.parameter_set(),
        mapper=spec.circuit.mapper(),
        noise_kind=spec.noise.kind,
        verified_ancilla=spec.circuit.verified_ancilla,
        max_preparation_attempts=spec.circuit.max_preparation_attempts,
        metric=metric,
    )


def _resolve(spec: ExperimentSpec):
    return default_registry().resolve(
        spec.execution.backend, num_shards=spec.execution.num_shards
    )


def _resolve_monte_carlo(spec: ExperimentSpec):
    """The ``(strategy, engine)`` that estimates ``spec``'s shots."""
    if spec.execution.backend == "desim":
        raise ParameterError(
            "the desim backend replays compiled circuits cycle-by-cycle; it has "
            "no Monte-Carlo estimate -- run an ExperimentSpec(experiment='machine_sim')"
        )
    return _resolve(spec)


def resolved_engine(spec: ExperimentSpec) -> str:
    """The engine name :func:`run` will record for ``spec``, without running it.

    A pure function of the spec, sharing the runner's own dispatch rules:
    ``machine_sim`` always replays on ``"desim"``, an analytic-only syndrome
    rate (``shots == 0``) runs no engine at all (``"none"``), and every
    Monte-Carlo spec resolves through
    :meth:`~repro.api.registry.BackendRegistry.resolve` with the same
    arguments the execution paths use.  The result-cache keys of
    :mod:`repro.explore` embed this name, so it must stay the single source
    of truth for what ``RunResult.engine`` ends up recording.
    """
    if not isinstance(spec, ExperimentSpec):
        raise ParameterError(
            f"resolved_engine() takes an ExperimentSpec, got {type(spec).__name__}"
        )
    if spec.experiment == "machine_sim":
        return "desim"
    if spec.experiment == "syndrome_rate" and spec.sampling.shots == 0:
        return "none"
    _, engine = _resolve(spec)
    return engine


def _estimate(strategy, task, spec: ExperimentSpec, seed):
    return strategy.estimate(
        task,
        spec.sampling.shots,
        seed=seed,
        batch_size=spec.sampling.batch_size,
        max_failures=spec.sampling.max_failures,
        num_shards=spec.execution.num_shards,
        num_workers=spec.execution.num_workers,
    )


def _run_threshold_sweep(spec: ExperimentSpec):
    from repro.arq.experiments import _seeded_threshold_sweep

    strategy, engine = _resolve_monte_carlo(spec)
    sweep = _seeded_threshold_sweep(
        strategy,
        spec.noise.physical_rates,
        spec.sampling.shots,
        spec.sampling.seed,
        parameters=spec.noise.parameter_set(),
        mapper=spec.circuit.mapper(),
        num_shards=spec.execution.num_shards,
        num_workers=spec.execution.num_workers,
        batch_size=spec.sampling.batch_size,
        max_failures=spec.sampling.max_failures,
        verified_ancilla=spec.circuit.verified_ancilla,
        max_preparation_attempts=spec.circuit.max_preparation_attempts,
    )
    return sweep, strategy.name, engine


def _run_logical_failure(spec: ExperimentSpec):
    strategy, engine = _resolve_monte_carlo(spec)
    rate = spec.noise.physical_rates[0] if spec.noise.kind == "uniform" else 0.0
    task = _make_task(spec, rate, "failure")
    value = _estimate(strategy, task, spec, spec.sampling.seed)
    return value, strategy.name, engine


def _run_syndrome_rate(spec: ExperimentSpec):
    from repro.arq.experiments import analytic_syndrome_rate

    value: dict[str, float] = {
        "analytic": analytic_syndrome_rate(
            spec.circuit.level, spec.noise.parameter_set(), spec.circuit.mapper()
        ),
        "level": float(spec.circuit.level),
    }
    if spec.sampling.shots == 0:
        return value, "none", "none"
    strategy, engine = _resolve_monte_carlo(spec)
    task = _make_task(spec, 0.0, "nontrivial_syndrome")
    measured = _estimate(strategy, task, spec, spec.sampling.seed)
    value["measured"] = measured.failure_rate
    value["trials"] = float(measured.trials)
    return value, strategy.name, engine


def _run_machine_sim(spec: ExperimentSpec):
    if spec.execution.backend not in ("auto", "desim"):
        raise ParameterError(
            f"machine_sim runs on the 'desim' strategy, not {spec.execution.backend!r}; "
            "use backend='auto' or backend='desim'"
        )
    strategy = default_registry().get("desim")
    value = strategy.simulate(spec)
    return value, strategy.name, "desim"


_EXPERIMENT_RUNNERS = {
    "threshold_sweep": _run_threshold_sweep,
    "logical_failure": _run_logical_failure,
    "syndrome_rate": _run_syndrome_rate,
    "machine_sim": _run_machine_sim,
}


def run(spec: ExperimentSpec | SweepSpec) -> RunResult | SweepResult:
    """Execute a declarative experiment spec and return its provenance-carrying result.

    Parameters
    ----------
    spec:
        The experiment to run.  A spec with ``sampling.seed=None`` has fresh
        SeedSequence entropy drawn and recorded in the echoed spec, so the
        returned result is always replayable via
        ``run(ExperimentSpec.from_json(result.spec_json))``.  Its
        ``execution.backend`` names one of the built-in strategies of
        :data:`~repro.api.registry.BACKEND_NAMES`.

    A :class:`~repro.explore.sweep.SweepSpec` is accepted too and dispatched
    to :func:`repro.explore.runner.run_sweep` (returning its
    :class:`~repro.explore.runner.SweepResult`), so ``run`` stays the single
    entry point for every declarative description the library understands.
    """
    # Imported lazily: repro.explore builds on this module, so the sweep
    # dispatch must not create an import cycle.
    from repro.explore.runner import run_sweep
    from repro.explore.sweep import SweepSpec

    if isinstance(spec, SweepSpec):
        return run_sweep(spec)
    if not isinstance(spec, ExperimentSpec):
        raise ParameterError(f"run() takes an ExperimentSpec, got {type(spec).__name__}")
    if spec.sampling.seed is None:
        spec = spec.with_seed(_normalized_entropy(np.random.SeedSequence().entropy))

    start = time.perf_counter()
    value, backend_name, engine = _EXPERIMENT_RUNNERS[spec.experiment](spec)
    wall_time = time.perf_counter() - start

    import repro

    return RunResult(
        spec=spec,
        value=value,
        backend=backend_name,
        engine=engine,
        seed_entropy=_normalized_entropy(spec.sampling.seed),
        num_shards=spec.execution.num_shards,
        wall_time_seconds=wall_time,
        library_version=repro.__version__,
    )
