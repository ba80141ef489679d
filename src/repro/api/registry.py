"""The built-in execution strategies, in one fixed table.

The library runs a workload in one of a few ways -- a scalar per-shot
oracle, the bit-packed Pauli-frame engine, a sharded process-pool layer,
and the discrete-event machine simulator.  ``ExecutionSpec.backend`` names
one of them (:data:`BACKEND_NAMES`), and :meth:`BackendRegistry.resolve`
maps a request onto a strategy and the engine name the run records:

* ``"auto"`` and ``"frame"`` mean :data:`AUTO_ENGINE`, the library's one
  batched engine, run through the ``"sharded"`` strategy whenever
  ``num_shards > 1``;
* ``"sharded"`` always runs the shard plan, on the frame engine;
* ``"scalar"`` and ``"desim"`` run as themselves and refuse shards.

Every Monte-Carlo strategy consumes a *shard task* -- a picklable callable
``(rng, count) -> (count,) bool array`` marking failing shots, optionally with
a ``run_single(rng) -> bool`` method for the scalar strategy (see
:class:`repro.parallel.Level1ShardTask`) -- and returns a
:class:`~repro.stabilizer.monte_carlo.MonteCarloResult`.  Seeded runs follow
the deterministic SeedSequence shard plan of :mod:`repro.parallel`, so one
``(seed, num_shards)`` pair reproduces bit for bit on any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ParameterError, SimulationError
from repro.stabilizer.fused import build_kernel
from repro.stabilizer.monte_carlo import (
    MonteCarloResult,
    estimate_failure_rate,
    estimate_failure_rate_batched,
)

__all__ = [
    "AUTO_ENGINE",
    "BACKEND_NAMES",
    "BackendRegistry",
    "ScalarBackend",
    "EngineBackend",
    "ShardedBackend",
    "DesimBackend",
    "default_registry",
]

#: The one batched engine: what ``"auto"`` resolves to, and what every
#: sharded run records as its engine.
AUTO_ENGINE = "frame"

#: Every value ``ExecutionSpec.backend`` accepts.
BACKEND_NAMES = ("auto", "frame", "scalar", "sharded", "desim")


def _seeded_rng(seed: int | tuple[int, ...] | np.random.SeedSequence) -> np.random.Generator:
    """The generator of an unsharded run: the seed's SeedSequence, *spawned once*.

    This matches the single-shard plan of :mod:`repro.parallel` exactly, so
    an unsharded seeded run and a ``num_shards=1`` sharded run of the same
    seed are bit-for-bit identical.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed.spawn(1)[0])
    from repro.parallel import seed_entropy

    # The first spawned child, built directly instead of from its parent.
    return np.random.default_rng(np.random.SeedSequence(seed_entropy(seed), spawn_key=(0,)))


def _reject_shards(name: str, num_shards: int) -> None:
    if num_shards > 1:
        raise ParameterError(
            f"backend {name!r} does not support sharding (num_shards={num_shards}); "
            "select the 'sharded' strategy or num_shards=1"
        )


@dataclass(frozen=True)
class ScalarBackend:
    """The per-shot oracle: one tableau, one shot at a time.

    Slow but simple -- kept as the cross-validation reference for the
    batched engine.  Requires the task to expose ``run_single``.
    """

    name: str = "scalar"

    def estimate(self, task, shots, *, seed, batch_size=1024,
                 max_failures=None, num_shards=1, num_workers=0) -> MonteCarloResult:
        _reject_shards(self.name, num_shards)
        run_single = getattr(task, "run_single", None)
        if run_single is None:
            raise ParameterError(
                f"the scalar backend needs a task with a run_single(rng) method, got {type(task).__name__}"
            )
        return estimate_failure_rate(run_single, shots, _seeded_rng(seed), max_failures=max_failures)


@dataclass(frozen=True)
class EngineBackend:
    """The batched Pauli-frame engine (``"frame"``), in one process.

    Shard tasks always run on the batched engine; this strategy only
    supplies the chunked estimate loop.
    """

    name: str = AUTO_ENGINE

    def estimate(self, task, shots, *, seed, batch_size=1024,
                 max_failures=None, num_shards=1, num_workers=0) -> MonteCarloResult:
        _reject_shards(self.name, num_shards)
        return estimate_failure_rate_batched(
            task, shots, _seeded_rng(seed), batch_size=batch_size, max_failures=max_failures
        )


@dataclass(frozen=True)
class DesimBackend:
    """The discrete-event machine simulator.

    It estimates no failure rate: it deterministically replays a compiled
    workload cycle-by-cycle, so it has :meth:`simulate` instead of an
    ``estimate``, and only ``machine_sim`` specs run on it.
    """

    name: str = "desim"

    def simulate(self, spec) -> dict:
        """Replay a ``machine_sim`` spec and return its JSON-ready value."""
        # Imported lazily: this module must stay importable without pulling
        # the whole simulator (and desim imports network/layout/qecc layers).
        from repro.desim import (
            LinkParameters,
            QLAMachineModel,
            build_workload_circuit,
            compile_workload_circuit,
            simulate_circuit,
        )

        machine_spec = spec.machine
        machine = QLAMachineModel.build(
            rows=machine_spec.rows,
            columns=machine_spec.columns,
            bandwidth=machine_spec.bandwidth,
            level=machine_spec.level,
            parameters=spec.noise.parameter_set(),
            cycle_time_seconds=machine_spec.cycle_time_seconds,
            num_ancilla_factories=machine_spec.num_ancilla_factories,
            transfers_per_lane_per_window=machine_spec.transfers_per_lane_per_window,
            max_deferral_windows=machine_spec.max_deferral_windows,
            ancilla_jitter_cycles=machine_spec.ancilla_jitter_cycles,
            link=LinkParameters(
                attempt_success_probability=machine_spec.link_attempt_success_probability,
                base_fidelity=machine_spec.link_base_fidelity,
                target_fidelity=machine_spec.link_target_fidelity,
                purification_protocol=machine_spec.link_purification_protocol,
                repeater_segments=machine_spec.link_repeater_segments,
                channel_error_per_hop=machine_spec.link_channel_error_per_hop,
                memory_decay_per_cycle=machine_spec.link_memory_decay_per_cycle,
            ),
        )
        circuit = build_workload_circuit(
            machine_spec.workload,
            bits=machine_spec.workload_bits,
            parallel=machine_spec.workload_parallel,
            num_qubits=machine.num_tiles,
            toffolis_per_layer=machine_spec.toffolis_per_layer,
            layers=machine_spec.workload_depth,
            seed=machine_spec.workload_seed,
        )
        report = simulate_circuit(
            compile_workload_circuit(circuit), machine, seed=spec.sampling.seed
        )
        return report.to_value()


@dataclass(frozen=True)
class ShardedBackend:
    """Deterministic seed-spawned shards, in-process or on a process pool."""

    name: str = "sharded"

    def estimate(self, task, shots, *, seed, batch_size=1024,
                 max_failures=None, num_shards=1, num_workers=0) -> MonteCarloResult:
        from repro.parallel import estimate_failure_rate_sharded

        return estimate_failure_rate_sharded(
            task,
            shots,
            seed,
            num_shards=num_shards,
            num_workers=num_workers,
            batch_size=batch_size,
            max_failures=max_failures,
        )


class BackendRegistry:
    """The built-in strategies, resolved by backend name and shard count."""

    def __init__(self) -> None:
        self._strategies = {
            strategy.name: strategy
            for strategy in (EngineBackend(), ScalarBackend(), ShardedBackend(), DesimBackend())
        }

    def get(self, name: str):
        """The strategy named ``name`` (unknown names raise)."""
        strategy = self._strategies.get(name)
        if strategy is None:
            raise SimulationError(f"unknown backend {name!r}; built-in backends: {BACKEND_NAMES}")
        return strategy

    def resolve(self, backend: str, *, num_shards: int = 1):
        """Resolve a backend name for a run of ``num_shards`` shards.

        Returns ``(strategy, engine)``: the strategy runs the shots, and the
        engine is the name the run records -- :data:`AUTO_ENGINE` for the
        frame and sharded strategies, otherwise the strategy's own name.
        Resolution is a pure function of the request, so a spec replay
        always resolves to the same execution.
        """
        strategy = self.get(AUTO_ENGINE if backend == "auto" else backend)
        if strategy.name in ("scalar", "desim"):
            _reject_shards(strategy.name, num_shards)
            return strategy, strategy.name
        if num_shards > 1:
            return self._strategies["sharded"], AUTO_ENGINE
        return strategy, AUTO_ENGINE


def default_registry() -> BackendRegistry:
    """The process-wide registry of the built-in strategies.

    Its first call also compiles (or loads) the native frame kernel, so the
    first Monte-Carlo run does not pay for the build.
    """
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        build_kernel()
        _DEFAULT_REGISTRY = BackendRegistry()
    return _DEFAULT_REGISTRY


_DEFAULT_REGISTRY: BackendRegistry | None = None
