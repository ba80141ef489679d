"""Pluggable execution backends behind one registry.

The library runs a Monte-Carlo workload in one of a few ways -- a scalar
per-shot oracle, the bit-packed Pauli-frame engine, and a sharded
process-pool layer.  Instead of every caller hard-coding backend branches,
each strategy registers here as a named :class:`ExecutionBackend` with
:class:`BackendCapabilities`, and :meth:`BackendRegistry.resolve` maps a
request onto a strategy and an engine:

* ``"auto"`` always means :data:`AUTO_ENGINE` -- the ``"frame"`` engine,
  the library's one batched engine;
* ``num_shards > 1`` requires (and selects) a backend with
  ``supports_sharding`` -- the ``"sharded"`` strategy;
* a backend advertising ``max_qubits`` refuses registers it cannot hold.

Third-party strategies plug in through :meth:`BackendRegistry.register` and
run when requested by name; the built-ins live in :func:`default_registry`.

Every backend consumes a *shard task* -- a picklable callable
``(rng, count) -> (count,) bool array`` marking failing shots, optionally with
a ``run_single(rng) -> bool`` method for the scalar strategy (see
:class:`repro.parallel.Level1ShardTask`) -- and returns a
:class:`~repro.stabilizer.monte_carlo.MonteCarloResult`.  Seeded runs follow
the deterministic SeedSequence shard plan of :mod:`repro.parallel`, so one
``(seed, num_shards)`` pair reproduces bit for bit on any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Protocol, runtime_checkable

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
    "BackendCapabilities",
    "ExecutionBackend",
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


@dataclass(frozen=True)
class BackendCapabilities:
    """What an execution backend can do.

    Attributes
    ----------
    supports_batching:
        Whether the backend runs many shots per call (vectorized engines);
        non-batching ones (the per-shot oracle) run shot by shot.
    supports_sharding:
        Whether the backend splits shots into deterministic seed-spawned
        shards that may run on a process pool.
    max_qubits:
        Largest register the backend can simulate, or None for unlimited.
    """

    supports_batching: bool = True
    supports_sharding: bool = False
    max_qubits: int | None = None

    def admits(self, num_qubits: int | None) -> bool:
        """Whether a register of ``num_qubits`` fits this backend."""
        return self.max_qubits is None or num_qubits is None or num_qubits <= self.max_qubits


@runtime_checkable
class ExecutionBackend(Protocol):
    """A named Monte-Carlo execution strategy.

    Implementations expose a ``name``, their :class:`BackendCapabilities` and
    an :meth:`estimate` that runs ``shots`` of a shard task and returns a
    :class:`~repro.stabilizer.monte_carlo.MonteCarloResult`.
    """

    name: str
    capabilities: BackendCapabilities

    def estimate(
        self,
        task: Callable[[np.random.Generator, int], np.ndarray],
        shots: int,
        *,
        seed: int | tuple[int, ...] | np.random.SeedSequence | None = None,
        rng: np.random.Generator | None = None,
        batch_size: int = 1024,
        max_failures: int | None = None,
        num_shards: int = 1,
        num_workers: int = 0,
    ) -> MonteCarloResult: ...


def _seeded_rng(
    seed: int | tuple[int, ...] | np.random.SeedSequence | None,
    rng: np.random.Generator | None,
) -> np.random.Generator:
    """One generator from either an explicit rng or a seed.

    A seed is coerced to a SeedSequence and *spawned once*, matching the
    single-shard plan of :mod:`repro.parallel` exactly -- so an unsharded
    seeded run and a ``num_shards=1`` sharded run of the same seed are
    bit-for-bit identical.
    """
    if rng is not None:
        if seed is not None:
            raise ParameterError("pass either rng or seed, not both")
        return rng
    if seed is None:
        return np.random.default_rng()
    from repro.parallel import as_seed_sequence

    return np.random.default_rng(as_seed_sequence(seed).spawn(1)[0])


def _reject_shards(name: str, num_shards: int) -> None:
    if num_shards > 1:
        raise ParameterError(
            f"backend {name!r} does not support sharding (num_shards={num_shards}); "
            "select the 'sharded' strategy or num_shards=1"
        )


@dataclass(frozen=True)
class ScalarBackend:
    """The per-shot oracle: one tableau, one shot at a time.

    Slow but simple -- kept registered as the cross-validation reference for
    the vectorized engines.  Requires the task to expose ``run_single``.
    """

    name: str = "scalar"
    capabilities: BackendCapabilities = BackendCapabilities(
        supports_batching=False, supports_sharding=False
    )

    def estimate(self, task, shots, *, seed=None, rng=None, batch_size=1024,
                 max_failures=None, num_shards=1, num_workers=0) -> MonteCarloResult:
        _reject_shards(self.name, num_shards)
        run_single = getattr(task, "run_single", None)
        if run_single is None:
            raise ParameterError(
                f"the scalar backend needs a task with a run_single(rng) method, got {type(task).__name__}"
            )
        return estimate_failure_rate(run_single, shots, _seeded_rng(seed, rng), max_failures=max_failures)


@dataclass(frozen=True)
class EngineBackend:
    """The batched Pauli-frame engine (``"frame"``), in one process.

    Shard tasks always run on the batched engine; this strategy only
    supplies the chunked estimate loop.
    """

    name: str = AUTO_ENGINE
    capabilities: BackendCapabilities = BackendCapabilities()

    def estimate(self, task, shots, *, seed=None, rng=None, batch_size=1024,
                 max_failures=None, num_shards=1, num_workers=0) -> MonteCarloResult:
        _reject_shards(self.name, num_shards)
        return estimate_failure_rate_batched(
            task, shots, _seeded_rng(seed, rng), batch_size=batch_size, max_failures=max_failures
        )


@dataclass(frozen=True)
class DesimBackend:
    """The discrete-event machine simulator as a registry strategy.

    Unlike the Monte-Carlo strategies it does not estimate a failure rate --
    it deterministically replays a compiled workload cycle-by-cycle --  so it
    is registered non-batching/non-sharding (never auto-selected for shot
    estimation) and exposes :meth:`simulate` instead of a useful
    :meth:`estimate`.
    """

    name: str = "desim"
    capabilities: BackendCapabilities = BackendCapabilities(
        supports_batching=False, supports_sharding=False
    )

    def estimate(self, task, shots, *, seed=None, rng=None, batch_size=1024,
                 max_failures=None, num_shards=1, num_workers=0) -> MonteCarloResult:
        raise ParameterError(
            "the desim backend replays compiled circuits cycle-by-cycle; it has "
            "no Monte-Carlo estimate -- run an ExperimentSpec(experiment='machine_sim')"
        )

    def simulate(self, spec) -> dict:
        """Replay a ``machine_sim`` spec and return its JSON-ready value."""
        # Imported lazily: the registry must stay importable without pulling
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
    capabilities: BackendCapabilities = BackendCapabilities(
        supports_batching=True, supports_sharding=True
    )

    def estimate(self, task, shots, *, seed=None, rng=None, batch_size=1024,
                 max_failures=None, num_shards=1, num_workers=0) -> MonteCarloResult:
        if seed is None:
            raise ParameterError("the sharded backend needs a seed; its shard plan is seed-derived")
        if rng is not None:
            raise ParameterError("the sharded backend takes a seed, not a generator")
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
    """Named execution strategies, resolved by name and capability."""

    def __init__(self) -> None:
        self._backends: dict[str, ExecutionBackend] = {}

    # -- registration ------------------------------------------------------

    def register(self, backend: ExecutionBackend, replace: bool = False) -> ExecutionBackend:
        """Register a backend under its ``name``; duplicate names raise unless ``replace``."""
        name = backend.name
        if not isinstance(name, str) or not name or name == "auto":
            raise ParameterError(f"invalid backend name {name!r}")
        if name in self._backends and not replace:
            raise ParameterError(f"backend {name!r} is already registered (pass replace=True to override)")
        self._backends[name] = backend
        return backend

    def unregister(self, name: str) -> None:
        """Remove a registered backend (unknown names raise)."""
        if name not in self._backends:
            raise ParameterError(f"backend {name!r} is not registered")
        del self._backends[name]

    def get(self, name: str) -> ExecutionBackend:
        """The backend registered under ``name`` (unknown names raise)."""
        backend = self._backends.get(name)
        if backend is None:
            raise SimulationError(
                f"unknown backend {name!r}; registered backends: {self.names()}"
            )
        return backend

    def names(self) -> tuple[str, ...]:
        """The registered backend names, in registration order."""
        return tuple(self._backends)

    def __contains__(self, name: str) -> bool:
        return name in self._backends

    def __iter__(self) -> Iterator[ExecutionBackend]:
        return iter(self._backends.values())

    # -- resolution --------------------------------------------------------

    def describe_exclusions(self, num_qubits: int | None = None) -> str:
        """One line per registered backend: what it is, or which capability excludes it.

        The diagnostic body of the capability-mismatch errors raised by
        :meth:`resolve`, so a failed resolution names every registered
        backend together with the capability that rules it out rather than
        just the requested name.
        """
        lines = []
        for backend in self:
            caps = backend.capabilities
            if not caps.admits(num_qubits):
                reason = f"excluded: max_qubits={caps.max_qubits} < {num_qubits} qubits"
            elif not caps.supports_batching:
                reason = "per-shot: supports_batching=False"
            elif caps.supports_sharding:
                reason = "sharding strategy: supports_sharding=True"
            else:
                reason = "batched engine"
            lines.append(f"{backend.name!r}: {reason}")
        return "; ".join(lines) if lines else "no backends registered"

    def resolve(
        self,
        backend: str,
        *,
        shots: int,
        batch_size: int,
        num_shards: int = 1,
        num_qubits: int | None = None,
    ) -> tuple[ExecutionBackend, str]:
        """Resolve a (possibly ``"auto"``) backend request for a workload.

        Returns ``(strategy, engine)``: the strategy is the registered backend
        whose :meth:`~ExecutionBackend.estimate` will run the shots, and the
        engine is the name the run records: :data:`AUTO_ENGINE` for every
        sharded run, otherwise the strategy's own name (``"scalar"`` for the
        per-shot oracle).  ``"auto"`` names
        :data:`AUTO_ENGINE`; ``shots`` and ``batch_size`` describe the
        workload, and every value of them resolves the same way.  Resolution
        is a pure function of the request, so a spec replay always resolves
        to the same execution.
        """
        requested = self.get(AUTO_ENGINE if backend == "auto" else backend)
        caps = requested.capabilities
        if not caps.admits(num_qubits):
            raise SimulationError(
                f"backend {requested.name!r} holds at most {caps.max_qubits} "
                f"qubits; the workload needs {num_qubits}.  Registered backends: "
                + self.describe_exclusions(num_qubits)
            )
        if not caps.supports_batching:
            # A non-batching oracle (the scalar per-shot loop) runs as-is.
            _reject_shards(requested.name, num_shards)
            return requested, requested.name
        if caps.supports_sharding:
            # Its per-shard batches run on the batched engine.
            return requested, AUTO_ENGINE
        if num_shards > 1:
            # Shard tasks run on the batched engine, so a third-party
            # engine cannot serve as theirs.
            sharded = [
                b for b in self
                if b.capabilities.supports_sharding and b.capabilities.admits(num_qubits)
            ]
            if not sharded:
                raise SimulationError(
                    f"num_shards={num_shards} needs a backend with supports_sharding; none is registered"
                )
            return sharded[0], AUTO_ENGINE
        return requested, requested.name


def default_registry() -> BackendRegistry:
    """The process-wide registry with the built-in strategies registered.

    Its first call also compiles (or loads) the native frame kernel, so the
    first Monte-Carlo run does not pay for the build.
    """
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        build_kernel()
        registry = BackendRegistry()
        registry.register(ScalarBackend())
        registry.register(EngineBackend())
        registry.register(ShardedBackend())
        registry.register(DesimBackend())
        _DEFAULT_REGISTRY = registry
    return _DEFAULT_REGISTRY


_DEFAULT_REGISTRY: BackendRegistry | None = None
