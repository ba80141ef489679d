"""Declarative experiment specifications.

An experiment is described by one frozen :class:`ExperimentSpec` composed of
four orthogonal sub-specs:

* :class:`NoiseSpec` -- what noise acts on the circuit (a uniform component
  failure rate with movement pinned, as in the Figure 7 sweep, or the
  technology parameters verbatim),
* :class:`CircuitSpec` -- which workload is simulated and how it is mapped
  onto the tile layout,
* :class:`SamplingSpec` -- how many Monte-Carlo shots, from which seed, with
  what early stop,
* :class:`ExecutionSpec` -- which execution strategy runs the shots (backend
  name or ``"auto"``, shard count, worker processes).

Every spec validates strictly on construction, serializes to JSON with
:meth:`ExperimentSpec.to_json` and round-trips exactly through
:meth:`ExperimentSpec.from_json` -- unknown fields and malformed values raise
:class:`~repro.exceptions.ParameterError` instead of being silently dropped,
so a spec file is either fully understood or rejected.  Execution never
mutates a spec: :func:`repro.api.run` copies it into the result it returns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace

from repro.arq.mapper import LayoutMapper
from repro.exceptions import ParameterError
from repro.iontrap.parameters import (
    CURRENT_PARAMETERS,
    EXPECTED_PARAMETERS,
    IonTrapParameters,
)
from repro.teleport.purification import (
    pumping_fixpoint_fidelity,
    purification_rounds_needed,
)

__all__ = [
    "PARAMETER_SETS",
    "EXPERIMENT_KINDS",
    "MACHINE_WORKLOADS",
    "LINK_PROTOCOLS",
    "NoiseSpec",
    "CircuitSpec",
    "SamplingSpec",
    "ExecutionSpec",
    "LinkSpec",
    "MachineSpec",
    "ExperimentSpec",
]

#: Named technology parameter sets a spec may reference (Table 1 columns).
PARAMETER_SETS: dict[str, IonTrapParameters] = {
    "expected": EXPECTED_PARAMETERS,
    "current": CURRENT_PARAMETERS,
}

#: Experiment kinds understood by :func:`repro.api.run`.
EXPERIMENT_KINDS = ("threshold_sweep", "logical_failure", "syndrome_rate", "machine_sim")

#: Workloads the ``machine_sim`` experiment can replay (mirrors
#: :data:`repro.desim.workload.WORKLOAD_KINDS`; kept literal here so spec
#: validation does not import the simulator).
MACHINE_WORKLOADS = ("adder", "toffoli_layers", "ghz")

#: Noise kinds: ``"uniform"`` sweeps all component rates together with the
#: movement rate pinned to the parameter set's expected value (the Figure 7
#: procedure); ``"technology"`` applies the parameter set's rates verbatim.
NOISE_KINDS = ("uniform", "technology")

#: Purification protocols a stochastic link may pump with (mirrors
#: :data:`repro.desim.links.PURIFICATION_PROTOCOLS`; kept literal here so
#: spec validation does not import the simulator).
LINK_PROTOCOLS = ("bennett", "deutsch")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParameterError(message)


def _from_mapping(cls, data: object, context: str):
    """Strictly build a spec dataclass from a JSON mapping."""
    if not isinstance(data, dict):
        raise ParameterError(f"{context} must be a JSON object, got {type(data).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ParameterError(f"unknown {context} fields: {unknown}")
    return cls(**data)


@dataclass(frozen=True)
class NoiseSpec:
    """What noise the experiment applies.

    Attributes
    ----------
    kind:
        ``"uniform"`` (gate/measure/prepare rates swept together, movement
        pinned to the parameter set's value -- the Figure 7 procedure) or
        ``"technology"`` (the parameter set's rates used verbatim).
    physical_rates:
        Swept component failure rates.  Required (non-empty) for ``"uniform"``
        noise; must be empty for ``"technology"`` noise.
    parameters:
        Name of the technology parameter set supplying the pinned movement
        rate (and, for ``"technology"`` noise, every rate): one of
        :data:`PARAMETER_SETS`.
    """

    kind: str = "uniform"
    physical_rates: tuple[float, ...] = ()
    parameters: str = "expected"

    def __post_init__(self) -> None:
        _require(self.kind in NOISE_KINDS, f"noise kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        _require(
            self.parameters in PARAMETER_SETS,
            f"unknown parameter set {self.parameters!r}; expected one of {sorted(PARAMETER_SETS)}",
        )
        rates = tuple(float(rate) for rate in self.physical_rates)
        object.__setattr__(self, "physical_rates", rates)
        for rate in rates:
            _require(0.0 < rate <= 1.0, f"physical rates must be probabilities in (0, 1], got {rate}")
        if self.kind == "technology":
            _require(not rates, "technology noise takes its rates from the parameter set; physical_rates must be empty")

    def parameter_set(self) -> IonTrapParameters:
        """The referenced technology parameter set."""
        return PARAMETER_SETS[self.parameters]


@dataclass(frozen=True)
class CircuitSpec:
    """Which workload is simulated and how it maps onto the tile layout.

    Attributes
    ----------
    workload:
        The simulated workload; currently ``"level1_ecc"`` -- one transversal
        logical gate followed by a full Steane error-correction cycle on a
        level-1 QLA block (the paper's Figure 7 / Section 4.1.1 workload).
    level:
        Recursion level for level-dependent experiments (the syndrome-rate
        analytic estimate); level-1 is the exactly-simulated level.
    verified_ancilla:
        Whether ancilla blocks are verified before use (the QLA design does).
    max_preparation_attempts:
        "Start Over" bound of the Figure 6 preparation circuit.
    two_qubit_move_cells / corner_turns / splits / measurement_move_cells:
        Tile-layout movement budget charged per two-qubit interaction, exactly
        the :class:`~repro.arq.mapper.LayoutMapper` fields.
    """

    workload: str = "level1_ecc"
    level: int = 1
    verified_ancilla: bool = True
    max_preparation_attempts: int = 20
    two_qubit_move_cells: int = 12
    corner_turns: int = 2
    splits: int = 1
    measurement_move_cells: int = 0

    def __post_init__(self) -> None:
        _require(self.workload == "level1_ecc", f"unknown workload {self.workload!r}; expected 'level1_ecc'")
        _require(self.level >= 1, "level must be >= 1")
        _require(self.max_preparation_attempts >= 1, "max_preparation_attempts must be >= 1")
        self.mapper()  # LayoutMapper validates the movement budget

    def mapper(self) -> LayoutMapper:
        """The layout mapper this spec describes."""
        return LayoutMapper(
            two_qubit_move_cells=self.two_qubit_move_cells,
            corner_turns=self.corner_turns,
            splits=self.splits,
            measurement_move_cells=self.measurement_move_cells,
        )


@dataclass(frozen=True)
class SamplingSpec:
    """How the Monte-Carlo estimate draws its shots.

    Attributes
    ----------
    shots:
        Monte-Carlo shots (per sweep point, for sweep experiments).  May be 0
        only for experiments with an analytic answer (the syndrome rate).
    seed:
        Root :class:`numpy.random.SeedSequence` entropy (a non-negative int,
        or a tuple of them).  ``None`` asks the runner to draw fresh entropy
        and record it in the result, so every run is replayable.
    max_failures:
        Optional early stop once this many failures have been observed.
    batch_size:
        Lanes simulated at once on the batched engines.
    """

    shots: int = 8192
    seed: int | tuple[int, ...] | None = None
    max_failures: int | None = None
    batch_size: int = 1024

    def __post_init__(self) -> None:
        _require(self.shots >= 0, "shots must be non-negative")
        _require(self.batch_size >= 1, "batch_size must be positive")
        if self.max_failures is not None:
            _require(self.max_failures >= 1, "max_failures must be positive when set")
        if self.seed is not None:
            seed = self.seed
            if isinstance(seed, list):
                seed = tuple(seed)
                object.__setattr__(self, "seed", seed)
            if isinstance(seed, tuple):
                _require(
                    len(seed) > 0 and all(isinstance(word, int) and word >= 0 for word in seed),
                    "a tuple seed must contain non-negative ints",
                )
            else:
                _require(isinstance(seed, int) and seed >= 0, "seed must be a non-negative int")


@dataclass(frozen=True)
class ExecutionSpec:
    """Which execution strategy runs the shots.

    Attributes
    ----------
    backend:
        One of the built-in execution backends
        (:data:`~repro.api.registry.BACKEND_NAMES`): ``"scalar"`` (the
        per-shot oracle), ``"frame"``, ``"sharded"``, ``"desim"`` (the
        machine simulator, ``machine_sim`` specs only), or ``"auto"``: the
        Pauli-frame ``"frame"`` engine.  ``"auto"`` and ``"frame"`` run
        through the ``"sharded"`` strategy whenever ``num_shards > 1``.
        Other names fail when the spec runs.
    num_shards:
        Shards of the deterministic shard plan.  The plan (not the worker
        count) decides the random streams, so a fixed ``(seed, num_shards)``
        reproduces bit for bit on any machine.
    num_workers:
        Worker processes executing shards; ``0``/``1`` runs them in-process.
        Never affects results, only wall-clock time.
    """

    backend: str = "auto"
    num_shards: int = 1
    num_workers: int = 0

    def __post_init__(self) -> None:
        _require(isinstance(self.backend, str) and bool(self.backend), "backend must be a non-empty string")
        _require(self.num_shards >= 1, "num_shards must be >= 1")
        _require(self.num_workers >= 0, "num_workers must be >= 0")


@dataclass(frozen=True)
class LinkSpec:
    """Grouped view of a machine spec's stochastic interconnect fields.

    Built by :meth:`MachineSpec.link` from the flat ``link_*`` fields (they
    stay flat on :class:`MachineSpec` so sweep axes can address them as
    ``machine.link_base_fidelity`` etc.).  The defaults describe the
    deterministic interconnect: every generation attempt succeeds, pairs are
    perfect, nothing is purified -- exactly today's scheduled-delivery
    model, bit for bit.

    Attributes
    ----------
    attempt_success_probability:
        Probability one heralded EPR generation attempt yields a pair.
    base_fidelity:
        Werner fidelity of a freshly generated pair, before transport.
    target_fidelity:
        Fidelity each channel segment is pumped to before swapping.
    purification_protocol:
        ``"bennett"`` or ``"deutsch"`` (:data:`LINK_PROTOCOLS`).
    repeater_segments:
        Repeater segments per route hop (>1 models subdivided long links,
        e.g. the photonic interconnect of a multi-chip array).
    channel_error_per_hop:
        Depolarizing probability per hop of channel transport.
    memory_decay_per_cycle:
        Depolarizing probability per cycle of memory wait.
    """

    attempt_success_probability: float = 1.0
    base_fidelity: float = 1.0
    target_fidelity: float = 1.0
    purification_protocol: str = "bennett"
    repeater_segments: int = 1
    channel_error_per_hop: float = 0.0
    memory_decay_per_cycle: float = 0.0

    def __post_init__(self) -> None:
        _require(
            0.0 < self.attempt_success_probability <= 1.0,
            f"link attempt success probability must be in (0, 1], got {self.attempt_success_probability}",
        )
        _require(
            0.25 <= self.base_fidelity <= 1.0,
            f"link base fidelity must be in [0.25, 1], got {self.base_fidelity}",
        )
        _require(
            0.25 <= self.target_fidelity <= 1.0,
            f"link target fidelity must be in [0.25, 1], got {self.target_fidelity}",
        )
        _require(
            self.purification_protocol in LINK_PROTOCOLS,
            f"unknown link purification protocol {self.purification_protocol!r}; "
            f"expected one of {LINK_PROTOCOLS}",
        )
        _require(self.repeater_segments >= 1, "a link needs at least one repeater segment per hop")
        _require(
            0.0 <= self.channel_error_per_hop < 1.0,
            f"link channel error per hop must be in [0, 1), got {self.channel_error_per_hop}",
        )
        _require(
            0.0 <= self.memory_decay_per_cycle < 1.0,
            f"link memory decay per cycle must be in [0, 1), got {self.memory_decay_per_cycle}",
        )
        elementary = self.elementary_fidelity
        rounds = purification_rounds_needed(
            initial_fidelity=elementary,
            target_fidelity=self.target_fidelity,
            elementary_fidelity=elementary,
            protocol=self.purification_protocol,
        )
        if rounds is None:
            fixpoint = pumping_fixpoint_fidelity(elementary, protocol=self.purification_protocol)
            raise ParameterError(
                f"link target fidelity {self.target_fidelity} is unreachable: pumping "
                f"{self.purification_protocol} pairs of elementary fidelity "
                f"{elementary:.6f} converges to {fixpoint:.6f}"
            )

    @property
    def is_deterministic(self) -> bool:
        """True when the link reduces to the scheduled-delivery model."""
        return (
            self.attempt_success_probability == 1.0
            and self.base_fidelity == 1.0
            and self.channel_error_per_hop == 0.0
            and self.memory_decay_per_cycle == 0.0
        )

    @property
    def elementary_fidelity(self) -> float:
        """Fidelity of a fresh segment pair after transport (Werner map)."""
        error = 1.0 - (1.0 - self.channel_error_per_hop) ** (1.0 / self.repeater_segments)
        return (1.0 - error) * self.base_fidelity + error / 4.0


@dataclass(frozen=True)
class MachineSpec:
    """The QLA machine and workload of a ``machine_sim`` replay.

    Attributes
    ----------
    rows, columns:
        Tile-array dimensions (one logical qubit per tile, row-major).
    bandwidth:
        Physical channel lanes per direction (the Section 5 knob).
    level:
        Recursion level whose Equation 1 timings drive the clock.
    workload:
        ``"adder"`` (ripple-carry adder kernels, the Shor datapath unit),
        ``"toffoli_layers"`` (the Section 5 concurrent-Toffoli stress
        workload) or ``"ghz"`` (a Clifford chain).
    workload_bits:
        Adder width / GHZ size.
    workload_parallel:
        Independent adder units running side by side.
    toffolis_per_layer / workload_depth / workload_seed:
        Shape and operand-placement seed of the ``toffoli_layers`` workload.
    cycle_time_microseconds:
        Length of one simulation cycle.
    transfers_per_lane_per_window / max_deferral_windows:
        Greedy EPR-scheduler policy.
    num_ancilla_factories:
        Toffoli ancilla factories in the machine-wide pool.
    ancilla_jitter_cycles:
        Inclusive upper bound of the seeded per-production delay (0 keeps
        factory production fully deterministic).
    link_attempt_success_probability / link_base_fidelity /
    link_target_fidelity / link_purification_protocol /
    link_repeater_segments / link_channel_error_per_hop /
    link_memory_decay_per_cycle:
        Stochastic-interconnect configuration, grouped by :meth:`link` into
        a :class:`LinkSpec` (see its docstring).  Kept flat here so sweep
        axes can address them (``machine.link_base_fidelity``); the
        defaults are the deterministic interconnect, which replays the
        original scheduled-delivery model bit for bit.
    """

    rows: int = 8
    columns: int = 8
    bandwidth: int = 2
    level: int = 2
    workload: str = "adder"
    workload_bits: int = 8
    workload_parallel: int = 1
    toffolis_per_layer: int = 16
    workload_depth: int = 20
    workload_seed: int = 2005
    cycle_time_microseconds: float = 1.0
    transfers_per_lane_per_window: int = 3
    max_deferral_windows: int = 4
    num_ancilla_factories: int = 4
    ancilla_jitter_cycles: int = 0
    link_attempt_success_probability: float = 1.0
    link_base_fidelity: float = 1.0
    link_target_fidelity: float = 1.0
    link_purification_protocol: str = "bennett"
    link_repeater_segments: int = 1
    link_channel_error_per_hop: float = 0.0
    link_memory_decay_per_cycle: float = 0.0

    def __post_init__(self) -> None:
        _require(self.rows >= 1 and self.columns >= 1, "the tile array needs positive dimensions")
        _require(self.bandwidth >= 1, "bandwidth must be at least one lane per direction")
        _require(self.level >= 1, "machine replay is defined for recursion level >= 1")
        _require(
            self.workload in MACHINE_WORKLOADS,
            f"unknown machine workload {self.workload!r}; expected one of {MACHINE_WORKLOADS}",
        )
        _require(self.workload_bits >= 1, "workload_bits must be >= 1")
        _require(self.workload_parallel >= 1, "workload_parallel must be >= 1")
        _require(self.toffolis_per_layer >= 1, "toffolis_per_layer must be >= 1")
        _require(self.workload_depth >= 1, "workload_depth must be >= 1")
        _require(self.workload_seed >= 0, "workload_seed must be a non-negative int")
        _require(self.cycle_time_microseconds > 0.0, "cycle_time_microseconds must be positive")
        _require(self.transfers_per_lane_per_window >= 1, "a lane carries at least one transfer per window")
        _require(self.max_deferral_windows >= 0, "max_deferral_windows cannot be negative")
        _require(self.num_ancilla_factories >= 1, "the machine needs at least one ancilla factory")
        _require(self.ancilla_jitter_cycles >= 0, "ancilla_jitter_cycles cannot be negative")
        self.link()  # LinkSpec validates the interconnect configuration
        tiles = self.rows * self.columns
        needed = self.workload_qubits
        _require(
            needed <= tiles,
            f"the {self.workload!r} workload needs {needed} tiles but the array has {tiles}",
        )

    @property
    def workload_qubits(self) -> int:
        """Logical qubits (= tiles) the configured workload occupies."""
        if self.workload == "adder":
            return self.workload_parallel * (3 * self.workload_bits + 1)
        if self.workload == "toffoli_layers":
            # The stress workload spreads over the whole array; it only needs
            # room for the disjoint operand triples of one layer.
            return max(3 * self.toffolis_per_layer, 1)
        return self.workload_bits  # ghz

    def link(self) -> LinkSpec:
        """The stochastic-interconnect configuration this spec describes."""
        return LinkSpec(
            attempt_success_probability=self.link_attempt_success_probability,
            base_fidelity=self.link_base_fidelity,
            target_fidelity=self.link_target_fidelity,
            purification_protocol=self.link_purification_protocol,
            repeater_segments=self.link_repeater_segments,
            channel_error_per_hop=self.link_channel_error_per_hop,
            memory_decay_per_cycle=self.link_memory_decay_per_cycle,
        )

    @property
    def cycle_time_seconds(self) -> float:
        """Cycle length in seconds."""
        return self.cycle_time_microseconds * 1.0e-6


@dataclass(frozen=True)
class ExperimentSpec:
    """One complete, declarative experiment description.

    Attributes
    ----------
    experiment:
        ``"threshold_sweep"`` (Figure 7: level-1 failure rate per swept
        physical rate plus the fitted level-2 curve and threshold),
        ``"logical_failure"`` (a single level-1 failure-rate estimate),
        ``"syndrome_rate"`` (Section 4.1.1 non-trivial-syndrome rate,
        analytic plus optional Monte Carlo), or ``"machine_sim"`` (a
        deterministic cycle-level replay of a compiled workload on the QLA
        machine model).
    noise / circuit / sampling / execution:
        The composed sub-specs; see their docstrings.
    machine:
        The machine/workload description of a ``machine_sim`` replay
        (defaults applied when omitted); must be absent for the Monte-Carlo
        experiment kinds.
    """

    experiment: str
    noise: NoiseSpec
    circuit: CircuitSpec = field(default_factory=CircuitSpec)
    sampling: SamplingSpec = field(default_factory=SamplingSpec)
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    machine: MachineSpec | None = None

    def __post_init__(self) -> None:
        _require(
            self.experiment in EXPERIMENT_KINDS,
            f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENT_KINDS}",
        )
        _require(isinstance(self.noise, NoiseSpec), "noise must be a NoiseSpec")
        _require(isinstance(self.circuit, CircuitSpec), "circuit must be a CircuitSpec")
        _require(isinstance(self.sampling, SamplingSpec), "sampling must be a SamplingSpec")
        _require(isinstance(self.execution, ExecutionSpec), "execution must be an ExecutionSpec")
        if self.experiment == "machine_sim":
            if self.machine is None:
                object.__setattr__(self, "machine", MachineSpec())
            _require(isinstance(self.machine, MachineSpec), "machine must be a MachineSpec")
            _require(
                self.noise.kind == "technology",
                "machine_sim replays the technology timings; use technology noise",
            )
            _require(
                self.sampling.shots == 0,
                "machine_sim is a deterministic replay, not a Monte-Carlo estimate; set shots=0",
            )
            _require(
                self.execution.num_shards == 1,
                "machine_sim runs one replay; num_shards must be 1",
            )
            return
        _require(
            self.machine is None,
            f"a machine spec only applies to machine_sim experiments, not {self.experiment!r}",
        )
        if self.experiment == "threshold_sweep":
            _require(self.noise.kind == "uniform", "a threshold sweep needs uniform (swept) noise")
            _require(len(self.noise.physical_rates) >= 1, "the threshold sweep needs at least one physical rate")
            _require(self.sampling.shots > 0, "the threshold sweep needs a positive shot count")
        elif self.experiment == "logical_failure":
            if self.noise.kind == "uniform":
                _require(
                    len(self.noise.physical_rates) == 1,
                    "logical_failure sweeps nothing: give exactly one physical rate (or technology noise)",
                )
            _require(self.sampling.shots > 0, "logical_failure needs a positive shot count")
        else:  # syndrome_rate
            _require(self.noise.kind == "technology", "the syndrome rate is defined at the technology parameters")
            if self.circuit.level > 1:
                _require(
                    self.sampling.shots == 0,
                    "Monte-Carlo syndrome measurement is only available at level 1; "
                    "set shots=0 for the analytic estimate",
                )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """The spec as a JSON-ready dictionary."""
        def spec_dict(spec) -> dict:
            out = {}
            for f in fields(spec):
                value = getattr(spec, f.name)
                out[f.name] = list(value) if isinstance(value, tuple) else value
            return out

        out = {
            "experiment": self.experiment,
            "noise": spec_dict(self.noise),
            "circuit": spec_dict(self.circuit),
            "sampling": spec_dict(self.sampling),
            "execution": spec_dict(self.execution),
        }
        if self.machine is not None:
            machine = spec_dict(self.machine)
            # The link_* fields appeared with the stochastic interconnect;
            # at their defaults (the deterministic interconnect) they are
            # omitted, so earlier specs keep their exact canonical JSON --
            # cache keys, fault keys and starter files do not shift.
            for f in fields(self.machine):
                if f.name.startswith("link_") and machine[f.name] == f.default:
                    del machine[f.name]
            out["machine"] = machine
        return out

    def to_json(self, indent: int | None = None) -> str:
        """Serialize to JSON; ``from_json`` round-trips exactly."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: object) -> "ExperimentSpec":
        """Strictly rebuild a spec from a dictionary (unknown keys raise)."""
        if not isinstance(data, dict):
            raise ParameterError(f"an experiment spec must be a JSON object, got {type(data).__name__}")
        allowed = {"experiment", "noise", "circuit", "sampling", "execution", "machine"}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ParameterError(f"unknown experiment spec fields: {unknown}")
        if "experiment" not in data:
            raise ParameterError("an experiment spec needs an 'experiment' field")
        if "noise" not in data:
            raise ParameterError("an experiment spec needs a 'noise' field")
        try:
            return cls(
                experiment=data["experiment"],
                noise=_from_mapping(NoiseSpec, data["noise"], "noise spec"),
                circuit=_from_mapping(CircuitSpec, data.get("circuit", {}), "circuit spec"),
                sampling=_from_mapping(SamplingSpec, data.get("sampling", {}), "sampling spec"),
                execution=_from_mapping(ExecutionSpec, data.get("execution", {}), "execution spec"),
                machine=(
                    _from_mapping(MachineSpec, data["machine"], "machine spec")
                    if "machine" in data
                    else None
                ),
            )
        except TypeError as error:  # e.g. a field of the wrong JSON type
            raise ParameterError(f"malformed experiment spec: {error}") from error

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a JSON document produced by :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ParameterError(f"experiment spec is not valid JSON: {error}") from error
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------

    def with_seed(self, seed: int | tuple[int, ...] | None) -> "ExperimentSpec":
        """A copy with the sampling seed pinned (or cleared with ``None``).

        The runner uses this to materialize fresh entropy into the spec it
        echoes; sweeps use it to pin coordinate-derived per-point seeds, and
        ``with_seed(None)`` turns a materialized spec back into a template
        (e.g. to use it as a sweep base).
        """
        return replace(self, sampling=replace(self.sampling, seed=seed))
