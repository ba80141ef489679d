"""Analysis over sweep results: tidy rows, Pareto fronts, paper drivers.

Three layers, each consuming the one before it:

* :func:`tidy_rows` flattens a :class:`~repro.explore.runner.SweepResult`
  into one dictionary per grid point -- axis coordinates as columns next to
  the experiment's headline metrics -- the shape every table formatter and
  dataframe constructor expects.
* :func:`pareto_front` selects the non-dominated rows under named
  minimize/maximize objectives (runtime vs. area vs. failure rate -- the
  paper's design-space trade).
* :func:`reproduce_table2`, :func:`reproduce_fig9` and
  :func:`reproduce_fig9_noisy` are the one-call reproduction drivers for
  the paper's headline artifacts, built on the sweep/cache machinery so
  repeated calls are cache hits.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import ParameterError
from repro.stabilizer.monte_carlo import MonteCarloResult

__all__ = [
    "point_row",
    "tidy_rows",
    "pareto_front",
    "reproduce_table2",
    "reproduce_fig9",
    "reproduce_fig9_noisy",
    "FIG9_MACHINE",
    "design_space_starter",
]


def _machine_sim_metrics(value: dict) -> dict:
    metrics = {
        "makespan_cycles": value["makespan_cycles"],
        "makespan_seconds": value["makespan_seconds"],
        "critical_path_cycles": value["critical_path_cycles"],
        "stall_cycles": value["stall_cycles"],
        "exposed_stall_cycles": value["exposed_stall_cycles"],
        "epr_deferred": value["epr_deferred"],
        "epr_unserved": value["epr_unserved"],
        "peak_edge_utilization": value["peak_edge_utilization"],
    }
    # Link columns appeared with the stochastic interconnect; .get keeps
    # rows buildable from result values cached by older library versions.
    for column in (
        "link_generation_attempts",
        "link_purification_rounds",
        "link_mean_delivered_fidelity",
        "link_generation_stall_cycles",
        "link_purification_stall_cycles",
    ):
        if column in value:
            metrics[column] = value[column]
    return metrics


def _threshold_sweep_metrics(value) -> dict:
    return {
        "threshold": value.threshold.threshold,
        "threshold_lower": value.threshold.lower,
        "threshold_upper": value.threshold.upper,
        "num_rates": len(value.physical_rates),
        "max_level1_rate": max(value.level1_rates) if value.level1_rates else 0.0,
    }


def _logical_failure_metrics(value) -> dict:
    lower, upper = value.confidence_interval()
    return {
        "failures": value.failures,
        "trials": value.trials,
        "failure_rate": value.failure_rate,
        "failure_rate_lower": lower,
        "failure_rate_upper": upper,
    }


def _syndrome_rate_metrics(value: dict) -> dict:
    metrics = {"analytic": value["analytic"], "level": value["level"]}
    if "measured" in value:
        trials = int(value["trials"])
        measured = MonteCarloResult(failures=round(value["measured"] * trials), trials=trials)
        metrics["measured"] = value["measured"]
        metrics["measured_lower"], metrics["measured_upper"] = measured.confidence_interval()
    return metrics


_METRIC_EXTRACTORS = {
    "machine_sim": _machine_sim_metrics,
    "threshold_sweep": _threshold_sweep_metrics,
    "logical_failure": _logical_failure_metrics,
    "syndrome_rate": _syndrome_rate_metrics,
}


def tidy_rows(sweep_result) -> list[dict]:
    """One flat dictionary per grid point: coordinates + headline metrics.

    Every row carries the point's axis coordinates under their axis paths
    (``"machine.bandwidth"``, ``"circuit.level"``, ...), the experiment
    kind, the resolved backend/engine, the cache status, the retry/failure
    accounting (``failed``, ``attempts``), the per-point wall times, and
    the experiment's headline metrics -- makespan/stalls for ``machine_sim``,
    failure counts and rate for ``logical_failure``, the curve crossing
    and its band for ``threshold_sweep`` (``threshold`` is None, with a
    one-sided band, when the curves do not cross in the swept range), the
    analytic (and measured, if sampled) rate for ``syndrome_rate``.  A
    Monte-Carlo rate comes with its 95% Wilson interval
    (``failure_rate_lower``/``failure_rate_upper``,
    ``measured_lower``/``measured_upper``); the interval is derived from the
    stored counts, so it is in no result value, digest or cache key.

    Two wall-time columns, with different provenance: ``wall_time_seconds``
    is the engine-measured execution time recorded inside the
    :class:`~repro.api.results.RunResult` (stable across cache replays),
    while ``point_wall_seconds`` is what *this sweep* spent on the point
    across all attempts (``0.0`` for cache hits) -- the column that makes
    slow grid regions visible without re-running anything.

    Failed points (partial results) produce rows too: coordinates plus
    ``failed=True``, the error type/message, and the attempt accounting --
    no backend/engine/metric columns, because nothing executed to
    completion.
    """
    return [point_row(point) for point in sweep_result.points]


def point_row(point) -> dict:
    """The tidy row for one :class:`~repro.explore.runner.SweepPointResult`.

    This is :func:`tidy_rows` for a single point -- the streaming layer
    (:class:`~repro.explore.runner.SweepStream`) builds rows one at a time
    as points land, from exactly the same definition, so the incremental
    rows and the end-of-sweep rows can never disagree.
    """
    row = dict(point.coordinates)
    if not point.ok:
        row.update(
            {
                "experiment": point.spec.experiment,
                "cached": point.cached,
                "failed": True,
                "error_type": point.error.exception_type,
                "error_message": point.error.message,
                "attempts": point.attempts,
                "point_wall_seconds": point.wall_time_seconds,
            }
        )
        return row
    experiment = point.result.spec.experiment
    row.update(
        {
            "experiment": experiment,
            "backend": point.result.backend,
            "engine": point.result.engine,
            "cached": point.cached,
            "failed": False,
            "attempts": point.attempts,
            "wall_time_seconds": point.result.wall_time_seconds,
            "point_wall_seconds": point.wall_time_seconds,
        }
    )
    row.update(_METRIC_EXTRACTORS[experiment](point.result.value))
    return row


def pareto_front(
    rows: Sequence[dict],
    minimize: Sequence[str] = (),
    maximize: Sequence[str] = (),
) -> list[dict]:
    """The non-dominated rows under the named objectives.

    A row is dominated when some other row is at least as good on *every*
    objective (lower on each ``minimize`` key, higher on each ``maximize``
    key) and strictly better on at least one.  The returned rows keep their
    input order; ties (rows with identical objective vectors) are all kept.

    >>> rows = [
    ...     {"t": 1.0, "area": 9.0},
    ...     {"t": 2.0, "area": 4.0},
    ...     {"t": 2.0, "area": 5.0},
    ... ]
    >>> [sorted(r.items()) for r in pareto_front(rows, minimize=("t", "area"))]
    [[('area', 9.0), ('t', 1.0)], [('area', 4.0), ('t', 2.0)]]
    """
    objectives = [(key, -1.0) for key in minimize] + [(key, +1.0) for key in maximize]
    if not objectives:
        raise ParameterError("pareto_front needs at least one objective")
    seen = set()
    for key, _ in objectives:
        if key in seen:
            raise ParameterError(f"objective {key!r} named twice")
        seen.add(key)

    def vector(row: dict) -> tuple[float, ...]:
        try:
            return tuple(sign * float(row[key]) for key, sign in objectives)
        except KeyError as error:
            raise ParameterError(f"row is missing objective {error.args[0]!r}") from error

    vectors = [vector(row) for row in rows]
    front = []
    for index, candidate in enumerate(vectors):
        dominated = any(
            all(o >= c for o, c in zip(other, candidate))
            and any(o > c for o, c in zip(other, candidate))
            for j, other in enumerate(vectors)
            if j != index
        )
        if not dominated:
            front.append(rows[index])
    return front


def reproduce_table2(
    bit_sizes: Sequence[int] = (128, 512, 1024, 2048),
    ecc_time_override_seconds: float | None = 0.043,
) -> list[dict]:
    """Regenerate the paper's Table 2 next to its published values.

    Returns one row per modulus size with the model's logical-qubit,
    Toffoli-gate, total-gate, chip-area and execution-time columns, the
    paper's published value for each, and the relative error.  The default
    pins the paper's 0.043 s level-2 ECC step (the published table's basis);
    pass ``ecc_time_override_seconds=None`` to use the model-derived step
    time instead.  Purely analytic -- no Monte Carlo, no cache involved.
    """
    from repro.apps.shor import PAPER_TABLE2, ShorResourceModel, table2_rows

    model = ShorResourceModel(ecc_time_override_seconds=ecc_time_override_seconds)
    rows = []
    for row in table2_rows(bit_sizes, model=model):
        bits = int(row["bits"])
        out = dict(row)
        if bits in PAPER_TABLE2:
            for column, paper_value in PAPER_TABLE2[bits].items():
                out[f"paper_{column}"] = paper_value
                if paper_value:
                    out[f"rel_err_{column}"] = abs(row[column] - paper_value) / paper_value
        rows.append(out)
    return rows


#: The Figure 9 reproduction machine: seven 4-bit ripple-carry adders side by
#: side on a 10x10 tile array, an ancilla-factory pool large enough that the
#: Toffoli pipeline never queues, and the tightest channel policy (one
#: transfer per lane per window, no deferral budget).  Under that pressure a
#: single-lane interconnect cannot deliver all EPR pairs on time and the
#: exposed lateness lands on the carry chains; a second lane hides that
#: lateness again (runtime drops back to the communication-free floor and
#: stalls shrink by an order of magnitude), and stalls vanish entirely by
#: four lanes -- the paper's Section 5 conclusion that modest extra
#: bandwidth suffices.
FIG9_MACHINE: dict[str, object] = {
    "rows": 10,
    "columns": 10,
    "level": 2,
    "workload": "adder",
    "workload_bits": 4,
    "workload_parallel": 7,
    "num_ancilla_factories": 64,
    "transfers_per_lane_per_window": 1,
    "max_deferral_windows": 0,
}


def reproduce_fig9(
    bandwidths: Sequence[int] = (1, 2, 4),
    *,
    seed: int = 2005,
    cache=None,
    use_cache: bool = True,
) -> list[dict]:
    """The paper's interconnect-bandwidth trend as one cached sweep.

    Replays the :data:`FIG9_MACHINE` workload at each bandwidth through the
    design-space explorer and returns tidy rows sorted by bandwidth.  The
    paper's trend holds in the rows: runtime (``makespan_seconds``) decreases
    monotonically as bandwidth grows -- strictly from one lane to two, where
    it reaches the communication-free floor -- and communication stalls
    (``stall_cycles``) decrease strictly with every added lane, reaching
    zero at bandwidth 4 on this workload.  Repeated calls are pure cache
    hits.
    """
    from repro.api.specs import (
        ExecutionSpec,
        ExperimentSpec,
        MachineSpec,
        NoiseSpec,
        SamplingSpec,
    )
    from repro.explore.runner import run_sweep
    from repro.explore.sweep import SweepAxis, SweepSpec

    base = ExperimentSpec(
        experiment="machine_sim",
        noise=NoiseSpec(kind="technology", parameters="expected"),
        sampling=SamplingSpec(shots=0, seed=None),
        execution=ExecutionSpec(backend="desim"),
        machine=MachineSpec(**FIG9_MACHINE),
    )
    sweep = SweepSpec(
        base=base,
        axes=(SweepAxis(path="machine.bandwidth", values=tuple(bandwidths)),),
        seed=seed,
    )
    result = run_sweep(sweep, cache=cache, use_cache=use_cache)
    rows = tidy_rows(result)
    rows.sort(key=lambda row: row["machine.bandwidth"])
    return rows


def reproduce_fig9_noisy(
    base_fidelities: Sequence[float] = (0.99, 0.95, 0.94),
    protocols: Sequence[str] = ("bennett", "deutsch"),
    *,
    bandwidth: int = 2,
    target_fidelity: float = 0.96,
    seed: int = 2005,
    cache=None,
    use_cache: bool = True,
) -> list[dict]:
    """Figure 9's bandwidth conclusion under a *stochastic* interconnect.

    The deterministic :func:`reproduce_fig9` shows two lanes hiding all
    communication; this driver holds the bandwidth fixed and sweeps the
    physics instead: elementary EPR fidelity crossed with the purification
    protocol, on the same :data:`FIG9_MACHINE` workload.  At the default
    0.96 target, base fidelities at or above the target need no
    purification; each step below it adds Bennett pumping rounds (0.95 needs
    one, 0.94 two), and -- under the tight Figure 9 channel policy, where
    every pumping round streams a sacrificial pair through a full bandwidth
    window -- makespan rises strictly with each added round.  Deutsch
    pumping converges faster (its map is stronger per round), so its rows
    bound the Bennett rows from below: the protocol choice is visible in
    the makespan column, which is the point of sweeping it as an axis.

    Returns tidy rows (link columns included) sorted by protocol then by
    descending base fidelity.  Seed-deterministic: repeated calls produce
    identical rows, and identical trace digests per point.
    """
    from repro.api.specs import (
        ExecutionSpec,
        ExperimentSpec,
        MachineSpec,
        NoiseSpec,
        SamplingSpec,
    )
    from repro.explore.runner import run_sweep
    from repro.explore.sweep import SweepAxis, SweepSpec

    base = ExperimentSpec(
        experiment="machine_sim",
        noise=NoiseSpec(kind="technology", parameters="expected"),
        sampling=SamplingSpec(shots=0, seed=None),
        execution=ExecutionSpec(backend="desim"),
        machine=MachineSpec(
            bandwidth=bandwidth,
            link_target_fidelity=target_fidelity,
            **FIG9_MACHINE,
        ),
    )
    sweep = SweepSpec(
        base=base,
        axes=(
            SweepAxis(path="machine.link_base_fidelity", values=tuple(base_fidelities)),
            SweepAxis(path="machine.link_purification_protocol", values=tuple(protocols)),
        ),
        seed=seed,
    )
    result = run_sweep(sweep, cache=cache, use_cache=use_cache)
    rows = tidy_rows(result)
    rows.sort(
        key=lambda row: (
            row["machine.link_purification_protocol"],
            -row["machine.link_base_fidelity"],
        )
    )
    return rows


def design_space_starter(seed: int = 7):
    """The canonical starter sweep: bandwidth x ECC level over adder kernels.

    Four parallel 4-bit ripple-carry adders on an 8x8 array with an ample
    factory pool and the tightest channel policy, swept over
    ``machine.bandwidth`` in (1, 2, 4) and ``machine.level`` in (1, 2) -- six
    points, each a few tens of milliseconds of simulation.  This is the one
    definition behind both ``repro-run --example design_space`` and
    ``examples/design_space.py``, so the CLI starter file and the runnable
    example can never drift apart.
    """
    from repro.api.specs import (
        ExecutionSpec,
        ExperimentSpec,
        MachineSpec,
        NoiseSpec,
        SamplingSpec,
    )
    from repro.explore.sweep import SweepAxis, SweepSpec

    base = ExperimentSpec(
        experiment="machine_sim",
        noise=NoiseSpec(kind="technology", parameters="expected"),
        sampling=SamplingSpec(shots=0),
        execution=ExecutionSpec(backend="desim"),
        machine=MachineSpec(
            rows=8,
            columns=8,
            bandwidth=2,
            level=2,
            workload="adder",
            workload_bits=4,
            workload_parallel=4,
            num_ancilla_factories=64,
            transfers_per_lane_per_window=1,
            max_deferral_windows=0,
        ),
    )
    return SweepSpec(
        base=base,
        axes=(
            SweepAxis(path="machine.bandwidth", values=(1, 2, 4)),
            SweepAxis(path="machine.level", values=(1, 2)),
        ),
        seed=seed,
    )
