"""Design-space exploration: declarative sweeps + content-addressed caching.

The paper's core argument is a design-space trade -- array size,
teleportation bandwidth, ECC level and ancilla-factory capacity against
Shor-kernel runtime.  This package turns the single-point experiment API
(:mod:`repro.api`) into an explorable system:

* :mod:`repro.explore.sweep` -- :class:`SweepSpec` expands one base
  :class:`~repro.api.specs.ExperimentSpec` over axis grids into
  deterministic per-point specs (coordinate-derived seeds, exact JSON round
  trip, ``"experiment": "sweep"`` on the wire),
* :mod:`repro.explore.cache` -- :class:`ResultCache`, a content-addressed
  on-disk store keyed by SHA-256 of canonical spec JSON + library version +
  resolved engine (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``),
* :mod:`repro.explore.runner` -- :func:`run_sweep` executes the grid through
  :func:`repro.api.run` with a bounded process fan-out, answering every
  previously-computed point from the cache,
* :mod:`repro.explore.supervisor` -- the fault-tolerant execution layer
  under :func:`run_sweep`: sweep points as jobs on the supervised process
  pool of :mod:`repro.parallel` -- per-point timeouts, bounded retry with
  backoff, and dead-pool recovery (see ``docs/robustness.md``),
* :mod:`repro.explore.distributed` -- the claim protocol behind
  ``run_sweep(coordinate=True)``: N independent processes (on one host or
  on hosts sharing the cache directory) coordinate one sweep purely
  through atomic claim files next to the cache entries -- heartbeat
  leases, stale-claim reaping, and every member's result bit-for-bit
  equal to a serial run (see ``docs/sweeps.md``),
* :mod:`repro.explore.refine` -- adaptive refinement: recursive grid zoom
  around a metric/target crossing plus variance-guided shot allocation,
  reusing every cached coarse point via coordinate-derived seeds,
* :mod:`repro.explore.analysis` -- tidy row extraction, Pareto-front
  selection and the paper drivers :func:`reproduce_table2` /
  :func:`reproduce_fig9` / :func:`reproduce_fig9_noisy`.

Sweeps also *stream*: :func:`repro.explore.stream_sweep` yields each point
(and the running Pareto front) the moment it lands.

Quick start::

    from repro.explore import SweepAxis, SweepSpec, run_sweep, tidy_rows
    from repro.api import ExperimentSpec, MachineSpec, NoiseSpec, SamplingSpec

    sweep = SweepSpec(
        base=ExperimentSpec(
            experiment="machine_sim",
            noise=NoiseSpec(kind="technology"),
            sampling=SamplingSpec(shots=0),
        ),
        axes=(
            SweepAxis(path="machine.bandwidth", values=(1, 2, 4)),
            SweepAxis(path="machine.level", values=(1, 2)),
        ),
        seed=7,
    )
    result = run_sweep(sweep)           # 6 points; repeats are cache hits
    for row in tidy_rows(result):
        print(row["machine.bandwidth"], row["machine.level"],
              row["makespan_seconds"], row["cached"])

The same sweep runs from the command line: ``repro-run --example
design_space`` prints a starter file, and ``repro-run sweep.json`` executes
it (the ``"experiment": "sweep"`` marker selects the sweep path).
"""

from repro.explore.analysis import (
    FIG9_MACHINE,
    design_space_starter,
    pareto_front,
    point_row,
    reproduce_fig9,
    reproduce_fig9_noisy,
    reproduce_table2,
    tidy_rows,
)
from repro.explore.cache import (
    CACHE_DIR_ENV,
    ResultCache,
    cache_key,
    default_cache_dir,
)
from repro.explore.distributed import (
    ClaimRecord,
    ClaimStore,
)
from repro.explore.refine import (
    RefinementResult,
    RefinementRound,
    binomial_stderr,
    refine,
)
from repro.explore.runner import (
    SweepEvent,
    SweepExecutionError,
    SweepPointError,
    SweepPointResult,
    SweepResult,
    SweepStream,
    resolved_engine,
    run_sweep,
    stream_sweep,
)
from repro.explore.supervisor import execute_supervised
from repro.explore.sweep import (
    SWEEP_SECTIONS,
    SweepAxis,
    SweepPoint,
    SweepSpec,
    point_seed,
)
from repro.parallel import PointTimeoutError, RetryPolicy, WorkerCrashError

__all__ = [
    "SWEEP_SECTIONS",
    "SweepAxis",
    "SweepPoint",
    "SweepSpec",
    "point_seed",
    "CACHE_DIR_ENV",
    "default_cache_dir",
    "cache_key",
    "ResultCache",
    "resolved_engine",
    "SweepExecutionError",
    "SweepPointError",
    "SweepPointResult",
    "SweepResult",
    "SweepEvent",
    "SweepStream",
    "run_sweep",
    "stream_sweep",
    "ClaimRecord",
    "ClaimStore",
    "RefinementResult",
    "RefinementRound",
    "binomial_stderr",
    "refine",
    "RetryPolicy",
    "PointTimeoutError",
    "WorkerCrashError",
    "execute_supervised",
    "tidy_rows",
    "point_row",
    "pareto_front",
    "reproduce_table2",
    "reproduce_fig9",
    "reproduce_fig9_noisy",
    "FIG9_MACHINE",
    "design_space_starter",
]
