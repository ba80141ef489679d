"""``repro-run``: execute a JSON experiment or sweep spec from the command line.

Usage::

    repro-run spec.json                 # run, print the result JSON to stdout
    repro-run spec.json -o result.json  # also write the result to a file
    repro-run sweep.json --resume       # re-run an interrupted sweep (cache
                                        # restores every finished point)
    repro-run sweep.json --point-timeout 60 --max-retries 3
    repro-run sweep.json --coordinate       # join a claim party on a shared cache
    repro-run sweep.json --stream           # NDJSON per point as it lands
    repro-run --example threshold_sweep # print a starter spec and exit
    repro-run --example design_space    # starter design-space sweep

A spec file holds either one :class:`~repro.api.specs.ExperimentSpec` JSON
document or a :class:`~repro.explore.sweep.SweepSpec` document (recognised by
its ``"experiment": "sweep"`` marker).  Single experiments print the full
provenance-carrying :class:`~repro.api.results.RunResult` (spec echo
included), so piping the ``spec`` field of the output back into ``repro-run``
replays the run bit for bit; sweeps print a
:class:`~repro.explore.runner.SweepResult` with per-point results and exact
cache hit/miss accounting (re-running an identical sweep is all cache hits).

Sweeps execute fault-tolerantly (see ``docs/robustness.md``): every finished
point is cached immediately, so an interrupted sweep re-run with ``--resume``
recomputes only the unfinished tail and produces a result bit-for-bit
identical to an uninterrupted run.  ``--point-timeout`` bounds each point's
wall clock (pooled sweeps only), ``--max-retries`` bounds the retry budget,
and ``--on-error raise`` upgrades any terminal point failure to a hard error.

Sweeps also *distribute* (see ``docs/sweeps.md``): ``--coordinate`` joins
the calling process to a claim party over atomic claim files in the shared
result cache -- run the same command N times (in the background on one
host, or once per host) against one ``REPRO_CACHE_DIR`` and the party
executes every point exactly once, each invocation printing the complete,
bit-for-bit identical result.  ``--lease-seconds`` (finite and positive)
tunes how quickly a crashed member's claims are reaped.
``--stream`` prints one NDJSON progress line per point to stdout the moment
it resolves (the final result JSON then goes only to ``--output``).

Exit codes: 0 success; 1 the run raised a
:class:`~repro.exceptions.QLAError` (including ``--on-error raise``
failures); 2 usage errors (missing spec file, sweep-only flags on a single
experiment, a non-finite or non-positive ``--lease-seconds``); 3 the sweep
completed but some points failed terminally -- the partial result is still
printed/written, and a failure summary goes to stderr; 4 ``--resume`` was
requested but the result cache directory is not writable -- resuming
*needs* the cache, so silently degrading to the uncached warn-once path
would re-execute every point and then lose the results again.  The full table lives in ``docs/robustness.md``.

``--help`` enumerates the available example names, experiment kinds and
built-in execution backends; all three lists are generated from the code
(:data:`_EXAMPLES`, :data:`~repro.api.specs.EXPERIMENT_KINDS`,
:data:`~repro.api.registry.BACKEND_NAMES`), so the help text cannot drift
from what the library actually accepts.  Printing it compiles nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.exceptions import ParameterError, QLAError
from repro.api.registry import BACKEND_NAMES
from repro.api.runner import run
from repro.api.specs import (
    EXPERIMENT_KINDS,
    ExperimentSpec,
    ExecutionSpec,
    MachineSpec,
    NoiseSpec,
    SamplingSpec,
)
from repro.explore.analysis import design_space_starter
from repro.explore.distributed import check_lease_seconds
from repro.explore.runner import stream_sweep
from repro.explore.sweep import SweepSpec

__all__ = ["main"]

#: Starter specs printed by ``repro-run --example <kind>``.
_EXAMPLES = {
    "threshold_sweep": ExperimentSpec(
        experiment="threshold_sweep",
        noise=NoiseSpec(kind="uniform", physical_rates=(1.0e-3, 1.5e-3, 2.0e-3, 2.5e-3)),
        sampling=SamplingSpec(shots=4096, seed=7),
        execution=ExecutionSpec(backend="auto", num_shards=8, num_workers=0),
    ),
    "logical_failure": ExperimentSpec(
        experiment="logical_failure",
        noise=NoiseSpec(kind="uniform", physical_rates=(2.0e-3,)),
        sampling=SamplingSpec(shots=4096, seed=7),
    ),
    "syndrome_rate": ExperimentSpec(
        experiment="syndrome_rate",
        noise=NoiseSpec(kind="technology", parameters="expected"),
        sampling=SamplingSpec(shots=0, seed=0),
    ),
    "machine_sim": ExperimentSpec(
        experiment="machine_sim",
        noise=NoiseSpec(kind="technology", parameters="expected"),
        sampling=SamplingSpec(shots=0, seed=7),
        execution=ExecutionSpec(backend="desim"),
        machine=MachineSpec(rows=8, columns=8, bandwidth=2, level=2,
                            workload="adder", workload_bits=8),
    ),
    "noisy_interconnect": ExperimentSpec(
        experiment="machine_sim",
        noise=NoiseSpec(kind="technology", parameters="expected"),
        sampling=SamplingSpec(shots=0, seed=11),
        execution=ExecutionSpec(backend="desim"),
        machine=MachineSpec(rows=5, columns=5, bandwidth=2, level=1,
                            workload="adder", workload_bits=4,
                            link_attempt_success_probability=0.9,
                            link_base_fidelity=0.95,
                            link_target_fidelity=0.96),
    ),
    # One shared definition with examples/design_space.py, so the starter
    # file and the runnable example can never drift apart.
    "design_space": design_space_starter(),
}


def _help_epilog() -> str:
    """The generated --help inventory: examples, spec kinds, backends.

    Built from the same objects the runner consults, so the lists cannot
    drift from the code: example names come from :data:`_EXAMPLES`, spec
    kinds from :data:`~repro.api.specs.EXPERIMENT_KINDS` (plus the sweep
    marker), and backend names from :data:`~repro.api.registry.BACKEND_NAMES`.
    """
    kinds = ", ".join(EXPERIMENT_KINDS + ("sweep",))
    backends = ", ".join(BACKEND_NAMES)
    examples = "\n".join(
        f"  repro-run --example {name}" for name in sorted(_EXAMPLES)
    )
    return (
        "spec kinds (the 'experiment' field):\n"
        f"  {kinds}\n"
        "execution backends (ExecutionSpec.backend):\n"
        f"  {backends}\n"
        "starter specs:\n"
        f"{examples}\n"
    )


def _emit(text: str) -> None:
    """Print to stdout, surviving a closed or broken pipe.

    ``repro-run ... | head`` (or a harness that closes stdout early) must not
    turn a finished run into a failure: the result file named by ``--output``
    is written before anything is printed, so a dead stdout only loses the
    console copy.  On a broken pipe stdout is redirected to the null device
    so the interpreter's exit-time flush cannot raise either.
    """
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    except ValueError:
        # stdout was closed outright (ValueError: I/O operation on closed
        # file); nothing to print to, nothing to clean up.
        pass


def _cache_unwritable_reason() -> str | None:
    """Why the default result cache cannot be written, or None if it can.

    ``--resume`` restores finished points from the cache and persists the
    re-executed tail back into it; with an unwritable cache directory the
    flag would silently degrade to recomputing everything (the warn-once
    path of :func:`~repro.explore.runner.run_sweep`) *and* losing the new
    results -- the opposite of what resuming promises.  The probe mirrors
    what :meth:`~repro.explore.cache.ResultCache.put` does: create the
    directory and open a scratch file inside it.
    """
    import tempfile

    from repro.explore.cache import default_cache_dir

    directory = default_cache_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        handle, probe = tempfile.mkstemp(dir=directory, prefix=".writable-", suffix=".tmp")
        os.close(handle)
        os.unlink(probe)
    except OSError as error:
        return f"result cache directory {directory} is not writable ({error})"
    return None


def _load_spec(text: str) -> ExperimentSpec | SweepSpec:
    """Parse a spec file: the ``"experiment": "sweep"`` marker selects sweeps."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ParameterError(f"spec file is not valid JSON: {error}") from error
    if isinstance(data, dict) and data.get("experiment") == "sweep":
        return SweepSpec.from_dict(data)
    return ExperimentSpec.from_dict(data)


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro-run`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro-run",
        description=(
            "Run a declarative QLA experiment or design-space sweep spec "
            "(JSON) and print the result."
        ),
        epilog=_help_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("spec", nargs="?", help="path to an ExperimentSpec or SweepSpec JSON file")
    parser.add_argument("-o", "--output", help="also write the result JSON to this file")
    parser.add_argument(
        "--example",
        choices=sorted(_EXAMPLES),
        help="print a starter spec of the given kind and exit",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="for sweeps: bypass the on-disk result cache entirely",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "for sweeps: resume an interrupted run -- finished points are "
            "restored from the cache and only the unfinished tail executes; "
            "reports the resume accounting on stderr"
        ),
    )
    parser.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "for pooled sweeps (point_workers > 1): kill and retry any point "
            "that exceeds this wall-clock budget"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="for sweeps: retries per point after its first attempt (default: 2)",
    )
    parser.add_argument(
        "--on-error",
        choices=("partial", "raise"),
        default="partial",
        help=(
            "for sweeps: 'partial' (default) records failed points inside a "
            "partial result and exits 3; 'raise' turns any terminal point "
            "failure into a hard error (exit 1)"
        ),
    )
    parser.add_argument(
        "--coordinate",
        action="store_true",
        help=(
            "for sweeps: coordinate with other repro-run processes (or hosts) "
            "sharing this result cache via claim files -- together they "
            "execute every point exactly once"
        ),
    )
    parser.add_argument(
        "--lease-seconds",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help=(
            "for --coordinate sweeps: claim lease length; a worker silent "
            "this long is presumed dead and its points are reaped "
            "(default: 30)"
        ),
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help=(
            "for sweeps: print one NDJSON progress line per point the moment "
            "it resolves; the final result JSON is then written only to "
            "--output"
        ),
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the result on stdout")
    args = parser.parse_args(argv)

    if args.example:
        _emit(_EXAMPLES[args.example].to_json(indent=2))
        return 0
    if not args.spec:
        parser.error("a spec file is required (or --example to print a starter spec)")
    if args.resume and args.no_cache:
        print("repro-run: --resume needs the cache; drop --no-cache", file=sys.stderr)
        return 2
    if args.no_cache and args.coordinate:
        print(
            "repro-run: --coordinate coordinates through claim files next to "
            "the cache entries; drop --no-cache",
            file=sys.stderr,
        )
        return 2
    try:
        check_lease_seconds(args.lease_seconds)
    except ParameterError as error:
        print(f"repro-run: --lease-seconds: {error}", file=sys.stderr)
        return 2

    path = Path(args.spec)
    if not path.exists():
        print(f"repro-run: spec file not found: {path}", file=sys.stderr)
        return 2
    try:
        spec = _load_spec(path.read_text())
        if isinstance(spec, SweepSpec):
            if args.resume:
                reason = _cache_unwritable_reason()
                if reason is not None:
                    print(
                        f"repro-run: cannot --resume: {reason}; fix the "
                        "directory permissions or point REPRO_CACHE_DIR at a "
                        "writable location",
                        file=sys.stderr,
                    )
                    return 4
            with stream_sweep(
                spec,
                use_cache=not args.no_cache,
                point_timeout=args.point_timeout,
                max_retries=args.max_retries,
                on_error=args.on_error,
                coordinate=args.coordinate,
                claim_lease_seconds=args.lease_seconds,
            ) as events:
                if args.stream:
                    for event in events:
                        _emit(json.dumps(event.to_dict(), sort_keys=True))
                result = events.result()
            if args.resume:
                print(
                    f"repro-run: resumed {result.cache_hits} of {len(result)} "
                    f"points from the cache; executed {result.executed}",
                    file=sys.stderr,
                )
        else:
            sweep_only = [
                flag
                for flag, used in (
                    ("--resume", args.resume),
                    ("--point-timeout", args.point_timeout is not None),
                    ("--max-retries", args.max_retries != 2),
                    ("--on-error", args.on_error != "partial"),
                    ("--coordinate", args.coordinate),
                    ("--lease-seconds", args.lease_seconds != 30.0),
                    ("--stream", args.stream),
                )
                if used
            ]
            if sweep_only:
                print(
                    f"repro-run: {', '.join(sweep_only)} only apply to sweep specs",
                    file=sys.stderr,
                )
                return 2
            result = run(spec)
    except QLAError as error:
        print(f"repro-run: {error}", file=sys.stderr)
        return 1

    text = result.to_json(indent=2)
    # The output file is written first: it must survive even when stdout is a
    # broken pipe or was closed under --quiet.
    if args.output:
        Path(args.output).write_text(text + "\n")
    if not args.quiet and not (isinstance(spec, SweepSpec) and args.stream):
        # --stream already narrated the sweep point by point; the full
        # result document goes only to --output then.
        _emit(text)
    if isinstance(spec, SweepSpec) and result.failed:
        # The partial result above is complete and cached; the summary and
        # the nonzero exit make the failures impossible to miss in CI.
        print(
            f"repro-run: {result.failed} of {len(result)} sweep points failed:",
            file=sys.stderr,
        )
        for point in result.failures():
            print(
                f"repro-run:   {point.coordinates!r}: "
                f"{point.error.exception_type}: {point.error.message} "
                f"(after {point.error.attempts} attempts)",
                file=sys.stderr,
            )
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
