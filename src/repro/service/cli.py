"""``repro-serve``: run the experiment service from the command line.

Usage::

    repro-serve                         # 127.0.0.1:8642, default DB + cache
    repro-serve --port 0                # ephemeral port (printed on stdout)
    repro-serve --db /tmp/jobs.sqlite3 --workers 2
    repro-serve --point-timeout 60 --max-retries 3

On startup one JSON line goes to stdout::

    {"url": "http://127.0.0.1:8642", "port": 8642, "db": "...", "cache": "...",
     "recovered_jobs": 0}

so scripts (and the CI ``service-smoke`` job) can discover the bound port
when ``--port 0`` requested an ephemeral one.  ``recovered_jobs`` counts
the ``running`` orphans re-queued by crash recovery -- nonzero after an
unclean shutdown, and those jobs resume without resubmission.

The server runs until SIGINT/SIGTERM, then shuts down cleanly (workers
finish their in-flight attempt; anything still queued is picked up by the
next start thanks to the durable queue).  Exit code 0 on a signal, 1 on a
startup error (bad arguments, unbindable port, unreadable database), 2 on
a usage error (including a non-finite or non-positive ``--lease-seconds``).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from repro.exceptions import ParameterError, QLAError
from repro.explore.distributed import check_lease_seconds
from repro.parallel import RetryPolicy
from repro.service.http import ExperimentService
from repro.service.store import default_db_path

__all__ = ["main"]

#: Default TCP port (an unassigned one; --port 0 picks an ephemeral port).
DEFAULT_PORT = 8642


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro-serve`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Serve the experiment pipeline over HTTP: a durable SQLite job "
            "queue draining onto the spec/sweep execution path, with "
            "idempotent submissions answered from the result cache."
        ),
        epilog=(
            "endpoints: POST /v1/jobs, GET /v1/jobs[/{id}[/result|/events]], "
            "DELETE /v1/jobs/{id}, GET /healthz, GET /metrics "
            "(reference: docs/service.md)"
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"TCP port; 0 picks an ephemeral one (default: {DEFAULT_PORT})",
    )
    parser.add_argument(
        "--db", default=None, metavar="PATH",
        help=(
            "SQLite job database (default: $REPRO_SERVICE_DB or "
            f"{default_db_path()})"
        ),
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="result cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="queue-draining worker threads (default: 1)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="default attempt budget per job (default: 3)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="per-sweep-point retries after the first attempt (default: 2)",
    )
    parser.add_argument(
        "--backoff-base", type=float, default=0.05, metavar="SECONDS",
        help="first retry delay; doubles per retry, capped at 5s (default: 0.05)",
    )
    parser.add_argument(
        "--point-timeout", type=float, default=None, metavar="SECONDS",
        help="per-point wall-clock budget for pooled sweeps (default: none)",
    )
    parser.add_argument(
        "--coordinate", action="store_true",
        help=(
            "run sweep jobs through the distributed claim protocol: "
            "overlapping sweeps (here or on other service instances sharing "
            "the cache directory) execute each grid point exactly once"
        ),
    )
    parser.add_argument(
        "--lease-seconds", type=float, default=30.0, metavar="SECONDS",
        help=(
            "claim lease for --coordinate; a worker silent this long is "
            "presumed dead and its points are reaped (default: 30)"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the startup line on stdout"
    )
    args = parser.parse_args(argv)
    try:
        check_lease_seconds(args.lease_seconds)
    except ParameterError as error:
        print(f"repro-serve: --lease-seconds: {error}", file=sys.stderr)
        return 2

    try:
        policy = RetryPolicy(
            point_timeout=args.point_timeout,
            max_retries=args.max_retries,
            backoff_base=args.backoff_base,
        )
        service = ExperimentService(
            db_path=args.db,
            cache_dir=args.cache_dir,
            host=args.host,
            port=args.port,
            workers=args.workers,
            policy=policy,
            default_max_attempts=args.max_attempts,
            coordinate=args.coordinate,
            claim_lease_seconds=args.lease_seconds,
        )
    except (QLAError, OSError) as error:
        print(f"repro-serve: {error}", file=sys.stderr)
        return 1

    if not args.quiet:
        print(
            json.dumps(
                {
                    "url": service.url,
                    "port": service.port,
                    "db": str(service.store.path),
                    "cache": str(service.cache.directory),
                    "recovered_jobs": len(service.recovered_jobs),
                }
            ),
            flush=True,
        )

    def _shutdown(signum, frame):  # noqa: ARG001 - signal signature
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _shutdown)
    except ValueError:
        # Not the main thread (the CLI is being driven programmatically);
        # SIGTERM handling belongs to whoever owns the main thread there.
        pass
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
