"""Hermetic process environment shared by the benchmark's entry points.

Every file the benchmark writes lives under ``.bench_build/perfbench`` in the
checkout: the compiled native kernel, per-op result caches and the reports.
Variables that change what the library does (fault injection, a pinned
kernel tier) are removed before ``repro`` is imported, and the removal is
recorded in the run header.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Variables that would alter the measured behaviour; cleared, never honoured.
CLEARED_VARIABLES = ("REPRO_FAULTS", "REPRO_FUSED_KERNEL")


class MissingSource(RuntimeError):
    """The checkout holds no library source to benchmark."""


def prepare() -> list[str]:
    """Point the process at the checkout's library and return the cleared variables.

    Must run before ``repro`` is imported.  Raises :class:`MissingSource`
    when ``src/repro`` is absent, so the benchmark never measures some other
    installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSource(f"no library source at {SRC / 'repro'}")
    cleared = [name for name in CLEARED_VARIABLES if os.environ.pop(name, None) is not None]
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_FUSED_CACHE"] = str(WORK / "fused-kernel")
    os.environ["REPRO_CACHE_DIR"] = str(WORK / "tmp" / "unused-cache")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return cleared


def check_library() -> None:
    """Refuse to run against a ``repro`` imported from outside the checkout."""
    import repro

    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise MissingSource(f"repro was imported from {location}, not from {SRC}")


def declared_metrics(trace: bool) -> list[dict]:
    """The metrics ``BENCHMARK.json`` declares: per-layer when ``trace``, else end-to-end."""
    return json.loads(BENCHMARK.read_text())["per_layer" if trace else "end_to_end"]
