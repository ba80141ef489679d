"""The run header every ``BENCH_*.json`` report starts with."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np

import repro
from repro.stabilizer.fused import kernel_tier


def run_header() -> dict[str, object]:
    """Library version, fused-kernel tier, Python, numpy and host of this run."""
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        lines = cpuinfo.read_text().splitlines()
        models = [line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")]
        cpu = models[0] if models else cpu
    return {
        "repro_version": repro.__version__,
        "kernel_tier": kernel_tier(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "host": {"machine": platform.machine(), "cpu": cpu, "nproc": os.cpu_count()},
    }
