"""Setup entry point and package metadata.

``pip install -e .`` works in environments without the ``wheel`` package (pip
falls back to the ``setup.py develop`` editable-install path).  The long
description is sourced from ``README.md`` so the published metadata documents
the engine architecture alongside the install and test commands.  The version
is read from ``src/repro/__init__.py``, so the package states it once.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_ROOT = Path(__file__).resolve().parent
_README = _ROOT / "README.md"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"$', (_ROOT / "src" / "repro" / "__init__.py").read_text(), re.M
).group(1)

setup(
    name="repro-qla-arq",
    version=_VERSION,
    description=(
        "Reproduction of the QLA quantum architecture study: ion-trap model, "
        "ARQ stabilizer simulator with one batched Pauli-frame engine and "
        "five built-in execution backends, the paper's threshold/resource "
        "experiments driven by declarative JSON specs, a design-space "
        "explorer with a content-addressed result cache, and an HTTP "
        "experiment service over a durable job queue"
    ),
    long_description=_README.read_text() if _README.exists() else "",
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The frame engine compiles its C kernel from source at first use.
    package_data={"repro.stabilizer": ["fused_kernel.c"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "pytest-benchmark"],
        # The experiment service (repro.service / repro-serve) is pure
        # stdlib -- http.server + sqlite3 -- so the extra is empty on
        # purpose: `pip install repro-qla-arq[service]` documents intent
        # without pulling a single new dependency.
        "service": [],
    },
    entry_points={
        "console_scripts": [
            # Run a JSON ExperimentSpec file: `repro-run spec.json`.
            "repro-run=repro.api.cli:main",
            # Serve the pipeline over HTTP: `repro-serve --port 8642`.
            "repro-serve=repro.service.cli:main",
        ],
    },
)
