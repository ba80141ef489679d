"""Set-up probe: one fresh interpreter, from ``import repro`` to the first op.

``run.py`` times this script from spawn to exit for ``setup_s``.  It prints
one JSON line with the first op's failed output checks.
"""

from __future__ import annotations

import argparse
import json
import sys

import env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    env.prepare()

    import repro
    from repro.api import default_registry

    default_registry()

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.load_pinned())
    result = workload.run(workload.first_op())
    print(json.dumps({"errors": result.errors, "engine": result.engine, "version": repro.__version__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
