"""Regenerate ``pinned.json``, the reference outputs the benchmark checks ops against.

Usage (from the root of a checkout; takes a few minutes)::

    python3 perfbench/pin.py

* ``reference_rates``: a :data:`REFERENCE_SHOTS`-shot ``logical_failure``
  estimate at every physical rate the Monte-Carlo workloads use.
* ``shor_adder``: the trace digest, counts and event count of the 64-bit
  (timed) and 128-bit (warm-up) adder replays at bandwidths 1 and 2.
* ``fig9_sweep``: the order-independent digest of each (bandwidth, fidelity)
  cell of the Figure 9 grid.

Re-pin only on purpose -- when a change alters simulated results and says
why -- because the pins are what let a speed-up claim "same outputs".
"""

from __future__ import annotations

import json
import sys

import env

#: Shots of each reference estimate; the width of the Wilson interval the
#: output checks test against depends on it.
REFERENCE_SHOTS = 1 << 20


def main() -> int:
    env.prepare()

    import repro.api
    import workloads
    from repro.api import ExperimentSpec, NoiseSpec, SamplingSpec
    from repro.desim.engine import DiscreteEventSimulator
    from spans import Tracer

    from layers import count_events

    pinned: dict = {"reference_rates": {}, "shor_adder": {}, "fig9_sweep": {}}
    rates = sorted(set(workloads.Fig7Wide.RATES) | set(workloads.Fig7Narrow.RATES))
    for index, rate in enumerate(rates):
        result = repro.api.run(
            ExperimentSpec(
                experiment="logical_failure",
                noise=NoiseSpec(kind="uniform", physical_rates=(rate,)),
                sampling=SamplingSpec(shots=REFERENCE_SHOTS, seed=20051112 + index, batch_size=4096),
            )
        )
        pinned["reference_rates"][workloads.rate_key(rate)] = {
            "failures": result.value.failures,
            "trials": result.value.trials,
            "engine": result.engine,
        }
        print(f"p={rate}: {result.value.failures}/{result.value.trials}", file=sys.stderr)

    tracer = Tracer()
    tracer.wrap_method(DiscreteEventSimulator, "run", "desim.event_loop", count_events)
    adder = workloads.ShorAdder
    for bits in (adder.BITS, adder.FULL_BITS):
        for bandwidth in adder.BANDWIDTHS:
            before = tracer.counts["desim.events"]
            value = repro.api.run(workloads.adder_spec(bits, bandwidth, seed=0)).value
            entry = {name: value[name] for name in workloads.ADDER_CHECKED}
            entry["events"] = tracer.counts["desim.events"] - before
            pinned["shor_adder"].setdefault(str(bits), {})[str(bandwidth)] = entry
    tracer.unwrap()

    for cell in workloads.FIG9_CELLS:
        with workloads.private_cache() as directory:
            cold = repro.explore.run_sweep(
                workloads.fig9_sweep(*cell),
                cache=repro.explore.ResultCache(directory),
                coordinate=True,
            )
        pinned["fig9_sweep"][workloads.cell_key(*cell)] = {
            "points": len(cold.points),
            "grid_digest": workloads.grid_digest(cold),
        }

    workloads.PINNED_PATH.write_text(json.dumps(pinned, indent=2) + "\n")
    print(f"wrote {workloads.PINNED_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
