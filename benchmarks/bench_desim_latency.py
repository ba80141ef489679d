"""Machine-simulator latency benchmark: Shor adder replay, Section 5, noisy Fig. 9.

Three studies, all through the declarative ``machine_sim`` experiment:

* **Shor-128 adder-kernel replay** -- the 128-bit ripple-carry adder (the unit
  of the paper's modular-exponentiation datapath, 385 logical qubits on a
  20x20 tile sub-array) replayed cycle-by-cycle at interconnect bandwidths 1
  and 2: end-to-end cycles, critical path, stalls and channel utilization.
* **Section 5 stress workload** -- layers of concurrent Toffoli gates over an
  8x8 array (the circuit-level analogue of the paper's 48-Toffoli scheduler
  experiment).  The acceptance contract of the paper's headline result is
  checked here: bandwidth 2 shows strictly fewer communication-stall cycles
  than bandwidth 1 (zero, when fully overlapped), and the replay is
  deterministic (same spec JSON -> bit-identical trace digest).
* **Noisy Figure 9 cell** -- the :data:`~repro.explore.FIG9_MACHINE`
  workload at bandwidth 1 over a stochastic interconnect (elementary
  fidelity 0.94 pumped to 0.96, two Bennett rounds or one Deutsch round per
  segment), once per purification protocol: the replay where the link
  layer's heralded-generation and pumping draws weigh most.

Every replay also reports where its host time went: the greedy EPR
schedule (with the congestion-weighted route searches per demand), the
discrete-event loop, the two channel-utilization metrics and the trace
digest, plus the stochastic link realizations (``link_s``, part of the
event loop).  Every trace digest must equal its pinned value
(:data:`PINNED_DIGESTS`), so a faster scheduler or trace cannot change a
route or a record unnoticed.  Results are written to
``BENCH_desim_latency.json`` at the repository root, under a run header
naming the library version, fused-kernel tier and host.
Run under pytest (``pytest benchmarks/bench_desim_latency.py``) or directly
(``python benchmarks/bench_desim_latency.py [--smoke]``); ``--smoke`` shrinks
the workloads to CI scale while keeping every assertion.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

try:  # the CI smoke job runs this file directly with only numpy installed
    import pytest
except ImportError:  # pragma: no cover - direct execution without pytest
    pytest = None

from repro.api import (
    ExecutionSpec,
    ExperimentSpec,
    MachineSpec,
    NoiseSpec,
    SamplingSpec,
    run,
)
from repro.desim.engine import DiscreteEventSimulator
from repro.desim.links import LinkModel
from repro.desim.trace import SimulationTrace
from repro.explore import FIG9_MACHINE
from repro.network.scheduler import GreedyEprScheduler, ScheduleResult

# Run as a script, the benchmarks package is found from the repository root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmarks._header import run_header  # noqa: E402

#: Full-mode adder replay: the Shor-128 kernel on a 20x20 tile sub-array.
ADDER_BITS = 128
ADDER_ROWS, ADDER_COLUMNS = 20, 20

#: Full-mode Section 5 stress workload (21 disjoint Toffolis fit 64 tiles).
S5_ROWS, S5_COLUMNS = 8, 8
S5_TOFFOLIS_PER_LAYER = 21
S5_LAYERS = 20

SEED = 20260728

#: Noisy Figure 9 cell: bandwidth 1, elementary fidelity 0.94, target 0.96.
FIG9_NOISY_MACHINE = dict(
    FIG9_MACHINE, bandwidth=1, link_base_fidelity=0.94, link_target_fidelity=0.96
)
FIG9_NOISY_PROTOCOLS = ("bennett", "deutsch")

#: Noisy Figure 9 cell digests, identical in smoke and full runs (the cell
#: is small enough to replay whole in both); recorded with v1.13.0.
_FIG9_NOISY_DIGESTS = {
    "bennett": "10198df8a18737128ba6c0eb41cd064f504680b761787dd0bee7e43db1e7ef9b",
    "deutsch": "46d9228dc35671da464d66664baf843cfe7ba38a052ec4f6bfa8cf0f45d88802",
}

#: Trace digests of every replay, by mode (smoke or full), study and
#: replay.  The full-mode adder values are the Shor-128 digests that
#: ``perfbench/pinned.json`` pins; the adder and Section 5 values were
#: recorded with v1.10.0.
PINNED_DIGESTS = {
    "full": {
        "adder_replay": {
            "bandwidth_1": "5ebb5b483ee6bc770c2daebc9fe4012895f7e6cdea138b4dd8fe4defbfc0b485",
            "bandwidth_2": "ff3b66be208bc0d0e5600644b7cda969a926e35214624ed59de6166dc46e0409",
        },
        "section5_workload": {
            "bandwidth_1": "c7030354cec8d4e7bc6158419332f4ba7a1c244bd507dcc99b62ccc2301e3d22",
            "bandwidth_2": "75c8d609be880ca55ea5a0b31523a9384c438b1be4d4a38e8d284b4caa4e5f32",
        },
        "fig9_noisy": _FIG9_NOISY_DIGESTS,
    },
    "smoke": {
        "adder_replay": {
            "bandwidth_1": "a725feb9c80043893877ac4bcc5176eda1c2a2e3e8978a234d310184e90092a1",
            "bandwidth_2": "a725feb9c80043893877ac4bcc5176eda1c2a2e3e8978a234d310184e90092a1",
        },
        "section5_workload": {
            "bandwidth_1": "dc8ee62f2f9b4dd00445a209403bafa3d12ceebab143b1e4c63921173ea612d8",
            "bandwidth_2": "72a19a637edafba6b208966b33eebb2f22ab2e1ac30bc0a1c38d0e30f4671fd9",
        },
        "fig9_noisy": _FIG9_NOISY_DIGESTS,
    },
}

#: The timed phases of a replay, disjoint parts of its host time.
_PHASES = ("schedule_s", "event_loop_s", "metrics_s", "trace_digest_s")

_OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_desim_latency.json"


def _machine_sim_spec(machine: MachineSpec) -> ExperimentSpec:
    return ExperimentSpec(
        experiment="machine_sim",
        noise=NoiseSpec(kind="technology", parameters="expected"),
        sampling=SamplingSpec(shots=0, seed=SEED),
        execution=ExecutionSpec(backend="desim"),
        machine=machine,
    )


@contextmanager
def _phase_clock():
    """Accumulate the host time of each desim phase run inside the block.

    Wraps the scheduler, the event loop, the replay's two utilization
    metrics (``metrics_s``) and the trace digest on their classes, and
    counts the demands scheduled and the congestion-weighted searches each
    schedule reports (``ScheduleResult.weighted_searches``, on either
    kernel tier).  ``link_s`` is the time in ``LinkModel.realize`` and
    ``link_transfers`` its calls, one per realized transfer; the event
    loop's time includes them.
    """
    phases = dict.fromkeys(_PHASES, 0.0)
    phases.update(demands=0, weighted_searches=0, link_s=0.0, link_transfers=0)
    originals = []

    def wrap(cls, name, observe):
        original = cls.__dict__[name]
        originals.append((cls, name, original))

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            observe(args, result, time.perf_counter() - start)
            return result

        setattr(cls, name, wrapper)

    def seconds(key):
        def observe(args, result, elapsed):
            phases[key] += elapsed

        return observe

    def scheduled(args, result, elapsed):  # GreedyEprScheduler.schedule(self, demands)
        phases["schedule_s"] += elapsed
        phases["demands"] += len(args[1])
        phases["weighted_searches"] += result.weighted_searches

    def realized(args, result, elapsed):
        phases["link_s"] += elapsed
        phases["link_transfers"] += 1

    wrap(GreedyEprScheduler, "schedule", scheduled)
    wrap(LinkModel, "realize", realized)
    wrap(DiscreteEventSimulator, "run", seconds("event_loop_s"))
    wrap(ScheduleResult, "mean_edge_utilization", seconds("metrics_s"))
    wrap(ScheduleResult, "max_edge_utilization", seconds("metrics_s"))
    wrap(SimulationTrace, "digest", seconds("trace_digest_s"))
    try:
        yield phases
    finally:
        for cls, name, original in originals:
            setattr(cls, name, original)
        phases["weighted_searches_per_demand"] = (
            phases["weighted_searches"] / phases["demands"] if phases["demands"] else 0.0
        )


def _replay(machine: MachineSpec) -> dict[str, object]:
    with _phase_clock() as phases:
        start = time.perf_counter()
        result = run(_machine_sim_spec(machine))
        seconds = time.perf_counter() - start
        value = dict(result.value)
    value["host_seconds"] = seconds
    value["phases"] = phases
    return value


def _adder_study(bits: int, rows: int, columns: int) -> dict[str, object]:
    study: dict[str, object] = {"bits": bits, "rows": rows, "columns": columns}
    for bandwidth in (1, 2):
        study[f"bandwidth_{bandwidth}"] = _replay(
            MachineSpec(
                rows=rows,
                columns=columns,
                bandwidth=bandwidth,
                level=2,
                workload="adder",
                workload_bits=bits,
            )
        )
    return study


def _section5_study(toffolis: int, layers: int) -> dict[str, object]:
    study: dict[str, object] = {
        "rows": S5_ROWS,
        "columns": S5_COLUMNS,
        "toffolis_per_layer": toffolis,
        "layers": layers,
    }
    for bandwidth in (1, 2):
        study[f"bandwidth_{bandwidth}"] = _replay(
            MachineSpec(
                rows=S5_ROWS,
                columns=S5_COLUMNS,
                bandwidth=bandwidth,
                level=2,
                workload="toffoli_layers",
                toffolis_per_layer=toffolis,
                workload_depth=layers,
            )
        )
    # Determinism: the same spec must reproduce the bandwidth-2 digest.
    repeat = _replay(
        MachineSpec(
            rows=S5_ROWS,
            columns=S5_COLUMNS,
            bandwidth=2,
            level=2,
            workload="toffoli_layers",
            toffolis_per_layer=toffolis,
            workload_depth=layers,
        )
    )
    study["bandwidth_2_replay_digest"] = repeat["trace_digest"]
    return study


def _fig9_noisy_study() -> dict[str, object]:
    study: dict[str, object] = {"machine": FIG9_NOISY_MACHINE}
    for protocol in FIG9_NOISY_PROTOCOLS:
        study[protocol] = _replay(
            MachineSpec(link_purification_protocol=protocol, **FIG9_NOISY_MACHINE)
        )
    return study


def _run_benchmark(smoke: bool = False) -> dict[str, object]:
    if smoke:
        adder = _adder_study(bits=8, rows=5, columns=5)
        section5 = _section5_study(toffolis=21, layers=6)
    else:
        adder = _adder_study(bits=ADDER_BITS, rows=ADDER_ROWS, columns=ADDER_COLUMNS)
        section5 = _section5_study(toffolis=S5_TOFFOLIS_PER_LAYER, layers=S5_LAYERS)
    report = {
        "header": run_header(),
        "smoke": smoke,
        "adder_replay": adder,
        "section5_workload": section5,
        "fig9_noisy": _fig9_noisy_study(),
    }
    if not smoke:
        _OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _check(report: dict[str, object]) -> None:
    # Bit for bit: every replay reproduces its pinned trace digest.
    pinned = PINNED_DIGESTS["smoke" if report["smoke"] else "full"]
    for study, digests in pinned.items():
        for replay, digest in digests.items():
            replayed = report[study][replay]["trace_digest"]
            assert replayed == digest, (study, replay, replayed)
    section5 = report["section5_workload"]
    narrow, wide = section5["bandwidth_1"], section5["bandwidth_2"]
    # The Section 5 contract: bandwidth 2 avoids the stalls of bandwidth 1.
    assert narrow["stall_cycles"] > wide["stall_cycles"], (narrow, wide)
    assert wide["epr_deferred"] == 0 and wide["epr_unserved"] == 0, wide
    # Determinism: bit-identical digest on replay of the same spec.
    assert section5["bandwidth_2_replay_digest"] == wide["trace_digest"]
    # The adder replay is dependency-bound: the event makespan tracks the
    # analytic critical path within 10% at both bandwidths (the residual gap
    # is ancilla-factory queueing -- the independent first-carry Toffolis of
    # every bit all request production in window 0 -- not communication, so
    # it is identical across bandwidths).
    adder = report["adder_replay"]
    for key in ("bandwidth_1", "bandwidth_2"):
        value = adder[key]
        assert value["makespan_cycles"] >= value["critical_path_cycles"]
        assert value["makespan_cycles"] <= 1.10 * value["critical_path_cycles"], value
    assert adder["bandwidth_1"]["stall_cycles"] >= adder["bandwidth_2"]["stall_cycles"]
    # The phase breakdown covers disjoint parts of each replay.
    for study in (adder, section5):
        for key in ("bandwidth_1", "bandwidth_2"):
            phases = study[key]["phases"]
            timed = sum(phases[phase] for phase in _PHASES)
            assert 0.0 < timed <= study[key]["host_seconds"], phases
            assert phases["link_transfers"] == 0, phases  # deterministic links
    # The noisy cell realizes every served transfer inside its event loop,
    # pumping each segment (Bennett twice, Deutsch once) and stalling on it.
    for protocol in FIG9_NOISY_PROTOCOLS:
        value = report["fig9_noisy"][protocol]
        phases = value["phases"]
        assert phases["link_transfers"] == value["epr_demands"] - value["epr_unserved"], value
        assert 0.0 < phases["link_s"] < phases["event_loop_s"], phases
        assert value["link_purification_rounds"] > 0, value
        assert value["link_purification_stall_cycles"] > 0, value
    bennett, deutsch = (report["fig9_noisy"][p] for p in FIG9_NOISY_PROTOCOLS)
    assert bennett["link_purification_rounds"] > deutsch["link_purification_rounds"]


if pytest is not None:

    @pytest.mark.benchmark(group="desim-latency", min_rounds=1, max_time=0.0, warmup=False)
    def test_desim_latency_benchmark(benchmark):
        report = benchmark.pedantic(_run_benchmark, kwargs={"smoke": True}, rounds=1, iterations=1)
        _check(report)

        wide = report["section5_workload"]["bandwidth_2"]
        narrow = report["section5_workload"]["bandwidth_1"]
        print()
        print(
            f"section5: bw1 stalls={narrow['stall_cycles']} "
            f"(deferred {narrow['epr_deferred']}), bw2 stalls={wide['stall_cycles']} "
            f"(fully overlapped), digest {wide['trace_digest'][:12]}"
        )


if __name__ == "__main__":
    smoke_mode = "--smoke" in sys.argv[1:]
    result = _run_benchmark(smoke=smoke_mode)
    _check(result)
    print(json.dumps(result, indent=2))
    if smoke_mode:
        print("smoke benchmark passed: desim stalls + determinism OK", file=sys.stderr)
