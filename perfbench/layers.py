"""Which public functions the traced run wraps, and the per-layer metrics.

Every ``*_s`` metric is host seconds per op and every ``*_calls`` metric is
calls per op, averaged over the traced ops of the run; the rest are
ratios or counts.  ``BENCHMARK.json`` lists the metrics reported, with
their units.  On the sweep workload an op's spans include the warm
replays that follow it.
"""

from __future__ import annotations

import statistics

from spans import Tracer, span_totals


def _count_lanes(counts, args, result) -> None:
    # execute_fused(program, batch_size, rng, state, noise)
    counts["stabilizer.fused_lanes"] += int(args[1])


def _count_demands(counts, args, result) -> None:
    # GreedyEprScheduler.schedule(self, demands)
    counts["network.demands"] += len(args[1])


def count_events(counts, args, result) -> None:
    # simulate_workload runs each fresh simulator to completion exactly once,
    # so its cumulative count is the events of that replay.
    counts["desim.events"] += args[0].events_processed


def _count_hits(counts, args, result) -> None:
    counts["explore.cache_hits"] += result is not None


def install(tracer: Tracer) -> None:
    """Wrap the public function at each module boundary."""
    import repro.api.runner
    import repro.arq.simulator
    import repro.circuits.compiled
    import repro.desim.simulate
    import repro.desim.workload
    import repro.explore.cache
    import repro.explore.runner
    import repro.stabilizer.fused
    from repro.api.registry import BackendRegistry
    from repro.arq.experiments import Level1EccExperiment
    from repro.arq.simulator import BatchedNoisyCircuitExecutor
    from repro.desim.engine import DiscreteEventSimulator
    from repro.desim.links import LinkModel
    from repro.desim.machine import QLAMachineModel
    from repro.desim.trace import SimulationTrace
    from repro.explore.cache import ResultCache
    from repro.explore.distributed import ClaimStore
    from repro.network.router import ShortestPathRouter
    from repro.network.scheduler import GreedyEprScheduler

    tracer.wrap_function(repro.api.runner.run, "api.run")
    tracer.wrap_method(BackendRegistry, "resolve", "api.resolve")
    tracer.wrap_method(Level1EccExperiment, "__init__", "arq.experiment_build")
    tracer.wrap_method(Level1EccExperiment, "run_trial_batch_detailed", "arq.trial_batch")
    tracer.wrap_method(BatchedNoisyCircuitExecutor, "run", "arq.executor_run")
    tracer.wrap_function(repro.stabilizer.fused.execute_fused, "stabilizer.fused", _count_lanes)
    tracer.wrap_function(repro.arq.simulator.create_batch_tableau, "stabilizer.create_state")
    tracer.wrap_function(repro.circuits.compiled.compile_circuit, "circuits.compile")
    tracer.wrap_method(GreedyEprScheduler, "schedule", "network.schedule", _count_demands)
    tracer.wrap_method(ShortestPathRouter, "candidate_routes", "network.route")
    tracer.wrap_method(ShortestPathRouter, "congestion_weighted", "network.weighted_route")
    tracer.wrap_method(QLAMachineModel, "build", "desim.machine_build")
    tracer.wrap_function(repro.desim.workload.build_workload, "desim.build_workload")
    tracer.wrap_function(repro.desim.simulate.simulate_workload, "desim.simulate")
    tracer.wrap_method(DiscreteEventSimulator, "run", "desim.event_loop", count_events)
    tracer.wrap_method(LinkModel, "realize", "desim.link_realize")
    tracer.wrap_method(SimulationTrace, "digest", "desim.trace_digest")
    tracer.wrap_function(repro.explore.cache.cache_key, "explore.cache_key")
    tracer.wrap_function(repro.api.runner.resolved_engine, "explore.resolved_engine")
    tracer.wrap_method(ResultCache, "get", "explore.cache_get", _count_hits)
    tracer.wrap_method(ResultCache, "put", "explore.cache_put")
    tracer.wrap_method(ClaimStore, "acquire", "explore.claim")
    tracer.wrap_method(ClaimStore, "release", "explore.claim")
    tracer.wrap_function(repro.explore.runner.run_sweep, "explore.run_sweep")


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def per_layer(
    tracer: Tracer, op_seconds: list[float], warm_seconds: list[float], overhead: float
) -> dict[str, float]:
    """The per-layer metrics of a traced run, by name.

    ``op_seconds`` and ``warm_seconds`` are the traced ops' times and
    ``overhead`` the median ratio of traced to untraced round time, less 1.
    """
    inclusive, calls, self_time = span_totals(tracer.spans)
    counts = tracer.counts
    ops = len(op_seconds)

    def per_op(value: float) -> float:
        return value / ops

    return {
        "api.run_s": per_op(inclusive["api.run"]),
        "api.run_calls": per_op(calls["api.run"]),
        "api.resolve_s": per_op(inclusive["api.resolve"]),
        "arq.experiment_build_s": per_op(inclusive["arq.experiment_build"]),
        "arq.experiment_build_calls": per_op(calls["arq.experiment_build"]),
        "arq.trial_batch_s": per_op(inclusive["arq.trial_batch"]),
        "arq.trial_batch_calls": per_op(calls["arq.trial_batch"]),
        "arq.decode_self_s": per_op(self_time["arq.trial_batch"]),
        "arq.executor_run_s": per_op(inclusive["arq.executor_run"]),
        "arq.executor_run_calls": per_op(calls["arq.executor_run"]),
        "arq.executor_self_s": per_op(self_time["arq.executor_run"]),
        # Each accepted attempt runs the executor three times (prepare,
        # gate, ECC); anything above 1 is verification restarts.
        "arq.attempts_per_batch": _ratio(calls["arq.executor_run"], 3 * calls["arq.trial_batch"]),
        "stabilizer.fused_s": per_op(inclusive["stabilizer.fused"]),
        "stabilizer.fused_calls": per_op(calls["stabilizer.fused"]),
        "stabilizer.fused_lanes": per_op(counts["stabilizer.fused_lanes"]),
        "stabilizer.fused_ns_per_lane": _ratio(
            inclusive["stabilizer.fused"], counts["stabilizer.fused_lanes"], 1e9
        ),
        "stabilizer.fused_us_per_call": _ratio(
            inclusive["stabilizer.fused"], calls["stabilizer.fused"], 1e6
        ),
        "stabilizer.create_state_s": per_op(inclusive["stabilizer.create_state"]),
        "circuits.compile_s": per_op(inclusive["circuits.compile"]),
        "circuits.compile_calls": per_op(calls["circuits.compile"]),
        "network.schedule_s": per_op(inclusive["network.schedule"]),
        "network.route_s": per_op(inclusive["network.route"]),
        "network.route_calls": per_op(calls["network.route"]),
        "network.weighted_route_calls": per_op(calls["network.weighted_route"]),
        "network.weighted_routes_per_demand": _ratio(
            calls["network.weighted_route"], counts["network.demands"]
        ),
        "desim.machine_build_s": per_op(inclusive["desim.machine_build"]),
        "desim.build_workload_s": per_op(inclusive["desim.build_workload"]),
        "desim.event_loop_s": per_op(inclusive["desim.event_loop"]),
        "desim.events": per_op(counts["desim.events"]),
        "desim.link_realize_s": per_op(inclusive["desim.link_realize"]),
        "desim.link_realize_calls": per_op(calls["desim.link_realize"]),
        # simulate_workload minus its wrapped children (schedule, event loop):
        # the dependency DAG, trace emission and metrics.
        "desim.simulate_self_s": per_op(self_time["desim.simulate"]),
        "desim.trace_digest_s": per_op(inclusive["desim.trace_digest"]),
        "explore.cache_key_s": per_op(
            inclusive["explore.cache_key"] + inclusive["explore.resolved_engine"]
        ),
        "explore.cache_get_s": per_op(inclusive["explore.cache_get"]),
        "explore.cache_get_calls": per_op(calls["explore.cache_get"]),
        "explore.cache_hit_ratio": _ratio(counts["explore.cache_hits"], calls["explore.cache_get"]),
        "explore.cache_put_s": per_op(inclusive["explore.cache_put"]),
        "explore.cache_put_calls": per_op(calls["explore.cache_put"]),
        "explore.claim_s": per_op(inclusive["explore.claim"]),
        "explore.claim_calls": per_op(calls["explore.claim"]),
        # run_sweep minus key, get, put, claim and point execution (api.run).
        "explore.sweep_self_s": per_op(self_time["explore.run_sweep"]),
        "explore.cold_sweep_s": statistics.median(op_seconds) if calls["explore.run_sweep"] else 0.0,
        "explore.warm_sweep_s": statistics.median(warm_seconds) if warm_seconds else 0.0,
        "trace.overhead_frac": overhead,
        "trace.spans_per_op": per_op(len(tracer.spans)),
    }
