"""Utilisation and overlap metrics of an EPR schedule.

The paper's headline scheduling results are (Section 5): with a bandwidth of
two channels in each direction the scheduler always overlaps communication
with error correction, and the greedy scheduler "scalably achieves an average
of ~23% aggregate bandwidth utilisation" on the Toffoli workload.  This module
computes those two quantities (plus a few supporting statistics) from a
:class:`~repro.network.scheduler.ScheduleResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.scheduler import ScheduleResult
from repro.network.topology import InterconnectTopology


@dataclass(frozen=True)
class ScheduleMetrics:
    """Summary statistics of one scheduling run.

    Attributes
    ----------
    total_demands:
        Number of EPR transfer demands submitted.
    served_in_window:
        Demands served within their own error-correction window.
    deferred:
        Demands served late (in a later window).
    unserved:
        Demands that could not be served at all.
    fully_overlapped:
        True when communication never delays computation (no deferrals, no
        unserved demands).
    aggregate_utilization:
        Used directed-lane transfer slots divided by available slots, averaged
        over the windows that carry any traffic.
    peak_edge_utilization:
        Highest per-channel utilisation observed in any window.
    average_route_hops:
        Mean hop count of the scheduled routes.
    """

    total_demands: int
    served_in_window: int
    deferred: int
    unserved: int
    fully_overlapped: bool
    aggregate_utilization: float
    peak_edge_utilization: float
    average_route_hops: float


def compute_metrics(result: ScheduleResult, topology: InterconnectTopology) -> ScheduleMetrics:
    """Compute :class:`ScheduleMetrics` for a finished schedule."""
    placed = len(result.transfer_demand)
    deferred = result.deferred_count
    # Aggregate utilisation: slots used / slots available over active windows.
    available = 2 * topology.num_channels * result.capacity_per_edge * len(result.load_window)
    used = int(result.load_used.sum())
    hops = int(result.transfer_hops.sum())
    return ScheduleMetrics(
        total_demands=placed + len(result.unserved_demand),
        served_in_window=placed - deferred,
        deferred=deferred,
        unserved=len(result.unserved_demand),
        fully_overlapped=result.fully_overlapped,
        aggregate_utilization=used / available if available > 0 else 0.0,
        peak_edge_utilization=result.max_edge_utilization(),
        average_route_hops=hops / placed if placed else 0.0,
    )
