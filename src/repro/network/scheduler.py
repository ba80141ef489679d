"""The greedy EPR-distribution scheduler (Section 5).

The scheduler's goal, quoting the paper, "is to find paths between logical
qubits to transport all the required EPR pairs within the time it takes to
perform a level 2 error correction".  It is greedy -- "it works by grabbing all
available bandwidth whenever it can" -- and when it cannot find a feasible path
it backs off and retries with an alternative route; demands that still do not
fit are deferred to the next window, which represents a communication stall
(the situation bandwidth 2 is shown to avoid).

Capacity model: each channel direction has ``bandwidth`` lanes; a lane can
serve a bounded number of logical-qubit transfers per error-correction window
(``transfers_per_lane_per_window``), set by the time it takes to stream and
purify the 49 physical EPR pairs of one transversal teleportation through the
segment pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import SchedulingError
from repro.network.router import Route, ShortestPathRouter
from repro.network.topology import InterconnectTopology
from repro.network.traffic import EprDemand
from repro.stabilizer.fused import _address, _cext_kernel, kernel_tier

Node = tuple[int, int]
Edge = tuple[Node, Node]


@dataclass(frozen=True)
class ScheduledTransfer:
    """A demand that was successfully placed on the network.

    Attributes
    ----------
    demand:
        The original request.
    route:
        The path it was assigned.
    window:
        The window in which it was actually served (>= the requested window).
    """

    demand: EprDemand
    route: Route
    window: int

    @property
    def deferred(self) -> bool:
        """True if the transfer missed its requested window."""
        return self.window > self.demand.window


@dataclass(frozen=True)
class StallWindowSummary:
    """How one requested window's demands fared (communication-stall view).

    Attributes
    ----------
    window:
        The *requested* error-correction window being summarized.
    requested:
        Demands that asked to be served in this window.
    served_on_time:
        Of those, how many were served inside the window.
    deferred_out:
        Requested here but served in a later window -- each one is a
        communication stall of the computation running in this window.
    deferred_in:
        Served in this window but requested earlier (carry-over traffic that
        competes with the window's own demands).
    unserved:
        Requested here and never served within the deferral horizon.
    """

    window: int
    requested: int
    served_on_time: int
    deferred_out: int
    deferred_in: int
    unserved: int

    @property
    def stalled(self) -> int:
        """Demands of this window that did not arrive on time."""
        return self.deferred_out + self.unserved


@dataclass
class ScheduleResult:
    """Outcome of scheduling a demand list.

    Attributes
    ----------
    transfers:
        All successfully placed transfers.
    unserved:
        Demands that could not be placed within the allowed deferral horizon.
    edge_load:
        Per-window, per-directed-edge load actually used.
    capacity_per_edge:
        Transfers one directed edge can carry per window.
    num_windows:
        Number of windows the schedule spans (including deferral windows).
    weighted_searches:
        Congestion-weighted route searches the scheduler ran (a search runs
        when both dimension-ordered routes of a demand are full).
    """

    transfers: list[ScheduledTransfer] = field(default_factory=list)
    unserved: list[EprDemand] = field(default_factory=list)
    edge_load: dict[int, dict[Edge, int]] = field(default_factory=dict)
    capacity_per_edge: int = 1
    num_windows: int = 0
    weighted_searches: int = 0

    @property
    def fully_overlapped(self) -> bool:
        """True if every demand was served inside its own error-correction window."""
        return not self.unserved and all(not t.deferred for t in self.transfers)

    @property
    def deferred_count(self) -> int:
        """Number of transfers that missed their requested window."""
        return sum(1 for t in self.transfers if t.deferred)

    # ------------------------------------------------------------------
    # Per-edge and per-window summaries (consumed by the machine simulator,
    # useful standalone; computed from the fields above, so existing
    # consumers of ScheduleResult are unaffected).
    # ------------------------------------------------------------------

    def edge_utilization(self) -> dict[Edge, float]:
        """Mean utilization of every directed edge that carried traffic.

        The fraction of the edge's total transfer slots (capacity times the
        number of windows the schedule spans) actually used.
        """
        if self.capacity_per_edge <= 0:
            return {}
        windows = max(1, self.num_windows)
        denominator = self.capacity_per_edge * windows
        totals: dict[Edge, int] = {}
        for load in self.edge_load.values():
            for edge, used in load.items():
                totals[edge] = totals.get(edge, 0) + used
        return {edge: used / denominator for edge, used in sorted(totals.items())}

    def peak_edge_utilization(self) -> dict[Edge, float]:
        """Highest single-window utilization of every edge that carried traffic."""
        peaks: dict[Edge, float] = {}
        if self.capacity_per_edge <= 0:
            return peaks
        for load in self.edge_load.values():
            for edge, used in load.items():
                fraction = used / self.capacity_per_edge
                if fraction > peaks.get(edge, 0.0):
                    peaks[edge] = fraction
        return dict(sorted(peaks.items()))

    def stall_window_summary(self) -> dict[int, StallWindowSummary]:
        """Per-requested-window stall accounting.

        Windows that saw no demands are omitted; a window appears if demands
        were requested for it or deferred traffic landed in it.
        """
        requested: dict[int, int] = {}
        on_time: dict[int, int] = {}
        deferred_out: dict[int, int] = {}
        deferred_in: dict[int, int] = {}
        unserved: dict[int, int] = {}
        for transfer in self.transfers:
            asked = transfer.demand.window
            requested[asked] = requested.get(asked, 0) + 1
            if transfer.deferred:
                deferred_out[asked] = deferred_out.get(asked, 0) + 1
                deferred_in[transfer.window] = deferred_in.get(transfer.window, 0) + 1
            else:
                on_time[asked] = on_time.get(asked, 0) + 1
        for demand in self.unserved:
            requested[demand.window] = requested.get(demand.window, 0) + 1
            unserved[demand.window] = unserved.get(demand.window, 0) + 1
        windows = sorted(set(requested) | set(deferred_in))
        return {
            window: StallWindowSummary(
                window=window,
                requested=requested.get(window, 0),
                served_on_time=on_time.get(window, 0),
                deferred_out=deferred_out.get(window, 0),
                deferred_in=deferred_in.get(window, 0),
                unserved=unserved.get(window, 0),
            )
            for window in windows
        }


class GreedyEprScheduler:
    """Greedy windowed scheduler for EPR-pair distribution.

    Parameters
    ----------
    topology:
        The interconnect mesh (carries the bandwidth setting).
    transfers_per_lane_per_window:
        How many logical transfers one lane of one channel can carry during a
        single level-2 error-correction window.
    max_deferral_windows:
        How many windows a demand may slip before it is declared unserved.
    """

    def __init__(
        self,
        topology: InterconnectTopology,
        transfers_per_lane_per_window: int = 3,
        max_deferral_windows: int = 4,
    ) -> None:
        if transfers_per_lane_per_window <= 0:
            raise SchedulingError("a lane must carry at least one transfer per window")
        if max_deferral_windows < 0:
            raise SchedulingError("deferral horizon cannot be negative")
        self._topology = topology
        self._router = ShortestPathRouter(topology)
        self._transfers_per_lane = transfers_per_lane_per_window
        self._max_deferral = max_deferral_windows

    @property
    def capacity_per_edge_per_window(self) -> int:
        """Transfers one directed channel can carry per window."""
        return self._topology.bandwidth * self._transfers_per_lane

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, demands: list[EprDemand]) -> ScheduleResult:
        """Place all demands, greedily, window by window.

        The kernel tier in effect (:func:`repro.stabilizer.fused.kernel_tier`)
        picks the placement loop: the C routine ``repro_schedule`` in the
        fused kernel's library, or its Python twin.  Both place every demand
        on the same route in the same window, and fill the result in the
        same order.
        """
        result = ScheduleResult(capacity_per_edge=self.capacity_per_edge_per_window)
        if not demands:
            return result
        horizon = max(d.window for d in demands) + self._max_deferral + 1
        if kernel_tier() == "cext":
            self._place_native(demands, result)
        else:
            self._place(demands, horizon, result)
        result.num_windows = horizon
        return result

    def _place(self, demands: list[EprDemand], horizon: int, result: ScheduleResult) -> None:
        """The Python placement loop.

        Only the window being filled takes new load, so one load list over
        the topology's edge ids serves every window: after a window, the
        edges it touched are copied into :attr:`ScheduleResult.edge_load`
        (in first-touch order) and reset.
        """
        pending: dict[int, list[EprDemand]] = {w: [] for w in range(horizon)}
        for demand in demands:
            pending[demand.window].append(demand)
        index = self._topology.index
        load = [0] * index.num_edge_slots

        for window in range(horizon):
            touched: list[int] = []
            for demand in pending[window]:
                if self._try_place(demand, window, load, touched, result):
                    continue
                next_window = window + 1
                if next_window < horizon and next_window <= demand.window + self._max_deferral:
                    pending[next_window].append(demand)
                else:
                    result.unserved.append(demand)
            if touched:
                result.edge_load[window] = {index.edges[edge]: load[edge] for edge in touched}
                for edge in touched:
                    load[edge] = 0

    def _place_native(self, demands: list[EprDemand], result: ScheduleResult) -> None:
        """The placement loop as one call of the C routine ``repro_schedule``.

        Demands go in as node ids (a tile off the mesh raises
        :class:`RoutingError` first); the transfers, unserved demands and
        window loads come back as arrays in the order the Python loop
        appends them.  A congestion-searched path costs at most the
        X-then-Y path, whose edges each cost at most ``1 + capacity``, so
        ``room`` bounds the path entries of every placement.
        """
        index = self._topology.index
        columns, num_nodes = index.columns, len(index.nodes)
        cost = 1 + self.capacity_per_edge_per_window
        on_mesh = self._topology.adjacency
        packed: list[int] = []
        room = 0
        for demand in demands:
            source, destination = demand.source, demand.destination
            if source == destination:
                # A transfer within one tile crosses no edge, and its route
                # is built from the demand: its ids need only be equal.
                packed += (0, 0, demand.window, demand.pairs)
                room += 1
                continue
            if source not in on_mesh or destination not in on_mesh:
                self._router._check_nodes(source, destination)
            (row, column), (to_row, to_column) = source, destination
            packed += (
                row * columns + column,
                to_row * columns + to_column,
                demand.window,
                demand.pairs,
            )
            room += min(num_nodes, (abs(row - to_row) + abs(column - to_column)) * cost + 1)
        packed_demands = np.array(packed, dtype=np.int64)
        transfers = np.empty((len(demands), 3), dtype=np.int64)
        unserved = np.empty(len(demands), dtype=np.int64)
        paths = np.empty(room, dtype=np.int64)
        loads = np.empty((room, 2), dtype=np.int64)
        windows = np.empty((len(demands), 2), dtype=np.int64)
        counts = np.zeros(5, dtype=np.int64)
        status = _cext_kernel().repro_schedule(
            self._topology.rows,
            self._topology.columns,
            self.capacity_per_edge_per_window,
            self._max_deferral,
            len(demands),
            _address(packed_demands),
            room,
            _address(transfers),
            _address(unserved),
            _address(paths),
            _address(loads),
            _address(windows),
            _address(counts),
        )
        if status != 0:
            raise SchedulingError(f"the native scheduler failed with status {status}")
        placed, lost, used, loaded, searches = counts.tolist()
        nodes = index.nodes
        path_nodes = [nodes[node] for node in paths[:used].tolist()]
        start = 0
        append = result.transfers.append
        for demand_index, window, end in transfers[:placed].tolist():
            demand = demands[demand_index]
            path = tuple(path_nodes[start:end]) if end - start > 1 else (demand.source,)
            append(ScheduledTransfer(demand=demand, route=Route(nodes=path), window=window))
            start = end
        result.unserved = [demands[i] for i in unserved[:lost].tolist()]
        window_ends = windows[:loaded].tolist()
        entries = window_ends[-1][1] if window_ends else 0
        edges = index.edges
        keys = [edges[edge] for edge in loads[:entries, 0].tolist()]
        used_loads = loads[:entries, 1].tolist()
        start = 0
        for window, end in window_ends:
            result.edge_load[window] = dict(zip(keys[start:end], used_loads[start:end]))
            start = end
        result.weighted_searches = searches

    def _try_place(
        self,
        demand: EprDemand,
        window: int,
        load: list[int],
        touched: list[int],
        result: ScheduleResult,
    ) -> bool:
        """Walk the candidate routes in order; reserve the first that fits.

        ``load`` is the window's load per edge id and ``touched`` the edge
        ids it has loaded, in first-touch order.  The candidates are
        generated lazily, so the congestion search runs only when both
        dimension-ordered routes are full.
        """
        if demand.source == demand.destination:
            result.transfers.append(
                ScheduledTransfer(demand=demand, route=Route(nodes=(demand.source,)), window=window)
            )
            return True
        pairs = demand.pairs
        limit = self.capacity_per_edge_per_window - pairs
        route_edge_ids = self._topology.index.route_edge_ids
        (row, column), (to_row, to_column) = demand.source, demand.destination
        # The dimension-ordered candidates: one when the tiles share a row or column.
        ordered = 1 if row == to_row or column == to_column else 2
        routes = self._router.candidate_routes(demand.source, demand.destination, load)
        for tried, route in enumerate(routes, 1):
            edges = route_edge_ids(route.nodes)
            for edge in edges:
                if load[edge] > limit:
                    break
            else:
                for edge in edges:
                    if not load[edge]:  # demands carry at least one pair
                        touched.append(edge)
                    load[edge] += pairs
                result.transfers.append(
                    ScheduledTransfer(demand=demand, route=route, window=window)
                )
                result.weighted_searches += tried > ordered
                return True
        result.weighted_searches += 1
        return False
