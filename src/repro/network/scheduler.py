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

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import SchedulingError
from repro.network.router import Route, ShortestPathRouter
from repro.network.topology import InterconnectTopology
from repro.network.traffic import EprDemand
from repro.stabilizer.fused import _address, _cext_kernel, kernel_tier

Node = tuple[int, int]
Edge = tuple[Node, Node]

#: Where the edge to a node's up, left, down and right neighbour ranks among
#: the node's edges sorted as coordinate pairs (up, left, right, down).
_SORTED_RANK = np.array([0, 1, 3, 2], dtype=np.int64)


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


@dataclass(frozen=True, eq=False)
class ScheduleResult:
    """Outcome of scheduling a demand list, as read-only int64 columns.

    Node ids are ``row * mesh_columns + column`` and edge ids ``4 * node + k``
    (``k`` = up, left, down, right), as in :class:`~repro.network.topology.MeshIndex`.
    The views :attr:`transfers`, :attr:`unserved` and :attr:`edge_load` are
    built from the columns on first use.

    Attributes
    ----------
    demands / demand_window:
        The scheduled demands (the columns index them) and their requested windows.
    transfer_demand / transfer_window / path_end / path_nodes:
        Per transfer, in placement order: its demand, its served window and
        the end of its path in ``path_nodes`` (node ids, path after path).
    unserved_demand:
        The demands not placed within the deferral horizon.
    load_window / load_end / load_edge / load_used:
        Each window that loaded edges, ascending, the end of its run, and
        the run's edges (in first-touch order) with their loads.
    edge_total / edge_peak:
        Per edge id, the load summed over windows and its largest in one.
    capacity_per_edge:
        Transfers one directed edge can carry per window.
    num_windows:
        Number of windows the schedule spans (including deferral windows).
    weighted_searches:
        Congestion-weighted route searches the scheduler ran (a search runs
        when both dimension-ordered routes of a demand are full).
    mesh_columns:
        Columns of the mesh the node and edge ids count over.
    """

    demands: tuple[EprDemand, ...]
    demand_window: np.ndarray
    transfer_demand: np.ndarray
    transfer_window: np.ndarray
    path_end: np.ndarray
    path_nodes: np.ndarray
    unserved_demand: np.ndarray
    load_window: np.ndarray
    load_end: np.ndarray
    load_edge: np.ndarray
    load_used: np.ndarray
    edge_total: np.ndarray
    edge_peak: np.ndarray
    capacity_per_edge: int
    num_windows: int
    weighted_searches: int
    mesh_columns: int

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @cached_property
    def transfers(self) -> tuple[ScheduledTransfer, ...]:
        """All successfully placed transfers, in placement order."""
        return tuple(map(self.transfer, range(len(self.transfer_demand))))

    @cached_property
    def unserved(self) -> tuple[EprDemand, ...]:
        """Demands that could not be placed within the allowed deferral horizon."""
        return tuple([self.demands[i] for i in self.unserved_demand.tolist()])

    @cached_property
    def edge_load(self) -> Mapping[int, Mapping[Edge, int]]:
        """Per-window, per-directed-edge load actually used (edges in first-touch order)."""
        edges, used = self._edges(self.load_edge), self.load_used.tolist()
        starts = [0, *self.load_end.tolist()]
        return MappingProxyType({
            window: MappingProxyType(dict(zip(edges[start:end], used[start:end])))
            for window, start, end in zip(self.load_window.tolist(), starts, starts[1:])
        })

    def transfer(self, position: int) -> ScheduledTransfer:
        """The ``position``-th placed transfer, built anew from the columns."""
        start = int(self.path_end[position - 1]) if position else 0
        end = int(self.path_end[position])
        demand = self.demands[self.transfer_demand[position]]
        nodes = self.path_nodes[start:end].tolist()
        path = tuple([divmod(node, self.mesh_columns) for node in nodes])
        return ScheduledTransfer(demand, Route(nodes=path), int(self.transfer_window[position]))

    @property
    def transfer_hops(self) -> np.ndarray:
        """Channel hops of every transfer's path."""
        return np.diff(self.path_end, prepend=0) - 1

    def transfer_ends(self) -> np.ndarray:
        """Per transfer, ``[[row, column], [row, column]]`` of its path's first and last tile."""
        last = self.path_end - 1
        nodes = self.path_nodes[np.stack([last - self.transfer_hops, last], 1)]
        return np.stack([nodes // self.mesh_columns, nodes % self.mesh_columns], 2)

    def _edges(self, edge_ids: np.ndarray) -> list[Edge]:
        """The directed edge of every edge id."""
        columns = self.mesh_columns
        nodes = edge_ids >> 2
        ends = nodes + np.array([-columns, -1, columns, 1])[edge_ids & 3]
        rows = np.stack([nodes // columns, nodes % columns, ends // columns, ends % columns], 1)
        return [((a, b), (c, d)) for a, b, c, d in rows.tolist()]

    @property
    def fully_overlapped(self) -> bool:
        """True if every demand was served inside its own error-correction window."""
        return not len(self.unserved_demand) and not self.deferred_count

    @property
    def deferred_count(self) -> int:
        """Number of transfers that missed their requested window."""
        requested = self.demand_window[self.transfer_demand]
        return int(np.count_nonzero(self.transfer_window > requested))

    # ------------------------------------------------------------------
    # Per-edge and per-window summaries (consumed by the machine simulator,
    # useful standalone).
    # ------------------------------------------------------------------

    def _loaded_edges(self) -> np.ndarray:
        """Ids of the edges that carried traffic, ordered as their directed edges sort."""
        ids = np.flatnonzero(self.edge_total)
        corners = ids & 3
        return ids[np.argsort(ids - corners + _SORTED_RANK[corners])]

    def _utilization(self, edge_ids: np.ndarray) -> list[float]:
        slots = self.capacity_per_edge * max(1, self.num_windows)
        return (self.edge_total[edge_ids] / slots).tolist()

    def edge_utilization(self) -> dict[Edge, float]:
        """Mean utilization of every directed edge that carried traffic, in edge order.

        The fraction of the edge's total transfer slots (capacity times the
        number of windows the schedule spans) actually used.
        """
        if self.capacity_per_edge <= 0:
            return {}
        edge_ids = self._loaded_edges()
        return dict(zip(self._edges(edge_ids), self._utilization(edge_ids)))

    def peak_edge_utilization(self) -> dict[Edge, float]:
        """Highest single-window utilization of every edge that carried traffic."""
        if self.capacity_per_edge <= 0:
            return {}
        edge_ids = self._loaded_edges()
        peaks = (self.edge_peak[edge_ids] / self.capacity_per_edge).tolist()
        return dict(zip(self._edges(edge_ids), peaks))

    def mean_edge_utilization(self) -> float:
        """Mean of :meth:`edge_utilization` (0.0 without traffic), summed left to right."""
        fractions = self._utilization(self._loaded_edges()) if self.capacity_per_edge > 0 else []
        return sum(fractions) / len(fractions) if fractions else 0.0

    def max_edge_utilization(self) -> float:
        """Largest value of :meth:`peak_edge_utilization` (0.0 without traffic)."""
        if self.capacity_per_edge <= 0 or not self.edge_peak.any():
            return 0.0
        return int(self.edge_peak.max()) / self.capacity_per_edge

    def stall_window_summary(self) -> dict[int, StallWindowSummary]:
        """Per-requested-window stall accounting.

        Windows that saw no demands are omitted; a window appears if demands
        were requested for it or deferred traffic landed in it.
        """
        asked = self.demand_window[self.transfer_demand]
        late = self.transfer_window > asked
        lost = self.demand_window[self.unserved_demand].tolist()
        counts = {
            "requested": Counter(asked.tolist() + lost),
            "served_on_time": Counter(asked[~late].tolist()),
            "deferred_out": Counter(asked[late].tolist()),
            "deferred_in": Counter(self.transfer_window[late].tolist()),
            "unserved": Counter(lost),
        }
        windows = sorted(counts["requested"].keys() | counts["deferred_in"].keys())
        return {
            window: StallWindowSummary(window, **{name: c[window] for name, c in counts.items()})
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

    def schedule(self, demands: Sequence[EprDemand]) -> ScheduleResult:
        """Place all demands, greedily, window by window.

        The kernel tier in effect (:func:`repro.stabilizer.fused.kernel_tier`)
        picks the placement loop: the C routine ``repro_schedule`` in the
        fused kernel's library, or its Python twin.  Both place every demand
        on the same route in the same window, and fill the same columns in
        the same order.
        """
        demands = tuple(demands)
        topology = self._topology
        packed = self._pack(demands)
        horizon = int(packed[:, 2].max()) + self._max_deferral + 1 if demands else 0
        if demands and kernel_tier() == "cext":
            placement = self._place_native(packed)
        else:
            placement = self._place(demands, horizon)
        transfers, unserved, paths, loads, windows, searches = placement
        transfer_demand, transfer_window, path_end = transfers.reshape(-1, 3).T
        load_window, load_end = windows.reshape(-1, 2).T
        edges, used = loads.reshape(-1, 2).T
        total = np.zeros(4 * topology.rows * topology.columns, dtype=np.int64)
        peak = np.zeros_like(total)
        np.add.at(total, edges, used)
        np.maximum.at(peak, edges, used)
        return ScheduleResult(
            demands=demands, demand_window=packed[:, 2],
            transfer_demand=transfer_demand, transfer_window=transfer_window, path_end=path_end,
            path_nodes=paths, unserved_demand=unserved,
            load_window=load_window, load_end=load_end, load_edge=edges, load_used=used,
            edge_total=total, edge_peak=peak,
            capacity_per_edge=self.capacity_per_edge_per_window, num_windows=horizon,
            weighted_searches=searches, mesh_columns=topology.columns,
        )

    def _pack(self, demands: tuple[EprDemand, ...]) -> np.ndarray:
        """The demands as int64 rows: source and destination node ids, window, pairs.

        A tile off the mesh raises :class:`RoutingError`.
        """
        columns = self._topology.columns
        on_mesh = self._topology.adjacency
        packed: list[int] = []
        for demand in demands:
            source, destination = demand.source, demand.destination
            if source not in on_mesh or destination not in on_mesh:
                self._router._check_nodes(source, destination)
            (row, column), (to_row, to_column) = source, destination
            source, destination = row * columns + column, to_row * columns + to_column
            packed += (source, destination, demand.window, demand.pairs)
        return np.array(packed, dtype=np.int64).reshape(-1, 4)

    def _place(self, demands: tuple[EprDemand, ...], horizon: int) -> tuple:
        """The Python placement loop; returns what ``repro_schedule`` fills, flat.

        Only the window being filled takes new load, so one load list over
        the topology's edge ids serves every window: after a window, the
        edges it touched are recorded with their loads (in first-touch
        order) and reset.
        """
        pending: list[list[int]] = [[] for _ in range(horizon)]
        for position, demand in enumerate(demands):
            pending[demand.window].append(position)
        index = self._topology.index
        node_id = index.node_id
        load = [0] * index.num_edge_slots
        transfers, unserved, paths, loads, windows = [], [], [], [], []
        searches = 0

        for window in range(horizon):
            touched: list[int] = []
            for position in pending[window]:
                demand = demands[position]
                route, searched = self._try_place(demand, load, touched)
                searches += searched
                if route is not None:
                    paths += map(node_id, route.nodes)
                    transfers += (position, window, len(paths))
                elif window + 1 < horizon and window + 1 <= demand.window + self._max_deferral:
                    pending[window + 1].append(position)
                else:
                    unserved.append(position)
            for edge in touched:
                loads += (edge, load[edge])
                load[edge] = 0
            if touched:
                windows += (window, len(loads) // 2)
        columns = (transfers, unserved, paths, loads, windows)
        return (*[np.array(column, dtype=np.int64) for column in columns], searches)

    def _place_native(self, packed: np.ndarray) -> tuple:
        """The placement loop as one call of the C routine ``repro_schedule``.

        ``packed`` holds the demands as :meth:`_pack` writes them; the
        returned arrays are views of the routine's outputs, in the order
        the Python loop appends them.  A congestion-searched path costs at
        most the X-then-Y path, whose edges each cost at most
        ``1 + capacity``, so ``room`` bounds the path entries of every
        placement.
        """
        topology = self._topology
        columns, num_nodes = topology.columns, topology.rows * topology.columns
        source, target = packed[:, 0], packed[:, 1]
        hops = abs(source // columns - target // columns) + abs(source % columns - target % columns)
        room = int(np.minimum(num_nodes, hops * (1 + self.capacity_per_edge_per_window) + 1).sum())
        count = len(packed)
        transfers = np.empty((count, 3), dtype=np.int64)
        unserved = np.empty(count, dtype=np.int64)
        paths = np.empty(room, dtype=np.int64)
        loads = np.empty((room, 2), dtype=np.int64)
        windows = np.empty((count, 2), dtype=np.int64)
        counts = np.zeros(5, dtype=np.int64)
        outputs = (transfers, unserved, paths, loads, windows, counts)
        status = _cext_kernel().repro_schedule(
            topology.rows, columns, self.capacity_per_edge_per_window, self._max_deferral, count,
            _address(packed), room, *map(_address, outputs),
        )
        if status != 0:
            raise SchedulingError(f"the native scheduler failed with status {status}")
        placed, lost, used, loaded, searches = counts.tolist()
        entries = int(windows[loaded - 1, 1]) if loaded else 0
        return (
            transfers[:placed], unserved[:lost], paths[:used], loads[:entries], windows[:loaded],
            searches,
        )

    def _try_place(
        self, demand: EprDemand, load: list[int], touched: list[int]
    ) -> tuple[Route | None, int]:
        """Walk the candidate routes in order; reserve the first that fits.

        ``load`` is the window's load per edge id and ``touched`` the edge
        ids it has loaded, in first-touch order.  The candidates are
        generated lazily, so the congestion search runs only when both
        dimension-ordered routes are full.  Returns the route reserved
        (None when none fits) and the number of congestion searches run.
        """
        if demand.source == demand.destination:
            return Route(nodes=(demand.source,)), 0
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
                return route, int(tried > ordered)
        return None, 1
