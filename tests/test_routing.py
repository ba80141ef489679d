"""Congestion routing: golden routes, reference fuzzes, and lazy candidates.

``ShortestPathRouter.congestion_weighted`` must return exactly the path
networkx 3.x ``shortest_path`` returned on the mesh graph the package used
to build, ties included, because the machine simulator's pinned trace
digests depend on every route.  ``tests/data/congestion_routes.json`` holds
routes recorded from networkx; regenerate it (networkx required) with

    PYTHONPATH=src python tests/test_routing.py --record

Without networkx the routes are fuzzed against ``_heap_reference``, the
tuple-keyed heap search the router ran before it moved to integer ids and a
bucket queue, and the scheduler against ``_eager_schedule``, a reference
that builds every candidate route over the public router API.  The
scheduler runs on both kernel tiers (``REPRO_FUSED_KERNEL``): the C routine
``repro_schedule`` and its Python twin must give the same schedule, and the
C search alone (``repro_route_search``) the recorded routes.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from heapq import heappop, heappush
from itertools import count
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro import faults
from repro.exceptions import RoutingError
from repro.network import (
    EprDemand,
    GreedyEprScheduler,
    InterconnectTopology,
    ScheduleMetrics,
    ScheduleResult,
    ShortestPathRouter,
    StallWindowSummary,
    compute_metrics,
)
from repro.network.router import Route
from repro.network.scheduler import ScheduledTransfer
from repro.stabilizer import fused as fused_module

GOLDEN = Path(__file__).with_name("data") / "congestion_routes.json"
MESHES = ((20, 20), (5, 7), (1, 9), (9, 1), (12, 4))
CASES_PER_MESH = 60


def _native():
    library = fused_module._cext_kernel()
    if library is None:
        pytest.skip("no C kernel on this host")
    return library


@pytest.fixture(params=fused_module.KERNEL_TIERS)
def tier(request, monkeypatch):
    """Run the test on each kernel tier this host has."""
    if request.param == "cext":
        _native()
    monkeypatch.setenv("REPRO_FUSED_KERNEL", request.param)
    return request.param


def _directed_edges(rows: int, columns: int) -> list[tuple]:
    edges = []
    for row in range(rows):
        for column in range(columns):
            for other in ((row + 1, column), (row, column + 1)):
                if other[0] < rows and other[1] < columns:
                    edges += [((row, column), other), (other, (row, column))]
    return edges


def _random_query(rng: random.Random, rows: int, columns: int) -> tuple:
    """A load map of 0-80 loaded edges plus a source and a destination.

    Half the queries load only edges inside the source-destination bounding
    box (grown by one tile), where they block the dimension-ordered paths
    the way scheduler traffic does.
    """
    source = (rng.randrange(rows), rng.randrange(columns))
    destination = (rng.randrange(rows), rng.randrange(columns))
    edges = _directed_edges(rows, columns)
    if rng.random() < 0.5:
        low_r = min(source[0], destination[0]) - 1
        high_r = max(source[0], destination[0]) + 1
        low_c = min(source[1], destination[1]) - 1
        high_c = max(source[1], destination[1]) + 1
        edges = [
            (u, v) for u, v in edges
            if all(low_r <= n[0] <= high_r and low_c <= n[1] <= high_c for n in (u, v))
        ]
    picked = rng.sample(edges, min(len(edges), rng.randint(0, 80)))
    load = {edge: rng.randint(1, 6) for edge in picked}
    return load, source, destination


def _networkx_route(nx, rows: int, columns: int, load: dict, source, destination) -> list:
    """The route networkx returns on the mesh graph the package used to build."""
    graph = nx.Graph()
    for row in range(rows):
        for column in range(columns):
            graph.add_node((row, column))
    for row in range(rows):
        for column in range(columns):
            if row + 1 < rows:
                graph.add_edge((row, column), (row + 1, column))
            if column + 1 < columns:
                graph.add_edge((row, column), (row, column + 1))
    return nx.shortest_path(
        graph, source, destination, weight=lambda u, v, _: 1.0 + load.get((u, v), 0)
    )


def _record() -> None:
    import networkx as nx

    rng = random.Random(20261017)
    cases = []
    for rows, columns in MESHES:
        for _ in range(CASES_PER_MESH):
            load, source, destination = _random_query(rng, rows, columns)
            route = _networkx_route(nx, rows, columns, load, source, destination)
            cases.append(
                {
                    "rows": rows,
                    "columns": columns,
                    "load": [[*u, *v, n] for (u, v), n in sorted(load.items())],
                    "source": list(source),
                    "destination": list(destination),
                    "route": [list(node) for node in route],
                }
            )
    lines = ",\n".join(json.dumps(case, separators=(",", ":")) for case in cases)
    GOLDEN.write_text('{"networkx": "%s", "cases": [\n%s\n]}\n' % (nx.__version__, lines))


def _golden_cases() -> list[dict]:
    return json.loads(GOLDEN.read_text())["cases"]


class TestCongestionWeighted:
    def test_golden_cases_cover_every_mesh(self):
        cases = _golden_cases()
        assert len(cases) == len(MESHES) * CASES_PER_MESH
        assert {(c["rows"], c["columns"]) for c in cases} == set(MESHES)
        sizes = [len(c["load"]) for c in cases]
        assert min(sizes) == 0 and max(sizes) <= 80

    def test_reproduces_recorded_networkx_routes(self):
        routers: dict[tuple[int, int], ShortestPathRouter] = {}
        mismatches = []
        for index, case in enumerate(_golden_cases()):
            shape = (case["rows"], case["columns"])
            if shape not in routers:
                routers[shape] = ShortestPathRouter(InterconnectTopology(*shape))
            load = {((a, b), (c, d)): n for a, b, c, d, n in case["load"]}
            route = routers[shape].congestion_weighted(
                tuple(case["source"]), tuple(case["destination"]), load
            )
            if [list(node) for node in route.nodes] != case["route"]:
                mismatches.append(index)
        assert mismatches == []

    def test_native_search_reproduces_recorded_networkx_routes(self):
        library = _native()
        mismatches = []
        for number, case in enumerate(_golden_cases()):
            rows, columns = case["rows"], case["columns"]
            index = InterconnectTopology(rows, columns).index
            load = np.zeros(index.num_edge_slots, dtype=np.int64)
            for a, b, c, d, units in case["load"]:
                load[index.edge_ids[((a, b), (c, d))]] = units
            path = np.empty(2 * rows * columns, dtype=np.int64)
            length = library.repro_route_search(
                rows,
                columns,
                int(load.max()) + 2,
                load.ctypes.data,
                index.node_id(tuple(case["source"])),
                index.node_id(tuple(case["destination"])),
                path.ctypes.data,
            )
            if [list(index.nodes[node]) for node in path[:length]] != case["route"]:
                mismatches.append(number)
        assert mismatches == []

    def test_fuzz_against_heap_reference(self):
        rng = random.Random(11)
        for rows, columns in MESHES + ((3, 3), (2, 6)):
            topology = InterconnectTopology(rows, columns)
            router = ShortestPathRouter(topology)
            for case in range(60):
                load, source, destination = _random_query(rng, rows, columns)
                if case % 10 == 0:
                    destination = source
                if case % 3 == 0:
                    # Loads at the scheduler's capacity (3 transfers per lane,
                    # bandwidth 2) and above it.
                    load = {edge: rng.choice((6, 6, 7, 12, 40)) for edge in load}
                expected = _heap_reference(topology.adjacency, source, destination, load)
                assert list(router.congestion_weighted(source, destination, load).nodes) == (
                    expected
                ), (rows, columns, source, destination, load)

    def test_load_list_over_edge_ids_routes_like_the_dict(self):
        rng = random.Random(5)
        topology = InterconnectTopology(12, 4)
        router, index = ShortestPathRouter(topology), topology.index
        for _ in range(40):
            load, source, destination = _random_query(rng, 12, 4)
            vector = [0] * index.num_edge_slots
            for edge, units in load.items():
                vector[index.edge_ids[edge]] = units
            assert router.congestion_weighted(source, destination, vector) == (
                router.congestion_weighted(source, destination, load)
            )

    @pytest.mark.parametrize("units", [-1, 1.5, 2.0, "2", None])
    def test_bad_loads_raise_routing_error(self, units):
        router = ShortestPathRouter(InterconnectTopology(4, 4))
        with pytest.raises(RoutingError):
            router.congestion_weighted((0, 0), (3, 3), {((0, 0), (0, 1)): units})

    def test_load_list_of_the_wrong_length_raises_routing_error(self):
        router = ShortestPathRouter(InterconnectTopology(4, 4))
        with pytest.raises(RoutingError, match="64 entries"):
            router.congestion_weighted((0, 0), (3, 3), [0] * 10)

    def test_edges_off_the_mesh_carry_no_load(self):
        router = ShortestPathRouter(InterconnectTopology(4, 4))
        off_mesh = {((0, 0), (2, 2)): 5, ((9, 9), (9, 8)): 5}
        assert router.congestion_weighted((0, 0), (3, 3), off_mesh) == (
            router.congestion_weighted((0, 0), (3, 3))
        )

    def test_live_fuzz_against_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(7)
        for rows, columns in MESHES + ((3, 3), (2, 6)):
            router = ShortestPathRouter(InterconnectTopology(rows, columns))
            for _ in range(40):
                load, source, destination = _random_query(rng, rows, columns)
                expected = _networkx_route(nx, rows, columns, load, source, destination)
                assert list(router.congestion_weighted(source, destination, load).nodes) == (
                    expected
                ), (rows, columns, source, destination, load)


def _random_demands(seed: int, rows: int, columns: int, count: int, windows: int) -> list:
    rng = random.Random(seed)
    demands = []
    for demand_id in range(count):
        source = (rng.randrange(rows), rng.randrange(columns))
        destination = (rng.randrange(rows), rng.randrange(columns))
        demands.append(
            EprDemand(
                demand_id=demand_id,
                source=source,
                destination=destination,
                window=rng.randrange(windows),
                pairs=rng.choice((1, 1, 2)),
            )
        )
    return demands


def _eager_schedule(
    topology: InterconnectTopology,
    demands: list,
    transfers_per_lane_per_window: int = 3,
    max_deferral_windows: int = 4,
) -> SimpleNamespace:
    """Reference greedy schedule that builds every candidate before trying any.

    Per-window loads are dictionaries keyed by directed edge, and routes come
    from the public router methods only.  It returns the lists and
    dictionaries :class:`ScheduleResult` showed before it held columns.
    """
    router = ShortestPathRouter(topology)
    capacity = topology.bandwidth * transfers_per_lane_per_window
    result = SimpleNamespace(
        transfers=[], unserved=[], edge_load={}, capacity_per_edge=capacity, num_windows=0
    )
    if not demands:
        return result
    horizon = max(d.window for d in demands) + max_deferral_windows + 1
    edge_load: dict[int, dict] = {w: {} for w in range(horizon)}
    pending: dict[int, list] = {w: [] for w in range(horizon)}
    for demand in demands:
        pending[demand.window].append(demand)
    for window in range(horizon):
        load = edge_load[window]
        for demand in pending[window]:
            if demand.source == demand.destination:
                route = Route(nodes=(demand.source,))
                result.transfers.append(ScheduledTransfer(demand, route, window))
                continue
            candidates = [
                router.dimension_ordered(demand.source, demand.destination, x_first=True),
                router.dimension_ordered(demand.source, demand.destination, x_first=False),
                router.congestion_weighted(demand.source, demand.destination, load),
            ]
            unique: list[Route] = []
            for route in candidates:
                if route.nodes not in {r.nodes for r in unique}:
                    unique.append(route)
            for route in unique:
                edges = route.directed_edges()
                if all(load.get(edge, 0) + demand.pairs <= capacity for edge in edges):
                    for edge in edges:
                        load[edge] = load.get(edge, 0) + demand.pairs
                    result.transfers.append(ScheduledTransfer(demand, route, window))
                    break
            else:
                if window + 1 < horizon and window + 1 <= demand.window + max_deferral_windows:
                    pending[window + 1].append(demand)
                else:
                    result.unserved.append(demand)
    result.edge_load = {w: load for w, load in edge_load.items() if load}
    result.num_windows = horizon
    return result


COLUMNS = (
    "demand_window", "transfer_demand", "transfer_window", "path_end", "path_nodes",
    "unserved_demand", "load_window", "load_end", "load_edge", "load_used",
    "edge_total", "edge_peak",
)


def _columns(result: ScheduleResult) -> dict:
    """Every column of a schedule as lists, with the scalars beside them."""
    columns = {name: getattr(result, name).tolist() for name in COLUMNS}
    columns.update(
        demands=result.demands,
        capacity_per_edge=result.capacity_per_edge,
        num_windows=result.num_windows,
        weighted_searches=result.weighted_searches,
        mesh_columns=result.mesh_columns,
    )
    return columns


def _summary(result: ScheduleResult | SimpleNamespace) -> tuple:
    return (
        [(t.demand, t.route.nodes, t.window) for t in result.transfers],
        list(result.unserved),
        # Insertion order too: windows ascending, edges in first-use order.
        [(window, list(load.items())) for window, load in result.edge_load.items()],
        result.num_windows,
        result.capacity_per_edge,
    )


def _object_metrics(result: SimpleNamespace, topology: InterconnectTopology) -> ScheduleMetrics:
    """``compute_metrics`` over transfer objects and per-window load dictionaries."""
    deferred = sum(t.window > t.demand.window for t in result.transfers)
    slots = 2 * topology.num_channels * result.capacity_per_edge
    used = sum(sum(load.values()) for load in result.edge_load.values())
    peak = max(
        (v / result.capacity_per_edge for load in result.edge_load.values() for v in load.values()),
        default=0.0,
    )
    hops = [t.route.hops for t in result.transfers]
    return ScheduleMetrics(
        total_demands=len(result.transfers) + len(result.unserved),
        served_in_window=len(result.transfers) - deferred,
        deferred=deferred,
        unserved=len(result.unserved),
        fully_overlapped=not result.unserved and not deferred,
        aggregate_utilization=used / (slots * len(result.edge_load)) if result.edge_load else 0.0,
        peak_edge_utilization=peak,
        average_route_hops=sum(hops) / len(hops) if hops else 0.0,
    )


def _object_stall_summary(result: SimpleNamespace) -> dict:
    """``stall_window_summary`` over transfer and demand objects."""
    counts: dict = {}
    for transfer in result.transfers:
        late = transfer.window > transfer.demand.window
        asked = counts.setdefault(transfer.demand.window, [0] * 5)
        asked[0] += 1
        asked[2 if late else 1] += 1
        if late:
            counts.setdefault(transfer.window, [0] * 5)[3] += 1
    for demand in result.unserved:
        asked = counts.setdefault(demand.window, [0] * 5)
        asked[0] += 1
        asked[4] += 1
    return {window: StallWindowSummary(window, *counts[window]) for window in sorted(counts)}


class TestLazyCandidates:
    @pytest.mark.parametrize("bandwidth", [1, 2])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_lazy_schedule_equals_eager_reference(self, bandwidth, seed):
        topology = InterconnectTopology(rows=8, columns=8, bandwidth=bandwidth)
        demands = _random_demands(seed, 8, 8, count=240, windows=6)
        lazy = GreedyEprScheduler(topology, transfers_per_lane_per_window=1).schedule(demands)
        eager = _eager_schedule(topology, demands, transfers_per_lane_per_window=1)
        assert _summary(lazy) == _summary(eager)
        # The workload is dense enough to exercise all three candidates.
        assert lazy.deferred_count > 0
        assert any(_turns(t.route) > 1 for t in lazy.transfers)

    def test_weighted_search_skipped_when_x_then_y_fits(self, tier):
        topology = InterconnectTopology(rows=6, columns=6, bandwidth=2)
        router = ShortestPathRouter(topology)
        first = next(router.candidate_routes((0, 0), (3, 4), {}))
        assert first.nodes == router.dimension_ordered((0, 0), (3, 4)).nodes
        demands = [
            EprDemand(demand_id=i, source=(i % 6, 0), destination=(i % 6, 5), window=i // 6)
            for i in range(12)
        ]
        result = GreedyEprScheduler(topology).schedule(demands)
        assert len(result.transfers) == 12 and result.weighted_searches == 0
        # Once X-then-Y and Y-then-X are both full, the search does run: the
        # third demand finds every edge out of (0, 0) loaded, so it slips to
        # window 1, where X-then-Y is free again.
        narrow = InterconnectTopology(rows=3, columns=3, bandwidth=1)
        demands = [
            EprDemand(demand_id=i, source=(0, 0), destination=(2, 2), window=0) for i in range(3)
        ]
        result = GreedyEprScheduler(narrow, transfers_per_lane_per_window=1).schedule(demands)
        assert result.weighted_searches == 1
        assert [t.window for t in result.transfers] == [0, 0, 1]
        full = {
            edge: 99
            for x_first in (True, False)
            for edge in router.dimension_ordered((0, 0), (2, 2), x_first).directed_edges()
        }
        assert len(list(router.candidate_routes((0, 0), (2, 2), full))) == 3


def _tier_demands(seed: int, rows: int, columns: int, capacity: int) -> list:
    """Dense random demands plus a demand from a tile to itself and one that
    asks for more pairs than an edge carries."""
    demands = _random_demands(seed, rows, columns, count=240, windows=6)
    far = (rows - 1, columns - 1)
    return demands + [
        EprDemand(demand_id=240, source=(0, 0), destination=(0, 0), window=2),
        EprDemand(demand_id=241, source=(0, 0), destination=far, window=3, pairs=capacity + 1),
    ]


class TestKernelTiers:
    @pytest.mark.parametrize("rows, columns", MESHES)
    @pytest.mark.parametrize("bandwidth", [1, 2])
    @pytest.mark.parametrize("per_lane", [1, 3])
    def test_native_schedule_equals_python_schedule(
        self, monkeypatch, rows, columns, bandwidth, per_lane
    ):
        _native()
        topology = InterconnectTopology(rows=rows, columns=columns, bandwidth=bandwidth)
        demands = _tier_demands(rows * columns + bandwidth, rows, columns, bandwidth * per_lane)
        results = {}
        for tier in fused_module.KERNEL_TIERS:
            monkeypatch.setenv("REPRO_FUSED_KERNEL", tier)
            results[tier] = GreedyEprScheduler(
                topology, transfers_per_lane_per_window=per_lane
            ).schedule(demands)
        native, python = results["cext"], results["numpy"]
        assert _columns(native) == _columns(python)
        eager = _eager_schedule(topology, demands, transfers_per_lane_per_window=per_lane)
        # The object views equal the lists the schedule held before columns.
        assert _summary(native) == _summary(python) == _summary(eager)
        # The summaries read off the columns equal the per-object formulas.
        for result in (native, python):
            assert compute_metrics(result, topology) == _object_metrics(eager, topology)
            assert result.stall_window_summary() == _object_stall_summary(eager)
        # Every path of the placement loop is taken somewhere in the grid.
        assert demands[241] in native.unserved
        assert [t.route.nodes for t in native.transfers if t.demand.demand_id == 240] == [
            ((0, 0),)
        ]
        if per_lane == 1 and bandwidth == 1:
            assert native.weighted_searches > 0 and native.deferred_count > 0
            assert len(native.unserved) > 1

    def test_object_views_are_cached_and_read_only(self, tier):
        topology = InterconnectTopology(rows=5, columns=7, bandwidth=1)
        demands = _tier_demands(3, 5, 7, capacity=3)
        result = GreedyEprScheduler(topology).schedule(demands)
        assert result.transfers is result.transfers and result.edge_load is result.edge_load
        assert isinstance(result.transfers, tuple) and isinstance(result.unserved, tuple)
        assert result.transfers == tuple(map(result.transfer, range(len(result.transfers))))
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.transfers = ()
        window, load = next(iter(result.edge_load.items()))
        with pytest.raises(TypeError):
            result.edge_load[window] = {}
        with pytest.raises(TypeError):
            load[next(iter(load))] = 0
        with pytest.raises(ValueError):
            result.path_nodes[0] = 1
        assert result.transfer_hops.tolist() == [t.route.hops for t in result.transfers]
        assert result.transfer_ends().tolist() == [
            [list(t.route.source), list(t.route.destination)] for t in result.transfers
        ]
        assert result.deferred_count == sum(t.deferred for t in result.transfers)

    def test_empty_schedule_has_empty_columns(self, tier):
        result = GreedyEprScheduler(InterconnectTopology(rows=3, columns=3)).schedule([])
        assert all(getattr(result, name).size == 0 for name in COLUMNS[:-2])
        assert not result.edge_total.any() and not result.edge_peak.any()
        assert result.transfers == result.unserved == () and not result.edge_load
        assert result.edge_utilization() == result.peak_edge_utilization() == {}
        assert result.mean_edge_utilization() == result.max_edge_utilization() == 0.0

    def test_injected_native_fault_runs_the_python_loop(self, monkeypatch):
        monkeypatch.delenv("REPRO_FUSED_KERNEL", raising=False)

        def refuse(*args, **kwargs):
            raise AssertionError("the native schedule ran under a kernel.native fault")

        monkeypatch.setattr(GreedyEprScheduler, "_place_native", refuse)
        topology = InterconnectTopology(rows=5, columns=7, bandwidth=1)
        demands = _tier_demands(3, 5, 7, capacity=3)
        with faults.fault_profile(faults.FaultProfile(seed=0, kernel=1.0)):
            result = GreedyEprScheduler(topology).schedule(demands)
        assert _summary(result) == _summary(_eager_schedule(topology, demands))

    def test_off_mesh_node_raises_routing_error(self, tier):
        scheduler = GreedyEprScheduler(InterconnectTopology(rows=4, columns=4))
        demands = [
            EprDemand(demand_id=0, source=(0, 0), destination=(3, 3), window=0),
            EprDemand(demand_id=1, source=(0, 0), destination=(0, 4), window=0),
        ]
        with pytest.raises(RoutingError, match=r"\(0, 4\)"):
            scheduler.schedule(demands)
        # A demand from an off-mesh tile to itself is refused as well.
        within = [EprDemand(demand_id=0, source=(5, 5), destination=(5, 5), window=0)]
        with pytest.raises(RoutingError, match=r"\(5, 5\)"):
            scheduler.schedule(within)


def _heap_reference(adjacency: dict, source, target, load: dict) -> list:
    """The router's search before integer ids: a tuple-keyed heap Dijkstra.

    The forward and backward searches alternate, each heap orders entries by
    ``(distance, push counter)`` with one counter shared by both, neighbours
    are expanded in ``adjacency`` order, and the search stops the first time
    a node is settled from both sides, returning the best meeting node seen
    so far.
    """
    if source == target:
        return [source]
    settled: tuple[dict, dict] = ({}, {})
    seen: tuple[dict, dict] = ({source: 0}, {target: 0})
    preds: tuple[dict, dict] = ({source: None}, {target: None})
    fringe: tuple[list, list] = ([(0, 0, source)], [(0, 1, target)])
    pushes = count(2)
    best = None
    meet = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, node = heappop(fringe[direction])
        done = settled[direction]
        if node in done:
            continue
        done[node] = dist
        if node in settled[1 - direction]:
            return _walk(preds[0], meet)[::-1] + _walk(preds[1], preds[1][meet])
        reached, reached_other = seen[direction], seen[1 - direction]
        pred, heap = preds[direction], fringe[direction]
        for neighbour in adjacency[node]:
            if neighbour in done:
                continue
            edge = (node, neighbour) if direction == 0 else (neighbour, node)
            length = dist + 1 + load.get(edge, 0)
            if neighbour not in reached or length < reached[neighbour]:
                reached[neighbour] = length
                heappush(heap, (length, next(pushes), neighbour))
                pred[neighbour] = node
                if neighbour in reached_other:
                    total = length + reached_other[neighbour]
                    if best is None or total < best:
                        best, meet = total, neighbour
    raise AssertionError(f"no path from {source} to {target}")


def _walk(preds: dict, node) -> list:
    path = []
    while node is not None:
        path.append(node)
        node = preds[node]
    return path


def _turns(route: Route) -> int:
    """Number of direction changes along a route."""
    steps = [(b[0] - a[0], b[1] - a[1]) for a, b in route.directed_edges()]
    return sum(1 for s, t in zip(steps, steps[1:]) if s != t)


if __name__ == "__main__":
    if "--record" not in sys.argv[1:]:
        sys.exit("usage: PYTHONPATH=src python tests/test_routing.py --record")
    _record()
    print(f"recorded {len(_golden_cases())} cases to {GOLDEN}")
