"""Congestion routing: golden routes, a live networkx fuzz, and lazy candidates.

``ShortestPathRouter.congestion_weighted`` must return exactly the path
networkx 3.x ``shortest_path`` returned on the mesh graph the package used
to build, ties included, because the machine simulator's pinned trace
digests depend on every route.  ``tests/data/congestion_routes.json`` holds
routes recorded from networkx; regenerate it (networkx required) with

    PYTHONPATH=src python tests/test_routing.py --record
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from repro.network import (
    EprDemand,
    GreedyEprScheduler,
    InterconnectTopology,
    ScheduleResult,
    ShortestPathRouter,
)
from repro.network.router import Route
from repro.network.scheduler import ScheduledTransfer

GOLDEN = Path(__file__).with_name("data") / "congestion_routes.json"
MESHES = ((20, 20), (5, 7), (1, 9), (9, 1), (12, 4))
CASES_PER_MESH = 60


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


class _EagerScheduler(GreedyEprScheduler):
    """Reference: builds the full candidate list before trying any route."""

    def _try_place(self, demand, window, load, result) -> bool:
        if demand.source == demand.destination:
            result.transfers.append(
                ScheduledTransfer(demand=demand, route=Route(nodes=(demand.source,)), window=window)
            )
            return True
        candidates = [
            self._router.dimension_ordered(demand.source, demand.destination, x_first=True),
            self._router.dimension_ordered(demand.source, demand.destination, x_first=False),
            self._router.congestion_weighted(demand.source, demand.destination, load),
        ]
        unique: list[Route] = []
        for route in candidates:
            if route.nodes not in {r.nodes for r in unique}:
                unique.append(route)
        capacity = self.capacity_per_edge_per_window
        for route in unique:
            edges = route.directed_edges()
            if all(load.get(edge, 0) + demand.pairs <= capacity for edge in edges):
                for edge in edges:
                    load[edge] = load.get(edge, 0) + demand.pairs
                transfer = ScheduledTransfer(demand=demand, route=route, window=window)
                result.transfers.append(transfer)
                return True
        return False


def _summary(result: ScheduleResult) -> tuple:
    return (
        [(t.demand, t.route.nodes, t.window) for t in result.transfers],
        list(result.unserved),
        result.edge_load,
        result.num_windows,
        result.capacity_per_edge,
    )


class TestLazyCandidates:
    @pytest.mark.parametrize("bandwidth", [1, 2])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_lazy_schedule_equals_eager_reference(self, bandwidth, seed):
        topology = InterconnectTopology(rows=8, columns=8, bandwidth=bandwidth)
        demands = _random_demands(seed, 8, 8, count=240, windows=6)
        lazy = GreedyEprScheduler(topology, transfers_per_lane_per_window=1).schedule(demands)
        eager = _EagerScheduler(topology, transfers_per_lane_per_window=1).schedule(demands)
        assert _summary(lazy) == _summary(eager)
        # The workload is dense enough to exercise all three candidates.
        assert lazy.deferred_count > 0
        assert any(_turns(t.route) > 1 for t in lazy.transfers)

    def test_weighted_search_skipped_when_x_then_y_fits(self, monkeypatch):
        calls = []
        original = ShortestPathRouter.congestion_weighted

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ShortestPathRouter, "congestion_weighted", counting)
        topology = InterconnectTopology(rows=6, columns=6, bandwidth=2)
        router = ShortestPathRouter(topology)
        first = next(router.candidate_routes((0, 0), (3, 4), {}))
        assert first.nodes == router.dimension_ordered((0, 0), (3, 4)).nodes
        demands = [
            EprDemand(demand_id=i, source=(i % 6, 0), destination=(i % 6, 5), window=i // 6)
            for i in range(12)
        ]
        result = GreedyEprScheduler(topology).schedule(demands)
        assert len(result.transfers) == 12 and calls == []
        # Once X-then-Y and Y-then-X are both full, the search does run.
        full = {
            edge: 99
            for x_first in (True, False)
            for edge in router.dimension_ordered((0, 0), (2, 2), x_first).directed_edges()
        }
        routes = list(router.candidate_routes((0, 0), (2, 2), full))
        assert len(routes) == 3 and len(calls) == 1


def _turns(route: Route) -> int:
    """Number of direction changes along a route."""
    steps = [(b[0] - a[0], b[1] - a[1]) for a, b in route.directed_edges()]
    return sum(1 for s, t in zip(steps, steps[1:]) if s != t)


if __name__ == "__main__":
    if "--record" not in sys.argv[1:]:
        sys.exit("usage: PYTHONPATH=src python tests/test_routing.py --record")
    _record()
    print(f"recorded {len(_golden_cases())} cases to {GOLDEN}")
