"""Tests for the interconnect topology, router, traffic generator and scheduler."""

from __future__ import annotations

import pytest

from repro.exceptions import LayoutError, ParameterError, RoutingError, SchedulingError
from repro.network import (
    EprDemand,
    GreedyEprScheduler,
    InterconnectTopology,
    ShortestPathRouter,
    StallWindowSummary,
    ToffoliTrafficGenerator,
    compute_metrics,
)


@pytest.fixture
def topology():
    return InterconnectTopology(rows=6, columns=6, bandwidth=2)


class TestTopology:
    def test_mesh_structure(self, topology):
        assert topology.num_nodes == 36
        assert topology.num_channels == 2 * 6 * 5  # horizontal + vertical edges
        assert topology.num_directed_lanes == 2 * 2 * 60

    def test_neighbors_of_corner_and_centre(self, topology):
        assert len(topology.neighbors((0, 0))) == 2
        assert len(topology.neighbors((3, 3))) == 4

    def test_node_of_qubit_row_major(self, topology):
        assert topology.node_of_qubit(0) == (0, 0)
        assert topology.node_of_qubit(7) == (1, 1)

    def test_node_of_qubit_out_of_range(self, topology):
        with pytest.raises(LayoutError):
            topology.node_of_qubit(36)

    def test_distances(self, topology):
        assert topology.hop_distance((0, 0), (2, 3)) == 5
        cells = topology.cell_distance((0, 0), (1, 1))
        assert cells == topology.tile.pitch_rows + topology.tile.pitch_columns

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(LayoutError):
            InterconnectTopology(rows=0, columns=3)
        with pytest.raises(LayoutError):
            InterconnectTopology(rows=3, columns=3, bandwidth=0)


class TestRouter:
    def test_dimension_ordered_path_hops(self, topology):
        router = ShortestPathRouter(topology)
        route = router.dimension_ordered((0, 0), (2, 3))
        assert route.hops == 5
        assert route.source == (0, 0)
        assert route.destination == (2, 3)

    def test_x_first_and_y_first_differ(self, topology):
        router = ShortestPathRouter(topology)
        x_first = router.dimension_ordered((0, 0), (2, 2), x_first=True)
        y_first = router.dimension_ordered((0, 0), (2, 2), x_first=False)
        assert x_first.nodes != y_first.nodes
        assert x_first.hops == y_first.hops

    def test_congestion_weighted_avoids_busy_edge(self, topology):
        router = ShortestPathRouter(topology)
        congestion = {((0, 0), (0, 1)): 100}
        route = router.congestion_weighted((0, 0), (0, 2), congestion)
        assert ((0, 0), (0, 1)) not in route.directed_edges()

    def test_candidate_routes_are_unique(self, topology):
        router = ShortestPathRouter(topology)
        routes = list(router.candidate_routes((0, 0), (3, 3)))
        assert len({r.nodes for r in routes}) == len(routes)
        assert all(r.source == (0, 0) and r.destination == (3, 3) for r in routes)

    def test_same_source_destination(self, topology):
        router = ShortestPathRouter(topology)
        routes = list(router.candidate_routes((1, 1), (1, 1)))
        assert routes[0].hops == 0

    def test_unknown_node_rejected(self, topology):
        router = ShortestPathRouter(topology)
        with pytest.raises(RoutingError):
            router.dimension_ordered((0, 0), (9, 9))


class TestTraffic:
    def test_generates_two_demands_per_toffoli(self, topology):
        generator = ToffoliTrafficGenerator(topology, toffolis_per_window=5, windows=3)
        demands = generator.generate()
        assert len(demands) == 5 * 3 * 2

    def test_demands_grouped_by_window(self, topology):
        generator = ToffoliTrafficGenerator(topology, toffolis_per_window=4, windows=5)
        by_window = generator.demands_by_window()
        assert set(by_window.keys()) == set(range(5))
        assert all(len(demands) == 8 for demands in by_window.values())

    def test_demands_stay_on_grid(self, topology):
        generator = ToffoliTrafficGenerator(topology, toffolis_per_window=10, windows=5)
        for demand in generator.generate():
            assert topology.contains(demand.source)
            assert topology.contains(demand.destination)
            assert demand.source != demand.destination

    def test_workload_is_reproducible(self, topology):
        first = ToffoliTrafficGenerator(topology, seed=42).generate()
        second = ToffoliTrafficGenerator(topology, seed=42).generate()
        assert [(d.source, d.destination) for d in first] == [
            (d.source, d.destination) for d in second
        ]

    def test_invalid_parameters_rejected(self, topology):
        with pytest.raises(ParameterError):
            ToffoliTrafficGenerator(topology, toffolis_per_window=0)
        with pytest.raises(ParameterError):
            ToffoliTrafficGenerator(topology, long_haul_fraction=2.0)
        with pytest.raises(ParameterError):
            EprDemand(demand_id=0, source=(0, 0), destination=(1, 1), window=-1)


class TestScheduler:
    def test_light_load_fully_overlaps(self, topology):
        scheduler = GreedyEprScheduler(topology)
        demands = [
            EprDemand(demand_id=i, source=(0, 0), destination=(0, 1), window=i) for i in range(5)
        ]
        result = scheduler.schedule(demands)
        assert result.fully_overlapped
        assert len(result.transfers) == 5

    def test_empty_demand_list(self, topology):
        result = GreedyEprScheduler(topology).schedule([])
        assert result.fully_overlapped
        assert result.num_windows == 0

    def test_capacity_limits_are_respected(self, topology):
        scheduler = GreedyEprScheduler(topology, transfers_per_lane_per_window=3)
        capacity = scheduler.capacity_per_edge_per_window
        for window_loads in scheduler.schedule(
            ToffoliTrafficGenerator(topology, toffolis_per_window=40, windows=5).generate()
        ).edge_load.values():
            assert all(load <= capacity for load in window_loads.values())

    def test_overload_causes_deferrals(self, topology):
        one_lane = InterconnectTopology(rows=6, columns=6, bandwidth=1)
        scheduler = GreedyEprScheduler(one_lane, transfers_per_lane_per_window=1)
        demands = [
            EprDemand(demand_id=i, source=(0, 0), destination=(5, 5), window=0) for i in range(30)
        ]
        result = scheduler.schedule(demands)
        assert not result.fully_overlapped
        assert result.deferred_count + len(result.unserved) > 0

    def test_co_located_demand_needs_no_channel(self, topology):
        scheduler = GreedyEprScheduler(topology)
        demand = EprDemand(demand_id=0, source=(2, 2), destination=(2, 2), window=0)
        result = scheduler.schedule([demand])
        assert result.fully_overlapped
        assert result.transfers[0].route.hops == 0

    def test_bandwidth_two_overlaps_paper_workload_but_one_does_not(self):
        results = {}
        for bandwidth in (1, 2):
            topo = InterconnectTopology(rows=8, columns=8, bandwidth=bandwidth)
            traffic = ToffoliTrafficGenerator(topo)
            scheduler = GreedyEprScheduler(topo)
            results[bandwidth] = compute_metrics(scheduler.schedule(traffic.generate()), topo)
        assert not results[1].fully_overlapped
        assert results[2].fully_overlapped

    def test_paper_workload_utilization_near_23_percent(self):
        topo = InterconnectTopology(rows=8, columns=8, bandwidth=2)
        metrics = compute_metrics(
            GreedyEprScheduler(topo).schedule(ToffoliTrafficGenerator(topo).generate()), topo
        )
        assert 0.15 <= metrics.aggregate_utilization <= 0.30

    def test_invalid_scheduler_parameters(self, topology):
        with pytest.raises(SchedulingError):
            GreedyEprScheduler(topology, transfers_per_lane_per_window=0)
        with pytest.raises(SchedulingError):
            GreedyEprScheduler(topology, max_deferral_windows=-1)


class TestMetrics:
    def test_metrics_counts_are_consistent(self, topology):
        traffic = ToffoliTrafficGenerator(topology, toffolis_per_window=10, windows=5)
        demands = traffic.generate()
        result = GreedyEprScheduler(topology).schedule(demands)
        metrics = compute_metrics(result, topology)
        assert metrics.total_demands == len(demands)
        assert metrics.served_in_window + metrics.deferred + metrics.unserved == len(demands)
        assert 0.0 <= metrics.aggregate_utilization <= 1.0
        assert 0.0 <= metrics.peak_edge_utilization <= 1.0
        assert metrics.average_route_hops > 0


class TestScheduleResultSummaries:
    """Per-edge utilization and stall-window summaries (machine-sim inputs)."""

    def _forced_deferral_schedule(self):
        # Bandwidth 1 with one transfer per lane per window: the second
        # demand on the same channel must slip to the next window.
        topo = InterconnectTopology(rows=1, columns=2, bandwidth=1)
        scheduler = GreedyEprScheduler(topo, transfers_per_lane_per_window=1)
        demands = [
            EprDemand(demand_id=0, source=(0, 0), destination=(0, 1), window=0),
            EprDemand(demand_id=1, source=(0, 0), destination=(0, 1), window=0),
        ]
        return scheduler.schedule(demands)

    def test_edge_utilization_per_edge(self):
        result = self._forced_deferral_schedule()
        utilization = result.edge_utilization()
        edge = ((0, 0), (0, 1))
        # Two transfers over capacity 1 x num_windows windows.
        assert utilization[edge] == pytest.approx(2 / result.num_windows)
        peaks = result.peak_edge_utilization()
        assert peaks[edge] == pytest.approx(1.0)

    def test_stall_window_summary_counts_deferrals(self):
        result = self._forced_deferral_schedule()
        summary = result.stall_window_summary()
        assert summary[0] == StallWindowSummary(
            window=0, requested=2, served_on_time=1,
            deferred_out=1, deferred_in=0, unserved=0,
        )
        assert summary[0].stalled == 1
        assert summary[1].deferred_in == 1
        assert summary[1].requested == 0

    def test_unserved_demands_are_summarized(self):
        topo = InterconnectTopology(rows=1, columns=2, bandwidth=1)
        scheduler = GreedyEprScheduler(
            topo, transfers_per_lane_per_window=1, max_deferral_windows=0
        )
        demands = [
            EprDemand(demand_id=i, source=(0, 0), destination=(0, 1), window=0)
            for i in range(3)
        ]
        result = scheduler.schedule(demands)
        summary = result.stall_window_summary()
        assert summary[0].unserved == 2
        assert summary[0].served_on_time == 1
        assert summary[0].stalled == 2

    def test_summaries_on_a_fully_overlapped_schedule(self, topology):
        traffic = ToffoliTrafficGenerator(topology, toffolis_per_window=6, windows=4)
        result = GreedyEprScheduler(topology).schedule(traffic.generate())
        if result.fully_overlapped:
            assert all(s.stalled == 0 for s in result.stall_window_summary().values())
        for fraction in result.edge_utilization().values():
            assert 0.0 < fraction <= 1.0
        total_load = sum(
            sum(load.values()) for load in result.edge_load.values()
        )
        reconstructed = sum(result.edge_utilization().values())
        assert reconstructed == pytest.approx(
            total_load / (result.capacity_per_edge * result.num_windows)
        )
