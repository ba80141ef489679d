"""Routing of EPR transfers across the interconnect mesh.

The scheduler asks the router for candidate paths between two tiles.  The
primary path is the dimension-ordered (X-then-Y) shortest path -- cheap to
compute and matching the "at most two corner turns" property of the QLA
layout -- and alternatives are generated by routing Y-then-X and by a
congestion-weighted shortest-path search, which is what lets the greedy
scheduler "back off and retry with a different set of start and end points".
Candidates are produced lazily, so the search runs only for a demand whose
two dimension-ordered paths are both full.  The search runs on the integer
node and edge ids of :attr:`InterconnectTopology.index`, with a bucket queue
per side; loads come as a dictionary keyed by directed edge or as the
scheduler's list over edge ids.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterator

from repro.exceptions import RoutingError
from repro.network.topology import Edge, InterconnectTopology, MeshIndex, Node


@dataclass(frozen=True)
class Route:
    """A directed path through the mesh.

    Attributes
    ----------
    nodes:
        Sequence of tile coordinates from source to destination (inclusive).
    """

    nodes: tuple[Node, ...]

    @property
    def source(self) -> Node:
        """First node of the route."""
        return self.nodes[0]

    @property
    def destination(self) -> Node:
        """Last node of the route."""
        return self.nodes[-1]

    @property
    def hops(self) -> int:
        """Number of channel hops."""
        return len(self.nodes) - 1

    def directed_edges(self) -> list[Edge]:
        """Directed edges traversed, in order."""
        return [(self.nodes[i], self.nodes[i + 1]) for i in range(self.hops)]


class ShortestPathRouter:
    """Candidate-path generator over an :class:`InterconnectTopology`."""

    def __init__(self, topology: InterconnectTopology) -> None:
        self._topology = topology

    @property
    def topology(self) -> InterconnectTopology:
        """The mesh being routed over."""
        return self._topology

    # ------------------------------------------------------------------
    # Path construction
    # ------------------------------------------------------------------

    def dimension_ordered(self, source: Node, destination: Node, x_first: bool = True) -> Route:
        """The X-then-Y (or Y-then-X) dimension-ordered path."""
        self._check_nodes(source, destination)
        return Route(nodes=_dimension_ordered(source, destination, x_first))

    def congestion_weighted(
        self,
        source: Node,
        destination: Node,
        congestion: dict[Edge, int] | list[int] | None = None,
    ) -> Route:
        """Shortest path where congested channels are penalised.

        ``congestion`` maps directed edges to their current load; each unit of
        load adds one hop of effective length, steering the path around busy
        channels.  Loads must be non-negative integers (:class:`RoutingError`
        otherwise); edges that are not on the mesh are ignored.  A list is
        read as the loads indexed by the topology's edge ids
        (:attr:`InterconnectTopology.index`), as the scheduler keeps them,
        and is used as given.  Ties between equal-cost paths are broken as
        :func:`_bucket_dijkstra` documents.
        """
        self._check_nodes(source, destination)
        index = self._topology.index
        if isinstance(congestion, list):
            if len(congestion) != index.num_edge_slots:
                raise RoutingError(
                    f"a load list needs {index.num_edge_slots} entries, got {len(congestion)}"
                )
            load = congestion
        else:
            load = _load_vector(index, congestion or {})
        path = _bucket_dijkstra(
            index.neighbours, index.node_id(source), index.node_id(destination), load
        )
        return Route(nodes=tuple([index.nodes[node] for node in path]))

    def candidate_routes(
        self,
        source: Node,
        destination: Node,
        congestion: dict[Edge, int] | list[int] | None = None,
    ) -> Iterator[Route]:
        """Candidate paths, lazily, in the order the scheduler should try them.

        X-then-Y, then Y-then-X, then the congestion-weighted path, each only
        if it differs from those before it.  The weighted search runs when
        the third candidate is requested, and reads ``congestion`` then.
        """
        self._check_nodes(source, destination)
        x_first = _dimension_ordered(source, destination, x_first=True)
        yield Route(nodes=x_first)
        if source == destination:
            return
        y_first = _dimension_ordered(source, destination, x_first=False)
        if y_first != x_first:
            yield Route(nodes=y_first)
        weighted = self.congestion_weighted(source, destination, congestion)
        if weighted.nodes not in (x_first, y_first):
            yield weighted

    def _check_nodes(self, *nodes: Node) -> None:
        for node in nodes:
            if not self._topology.contains(node):
                raise RoutingError(f"node {node} is not part of the interconnect")


def _dimension_ordered(source: Node, destination: Node, x_first: bool) -> tuple[Node, ...]:
    """Tiles along the path that first walks one axis to its end, then the other.

    X is the row axis: ``x_first`` moves along the rows first.
    """
    (row, column), (to_row, to_column) = source, destination
    rows, columns = _span(row, to_row), _span(column, to_column)
    if x_first:
        return tuple([(r, column) for r in rows] + [(to_row, c) for c in columns[1:]])
    return tuple([(row, c) for c in columns] + [(r, to_column) for r in rows[1:]])


def _span(start: int, stop: int) -> range:
    """``start`` to ``stop`` inclusive, counting down if ``stop`` is smaller."""
    step = 1 if stop >= start else -1
    return range(start, stop + step, step)


def _load_vector(index: MeshIndex, congestion: dict[Edge, int]) -> list[int]:
    """``congestion`` as a list over edge ids; edges off the mesh carry no load."""
    load = [0] * index.num_edge_slots
    edge_ids = index.edge_ids
    for edge, units in congestion.items():
        try:
            units = operator.index(units)
        except TypeError:
            raise RoutingError(f"load {units!r} on edge {edge} is not an integer") from None
        if units < 0:
            raise RoutingError(f"load {units} on edge {edge} is negative")
        edge_id = edge_ids.get(edge)
        if edge_id is not None:
            load[edge_id] = units
    return load


def _bucket_dijkstra(
    neighbours: tuple[tuple[tuple[int, int, int], ...], ...],
    source: int,
    target: int,
    load: list[int],
) -> list[int]:
    """Node ids of the cheapest path under edge cost ``1 + load``, with a fixed tie-break.

    A bidirectional Dijkstra search over a bucket queue per side (Dial,
    1969): bucket ``d`` holds the nodes pushed at distance ``d``, in push
    order.  The two sides alternate, one pop each, neighbours are expanded
    in ``neighbours`` order (up, left, down, right), and the search stops
    the first time a node is settled from both sides, returning the best
    meeting node seen so far.  Every cost is at least 1, so a push never
    lands in the bucket being popped, and pops come out in exactly the
    ``(distance, push counter)`` order of the heap search the package used
    before; that order is the tie-break contract of
    ``docs/machine_simulation.md``.  The pinned trace digests of the machine
    simulator depend on every route, and ``tests/test_routing.py`` checks
    the routes against recorded networkx routes and a heap reference.
    """
    if source == target:
        return [source]
    size = len(neighbours)
    settled = ([False] * size, [False] * size)
    reached: tuple[list, list] = ([None] * size, [None] * size)
    preds = ([-1] * size, [-1] * size)
    reached[0][source] = reached[1][target] = 0
    # Per side: the bucket being popped, its distance, the read position in
    # it, the later buckets by distance and a heap of their distances.
    queues = ([[source], 0, 0, {}, []], [[target], 0, 0, {}, []])
    best: int | None = None
    meet = -1
    direction = 1
    while True:
        direction = 1 - direction
        queue = queues[direction]
        bucket, dist, position, later, distances = queue
        if position == len(bucket):
            if not distances:  # pragma: no cover - the mesh is connected
                raise RoutingError(f"no path between node ids {source} and {target}")
            dist = heappop(distances)
            bucket = later.pop(dist)
            queue[0], queue[1], position = bucket, dist, 0
        node = bucket[position]
        queue[2] = position + 1
        done = settled[direction]
        if done[node]:
            continue
        done[node] = True
        if settled[1 - direction][node]:
            return _walk(preds[0], meet)[::-1] + _walk(preds[1], preds[1][meet])
        near, far, pred = reached[direction], reached[1 - direction], preds[direction]
        step = dist + 1
        for neighbour, out_edge, in_edge in neighbours[node]:
            if done[neighbour]:
                continue
            # Forward edges leave ``node``; backward edges arrive at it.
            length = step + load[in_edge if direction else out_edge]
            known = near[neighbour]
            if known is None or length < known:
                near[neighbour] = length
                pred[neighbour] = node
                pushed = later.get(length)
                if pushed is None:
                    later[length] = [neighbour]
                    heappush(distances, length)
                else:
                    pushed.append(neighbour)
                other = far[neighbour]
                if other is not None:
                    total = length + other
                    if best is None or total < best:
                        best, meet = total, neighbour


def _walk(preds: list[int], node: int) -> list[int]:
    """Follow predecessor links from ``node`` to the search's root."""
    path = []
    while node >= 0:
        path.append(node)
        node = preds[node]
    return path
