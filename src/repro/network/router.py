"""Routing of EPR transfers across the interconnect mesh.

The scheduler asks the router for candidate paths between two tiles.  The
primary path is the dimension-ordered (X-then-Y) shortest path -- cheap to
compute and matching the "at most two corner turns" property of the QLA
layout -- and alternatives are generated by routing Y-then-X and by a
congestion-weighted shortest-path search, which is what lets the greedy
scheduler "back off and retry with a different set of start and end points".
Candidates are produced lazily, so the search runs only for a demand whose
two dimension-ordered paths are both full.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import Iterator

from repro.exceptions import RoutingError
from repro.network.topology import InterconnectTopology

Node = tuple[int, int]
Edge = tuple[Node, Node]


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
        self, source: Node, destination: Node, congestion: dict[Edge, int] | None = None
    ) -> Route:
        """Shortest path where congested channels are penalised.

        ``congestion`` maps directed edges to their current load; each unit of
        load adds one hop of effective length, steering the path around busy
        channels.  Ties between equal-cost paths are broken as
        :func:`_bidirectional_dijkstra` documents.
        """
        self._check_nodes(source, destination)
        nodes = _bidirectional_dijkstra(
            self._topology.adjacency, source, destination, congestion or {}
        )
        return Route(nodes=tuple(nodes))

    def candidate_routes(
        self, source: Node, destination: Node, congestion: dict[Edge, int] | None = None
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


def _bidirectional_dijkstra(
    adjacency: dict[Node, tuple[Node, ...]], source: Node, target: Node, load: dict[Edge, int]
) -> list[Node]:
    """Cheapest path under edge cost ``1 + load``, with a fixed tie-break.

    The forward and backward searches alternate, each heap orders entries by
    ``(distance, push counter)`` with one counter shared by both, neighbours
    are expanded in ``adjacency`` order, and the search stops the first time
    a node is settled from both sides, returning the best meeting node seen
    so far.  This order is the tie-break contract of
    ``docs/machine_simulation.md``: the pinned trace digests of the machine
    simulator depend on every route, and ``tests/test_routing.py`` checks
    the routes against recorded references.
    """
    if source == target:
        return [source]
    settled: tuple[dict[Node, int], dict[Node, int]] = ({}, {})
    seen: tuple[dict[Node, int], dict[Node, int]] = ({source: 0}, {target: 0})
    preds: tuple[dict[Node, Node | None], ...] = ({source: None}, {target: None})
    fringe: tuple[list, list] = ([(0, 0, source)], [(0, 1, target)])
    pushes = count(2)
    best: int | None = None
    meet: Node | None = None
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
    raise RoutingError(f"no path from {source} to {target}")  # pragma: no cover - mesh is connected


def _walk(preds: dict[Node, Node | None], node: Node | None) -> list[Node]:
    """Follow predecessor links from ``node`` to the search's root."""
    path = []
    while node is not None:
        path.append(node)
        node = preds[node]
    return path
