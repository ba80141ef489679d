"""Island/channel topology of the QLA interconnect.

The interconnect is modelled as a 2-D mesh: one network node per logical-qubit
tile (each tile has a teleportation island adjacent to it in the y direction,
and every third tile hosts one in the x direction -- at the granularity of the
scheduler a node per tile is the natural abstraction), with bidirectional
channels between neighbouring tiles.  Each channel direction provides
``bandwidth`` physical lanes, matching the paper's definition: "We define the
bandwidth of QLA's communication channels as the number of physical channels
in each direction."

The scheduler and the router run on :class:`MeshIndex`, an integer view of
the mesh that each topology builds once, on first use: node and
directed-edge ids instead of coordinate tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.exceptions import LayoutError
from repro.layout.tile import LogicalQubitTile, level2_tile_geometry

Node = tuple[int, int]
Edge = tuple[Node, Node]


class MeshIndex:
    """Integer ids for the nodes and directed edges of a ``rows x columns`` mesh.

    Node ``(row, column)`` has id ``row * columns + column``.  The directed
    edge from node ``u`` to its up, left, down or right neighbour has id
    ``4 * u + k`` for ``k`` = 0, 1, 2, 3; the ids of edges that would leave
    the mesh are never used, so a load list over edge ids has
    :attr:`num_edge_slots` entries.

    Attributes
    ----------
    nodes:
        Tile coordinate of every node id.
    edges:
        Directed edge of every edge id (``None`` for an unused id).
    neighbours:
        Per node id, ``(neighbour, out_edge, in_edge)`` for each neighbour, in
        the topology's up/left/down/right order: ``out_edge`` leads to the
        neighbour and ``in_edge`` back from it.
    """

    def __init__(self, rows: int, columns: int) -> None:
        self.columns = columns
        # Neighbour id minus node id -> k.  In a single column the row steps
        # are +-1, so they are entered last and win over left and right.
        self._slot = {-1: 1, 1: 3, -columns: 0, columns: 2}
        self.nodes: tuple[Node, ...] = tuple(
            (row, column) for row in range(rows) for column in range(columns)
        )
        edges: list[Edge | None] = [None] * (4 * len(self.nodes))
        neighbours = []
        for node, (row, column) in enumerate(self.nodes):
            around = []
            steps = ((row - 1, column), (row, column - 1), (row + 1, column), (row, column + 1))
            for k, (to_row, to_column) in enumerate(steps):
                if 0 <= to_row < rows and 0 <= to_column < columns:
                    neighbour = to_row * columns + to_column
                    # The way back from the neighbour is the opposite step.
                    around.append((neighbour, 4 * node + k, 4 * neighbour + (k + 2) % 4))
                    edges[4 * node + k] = (self.nodes[node], self.nodes[neighbour])
            neighbours.append(tuple(around))
        self.edges: tuple[Edge | None, ...] = tuple(edges)
        self.neighbours: tuple[tuple[tuple[int, int, int], ...], ...] = tuple(neighbours)

    @property
    def num_edge_slots(self) -> int:
        """Length of a load list indexed by edge id."""
        return len(self.edges)

    @cached_property
    def edge_ids(self) -> dict[Edge, int]:
        """Edge id of every directed mesh edge."""
        return {edge: edge_id for edge_id, edge in enumerate(self.edges) if edge is not None}

    def node_id(self, node: Node) -> int:
        """Id of a tile coordinate (assumed to be on the mesh)."""
        return node[0] * self.columns + node[1]

    def route_edge_ids(self, nodes: tuple[Node, ...]) -> list[int]:
        """Ids of the directed edges along a path of adjacent tiles, in order."""
        columns, slot = self.columns, self._slot
        ids = [row * columns + column for row, column in nodes]
        return [4 * first + slot[second - first] for first, second in zip(ids, ids[1:])]


@dataclass
class InterconnectTopology:
    """Mesh network over the tile array.

    Parameters
    ----------
    rows, columns:
        Tile-array dimensions.
    bandwidth:
        Physical lanes per channel direction.
    tile:
        Tile geometry, used to convert hops to cell distances.
    """

    rows: int
    columns: int
    bandwidth: int = 2
    tile: LogicalQubitTile = field(default_factory=level2_tile_geometry)

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.columns <= 0:
            raise LayoutError("topology dimensions must be positive")
        if self.bandwidth <= 0:
            raise LayoutError("bandwidth must be at least one lane per direction")
        # Neighbours listed up, left, down, right: the order the congestion
        # search in repro.network.router expands them in, which fixes how it
        # breaks ties between equal-cost paths.
        self._adjacency: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        for row in range(self.rows):
            for col in range(self.columns):
                around = ((row - 1, col), (row, col - 1), (row + 1, col), (row, col + 1))
                self._adjacency[(row, col)] = tuple(
                    (r, c) for r, c in around if 0 <= r < self.rows and 0 <= c < self.columns
                )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def adjacency(self) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        """Neighbours of every tile, each listed up, left, down, right (read-only)."""
        return self._adjacency

    @cached_property
    def index(self) -> MeshIndex:
        """Integer node and edge ids of the mesh, built on first use."""
        return MeshIndex(self.rows, self.columns)

    @property
    def num_nodes(self) -> int:
        """Number of network nodes (tiles)."""
        return self.rows * self.columns

    @property
    def num_channels(self) -> int:
        """Number of undirected channels (mesh edges)."""
        return self.rows * (self.columns - 1) + self.columns * (self.rows - 1)

    @property
    def num_directed_lanes(self) -> int:
        """Total directed lane count: 2 directions x bandwidth per channel."""
        return 2 * self.bandwidth * self.num_channels

    def contains(self, node: tuple[int, int]) -> bool:
        """True if a tile coordinate is part of the topology."""
        return node in self._adjacency

    def neighbors(self, node: tuple[int, int]) -> list[tuple[int, int]]:
        """Adjacent tiles of a node."""
        if node not in self._adjacency:
            raise LayoutError(f"node {node} not in topology")
        return list(self._adjacency[node])

    def node_of_qubit(self, qubit_index: int) -> tuple[int, int]:
        """Tile coordinate of a logical qubit placed in row-major order."""
        if qubit_index < 0 or qubit_index >= self.rows * self.columns:
            raise LayoutError(
                f"logical qubit {qubit_index} outside the {self.rows}x{self.columns} array"
            )
        return (qubit_index // self.columns, qubit_index % self.columns)

    def hop_distance(self, node_a: tuple[int, int], node_b: tuple[int, int]) -> int:
        """Manhattan hop count between two tiles."""
        return abs(node_a[0] - node_b[0]) + abs(node_a[1] - node_b[1])

    def cell_distance(self, node_a: tuple[int, int], node_b: tuple[int, int]) -> int:
        """Manhattan distance in cells between two tile origins."""
        return abs(node_a[0] - node_b[0]) * self.tile.pitch_rows + abs(
            node_a[1] - node_b[1]
        ) * self.tile.pitch_columns
