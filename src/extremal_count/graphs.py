"""Immutable simple graphs on vertices 0..n-1 with bit-row adjacency.

Adjacency is stored as one Python integer per vertex (bit j of rows[v] set
iff v ~ j), so triangle tests and embedding pruning are word-parallel
intersections.  Vertex labels are advisory strings used for provenance
(e.g. blob membership of a blow-up); no algorithm consults them.  The
triangle-free edge bound, the certificate of `verify lemma2`, is here
too: it needs only the structural predicates, so that command loads no
other module of the package.
"""

from __future__ import annotations

from typing import NamedTuple


class BudgetExceededError(ValueError):
    """Raised before an exponential computation whose estimated size
    exceeds its documented budget."""


class GraphFormatError(ValueError):
    """Raised on malformed graph text; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class Graph:
    """Simple undirected graph, value-semantic and immutable after construction."""

    __slots__ = ("n", "rows", "labels")

    def __init__(self, n: int, edges=(), labels=None):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "labels", dict(labels) if labels else {})

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @classmethod
    def from_rows(cls, rows, labels=None) -> "Graph":
        g = cls.__new__(cls)
        object.__setattr__(g, "n", len(rows))
        object.__setattr__(g, "rows", tuple(rows))
        object.__setattr__(g, "labels", dict(labels) if labels else {})
        for v, row in enumerate(g.rows):
            if row >> g.n:
                raise ValueError("adjacency row exceeds vertex range")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if (g.rows[u] >> v & 1) != (g.rows[v] >> u & 1):
                    raise ValueError("adjacency is not symmetric")
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return (self.rows[v]).bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Edge list in ascending lexicographic order."""
        out = []
        for u in range(self.n):
            row = self.rows[u] >> (u + 1) << (u + 1)
            while row:
                v = (row & -row).bit_length() - 1
                out.append((u, v))
                row &= row - 1
        return out

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def neighbors(self, v: int) -> list[int]:
        row = self.rows[v]
        out = []
        while row:
            out.append((row & -row).bit_length() - 1)
            row &= row - 1
        return out

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and self.rows == other.rows and self.labels == other.labels)

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"

    def __reduce__(self):
        return (_rebuild_graph, (self.n, self.rows, self.labels))


def _rebuild_graph(n, rows, labels):
    g = Graph.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "rows", rows)
    object.__setattr__(g, "labels", labels)
    return g


class DegreeStats(NamedTuple):
    """Minimum degree, maximum degree, and edge count of a graph."""

    delta_min: int
    delta_max: int
    edge_count: int


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with the first a vertices on one side."""
    if a < 0 or b < 0:
        raise ValueError("side sizes must be non-negative")
    edges = [(u, a + v) for u in range(a) for v in range(b)]
    labels = {v: ("part0" if v < a else "part1") for v in range(a + b)}
    return Graph(a + b, edges, labels)


def complete_graph(k: int) -> Graph:
    return Graph(k, [(u, v) for u in range(k) for v in range(u + 1, k)])


def path_graph(k: int) -> Graph:
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the center at vertex 0."""
    if leaves < 0:
        raise ValueError("leaf count must be non-negative")
    return Graph(leaves + 1, [(0, i + 1) for i in range(leaves)])


def build_turan2(n: int) -> Graph:
    """Balanced complete bipartite graph on n vertices (K_{ceil(n/2),floor(n/2)})."""
    if n < 1:
        raise ValueError("n must be positive")
    return complete_bipartite((n + 1) // 2, n // 2)


def build_blowup(pattern: Graph, sizes) -> Graph:
    """Replace vertex v of the pattern by an independent blob of sizes[v] vertices.

    Two blown-up vertices are adjacent iff their originals are; blob
    membership is recorded in the labels.
    """
    sizes = list(sizes)
    if len(sizes) != pattern.n:
        raise ValueError(f"need {pattern.n} blob sizes, got {len(sizes)}")
    if any(s < 0 for s in sizes):
        raise ValueError("blob sizes must be non-negative")
    start = [0] * pattern.n
    total = 0
    for v, s in enumerate(sizes):
        start[v] = total
        total += s
    edges = []
    for u, v in pattern.edges():
        for i in range(sizes[u]):
            for j in range(sizes[v]):
                edges.append((start[u] + i, start[v] + j))
    labels = {}
    for v, s in enumerate(sizes):
        for i in range(s):
            labels[start[v] + i] = f"blob{v}"
    return Graph(total, edges, labels)


def twin_quotient(g: Graph):
    """(Q, sizes, classes): g as a blow-up of its false-twin quotient.

    Vertices with equal adjacency rows (hence non-adjacent) form one class;
    classes are numbered by their smallest vertex, `classes[v]` is the
    class of v, `sizes[q]` the size of class q, and Q joins two classes
    when their vertices are adjacent.  build_blowup(Q, sizes) is g up to
    the vertex order.
    """
    index: dict[int, int] = {}
    classes = [index.setdefault(row, len(index)) for row in g.rows]
    sizes = [0] * len(index)
    for q in classes:
        sizes[q] += 1
    q_rows = []
    for row in index:  # one row per class, in class order
        q_row = 0
        while row:
            bit = row & -row
            q_row |= 1 << classes[bit.bit_length() - 1]
            row ^= bit
        q_rows.append(q_row)
    return _rebuild_graph(len(q_rows), tuple(q_rows), {}), sizes, classes


def build_gps_example1(k: int) -> Graph:
    """Two disjoint stars K_{1,k-2} whose centers are joined by a 3-edge path.

    A bipartite graph on 2k vertices with equal colour classes.  Layout:
    vertex 0 and 1 are the star centers, 2 and 3 the two internal path
    vertices (0-2, 2-3, 3-1), leaves follow.
    """
    if k < 3:
        raise ValueError("k must be at least 3")
    edges = [(0, 2), (2, 3), (1, 3)]
    labels = {0: "center", 1: "center", 2: "path", 3: "path"}
    next_v = 4
    for center in (0, 1):
        for _ in range(k - 2):
            edges.append((center, next_v))
            labels[next_v] = "leaf"
            next_v += 1
    return Graph(2 * k, edges, labels)


def build_theorem2_H(d: int, x: int) -> Graph:
    """Two stars with d+1 leaves, centers joined by a 3-edge path, plus x-3
    pendant 2-edge paths hanging off the path vertex next to the first center.

    A tree on 2x+2d vertices.  Labels record the five-blob assignment used
    when embedding into an unbalanced five-cycle blow-up: star leaves and
    pendant-path tops go to blob 1, the first center and pendant-path
    middles to blob 2, and the three internal path vertices u1-p-q-u2 give
    p -> blob 3, q -> blob 4, u2 -> blob 5 (u1 is the blob-2 center).

    bounds._theorem2_hom_sum describes the same tree a second time, as a
    table of its six subtree kinds, and sums over it without building it;
    tests/test_bounds.py::test_theorem2_hom_sum_matches_hom_sum_plan ties
    that table to the kinds built from this tree.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if x < 3:
        raise ValueError("x must be at least 3")
    # 0 = u1, 1 = p, 2 = q, 3 = u2
    edges = [(0, 1), (1, 2), (2, 3)]
    labels = {0: "blob2", 1: "blob3", 2: "blob4", 3: "blob5"}
    next_v = 4
    for center in (0, 3):
        for _ in range(d + 1):
            edges.append((center, next_v))
            labels[next_v] = "blob1"
            next_v += 1
    for _ in range(x - 3):
        mid, top = next_v, next_v + 1
        edges.append((1, mid))
        edges.append((mid, top))
        labels[mid] = "blob2"
        labels[top] = "blob1"
        next_v += 2
    return Graph(2 * x + 2 * d, edges, labels)


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------

def is_triangle_free(g: Graph) -> bool:
    """True iff no edge's endpoints share a neighbor."""
    for u, v in g.edges():
        if g.rows[u] & g.rows[v]:
            return False
    return True


def is_bipartite(g: Graph):
    """A bipartition (side0, side1) as sorted tuples, or None.

    Deterministic: BFS from the smallest unvisited vertex, which always
    receives color 0.
    """
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            u = queue.pop()
            for v in g.neighbors(u):
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    side0 = tuple(v for v in range(g.n) if color[v] == 0)
    side1 = tuple(v for v in range(g.n) if color[v] == 1)
    return side0, side1


def is_complete_bipartite(g: Graph) -> bool:
    """True iff g is isomorphic to some K_{a, n-a}, edgeless graphs included.

    O(n^2): g must be bipartite with |E| = |A| * |B| for the sides A, B found
    by is_bipartite.  Every A-B pair is then an edge; an edgeless graph puts
    every vertex in A.
    """
    sides = is_bipartite(g)
    return sides is not None and g.edge_count() == len(sides[0]) * len(sides[1])


def degree_stats(g: Graph) -> DegreeStats:
    if g.n == 0:
        raise ValueError("degree stats of the empty graph are undefined")
    degs = [g.degree(v) for v in range(g.n)]
    return DegreeStats(min(degs), max(degs), sum(degs) // 2)


def connected_components(g: Graph):
    """(component count, partition as a tuple of sorted vertex tuples)."""
    seen = [False] * g.n
    parts = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        stack = [s]
        while stack:
            u = stack.pop()
            for v in g.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        parts.append(tuple(sorted(comp)))
    return len(parts), tuple(parts)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    edges = g1.edges() + [(u + g1.n, v + g1.n) for u, v in g2.edges()]
    labels = dict(g1.labels)
    labels.update({v + g1.n: lab for v, lab in g2.labels.items()})
    return Graph(g1.n + g2.n, edges, labels)


# ---------------------------------------------------------------------------
# the edge bound for triangle-free graphs (verify lemma2)
# ---------------------------------------------------------------------------

class EdgeBoundReport(NamedTuple):
    edges: int
    max_degree: int
    bound: int
    holds: bool
    equality: bool
    equality_is_complete_bipartite: bool | None


def edge_bound_check(g: Graph) -> EdgeBoundReport:
    """|E| <= Delta * (n - Delta) for triangle-free g; on equality, verify
    the graph is the complete bipartite K_{Delta, n-Delta}."""
    if not is_triangle_free(g):
        raise ValueError("edge bound applies to triangle-free graphs only")
    if g.n == 0:
        return EdgeBoundReport(0, 0, 0, True, True, True)
    stats = degree_stats(g)
    delta = stats.delta_max
    bound = delta * (g.n - delta)
    edges = stats.edge_count
    equality = edges == bound
    is_cb = is_complete_bipartite(g) if equality else None
    return EdgeBoundReport(edges, delta, bound, edges <= bound, equality, is_cb)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------
# line 1: "n <count>", then optional "# label <v> <text>" lines (ascending v),
# then one "u v" line per edge in ascending lexicographic order.

def write_graph_text(g: Graph) -> str:
    lines = [f"n {g.n}"]
    for v in sorted(g.labels):
        lines.append(f"# label {v} {g.labels[v]}")
    for u, v in g.edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def read_graph_text(text: str) -> Graph:
    n = None
    edges = []
    labels = {}
    label_lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split(None, 2)
            if len(parts) >= 2 and parts[0] == "label":
                if len(parts) < 3:
                    raise GraphFormatError(lineno, "label line needs a vertex and a text")
                try:
                    v = int(parts[1])
                except ValueError:
                    raise GraphFormatError(lineno, f"bad label vertex {parts[1]!r}") from None
                labels[v] = parts[2]
                label_lines[v] = lineno
            continue
        if n is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "n":
                raise GraphFormatError(lineno, "expected header 'n <count>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphFormatError(lineno, f"bad vertex count {parts[1]!r}") from None
            if n < 0:
                raise GraphFormatError(lineno, "vertex count must be non-negative")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(lineno, f"expected edge 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(lineno, f"bad edge endpoints {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(lineno, f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphFormatError(lineno, f"self-loop at vertex {u}")
        edges.append((u, v))
    if n is None:
        raise GraphFormatError(1, "missing header 'n <count>'")
    for v, lineno in label_lines.items():
        if not (0 <= v < n):
            raise GraphFormatError(lineno, f"label vertex {v} out of range")
    return Graph(n, edges, labels)


def read_graph_file(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return read_graph_text(fh.read())


def write_graph_file(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_graph_text(g))
