"""Named graph families: complete, complete bipartite, paths, cycles,
stars, the balanced bipartite Turan graph, blow-ups of a skeleton, and the
paper's two constructions, the double star of Gyori, Pach and Simonovits
(build_gps_example1) and the tree of Theorem 2 (build_theorem2_H).

Only `gen`, `optimize` (through `blowup_skeleton`, the one reading of a
skeleton argument), the tests and the kernel benchmark build them, so no
other command compiles this module.
"""

from .graphs import Graph, read_graph_file


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


def blowup_skeleton(spec: str) -> Graph:
    """The blow-up skeleton a command line names: k2 the edge, c5 the
    five-cycle, and anything else the graph file at that path."""
    if spec == "k2":
        return path_graph(2)
    if spec == "c5":
        return cycle_graph(5)
    return read_graph_file(spec)


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
