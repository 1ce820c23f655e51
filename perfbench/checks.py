"""Output checks that do not trust the program.

Each `check_*` function takes a command's stdout (bytes) and what the
benchmark knows about the command's inputs, and raises `CheckFailure`
naming the first problem it finds.  Graph files are parsed here, exact
rationals are re-parsed with `Fraction`, every certificate relation is
re-evaluated, and counts are compared with the unpruned brute-force oracles
of `tests/naive.py`.  The only library code used is the `Graph` container
that those oracles take.
"""

from __future__ import annotations

import json
import operator
import os
import re
import sys
from fractions import Fraction

RELATIONS = {"==": operator.eq, ">": operator.gt, ">=": operator.ge,
             "<=": operator.le, "<": operator.lt}
_FRACTION = re.compile(r"-?[0-9]+/[0-9]+")

# Largest |P|^|H| for which the optimizer's coefficient is recomputed by
# summing over every map V(H) -> V(P).
NAIVE_HOM_LIMIT = 100_000


class CheckFailure(Exception):
    pass


def naive_oracles(root: str):
    """Import tests/naive.py from the checkout under test."""
    for sub in ("src", "tests"):
        path = os.path.join(root, sub)
        if path not in sys.path:
            sys.path.insert(0, path)
    import naive
    return naive


# ---------------------------------------------------------------------------
# graphs, parsed independently of the library
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, sorted edge list) from the plain-text graph format."""
    n = None
    edges = set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        a, b = line.split()
        if n is None:
            if a != "n":
                raise CheckFailure(f"bad graph header {line!r}")
            n = int(b)
            continue
        u, v = int(a), int(b)
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise CheckFailure(f"bad edge {line!r}")
        edges.add((min(u, v), max(u, v)))
    if n is None:
        raise CheckFailure("graph has no header")
    return n, sorted(edges)


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_triangle_free(n: int, edges) -> bool:
    adj = adjacency(n, edges)
    return all(not (adj[u] & adj[v]) for u, v in edges)


def two_coloring(n: int, edges):
    """A proper 2-coloring as a list of 0/1, or None if not bipartite."""
    adj = adjacency(n, edges)
    color = [None] * n
    for root in range(n):
        if color[root] is not None:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if color[w] is None:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    return None
    return color


def is_complete_bipartite(n: int, edges) -> bool:
    """K_{a,n-a} for some a, including the edgeless K_{0,n}."""
    if not edges:
        return True
    adj = adjacency(n, edges)
    if any(not adj[v] for v in range(n)):
        return False
    color = two_coloring(n, edges)
    if color is None:
        return False
    a = color.count(0)
    return len(edges) == a * (n - a)


# ---------------------------------------------------------------------------
# exact rationals and certificate relations
# ---------------------------------------------------------------------------

def frac(text) -> Fraction:
    # Certificates hold rationals of tens of thousands of digits; the cap
    # on int-string conversion is lifted in the checking process only.
    sys.set_int_max_str_digits(0)
    if not isinstance(text, str) or not _FRACTION.fullmatch(text):
        raise CheckFailure(f"not an exact rational p/q: {text!r}")
    p, q = text.split("/")
    if int(q) == 0:
        raise CheckFailure(f"zero denominator: {text!r}")
    return Fraction(int(p), int(q))


def relation_holds(check: dict) -> bool:
    """Re-evaluate one certificate relation and compare with its verdict."""
    rel = check.get("relation")
    if rel not in RELATIONS:
        raise CheckFailure(f"unknown relation {rel!r} in {check.get('name')!r}")
    holds = RELATIONS[rel](frac(check["lhs"]), frac(check["rhs"]))
    if holds != check.get("holds"):
        raise CheckFailure(f"relation {check.get('name')!r} reported "
                           f"holds={check.get('holds')} but evaluates to {holds}")
    return holds


def all_relations_hold(checks) -> bool:
    return all([relation_holds(c) for c in checks])


def max_bits(node) -> int:
    """Largest numerator or denominator bit length of any p/q in a payload."""
    if isinstance(node, dict):
        return max((max_bits(v) for v in node.values()), default=0)
    if isinstance(node, list):
        return max((max_bits(v) for v in node), default=0)
    if isinstance(node, str) and _FRACTION.fullmatch(node):
        q = frac(node)
        return max(q.numerator.bit_length(), q.denominator.bit_length())
    return 0


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _payload(stdout: bytes, command: str) -> dict:
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        raise CheckFailure(f"stdout is not JSON: {exc}") from None
    expect(isinstance(payload, dict) and payload.get("command") == command,
           f"stdout is not a {command} report")
    return payload


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def check_verify(stdout: bytes, theorem: str, *, graph_text: str | None = None,
                 sweep_max: int | None = None, x: int | None = None,
                 d: int | None = None, lam: str | None = None) -> None:
    payload = _payload(stdout, "verify")
    expect(payload.get("theorem") == theorem, "wrong theorem echoed")
    cert = payload["certificate"]
    if theorem == "lemma2":
        ok = _check_lemma2(cert, graph_text)
    elif theorem == "thm1-coeff":
        expected = sum(1 for xx in range(2, sweep_max + 1)
                       for dd in range(xx) if 16 * dd * dd <= xx - 1)
        expect(cert["x_max"] == sweep_max, "x_max differs from --sweep-max")
        expect(cert["pairs_checked"] == expected,
               f"pairs_checked {cert['pairs_checked']} != {expected} pairs "
               "with 16 d^2 <= x-1")
        ok = not cert["violations"]
    elif theorem == "thm1-chain":
        ok = _check_chain(cert, x, d)
    elif theorem == "thm2-params":
        expect(frac(cert["lambda"]) == Fraction(lam), "lambda differs from --lam")
        ok = all_relations_hold(cert["checks"])
    elif theorem == "thm2-e2e":
        params = cert["params"]
        expect(frac(params["lambda"]) == Fraction(lam), "lambda differs from --lam")
        params_ok = all_relations_hold(params["checks"])
        all_relations_hold(cert["checks"])
        c5, k2 = frac(cert["coeff_c5"]), frac(cert["coeff_k2"])
        first = cert["checks"][0]
        expect(frac(first["lhs"]) == c5 and frac(first["rhs"]) == k2,
               "first check does not compare coeff_c5 with coeff_k2")
        expect(cert["holds"] == (c5 > k2), "holds disagrees with coeff_c5 > coeff_k2")
        ok = cert["holds"] and params_ok
    else:
        raise CheckFailure(f"no checker for theorem {theorem!r}")
    expect(payload["all_hold"] == ok,
           f"all_hold={payload['all_hold']} but the certificate gives {ok}")


def _check_lemma2(cert: dict, graph_text: str) -> bool:
    n, edges = parse_graph(graph_text)
    expect(is_triangle_free(n, edges), "lemma2 input is not triangle-free")
    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    delta = max(degrees, default=0)
    bound = delta * (n - delta)
    equality = len(edges) == bound
    expected = {"edges": len(edges), "max_degree": delta, "bound": bound,
                "holds": len(edges) <= bound, "equality": equality,
                "equality_is_complete_bipartite":
                    is_complete_bipartite(n, edges) if equality else None}
    for key, value in expected.items():
        expect(cert.get(key) == value, f"lemma2 {key}={cert.get(key)!r}, expected {value!r}")
    return expected["holds"] and (expected["equality_is_complete_bipartite"]
                                  if equality else True)


def _check_chain(cert: dict, x: int, d: int) -> bool:
    expect(cert["x"] == x and cert["d"] == d, "x or d differs from the arguments")
    expect(cert["hypothesis_ok"] == (16 * d * d <= x - 1 and d < x - 1),
           "hypothesis_ok is wrong")
    raw = Fraction((d + x - 1) ** (2 * d + 2 * x - 2),
                   2 * (2 * d + x - 1) ** (2 * d + x - 1) * (x - 1) ** (x - 1))
    exprs = [frac(e) for e in cert["expressions"]]
    steps = cert["steps"]
    expect(exprs and exprs[0] == raw, "first expression is not the raw coefficient")
    expect(len(steps) == len(exprs), "one step per expression expected")
    for i, step in enumerate(steps):
        rhs = exprs[i + 1] if i + 1 < len(exprs) else Fraction(2, 5)
        expect(frac(step["lhs"]) == exprs[i] and frac(step["rhs"]) == rhs,
               f"step {step.get('name')!r} does not link consecutive expressions")
    ok = all_relations_hold(steps)
    expect(cert["all_hold"] == ok, "chain all_hold disagrees with its steps")
    return ok


# ---------------------------------------------------------------------------
# count, search, optimize
# ---------------------------------------------------------------------------

def check_count(stdout: bytes, naive, pattern_file: str, pattern_text: str,
                host_file: str, host_text: str) -> None:
    payload = _payload(stdout, "count")
    pn, pedges = parse_graph(pattern_text)
    hn, _ = parse_graph(host_text)
    expect(payload["pattern_file"] == pattern_file and payload["host_file"] == host_file,
           "input file names are not echoed")
    expect(payload["pattern_vertices"] == pn and payload["host_vertices"] == hn,
           "vertex counts differ from the input files")
    emb, aut, copies, h = (payload["embeddings"], payload["automorphisms"],
                           payload["copies"], payload["h_degrees"])
    expect(len(h) == hn and all(0 <= v <= emb for v in h), "bad h_degrees vector")
    expect(sum(h) == pn * emb, f"sum of h-degrees {sum(h)} != m * embeddings {pn * emb}")
    expect(copies * aut == emb, f"copies * automorphisms != embeddings ({copies}*{aut} != {emb})")
    pattern = naive.Graph(pn, pedges)
    naive_aut = naive.naive_count_embeddings(pattern, pattern)
    expect(aut == naive_aut, f"automorphisms {aut} != brute force {naive_aut}")


def check_search(stdout: bytes, naive, pattern_file: str, pattern_text: str, n: int) -> None:
    payload = _payload(stdout, "search")
    expect(payload["pattern_file"] == pattern_file and payload["n"] == n,
           "arguments are not echoed")
    pn, pedges = parse_graph(pattern_text)
    witnesses = payload["witnesses"]
    expect(witnesses and payload["witness_count"] == len(witnesses), "bad witness list")
    graphs = []
    for i, w in enumerate(witnesses):
        expect(w["index"] == i, "witness indices out of order")
        edges = sorted((min(u, v), max(u, v)) for u, v in w["edges"])
        expect(len(set(edges)) == len(edges)
               and all(0 <= u < v < n for u, v in edges), f"witness {i} edges invalid")
        expect(is_triangle_free(n, edges), f"witness {i} has a triangle")
        rows = [0] * n
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        expect(naive.perm_canonical_mask(rows, n) == w["canonical_mask"],
               f"witness {i} canonical_mask is not its least relabeling")
        graphs.append(edges)
    pattern = naive.Graph(pn, pedges)
    aut = naive.naive_count_embeddings(pattern, pattern)
    emb = naive.naive_count_embeddings(pattern, naive.Graph(n, graphs[0]))
    expect(payload["max_count"] * aut == emb,
           f"max_count * |Aut(P)| = {payload['max_count'] * aut} but witness 0 "
           f"has {emb} embeddings")
    expect(payload["all_bipartite"] == all(two_coloring(n, e) is not None for e in graphs),
           "all_bipartite is wrong")
    expect(payload["all_complete_bipartite"]
           == all(is_complete_bipartite(n, e) for e in graphs),
           "all_complete_bipartite is wrong")


def check_optimize(stdout: bytes, naive, pattern_file: str, pattern_text: str,
                   skeleton: str, grid: int) -> None:
    payload = _payload(stdout, "optimize")
    expect(payload["pattern_file"] == pattern_file and payload["blowup_pattern"] == skeleton
           and payload["grid_resolution"] == grid, "arguments are not echoed")
    skeletons = {"c5": (5, [(i, (i + 1) % 5) for i in range(5)]), "k2": (2, [(0, 1)])}
    pn, pedges = skeletons[skeleton]
    weights = [frac(w) for w in payload["weights"]]
    expect(len(weights) == pn, "one weight per skeleton vertex expected")
    expect(all(w >= 0 for w in weights), "negative weight")
    expect(sum(weights) == 1, f"weights sum to {sum(weights)}, not exactly 1")
    hn, hedges = parse_graph(pattern_text)
    if pn ** hn <= NAIVE_HOM_LIMIT:
        H = naive.Graph(hn, hedges)
        P = naive.Graph(pn, pedges)
        coeff = naive.naive_hom_sum(H, P, weights)
        expect(frac(payload["coefficient"]) == coeff,
               f"coefficient {payload['coefficient']} != brute-force hom sum {coeff}")
        homs = naive.naive_hom_sum(H, P, [1 if w else 0 for w in weights])
        expect(payload["hom_count"] == homs,
               f"hom_count {payload['hom_count']} != brute force {homs}")
