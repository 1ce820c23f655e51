"""The benchmark's workloads: seeded inputs, CLI command lists, and the
check that each command's output must pass.

Every workload is a closed loop with one client: each command runs in a
fresh `python -m extremal_count.cli` process, one after the other, because
that is how a user pays for a query (imports and enumeration are redone on
every call).  The seed draws only the inputs marked *seeded*; the draws are
shaped so that the work per command varies little between seeds, since the
benchmark compares medians across seeds.  Why each workload exists is
recorded in its `why` and in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import checks


@dataclass
class Command:
    id: str
    argv: list[str]          # arguments after `python -m extremal_count.cli`
    check: Callable          # check(stdout: bytes, ctx) raises CheckFailure
    same_stdout_as: str | None = None   # id of a command with identical stdout

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass
class Plan:
    gens: list[list[str]]            # `gen` argument lists, each ending in --out FILE
    files: dict[str, str]            # seeded graph files: name -> text
    commands: list[Command] = field(default_factory=list)


# ---------------------------------------------------------------------------
# seeded graphs
# ---------------------------------------------------------------------------

def graph_text(n: int, edges) -> str:
    return "".join([f"n {n}\n"] + [f"{u} {v}\n" for u, v in sorted(edges)])


def random_tree(rng: random.Random, n: int, max_degree: int = 3) -> str:
    """Uniform labeled tree on n vertices (Pruefer code) with maximum degree
    at most `max_degree`, by rejection.  Bounding the degree keeps the
    embedding-search cost of the drawn pattern within a narrow band."""
    while True:
        code = [rng.randrange(n) for _ in range(n - 2)]
        if all(code.count(v) + 1 <= max_degree for v in range(n)):
            break
    degree = [1] * n
    for v in code:
        degree[v] += 1
    edges = []
    for v in code:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = [x for x in range(n) if degree[x] == 1]
    edges.append((u, w))
    return graph_text(n, edges)


def random_bipartite(rng: random.Random, a: int, b: int, m: int) -> str:
    """Bipartite graph with sides {0..a-1}, {a..a+b-1} and exactly m < a*b
    edges drawn uniformly; a fixed edge count keeps the cost steady."""
    pairs = [(u, a + v) for u in range(a) for v in range(b)]
    return graph_text(a + b, rng.sample(pairs, m))


def c5_blob_sizes(rng: random.Random) -> str:
    """Blob sizes 3, 3, 2, 2, 2 in a seeded order around the cycle."""
    sizes = [3, 3, 2, 2, 2]
    rng.shuffle(sizes)
    return ",".join(map(str, sizes))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _search(rng: random.Random) -> Plan:
    plan = Plan(gens=[], files={"tree.graph": random_tree(rng, 7)})
    for workers in (1, 2):
        plan.commands.append(Command(
            f"search-w{workers}", ["search", "tree.graph", "7", "--workers", str(workers)],
            lambda out, ctx: checks.check_search(out, ctx.naive, "tree.graph",
                                                 ctx.read("tree.graph"), 7),
            same_stdout_as="search-w1" if workers > 1 else None))
    return plan


def _hosts(rng: random.Random) -> Plan:
    plan = Plan(
        gens=[["gps-example1", "--k", "4", "--out", "double_star.graph"],
              ["theorem2-h", "--d", "1", "--x", "3", "--out", "theorem2_h.graph"],
              ["turan2", "--n", "12", "--out", "k66.graph"],
              ["turan2", "--n", "11", "--out", "k65.graph"],
              ["blowup", "--pattern", "c5", "--sizes", c5_blob_sizes(rng),
               "--out", "c5_blowup.graph"]],
        files={"tree.graph": random_tree(rng, 8),
               "bipartite.graph": random_bipartite(rng, 6, 6, 27)})
    for pattern in ("double_star.graph", "tree.graph", "theorem2_h.graph"):
        for host in ("k66.graph", "c5_blowup.graph", "bipartite.graph"):
            plan.commands.append(Command(
                f"count-{pattern[:-6]}-{host[:-6]}", ["count", pattern, host],
                lambda out, ctx, p=pattern, h=host: checks.check_count(
                    out, ctx.naive, p, ctx.read(p), h, ctx.read(h))))
    # K_{6,5} meets the edge bound with equality, so its check runs the
    # canonical-form comparison on a large symmetric graph.
    for host in ("c5_blowup.graph", "bipartite.graph", "k65.graph"):
        plan.commands.append(Command(
            f"lemma2-{host[:-6]}", ["verify", "lemma2", "--graph", host],
            lambda out, ctx, h=host: checks.check_verify(
                out, "lemma2", graph_text=ctx.read(h))))
    return plan


def _certify(rng: random.Random) -> Plan:
    plan = Plan(gens=[["cycle", "--n", "4", "--out", "c4.graph"]],
                files={"tree.graph": random_tree(rng, 7)})
    cmds = plan.commands
    cmds.append(Command("thm1-coeff", ["verify", "thm1-coeff", "--sweep-max", "300"],
                        lambda out, ctx: checks.check_verify(out, "thm1-coeff",
                                                             sweep_max=300)))
    cmds.append(Command("thm1-chain", ["verify", "thm1-chain", "--x", "17", "--d", "1"],
                        lambda out, ctx: checks.check_verify(out, "thm1-chain", x=17, d=1)))
    for theorem, lams in (("thm2-params", ("1/3", "2/3", "1", "3/2", "2")),
                          ("thm2-e2e", ("1/2", "1", "3/2", "2"))):
        for lam in lams:
            cmds.append(Command(
                f"{theorem}-{lam.replace('/', '_')}", ["verify", theorem, "--lam", lam],
                lambda out, ctx, t=theorem, l=lam: checks.check_verify(out, t, lam=l)))
    for pattern, grid in (("c4.graph", 50), ("tree.graph", 30)):
        cmds.append(Command(
            f"optimize-{pattern[:-6]}-c5", ["optimize", pattern, "c5", "--grid", str(grid)],
            lambda out, ctx, p=pattern, g=grid: checks.check_optimize(
                out, ctx.naive, p, ctx.read(p), "c5", g)))
    return plan


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    plan: Callable[[random.Random], Plan]


WORKLOADS = {w.name: w for w in (
    Workload("search", "exhaustive maximizer search: triangle-free enumeration and "
             "canonical forms dominate; runs at 1 and 2 workers to cover the "
             "process-pool fan-out and byte-identical output", _search),
    Workload("hosts", "counts and edge-bound checks on extremal hosts: a few large "
             "embedding searches and canonical forms of one symmetric graph", _hosts),
    Workload("certify", "exact certificates and blow-up weight optimization: "
             "rational arithmetic and hom sums, no search kernels", _certify),
)}


def make_plan(workload: str, seed: int) -> Plan:
    return WORKLOADS[workload].plan(random.Random(f"{workload}:{seed}"))
