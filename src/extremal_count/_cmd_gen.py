"""`gen`: a named construction as graph text."""


def add_arguments(p):
    p.add_argument("family", choices=("turan2", "complete-bipartite", "path",
                                      "cycle", "star", "gps-example1",
                                      "theorem2-h", "blowup"))
    p.add_argument("--n", type=int,
                   help="vertex count (turan2, path, cycle); leaf count (star)")
    p.add_argument("--a", type=int, help="first side (complete-bipartite)")
    p.add_argument("--b", type=int, help="second side (complete-bipartite)")
    p.add_argument("--k", type=int, help="star size parameter (gps-example1)")
    p.add_argument("--d", type=int, help="half-defect (theorem2-h)")
    p.add_argument("--x", type=int, help="matching size (theorem2-h)")
    p.add_argument("--pattern", help="blow-up skeleton: k2, c5, or a file (blowup)")
    p.add_argument("--sizes", help="comma-separated blob sizes (blowup)")


# requires the options `names` and refuses every other option of gen:
# the chosen family would not read it
def _options(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"gen {args.family} requires --{name}")
    for name in ("n", "a", "b", "k", "d", "x", "pattern", "sizes"):
        if name not in names and getattr(args, name) is not None:
            given = " ".join(f"--{n}" for n in names)
            raise ValueError(f"gen {args.family} {given} does not read --{name}")


def run(args):
    from .graphs import write_graph_text
    from .families import (blowup_skeleton, build_blowup, build_gps_example1,
                           build_theorem2_H, build_turan2, complete_bipartite,
                           cycle_graph, path_graph, star_graph)

    family = args.family
    by_n = {"turan2": build_turan2, "path": path_graph, "cycle": cycle_graph,
            "star": star_graph}
    if family in by_n:
        _options(args, "n")
        g = by_n[family](args.n)
    elif family == "complete-bipartite":
        _options(args, "a", "b")
        g = complete_bipartite(args.a, args.b)
    elif family == "gps-example1":
        _options(args, "k")
        g = build_gps_example1(args.k)
    elif family == "theorem2-h":
        _options(args, "d", "x")
        g = build_theorem2_H(args.d, args.x)
    else:  # blowup
        _options(args, "pattern", "sizes")
        base = blowup_skeleton(args.pattern)
        try:
            sizes = [int(s) for s in args.sizes.split(",")]
        except ValueError:
            raise ValueError(f"--sizes takes comma-separated integers, not "
                             f"{args.sizes!r}") from None
        g = build_blowup(base, sizes)
    return write_graph_text(g), 0
