"""`gen`: a named construction as graph text."""


def add_arguments(p):
    p.add_argument("family", choices=("turan2", "complete-bipartite", "path",
                                      "cycle", "star", "gps-example1",
                                      "theorem2-h", "blowup"))
    p.add_argument("--n", type=int, help="vertex count (turan2, path, cycle, star)")
    p.add_argument("--a", type=int, help="first side (complete-bipartite)")
    p.add_argument("--b", type=int, help="second side (complete-bipartite)")
    p.add_argument("--k", type=int, help="star size parameter (gps-example1)")
    p.add_argument("--d", type=int, help="half-defect (theorem2-h)")
    p.add_argument("--x", type=int, help="matching size (theorem2-h)")
    p.add_argument("--pattern", help="blow-up skeleton: k2, c5, or a file (blowup)")
    p.add_argument("--sizes", help="comma-separated blob sizes (blowup)")


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"gen {args.family} requires --{name}")


def run(args):
    from .graphs import read_graph_file, write_graph_text
    from .families import (build_blowup, build_gps_example1, build_theorem2_H,
                           build_turan2, complete_bipartite, cycle_graph,
                           path_graph, star_graph)

    family = args.family
    if family == "turan2":
        _require(args, "n")
        g = build_turan2(args.n)
    elif family == "complete-bipartite":
        _require(args, "a", "b")
        g = complete_bipartite(args.a, args.b)
    elif family == "path":
        _require(args, "n")
        g = path_graph(args.n)
    elif family == "cycle":
        _require(args, "n")
        g = cycle_graph(args.n)
    elif family == "star":
        _require(args, "n")
        g = star_graph(args.n)
    elif family == "gps-example1":
        _require(args, "k")
        g = build_gps_example1(args.k)
    elif family == "theorem2-h":
        _require(args, "d", "x")
        g = build_theorem2_H(args.d, args.x)
    else:  # blowup
        _require(args, "pattern", "sizes")
        # the skeletons of optimize
        if args.pattern == "k2":
            base = path_graph(2)
        elif args.pattern == "c5":
            base = cycle_graph(5)
        else:
            base = read_graph_file(args.pattern)
        sizes = [int(s) for s in args.sizes.split(",")]
        g = build_blowup(base, sizes)
    return write_graph_text(g), 0
