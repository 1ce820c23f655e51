"""`optimize`: blob weights of a blow-up skeleton that maximize the
leading coefficient of a pattern's embedding count."""


def add_arguments(p):
    p.add_argument("pattern", help="pattern graph file")
    p.add_argument("blowup_pattern",
                   help="blow-up skeleton: k2, c5, or a graph file path")
    p.add_argument("--grid", type=int, default=50,
                   help="grid resolution per simplex coordinate")


def run(args):
    from .graphs import read_graph_file
    from .blowup import optimize_weights
    from .families import blowup_skeleton

    pattern = read_graph_file(args.pattern)
    skeleton = blowup_skeleton(args.blowup_pattern)
    wp, coeff = optimize_weights(pattern, skeleton, args.grid, args.workers)
    payload = {
        "command": "optimize",
        "pattern_file": args.pattern,
        "blowup_pattern": args.blowup_pattern,
        "grid_resolution": args.grid,
        "weights": wp.weights,
        "coefficient": coeff.value,
        "hom_count": coeff.hom_count,
    }
    return payload, 0
