"""`search`: the exact maximizers of a pattern's embedding count over the
triangle-free hosts on n vertices."""

import os


def add_arguments(p):
    p.add_argument("pattern", help="pattern graph file")
    p.add_argument("n", type=int, help="host vertex count")
    p.add_argument("--witness-dir",
                   help="also write each witness as a graph file here")


def run(args):
    from .graphs import read_graph_file, write_graph_file
    from .oracle import find_maximizers
    from ._pykernels import mask_from_rows

    pattern = read_graph_file(args.pattern)
    report = find_maximizers(pattern, args.n)
    witnesses = []
    for i, w in enumerate(report.witnesses):
        witnesses.append({
            "index": i,
            # each witness is built from its canonical mask
            "canonical_mask": mask_from_rows(w.rows, w.n),
            "edges": [[u, v] for u, v in w.edges()],
        })
    if args.witness_dir:
        os.makedirs(args.witness_dir, exist_ok=True)
        for i, w in enumerate(report.witnesses):
            write_graph_file(w, os.path.join(args.witness_dir,
                                             f"witness_{i:03d}.graph"))
    payload = {
        "command": "search",
        "pattern_file": args.pattern,
        "n": args.n,
        "max_count": report.max_count,
        "witness_count": len(report.witnesses),
        "witnesses": witnesses,
        "all_bipartite": report.all_bipartite,
        "all_complete_bipartite": report.all_complete_bipartite,
    }
    return payload, 0
