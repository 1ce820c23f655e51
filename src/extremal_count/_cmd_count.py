"""`count`: embeddings, automorphisms, copies and H-degrees of a pattern
in a host."""


def add_arguments(p):
    p.add_argument("pattern", help="pattern graph file")
    p.add_argument("host", help="host graph file")


def run(args):
    from .graphs import read_graph_file
    from .embeddings import count_automorphisms, copies_from_counts, h_degrees

    pattern = read_graph_file(args.pattern)
    host = read_graph_file(args.host)
    report = h_degrees(pattern, host)
    automorphisms = count_automorphisms(pattern)
    payload = {
        "command": "count",
        "pattern_file": args.pattern,
        "host_file": args.host,
        "pattern_vertices": pattern.n,
        "host_vertices": host.n,
        "embeddings": report.total,
        "automorphisms": automorphisms,
        "copies": copies_from_counts(report.total, automorphisms),
        "h_degrees": [report.h[v] for v in range(host.n)],
    }
    return payload, 0
