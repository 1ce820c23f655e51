"""Command-line interface binding the modules into reproducible experiments.

Subcommands: count, verify, optimize, search, gen.  JSON is the canonical
output (sorted keys, exact rationals as "p/q" strings); CSV is a flat
key,value projection of the same payload.  Exit codes: 0 success / all
inequalities hold, 1 a verified inequality is false, 2 usage, parse, or
budget errors, 3 a failed internal self-check.  Output depends only on the
arguments, never on worker count, ordering of parallel partial results, or
the clock.

Each subcommand imports the modules it runs when it runs, so a command
loads only its own part of the package.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from fractions import Fraction

from .graphs import (Graph, GraphFormatError, build_blowup, build_gps_example1,
                     build_theorem2_H, build_turan2, complete_bipartite,
                     cycle_graph, path_graph, read_graph_file, star_graph,
                     write_graph_file, write_graph_text)


def fraction(text: str) -> Fraction:
    """Fraction parsing for argparse, which reports a ValueError, but not a
    ZeroDivisionError, as a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def worker_count(text: str) -> int:
    """--workers parsing for argparse: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _default_workers() -> int:
    # a bad EXTREMAL_COUNT_WORKERS falls back to one process
    try:
        return max(1, int(os.environ.get("EXTREMAL_COUNT_WORKERS", "1")))
    except ValueError:
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extremal-count",
        description="Embedding counts in triangle-free graphs: exact "
                    "counting, maximizer search, blow-up weight "
                    "optimization, and inequality certificates.")
    # gen writes graph text; count and verify also render a report;
    # optimize also splits its work over processes.  search runs in one
    # process but still accepts --workers, so existing command lines work
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="write the output here instead of stdout")
    report = argparse.ArgumentParser(add_help=False, parents=[output])
    report.add_argument("--format", choices=("json", "csv"), default="json")
    parallel = argparse.ArgumentParser(add_help=False, parents=[report])
    parallel.add_argument("--workers", type=worker_count, default=_default_workers(),
                          help="worker processes (default: EXTREMAL_COUNT_WORKERS or 1); "
                               "no effect on search")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", parents=[report],
                             help="embeddings, automorphisms, copies, H-degrees")
    p_count.add_argument("pattern", help="pattern graph file")
    p_count.add_argument("host", help="host graph file")
    p_count.set_defaults(func=cmd_count)

    p_verify = sub.add_parser("verify", parents=[report], help="emit an exact inequality certificate")
    p_verify.add_argument("theorem", choices=("lemma2", "thm1-coeff", "thm1-chain",
                                              "thm2-params", "thm2-e2e"))
    p_verify.add_argument("--graph", help="graph file (lemma2)")
    p_verify.add_argument("--x", type=int, help="matching size parameter")
    p_verify.add_argument("--d", type=int, help="half-defect parameter")
    p_verify.add_argument("--sweep-max", type=int,
                          help="sweep all (x, d) hypothesis pairs up to this x (thm1-coeff)")
    p_verify.add_argument("--lam", type=fraction,
                          help="defect ratio lambda as a fraction, e.g. 1 or 1/2")
    p_verify.set_defaults(func=cmd_verify)

    p_opt = sub.add_parser("optimize", parents=[parallel], help="maximize the blow-up leading coefficient")
    p_opt.add_argument("pattern", help="pattern graph file")
    p_opt.add_argument("blowup_pattern",
                       help="blow-up skeleton: k2, c5, or a graph file path")
    p_opt.add_argument("--grid", type=int, default=50,
                       help="grid resolution per simplex coordinate")
    p_opt.set_defaults(func=cmd_optimize)

    p_search = sub.add_parser("search", parents=[parallel], help="exact maximizers over triangle-free hosts")
    p_search.add_argument("pattern", help="pattern graph file")
    p_search.add_argument("n", type=int, help="host vertex count")
    p_search.add_argument("--witness-dir",
                          help="also write each witness as a graph file here")
    p_search.set_defaults(func=cmd_search)

    p_gen = sub.add_parser("gen", parents=[output], help="write a named construction as a graph file")
    p_gen.add_argument("family", choices=("turan2", "complete-bipartite", "path",
                                          "cycle", "star", "gps-example1",
                                          "theorem2-h", "blowup"))
    p_gen.add_argument("--n", type=int, help="vertex count (turan2, path, cycle, star)")
    p_gen.add_argument("--a", type=int, help="first side (complete-bipartite)")
    p_gen.add_argument("--b", type=int, help="second side (complete-bipartite)")
    p_gen.add_argument("--k", type=int, help="star size parameter (gps-example1)")
    p_gen.add_argument("--d", type=int, help="half-defect (theorem2-h)")
    p_gen.add_argument("--x", type=int, help="matching size (theorem2-h)")
    p_gen.add_argument("--pattern", help="blow-up skeleton: k2, c5, or a file (blowup)")
    p_gen.add_argument("--sizes", help="comma-separated blob sizes (blowup)")
    p_gen.set_defaults(func=cmd_gen)

    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_count(args):
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


def _require(args, names):
    what = args.theorem if args.command == "verify" else args.family
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"{args.command} {what} requires --{name.replace('_', '-')}")


def cmd_verify(args):
    from . import bounds

    theorem = args.theorem
    if theorem == "lemma2":
        _require(args, ["graph"])
        cert = bounds.edge_bound_check(read_graph_file(args.graph))
        ok = cert.holds and (cert.equality_is_complete_bipartite
                             if cert.equality else True)
    elif theorem == "thm1-coeff":
        if args.sweep_max is not None:
            cert = bounds.thm1_sweep(args.sweep_max)
            ok = not cert.violations
        else:
            _require(args, ["x", "d"])
            cert = bounds.thm1_coefficient(args.x, args.d)
            ok = cert.exceeds_two_fifths
    elif theorem == "thm1-chain":
        _require(args, ["x", "d"])
        cert = bounds.thm1_chain_check(args.x, args.d)
        ok = cert.all_hold
    elif theorem == "thm2-params":
        _require(args, ["lam"])
        cert = bounds.solve_theorem2_params(args.lam)
        ok = cert.all_hold
    else:  # thm2-e2e
        _require(args, ["lam"])
        cert = bounds.theorem2_end_to_end(args.lam, args.x)
        ok = cert.holds and cert.params.all_hold
    payload = {"command": "verify", "theorem": theorem,
               "certificate": cert, "all_hold": ok}
    return payload, 0 if ok else 1


def _load_blowup_pattern(spec_text: str) -> Graph:
    if spec_text == "k2":
        return path_graph(2)
    if spec_text == "c5":
        return cycle_graph(5)
    return read_graph_file(spec_text)


def cmd_optimize(args):
    from .blowup import optimize_weights

    pattern = read_graph_file(args.pattern)
    skeleton = _load_blowup_pattern(args.blowup_pattern)
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


def cmd_search(args):
    from . import _kernels as kernels
    from .oracle import find_maximizers

    pattern = read_graph_file(args.pattern)
    report = find_maximizers(pattern, args.n)
    witnesses = []
    for i, w in enumerate(report.witnesses):
        witnesses.append({
            "index": i,
            # each witness is built from its canonical mask
            "canonical_mask": kernels.mask_from_rows(w.rows, w.n),
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


def cmd_gen(args):
    family = args.family
    if family == "turan2":
        _require(args, ["n"])
        g = build_turan2(args.n)
    elif family == "complete-bipartite":
        _require(args, ["a", "b"])
        g = complete_bipartite(args.a, args.b)
    elif family == "path":
        _require(args, ["n"])
        g = path_graph(args.n)
    elif family == "cycle":
        _require(args, ["n"])
        g = cycle_graph(args.n)
    elif family == "star":
        _require(args, ["n"])
        g = star_graph(args.n)
    elif family == "gps-example1":
        _require(args, ["k"])
        g = build_gps_example1(args.k)
    elif family == "theorem2-h":
        _require(args, ["d", "x"])
        g = build_theorem2_H(args.d, args.x)
    else:  # blowup
        _require(args, ["pattern", "sizes"])
        base = _load_blowup_pattern(args.pattern)
        sizes = [int(s) for s in args.sizes.split(",")]
        g = build_blowup(base, sizes)
    return g, 0


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------

# Integers of at most this many bits (1,234 digits) are printed by str(),
# which takes time quadratic in the length and refuses, by default, more
# than 4,300 digits; longer ones are split in halves by bits and joined
# again in decimal, where libmpdec multiplies large numbers in
# sub-quadratic time.
STR_BITS = 4096


def frac_str(q: Fraction) -> str:
    """Exact "p/q" text of a rational.

    Certificates carry rationals with tens of thousands of digits, past
    CPython's int-to-str digit cap.  An integer longer than STR_BITS bits
    is converted by divide and conquer through the decimal module,
    imported on first use, so the conversion is sub-quadratic and never
    reads or changes the interpreter's cap.
    """
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


def _int_str(n: int) -> str:
    if n.bit_length() <= STR_BITS:
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    import decimal

    powers = {}

    def power(w):
        """2**w as an exact Decimal, memoized."""
        if w not in powers:
            powers[w] = (decimal.Decimal(1 << w) if w <= STR_BITS
                         else power(w >> 1) * power(w - (w >> 1)))
        return powers[w]

    def digits(n, w):
        """n < 2**w as an exact Decimal: the low and high halves of its
        bits, each converted alone."""
        if w <= STR_BITS:
            return decimal.Decimal(n)
        half = w >> 1
        high = n >> half
        return digits(n - (high << half), half) + digits(high, w - half) * power(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(digits(n, n.bit_length()))


def _encode(node):
    """A payload as plain JSON values: a dataclass becomes an object keyed
    by field name (or by the field's "json" metadata), a Fraction exact
    "p/q" text, and a tuple an array."""
    if dataclasses.is_dataclass(node):
        return {f.metadata.get("json", f.name): _encode(getattr(node, f.name))
                for f in dataclasses.fields(node)}
    if isinstance(node, Fraction):
        return frac_str(node)
    if isinstance(node, dict):
        return {key: _encode(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_encode(item) for item in node]
    return node


def _flatten(payload, prefix=""):
    rows = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            rows.extend(_flatten(payload[key], f"{prefix}{key}."))
    elif isinstance(payload, list):
        for i, item in enumerate(payload):
            rows.extend(_flatten(item, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], payload))
    return rows


def render(payload, fmt: str | None) -> str:
    if isinstance(payload, Graph):
        return write_graph_text(payload)
    payload = _encode(payload)
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in _flatten(payload):
        writer.writerow([key, value])
    return buf.getvalue()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.func(args)
    except GraphFormatError as exc:
        print(f"error: parse failure at {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        # budget and not-bipartite errors are ValueErrors too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # a failed internal self-check, not a false inequality (exit 1)
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    text = render(payload, getattr(args, "format", None))
    if not args.out:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
