"""Command-line interface binding the modules into reproducible experiments.

Subcommands: count, verify, optimize, search, gen.  JSON is the canonical
output (sorted keys, exact rationals as "p/q" strings); CSV is a flat
key,value projection of the same payload.  Exit codes: 0 success / all
inequalities hold, 1 a verified inequality is false, 2 usage, parse, or
budget errors, 3 a failed internal self-check.  Output depends only on the
arguments, never on worker count, ordering of parallel partial results, or
the clock.

Each subcommand imports the modules it runs when it runs, and only its own
subcommand's arguments are added to the parser, so a command loads and
builds only its own part of the package.
"""

from __future__ import annotations

import argparse
import os
import sys


def fraction(text: str) -> Fraction:
    """Fraction parsing for argparse, which reports a ValueError, but not a
    ZeroDivisionError, as a usage error."""
    from fractions import Fraction

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


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser that adds its arguments, through `build`, when
    it first parses: argparse hands the arguments to the parser of the
    invoked subcommand only, so a command builds no other subcommand's
    arguments.  The top-level help lists each subcommand by its name and
    help text alone."""

    def __init__(self, *args, build, **kwargs):
        super().__init__(*args, **kwargs)
        self._build = build

    def parse_known_args(self, args=None, namespace=None):
        if self._build is not None:
            build, self._build = self._build, None
            build(self)
        return super().parse_known_args(args, namespace)


# gen writes graph text; count and verify also render a report; optimize
# also splits its work over processes.  search runs in one process but
# still accepts --workers, so existing command lines work

def _output_args(p):
    p.add_argument("--out", help="write the output here instead of stdout")


def _report_args(p):
    _output_args(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _parallel_args(p):
    _report_args(p)
    p.add_argument("--workers", type=worker_count, default=_default_workers(),
                   help="worker processes (default: EXTREMAL_COUNT_WORKERS or 1); "
                        "no effect on search")


def _count_args(p):
    _report_args(p)
    p.add_argument("pattern", help="pattern graph file")
    p.add_argument("host", help="host graph file")
    p.set_defaults(func=cmd_count)


def _verify_args(p):
    _report_args(p)
    p.add_argument("theorem", choices=("lemma2", "thm1-coeff", "thm1-chain",
                                       "thm2-params", "thm2-e2e"))
    p.add_argument("--graph", help="graph file (lemma2)")
    p.add_argument("--x", type=int, help="matching size parameter")
    p.add_argument("--d", type=int, help="half-defect parameter")
    p.add_argument("--sweep-max", type=int,
                   help="sweep all (x, d) hypothesis pairs up to this x (thm1-coeff)")
    p.add_argument("--lam", type=fraction,
                   help="defect ratio lambda as a fraction, e.g. 1 or 1/2")
    p.set_defaults(func=cmd_verify)


def _optimize_args(p):
    _parallel_args(p)
    p.add_argument("pattern", help="pattern graph file")
    p.add_argument("blowup_pattern",
                   help="blow-up skeleton: k2, c5, or a graph file path")
    p.add_argument("--grid", type=int, default=50,
                   help="grid resolution per simplex coordinate")
    p.set_defaults(func=cmd_optimize)


def _search_args(p):
    _parallel_args(p)
    p.add_argument("pattern", help="pattern graph file")
    p.add_argument("n", type=int, help="host vertex count")
    p.add_argument("--witness-dir",
                   help="also write each witness as a graph file here")
    p.set_defaults(func=cmd_search)


def _gen_args(p):
    _output_args(p)
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
    p.set_defaults(func=cmd_gen)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extremal-count",
        description="Embedding counts in triangle-free graphs: exact "
                    "counting, maximizer search, blow-up weight "
                    "optimization, and inequality certificates.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubcommandParser)
    sub.add_parser("count", build=_count_args,
                   help="embeddings, automorphisms, copies, H-degrees")
    sub.add_parser("verify", build=_verify_args,
                   help="emit an exact inequality certificate")
    sub.add_parser("optimize", build=_optimize_args,
                   help="maximize the blow-up leading coefficient")
    sub.add_parser("search", build=_search_args,
                   help="exact maximizers over triangle-free hosts")
    sub.add_parser("gen", build=_gen_args,
                   help="write a named construction as a graph file")
    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# Each command imports only the modules it runs.  Compiled from source, a
# module takes transient parser memory of about 1 MB per 15-20 KB of
# source (measured with tracemalloc: graphs 1.25 MB, cli 1.2, blowup 1.1),
# so a command's peak memory follows the code it compiles.  A command that
# reads or builds a graph imports graphs before any other module of the
# package, and json is imported only to render the output, so graphs, the
# largest, compiles while the least is live.

def cmd_count(args):
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


def _require(args, names):
    what = args.theorem if args.command == "verify" else args.family
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"{args.command} {what} requires --{name.replace('_', '-')}")


def cmd_verify(args):
    theorem = args.theorem
    if theorem == "lemma2":
        from .graphs import edge_bound_check, read_graph_file

        _require(args, ["graph"])
        cert = edge_bound_check(read_graph_file(args.graph))
        ok = cert.holds and (cert.equality_is_complete_bipartite
                             if cert.equality else True)
    elif theorem == "thm1-coeff":
        from . import thm1

        if args.sweep_max is not None:
            cert = thm1.thm1_sweep(args.sweep_max)
            ok = not cert.violations
        else:
            _require(args, ["x", "d"])
            cert = thm1.thm1_coefficient(args.x, args.d)
            ok = cert.exceeds_two_fifths
    elif theorem == "thm1-chain":
        from . import thm1

        _require(args, ["x", "d"])
        cert = thm1.thm1_chain_check(args.x, args.d)
        ok = cert.all_hold
    elif theorem == "thm2-params":
        from . import bounds

        _require(args, ["lam"])
        cert = bounds.solve_theorem2_params(args.lam)
        ok = cert.all_hold
    else:  # thm2-e2e
        from . import bounds

        _require(args, ["lam"])
        cert = bounds.theorem2_end_to_end(args.lam, args.x)
        ok = cert.holds and cert.params.all_hold
    payload = {"command": "verify", "theorem": theorem,
               "certificate": cert, "all_hold": ok}
    return payload, 0 if ok else 1


def _load_blowup_pattern(spec_text: str) -> Graph:
    from .graphs import cycle_graph, path_graph, read_graph_file

    if spec_text == "k2":
        return path_graph(2)
    if spec_text == "c5":
        return cycle_graph(5)
    return read_graph_file(spec_text)


def cmd_optimize(args):
    from .graphs import read_graph_file
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


def cmd_gen(args):
    from .graphs import (build_blowup, build_gps_example1, build_theorem2_H,
                         build_turan2, complete_bipartite, cycle_graph,
                         path_graph, star_graph, write_graph_text)

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
    return write_graph_text(g), 0


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------

# Integers of at most this many bits (1,234 digits) are printed by str(),
# which takes time quadratic in the length and refuses, by default, more
# than 4,300 digits; longer ones are split by bits at power-of-two
# multiples of this width and joined again in decimal, where libmpdec
# multiplies large numbers in sub-quadratic time.
STR_BITS = 4096

# _POWERS[j] is 2**(STR_BITS * 2**j) as an exact Decimal, grown on demand
# and shared by every integer the process prints.
_POWERS = []


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

    def digits(n):
        """n as an exact Decimal: its bits below and from STR_BITS * 2**j,
        the largest such multiple below its bit length, each converted
        alone."""
        if n.bit_length() <= STR_BITS:
            return decimal.Decimal(n)
        j = ((n.bit_length() - 1) // STR_BITS).bit_length() - 1
        while len(_POWERS) <= j:
            _POWERS.append(_POWERS[-1] * _POWERS[-1] if _POWERS
                           else decimal.Decimal(1 << STR_BITS))
        high = n >> (STR_BITS << j)
        return digits(n - (high << (STR_BITS << j))) + digits(high) * _POWERS[j]

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(digits(n))


def _encode(node, texts=None):
    """A payload as plain JSON values: a record (a NamedTuple) becomes an
    object keyed by field name, or by the name its class's `_json_keys`
    gives the field, a Fraction exact "p/q" text, and any other tuple an
    array.  `texts` maps each Fraction already rendered in the payload to
    its text, so an equal value is rendered once."""
    if texts is None:
        texts = {}
    if isinstance(node, tuple) and hasattr(node, "_fields"):
        keys = getattr(node, "_json_keys", {})
        return {keys.get(name, name): _encode(value, texts)
                for name, value in zip(node._fields, node)}
    # no Fraction exists before the fractions module is imported; count
    # never imports it
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(node, fractions.Fraction):
        if node not in texts:
            texts[node] = frac_str(node)
        return texts[node]
    if isinstance(node, dict):
        return {key: _encode(value, texts) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_encode(item, texts) for item in node]
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


# JSON is written in batches of at least this many characters: with
# unbuffered standard streams each write is a system call, and a search
# whose every host ties prints over a megabyte.
WRITE_BATCH = 1 << 16


def render(payload, fmt: str | None, out) -> None:
    """Write the output of a payload to the text stream `out`: graph text
    (from gen) as it is, any other payload as JSON or CSV.  The payload is
    encoded before the first write, so a failure writes nothing.  JSON is
    streamed from the encoder in batches of WRITE_BATCH characters and is
    never held whole; CSV is written in one piece."""
    if isinstance(payload, str):
        out.write(payload)
        return
    payload = _encode(payload)
    if fmt == "json":
        import json

        batch, size = [], 0
        for chunk in json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload):
            batch.append(chunk)
            size += len(chunk)
            if size >= WRITE_BATCH:
                out.write("".join(batch))
                batch, size = [], 0
        batch.append("\n")
        out.write("".join(batch))
        return
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in _flatten(payload):
        writer.writerow([key, value])
    out.write(buf.getvalue())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.func(args)
    except (ValueError, OSError) as exc:
        # budget, not-bipartite and graph-format errors are ValueErrors
        # too; no graph-format error is raised before graphs is imported
        graphs = sys.modules.get(f"{__package__}.graphs")
        if graphs is not None and isinstance(exc, graphs.GraphFormatError):
            print(f"error: parse failure at {exc}", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # a failed internal self-check, not a false inequality (exit 1)
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    fmt = getattr(args, "format", None)
    if not args.out:
        render(payload, fmt, sys.stdout)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            render(payload, fmt, fh)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
