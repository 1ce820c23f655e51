"""Command-line interface binding the modules into reproducible experiments.

Subcommands: count, verify, optimize, search, gen.  JSON is the canonical
output (sorted keys, exact rationals as "p/q" strings); CSV is a flat
key,value projection of the same payload.  Exit codes: 0 success / all
inequalities hold, 1 a verified inequality is false, 2 usage, parse, or
budget errors, 3 a failed internal self-check.  Output depends only on the
arguments, never on the environment, worker count (`--workers`, default
1), ordering of parallel partial results, or the clock.

Each subcommand's own arguments and code are in its module `_cmd_<name>`
(`_cmd_count`, `_cmd_verify`, `_cmd_optimize`, `_cmd_search`,
`_cmd_gen`), imported when that subcommand's parser first parses; this
module holds the top-level parser, the argument groups the subcommands
share, the renderer and `main`.  A command module imports the package
modules it runs when it runs.  With the bytecode cache off, compiling a
module from source holds transient parser memory of about 1 MB per 15-20
KB of source, so a command's peak memory follows the code it compiles:
a command compiles no other command's code, and json is imported only to
render the output, while the least is live.

No module imports this one: `python -m extremal_count.cli` runs this file
as `__main__`, so an import of `extremal_count.cli` from a command module
would compile and run it a second time, as a second module.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module


def worker_count(text: str) -> int:
    """--workers parsing for argparse: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser that, when it first parses, adds the command's
    shared argument group and imports the command's module, which adds the
    command's own arguments and runs it: argparse hands the arguments to
    the parser of the invoked subcommand only, so a command builds no other
    subcommand's arguments and compiles no other subcommand's code.  The
    top-level help lists each subcommand by its name and help text alone."""

    def __init__(self, *args, command, **kwargs):
        super().__init__(*args, **kwargs)
        self._command = command

    def parse_known_args(self, args=None, namespace=None):
        if self._command is not None:
            name, self._command = self._command, None
            shared_args, _ = COMMANDS[name]
            shared_args(self)
            module = import_module(f"{__package__}._cmd_{name}")
            module.add_arguments(self)
            self.set_defaults(func=module.run)
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
    p.add_argument("--workers", type=worker_count, default=1,
                   help="worker processes (default: 1); no effect on search")


# subcommand -> (its shared argument group, its help text); its own
# arguments and its code are in the module _cmd_<subcommand>
COMMANDS = {
    "count": (_report_args, "embeddings, automorphisms, copies, H-degrees"),
    "verify": (_report_args, "emit an exact inequality certificate"),
    "optimize": (_parallel_args, "maximize the blow-up leading coefficient"),
    "search": (_parallel_args, "exact maximizers over triangle-free hosts"),
    "gen": (_output_args, "write a named construction as a graph file"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extremal-count",
        description="Embedding counts in triangle-free graphs: exact "
                    "counting, maximizer search, blow-up weight "
                    "optimization, and inequality certificates.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubcommandParser)
    for name, (_, help_text) in COMMANDS.items():
        sub.add_parser(name, command=name, help=help_text)
    return parser


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


# the values _encode returns as they are, without a look inside
_PLAIN = frozenset((int, str, bool, float, type(None)))


def _encode(node, texts=None):
    """A payload as plain JSON values: a record (a NamedTuple) becomes an
    object keyed by field name, or by the name its class's `_json_keys`
    gives the field, a Fraction exact "p/q" text, and any other tuple with
    a record or a Fraction inside an array.  A list, dict or tuple with
    none inside is returned as it is, not copied.  `texts` maps each
    Fraction already rendered in the payload to its text, so an equal value
    is rendered once."""
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
    if not isinstance(node, (dict, list, tuple)):
        return node
    is_dict = isinstance(node, dict)
    out = None
    for key, value in node.items() if is_dict else enumerate(node):
        if type(value) in _PLAIN:
            continue
        new = _encode(value, texts)
        if new is not value:
            if out is None:
                out = dict(node) if is_dict else list(node)
            out[key] = new
    return node if out is None else out


def _flatten(payload, prefix=""):
    rows = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            rows.extend(_flatten(payload[key], f"{prefix}{key}."))
    elif isinstance(payload, (list, tuple)):
        for i, item in enumerate(payload):
            rows.extend(_flatten(item, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], payload))
    return rows


# JSON is written in batches of at least this many characters: with
# unbuffered standard streams each write is a system call, and a search
# whose every host ties prints over a megabyte.  An encoder chunk of this
# length or more, a certificate's long integer text, is written on its
# own, after the pending batch, and never copied into a batch.
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
            if len(chunk) >= WRITE_BATCH:
                if batch:
                    out.write("".join(batch))
                    batch, size = [], 0
                out.write(chunk)
                continue
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
