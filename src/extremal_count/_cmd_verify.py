"""`verify`: an exact inequality certificate of the edge bound (lemma2),
of Theorem 1 (thm1-coeff, thm1-chain) or of Theorem 2 (thm2-params,
thm2-e2e)."""


def fraction(text: str):
    """Fraction parsing for argparse, which reports a ValueError, but not a
    ZeroDivisionError, as a usage error."""
    from fractions import Fraction

    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def add_arguments(p):
    p.add_argument("theorem", choices=("lemma2", "thm1-coeff", "thm1-chain",
                                       "thm2-params", "thm2-e2e"))
    p.add_argument("--graph", help="graph file (lemma2)")
    p.add_argument("--x", type=int, help="matching size parameter")
    p.add_argument("--d", type=int, help="half-defect parameter")
    p.add_argument("--sweep-max", type=int,
                   help="sweep all (x, d) hypothesis pairs up to this x (thm1-coeff)")
    p.add_argument("--lam", type=fraction,
                   help="defect ratio lambda as a fraction, e.g. 1 or 1/2")


# requires the options `required` and refuses every option of verify
# outside `required` and `optional`: the chosen theorem would not read it
def _options(args, required, optional=()):
    for name in required:
        if getattr(args, name) is None:
            raise ValueError(f"verify {args.theorem} requires --{name}")
    for name in ("graph", "x", "d", "sweep_max", "lam"):
        if name not in required + optional and getattr(args, name) is not None:
            given = " ".join(f"--{n.replace('_', '-')}" for n in required)
            raise ValueError(f"verify {args.theorem} {given} does not read "
                             f"--{name.replace('_', '-')}")


def run(args):
    theorem = args.theorem
    if theorem == "lemma2":
        from .graphs import edge_bound_check, read_graph_file

        _options(args, ("graph",))
        cert = edge_bound_check(read_graph_file(args.graph))
        ok = cert.holds and (cert.equality_is_complete_bipartite
                             if cert.equality else True)
    elif theorem == "thm1-coeff":
        from . import thm1

        if args.sweep_max is not None:
            _options(args, ("sweep_max",))
            cert = thm1.thm1_sweep(args.sweep_max)
            ok = not cert.violations
        else:
            _options(args, ("x", "d"))
            cert = thm1.thm1_coefficient(args.x, args.d)
            ok = cert.exceeds_two_fifths
    elif theorem == "thm1-chain":
        from . import thm1

        _options(args, ("x", "d"))
        cert = thm1.thm1_chain_check(args.x, args.d)
        ok = cert.all_hold
    elif theorem == "thm2-params":
        from . import bounds

        _options(args, ("lam",))
        cert = bounds.solve_theorem2_params(args.lam)
        ok = cert.all_hold
    else:  # thm2-e2e
        from . import bounds

        _options(args, ("lam",), ("x",))
        cert = bounds.theorem2_end_to_end(args.lam, args.x)
        ok = cert.holds and cert.params.all_hold
    payload = {"command": "verify", "theorem": theorem,
               "certificate": cert, "all_hold": ok}
    return payload, 0 if ok else 1
