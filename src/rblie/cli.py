"""Command-line front end.

Subcommands: basis, mul, reduce, verify, check-algebra.  A context is
selected with --kind (ls, pcls, free-rb, env-pre, env-post) plus the
source flags that `KINDS` lists for it: --alphabet for the free kinds,
optionally --graph for pcls and --weight for free-rb, --algebra for the
enveloping kinds.  `READS` decides which other flags each command reads,
a verify property counting as a command under its own name: a flag given
that neither the command nor its kind reads exits 2, and so does a number
below its `LEAST` value.  Output is plain text and deterministic for
fixed flags and seed.

Exit codes: 0 success or all checks pass, 1 a verification check failed,
2 usage, parse, or file-format error, 3 fuel exhausted.
"""

from __future__ import annotations

import argparse
import sys

from .algebras import load_algebra
from .enveloping import EnvContext, pbw_table
from .expr import format_lincomb, parse_expr
from .free_rb import FreeRBContext
from .pcls import PCLSContext, load_graph
from .straighten import FuelError, enumerate_basis
from .terms import Alphabet
from .verify import PROPERTIES, run_property

__all__ = ["main"]

# The source flags each kind takes, the required one first.
KINDS = {
    "ls": ("alphabet",),
    "pcls": ("alphabet", "graph"),
    "free-rb": ("alphabet", "weight"),
    "env-pre": ("algebra",),
    "env-post": ("algebra",),
}
# The other flags each command reads, a verify property counting as a
# command under its own name; reading --kind means reading the source
# flags of the kind too.  Every sampled property reads the first row.
READS = dict.fromkeys(PROPERTIES, ("kind", "fuel", "max_deg", "max_rdeg", "samples", "seed")) | {
    "basis": ("kind", "max_deg", "max_rdeg", "counts", "tsv"),
    "mul": ("kind", "fuel"),
    "reduce": ("kind", "fuel"),
    "pbw": ("kind", "max_deg", "max_rdeg"),  # counts every basis word, making no product
    "enum-oracles": (),  # builds its own contexts and bounds
}
# the least value of each number flag
LEAST = {"fuel": 1, "samples": 1, "max_deg": 0, "max_rdeg": 0}
SOURCES = {flag for source in KINDS.values() for flag in source}
# every flag the rule covers, in the order they are checked
FLAGS = tuple(dict.fromkeys(flag for row in (*READS.values(), *KINDS.values()) for flag in row))


def _add_context_flags(sub):
    sub.add_argument("--kind", choices=tuple(KINDS), help="which algebra the words live in")
    sub.add_argument("--alphabet", help="generators, comma-separated, decreasing")
    sub.add_argument("--graph", help="commutation graph file (pcls only)")
    sub.add_argument("--algebra", help="structure-constant file (env kinds)")
    sub.add_argument("--weight", type=int, choices=(0, 1), default=None,
                     help="operator weight (free-rb only; default 0)")
    sub.add_argument("--fuel", type=int, default=None,
                     help="rewrite-step budget for each operand and for the product")


def _read_flags(args, kind=None):
    """Refuse each flag given that neither the command nor the kind reads,
    naming the kind for a source flag, and each number below its least."""
    owner = getattr(args, "property", args.command)
    reads = READS[owner] + KINDS.get(kind, ())
    for flag in FLAGS:
        value = getattr(args, flag, None)
        if value is None or value is False:
            continue
        name = "--" + flag.replace("_", "-")
        if flag not in reads:
            reader = kind if kind and flag in SOURCES else owner
            raise ValueError("%s does not take %s" % (reader, name))
        if flag in LEAST and value < LEAST[flag]:
            raise ValueError("%s must be at least %d" % (name, LEAST[flag]))


def _build_context(args):
    kind = args.kind
    algebra = None
    if kind is None:
        if not args.algebra:
            raise ValueError("--kind is required (or --algebra to imply an env kind)")
        algebra = load_algebra(args.algebra)
        kind = "env-pre" if algebra.kind == "pre" else "env-post"
    _read_flags(args, kind)
    source = KINDS[kind]
    if not getattr(args, source[0]):
        raise ValueError("--%s is required for %s" % (source[0], kind))

    if source[0] == "algebra":
        if algebra is None:
            algebra = load_algebra(args.algebra)
        want = kind[len("env-"):]
        if algebra.kind != want:
            raise ValueError("%s expects a %s table, file says %r"
                             % (kind, want, algebra.kind))
        ctx = EnvContext(algebra)
    else:
        alphabet = Alphabet.from_spec(args.alphabet)
        if kind == "free-rb":
            ctx = FreeRBContext(alphabet, weight=args.weight or 0)
        else:
            ctx = PCLSContext(alphabet, load_graph(args.graph, alphabet) if args.graph else None)
    if getattr(args, "max_rdeg", 0) and not ctx.supports_operator:
        raise ValueError("--max-rdeg applies to operator kinds only")
    if args.fuel is not None:
        ctx.fuel_limit = args.fuel
    return ctx


def _print_rows(rows, text="(%d, %d): %d"):
    for key in sorted(rows):
        print(text % (key + (rows[key],)))


def cmd_basis(args):
    ctx = _build_context(args)
    if args.counts or args.tsv:
        _print_rows(pbw_table(ctx, args.max_deg, args.max_rdeg),
                    "%d\t%d\t%d" if args.tsv else "(%d, %d): %d")
    else:
        for w in enumerate_basis(ctx, args.max_deg, args.max_rdeg):
            print(w)
    return 0


def cmd_mul(args):
    ctx = _build_context(args)
    x, y = (ctx.evaluate(parse_expr(text, ctx.alphabet)) for text in (args.left, args.right))
    print(format_lincomb(ctx.mult_comb(x, y)))
    return 0


def cmd_reduce(args):
    ctx = _build_context(args)
    print(format_lincomb(ctx.evaluate(parse_expr(args.expr, ctx.alphabet))))
    return 0


def cmd_verify(args):
    ctx = None
    if "kind" in READS[args.property]:
        ctx = _build_context(args)
        if args.corrupt_rule:
            ctx.corrupt_sign = True
    else:  # the property builds its own contexts
        _read_flags(args)
    # run_property holds the defaults of the flags not given
    given = {("count" if flag == "samples" else flag): getattr(args, flag)
             for flag in ("max_deg", "max_rdeg", "samples", "seed")
             if getattr(args, flag) is not None}
    report = run_property(args.property, ctx, **given)
    if not report.checked:
        raise ValueError("%s checked nothing; widen the bounds" % report.name)
    print(report.line())
    _print_rows(report.rows)
    return 0 if report.passed else 1


def cmd_check_algebra(args):
    algebra = load_algebra(args.path)
    report = algebra.validate()
    print(report.line())
    return 0 if report.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rblie",
        description="Bases and products for Lie algebras with a Rota-Baxter operator.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("basis", help="list basis words within bidegree bounds")
    _add_context_flags(p)
    p.add_argument("--max-deg", type=int, required=True)
    p.add_argument("--max-rdeg", type=int, default=0)
    table = p.add_mutually_exclusive_group()
    table.add_argument("--counts", action="store_true",
                       help="print a (deg, degR): count table instead of words")
    table.add_argument("--tsv", action="store_true",
                       help="counts as tab-separated deg/degR/count rows")
    p.set_defaults(func=cmd_basis)

    p = subs.add_parser("mul", help="straighten a product of two expressions")
    _add_context_flags(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_mul)

    p = subs.add_parser("reduce", help="rewrite an expression onto the basis")
    _add_context_flags(p)
    p.add_argument("expr")
    p.set_defaults(func=cmd_reduce)

    p = subs.add_parser("verify", help="run a property check and report PASS/FAIL")
    _add_context_flags(p)
    p.add_argument("--property", required=True, choices=PROPERTIES)
    p.add_argument("--max-deg", type=int, default=None)
    p.add_argument("--max-rdeg", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--corrupt-rule", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("check-algebra", help="validate a structure-constant file")
    p.add_argument("path")
    p.set_defaults(func=cmd_check_algebra)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FuelError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
