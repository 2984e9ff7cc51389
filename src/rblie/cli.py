"""Command-line front end.

Subcommands: basis, mul, reduce, verify, check-algebra.  A context is
selected with --kind (ls, pcls, free-rb, env-pre, env-post) plus the
source flags that `KINDS` lists for it: --alphabet for the free kinds,
optionally --graph for pcls and --weight for free-rb, --algebra for the
enveloping kinds.  Output is plain text and deterministic for fixed
flags and seed.

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

# The source flags each kind takes, the required one first; any other
# context flag is refused.
KINDS = {
    "ls": ("alphabet",),
    "pcls": ("alphabet", "graph"),
    "free-rb": ("alphabet", "weight"),
    "env-pre": ("algebra",),
    "env-post": ("algebra",),
}
CONTEXT_FLAGS = ("kind", "alphabet", "graph", "algebra", "weight", "fuel")
# verify's bounds and the values they take when not given; they default to
# None so that a property that does not read one can refuse it
VERIFY_BOUNDS = {"max_deg": 3, "max_rdeg": 2, "samples": 200, "seed": 1}
# the flags a verify property does not read; every other property reads them all
UNREAD_FLAGS = {
    "enum-oracles": CONTEXT_FLAGS + tuple(VERIFY_BOUNDS),  # builds its own contexts and bounds
    "pbw": ("samples", "seed"),  # counts every basis word, drawing none
}


class UsageError(ValueError):
    pass


def _add_context_flags(sub):
    sub.add_argument("--kind", choices=tuple(KINDS), help="which algebra the words live in")
    sub.add_argument("--alphabet", help="generators, comma-separated, decreasing")
    sub.add_argument("--graph", help="commutation graph file (pcls only)")
    sub.add_argument("--algebra", help="structure-constant file (env kinds)")
    sub.add_argument("--weight", type=int, choices=(0, 1), default=None,
                     help="operator weight (free-rb only; default 0)")
    sub.add_argument("--fuel", type=int, default=None,
                     help="rewrite-step budget for each operand and for the product")


def _refuse_flags(args, allowed, owner, flags=CONTEXT_FLAGS):
    for flag in flags:
        if flag not in allowed and getattr(args, flag) is not None:
            raise UsageError("%s does not take --%s" % (owner, flag.replace("_", "-")))


def _build_context(args):
    kind = args.kind
    algebra = None
    if kind is None:
        if not args.algebra:
            raise UsageError("--kind is required (or --algebra to imply an env kind)")
        algebra = load_algebra(args.algebra)
        kind = "env-pre" if algebra.kind == "pre" else "env-post"
    source = KINDS[kind]
    _refuse_flags(args, ("kind", "fuel") + source, kind)
    if not getattr(args, source[0]):
        raise UsageError("--%s is required for %s" % (source[0], kind))

    if source[0] == "algebra":
        if algebra is None:
            algebra = load_algebra(args.algebra)
        want = kind[len("env-"):]
        if algebra.kind != want:
            raise UsageError("%s expects a %s table, file says %r"
                             % (kind, want, algebra.kind))
        ctx = EnvContext(algebra)
    else:
        alphabet = Alphabet.from_spec(args.alphabet)
        if kind == "free-rb":
            ctx = FreeRBContext(alphabet, weight=args.weight or 0)
        else:
            ctx = PCLSContext(alphabet, load_graph(args.graph, alphabet) if args.graph else None)
    if args.fuel is not None:
        if args.fuel < 1:
            raise UsageError("--fuel must be positive")
        ctx.fuel_limit = args.fuel
    return ctx


def _check_bounds(args, ctx):
    """Refuse a negative bound, and --max-rdeg on a context without an operator."""
    if args.max_rdeg and ctx is not None and not ctx.supports_operator:
        raise UsageError("--max-rdeg applies to operator kinds only")
    if (args.max_deg or 0) < 0 or (args.max_rdeg or 0) < 0:
        raise UsageError("--max-deg and --max-rdeg must not be negative")


def _print_counts(ctx, max_deg, max_rdeg, row="(%d, %d): %d"):
    table = pbw_table(ctx, max_deg, max_rdeg)
    for key in sorted(table):
        print(row % (key + (table[key],)))


def cmd_basis(args):
    ctx = _build_context(args)
    _check_bounds(args, ctx)
    if args.counts or args.tsv:
        _print_counts(ctx, args.max_deg, args.max_rdeg,
                      "%d\t%d\t%d" if args.tsv else "(%d, %d): %d")
    else:
        for w in enumerate_basis(ctx, args.max_deg, args.max_rdeg):
            print(w)
    return 0


def _parse_operands(ctx, texts):
    out = []
    for text in texts:
        out.append(ctx.evaluate(parse_expr(text, ctx.alphabet)))
    return out


def cmd_mul(args):
    ctx = _build_context(args)
    x, y = _parse_operands(ctx, [args.left, args.right])
    print(format_lincomb(ctx.mult_comb(x, y)))
    return 0


def cmd_reduce(args):
    ctx = _build_context(args)
    (x,) = _parse_operands(ctx, [args.expr])
    print(format_lincomb(x))
    return 0


def cmd_verify(args):
    _refuse_flags(args, (), args.property, UNREAD_FLAGS.get(args.property, ()))
    ctx = None
    if args.property != "enum-oracles":
        if args.samples is not None and args.samples < 1:
            raise UsageError("--samples must be positive")
        ctx = _build_context(args)
        if args.corrupt_rule:
            ctx.corrupt_sign = True
        _check_bounds(args, ctx)
    max_deg, max_rdeg, samples, seed = (
        default if getattr(args, flag) is None else getattr(args, flag)
        for flag, default in VERIFY_BOUNDS.items())
    report = run_property(args.property, ctx, seed=seed, count=samples,
                          max_deg=max_deg, max_rdeg=max_rdeg)
    if not report.checked:
        raise UsageError("%s checked nothing; widen the bounds" % report.name)
    print(report.line())
    if args.property == "pbw" and report.passed:
        _print_counts(ctx, max_deg, max_rdeg)
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
