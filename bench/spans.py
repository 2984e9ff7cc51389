"""Tracing of the rblie layers from outside the program.

`Tracer.install()` replaces public functions of rblie's modules with
timing wrappers, in every namespace that imported them by name, and
`Tracer.instrument(ctx)` wraps one context's product, membership,
letter-rule and evaluation methods.  No file of the program changes.

A span is one call through a wrapper.  Spans nest on a stack, so each
layer's self time is its duration minus the time its child spans cover.
A wrapper's own cost would land in those times too: the part outside a
span's clock readings in its parent's self time, the part inside in its
own.  `calibrate()` measures both on a no-op function before `install()`,
and every span and count subtracts them from self times and outermost
durations, so that the hot layers (millions of calls on basis-enum)
report the program's time rather than the tracer's.  What the no-op
cannot show (records of coarse spans, the product wrapper's memo check,
collector work the wrappers' allocations cause) stays in the times; the
items' corrected time against the untraced wall_s measures it.
Coarse spans (items, products, evaluation, enumeration, sampling,
checks, parsing, formatting, table validation) are kept in memory as
(id, name, start, end, parent id, item id) records and written out when
the run ends.  The hot layers (basis membership, letter rules, the
Lyndon checks) are called millions of times, so for them only the call
count, self time and outermost duration are accumulated; comparisons of
words and `LinComb.iadd_comb` are only counted.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from fractions import Fraction
from time import perf_counter

# Spans whose individual records are kept.
RECORDED = frozenset({
    "item", "straighten.mult", "straighten.evaluate", "straighten.enumerate",
    "verify.sample", "verify.check", "expr.parse", "expr.format", "algebras.validate",
})

# Module-level functions wrapped as spans: (span name, defining module,
# function, other modules that imported it by name).
_FUNCTION_SPANS = (
    ("straighten.enumerate", "straighten", "enumerate_basis",
     ("pcls", "free_rb", "verify", "cli")),
    ("verify.sample", "verify", "sample_basis", ()),
    ("expr.parse", "expr", "parse_expr", ("cli", "algebras")),
    ("expr.parse", "expr", "parse_word", ()),
    ("expr.format", "expr", "format_lincomb", ("cli",)),
    ("lyndon.ls_shape_ok", "lyndon", "ls_shape_ok", ("pcls", "free_rb", "enveloping")),
    ("lyndon.is_assoc_ls", "lyndon", "is_assoc_ls", ("straighten",)),
) + tuple(
    ("verify.check", "verify", name, ())
    for name in ("check_anticomm", "check_jacobi", "check_rb_property", "check_derived",
                 "check_graded_shape", "check_pbw", "check_reduce_hom", "check_spanning",
                 "check_enum_oracles")
)

# Module-level functions that are only counted.
_FUNCTION_COUNTS = (
    ("terms.compare_words", "terms", "compare_words", ("lyndon", "verify")),
)

# Which module's letter rule a context class uses.
_LETTER_RULE_OWNER = {
    "FreeRBContext": "free_rb", "EnvContext": "enveloping",
    "PCLSContext": "pcls", "LSContext": "pcls",
}


class Tracer:
    """Span stack, per-name totals, counters and the contexts to scan."""

    def __init__(self):
        self.records = []
        self.item = None
        # open spans: [child seconds, record id or None, wrapper seconds inside]
        self._stack = []
        self._open = Counter()
        # seconds a wrapper adds inside a span, outside it, and per count;
        # set them before any wrapper is made
        self.costs = (0.0, 0.0, 0.0)
        # name -> [calls, self seconds, outermost seconds, outermost calls]
        self.totals = {}
        self.counts = Counter()
        self.contexts = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn):
        stack = self._stack
        open_ = self._open
        totals = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
        recorded = name in RECORDED
        records = self.records
        clock = perf_counter
        inside, outside, _ = self.costs

        def traced(*args, **kwargs):
            rid = None
            if recorded:
                rid = len(records)
                records.append(None)
            frame = [0.0, rid, 0.0]
            stack.append(frame)
            if not open_[name]:
                totals[3] += 1
            open_[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                totals[0] += 1
                totals[1] += dur - frame[0] - inside
                open_[name] -= 1
                if not open_[name]:
                    totals[2] += dur - frame[2] - inside
                if stack:
                    parent = stack[-1]
                    parent[0] += dur + outside
                    parent[2] += frame[2] + inside + outside
                if recorded:
                    records[rid] = (rid, name, start, end, self._parent(), self.item)

        return traced

    def _parent(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def counted(self, name, fn):
        counts = self.counts
        stack = self._stack
        cost = self.costs[2]

        def counting(*args, **kwargs):
            counts[name] += 1
            if stack:
                frame = stack[-1]
                frame[0] += cost
                frame[2] += cost
            return fn(*args, **kwargs)

        return counting

    def calibrate(self):
        """Measure what a span and a count add to the times around them.

        Times a loop of calls to a no-op function, bare and through each
        wrapper of an uncalibrated tracer inside an outer span, and keeps
        the median per-call figure of several repeats.
        """
        calls, repeats = 20000, 7
        def noop(w):
            return None

        def loop(fn):
            for i in range(calls):
                fn(i)

        inside, outside, count = [], [], []
        for _ in range(repeats):
            t0 = perf_counter()
            loop(noop)
            bare = perf_counter() - t0
            probe = Tracer()
            probe.span("outer", loop)(probe.span("inner", noop))
            inside.append(probe.totals["inner"][1] / calls)
            outside.append((probe.totals["outer"][1] - bare) / calls)
            probe = Tracer()
            probe.span("outer", loop)(probe.counted("inner", noop))
            count.append((probe.totals["outer"][1] - bare) / calls)
        self.costs = tuple(max(0.0, statistics.median(c)) for c in (inside, outside, count))

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap rblie's module functions and class methods; call once per process."""
        import importlib

        from rblie.algebras import StructureAlgebra
        from rblie.lincomb import LinComb

        def patch(wrapper, name, home, attr, importers):
            modules = [importlib.import_module("rblie." + m) for m in (home,) + importers]
            wrapped = wrapper(name, getattr(modules[0], attr))
            for module in modules:
                setattr(module, attr, wrapped)

        for name, home, attr, importers in _FUNCTION_SPANS:
            patch(self.span, name, home, attr, importers)
        for name, home, attr, importers in _FUNCTION_COUNTS:
            patch(self.counted, name, home, attr, importers)
        LinComb.iadd_comb = self.counted("lincomb.iadd_comb", LinComb.iadd_comb)
        StructureAlgebra.validate = self.span("algebras.validate", StructureAlgebra.validate)

    def instrument(self, ctx):
        """Wrap the public engine methods of one context instance."""
        ctx.mult = self._product(ctx, ctx.mult)
        ctx.mult_comb = self._product(ctx, ctx.mult_comb)
        ctx.evaluate = self.span("straighten.evaluate", ctx.evaluate)
        # every call that misses the cache adds one entry, so hits are
        # calls minus the entries of these fresh contexts' caches
        ctx.is_basis_word = self.span("straighten.basis", ctx.is_basis_word)
        owner = _LETTER_RULE_OWNER.get(type(ctx).__name__, type(ctx).__module__)
        ctx.letter_rule = self.span(owner + ".letter_rule", ctx.letter_rule)
        self.contexts.append(ctx)
        return ctx

    def _product(self, ctx, fn):
        traced = self.span("straighten.mult", fn)
        counts = self.counts
        open_ = self._open

        def product(*args):
            if open_["straighten.mult"]:
                return traced(*args)
            before = len(ctx._memo)
            out = traced(*args)
            counts["mult.top"] += 1
            if len(ctx._memo) == before:
                counts["mult.hit"] += 1
            return out

        return product

    # -- results ------------------------------------------------------------

    def raw(self):
        """Accumulated totals and a scan of every instrumented context."""
        memo = basis = values = terms = max_terms = coeffs = fractions = integral = 0
        for ctx in self.contexts:
            memo += len(ctx._memo)
            basis += len(ctx._basis_cache)
            for value in ctx._memo.values():
                if not isinstance(value, dict):
                    continue  # an in-progress marker left by a failed product
                values += 1
                terms += len(value)
                max_terms = max(max_terms, len(value))
                for c in value.values():
                    coeffs += 1
                    if isinstance(c, Fraction):
                        fractions += 1
                        integral += c.denominator == 1
        return {
            "totals": self.totals, "counts": dict(self.counts),
            "scan": {"memo": memo, "basis": basis, "values": values, "terms": terms,
                     "max_terms": max_terms, "coeffs": coeffs, "fractions": fractions,
                     "integral": integral},
        }

    def write_records(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "item"],
                       "spans": self.records}, fh)


def merge_raw(parts):
    """Sum raw results of several processes (the CLI children of one pass)."""
    out = {"totals": {}, "counts": Counter(), "scan": Counter()}
    for part in parts:
        for name, values in part["totals"].items():
            t = out["totals"].setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(values):
                t[i] += v
        out["counts"].update(part["counts"])
        for key, value in part["scan"].items():
            if key == "max_terms":
                out["scan"][key] = max(out["scan"][key], value)
            else:
                out["scan"][key] += value
    return out


def _ratio(num, den):
    # 0 where nothing was attempted (basis-enum makes no products)
    return num / den if den else 0.0


def layer_metrics(raw):
    """The per-layer metrics of one pass, from its raw totals."""
    totals = raw["totals"]
    counts = raw["counts"]
    scan = raw["scan"]

    def total(name, i):
        return totals.get(name, (0, 0.0, 0.0, 0))[i]

    def calls(name):
        return total(name, 0)

    def self_s(name):
        return total(name, 1)

    def outer_s(name):
        return total(name, 2)

    shape_calls = calls("lyndon.ls_shape_ok")
    return {
        "straighten.mult_calls": calls("straighten.mult"),
        "straighten.mult_self_s": self_s("straighten.mult"),
        "straighten.mult_hit_ratio": _ratio(counts.get("mult.hit", 0), counts.get("mult.top", 0)),
        "straighten.memo_entries": scan["memo"],
        "straighten.basis_calls": calls("straighten.basis"),
        "straighten.basis_cache_entries": scan["basis"],
        "straighten.basis_hit_ratio": _ratio(calls("straighten.basis") - scan["basis"],
                                             calls("straighten.basis")),
        "straighten.basis_s": outer_s("straighten.basis"),
        "straighten.basis_self_s": self_s("straighten.basis"),
        "straighten.enumerate_s": outer_s("straighten.enumerate"),
        "straighten.evaluate_s": outer_s("straighten.evaluate"),
        "free_rb.letter_rule_calls": calls("free_rb.letter_rule"),
        "enveloping.letter_rule_calls": calls("enveloping.letter_rule"),
        "pcls.letter_rule_calls": calls("pcls.letter_rule"),
        # rule 3 of the operator contexts recurses into the engine, so this
        # self time is product work too
        "straighten.letter_rule_self_s": sum(
            self_s(m + ".letter_rule") for m in ("free_rb", "enveloping", "pcls")),
        "lyndon.ls_shape_ok_calls": shape_calls,
        "lyndon.shape_checks_per_top": _ratio(shape_calls, total("lyndon.ls_shape_ok", 3)),
        "lyndon.is_assoc_ls_calls": calls("lyndon.is_assoc_ls"),
        "lyndon.self_s": self_s("lyndon.ls_shape_ok") + self_s("lyndon.is_assoc_ls"),
        "terms.compare_words_calls": counts.get("terms.compare_words", 0),
        "lincomb.fraction_share": _ratio(scan["fractions"], scan["coeffs"]),
        "lincomb.integral_fraction_share": _ratio(scan["integral"], scan["fractions"]),
        "lincomb.max_terms": scan["max_terms"],
        "lincomb.mean_terms": _ratio(scan["terms"], scan["values"]),
        "lincomb.iadd_comb_calls": counts.get("lincomb.iadd_comb", 0),
        "expr.parse_calls": calls("expr.parse"),
        "expr.parse_s": outer_s("expr.parse"),
        "expr.format_s": outer_s("expr.format"),
        "algebras.validate_s": outer_s("algebras.validate"),
        "verify.sample_s": outer_s("verify.sample"),
        "verify.check_self_s": self_s("verify.check"),
        # the items' time with the wrappers' measured cost taken out; how far
        # it stays above the untraced wall_s is the error left in the above
        "trace.corrected_wall_s": outer_s("item"),
    }
