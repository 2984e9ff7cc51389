"""The four benchmark workloads.

Each workload is a function `(seed, index, tracer, untimed, corrupt)` that
builds its contexts and returns a `Plan`: the items of one pass, in
order, and a check run on their outputs after the timed loop.  It runs
in a fresh worker process right after `import rblie`, and everything it
does counts as set-up time except what runs inside `untimed`, which is
the benchmark's own generation of inputs.

An item is a callable returning `(ok, output)`; `ok` is the item's own
verdict.  `Plan.check(outputs)` returns the indices of items that a
later oracle rejects.  An output is None when its item raised.

`index` numbers the passes of one run.  derived-free and basis-enum
order their items afresh for every pass (the collector's pauses land on
other items), so a run's median covers several orders of the seed's
inputs; env-queries and cli-readme repeat one seeded stream.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SO3 = ROOT / "demos" / "algebras" / "so3_post.alg"
EXPECTED = BENCH / "expected.json"

# Items per pass, sized so that a pass takes a few seconds.  derived-free's
# slowest items are the first weight-1 triples of a pass's order (they
# write the memo the later ones read), so its tail depends on the orders a
# run samples; passes of 16 triples (about 2.8 s) give a 25 s run nine
# orders where passes of 32 gave five.
DERIVED_TRIPLES = {0: 12, 1: 4}
# derived-free checks one fixed set of triples, drawn by `sample_basis`
# with this seed; the workload seed orders them.  Drawn afresh for every
# seed, the memo a pass of 32 triples wrote ranged from 34k to 97k entries
# (IQR half the median), because a triple's cost ranges from 30 ms to 2 s; no bound
# a later change could be held to survives that spread.
DERIVED_DESIGN_SEED = 1
QUERY_COUNT = 12000
SPOT_CHECKS = 100
# Operand texts per table.  Measured over 12000 queries (seeds 1-5): a pool
# of 24 leaves a 2.6k-entry memo and 95% of top-level products hitting it,
# so the engine does almost nothing; 150 writes 17-18k entries while 67-70%
# of products still hit, and 300 writes 22k with 63% hits.  Even operands
# that never repeat write only about 4 entries per query, so a memo of 12
# entries per query cannot be reached with operands of this size.
POOL_SIZE = 150
CLI_ROUNDS = 2


@dataclass
class Plan:
    items: list
    check: Callable = lambda outputs: ()
    # per-layer totals gathered outside this process (the CLI children)
    layer_totals: Callable | None = None


def load_expected():
    with open(EXPECTED, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _prepare(ctx, tracer, corrupt):
    if corrupt:
        ctx.corrupt_sign = True
    if tracer is not None:
        tracer.instrument(ctx)
    return ctx


# -- derived-free -------------------------------------------------------------


def derived_free(seed, index, tracer, untimed, corrupt):
    """The derived pre-/post-Lie law on free operator algebras over a,b.

    One item is one sampled triple; weight 0 (derived-pre) first, then
    weight 1 (derived-post), each on a context with a cold memo.  Every
    pass checks the same triples in its own seeded order, so which items
    pay for the cold memo changes from pass to pass.
    """
    from rblie import free_rb, terms, verify

    alphabet = terms.Alphabet(("a", "b"))
    rng = inputs.rng_for(seed, "derived-free", index)
    items = []
    for weight, count in DERIVED_TRIPLES.items():
        ctx = _prepare(free_rb.FreeRBContext(alphabet, weight=weight), tracer, corrupt)
        triples = verify.sample_basis(ctx, 3, 2, DERIVED_DESIGN_SEED + weight, count, 3)
        with untimed:
            rng.shuffle(triples)
        for triple in triples:
            items.append(lambda ctx=ctx, triple=triple: (
                verify.check_derived(ctx, [triple]).passed, None))
    return Plan(items)


# -- basis-enum ---------------------------------------------------------------


def basis_enum(seed, index, tracer, untimed, corrupt):
    """Builder against filter on fresh contexts; no products are made.

    Every context spec yields a build item (`enumerate_basis`) and a filter
    item (`is_basis_word` over every operator word), each on its own fresh
    context, so the filter never reads the builder's cache.
    """
    from rblie import algebras, enveloping, free_rb, pcls, straighten, terms, verify

    so3 = algebras.load_algebra(SO3)
    flat = algebras.abelianize(so3)

    def free_lie(names):
        return lambda: pcls.LSContext(terms.Alphabet(names))

    def graph_context(names, edges):
        return lambda: pcls.PCLSContext(terms.Alphabet(names), pcls.CommGraph(names, edges))

    with untimed:
        rng = inputs.rng_for(seed, "basis-enum")
        specs = [
            ("ls", free_lie("abc"), 6, 0),
            ("ls", free_lie("abcd"), 5, 0),
            ("pcls", graph_context("abc", inputs.commutation_edges(rng, "abc", 1)), 6, 0),
            ("pcls", graph_context("abcd", inputs.commutation_edges(rng, "abcd", 2)), 5, 0),
            ("free-rb", lambda: free_rb.FreeRBContext(terms.Alphabet("ab")), 4, 3),
            ("free-rb", lambda: free_rb.FreeRBContext(terms.Alphabet("ab")), 5, 3),
            ("env", lambda: enveloping.EnvContext(so3), 4, 3),
            ("env-flat", lambda: enveloping.EnvContext(flat), 4, 3),
        ]
        order = [(s, kind) for s in range(len(specs)) for kind in ("build", "filter")]
        inputs.rng_for(seed, "basis-enum", index).shuffle(order)

    def build(make, max_deg, max_rdeg):
        ctx = _prepare(make(), tracer, corrupt)
        return True, set(straighten.enumerate_basis(ctx, max_deg, max_rdeg))

    def filter_(make, max_deg, max_rdeg):
        ctx = _prepare(make(), tracer, corrupt)
        words = verify.all_operator_words(ctx.alphabet, max_deg, max_rdeg)
        return True, {w for w in words if ctx.is_basis_word(w)}

    items = []
    for s, kind in order:
        _, make, max_deg, max_rdeg = specs[s]
        items.append(lambda fn=(build if kind == "build" else filter_), make=make,
                     d=max_deg, r=max_rdeg: fn(make, d, r))

    def check(outputs):
        found = {}
        for i, (s, kind) in enumerate(order):
            found[s, kind] = (i, outputs[i])
        bad = set()
        for s, (label, make, max_deg, _) in enumerate(specs):
            (bi, built), (fi, filtered) = found[s, "build"], found[s, "filter"]
            if built is None or filtered is None or built != filtered:
                bad.update((bi, fi))
            elif label == "ls":
                k = len(make().alphabet)
                per_deg = Counter(w.deg for w in built)
                if any(per_deg[n] != verify.witt_count(k, n) for n in range(1, max_deg + 1)):
                    bad.update((bi, fi))
        # the enveloping basis counts are blind to the structure constants
        (i, env), (j, flat_env) = (found[s, "build"] for s, spec in enumerate(specs)
                                   if spec[0].startswith("env"))
        if env is None or flat_env is None or bidegrees(env) != bidegrees(flat_env):
            bad.update((i, j))
        return bad

    return Plan(items, check)


def bidegrees(words):
    return Counter((w.xdeg, w.degr) for w in words)


def strata(words):
    """Word texts grouped by bidegree, in a fixed order."""
    groups = {}
    for w in words:
        groups.setdefault((w.xdeg, w.degr), []).append(str(w))
    return [groups[key] for key in sorted(groups)]


# -- env-queries --------------------------------------------------------------


def _scale_of(word, factors):
    """Product of the rescaling factors of every generator occurrence in word."""
    from rblie.terms import Br, Gen, RApp

    if isinstance(word, Gen):
        return factors[word.name]
    if isinstance(word, RApp):
        return _scale_of(word.arg, factors)
    assert isinstance(word, Br)
    return _scale_of(word.left, factors) * _scale_of(word.right, factors)


def env_queries(seed, index, tracer, untimed, corrupt):
    """`rblie mul`-style text queries against two rescaled enveloping tables."""
    from rblie import algebras, enveloping, expr, lincomb, straighten, verify

    tables = [algebras.load_algebra(SO3), algebras.derivation_prelie_example(2, 2)]
    with untimed:
        rng = inputs.rng_for(seed, "env-queries")
        factors = [dict(zip(a.names, inputs.diagonal_factors(rng, a.dim))) for a in tables]
        scaled = [
            algebras.StructureAlgebra(a.names, a.kind, dot=inputs.rescale_table(a.dot, f),
                                      bracket=inputs.rescale_table(a.bracket, f))
            for a, f in zip(tables, factors)
        ]
    ctxs = [_prepare(enveloping.EnvContext(a), tracer, corrupt) for a in scaled]
    basis = [straighten.enumerate_basis(ctx, 3, 2) for ctx in ctxs]
    with untimed:
        pools = [
            inputs.query_pool(rng, strata(words) + strata(
                verify.all_operator_words(ctx.alphabet, 2, 1)), POOL_SIZE)
            for ctx, words in zip(ctxs, basis)
        ]
        stream = inputs.queries(rng, pools, QUERY_COUNT)
        spot = sorted(rng.sample(range(QUERY_COUNT), SPOT_CHECKS))

    def query(t, left, right):
        ctx = ctxs[t]
        x = ctx.evaluate(expr.parse_expr(left, ctx.alphabet))
        y = ctx.evaluate(expr.parse_expr(right, ctx.alphabet))
        out = ctx.mult_comb(x, y)
        return True, (expr.format_lincomb(out), x, y, out)

    items = [lambda q=q: query(*q) for q in stream]

    def check(outputs):
        bad = {i for i, out in enumerate(outputs) if out is None}
        digest = stream_digest(out[0] if out else "" for out in outputs)
        recorded = load_expected()["env_queries_digest"].get(str(seed))
        if recorded is not None and recorded != digest:
            # the digest covers the whole stream, so no single item is to blame
            return set(range(len(outputs)))
        # Spot checks that hold for every seed: anticommutativity, the text
        # round trip, and the isomorphism back to the unscaled table.
        refs = [enveloping.EnvContext(a) for a in tables]
        for i in spot:
            if outputs[i] is None:
                continue
            text, x, y, out = outputs[i]
            t = stream[i][0]
            ctx, ref, f = ctxs[t], refs[t], factors[t]

            def unscale(comb):
                return lincomb.LinComb((w, c * _scale_of(w, f)) for w, c in comb.items())

            if (ctx.mult_comb(y, x) != -out
                    or expr.parse_expr(text, ctx.alphabet) != out
                    or unscale(out) != ref.mult_comb(unscale(x), unscale(y))):
                bad.add(i)
        return bad

    return Plan(items, check)


def stream_digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8") + b"\n")
    return h.hexdigest()


# -- cli-readme ---------------------------------------------------------------


def cli_command(argv, tracer=None, trace_file=None):
    """The interpreter command line for one rblie invocation.

    With a tracer, the call runs under bench/cli_child.py, which traces
    the same `rblie.cli.main` with the tracer's calibrated costs and
    writes its layer totals to `trace_file`.
    """
    if tracer is None:
        return [sys.executable, "-m", "rblie.cli"] + list(argv)
    return [sys.executable, str(BENCH / "cli_child.py"), str(trace_file),
            json.dumps(tracer.costs)] + list(argv)


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_readme(seed, index, tracer, untimed, corrupt):
    """The README's rblie examples, each in a child interpreter, cycled."""
    import rblie.cli  # noqa: F401  (set-up here is the import a CLI call pays)

    from spans import merge_raw

    with untimed:
        rng = inputs.rng_for(seed, "cli-readme")
        cycle = inputs.example_cycle(rng, load_expected()["readme_examples"], CLI_ROUNDS)
        env = cli_env()
    dumps = []

    def call(example, n):
        argv = list(example["argv"])
        if corrupt and argv[0] == "verify":
            argv.append("--corrupt-rule")
        dump = None
        if tracer is not None:
            OUT.mkdir(exist_ok=True)
            dump = OUT / ("cli-child-%d-%d.json" % (os.getpid(), n))
            dumps.append(dump)
        proc = subprocess.run(cli_command(argv, tracer, dump), cwd=ROOT, env=env,
                              capture_output=True, timeout=120)
        ok = (proc.returncode == example["exit"]
              and proc.stdout == example["stdout"].encode("utf-8"))
        return ok, None

    def child_totals():
        parts = []
        for dump in dumps:
            if dump.exists():
                with open(dump, "r", encoding="utf-8") as fh:
                    parts.append(json.load(fh))
                dump.unlink()
        return merge_raw(parts)

    items = [lambda e=e, n=n: call(e, n) for n, e in enumerate(cycle)]
    return Plan(items, layer_totals=child_totals if tracer is not None else None)


WORKLOADS = {
    "derived-free": derived_free,
    "basis-enum": basis_enum,
    "env-queries": env_queries,
    "cli-readme": cli_readme,
}
