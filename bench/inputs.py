"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` built from the workload seed and
returns plain data (names, edge lists, rational factors, expression
texts), so the program under test only ever sees generated inputs.  This
module does not import rblie: input generation is kept out of the timed
set-up.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Numerators and denominators of the diagonal rescaling factors.  Small
# primes keep the rescaled constants short but genuinely non-integral.
_NUMERATORS = (1, 2, 3, 5, 7)
_DENOMINATORS = (1, 2, 3, 4, 5)


def rng_for(seed, *labels):
    """An independent, reproducible stream for one use of one seed."""
    return random.Random("/".join(str(x) for x in (seed,) + labels))


def commutation_edges(rng, names, count):
    """`count` distinct undirected edges over `names`, as name pairs."""
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    if count > len(pairs):
        raise ValueError("%d edges asked for, %d possible" % (count, len(pairs)))
    return sorted(rng.sample(pairs, count))


def diagonal_factors(rng, n):
    """n nonzero rational factors, at least one of them not an integer."""
    while True:
        out = []
        for _ in range(n):
            f = Fraction(rng.choice(_NUMERATORS), rng.choice(_DENOMINATORS))
            out.append(-f if rng.random() < 0.5 else f)
        if any(f.denominator != 1 for f in out):
            return out


def rescale_table(table, factors):
    """Structure constants after the change of basis e_i' = factors[i] * e_i.

    `table` maps (a, b) name pairs to {name: coefficient}; `factors` maps
    names to their factor.  In the new basis
    e_a' * e_b' = sum_c (l_a * l_b / l_c) * coeff_c * e_c',
    so the result is isomorphic to the input algebra.
    """
    out = {}
    for (a, b), entry in table.items():
        out[(a, b)] = {
            c: Fraction(coeff) * factors[a] * factors[b] / factors[c]
            for c, coeff in entry.items()
        }
    return out


def _coefficient_text(rng):
    c = Fraction(rng.choice(_NUMERATORS), rng.choice(_DENOMINATORS))
    return str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)


def query_pool(rng, strata, size):
    """`size` operand texts for `mul`-style queries.

    `strata` groups word texts by shape (the workload uses bidegree and
    basis/raw).  Entries alternate between a single word and a two-term
    rational combination, and their words walk through the strata in
    turn, so every seed's pool has the same make-up and only the words
    drawn within each stratum change; that keeps the work of a pool
    steady from seed to seed.
    """
    turn = 0

    def word():
        nonlocal turn
        stratum = strata[turn % len(strata)]
        turn += 1
        return rng.choice(stratum)

    pool = []
    for k in range(size):
        if k % 2 == 0:
            pool.append(word())
        else:
            sign = "-" if rng.random() < 0.5 else "+"
            pool.append("%s*%s %s %s*%s" % (
                _coefficient_text(rng), word(), sign, _coefficient_text(rng), word()))
    return pool


def queries(rng, pools, count):
    """`count` (table index, left text, right text) triples drawn with repetition."""
    out = []
    for _ in range(count):
        t = rng.randrange(len(pools))
        out.append((t, rng.choice(pools[t]), rng.choice(pools[t])))
    return out


def example_cycle(rng, examples, rounds):
    """`rounds` passes over the examples, each in its own seeded order."""
    out = []
    for _ in range(rounds):
        order = list(examples)
        rng.shuffle(order)
        out.extend(order)
    return out
