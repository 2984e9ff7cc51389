"""The straightening engine: bracket products expanded over a chosen basis.

Every Lie-type product in this package is computed by one rewriting loop.
For basis words u, v the product u*v is resolved by the first applicable
rule:

  1. equal operands give 0;
  2. if u < v, orient: u*v = -(v*u);
  3. a context letter rule may resolve a product of two letters directly
     (operator composition, a structure-constant table, a vanishing
     bracket of adjacent letters);
  4. if the root check `bracket_ok(u, v)` passes, [u,v] is a basis word
     and is the answer (both halves are basis words already, so only the
     root is checked);
  5. if u = [u1,u2] is a bracket, rewrite by the Jacobi identity:
     u*v = (u1*v)*u2 + u1*(u2*v);
  6. otherwise u is a letter and v = [v1,v2]; rewrite by the derivation
     form of Jacobi: u*v = (u*v1)*v2 + v1*(u*v2).

Rules 5 and 6 expand their two terms through the same bilinear loop as
`mult_comb`, with the single word as a one-term combination.

Rules 5 and 6 are identities in any Lie algebra, rule 3 encodes the
defining relations of the target, so the loop computes coordinates in
the basis selected by the context's membership test.  Since rule 4
checks only the root, the loop takes its operands for basis words: the
public `mult`, `mult_comb` and `apply_r` check every operand word and
raise ValueError on one that is not (R of a non-basis word is not a
basis word either), while `evaluate` takes any word and straightens it
through the unchecked internal `_mult_comb` and `_apply_r`, as the
letter rules do.

A context keeps one copy of each word it builds.  Its basis cache maps a
basis word to the context's own copy of it, the first equal word stored;
rule 4 stores the bracket it makes there and returns the stored copy,
and the operator goes through a per-context map from a basis word w to
the own copy of R(w), also stored in the basis cache.  So equal words
that the engine makes are one object: later lookups of them are
identity hits, and the memo does not hold a copy per product that made
one.

The basis is given by one recursive rule, `BasisContext.is_basis_word`:
a generator of the alphabet is a basis word; R(w) is one when the
context has an operator and w is one; [p,q] is one when p and q are and
the root check `bracket_ok(p, q)` passes.  The default check is the
Lyndon-Shirshov bracketing condition (the flattening of p is greater
than that of q, q is at least the right half of p when p is a bracket)
plus the partial-commutation condition (some letter of p is not
`adjacent` to the first letter of q).  Concatenating LS words p > q
gives an LS word, so the flattening of every basis word is LS without a
separate rotation test.  Membership, rule 4 and `enumerate_basis` all
use this one rule.  One bidegree table, `bidegree_words`, serves both
`enumerate_basis` (brackets passing `bracket_ok`) and
`verify.all_operator_words` (every bracket).

Termination is guarded by fuel.  Each call of `mult`, `mult_comb` or
`evaluate` gets one budget of `fuel_limit` rewriting steps (default one
million) and spends it on all the products the call makes: the whole
bilinear expansion of `mult_comb`'s operands, and every bracket node
that is not already a basis word in the expression `evaluate` is given
(a basis word evaluates to the context's own copy of itself, with no
product).  Only products computed afresh cost a step; memo hits are
free, so whether a call runs out of fuel depends on how much of its work
the memo already holds.  A product whose expansion needs itself raises a
cyclic FuelError.

Results are memoized per context; entries are pure values, so threads
may share one context: duplicate writes are idempotent, and the
in-progress products that the cycle guard tracks belong to each call's
own budget, so one thread never mistakes another's unfinished product
for a cycle.
"""

from __future__ import annotations

from .lincomb import LinComb
from .terms import Br, Gen, RApp, Word, atoms, compare_words, sort_words_descending, total_cmp

__all__ = ["FuelError", "BasisContext", "bidegree_words", "enumerate_basis"]


class FuelError(RuntimeError):
    """A product exceeded its rewriting budget or revisited itself."""

    def __init__(self, left, right, cyclic=False):
        what = "straightening cycled" if cyclic else "straightening fuel exhausted"
        super().__init__("%s while multiplying %s by %s" % (what, left, right))
        self.left = left
        self.right = right
        self.cyclic = cyclic


class _Fuel:
    """One call's step budget and the products it has in progress."""

    __slots__ = ("left", "active")

    def __init__(self, amount):
        self.left = amount
        self.active = set()


class BasisContext:
    """A basis to compute in: membership rule, letter rules, one memo table.

    Subclasses set `supports_operator` and may override the hooks
    `adjacent`, `letter_rule` and `bracket_ok`.  `corrupt_sign` is a test-only
    switch that flips one sign in rule 5 so harness failure paths can be
    exercised; set it before the first product (the memo is not
    invalidated) and never in real use.
    """

    supports_operator = False
    fuel_limit = 10 ** 6
    corrupt_sign = False

    def __init__(self, alphabet):
        self.alphabet = alphabet
        self._memo = {}
        # word -> the context's own copy of it, or False if it is not a basis word
        self._basis_cache = {}
        # basis word -> the own copy of R(word)
        self._r_of = {}

    # -- basis membership -------------------------------------------------

    def is_basis_word(self, w):
        own = self._basis_cache.get(w)
        if own is None:
            if isinstance(w, Gen):
                ok = w in self.alphabet
            elif isinstance(w, RApp):
                ok = self.supports_operator and self.is_basis_word(w.arg)
            else:
                ok = (self.is_basis_word(w.left) and self.is_basis_word(w.right)
                      and self.bracket_ok(w.left, w.right))
            # the first equal basis word stored is the context's own copy;
            # setdefault, so that threads agree on one
            own = self._basis_cache.setdefault(w, w if ok else False)
        return own is not False

    # -- hooks -------------------------------------------------------------

    def adjacent(self, a, b):
        """Commutation constraint between letters; no constraint by default."""
        return False

    def letter_rule(self, u, v, fuel):
        """Resolve a letter-letter product directly, or return None."""
        return None

    def bracket_ok(self, p, q):
        """Is [p,q] a basis word, given that p and q are?"""
        fp = atoms(p)
        fq = atoms(q)
        if compare_words(fp, fq) <= 0:
            return False
        if isinstance(p, Br) and compare_words(fq, atoms(p.right)) < 0:
            return False
        head = fq[0]
        return not all(self.adjacent(x, head) for x in fp)

    # -- products ----------------------------------------------------------

    def mult(self, u, v):
        """Product of two basis words as a combination over the basis.

        Rule 4 takes the operands for basis words, so each is checked
        first: ValueError names one that is not (`evaluate` takes any word).
        """
        self._check_operands((u, v))
        return self._mult(u, v, _Fuel(self.fuel_limit))

    def mult_comb(self, x, y):
        """Bilinear product of combinations of basis words (words accepted
        as singletons); like `mult`, it refuses a non-basis operand word."""
        x, y = self.as_comb(x), self.as_comb(y)
        self._check_operands((*x, *y))
        return self._mult_comb(x, y, _Fuel(self.fuel_limit))

    def _check_operands(self, words):
        for w in words:
            if not self.is_basis_word(w):
                raise ValueError("not a basis word of this context: %s" % (w,))

    def as_comb(self, x):
        if isinstance(x, LinComb):
            return x
        if isinstance(x, Word):
            return LinComb.single(x)
        raise TypeError("expected Word or LinComb, got %r" % (x,))

    def apply_r(self, x):
        """Wrap every word of x with the operator (basis words stay basis words).

        Like `mult`, it refuses a word of x that is not a basis word: R of
        one is not a basis word either.
        """
        if not self.supports_operator:
            raise ValueError("this basis has no operator")
        x = self.as_comb(x)
        self._check_operands(x)
        return self._apply_r(x)

    def _apply_r(self, x):
        out = LinComb()
        r_of = self._r_of
        for w, c in x.items():
            r = r_of.get(w)
            if r is None:
                r = RApp(w)
                r = r_of.setdefault(w, self._basis_cache.setdefault(r, r))
            # distinct words have distinct R-images, so no term adds to another
            out[r] = c
        return out

    def evaluate(self, x):
        """Interpret a raw word (or combination) in this basis.

        Brackets become products, operator nodes become the operator; the
        result is the canonical combination of basis words.  A basis word
        evaluates to the context's own copy of itself, with no product.
        One fuel budget covers the whole of x: it is spent on every bracket
        node that is not already a basis word.
        """
        return self._evaluate(x, _Fuel(self.fuel_limit))

    def _evaluate(self, x, fuel):
        if isinstance(x, LinComb):
            out = LinComb()
            for w, c in x.items():
                out.iadd_comb(self._evaluate(w, fuel), c)
            return out
        own = self._basis_cache.get(x)
        if own is None:
            self.is_basis_word(x)  # decides x and stores the answer
            own = self._basis_cache[x]
        if own is not False:
            # the own copy, so that results do not keep the parsed tree alive
            return LinComb.single(own)
        if isinstance(x, Gen):
            raise ValueError("generator %r not in this context" % x.name)
        if isinstance(x, RApp):
            arg = self._evaluate(x.arg, fuel)
            if not self.supports_operator:
                raise ValueError("this basis has no operator")
            return self._apply_r(arg)
        return self._mult_comb(self._evaluate(x.left, fuel), self._evaluate(x.right, fuel), fuel)

    # -- engine ------------------------------------------------------------

    def _mult_comb(self, x, y, fuel):
        out = LinComb()
        for wu, cu in x.items():
            for wv, cv in y.items():
                out.iadd_comb(self._mult(wu, wv, fuel), cu * cv)
        return out

    def _mult(self, u, v, fuel):
        key = (u, v)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if key in fuel.active:
            # the expansion of u*v needs u*v itself: no rewrite can close this
            raise FuelError(u, v, cyclic=True)
        fuel.left -= 1
        if fuel.left <= 0:
            raise FuelError(u, v)
        fuel.active.add(key)
        res = self._mult_steps(u, v, fuel)
        fuel.active.discard(key)
        self._memo[key] = res
        return res

    def _mult_steps(self, u, v, fuel):
        if u == v:
            return LinComb()
        if total_cmp(u, v) < 0:
            return -self._mult(v, u, fuel)
        if u.deg == 1 and v.deg == 1:
            direct = self.letter_rule(u, v, fuel)
            if direct is not None:
                return direct
        if self.bracket_ok(u, v):
            w = Br(u, v)
            return LinComb.single(self._basis_cache.setdefault(w, w))
        if isinstance(u, Br):
            first = self._mult_comb(self._mult(u.left, v, fuel), {u.right: 1}, fuel)
            second = self._mult_comb({u.left: 1}, self._mult(u.right, v, fuel), fuel)
            # first is fresh from _mult_comb, so the sum may be built in it
            return first.iadd_comb(second, -1 if self.corrupt_sign else 1)
        if isinstance(v, Br):
            first = self._mult_comb(self._mult(u, v.left, fuel), {v.right: 1}, fuel)
            second = self._mult_comb({v.left: 1}, self._mult(u, v.right, fuel), fuel)
            return first.iadd_comb(second)
        raise AssertionError(
            "no rule for letters %s, %s: incomplete context %r" % (u, v, self)
        )


def bidegree_words(alphabet, max_deg, max_rdeg, keep):
    """Words with xdeg <= max_deg and degr <= max_rdeg, bidegree by bidegree
    (r within n): the generators, then R of the words one degr lower, then
    the brackets [p,q] of smaller words, p's bidegree ascending, with keep(p, q)."""
    table = {}
    for n in range(1, max_deg + 1):
        for r in range(max_rdeg + 1):
            level = list(alphabet.gens()) if (n, r) == (1, 0) else []
            if r:
                level.extend(RApp(w) for w in table[(n, r - 1)])
            for i in range(1, n):
                for s in range(r + 1):
                    rights = table[(n - i, r - s)]
                    for p in table[(i, s)]:
                        level.extend(Br(p, q) for q in rights if keep(p, q))
            table[(n, r)] = level
    return [w for level in table.values() for w in level]


def enumerate_basis(ctx, max_deg, max_rdeg=0):
    """All basis words of ctx with xdeg <= max_deg and degr <= max_rdeg.

    The bound is on generator occurrences (xdeg), counted inside operator
    arguments too; bounding the letter count alone would leave infinitely
    many one-letter words R(z).  Words are built by `bidegree_words` from
    smaller basis words, keeping the brackets that pass `ctx.bracket_ok`.
    Returned greatest first.
    """
    if not ctx.supports_operator:
        max_rdeg = min(max_rdeg, 0)
    return sort_words_descending(bidegree_words(ctx.alphabet, max_deg, max_rdeg, ctx.bracket_ok))
