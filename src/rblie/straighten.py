"""The straightening engine: bracket products expanded over a chosen basis.

Every Lie-type product in this package is computed by one rewriting loop.
For basis words u, v the product u*v is resolved by the first applicable
rule:

  1. operands with equal flattenings are one word and give 0: a basis
     word's flattening is a Lyndon-Shirshov word, which has exactly one
     standard bracketing, and R-letters compare by their arguments' ones;
  2. if u < v by flattening, orient: u*v = -(v*u);
  3. a context letter rule may resolve a product of two letters directly
     (operator composition, a structure-constant table, a vanishing
     bracket of adjacent letters); "two letters" is a type test, neither
     operand a bracket;
  4. if the root check `bracket_ok(u, v)` passes, [u,v] is a basis word
     and is the answer (both halves are basis words already, so only the
     root is checked);
  5. if u = [u1,u2] is a bracket, rewrite by the Jacobi identity:
     u*v = (u1*v)*u2 + u1*(u2*v);
  6. otherwise u is a letter and v = [v1,v2]; rewrite by the derivation
     form of Jacobi: u*v = (u*v1)*v2 + v1*(u*v2).

Rules 5 and 6 expand their two terms through the same bilinear loop as
`mult_comb`, with the single word as a one-term combination.  Rule 2
computes and memoizes v*u, and the memo entry of u*v is a marker that
its readers take as -(v*u), folding the sign into the coefficient or
into the one-term operand.

Rules 5 and 6 are identities in any Lie algebra, rule 3 encodes the
defining relations of the target, so the loop computes coordinates in
the basis selected by the context's membership test.  Since rule 4
checks only the root, the loop takes its operands for basis words.
Products have one checked entry, `mult_comb` (`mult` is the same
method): like `apply_r`, it raises ValueError on an operand word that is
not a basis word (R of one is not a basis word either), while `evaluate`
takes any word and straightens it through the unchecked internal
`_mult_comb` and `_apply_r`, as the letter rules do.

A context keeps one copy of each word it builds.  Its basis cache maps a
basis word to the context's own copy of it, the first equal word stored;
rule 4 stores the bracket it makes there, and the operator goes through
a per-context map from a basis word w to the own copy of R(w), also
stored in the basis cache.  So equal words that the engine makes are
one object, and later lookups of them are identity hits.

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

Termination is guarded by fuel.  Each call of `mult_comb` or
`evaluate` gets one budget of `fuel_limit` rewriting steps (default one
million) and spends it on all the products the call makes: the whole
bilinear expansion of `mult_comb`'s operands, and every bracket node
that is not already a basis word in the expression `evaluate` is given
(a basis word evaluates to the context's own copy of itself, with no
product).  A budget of N pays for N products computed afresh, each one
new memo entry; memo hits are free, so whether a call runs out of fuel
depends on how much of its work the memo already holds.  A product
whose expansion needs itself raises a cyclic FuelError.

Results are memoized per context.  A memo value is what the rule
returned: rule 4's own copy of the basis word [u,v], rule 2's marker
when u < v, or the combination another rule built.  The engine reads a
word as its one-term combination, and the marker as -(v*u), from the
entry (v, u) that rule 2 stores before the marker.  Since u*v has an
entry of its own, its first computation spends one step of fuel and a
repeat is a free hit, as for any product.  Every public result is a new
combination that its caller owns, never a memo value, so no value is
edited once stored and threads may share one context: duplicate writes
are idempotent, and the cycle guard's in-progress products belong to
each call's own budget, so one thread never mistakes another's for a
cycle.
"""

from __future__ import annotations

from .lincomb import LinComb
from .terms import Br, Gen, RApp, Word, atoms, compare_words, sort_words_descending

__all__ = ["FuelError", "BasisContext", "bidegree_words", "enumerate_basis"]

# rule 2's memo value for u*v with u < v: it reads as -(v*u), the (v, u) entry
_REVERSED = object()


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

    Its defaults are the free Lie algebra and its Lyndon-Shirshov basis: no
    operator, no commuting letters and no letter rule.  Subclasses set
    `supports_operator` and may override the hooks `adjacent`,
    `letter_rule` and `bracket_ok`.  `corrupt_sign` is a test-only
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

    def mult_comb(self, x, y):
        """Bilinear product of combinations of basis words, a word standing
        for its one-term combination, as a new combination the caller owns.
        ValueError names an operand word that is not a basis word."""
        x, y = self._operand(x), self._operand(y)
        return self._mult_comb(x, y, _Fuel(self.fuel_limit))

    mult = mult_comb

    def _operand(self, x):
        """The operand gate: x as a combination of basis words of this context."""
        if isinstance(x, Word):
            x = LinComb.single(x)
        elif not isinstance(x, LinComb):
            raise TypeError("expected Word or LinComb, got %r" % (x,))
        for w in x:
            if not isinstance(w, Word):
                raise TypeError("expected a combination of Words, got key %r" % (w,))
            if not self.is_basis_word(w):
                raise ValueError("not a basis word of this context: %s" % (w,))
        return x

    def apply_r(self, x):
        """Wrap every word of x with the operator (basis words stay basis words).

        Like `mult`, it refuses a word of x that is not a basis word: R of
        one is not a basis word either.
        """
        if not self.supports_operator:
            raise ValueError("this basis has no operator")
        return self._apply_r(self._operand(x))

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
                hit = self._mult(wu, wv, fuel)
                c = cu * cv
                if hit is _REVERSED:
                    hit = self._memo[wv, wu]
                    c = -c
                (out.iadd if isinstance(hit, Word) else out.iadd_comb)(hit, c)
        return out

    def _mult_as_comb(self, u, v, fuel):
        """u*v as (comb, sign) with u*v = sign * comb: a combination to read,
        a word answer as {word: 1}, and rule 2's answer as -(v*u)."""
        hit = self._mult(u, v, fuel)
        sign = 1
        if hit is _REVERSED:
            hit = self._memo[v, u]
            sign = -1
        return ({hit: 1} if isinstance(hit, Word) else hit), sign

    def _mult(self, u, v, fuel):
        key = (u, v)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if key in fuel.active:
            # the expansion of u*v needs u*v itself: no rewrite can close this
            raise FuelError(u, v, cyclic=True)
        if fuel.left <= 0:
            raise FuelError(u, v)
        fuel.left -= 1
        fuel.active.add(key)
        res = self._mult_steps(u, v, fuel)
        fuel.active.discard(key)
        self._memo[key] = res
        return res

    def _mult_steps(self, u, v, fuel):
        c = compare_words(u, v)
        if not c:
            return LinComb()
        if c < 0:
            # v*u is memoized first, so the readers find it under (v, u)
            self._mult(v, u, fuel)
            return _REVERSED
        if not isinstance(u, Br) and not isinstance(v, Br):
            direct = self.letter_rule(u, v, fuel)
            if direct is not None:
                return direct
        if self.bracket_ok(u, v):
            w = Br(u, v)
            return self._basis_cache.setdefault(w, w)
        # the sign of an inner product goes into the one-term operand
        if isinstance(u, Br):
            inner, sign = self._mult_as_comb(u.left, v, fuel)
            first = self._mult_comb(inner, {u.right: sign}, fuel)
            inner, sign = self._mult_as_comb(u.right, v, fuel)
            second = self._mult_comb({u.left: sign}, inner, fuel)
            # first is fresh from _mult_comb, so the sum may be built in it
            return first.iadd_comb(second, -1 if self.corrupt_sign else 1)
        if isinstance(v, Br):
            inner, sign = self._mult_as_comb(u, v.left, fuel)
            first = self._mult_comb(inner, {v.right: sign}, fuel)
            inner, sign = self._mult_as_comb(u, v.right, fuel)
            second = self._mult_comb({v.left: sign}, inner, fuel)
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
