"""The straightening engine: bracket products expanded over a chosen basis.

Every Lie-type product in this package is computed by one rewriting loop.
For basis words u, v the product u*v is resolved by the first applicable
rule:

  1. equal operands give 0;
  2. if u < v, orient: u*v = -(v*u);
  3. a context letter rule may resolve a product of two letters directly
     (operator composition, a structure-constant table, a vanishing
     bracket of adjacent letters);
  4. if [u,v] is a basis word, that is the answer;
  5. if u = [u1,u2] is a bracket, rewrite by the Jacobi identity:
     u*v = (u1*v)*u2 + u1*(u2*v);
  6. otherwise u is a letter and v = [v1,v2]; rewrite by the derivation
     form of Jacobi: u*v = (u*v1)*v2 + v1*(u*v2).

Rules 5 and 6 are identities in any Lie algebra, rule 3 encodes the
defining relations of the target, so the loop computes coordinates in
the basis selected by the context's membership test.

Termination is guarded by fuel.  Each call of `mult` or `mult_comb` gets
one budget of `fuel_limit` rewriting steps (default one million), and
`mult_comb` spends that single budget on the whole bilinear expansion of
its operands, not one budget per pair of words; `evaluate` makes one
such call, with its own budget, per bracket node.  Only products computed
afresh cost a step; memo hits are free, so whether a product runs out of
fuel depends on how much of its expansion the memo already holds.  A
product whose expansion needs itself raises a cyclic FuelError.

Results are memoized per context; entries are pure values, so threads
may share one context: duplicate writes are idempotent, and the
in-progress products that the cycle guard tracks belong to each call's
own budget, so one thread never mistakes another's unfinished product
for a cycle.
"""

from __future__ import annotations

from .lincomb import LinComb
from .lyndon import is_assoc_ls, standard_bracketing
from .terms import Br, Gen, RApp, Word, sort_words_descending, total_cmp

__all__ = ["FuelError", "BasisContext", "enumerate_basis"]


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
    """A basis to compute in: membership test, letter rules, one memo table.

    Subclasses set `supports_operator`, override `_basis_check`, and may
    override `letter_rule` / `adjacent`.  `corrupt_sign` is a test-only
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
        self._basis_cache = {}

    # -- basis membership -------------------------------------------------

    def is_basis_word(self, w):
        cached = self._basis_cache.get(w)
        if cached is None:
            cached = self._basis_check(w)
            self._basis_cache[w] = cached
        return cached

    def _basis_check(self, w):
        raise NotImplementedError

    # -- hooks -------------------------------------------------------------

    def adjacent(self, a, b):
        """Commutation constraint between letters; no constraint by default."""
        return False

    def letter_rule(self, u, v, fuel):
        """Resolve a letter-letter product directly, or return None."""
        return None

    def interior_r_ok(self, argword):
        """May R(argword) occur as a letter inside a longer basis word?"""
        return True

    # -- products ----------------------------------------------------------

    def mult(self, u, v):
        """Product of two basis words as a combination over the basis."""
        return self._mult(u, v, _Fuel(self.fuel_limit))

    def mult_comb(self, x, y):
        """Bilinear product of combinations (words accepted as singletons)."""
        x = self.as_comb(x)
        y = self.as_comb(y)
        fuel = _Fuel(self.fuel_limit)
        out = LinComb()
        for wu, cu in x.items():
            for wv, cv in y.items():
                out.iadd_comb(self._mult(wu, wv, fuel), cu * cv)
        return out

    def as_comb(self, x):
        if isinstance(x, LinComb):
            return x
        if isinstance(x, Word):
            return LinComb.single(x)
        raise TypeError("expected Word or LinComb, got %r" % (x,))

    def apply_r(self, x):
        """Wrap every word of x with the operator (basis words stay basis words)."""
        if not self.supports_operator:
            raise ValueError("this basis has no operator")
        x = self.as_comb(x)
        out = LinComb()
        for w, c in x.items():
            out.iadd(RApp(w), c)
        return out

    def evaluate(self, x):
        """Interpret a raw word (or combination) in this basis.

        Brackets become products, operator nodes become the operator; the
        result is the canonical combination of basis words.  Basis words
        evaluate to themselves.
        """
        if isinstance(x, LinComb):
            out = LinComb()
            for w, c in x.items():
                out.iadd_comb(self.evaluate(w), c)
            return out
        if isinstance(x, Gen):
            if x.name not in self.alphabet:
                raise ValueError("generator %r not in this context" % x.name)
            return LinComb.single(x)
        if isinstance(x, RApp):
            return self.apply_r(self.evaluate(x.arg))
        return self.mult_comb(self.evaluate(x.left), self.evaluate(x.right))

    # -- engine ------------------------------------------------------------

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
        b = Br(u, v)
        if self.is_basis_word(b):
            return LinComb.single(b)
        if isinstance(u, Br):
            first = self._comb_times_word(self._mult(u.left, v, fuel), u.right, fuel)
            second = self._word_times_comb(u.left, self._mult(u.right, v, fuel), fuel)
            if self.corrupt_sign:
                return first - second
            return first + second
        if isinstance(v, Br):
            first = self._comb_times_word(self._mult(u, v.left, fuel), v.right, fuel)
            second = self._word_times_comb(v.left, self._mult(u, v.right, fuel), fuel)
            return first + second
        raise AssertionError(
            "no rule for letters %s, %s: incomplete context %r" % (u, v, self)
        )

    def _comb_times_word(self, comb, w, fuel):
        out = LinComb()
        for t, c in comb.items():
            out.iadd_comb(self._mult(t, w, fuel), c)
        return out

    def _word_times_comb(self, w, comb, fuel):
        out = LinComb()
        for t, c in comb.items():
            out.iadd_comb(self._mult(w, t, fuel), c)
        return out


def enumerate_basis(ctx, max_deg, max_rdeg=0):
    """All basis words of ctx with xdeg <= max_deg and degr <= max_rdeg.

    The bound is on generator occurrences (xdeg), counted inside operator
    arguments too; bounding the letter count alone would leave infinitely
    many one-letter words R(z).  Returned greatest first.
    """
    if max_deg < 1:
        return []
    found = set()
    for g in ctx.alphabet.gens():
        if ctx.is_basis_word(g):
            found.add(g)
    while True:
        before = len(found)
        if ctx.supports_operator and max_rdeg > 0:
            for w in list(found):
                if w.degr + 1 <= max_rdeg:
                    rw = RApp(w)
                    if rw not in found and ctx.is_basis_word(rw):
                        found.add(rw)
        letters = [g for g in ctx.alphabet.gens()]
        if ctx.supports_operator and max_rdeg > 0:
            for w in sort_words_descending(found):
                if w.degr + 1 <= max_rdeg and ctx.interior_r_ok(w):
                    letters.append(RApp(w))
        letters = sort_words_descending(letters)
        for seq in _ls_sequences(letters, max_deg, max_rdeg):
            word = standard_bracketing(seq)
            if word not in found and ctx.is_basis_word(word):
                found.add(word)
        if len(found) == before:
            break
    return sort_words_descending(found)


def _ls_sequences(letters, max_x, max_r):
    """Associative LS letter sequences of length >= 2 within the budgets.

    Letters must be sorted descending.  The first letter of an associative
    LS word is its greatest letter, which prunes the search.
    """
    for i, first in enumerate(letters):
        if first.xdeg >= max_x:
            continue
        allowed = letters[i:]
        yield from _extend((first,), first.xdeg, first.degr, allowed, max_x, max_r)


def _extend(seq, used_x, used_r, allowed, max_x, max_r):
    for letter in allowed:
        nx = used_x + letter.xdeg
        nr = used_r + letter.degr
        if nx > max_x or nr > max_r:
            continue
        longer = seq + (letter,)
        if is_assoc_ls(longer):
            yield longer
        yield from _extend(longer, nx, nr, allowed, max_x, max_r)
