"""Bracketed words over an ordered alphabet extended by a unary operator R.

A word is a binary tree: leaves are generators, `R(...)` nodes wrap a
complete word, and `[u,v]` nodes pair two words.  An R-node counts as a
*single letter* of the extended alphabet, so `[[R(R(a)),b],[R(c),d]]` has
four letters (R(R(a)), b, R(c), d) and three R symbols overall.

Order convention, used everywhere downstream:

  * generators are declared in DECREASING order: the first declared name
    is the greatest letter (rank 0);
  * every generator is smaller than every R-letter;
  * two R-letters compare by comparing their argument words;
  * sequences of letters compare letterwise from the left, and a proper
    prefix is GREATER than any of its extensions ("a" > "ab").

The prefix rule is what makes "w greater than every rotation" a sensible
definition of a Lyndon-Shirshov word with the greatest letter in front.

Three size measures on a word w:

  * ``w.deg``  - number of letters of the extended alphabet (an R-node
    counts as one letter regardless of its contents);
  * ``w.degr`` - number of R symbols written anywhere in w;
  * ``w.xdeg`` - number of generator occurrences written anywhere in w,
    including inside R arguments.  This is the measure that keeps
    enumeration up to a bound finite: there are infinitely many words
    with deg 1 (every R(z) has deg 1) but only finitely many with
    bounded xdeg and degr.

A word stores only its parts.  Fixed sizes are class constants (a
generator is 1/0/1, an R-node has deg 1); the others are computed on each
read by one iterative walk, at any depth.  Only a bracket caches anything:
its flattening, on the first `atoms` call.

A word is a float whose value is its structural hash (the hash of its
kind and parts, cut to 53 bits so that the float holds it exactly).
That is the only reason for the base: each class sets
`__hash__ = float.__hash__`, so every memo, cache and combination lookup
hashes a word in C, without a Python call and without a table of words
that would keep them alive.  Equality stays structural (two words built
apart are equal when their trees are), and nothing else of float shows:

  * `<`, `<=`, `>`, `>=` (hence `sorted` without a key) and arithmetic
    raise TypeError, as does `Fraction(w)`; order words with
    `compare_words` or `total_cmp`;
  * `bool(w)` is True, whatever the value;
  * `copy`, `deepcopy` and `pickle` rebuild a word from its parts;
  * a word equals no int or float, even one of its own value.  A
    Fraction, complex or Decimal on the left of `==` reads the value of
    any float, so only there can a word compare equal to a number: to
    the one number, below 2**53, that is its hash.
"""

from __future__ import annotations

import re
from functools import cmp_to_key

__all__ = [
    "Word", "Gen", "RApp", "Br", "Alphabet",
    "atoms", "compare_words", "total_cmp", "sort_words_descending",
]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


# A word's float value: its structural hash, cut to 53 bits so that the
# float holds it exactly and float.__hash__ gives it back unchanged.  All
# of float(h) would round away h's low bits, and dicts index by low bits.
_HASH_MASK = (1 << 53) - 1


def _refuse(self, *args):
    raise TypeError("words have no order and no arithmetic")


class Word(float):
    """Base class; instances are immutable and hashable.

    Equality is structural; see the module docstring for why a word is
    a float and what of float it refuses.  Each subclass that defines
    `__eq__` sets `__hash__ = float.__hash__` again, because defining
    `__eq__` resets it.  The sizes are properties over `_sizes`, which
    the subclasses override with constants where a size is fixed.
    """

    __slots__ = ()

    deg = property(lambda self: _sizes(self)[0])
    degr = property(lambda self: _sizes(self)[1])
    xdeg = property(lambda self: _sizes(self)[2])

    __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _refuse
    __truediv__ = __rtruediv__ = __floordiv__ = __rfloordiv__ = _refuse
    __mod__ = __rmod__ = __divmod__ = __rdivmod__ = __pow__ = __rpow__ = _refuse
    __neg__ = __pos__ = __abs__ = as_integer_ratio = _refuse

    def __ne__(self, other):
        # float's own != would compare the hashes
        return not self == other

    def __bool__(self):
        return True

    def __repr__(self):
        return str(self)


class Gen(Word):
    """A generator letter.  Lower rank means greater letter (rank 0 is top)."""

    __slots__ = ("name", "rank")
    deg, degr, xdeg = 1, 0, 1

    def __new__(cls, name, rank):
        self = float.__new__(cls, hash(("g", name, rank)) & _HASH_MASK)
        self.name = name
        self.rank = rank
        return self

    def __getnewargs__(self):
        return (self.name, self.rank)

    def __eq__(self, other):
        if self is other:
            return True
        return type(other) is Gen and self.name == other.name and self.rank == other.rank

    __hash__ = float.__hash__

    def __str__(self):
        return self.name


class RApp(Word):
    """The operator applied to a word; a single letter of the extended alphabet."""

    __slots__ = ("arg",)
    deg = 1

    def __new__(cls, arg):
        if not isinstance(arg, Word):
            raise TypeError("R argument must be a Word")
        self = float.__new__(cls, hash(("R", arg)) & _HASH_MASK)
        self.arg = arg
        return self

    def __getnewargs__(self):
        return (self.arg,)

    def __eq__(self, other):
        if self is other:
            return True
        return (type(other) is RApp and hash(self) == hash(other)
                and (self.arg is other.arg or self.arg == other.arg))

    __hash__ = float.__hash__

    def __str__(self):
        return "R(%s)" % self.arg


class Br(Word):
    """A bracket of two words."""

    __slots__ = ("left", "right", "_atoms")

    def __new__(cls, left, right):
        if not isinstance(left, Word) or not isinstance(right, Word):
            raise TypeError("bracket halves must be Words")
        self = float.__new__(cls, hash(("b", left, right)) & _HASH_MASK)
        self.left = left
        self.right = right
        self._atoms = None
        return self

    def __getnewargs__(self):
        return (self.left, self.right)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            type(other) is Br
            and hash(self) == hash(other)
            and (self.left is other.left or self.left == other.left)
            and (self.right is other.right or self.right == other.right)
        )

    __hash__ = float.__hash__

    def __str__(self):
        return "[%s,%s]" % (self.left, self.right)


def _sizes(w):
    """(deg, degr, xdeg) of w, by one walk with an explicit stack."""
    deg = degr = xdeg = 0
    todo = [(w, 1)]  # a node, and 1 if its letters are letters of w
    while todo:
        w, top = todo.pop()
        if type(w) is Br:
            todo += ((w.left, top), (w.right, top))
        elif type(w) is RApp:
            deg, degr = deg + top, degr + 1
            todo.append((w.arg, 0))
        else:
            deg, xdeg = deg + top, xdeg + 1
    return deg, degr, xdeg


def atoms(w):
    """The flattening of w: a tuple of its letters (Gen and RApp nodes), left
    to right.  Only a bracket caches it; a letter gives a fresh `(w,)`.
    A missing one is built on an explicit stack, halves first, at any depth."""
    if isinstance(w, tuple):
        return w
    if type(w) is not Br:
        return (w,)
    got = w._atoms
    if got is None:
        todo = [w]
        while todo:
            x = todo[-1]
            left, right = x.left, x.right
            if type(left) is Br and left._atoms is None:
                todo.append(left)
            elif type(right) is Br and right._atoms is None:
                todo.append(right)
            else:
                x._atoms = atoms(left) + atoms(right)
                todo.pop()
        got = w._atoms
    return got


def compare_words(u, v):
    """Three-way comparison of word flattenings, letter by letter in the
    order the module docstring gives; a proper prefix is greater.

    Accepts Words or tuples of letters.  Distinct bracketings of the same
    letter sequence compare equal here; use total_cmp for a total order.
    """
    su = atoms(u)
    sv = atoms(v)
    for a, b in zip(su, sv):
        if isinstance(a, Gen):
            if not isinstance(b, Gen):
                return -1
            if a.rank != b.rank:
                return b.rank - a.rank
        elif isinstance(b, Gen):
            return 1
        else:
            c = compare_words(a.arg, b.arg)
            if c:
                return c
    if len(su) == len(sv):
        return 0
    return 1 if len(su) < len(sv) else -1


def total_cmp(u, v):
    """compare_words refined by a structural tie-break, total on all Words.

    The tie-break runs on equal flattenings, so u and v are two R-letters
    (compared by argument), two brackets (by halves), or two generators of
    equal rank, which it leaves equal.
    """
    c = compare_words(u, v)
    if c:
        return c
    if isinstance(u, RApp):
        return total_cmp(u.arg, v.arg)
    if isinstance(u, Br):
        return total_cmp(u.left, v.left) or total_cmp(u.right, v.right)
    return 0


def sort_words_descending(words):
    return sorted(words, key=cmp_to_key(total_cmp), reverse=True)


class Alphabet:
    """A finite ordered set of generator names, declared greatest first."""

    def __init__(self, names):
        names = tuple(names)
        if not names:
            raise ValueError("alphabet must declare at least one generator")
        seen = set()
        for n in names:
            if not _NAME_RE.match(n):
                raise ValueError("bad generator name %r" % (n,))
            if n == "R":
                raise ValueError("the name R is reserved for the operator")
            if n in seen:
                raise ValueError("duplicate generator name %r" % (n,))
            seen.add(n)
        self.names = names
        self._gens = {n: Gen(n, i) for i, n in enumerate(names)}

    @classmethod
    def from_spec(cls, spec):
        """Parse a comma-separated declaration like "a,b,c" (decreasing order)."""
        return cls([p.strip() for p in spec.split(",")])

    def gen(self, name):
        try:
            return self._gens[name]
        except KeyError:
            raise ValueError("unknown generator %r" % (name,)) from None

    def gens(self):
        """All generators, greatest first."""
        return tuple(self._gens[n] for n in self.names)

    def __contains__(self, name):
        if isinstance(name, Gen):
            return self._gens.get(name.name) == name
        return name in self._gens

    def __len__(self):
        return len(self.names)

    def __repr__(self):
        return "Alphabet(%s)" % (",".join(self.names))
