"""Finite-dimensional algebras given by structure constants, and their laws.

A StructureAlgebra is a basis (names declared in decreasing order), a
kind tag, and sparse tables:

  * kind "pre":  a bilinear product x.y satisfying the left pre-Lie law
      (x.y).z - x.(y.z) = (y.x).z - y.(x.z);
  * kind "post": a product x.y and a Lie bracket [x,y] satisfying
      (x.y).z - x.(y.z) - (y.x).z + y.(x.z) = [y,x].z   and
      x.[y,z] = [x.y, z] + [y, x.z];
  * kind "lie":  a Lie bracket alone.

Validators check the defining laws exhaustively over basis pairs and
triples and report every violating tuple.  The `*_residue` helpers
evaluate one law on one tuple of elements for any product passed in
(and, for `rb_residue`, an operator and its weight); the validators here
and the context checks in `verify` share them.  `Report.over` is the one
loop that builds a case-by-case report: the validators here and the
checks in `verify` hand it their cases and a function from one case to
its witness texts.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct

from .expr import format_lincomb, numbered_line, parse_expr
from .lincomb import LinComb
from .terms import Alphabet, Gen

__all__ = [
    "Report", "StructureAlgebra", "check_lie", "check_pre_lie", "check_post_lie",
    "abelianize", "derivation_prelie_example",
    "pre_lie_residue", "jacobi_residue", "post_lie_residues", "rb_residue",
    "parse_algebra_text", "load_algebra", "format_algebra",
]

KINDS = ("pre", "post", "lie")


class Report:
    """Outcome of one property check.  `rows` maps each bidegree to its
    count for a check that counts words by bidegree, and is empty otherwise."""

    def __init__(self, name):
        self.name = name
        self.checked = 0
        self.violations = []
        self.rows = {}

    @property
    def passed(self):
        return not self.violations

    def line(self):
        if self.passed:
            return "PASS %s checked=%d" % (self.name, self.checked)
        return "FAIL %s checked=%d witness=%s" % (self.name, self.checked, self.violations[0])

    @classmethod
    def over(cls, name, cases, violations):
        """The one report loop: each case counts once and adds the witness
        texts `violations(*case)` returns, none when the case passes."""
        report = cls(name)
        for case in cases:
            report.checked += 1
            report.violations.extend(violations(*case))
        return report

    def merge(self, other):
        self.checked += other.checked
        self.violations.extend(other.violations)
        return self


class StructureAlgebra:

    def __init__(self, names, kind, dot=None, bracket=None):
        if kind not in KINDS:
            raise ValueError("kind must be one of %s" % (KINDS,))
        self.alphabet = Alphabet(names)
        self.names = self.alphabet.names
        self.kind = kind
        self.dot, self.bracket = {}, {}
        for table, entries in (("dot", dot), ("bracket", bracket)):
            for (a, b), comb in (entries or {}).items():
                self._add_entry(table, a, b, comb)

    def _add_entry(self, table, a, b, comb):
        """Store `comb`, a map from basis names to coefficients, as the entry
        of (a, b) in `table` ("dot" or "bracket"); a zero entry is dropped."""
        for name in (a, b, *comb):
            if name not in self.alphabet:
                raise ValueError("unknown basis element %r" % (name,))
        entry = LinComb()
        for name, coeff in comb.items():
            entry.iadd(name, coeff)
        if entry and (self.kind, table) in (("pre", "bracket"), ("lie", "dot")):
            raise ValueError("a %s table has no %s entries"
                             % ("pre-Lie" if self.kind == "pre" else "Lie", table))
        if entry:
            getattr(self, table)[(a, b)] = entry

    @property
    def dim(self):
        return len(self.names)

    def _table_comb(self, table, x, y):
        out = LinComb()
        for a, ca in x.items():
            for b, cb in y.items():
                entry = table.get((a, b))
                if entry:
                    out.iadd_comb(entry, ca * cb)
        return out

    def dot_comb(self, x, y):
        return self._table_comb(self.dot, x, y)

    def bracket_comb(self, x, y):
        return self._table_comb(self.bracket, x, y)

    def validate(self):
        if self.kind == "pre":
            return check_pre_lie(self)
        if self.kind == "post":
            return check_post_lie(self)
        return check_lie(self)

    def __eq__(self, other):
        return (
            isinstance(other, StructureAlgebra)
            and self.names == other.names
            and self.kind == other.kind
            and self.dot == other.dot
            and self.bracket == other.bracket
        )


def pre_lie_residue(dot, x, y, z):
    """Left-hand minus right-hand side of the pre-Lie law; zero iff it holds."""
    lhs = dot(dot(x, y), z) - dot(x, dot(y, z))
    rhs = dot(dot(y, x), z) - dot(y, dot(x, z))
    return lhs - rhs


def jacobi_residue(bracket, x, y, z):
    return (bracket(bracket(x, y), z) + bracket(bracket(y, z), x)
            + bracket(bracket(z, x), y))


def post_lie_residues(dot, bracket, x, y, z):
    """Residues of the two post-Lie laws, as a pair of combinations."""
    first = pre_lie_residue(dot, x, y, z) - dot(bracket(y, x), z)
    second = dot(x, bracket(y, z)) - bracket(dot(x, y), z) - bracket(y, dot(x, z))
    return first, second


def rb_residue(mult, operator, weight, x, y):
    """[R(x),R(y)] - R([R(x),y] + [x,R(y)] + weight*[x,y]); zero iff the
    Rota-Baxter identity holds on (x, y)."""
    rx = operator(x)
    ry = operator(y)
    inner = mult(rx, y) + mult(x, ry)
    if weight:
        inner.iadd_comb(mult(x, y), weight)
    return mult(rx, ry) - operator(inner)


def _table_law(algebra, law, arity, residues):
    """Report `law` over every `arity`-tuple of basis names.

    `residues(*vectors)` gives (label, residue) pairs for one tuple; each
    nonzero residue is a witness "label=(names) residue=...".
    """
    vecs = {n: LinComb.single(n) for n in algebra.names}
    order = algebra.names.index

    def violations(*names):
        return ["%s=(%s) residue=%s" % (label, ",".join(names), format_lincomb(r, order))
                for label, r in residues(*(vecs[n] for n in names)) if r]

    name = "%s(%s)" % (law, ",".join(algebra.names))
    return Report.over(name, iproduct(algebra.names, repeat=arity), violations)


def check_pre_lie(algebra):
    dot = algebra.dot_comb
    return _table_law(algebra, "pre-lie", 3,
                      lambda x, y, z: [("triple", pre_lie_residue(dot, x, y, z))])


def _lie_laws(algebra, law):
    """Antisymmetry on pairs, then Jacobi on triples, of the bracket table."""
    br = algebra.bracket_comb
    report = _table_law(algebra, law, 2, lambda x, y: [("pair", br(x, y) + br(y, x))])
    return report.merge(_table_law(algebra, law, 3,
                                   lambda x, y, z: [("triple", jacobi_residue(br, x, y, z))]))


def check_lie(algebra):
    return _lie_laws(algebra, "lie")


def check_post_lie(algebra):
    dot, br = algebra.dot_comb, algebra.bracket_comb
    labels = ("product-law triple", "bracket-law triple")
    return _lie_laws(algebra, "post-lie").merge(_table_law(
        algebra, "post-lie", 3,
        lambda x, y, z: zip(labels, post_lie_residues(dot, br, x, y, z))))


def abelianize(algebra):
    """The same basis with every product and bracket set to zero."""
    return StructureAlgebra(algebra.names, algebra.kind)


def derivation_prelie_example(n, m):
    """The pre-Lie algebra of derivations sum f_i d_i with polynomial
    coefficients in n variables, truncated above total degree m.

    Basis: x^a d_i for multi-indices a with 1 <= |a| <= m and 1 <= i <= n,
    named like x21d1 (exponents, then the derivation index).  The product
    (x^a d_i) . (x^b d_j) = b_i * x^(a+b-e_i) d_j, dropped when the
    resulting degree exceeds m.  Degrees never drop below 1, so the
    truncation kills an ideal and the law survives; the constructor
    validates and refuses a failing table.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")

    basis = []
    for degree in range(1, m + 1):
        for alpha in iproduct(range(degree + 1), repeat=n):
            if sum(alpha) == degree:
                basis.extend((alpha, i) for i in range(1, n + 1))

    def name_of(alpha, i):
        return "x%sd%d" % ("".join(str(e) for e in alpha), i)

    names = [name_of(alpha, i) for alpha, i in basis]
    dot = {}
    for alpha, i in basis:
        for beta, j in basis:
            bi = beta[i - 1]
            if bi == 0:
                continue
            gamma = tuple(
                a + b - (1 if k == i - 1 else 0) for k, (a, b) in enumerate(zip(alpha, beta))
            )
            if sum(gamma) > m:
                continue
            dot[(name_of(alpha, i), name_of(beta, j))] = {name_of(gamma, j): Fraction(bi)}
    algebra = StructureAlgebra(names, "pre", dot=dot)
    report = algebra.validate()
    if not report.passed:
        raise AssertionError("truncated derivation table failed its law: %s" % report.line())
    return algebra


# -- text format -----------------------------------------------------------


def parse_algebra_text(text):
    """Read a structure-constant file.

    Lines: optional "kind pre|post|lie", one "basis e1 e2 ..." (decreasing
    order), then "dot ei ej = <expr>" / "bracket ei ej = <expr>" entries;
    omitted pairs are zero; "#" starts a comment line.  Without a kind
    line the tables decide: dot only -> pre, bracket only -> lie, both ->
    post.  Every error but a missing basis line names its line.
    """
    kind = None
    kind_line = 0
    alphabet = None
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        head = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        with numbered_line(lineno):
            if head == "kind":
                if kind is not None:
                    raise ValueError("duplicate kind line")
                kind, kind_line = rest, lineno
            elif head == "basis":
                if alphabet is not None:
                    raise ValueError("duplicate basis line")
                alphabet = Alphabet(rest.split())
            elif head in ("dot", "bracket"):
                fields = rest.split(None, 2)
                if len(fields) != 3 or not fields[2].startswith("="):
                    raise ValueError("expected '%s ei ej = expr'" % head)
                entries.append((lineno, head, fields[0], fields[1], fields[2][1:].strip()))
            else:
                raise ValueError("unknown directive %r" % head)
    if alphabet is None:
        raise ValueError("missing basis line")
    if kind is None:
        heads = {entry[1] for entry in entries}
        kind = "post" if len(heads) == 2 else ("lie" if heads == {"bracket"} else "pre")
    with numbered_line(kind_line):
        # the names passed the basis line and an inferred kind is valid,
        # so only a kind line's value can be refused here
        algebra = StructureAlgebra(alphabet.names, kind)
    seen = set()
    for lineno, table, a, b, rhs in entries:
        with numbered_line(lineno):
            if (table, a, b) in seen:
                raise ValueError("duplicate %s entry (%s,%s)" % (table, a, b))
            seen.add((table, a, b))
            comb = parse_expr(rhs, alphabet)
            if not all(isinstance(w, Gen) for w in comb):
                raise ValueError("entries must be combinations of basis elements")
            algebra._add_entry(table, a, b, {w.name: c for w, c in comb.items()})
    return algebra


def load_algebra(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra_text(fh.read())


def format_algebra(algebra):
    """Canonical text form; parse_algebra_text inverts it exactly."""
    lines = ["kind %s" % algebra.kind, "basis %s" % " ".join(algebra.names)]
    for label, table in (("dot", algebra.dot), ("bracket", algebra.bracket)):
        for a in algebra.names:
            for b in algebra.names:
                entry = table.get((a, b))
                if entry:
                    text = format_lincomb(entry, algebra.names.index)
                    lines.append("%s %s %s = %s" % (label, a, b, text))
    return "\n".join(lines) + "\n"
