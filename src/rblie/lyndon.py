"""Lyndon-Shirshov words, associative and bracketed.

With the order of `terms` (greatest letter first, proper prefix greater),
an associative word w is Lyndon-Shirshov when w > vu for every proper
split w = uv.  Every such word has a unique bracketing [w] satisfying:

  * the flattening of [w] is w;
  * at every bracket node [p,q]: p and q are Lyndon-Shirshov and p > q;
  * at every bracket node whose left half is itself [p1,p2]: q >= p2.

The unique bracketing is produced by splitting off the longest proper
suffix that is itself associative Lyndon-Shirshov; tests validate this
against exhaustive search over all bracketings.

`ls_shape_ok` is the reference checker: the conditions above, checked
at every node including the rotation test on each flattening, optionally
refined per node by a commutation constraint (the first letter of the
right half must be non-adjacent to at least one letter of the left half)
and by letter/node predicates.  The basis contexts do not call it: their
one membership rule (`straighten.BasisContext.is_basis_word`) checks only
the root of a bracket of basis words, and tests compare the two.
"""

from __future__ import annotations

from .terms import Br, atoms, compare_words

__all__ = ["is_assoc_ls", "standard_bracketing", "ls_shape_ok"]


def is_assoc_ls(seq):
    """True when the letter sequence is strictly greater than all its rotations."""
    w = atoms(seq)
    n = len(w)
    if n == 0:
        return False
    for i in range(1, n):
        if compare_words(w, w[i:] + w[:i]) <= 0:
            return False
    return True


def standard_bracketing(seq):
    """The unique Lyndon-Shirshov bracketing of an associative LS word."""
    w = atoms(seq)
    if not is_assoc_ls(w):
        raise ValueError("not an associative Lyndon-Shirshov word: %s" % (w,))
    return _bracket(w)


def _bracket(w):
    if len(w) == 1:
        return w[0]
    for i in range(1, len(w)):
        if is_assoc_ls(w[i:]):
            # longest proper LS suffix: the right factor must be maximal
            return Br(_bracket(w[:i]), _bracket(w[i:]))
    raise AssertionError("LS word with no LS proper suffix: %s" % (w,))


def ls_shape_ok(w, adjacent=None, atom_ok=None, node_ok=None):
    """Hierarchical Lyndon-Shirshov check on a bracketed word.

    adjacent: optional predicate on letter pairs; when given, each bracket
        node [p,q] must have some letter of p not adjacent to the first
        letter of q (the partially commutative admissibility condition).
    atom_ok:  optional predicate each letter must satisfy.
    node_ok:  optional predicate each bracket node must satisfy.
    """
    if not isinstance(w, Br):
        return atom_ok is None or atom_ok(w)
    if node_ok is not None and not node_ok(w):
        return False
    p, q = w.left, w.right
    if not ls_shape_ok(p, adjacent, atom_ok, node_ok):
        return False
    if not ls_shape_ok(q, adjacent, atom_ok, node_ok):
        return False
    fp = atoms(p)
    fq = atoms(q)
    if compare_words(fp, fq) <= 0:
        return False
    if isinstance(p, Br) and compare_words(fq, atoms(p.right)) < 0:
        return False
    if not is_assoc_ls(fp + fq):
        return False
    if adjacent is not None:
        head = fq[0]
        if all(adjacent(x, head) for x in fp):
            return False
    return True
