"""Text form of words and linear combinations.

Grammar (whitespace allowed between tokens, never inside a number or name):

    expr     := '0' | ['-'] term (('+' | '-') term)*
    term     := [rational '*'] word
    word     := ident | 'R' '(' word ')' | '[' word ',' word ']'
    rational := integer ['/' positive-integer]

`R` is reserved for the operator.  Canonical output lists terms in
decreasing word order, separated by " + " / " - ", drops unit
coefficients, and puts no whitespace inside a word.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

from .lincomb import LinComb
from .terms import Br, RApp, descending_key

__all__ = ["ExprError", "parse_word", "parse_expr", "format_lincomb"]


class ExprError(ValueError):
    """Syntax or name error in an expression, with a character offset."""

    def __init__(self, message, offset):
        super().__init__("%s at offset %d" % (message, offset))
        self.offset = offset


@contextmanager
def numbered_line(lineno):
    """Name line `lineno` of a file in any ValueError raised inside."""
    try:
        yield
    except ValueError as exc:
        raise ValueError("line %d: %s" % (lineno, exc)) from None


_SYMBOLS = "[],()+-*/"


def _tokenize(text):
    """A list of (kind, value, offset); kinds: name, int, one of the symbol chars, end."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        # isdecimal, not isdigit: int() takes exactly these digits (not '²')
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            out.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            out.append((ch, ch, i))
            i += 1
            continue
        raise ExprError("unexpected character %r" % ch, i)
    out.append(("end", "", n))
    return out


class _Parser:

    def __init__(self, text, alphabet):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.alphabet = alphabet

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExprError("expected %s" % kind, tok[2])
        self.pos += 1
        return tok

    def parse_word(self):
        kind, value, offset = self.peek()
        if kind == "name":
            self.take()
            if value == "R":
                self.take("(")
                inner = self.parse_word()
                self.take(")")
                return RApp(inner)
            if value not in self.alphabet:
                raise ExprError("unknown generator %r" % value, offset)
            return self.alphabet.gen(value)
        if kind == "[":
            self.take()
            left = self.parse_word()
            self.take(",")
            right = self.parse_word()
            self.take("]")
            return Br(left, right)
        raise ExprError("expected a word", offset)

    def parse_rational(self):
        tok = self.take("int")
        num = int(tok[1])
        if self.peek()[0] == "/":
            self.take()
            dtok = self.take("int")
            den = int(dtok[1])
            if den == 0:
                raise ExprError("zero denominator", dtok[2])
            return Fraction(num, den)
        return num

    def parse_term(self):
        if self.peek()[0] == "int":
            coeff = self.parse_rational()
            self.take("*")
            return coeff, self.parse_word()
        return 1, self.parse_word()

    def parse_expr(self):
        out = LinComb()
        kind, value, _ = self.peek()
        if kind == "int" and value == "0" and self.tokens[self.pos + 1][0] == "end":
            # a bare zero, the printed form of the empty combination
            self.take()
            return out
        sign = 1
        if kind == "-":
            self.take()
            sign = -1
        coeff, word = self.parse_term()
        out.iadd(word, sign * coeff)
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            coeff, word = self.parse_term()
            out.iadd(word, coeff if op == "+" else -coeff)
        return out

    def finish(self, result):
        """`result`, provided the text ends here."""
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExprError("unexpected %r" % value, offset)
        return result


def parse_word(text, alphabet):
    """Parse a single word (no coefficients)."""
    p = _Parser(text, alphabet)
    return p.finish(p.parse_word())


def parse_expr(text, alphabet):
    """Parse a linear combination of words over the given alphabet."""
    p = _Parser(text, alphabet)
    return p.finish(p.parse_expr())


def format_lincomb(lc, key=None):
    """Canonical text: terms in decreasing word order, exact coefficients.
    A `key` sorts the terms instead (tables pass `names.index`)."""
    if not lc:
        return "0"
    parts = []
    for word in sorted(lc, key=key or descending_key()):
        coeff = lc[word]
        body = str(word) if abs(coeff) == 1 else "%s*%s" % (abs(coeff), word)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append("%s %s" % ("+" if coeff > 0 else "-", body))
    return " ".join(parts)
