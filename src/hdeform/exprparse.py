"""Parser for differential-operator expressions.

Grammar: sums of products, where a product factor is either a generator
``x[i,a]`` / ``D[j,a]`` (copy label ``a`` optional, defaulting to 1) or
a coefficient factor in the h-variables (a factor of the coefficient
grammar of :mod:`hdeform.coeffs`: an atom, optionally negated or raised
to an integer power; parenthesize anything composite).  A coefficient
power is one :class:`~hdeform.coeffs.RatFun` power, and a generator
power ``x[i,a]^k`` one word of k letters, at most ``MAX_POWER_LETTERS``.
``*`` is concatenation and the result is NOT normal ordered.
"""

from __future__ import annotations

from .coeffs import _Parser
from .errors import CoefficientError

# the longest word a generator power may spell (8 bytes a letter)
MAX_POWER_LETTERS = 10**6


class _WeylParser(_Parser):

    def __init__(self, alg, text):
        super().__init__(alg.n, text)
        self.alg = alg

    def element(self):
        node = self.signed_product()
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                node = node + self.signed_product()
            elif c == "-":
                self.pos += 1
                node = node - self.signed_product()
            else:
                return node

    def signed_product(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.text[self.pos] == "-":
                sign = -sign
            self.pos += 1
        node = self.product_factor()
        while self.peek() == "*":
            self.pos += 1
            node = node * self.product_factor()
        if self.peek() == "/":
            self.error("a coefficient quotient must be parenthesized, "
                       "as in (h1/2)*x[1,1]")
        return node if sign > 0 else -node

    def product_factor(self):
        c = self.peek()
        if c in ("x", "D") and self.text[self.pos:self.pos + 2][-1] == "[":
            start = self.pos
            self.pos += 2
            i = self.unsigned()
            a = 1
            if self.peek() == ",":
                self.pos += 1
                a = self.unsigned()
            if self.peek() != "]":
                self.error("expected ']'")
            self.pos += 1
            gen = self.alg.x if c == "x" else self.alg.d
            try:
                base = gen(i, a)
            except CoefficientError as exc:
                self.pos = start
                self.error(str(exc))
        else:
            return self.alg.scalar(self.factor())
        if self.peek() == "^":
            # a generator power is a word k letters long
            self.pos += 1
            self.skip_ws()
            at = self.pos
            k = self.unsigned()
            if k > MAX_POWER_LETTERS:
                self.pos = at
                self.error(f"generator power {k} exceeds the limit of "
                           f"{MAX_POWER_LETTERS} letters")
            (word,) = base.terms
            return self.alg.word_element(word * k)
        return base


def parse_weyl_expression(alg, text):
    p = _WeylParser(alg, text)
    node = p.element()
    p.skip_ws()
    if p.pos != len(text):
        p.error("unexpected trailing input")
    return node
