"""Sparse exact multivariate polynomials over Q or a prime field.

A term is a pair (exponent tuple, coefficient): the tuple is the monomial,
with one non-negative int per variable, so a product of monomials adds
tuples slot by slot and a total degree is their sum.  Coefficients are
Python numbers: `fractions.Fraction` over Q (always in lowest terms with
positive denominator) or ints in ``[0, q)`` over a prime field.  Their
arithmetic is Python's own operators and a zero test is truthiness; a
field is what a result is put back into, by its one `coerce`, which over
Q returns the Fraction unchanged and over F_q reduces mod q.  A field
otherwise knows only `invert`, `zero`, `one` and its `characteristic`.
Variables are indexed; display names are metadata only, so coordinate
changes permute indices rather than names.  Term lists are kept sorted,
strictly decreasing in the ring's active monomial order; changing the
order is explicit via ``PolynomialRing.with_order`` and never happens
implicitly.  An exponent vector a caller passes in
(``PolynomialRing.from_terms``, ``mul_term``, ``sub_scaled``) is checked
for its length and signs.  Every new term list goes through `_collect`,
which sums like monomials in a dict, coerces each sum and sorts once;
maps that keep the term order (`scale`, negation, `mul_term`) skip it and
coerce each term themselves.

All values are immutable after construction and safe to share across
threads; every operation is a pure function.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import add, neg

from . import linalg


class ParseError(ValueError):
    """Raised for malformed polynomial expressions; carries the position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class BadReductionError(ValueError):
    """A rational could not be reduced mod q (denominator divisible by q)."""


class RationalField:
    """The field of exact rationals."""

    characteristic = 0

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, (int, str)):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into QQ")

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def invert(a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


QQ = RationalField()


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson and Webster 2017, "Strong pseudoprimes to
# twelve prime bases"); the first 12 bases alone are exact only below
# 3.18 * 10^23.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Exact primality test; raises ValueError above the certified range."""
    if n >= _MILLER_RABIN_BOUND:
        raise ValueError(f"{n} is too large to certify as a prime")
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_q for a prime q; elements are ints in [0, q)."""

    def __init__(self, q):
        if not _is_prime(q):
            raise ValueError(f"{q} is not prime")
        self.q = q
        self.characteristic = q
        self.zero = 0
        self.one = 1 % q

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.q
        if isinstance(value, Fraction):
            if value.denominator % self.q == 0:
                raise BadReductionError(f"denominator {value.denominator} divisible by {self.q}")
            return value.numerator * pow(value.denominator, -1, self.q) % self.q
        raise TypeError(f"cannot coerce {value!r} into GF({self.q})")

    def invert(self, a):
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.q)

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("GF", self.q))


class MonomialOrder:
    """A multiplicative total well-order on monomials, given as exponent tuples.

    ``key`` maps an exponent tuple to a flat tuple of integers that sorts
    ascending with the order, so "larger" monomials have larger keys.  The
    key is additive, key(m * x^u) = key(m) + key(x^u) slot by slot.
    """

    __slots__ = ("kind", "nvars", "split")

    def __init__(self, kind, nvars, split=0):
        if kind not in ("grevlex", "lex", "elimination"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.nvars = nvars
        self.split = split

    @classmethod
    def grevlex(cls, nvars):
        return cls("grevlex", nvars)

    @classmethod
    def lex(cls, nvars):
        return cls("lex", nvars)

    @classmethod
    def elimination(cls, nvars, split):
        """Block order: grevlex on the first `split` variables dominates."""
        if not 0 < split < nvars:
            raise ValueError("split must cut the variables into two nonempty blocks")
        return cls("elimination", nvars, split=split)

    def key(self, exps):
        if self.kind == "grevlex":
            return (sum(exps), *map(neg, reversed(exps)))
        if self.kind == "lex":
            return tuple(exps)
        head, tail = exps[: self.split], exps[self.split :]
        return (sum(head), *map(neg, reversed(head)), sum(tail), *map(neg, reversed(tail)))

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and (self.kind, self.nvars, self.split) == (other.kind, other.nvars, other.split)
        )

    def __hash__(self):
        return hash((self.kind, self.nvars, self.split))

    def __repr__(self):
        extra = f", split={self.split}" if self.kind == "elimination" else ""
        return f"MonomialOrder({self.kind!r}, {self.nvars}{extra})"


class PolynomialRing:
    """Variable names, coefficient field and active monomial order."""

    __slots__ = ("names", "field", "order", "nvars")

    def __init__(self, names, field=QQ, order=None):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self.nvars = len(self.names)
        self.field = field
        self.order = order if order is not None else MonomialOrder.grevlex(self.nvars)
        if self.order.nvars != self.nvars:
            raise ValueError("order does not match variable count")

    def zero(self):
        return Polynomial(self, ())

    def one(self):
        return self.constant(self.field.one)

    def constant(self, value):
        value = self.field.coerce(value)
        if not value:
            return self.zero()
        return Polynomial(self, (((0,) * self.nvars, value),))

    def variable(self, index):
        exps = [0] * self.nvars
        exps[index] = 1
        return Polynomial(self, ((tuple(exps), self.field.one),))

    def variables(self):
        return [self.variable(i) for i in range(self.nvars)]

    def from_terms(self, terms):
        """Build a polynomial from (exponent vector, coefficient) pairs."""
        nvars, coerce = self.nvars, self.field.coerce
        return _collect(self, ((_exponents(m, nvars), coerce(c)) for m, c in terms))

    def parse(self, text):
        return parse_polynomial(text, self)

    def with_order(self, order):
        """Same ring, new active order; re-sorting is explicit via this call."""
        return PolynomialRing(self.names, self.field, order)

    def with_field(self, field):
        return PolynomialRing(self.names, field, self.order)

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialRing)
            and self.names == other.names
            and self.field == other.field
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.names, self.field, self.order))

    def __repr__(self):
        return f"PolynomialRing({self.names}, {self.field!r}, {self.order!r})"


class Polynomial:
    """Immutable sparse polynomial; terms strictly decreasing in the order."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", tuple(terms))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def leading_coefficient(self):
        if not self.terms:
            return self.ring.field.zero
        return self.terms[0][1]

    def coefficient(self, mono):
        mono = tuple(mono)
        for m, c in self.terms:
            if m == mono:
                return c
        return self.ring.field.zero

    def total_degree(self):
        """Total degree; -1 for the zero polynomial.  Under grevlex the
        order key starts with the total degree, so the leading term has it."""
        terms = self.terms
        if not terms:
            return -1
        if self.ring.order.kind == "grevlex":
            return sum(terms[0][0])
        return max(sum(m) for m, _ in terms)

    def is_homogeneous(self):
        """Whether every term has one total degree; under grevlex the first
        and the last term have the largest and the smallest."""
        terms = self.terms
        if not terms:
            return True
        d = sum(terms[0][0])
        if self.ring.order.kind == "grevlex":
            return sum(terms[-1][0]) == d
        return all(sum(m) == d for m, _ in terms)

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("polynomials come from different rings")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        self._check_ring(other)
        return _collect(self.ring, chain(self.terms, other.terms))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        self._check_ring(other)
        return _collect(self.ring, chain(self.terms, ((m, -c) for m, c in other.terms)))

    def __neg__(self):
        coerce = self.ring.field.coerce
        return Polynomial(self.ring, tuple((m, coerce(-c)) for m, c in self.terms))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_ring(other)
        return _collect(
            self.ring,
            (
                (tuple(map(add, m1, m2)), c1 * c2)
                for m1, c1 in self.terms
                for m2, c2 in other.terms
            ),
        )

    __rmul__ = __mul__

    def scale(self, scalar):
        coerce = self.ring.field.coerce
        scalar = coerce(scalar)
        if not scalar:
            return self.ring.zero()
        return Polynomial(self.ring, tuple((m, coerce(c * scalar)) for m, c in self.terms))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def mul_term(self, coeff, mono):
        coerce = self.ring.field.coerce
        coeff = coerce(coeff)
        mono = _exponents(mono, self.ring.nvars)
        if not coeff:
            return self.ring.zero()
        return Polynomial(
            self.ring, tuple((tuple(map(add, m, mono)), coerce(c * coeff)) for m, c in self.terms)
        )

    def derivative(self, index):
        """Formal partial derivative with respect to variable `index`."""
        terms = []
        for m, c in self.terms:
            e = m[index]
            if e:
                exps = tuple(v - 1 if k == index else v for k, v in enumerate(m))
                terms.append((exps, c * e))
        return self.ring.from_terms(terms)

    def sub_scaled(self, coeff, mono, other):
        """Return self - coeff * x^mono * other."""
        self._check_ring(other)
        coeff = -self.ring.field.coerce(coeff)
        mono = _exponents(mono, self.ring.nvars)
        return _collect(
            self.ring,
            chain(self.terms, ((tuple(map(add, m, mono)), c * coeff) for m, c in other.terms)),
        )

    def monic(self):
        if not self.terms:
            return self
        inv = self.ring.field.invert(self.leading_coefficient())
        return self.scale(inv)

    def primitive(self):
        """Over Q: integer coefficients with content 1 and positive lead."""
        if self.ring.field != QQ or not self.terms:
            return self
        num_gcd = 0
        den_lcm = 1
        for _, c in self.terms:
            num_gcd = gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
        factor = Fraction(den_lcm, num_gcd)
        if self.leading_coefficient() < 0:
            factor = -factor
        return self.scale(factor)

    # -- evaluation / substitution ------------------------------------------

    def evaluate(self, point):
        """Exact value at a point (sequence of field scalars); each power x_i^e
        is computed once, a term with a zero factor is skipped, and the sum
        is put back into the field once."""
        field = self.ring.field
        point = [field.coerce(x) for x in point]
        if len(point) != self.ring.nvars:
            raise ValueError("point length does not match variable count")
        q = field.characteristic
        powers = [{} if x else None for x in point]  # None: x_i = 0
        total = field.zero
        for mono, coeff in self.terms:
            value = coeff
            for i, e in enumerate(mono):
                if not e:
                    continue
                cache = powers[i]
                if cache is None:
                    break
                power = cache.get(e)
                if power is None:
                    power = cache[e] = pow(point[i], e, q) if q else point[i] ** e
                value *= power
            else:
                total += value
        return field.coerce(total)

    # -- comparison / display ------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for idx, (mono, coeff) in enumerate(self.terms):
            factors = []
            for name, e in zip(self.ring.names, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            sign = ""
            if isinstance(coeff, Fraction) and coeff < 0:
                sign = "-"
                coeff = -coeff
            body = "*".join(factors)
            if not body:
                body = str(coeff)
            elif coeff != self.ring.field.one:
                body = f"{coeff}*{body}"
            if idx == 0:
                chunks.append(sign + body)
            else:
                chunks.append(("- " if sign else "+ ") + body)
        return " ".join(chunks)

    def __repr__(self):
        return f"<{self}>"


def _exponents(mono, nvars):
    """An exponent vector from a caller as a tuple, checked to hold one
    non-negative int per variable."""
    mono = tuple(mono)
    if len(mono) != nvars:
        raise ValueError("exponent vector length does not match ring")
    if mono and min(mono) < 0:
        raise ValueError("negative exponent")
    return mono


def _collect(ring, pairs):
    """The polynomial of `ring` summing (exponent tuple, coefficient) pairs: like
    monomials add in a dict, each sum is coerced into the field, zero sums
    drop, and one sort by the order key makes the terms strictly decreasing."""
    acc = {}
    for mono, coeff in pairs:
        prev = acc.get(mono)
        acc[mono] = coeff if prev is None else prev + coeff
    coerce, key = ring.field.coerce, ring.order.key
    terms = [(m, c) for m, c in zip(acc, map(coerce, acc.values())) if c]
    terms.sort(key=lambda tc: key(tc[0]), reverse=True)
    return Polynomial(ring, terms)


# -- parsing ------------------------------------------------------------------


# an integer, a word, an operator or any other character; whitespace separates
_TOKEN = re.compile(r"\d+|\w+|[-+*^()/]|\S")


def _token_positions(text):
    """The start of every token of the whole text, then len(text) for its
    end.  Integers are runs of decimal digits; a word is a variable name
    only when it starts with a letter or "_", and any other token raises
    ParseError at its start."""
    positions = []
    for match in _TOKEN.finditer(text):
        first, start = match[0][0], match.start()
        if not (first.isalpha() or first.isdecimal() or first in "_-+*^()/"):
            raise ParseError(f"unexpected character {first!r}", start)
        positions.append(start)
    positions.append(len(text))
    return positions


class _Parser:
    """Recursive descent for:  expr := term (("+"|"-") term)* ; term := factor
    ("*" factor)* ; factor := base ("^" nat)? ; base := ident | int | "(" expr ")".

    Rational literals are allowed as int "/" nat in coefficient position; a
    leading sign on the first term is accepted.  No other division exists.

    The whole text is tokenized up front into strings, ending with "" at
    the end of the text; token positions are found only for an error, and
    a character that makes no token is reported before any error of the
    grammar.  A term keeps its variables in one exponent list and its
    literals in one int (a Fraction once a rational literal enters over Q;
    mod q over GF(q)); only parenthesised factors are multiplied as
    polynomials.  The terms of a sum add up in one dict, coerced into the
    field once per distinct monomial.
    """

    def __init__(self, text, ring):
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.tokens.append("")
        self.index = 0
        self.ring = ring
        # a token that starts with a letter or "_" is a word; no other token
        # names a variable
        self.var_index = {
            name: i for i, name in enumerate(ring.names) if name[:1].isalpha() or name[:1] == "_"
        }

    def error(self, message, index):
        """The ParseError of the token at `index`."""
        return ParseError(message, _token_positions(self.text)[index])

    def integer(self, index):
        """The int of the decimal token at `index`; a literal longer than the
        interpreter converts (`sys.get_int_max_str_digits`) is a ParseError
        at its token."""
        token = self.tokens[index]
        try:
            return int(token)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            message = f"integer literal of {len(token)} digits exceeds the limit of {limit} digits"
            raise self.error(message, index) from None

    def parse(self):
        acc = self.expr()
        token = self.tokens[self.index]
        if token:
            raise self.error(f"unexpected {token!r}", self.index)
        return self.polynomial(acc)

    def polynomial(self, acc):
        """The polynomial of a sum that `expr` gathered."""
        return _collect(self.ring, acc.items())

    def expr(self):
        """The terms of a sum as {exponent tuple: coefficient}, the coefficient
        an int or a Fraction not yet coerced into the field."""
        tokens, var_index, ring = self.tokens, self.var_index, self.ring
        field = ring.field
        nvars, q = ring.nvars, field.characteristic
        acc = {}
        i = self.index
        sign = 1
        if tokens[i] == "+" or tokens[i] == "-":
            sign = -1 if tokens[i] == "-" else 1
            i += 1
        while True:
            exps = [0] * nvars
            coeff = 1
            factors = []
            while True:
                token = tokens[i]
                var = var_index.get(token)
                poly = None
                if var is None:
                    if token.isdecimal():
                        value = self.integer(i)
                        if tokens[i + 1] == "/":
                            i += 2
                            if not tokens[i].isdecimal():
                                raise self.error(f"expected 'int', found {tokens[i]!r}", i)
                            den = self.integer(i)
                            if den == 0:
                                raise self.error("zero denominator", i)
                            value = Fraction(value, den)
                            if q:  # 1/q raises BadReductionError here, not in the product
                                value = field.coerce(value)
                    elif token == "(":
                        self.index = i + 1
                        poly = self.polynomial(self.expr())
                        i = self.index
                        if tokens[i] != ")":
                            raise self.error(f"expected ')', found {tokens[i]!r}", i)
                    elif token == "/":
                        raise self.error("division is only allowed in rational literals", i)
                    elif token[:1].isalpha() or token[:1] == "_":
                        raise self.error(f"unknown variable {token!r}", i)
                    else:
                        raise self.error(f"unexpected {token!r}", i)
                i += 1
                power = 1
                if tokens[i] == "^":
                    i += 1
                    if not tokens[i].isdecimal():
                        raise self.error(f"expected 'int', found {tokens[i]!r}", i)
                    power = self.integer(i)
                    i += 1
                if var is not None:
                    exps[var] += power
                elif poly is not None:
                    factors.append(poly**power)
                elif q:
                    coeff = coeff * pow(value, power, q) % q
                else:
                    coeff *= value**power
                if tokens[i] != "*":
                    break
                i += 1
            if coeff:
                if sign < 0:
                    coeff = -coeff
                if factors:
                    term = Polynomial(ring, ((tuple(exps), field.coerce(coeff)),))
                    for factor in factors:
                        term = term * factor
                    pairs = term.terms
                else:
                    pairs = ((tuple(exps), coeff),)
                for mono, c in pairs:
                    acc[mono] = acc.get(mono, 0) + c
            if tokens[i] == "+":
                sign = 1
            elif tokens[i] == "-":
                sign = -1
            else:
                self.index = i
                return acc
            i += 1


def parse_polynomial(text, ring):
    """Parse an expression into the expanded normal form in `ring`."""
    return _Parser(text, ring).parse()


# -- substitution ---------------------------------------------------------------


def compose(f, images):
    """Substitute images[i] (polynomials over one target ring) for variable i."""
    if len(images) != f.ring.nvars:
        raise ValueError("one image per variable is required")
    target = images[0].ring if images else f.ring
    powers = [[target.one()] for _ in images]  # powers[i][e] = images[i]^e

    def power(i, e):
        cache = powers[i]
        while len(cache) <= e:
            cache.append(cache[-1] * images[i])
        return cache[e]

    pairs = []
    for mono, coeff in f.terms:
        piece = target.constant(coeff)
        for i, e in enumerate(mono):
            if e:
                piece = piece * power(i, e)
        pairs.extend(piece.terms)
    return _collect(target, pairs)


def substitute_linear(f, matrix):
    """Return f(M x) for an invertible square matrix M over the coefficient field.

    Degree and homogeneity are preserved; raises SingularMatrixError for a
    singular M and ValueError on a size mismatch.
    """
    ring = f.ring
    n = ring.nvars
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("matrix size does not match variable count")
    rows = [[ring.field.coerce(a) for a in row] for row in matrix]
    linalg.invert(rows, ring.field)  # invertibility check
    images = [
        ring.from_terms(
            ((tuple(1 if k == j else 0 for k in range(n)), rows[i][j]) for j in range(n))
        )
        for i in range(n)
    ]
    return compose(f, images)


def restrict_to_line(f, point, direction, parameter_ring=None):
    """Restrict f to the parametrized line s*point + t*direction.

    Returns a polynomial in a two-variable ring (s, t) over the same field;
    the restriction is identically zero exactly when f vanishes on the whole
    projective line spanned by the two vectors.
    """
    ring = f.ring
    if parameter_ring is None:
        parameter_ring = PolynomialRing(("s", "t"), ring.field)
    field = ring.field
    point = [field.coerce(x) for x in point]
    direction = [field.coerce(x) for x in direction]
    images = [
        parameter_ring.from_terms((((1, 0), p), ((0, 1), v)))
        for p, v in zip(point, direction)
    ]
    return compose(f, images)


def evaluate(f, point):
    return f.evaluate(point)
