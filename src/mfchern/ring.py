"""Exact arithmetic for sparse multivariate polynomials over the rationals.

The ambient ring is fixed by a :class:`RingCtx` (variable names plus a
monomial order).  Polynomials are immutable maps from exponent vectors to
``fractions.Fraction`` coefficients; no floating point appears anywhere.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Union

# Exact big rationals.  gcd-reduced, positive denominator, 0 == 0/1: the
# stdlib Fraction maintains exactly these invariants.
Rational = Fraction

# A monomial is a dense exponent vector, one entry per ring variable.
Monomial = tuple

Scalar = Union[int, Fraction]

_ORDERS = ("degrevlex", "lex", "grlex")

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class RingError(ValueError):
    """Raised for malformed ring-level inputs (bad context, bad shapes)."""


class ParseError(RingError):
    """Raised when a polynomial expression does not match the grammar."""


@dataclass(frozen=True)
class RingCtx:
    """The polynomial ring Q[x_1..x_n] with a pinned monomial order."""

    variables: tuple
    order: str = "degrevlex"

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(set(self.variables)) != len(self.variables):
            raise RingError("variable names must be unique")
        for v in self.variables:
            if not _IDENT.fullmatch(v):
                raise RingError(f"bad variable name {v!r}")
        if self.order not in _ORDERS:
            raise RingError(f"unknown monomial order {self.order!r}")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise RingError(f"unknown variable {name!r}") from None

    def monomial_key(self, m: Monomial):
        """Sort key: larger key means larger monomial in self.order."""
        if self.order == "lex":
            return m
        if self.order == "grlex":
            return (sum(m), m)
        # degrevlex: higher total degree wins; ties broken by the rightmost
        # nonzero entry of the difference being negative.
        return (sum(m), tuple(-e for e in reversed(m)))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: RingCtx, terms=()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc = {}
        for m, c in items:
            m = tuple(m)
            if len(m) != ctx.nvars:
                raise RingError("monomial length does not match variable count")
            if any(e < 0 for e in m):
                raise RingError("negative exponent in monomial")
            acc[m] = acc.get(m, Fraction(0)) + Fraction(c)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", {m: c for m, c in acc.items() if c})

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def _trusted(cls, ctx: RingCtx, terms: dict) -> "Poly":
        """Internal constructor for results of arithmetic on valid Polys.

        ``terms`` must be a fresh dict from valid monomials to Fractions;
        only zero coefficients are dropped, nothing else is checked.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "ctx", ctx)
        object.__setattr__(p, "terms", {m: c for m, c in terms.items() if c})
        return p

    @classmethod
    def zero(cls, ctx: RingCtx) -> "Poly":
        return cls(ctx)

    @classmethod
    def const(cls, ctx: RingCtx, c) -> "Poly":
        return cls(ctx, {(0,) * ctx.nvars: Fraction(c)})

    @classmethod
    def one(cls, ctx: RingCtx) -> "Poly":
        return cls.const(ctx, 1)

    @classmethod
    def variable(cls, ctx: RingCtx, i: int) -> "Poly":
        if not 0 <= i < ctx.nvars:
            raise RingError("variable index out of range")
        m = [0] * ctx.nvars
        m[i] = 1
        return cls(ctx, {tuple(m): Fraction(1)})

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_coeff(self) -> Fraction:
        return self.terms.get((0,) * self.ctx.nvars, Fraction(0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    # -- arithmetic --------------------------------------------------------
    def _check(self, other: "Poly"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise RingError("mismatched ring contexts")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.ctx, other)
        self._check(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc[m] + c if m in acc else c
        return Poly._trusted(self.ctx, acc)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.ctx, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly._trusted(self.ctx, {m: c * other for m, c in self.terms.items()})
        self._check(other)
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                c = c1 * c2
                acc[m] = acc[m] + c if m in acc else c
        return Poly._trusted(self.ctx, acc)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise RingError("exponent must be a non-negative integer")
        out = Poly.one(self.ctx)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    # -- calculus / structure ---------------------------------------------
    def partial_derivative(self, var_index: int) -> "Poly":
        if not 0 <= var_index < self.ctx.nvars:
            raise RingError("variable index out of range")
        acc = {}
        for m, c in self.terms.items():
            e = m[var_index]
            if e == 0:
                continue
            dm = list(m)
            dm[var_index] = e - 1
            acc[tuple(dm)] = acc.get(tuple(dm), Fraction(0)) + c * e
        return Poly(self.ctx, acc)

    def leading_monomial(self) -> Monomial:
        if self.is_zero():
            raise RingError("zero polynomial has no leading monomial")
        return max(self.terms, key=self.ctx.monomial_key)

    def leading_coeff(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def monic(self) -> "Poly":
        lc = self.leading_coeff()
        return Poly(self.ctx, {m: c / lc for m, c in self.terms.items()})

    def substitute(self, target_ctx: RingCtx, images: "tuple[Poly, ...]") -> "Poly":
        """Evaluate under x_i -> images[i]; images live in target_ctx."""
        if len(images) != self.ctx.nvars:
            raise RingError("one image per source variable required")
        out = Poly.zero(target_ctx)
        cache = {}
        for m, c in self.terms.items():
            term = Poly.const(target_ctx, c)
            for i, e in enumerate(m):
                if e:
                    if (i, e) not in cache:
                        cache[(i, e)] = images[i] ** e
                    term = term * cache[(i, e)]
            out = out + term
        return out

    def __repr__(self):
        return f"Poly({print_poly(self)!r})"


# ---------------------------------------------------------------------------
# parsing / printing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()/]))")


def _tokenize(text: str):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"unexpected character at position {pos}: {text[pos:]!r}")
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    return tokens


class _PolyParser:
    """Recursive descent for: expr := term (('+'|'-') term)*;
    term := factor ('*' factor)*; factor := base ('^' nat)?;
    base := var | rational | '(' expr ')'."""

    def __init__(self, tokens, ctx: RingCtx):
        self.tokens = tokens
        self.pos = 0
        self.ctx = ctx

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.next()
        if tok != ("op", op):
            raise ParseError(f"expected {op!r}, got {tok!r}")

    def parse(self) -> Poly:
        p = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()!r}")
        return p

    def expr(self) -> Poly:
        sign = 1
        while self.peek() in (("op", "+"), ("op", "-")):
            if self.next() == ("op", "-"):
                sign = -sign
        p = self.term() * sign
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.next()[1]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Poly:
        p = self.factor()
        while self.peek() == ("op", "*"):
            self.next()
            p = p * self.factor()
        return p

    def factor(self) -> Poly:
        p = self.base()
        if self.peek() == ("op", "^"):
            self.next()
            tok = self.next()
            if tok == ("op", "-"):
                raise ParseError("negative exponent")
            if tok[0] != "int":
                raise ParseError(f"expected integer exponent, got {tok!r}")
            p = p ** tok[1]
        return p

    def base(self) -> Poly:
        tok = self.next()
        if tok[0] == "int":
            num = tok[1]
            if self.peek() == ("op", "/"):
                self.next()
                den = self.next()
                if den[0] != "int":
                    raise ParseError("expected integer denominator")
                if den[1] == 0:
                    raise ParseError("zero denominator")
                return Poly.const(self.ctx, Fraction(num, den[1]))
            return Poly.const(self.ctx, num)
        if tok[0] == "name":
            if tok[1] not in self.ctx.variables:
                raise ParseError(f"unknown variable {tok[1]!r}")
            return Poly.variable(self.ctx, self.ctx.var_index(tok[1]))
        if tok == ("op", "("):
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected token {tok!r}")


def parse_poly(text: str, ctx: RingCtx) -> Poly:
    """Parse an expression over the declared variables into canonical form."""
    return _PolyParser(_tokenize(text), ctx).parse()


def _print_monomial(m: Monomial, ctx: RingCtx) -> str:
    parts = []
    for name, e in zip(ctx.variables, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def print_poly(p: Poly, ctx: RingCtx = None) -> str:
    """Deterministic printing: terms sorted descending by the ring order.

    Round-trips through :func:`parse_poly`.
    """
    ctx = ctx or p.ctx
    if p.is_zero():
        return "0"
    out = []
    for m in sorted(p.terms, key=ctx.monomial_key, reverse=True):
        c = p.terms[m]
        mono = _print_monomial(m, ctx)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out)


def partial_derivative(p: Poly, var_index: int) -> Poly:
    return p.partial_derivative(var_index)
