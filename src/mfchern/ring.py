"""Exact arithmetic for sparse multivariate polynomials over the rationals.

The ambient ring is fixed by a :class:`RingCtx` (variable names plus the
monomial order, which is always degrevlex).  Polynomials are immutable maps
from exponent vectors to exact coefficients: an integral coefficient is
stored as an ``int``, any other as a ``fractions.Fraction``; no floating
point appears anywhere.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate
from math import ceil, comb, log2
from operator import add, attrgetter, neg
from typing import Mapping, Union

# Exact big rationals.  gcd-reduced, positive denominator, 0 == 0/1: the
# stdlib Fraction maintains exactly these invariants.  A Poly stores the
# integral ones as int, which agrees with Fraction on ==, hash and str.
Rational = Fraction

# A monomial is a dense exponent vector, one entry per ring variable.
Monomial = tuple

Scalar = Union[int, Fraction]

_ORDERS = ("degrevlex",)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

# The parser refuses a power p^e whose expansion could exceed this many
# terms, C(t+e-1, e) for a base of t terms, and a product that could too.
# A document can otherwise ask for an expansion that never finishes, e.g.
# "(x+y+1)^400" (80601 terms).
MAX_POWER_TERMS = 1000

# The longest integer literal the tokenizer reads, which is the interpreter's
# default int/str conversion limit.  A power or product whose coefficients
# could outgrow it is refused too: "(3*x)^30000000" has one term but would
# take minutes to expand, and its coefficients could not be printed.
MAX_COEFF_DIGITS = 4300
# ceil(log2 n) of every n < 10^MAX_COEFF_DIGITS is at most this
_MAX_COEFF_BITS = ceil(MAX_COEFF_DIGITS * log2(10))


class RingError(ValueError):
    """Raised for malformed ring-level inputs (bad context, bad shapes)."""


class ParseError(RingError):
    """Raised when a polynomial expression does not match the grammar."""


class Frozen:
    """An immutable value.  A subclass writes ``__slots__ = _fields = (...)``,
    at least two names, and lists a derived slot, such as a cache, in
    ``__slots__`` only.  Checked where values enter, trusted once derived:
    the constructor, for a caller's values, sets the fields in order, then
    calls the check ``__post_init__``; :meth:`_make` builds a value the
    library derives from values it already holds, and checks nothing."""

    __slots__ = _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field tuple; with two or more names attrgetter returns a tuple
        cls._values = staticmethod(attrgetter(*cls._fields))
        # each field's slot setter, which bypasses __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} values")
        for put, v in zip(self._setters, values):
            put(self, v)
        self.__post_init__()

    @classmethod
    def _make(cls, *values):
        """The unchecked constructor: sets the fields in order, runs neither
        ``__init__`` nor ``__post_init__``; values in their stored form."""
        obj = object.__new__(cls)
        for put, v in zip(cls._setters, values):
            put(obj, v)
        return obj

    def __post_init__(self):
        pass

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")
    __delattr__ = __setattr__

    def __eq__(self, other):
        return other is self or (
            type(other) is type(self) and self._values(self) == self._values(other)
        )

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._values(self)))})"

    def __reduce__(self):
        return type(self), self._values(self)


class RingCtx(Frozen):
    """The polynomial ring Q[x_1..x_n] under degrevlex, the only monomial
    order; any other ``order`` is a RingError."""

    __slots__ = _fields = ("variables", "order")

    def __init__(self, variables, order="degrevlex"):
        super().__init__(tuple(variables), order)

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise RingError("variable names must be unique")
        for v in self.variables:
            if not _IDENT.fullmatch(v):
                raise RingError(f"bad variable name {v!r}")
            if _differential(v, self.variables):  # 'dv' would print as d(v)
                raise RingError(f"variable {v!r} reads as the differential of {v[1:]!r}")
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
        """Sort key: larger key means larger monomial in degrevlex.  Higher
        total degree wins; ties are broken by the rightmost nonzero entry of
        the difference being negative."""
        return (sum(m), tuple(-e for e in reversed(m)))


def _scalar(c) -> Scalar:
    """A caller's int or Fraction as a coefficient; anything else is a RingError."""
    if type(c) is int:
        return c
    if not isinstance(c, (int, Fraction)):
        raise RingError(f"coefficient {c!r} is not an int or Fraction")
    return Fraction(c)


def _canonical(terms: dict) -> dict:
    """The nonzero terms, with integral Fraction coefficients made int."""
    return {
        m: c if type(c) is int or c.denominator != 1 else c.numerator
        for m, c in terms.items() if c
    }


class Poly(Frozen):
    """Immutable sparse polynomial with exact rational coefficients."""

    _fields = ("ctx", "terms")
    __slots__ = (*_fields, "_hash")

    def __init__(self, ctx: RingCtx, terms=()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc = {}
        for m, c in items:
            m = tuple(m)
            if len(m) != ctx.nvars:
                raise RingError("monomial length does not match variable count")
            if not all(isinstance(e, int) and e >= 0 for e in m):
                if all(isinstance(e, int) for e in m):
                    raise RingError("negative exponent in monomial")
                raise RingError(f"exponent in monomial {m} is not an int")
            acc[m] = acc.get(m, 0) + _scalar(c)
        super().__init__(ctx, _canonical(acc))

    # -- constructors ------------------------------------------------------
    @classmethod
    def _trusted(cls, ctx: RingCtx, terms: dict) -> "Poly":
        """Internal constructor for results of arithmetic on valid Polys.

        ``terms`` must be a dict from valid monomials to ints and Fractions;
        zero coefficients are dropped and integral ones made int, nothing
        else is checked.
        """
        return cls._make(ctx, _canonical(terms))

    @classmethod
    def zero(cls, ctx: RingCtx) -> "Poly":
        return cls._make(ctx, {})

    @classmethod
    def const(cls, ctx: RingCtx, c) -> "Poly":
        return cls._trusted(ctx, {(0,) * ctx.nvars: _scalar(c)})

    @classmethod
    def one(cls, ctx: RingCtx) -> "Poly":
        return cls._make(ctx, {(0,) * ctx.nvars: 1})

    @classmethod
    def variable(cls, ctx: RingCtx, i: int) -> "Poly":
        if not 0 <= i < ctx.nvars:
            raise RingError("variable index out of range")
        m = [0] * ctx.nvars
        m[i] = 1
        return cls._make(ctx, {tuple(m): 1})

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

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
                m = tuple(map(add, m1, m2))
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

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # first call: computed once, then kept
            h = hash((self.ctx, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
            return h

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
            # m -> dm is injective on the monomials with e > 0
            acc[tuple(dm)] = c * e
        return Poly._trusted(self.ctx, acc)

    def leading_monomial(self) -> Monomial:
        if self.is_zero():
            raise RingError("zero polynomial has no leading monomial")
        return max(self.terms, key=self.ctx.monomial_key)

    def leading_coeff(self) -> Scalar:
        return self.terms[self.leading_monomial()]

    def monic(self) -> "Poly":
        lc = self.leading_coeff()
        return Poly._trusted(
            self.ctx, {m: Fraction(c, lc) for m, c in self.terms.items()})

    def substitute(self, target_ctx: RingCtx, images: "tuple[Poly, ...]") -> "Poly":
        """Evaluate under x_i -> images[i]; images live in target_ctx.

        Each power images[i]^e, and each product of them within one term, is
        bounded as in the parser: one that could expand too far is a
        RingError, raised before it is expanded, that names the term."""
        if len(images) != self.ctx.nvars:
            raise RingError("one image per source variable required")
        out = Poly.zero(target_ctx)
        cache = {}
        for m, c in self.terms.items():
            term = Poly.const(target_ctx, c)
            try:
                for i, e in enumerate(m):
                    if e:
                        if (i, e) not in cache:
                            cache[(i, e)] = _bounded_power(
                                images[i], e, RingError,
                                f"image of {self.ctx.variables[i]!r}",
                            )
                        term = _bounded_product(term, cache[(i, e)], RingError)
            except RingError as err:
                name = print_poly(Poly._trusted(self.ctx, {m: c}))
                raise RingError(f"substituting into the term {name}: {err}") from None
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
            if len(m.group(1)) > MAX_COEFF_DIGITS:
                raise ParseError(
                    f"integer literal at position {m.start(1)} has "
                    f"{len(m.group(1))} digits, too many to convert"
                )
            tokens.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    return tokens


def _coeff_bits(p: Poly) -> int:
    """An upper bound on log2(|numerator| * denominator) over p's coefficients.

    ``(n - 1).bit_length()`` is ceil(log2 n), so a coefficient 1 counts 0.
    """
    return max(
        ((abs(c.numerator) - 1).bit_length() + (c.denominator - 1).bit_length()
         for c in p.terms.values()),
        default=0,
    )


def _check_coeff_bits(bits: int, what: str, error=ParseError):
    if bits > _MAX_COEFF_BITS:
        raise error(
            f"{what} could have coefficients of more than "
            f"{MAX_COEFF_DIGITS} digits"
        )


def _bounded_product(p: Poly, q: Poly, error=ParseError) -> Poly:
    """p * q, refused with ``error`` before expanding when it could have
    more than MAX_POWER_TERMS terms or MAX_COEFF_DIGITS-digit coefficients.

    p * q has at most #p * #q terms, and at most one per monomial whose total
    degree lies between the sums of the factors' least and greatest degrees.
    A coefficient of p * q sums at most min(#p, #q) products of one
    coefficient of each factor."""
    tp, tq = len(p.terms), len(q.terms)
    if tp * tq > MAX_POWER_TERMS:
        n = p.ctx.nvars
        lo = min(map(sum, p.terms)) + min(map(sum, q.terms))
        hi = p.total_degree() + q.total_degree()
        size = min(tp * tq, comb(hi + n, n) - comb(lo - 1 + n, n))
        if size > MAX_POWER_TERMS:
            raise error(
                f"product of a {tp}-term and a {tq}-term "
                f"factor could expand to {size} terms (limit {MAX_POWER_TERMS})"
            )
    bits = _coeff_bits(p) + _coeff_bits(q) + (min(tp, tq) - 1).bit_length()
    _check_coeff_bits(bits, f"product of a {tp}-term and a {tq}-term factor", error)
    return p * q


def _bounded_power(p: Poly, e: int, error=ParseError, base="base") -> Poly:
    """p ** e, refused with ``error`` before expanding when it could have more
    than MAX_POWER_TERMS terms or MAX_COEFF_DIGITS-digit coefficients.

    The parser and :meth:`Poly.substitute` share this bound; ``base`` names
    p in the message, which also gives e and p's term count t."""
    t = len(p.terms)
    what = f"power ^{e} of a {t}-term {base}"
    if t > 1:
        # p^e has at most C(t+e-1, e) terms, and C(t+e-1, e) > e, so a
        # longer e is refused uncounted: its count could be too long to print
        size = comb(t + e - 1, e) if e <= MAX_POWER_TERMS else None
        if size is None or size > MAX_POWER_TERMS:
            raise error(
                f"{what} could expand to "
                f"{size or f'more than {MAX_POWER_TERMS}'} terms "
                f"(limit {MAX_POWER_TERMS})"
            )
    # each coefficient of p^e is at most (t * largest coefficient)^e
    _check_coeff_bits(
        e * (_coeff_bits(p) + (t - 1).bit_length()) if t else 0, what, error
    )
    return p ** e


_SIGNS = (("op", "+"), ("op", "-"))


def _differential(name: str, variables):
    """The variable v when ``name`` is its differential 'd<v>', else None."""
    return name[1:] if name[:1] == "d" and name[1:] in variables else None


class _PolyParser:
    """Recursive descent for polynomials and forms:

        expr   := ('+' | '-')* term (('+' | '-') term)*
        term   := factor ('*' factor)*
        factor := base ('^' nat)? | dchain
        base   := var | rational | '(' expr ')'
        dchain := dvar ('^' dvar)*

    A dvar is 'd<var>' for a ring variable var, and ``^`` between two of
    them is their wedge.  Differentials are read only at the top level of a
    form: a parenthesised expr is a polynomial, and so is a whole input
    parsed with ``forms=False``.
    """

    def __init__(self, text: str, ctx: RingCtx):
        self.tokens = _tokenize(text)
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

    def parse(self, forms: bool = False) -> list:
        """The whole input as its top-level terms ``(coefficient, chain)``:
        ``chain`` lists the variable indices of the term's differentials in
        the order written, and is empty unless ``forms``."""
        try:
            terms = self.terms(forms)
        except RecursionError:
            raise ParseError("parentheses nested too deeply") from None
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()!r}")
        return terms

    def terms(self, forms: bool) -> list:
        negate = False
        while self.peek() in _SIGNS:
            negate ^= self.next() == ("op", "-")
        out = []
        while True:
            p, chain = self.term(forms)
            out.append((-p if negate else p, chain))
            if self.peek() not in _SIGNS:
                return out
            negate = self.next() == ("op", "-")

    def term(self, forms: bool):
        p, chain = None, []
        while True:
            tok = self.peek()
            if forms and tok and tok[0] == "name" and _differential(
                tok[1], self.ctx.variables
            ):
                chain += self.dchain()
            else:
                q = self.factor()
                p = q if p is None else _bounded_product(p, q)
            if self.peek() != ("op", "*"):
                return (Poly.one(self.ctx) if p is None else p), tuple(chain)
            self.next()

    def dchain(self) -> list:
        chain = []
        while True:
            tok = self.next()
            v = tok[0] == "name" and _differential(tok[1], self.ctx.variables)
            if not v:
                raise ParseError(f"expected differential, got {tok!r}")
            chain.append(self.ctx.var_index(v))
            if self.peek() != ("op", "^"):
                return chain
            self.next()

    def factor(self) -> Poly:
        p = self.base()
        if self.peek() == ("op", "^"):
            self.next()
            tok = self.next()
            if tok == ("op", "-"):
                raise ParseError("negative exponent")
            if tok[0] != "int":
                raise ParseError(f"expected integer exponent, got {tok!r}")
            p = _bounded_power(p, tok[1])
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
            p = sum((q for q, _ in self.terms(False)), Poly.zero(self.ctx))
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected token {tok!r}")


def parse_poly(text: str, ctx: RingCtx) -> Poly:
    """Parse an expression over the declared variables into canonical form."""
    return sum((p for p, _ in _PolyParser(text, ctx).parse()), Poly.zero(ctx))


def _print_monomial(m: Monomial, ctx: RingCtx) -> str:
    parts = []
    for name, e in zip(ctx.variables, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def print_poly(p: Poly) -> str:
    """Deterministic printing: terms sorted descending by the ring order.

    Round-trips through :func:`parse_poly`.  A coefficient or exponent too
    long to convert to decimal, which the tokenizer would not read back
    either, is a RingError.
    """
    if p.is_zero():
        return "0"
    out = []
    for m in sorted(p.terms, key=p.ctx.monomial_key, reverse=True):
        c = p.terms[m]
        mag = abs(c)
        try:
            mono = _print_monomial(m, p.ctx)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
        except ValueError:  # str() past the interpreter's digit limit
            raise RingError(
                f"a result has a number of more than {MAX_COEFF_DIGITS} "
                f"digits, too many to print"
            ) from None
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def _check_sizes(*sizes):
    if min(sizes, default=0) < 0:
        raise RingError("negative matrix shape")


class Matrix(Frozen):
    """Immutable rectangular matrix over a ring context, with explicit shape;
    ``entries`` is a tuple of row tuples.

    Subclasses fix the entry type in ``_kind`` (a class with ``ctx``,
    ``zero(ctx)``, ``one(ctx)``, ``+``, unary ``-`` and ``is_zero``) and add
    their own products and scaling.  The constructor checks a caller's grid
    entry by entry; every matrix derived from valid ones is :meth:`_make`-built.
    """

    __slots__ = _fields = ("ctx", "rows", "cols", "entries")
    _kind = None

    def __init__(self, ctx: RingCtx, rows: int, cols: int, entries):
        entries = tuple(tuple(row) for row in entries)
        _check_sizes(rows, cols)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise RingError("entry grid does not match declared shape")
        kind = self._kind
        for row in entries:
            for e in row:
                if not isinstance(e, kind):
                    raise RingError(
                        f"{type(self).__name__} entry must be a {kind.__name__}, "
                        f"not {type(e).__name__}"
                    )
                if e.ctx is not ctx and e.ctx != ctx:
                    raise RingError("matrix entry in wrong ring context")
        super().__init__(ctx, rows, cols, entries)

    # -- constructors ------------------------------------------------------
    @classmethod
    def zeros(cls, ctx, rows, cols):
        _check_sizes(rows, cols)
        return cls._make(ctx, rows, cols, ((cls._kind.zero(ctx),) * cols,) * rows)

    @classmethod
    def diagonal(cls, ctx, size, d):
        """d on the diagonal of a size x size matrix, zero elsewhere."""
        _check_sizes(size)
        if not isinstance(d, cls._kind) or d.ctx != ctx:
            raise RingError(f"diagonal entry is not a {cls._kind.__name__} of this ring")
        z = cls._kind.zero(ctx)
        return cls._make(ctx, size, size, tuple(
            tuple(d if i == j else z for j in range(size)) for i in range(size)
        ))

    @classmethod
    def identity(cls, ctx, size):
        return cls.diagonal(ctx, size, cls._kind.one(ctx))

    @classmethod
    def blocks(cls, ctx, row_sizes, col_sizes, placed):
        """The block matrix with block rows of ``row_sizes`` and block columns
        of ``col_sizes``: ``placed`` maps a position (i, j) to its block, a
        matrix of this class over ctx, and every block that is not placed is
        zero."""
        _check_sizes(*row_sizes, *col_sizes)
        row_off, col_off = [0, *accumulate(row_sizes)], [0, *accumulate(col_sizes)]
        z = cls._kind.zero(ctx)
        grid = [[z] * col_off[-1] for _ in range(row_off[-1])]
        for (i, j), blk in placed.items():
            if not (0 <= i < len(row_sizes) and 0 <= j < len(col_sizes)):
                raise RingError(f"block ({i}, {j}) lies outside the block grid")
            if not isinstance(blk, cls):
                raise RingError(
                    f"block ({i}, {j}) is a {type(blk).__name__}, not a {cls.__name__}"
                )
            if blk.ctx != ctx:
                raise RingError(f"block ({i}, {j}) in wrong ring context")
            if (blk.rows, blk.cols) != (row_sizes[i], col_sizes[j]):
                raise RingError(
                    f"block ({i}, {j}) is {blk.rows}x{blk.cols}, "
                    f"not {row_sizes[i]}x{col_sizes[j]}"
                )
            for r, row in enumerate(blk.entries, start=row_off[i]):
                grid[r][col_off[j]:col_off[j + 1]] = row
        return cls._make(ctx, row_off[-1], col_off[-1], tuple(map(tuple, grid)))

    def map_entries(self, fn, ctx: RingCtx = None):
        """fn applied to every entry; the result lives over ctx if given.  fn
        must give entries of this kind over that ring: they are not checked."""
        return self._make(
            self.ctx if ctx is None else ctx, self.rows, self.cols,
            tuple(tuple(map(fn, row)) for row in self.entries),
        )

    # -- arithmetic --------------------------------------------------------
    def _shape_eq(self, other):
        if self.ctx != other.ctx:
            raise RingError("mismatched ring contexts")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise RingError("shape mismatch")

    def __add__(self, other):
        self._shape_eq(other)
        return self._make(
            self.ctx, self.rows, self.cols,
            tuple(tuple(map(add, r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
        )

    def __neg__(self):
        return self.map_entries(neg)

    def __sub__(self, other):
        return self + (-other)

    def trace(self):
        """Sum of the diagonal entries, an entry of the matrix's kind."""
        if self.rows != self.cols:
            raise RingError("trace of a non-square matrix")
        acc = self._kind.zero(self.ctx)
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    # -- comparison --------------------------------------------------------
    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def __repr__(self):
        return f"{type(self).__name__}({self.rows}x{self.cols})"
