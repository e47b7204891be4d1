"""Canonical exact polynomials with configurable monomial orders.

A PolyContext fixes the coefficient field, the variable list, the
distinguished deformation variable t, and how many leading variables are
adjoined inverses (they always form the greatest order block so that
contraction back to the base ring is elimination-ready).  Polynomials
are immutable and stored sorted under the context's default order, so
equal polynomials compare and hash equal and print identically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Optional, Sequence

from formalpatch import kernel
from formalpatch.fields import Field

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9']*")


def is_identifier(name: str) -> bool:
    """Is name a legal variable name: a letter, then letters, digits or '."""
    return _IDENT_RE.fullmatch(name) is not None


class PolyContext:
    """Variable list + field + default order data; immutable.

    `_cache` holds the engine's Groebner bases; prepend_vars and
    drop_prefix hand it on, so it lives as long as one ring family."""

    __slots__ = ("field", "vars", "tvar", "ninv", "_index", "order0", "_cache")

    def __init__(self, field: Field, vars: Sequence[str], tvar: Optional[str] = None, ninv: int = 0):
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise ValueError("duplicate variable names")
        for v in vars:
            if not is_identifier(v):
                raise ValueError("bad variable name %r" % (v,))
        if tvar is not None and tvar not in vars:
            raise ValueError("t variable %r not in variable list" % (tvar,))
        if not 0 <= ninv <= len(vars):
            raise ValueError("bad inverse-variable count")
        if tvar is not None and tvar in vars[:ninv]:
            raise ValueError("t cannot be an adjoined inverse")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "tvar", tvar)
        object.__setattr__(self, "ninv", ninv)
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(vars)})
        object.__setattr__(self, "order0", (self.default_blocks(), 0, ()))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, *a):
        raise AttributeError("PolyContext is immutable")

    @property
    def nvars(self) -> int:
        return len(self.vars)

    @property
    def p(self) -> int:
        return self.field.p

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError("unknown variable %r" % (name,)) from None

    def default_blocks(self):
        """Adjoined inverses as the greatest block, then the main
        variables grevlex with t sorted last."""
        main = list(range(self.ninv, len(self.vars)))
        if self.tvar is not None:
            ti = self._index[self.tvar]
            main = [i for i in main if i != ti] + [ti]
        blocks = []
        if self.ninv:
            blocks.append(tuple(range(self.ninv)))
        blocks.append(tuple(main))
        return tuple(blocks)

    def prepend_vars(self, names: Sequence[str]) -> "PolyContext":
        """Context with `names` adjoined as new greatest inverse-block
        variables (used for localization and auxiliary eliminations)."""
        names = tuple(names)
        for n in names:
            if n in self._index:
                raise ValueError("variable %r already present" % (n,))
        return self._derive(names + self.vars, self.ninv + len(names))

    def drop_prefix(self, k: int) -> "PolyContext":
        """Context with the first k (inverse) variables removed."""
        if k > self.ninv:
            raise ValueError("can only drop adjoined inverse variables")
        return self._derive(self.vars[k:], self.ninv - k)

    def _derive(self, vars, ninv) -> "PolyContext":
        ctx = PolyContext(self.field, vars, self.tvar, ninv)
        object.__setattr__(ctx, "_cache", self._cache)
        return ctx

    def fresh_name(self, stem: str) -> str:
        name = stem
        n = 0
        while name in self._index:
            n += 1
            name = "%s%d" % (stem, n)
        return name

    def __eq__(self, other):
        return (
            isinstance(other, PolyContext)
            and self.field == other.field
            and self.vars == other.vars
            and self.tvar == other.tvar
            and self.ninv == other.ninv
        )

    def __hash__(self):
        return hash((self.field, self.vars, self.tvar, self.ninv))

    def __repr__(self):
        return "PolyContext(%s; vars=%s; t=%s; ninv=%d)" % (
            self.field,
            ",".join(self.vars),
            self.tvar,
            self.ninv,
        )


@dataclass(frozen=True)
class MonomialOrder:
    """grevlex | lex | block (ordered partition, each block grevlex)."""

    kind: str = "grevlex"
    blocks: tuple = ()

    def descriptor(self, context: PolyContext):
        if self.kind == "grevlex":
            return (context.default_blocks(), 0, ())
        if self.kind == "lex":
            return (tuple((i,) for i in range(context.nvars)), 0, ())
        if self.kind == "block":
            seen = []
            out = []
            for blk in self.blocks:
                out.append(tuple(context.index(v) for v in blk))
                seen.extend(blk)
            if sorted(seen) != sorted(context.vars):
                raise ValueError("block order must cover every variable exactly once")
            return (tuple(out), 0, ())
        raise ValueError("unknown order kind %r" % (self.kind,))


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def block_order(*blocks: Sequence[str]) -> MonomialOrder:
    return MonomialOrder("block", tuple(tuple(b) for b in blocks))


@total_ordering
class Monomial:
    """A single monomial in a context; comparison uses the context's
    default order.  Zero exponents never appear in as_dict()."""

    __slots__ = ("context", "exps")

    def __init__(self, context: PolyContext, exps):
        self.context = context
        self.exps = tuple(exps)
        assert len(self.exps) == context.nvars
        assert all(e >= 0 for e in self.exps)

    def exponent(self, name: str) -> int:
        return self.exps[self.context.index(name)]

    def as_dict(self):
        return {v: e for v, e in zip(self.context.vars, self.exps) if e}

    @property
    def degree(self) -> int:
        return kernel.mono_deg(self.exps)

    def __mul__(self, other):
        return Monomial(self.context, kernel.mono_mul(self.exps, other.exps))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps and self.context == other.context

    def __lt__(self, other):
        return kernel.cmp_mono(self.exps, other.exps, self.context.order0[0]) < 0

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return mono_text(self.context, self.exps) or "1"


def mono_text(context: PolyContext, exps) -> str:
    parts = []
    for v, e in zip(context.vars, exps):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append("%s^%d" % (v, e))
    return "*".join(parts)


class Polynomial:
    """Immutable exact polynomial; terms stored strictly descending
    under the context default order with no zero coefficients."""

    __slots__ = ("context", "terms")

    def __init__(self, context: PolyContext, terms, _canonical=False):
        self.context = context
        if _canonical:
            self.terms = terms
        else:
            self.terms = kernel.canon_vec(terms, context.order0, context.p)

    @classmethod
    def zero(cls, context: PolyContext) -> "Polynomial":
        return cls(context, (), _canonical=True)

    @classmethod
    def const(cls, context: PolyContext, c) -> "Polynomial":
        c = context.field.of_int(c) if isinstance(c, int) else c
        if c == 0:
            return cls.zero(context)
        return cls(context, (((kernel.mono_one(context.nvars), 0), c),), _canonical=True)

    @classmethod
    def one(cls, context: PolyContext) -> "Polynomial":
        return cls.const(context, 1)

    @classmethod
    def var(cls, context: PolyContext, name: str, power: int = 1) -> "Polynomial":
        i = context.index(name)
        mono = tuple(power if j == i else 0 for j in range(context.nvars))
        return cls(context, (((mono, 0), context.field.one),), _canonical=True)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.context != self.context:
                raise ValueError("mixed polynomial contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(self.context, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        ctx = self.context
        return Polynomial(ctx, kernel.add_vec(self.terms, other.terms, ctx.order0, ctx.p), _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.context, kernel.neg_vec(self.terms, self.context.p), _canonical=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        ctx = self.context
        return Polynomial(ctx, kernel.mul_vec_poly(self.terms, other.terms, ctx.order0, ctx.p), _canonical=True)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.one(self.context)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.context, other)
        return (
            isinstance(other, Polynomial)
            and self.context == other.context
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.context, self.terms))

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return Monomial(self.context, self.terms[0][0][0])

    def rename_into(self, other: PolyContext) -> "Polynomial":
        """Reinterpret in a context sharing a suffix (or superset) of
        variables; every used variable must exist there."""
        out = []
        for (m, _), c in self.terms:
            exps = [0] * other.nvars
            for i, e in enumerate(m):
                if e:
                    exps[other.index(self.context.vars[i])] = e
            out.append((((tuple(exps)), 0), c))
        return Polynomial(other, out)

    def __repr__(self):
        return canonical_text(self)


def canonical_text(p: Polynomial, order: Optional[MonomialOrder] = None) -> str:
    """Deterministic text; terms descend under `order` (default: the
    context order).  Equal polynomials give byte-identical text."""
    ctx = p.context
    terms = p.terms
    if order is not None:
        terms = kernel.canon_vec(terms, order.descriptor(ctx), ctx.p)
    if not terms:
        return "0"
    chunks = []
    for (mono, _), coeff in terms:
        negative = ctx.p == 0 and coeff < 0
        mag = -coeff if negative else coeff
        mt = mono_text(ctx, mono)
        if not mt:
            body = ctx.field.text(mag)
        elif mag == 1:
            body = mt
        else:
            body = "%s*%s" % (ctx.field.text(mag), mt)
        if not chunks:
            chunks.append("-" + body if negative else body)
        else:
            chunks.append(("- " if negative else "+ ") + body)
    return " ".join(chunks)


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__("%s at position %d" % (message, pos))
        self.pos = pos


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._lex()
        self.i = 0

    def _lex(self):
        text = self.text
        n = len(text)
        i = 0
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.tokens.append(("int", int(text[i:j]), i))
                i = j
                continue
            m = _IDENT_RE.match(text, i)
            if m:
                self.tokens.append(("ident", m.group(0), i))
                i = m.end()
                continue
            if ch in "+-*^()/":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ParseError("unexpected character %r" % ch, i)
        self.tokens.append(("end", None, n))

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok


def parse_poly(text: str, context: PolyContext) -> Polynomial:
    """Parse the grammar: integers, p/q rational literals, declared
    identifiers, + - * ^ and parentheses; ^ binds tightest, then unary
    minus, then *, then + and -.  Errors carry the offending position."""
    lx = _Lexer(text)

    def parse_expr():
        node = parse_term()
        while lx.peek()[0] in "+-":
            op = lx.next()[0]
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        node = parse_unary()
        while lx.peek()[0] == "*":
            lx.next()
            node = node * parse_unary()
        return node

    def parse_unary():
        if lx.peek()[0] == "-":
            lx.next()
            return -parse_unary()
        return parse_power()

    def parse_power():
        base = parse_primary()
        if lx.peek()[0] == "^":
            lx.next()
            kind, val, pos = lx.next()
            if kind != "int":
                raise ParseError("exponent must be an integer literal", pos)
            try:
                if val > kernel.EXP_LIMIT:
                    raise OverflowError
                return base ** val
            except OverflowError:
                raise ParseError("exponent too large (the limit is %d)" % kernel.EXP_LIMIT, pos) from None
        return base

    def parse_primary():
        kind, val, pos = lx.next()
        if kind == "int":
            if lx.peek()[0] == "/":
                lx.next()
                k2, v2, p2 = lx.next()
                if k2 != "int":
                    raise ParseError("rational literal needs an integer denominator", p2)
                if v2 == 0:
                    raise ParseError("zero denominator literal", p2)
                return Polynomial.const(context, context.field.of_ratio(val, v2))
            return Polynomial.const(context, context.field.of_ratio(val, 1))
        if kind == "ident":
            try:
                context.index(val)
            except KeyError:
                raise ParseError("unknown variable %r" % val, pos) from None
            return Polynomial.var(context, val)
        if kind == "(":
            node = parse_expr()
            k2, _, p2 = lx.next()
            if k2 != ")":
                raise ParseError("expected ')'", p2)
            return node
        raise ParseError("unexpected token %r" % (val if val is not None else kind), pos)

    node = parse_expr()
    kind, val, pos = lx.peek()
    if kind != "end":
        raise ParseError("trailing input %r" % (val,), pos)
    return node
