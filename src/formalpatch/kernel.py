"""The hot kernel: monomial/term arithmetic and polynomial-vector
reduction, in pure Python.  The layers above call it through this
module's names (`kernel.nf_vec`, ...), so that these names are the one
place a tracer or a test counter wraps kernel calls.

Representation
--------------
monomial   tuple of ints, one exponent per variable (dense, small), at
           most EXP_LIMIT each.
term       (monomial, position); position 0 for ring elements.
vec        tuple of ((monomial, position), coeff) pairs, strictly
           descending under the active order, no zero coefficients.
coeff      Fraction when p == 0, else int in [1, p).
order      (blocks, policy, posgroup):
           blocks    tuple of tuples of variable indices; each block is
                     compared by graded reverse lex, blocks in sequence
                     (lex = singleton blocks; elimination = front block).
           policy    0 = term-over-position, 1 = position-over-term;
                     lower positions are greater either way.
           posgroup  tuple mapping position -> group, compared before
                     everything (lower group greater); () means trivial.

Packed terms
------------
Inside the Groebner engine a term is one int, laid out by a Layout (one
per order and variable count), from the least significant bit:

  exponents  one 62-bit field per variable: 61 value bits and a guard
             bit above them, always 0 in a valid term;
  position   24 bits;
  key        everything above: a signed linear form in the exponents,
             the position and its group, whose value ascends exactly as
             term_sortkey descends.  Each digit of term_sortkey (the
             group, each block's degree and its reversed exponents, the
             position) is one base-2^b digit, b = 63 + bit_length(nvars),
             wide enough for any block degree; the first exponent of a
             block is left out, being fixed by the degree and the rest.

So packed terms compare as their terms do (greater term, smaller int),
and everything is linear: the product q*m of a monomial q (position 0)
and a term m is the sum of their ints, key included.  Divisibility is one
test: lead l divides term t in the same position exactly when
(t - l) & guards is 0, since a field that would go negative borrows from
its own guard bit.  A product's exponents reach EXP_LIMIT = 2^60 only
when the top value bit or the guard bit of a field is set (`high`); only
then are the fields compared with EXP_LIMIT, and one past it raises
OverflowError, as mono_mul does.  lcm is a field-wise maximum with the
same guard-bit borrow (Layout.lcm).  This is the packed exponent vector
of Bachmann and Schoenemann (ISSAC 1998) and of Monagan and Pearce (CASC
2007), with the term order folded into the same int.

Reduction
---------
nf_vec reduces against a Reducer: a basis packed once, its elements
grouped by position, each tail scaled to a monic lead.  A SubmoduleBasis
builds its Reducer on first use and keeps it for its life; a Groebner
run (engine._buchberger) keeps one that grows as elements join G, and
interreduces its result against the kept elements' entries.  Tuple vecs
and plain sequences of vecs are still accepted, packed for the one call.

The working vector is a sparse accumulator (a dict packed term -> coeff)
beside a heap of packed terms, whose least entry is the greatest term;
the terms of u before its first reducible one are read in order, and
from there each step folds one multiple q*g of a basis element into the
dict (g's lead cancels the term, so it is never added).  Over F_p the
accumulated coefficients are reduced mod p only when their term comes
off the heap, where a cancelled term is skipped.  The divisor of a term
is the first element of its position whose lead divides it.

term_sortkey stays the reference order: the S-pair heap of a Groebner
run breaks ties by the packed sort key (Layout.sortkey), which sorts as
term_sortkey does, so the pairs a run pops, which a cached basis
replays against a Budget, are those of the tuple kernel.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush
from operator import mul

EXP_LIMIT = 1 << 60
EXP_BITS = 61  # bits of a packed exponent field, below its guard bit
_FIELD_BITS = EXP_BITS + 1
_FIELD_MASK = (1 << EXP_BITS) - 1
_POS_BITS = 24
_POS_MASK = (1 << _POS_BITS) - 1


def mono_one(nvars):
    return (0,) * nvars


def mono_mul(a, b):
    out = []
    for x, y in zip(a, b):
        s = x + y
        if s > EXP_LIMIT:
            raise OverflowError("monomial exponent overflow")
        out.append(s)
    return tuple(out)


def mono_div(a, b):
    """a / b, or None when b does not divide a."""
    out = []
    for x, y in zip(a, b):
        d = x - y
        if d < 0:
            return None
        out.append(d)
    return tuple(out)


def mono_divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def mono_lcm(a, b):
    return tuple(x if x >= y else y for x, y in zip(a, b))


def mono_deg(a):
    return sum(a)


def cmp_mono(a, b, blocks):
    for blk in blocks:
        da = 0
        db = 0
        for i in blk:
            da += a[i]
            db += b[i]
        if da != db:
            return -1 if da < db else 1
        for k in range(len(blk) - 1, -1, -1):
            i = blk[k]
            if a[i] != b[i]:
                # grevlex tiebreak: larger exponent in the latest
                # differing variable means the smaller monomial
                return 1 if a[i] < b[i] else -1
    return 0


def cmp_term(ta, tb, order):
    blocks, policy, posgroup = order
    ma, pa = ta
    mb, pb = tb
    if posgroup:
        ga = posgroup[pa]
        gb = posgroup[pb]
        if ga != gb:
            return 1 if ga < gb else -1
    if policy == 1:
        if pa != pb:
            return 1 if pa < pb else -1
        return cmp_mono(ma, mb, blocks)
    c = cmp_mono(ma, mb, blocks)
    if c:
        return c
    if pa != pb:
        return 1 if pa < pb else -1
    return 0


def term_sortkey(term, order):
    """Ascending sort key equivalent to cmp_term."""
    blocks, policy, posgroup = order
    mono, pos = term
    g = posgroup[pos] if posgroup else 0
    mk = tuple(
        (sum(mono[i] for i in blk), tuple(-mono[i] for i in reversed(blk)))
        for blk in blocks
    )
    if policy == 1:
        return (-g, -pos, mk)
    return (-g, mk, -pos)


def coeff_inv(c, p):
    if c == 1:
        return c
    if p == 0:
        return 1 / c
    return pow(c, p - 2, p)


def canon_vec(pairs, order, p):
    """Merge duplicate terms, drop zeros, sort strictly descending."""
    acc = {}
    for term, coeff in pairs:
        if term in acc:
            c = acc[term] + coeff
            if p:
                c %= p
            if c == 0:
                del acc[term]
            else:
                acc[term] = c
        elif coeff != 0:
            acc[term] = coeff
    if len(acc) < 2:
        return tuple(acc.items())
    lay = layout(order, len(next(iter(acc))[0]))
    pack, shift = lay.pack, lay.keyshift
    try:
        # the packed key ascends as term_sortkey descends, ties alike
        items = sorted(acc.items(), key=lambda tc: pack(tc[0]) >> shift)
    except OverflowError:  # an exponent past EXP_LIMIT has no packed key
        items = sorted(acc.items(), key=lambda tc: term_sortkey(tc[0], order), reverse=True)
    return tuple(items)


def add_vec(u, v, order, p):
    out = []
    i = 0
    j = 0
    nu = len(u)
    nv = len(v)
    while i < nu and j < nv:
        tu, cu = u[i]
        tv, cv = v[j]
        c = cmp_term(tu, tv, order)
        if c > 0:
            out.append(u[i])
            i += 1
        elif c < 0:
            out.append(v[j])
            j += 1
        else:
            s = cu + cv
            if p:
                s %= p
            if s != 0:
                out.append((tu, s))
            i += 1
            j += 1
    out.extend(u[i:])
    out.extend(v[j:])
    return tuple(out)


def neg_vec(u, p):
    if p:
        return tuple((t, p - c) for t, c in u)
    return tuple((t, -c) for t, c in u)


def scale_vec(u, coeff, mono, p):
    """coeff * mono * u; order of terms is preserved."""
    if coeff == 0:
        return ()
    out = []
    for (m, pos), c in u:
        cc = coeff * c
        if p:
            cc %= p
            if cc == 0:
                continue
        out.append(((mono_mul(mono, m), pos), cc))
    return tuple(out)


def mul_vec_poly(u, poly, order, p):
    """u * poly where poly is a rank-1 vec (positions ignored)."""
    acc = ()
    for (m, _), c in poly:
        acc = add_vec(acc, scale_vec(u, c, m, p), order, p)
    return acc


def monic_vec(u, p):
    if not u:
        return u
    c0 = u[0][1]
    if c0 == 1:
        return u
    inv = coeff_inv(c0, p)
    if p:
        return tuple((t, c * inv % p) for t, c in u)
    return tuple((t, c * inv) for t, c in u)


class Layout:
    """The packing of the terms of one order over `nvars` variables (see
    "Packed terms" above); `layout` builds one per (order, nvars)."""

    __slots__ = ("order", "shifts", "weights", "guards", "high", "emask", "posshift",
                 "keyshift", "_degmask", "_group_w", "_pos_w", "_posterms")

    def __init__(self, order, nvars):
        blocks, policy, posgroup = order
        self.order = order
        self.shifts = tuple(range(0, nvars * _FIELD_BITS, _FIELD_BITS))
        self.guards = sum(1 << (s + EXP_BITS) for s in self.shifts)
        # the guard bit and the top bit of every field: set when a field
        # reaches 2^60, the one place an exponent may pass EXP_LIMIT
        self.high = sum(3 << (s + EXP_BITS - 1) for s in self.shifts)
        # below these bits the fields sum to less than 2^_FIELD_BITS - 1,
        # which is then their sum modulo that number
        top = (1 << _FIELD_BITS) - (1 << (_FIELD_BITS - nvars.bit_length()))
        self._degmask = sum(top << s for s in self.shifts)
        self.posshift = nvars * _FIELD_BITS
        self.emask = (1 << self.posshift) - 1
        self.keyshift = self.posshift + _POS_BITS
        # the digits of term_sortkey, most significant first, each a
        # linear form: {variable: coefficient} or "group" / "pos".  The
        # first variable of a block is left out: the block degree and
        # the others fix it.
        mono = []
        for blk in blocks:
            mono.append({i: 1 for i in blk})
            mono.extend({i: -1} for i in reversed(blk[1:]))
        digits = (["group"] if posgroup else []) + (
            ["pos"] + mono if policy == 1 else mono + ["pos"]
        )
        # signed digits of magnitude below base/4 (block degrees are at
        # most nvars * EXP_LIMIT) compare lexicographically
        base = EXP_BITS + nvars.bit_length() + 2
        kw = [0] * nvars
        self._group_w = self._pos_w = 0
        for j, digit in enumerate(reversed(digits)):
            w = 1 << (base * j)
            if digit == "group":
                self._group_w = w
            elif digit == "pos":
                self._pos_w = w
            else:
                for i, c in digit.items():
                    kw[i] -= c * w  # the key is the negated sort key
        self.weights = tuple((k << self.keyshift) + (1 << s) for k, s in zip(kw, self.shifts))
        self._posterms = {}

    def posterm(self, pos):
        """The packed term of the unit vector e_pos."""
        t = self._posterms.get(pos)
        if t is None:
            if not 0 <= pos < 1 << _POS_BITS:
                raise OverflowError("position %d out of range" % pos)
            group = self.order[2][pos] if self.order[2] else 0
            key = group * self._group_w + pos * self._pos_w
            t = self._posterms[pos] = (key << self.keyshift) + (pos << self.posshift)
        return t

    def pack(self, term):
        mono, pos = term
        if mono and max(mono) > EXP_LIMIT:
            raise OverflowError("monomial exponent overflow")
        base = self._posterms.get(pos)
        if base is None:
            base = self.posterm(pos)
        return base + sum(map(mul, mono, self.weights))

    def pack_vec(self, vec):
        pack = self.pack
        return tuple([(pack(t), c) for t, c in vec])

    def canon(self, pairs, p):
        """canon_vec of `pairs`, packed."""
        acc = {}
        pack = self.pack
        for term, coeff in pairs:
            t = pack(term)
            if t in acc:
                c = acc[t] + coeff
                if p:
                    c %= p
                if c == 0:
                    del acc[t]
                else:
                    acc[t] = c
            elif coeff != 0:
                acc[t] = coeff
        return tuple(sorted(acc.items()))

    def unpack(self, t):
        return self.mono(t), (t >> self.posshift) & _POS_MASK

    def mono(self, t):
        return tuple([(t >> s) & _FIELD_MASK for s in self.shifts])

    def check(self, t):
        """Raise OverflowError when an exponent of t passes EXP_LIMIT;
        the exact test behind a set `high` bit."""
        if any((t >> s) & _FIELD_MASK > EXP_LIMIT or (t >> s) & (1 << EXP_BITS) for s in self.shifts):
            raise OverflowError("monomial exponent overflow")

    def unpack_vec(self, vec):
        unpack = self.unpack
        return tuple([(unpack(t), c) for t, c in vec])

    def term(self, e, pos):
        """The packed term of exponents `e` (a packed term's low bits) in
        position pos."""
        base = self._posterms.get(pos)
        if base is None:
            base = self.posterm(pos)
        return base + sum(map(mul, [(e >> s) & _FIELD_MASK for s in self.shifts], self.weights))

    def sortkey(self, t):
        """An int that sorts as term_sortkey sorts the term t."""
        return -(t >> self.keyshift)

    def pos(self, t):
        return (t >> self.posshift) & _POS_MASK

    def deg(self, e):
        """Total degree of packed exponents e."""
        if e & self._degmask:
            return sum(self.mono(e))
        return e % ((1 << _FIELD_BITS) - 1)

    def lcm(self, a, b):
        """Field-wise maximum of two packed exponent vectors: each field
        of (b | guards) - a keeps its guard bit exactly where b's field
        is the larger, which spreads into a mask of b's fields."""
        ge = (((b | self.guards) - a) & self.guards) >> EXP_BITS
        ge = (ge << EXP_BITS) - ge
        return (b & ge) | (a & ~ge)


@lru_cache(maxsize=1024)
def layout(order, nvars):
    return Layout(order, nvars)


class Reducer:
    """A basis packed for nf_vec: per position, its elements in basis
    order as [lead, room, tail], with tail scaled by 1/lc(lead).  room is
    the field-wise maximum of the tail's exponents, found on the
    element's first use, so that one guard test per reduction step covers
    every product the step forms."""

    __slots__ = ("layout", "p", "elems", "groups")

    def __init__(self, layout, p, vecs=()):
        self.layout = layout
        self.p = p
        self.elems = []
        self.groups = {}
        for v in vecs:
            self.append(v)

    def _tail(self, v):
        p = self.p
        lc = v[0][1]
        if lc == 1:
            return v[1:]
        inv = coeff_inv(lc, p)
        return tuple([(t, c * inv % p if p else c * inv) for t, c in v[1:]])

    def _add(self, entry):
        self.elems.append(entry)
        self.groups.setdefault(self.layout.pos(entry[0]), []).append(entry)

    def append(self, v):
        """Add the packed vec v (nonzero) after the elements so far."""
        self._add([v[0][0], None, self._tail(v)])

    def replace(self, k, v):
        """Put v, of the same lead, in place of element k."""
        self.elems[k][1:] = None, self._tail(v)

    def subset(self, ks):
        """A Reducer of elements ks, in that order; it shares their
        entries with this one."""
        out = Reducer(self.layout, self.p)
        for k in ks:
            out._add(self.elems[k])
        return out

    def room(self, entry):
        lcm, emask = self.layout.lcm, self.layout.emask
        room = 0
        for t, _ in entry[2]:
            room = lcm(room, t & emask)
        entry[1] = room
        return room


def _reduce(u, R, p, first=False):
    """Normal form of the packed vec u against R: None when no term of u
    is reducible (with `first`, when u's greatest term is not), else (its
    terms in order, how many of them lead u as they are); with `first`,
    up to its greatest term only."""
    lay = R.layout
    groups, guards, high, posshift = R.groups, lay.guards, lay.high, lay.posshift
    i, n = 0, len(u)
    while True:
        if i == n:
            return None
        t, tc = u[i]
        i += 1
        for g in groups.get((t >> posshift) & _POS_MASK, ()):
            q = t - g[0]
            if not q & guards:
                break
        else:
            if first:
                return None
            continue
        break
    kept = i - 1
    done = list(u[:kept])
    acc = dict(u[i:])
    heap = [t for t, _ in u[i:]]  # ascending: a heap already
    get = acc.get
    # coefficients over F_p are reduced mod p only when their term comes
    # off the heap; a term that cancels stays in acc, at 0 mod p
    while True:
        room = g[1]
        if room is None:
            room = R.room(g)
        if (q + room) & high:
            lay.check(q + room)
        f = p - tc if p else -tc
        for m, c in g[2]:
            s = q + m
            old = get(s)
            if old is None:
                acc[s] = f * c
                heappush(heap, s)
            else:
                acc[s] = old + f * c
        # the next term to reduce
        while heap:
            t = heappop(heap)
            tc = acc.pop(t, None)
            if tc is None:
                continue
            if p:
                tc %= p
            if not tc:
                continue
            for g in groups.get((t >> posshift) & _POS_MASK, ()):
                q = t - g[0]
                if not q & guards:
                    break
            else:
                done.append((t, tc))
                if first:
                    return done, kept
                continue
            break
        else:
            return done, kept


def nf_vec(u, basis, order, p, first=False):
    """Fully reduced normal form of u against basis; deterministic: terms
    are scanned from the greatest, each reduced by the first basis
    element whose lead divides it.  With `first`, only the greatest term
    of the normal form, which is all a membership test needs: it is
    final once it is irreducible.

    `basis` is a Reducer, or a sequence of vecs with nonzero leads (then
    packed for this call).  u is a vec, packed when its terms are ints
    (the result is then packed too, and is u itself when u is already
    reduced) and a tuple vec otherwise."""
    if not u:
        return ()
    if type(basis) is not Reducer:
        if not basis:
            return tuple(u[:1] if first else u)
        lay = layout(order, len(u[0][0][0]))
        basis = Reducer(lay, p, [lay.pack_vec(g) for g in basis])
    if type(u[0][0]) is int:
        out = _reduce(u, basis, p, first)
        if out is None:
            return u[:1] if first else u
        return tuple(out[0])
    lay = basis.layout
    out = _reduce(lay.pack_vec(u), basis, p, first)
    if out is None:
        return tuple(u[:1] if first else u)
    done, kept = out
    unpack = lay.unpack
    return tuple(u[:kept]) + tuple([(unpack(t), c) for t, c in done[kept:]])


def spair_vec(f, g, order, p, lcm=None):
    """S-vector of f and g; leads must sit in the same position.  The
    scaled leads cancel exactly, so only the tails are formed, f's
    scaled by 1/lc(f) and g's by -1/lc(g), and merged.

    With a Layout for `order`, f and g are packed vecs and so is the
    result; otherwise they are tuple vecs.  A caller that holds the
    packed lcm term of the two leads (Layout only) passes it as `lcm`."""
    if type(order) is Layout:
        return _spair(f, g, order, p, lcm)
    lay = layout(order, len(f[0][0][0]))
    return lay.unpack_vec(_spair(lay.pack_vec(f), lay.pack_vec(g), lay, p))


def _spair(f, g, lay, p, l=None):
    tf, cf = f[0]
    tg, cg = g[0]
    if l is None:
        emask = lay.emask
        l = lay.term(lay.lcm(tf & emask, tg & emask), lay.pos(tf))
    a = _scaled_tail(f, l - tf, coeff_inv(cf, p), p, False, lay)
    b = _scaled_tail(g, l - tg, coeff_inv(cg, p), p, True, lay)
    # merge the two ascending runs; equal terms add
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ta = a[i][0]
        tb = b[j][0]
        if ta < tb:
            out.append(a[i])
            i += 1
        elif tb < ta:
            out.append(b[j])
            j += 1
        else:
            c = a[i][1] + b[j][1]
            if p:
                c %= p
            if c:
                out.append((ta, c))
            i += 1
            j += 1
    out += a[i:]
    out += b[j:]
    return tuple(out)


def _scaled_tail(u, q, coeff, p, negate, lay):
    """coeff * q * u[1:] over packed terms, negated when `negate`; the
    product with a unit coefficient is skipped."""
    high = lay.high
    out = []
    for m, c in u[1:]:
        if coeff != 1:
            c = coeff * c
            if p:
                c %= p
                if c == 0:
                    continue
        if negate:
            c = p - c if p else -c
        t = q + m
        if t & high:
            lay.check(t)
        out.append((t, c))
    return out


BACKEND = "python"
