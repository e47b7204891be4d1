"""Pure-Python hot kernel: monomial/term arithmetic and polynomial-vector
reduction.

This module and its compiled twin (_kernel_cy) implement the same API on
the same flat representation; `formalpatch.kernel` picks one at import.
Everything here is a pure function so results are independent of backend.

Representation
--------------
monomial   tuple of ints, one exponent per variable (dense, small).
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

Reduction
---------
nf_vec keeps its working vector as a sparse accumulator (a dict term ->
coeff) beside a heap of (key, term) entries whose least key is the
greatest term; each step folds one multiple of a basis element into the
dict, and entries for cancelled or already popped terms are skipped when
they surface (lazy deletion).  Its heap key is the negation of
term_sortkey.  term_sortkey itself stays an ascending key: the S-pair
heap in engine._buchberger breaks ties with it, so the pairs a run pops,
which a cached basis replays against a Budget, depend on it.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

EXP_LIMIT = 1 << 60


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


def _heap_key(order, nvars):
    """Key function with key(a) < key(b) exactly when term a is greater
    under `order`: the negation of term_sortkey, so that a min-heap pops
    the greatest term first.  A single block covering variables
    0..nvars-1 in index order, term over position, with no position
    grouping (plain grevlex) takes a shorter key of the same ordering."""
    blocks, policy, posgroup = order
    if not posgroup and policy == 0 and len(blocks) == 1 and blocks[0] == tuple(range(nvars)):
        def key(term):
            mono = term[0]
            return ((-sum(mono), mono[::-1]), term[1])
        return key

    def key(term):
        mono, pos = term
        g = posgroup[pos] if posgroup else 0
        mk = tuple(
            (-sum(mono[i] for i in blk), tuple(mono[i] for i in reversed(blk)))
            for blk in blocks
        )
        if policy == 1:
            return (g, pos, mk)
        return (g, mk, pos)
    return key


def nf_vec(u, basis, order, p):
    """Fully reduced normal form of u against basis (a sequence of vecs
    with nonzero leads).  Scans terms from the greatest, reduces by the
    first basis element whose lead divides; deterministic.

    Terms of u above its first reducible term are read in order and are
    already in normal form.  From the first reduction on, the working
    vector is a sparse accumulator (a dict term -> coeff) plus a heap of
    (key, term) entries that yields its greatest term.  Reducing a term
    by g folds -factor * q * g[1:] into the dict (g's lead cancels the
    term exactly, so it is never added) and pushes a heap entry only for
    a term new to the dict, so a step costs the length of g rather than
    of the whole working vector.  Deletion is lazy: an entry whose term
    was cancelled, or popped already, is skipped when it comes off the
    heap.  Every product q * m still goes through mono_mul and its
    EXP_LIMIT check."""
    done = []
    heap = None
    i, n = 0, len(u)
    while True:
        if heap is None:
            if i == n:
                break
            term, tc = u[i]
            i += 1
        else:
            if not heap:
                break
            term = heappop(heap)[1]
            tc = acc.pop(term, None)
            if tc is None:
                continue
        tm, tp = term
        for g in basis:
            (gm, gp), gc = g[0]
            if gp == tp and mono_divides(gm, tm):
                break
        else:
            done.append((term, tc))
            continue
        if heap is None:
            key = _heap_key(order, len(tm))
            acc = dict(u[i:])
            heap = [(key(t), t) for t in acc]
            heapify(heap)
        q = mono_div(tm, gm)
        factor = -tc if gc == 1 else -tc * coeff_inv(gc, p)
        if p:
            factor %= p
        for (m, pos), c in g[1:]:
            t = (mono_mul(q, m), pos)
            c = factor * c
            if p:
                c %= p
            old = acc.get(t)
            if old is None:
                acc[t] = c
                heappush(heap, (key(t), t))
            else:
                c += old
                if p:
                    c %= p
                if c:
                    acc[t] = c
                else:
                    del acc[t]
    return tuple(done)


def _scaled_tail(u, mono, coeff, p, negate):
    """coeff * mono * u[1:], negated when `negate`; the product with a
    unit coefficient is skipped."""
    out = []
    for (m, pos), c in u[1:]:
        if coeff != 1:
            c = coeff * c
            if p:
                c %= p
                if c == 0:
                    continue
        if negate:
            c = p - c if p else -c
        out.append(((mono_mul(mono, m), pos), c))
    return tuple(out)


def spair_vec(f, g, order, p):
    """S-vector of f and g; leads must sit in the same position.  The
    scaled leads cancel exactly, so only the tails are formed, f's
    scaled by 1/lc(f) and g's by -1/lc(g), and merged."""
    (mf, pf), cf = f[0]
    (mg, pg), cg = g[0]
    l = mono_lcm(mf, mg)
    a = _scaled_tail(f, mono_div(l, mf), coeff_inv(cf, p), p, False)
    b = _scaled_tail(g, mono_div(l, mg), coeff_inv(cg, p), p, True)
    return add_vec(a, b, order, p)


BACKEND = "python"
