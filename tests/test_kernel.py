"""The kernel's reducer (`kernel.nf_vec`, over packed terms) must
return exactly what the merge-based reducer it replaced returns, and
its S-vector (`kernel.spair_vec`) exactly the sum of the two whole
scaled vectors: the same terms in the same order, with the same
coefficients.  The packed terms themselves (`kernel.Layout`) must
sort as term_sortkey sorts, multiply by adding and divide by a mask
test."""

import random
from fractions import Fraction

import pytest

from formalpatch import kernel as kpy

# Three variables; ranks up to 3 (the position grouping covers positions
# 0..2).
ORDERS = [
    (((0, 1, 2),), 0, ()),              # graded reverse lex, term over position
    (((0,), (1, 2)), 0, ()),            # elimination block in front
    (((0, 1, 2),), 1, ()),              # position over term
    (((0, 1, 2),), 0, (0, 0, 1)),       # grouped positions
    (((0,), (1, 2)), 1, (0, 1, 1)),     # several blocks, grouping and position over term
    (((0, 2, 1),), 0, ()),              # one block, variables not in index order
]
NON_COVERING = (((0, 1),), 0, ())       # a block over x, y only
PRIMES = [0, 7, 32003]


def nf_vec_merge(u, basis, order, p):
    """The reducer before the heap: re-merges the whole remaining vector
    at every reduction step.  Kept as the reference."""
    done = []
    work = list(u)
    while work:
        (tm, tp), tc = work[0]
        red = None
        for g in basis:
            (gm, gp), gc = g[0]
            if gp == tp and kpy.mono_divides(gm, tm):
                red = g
                break
        if red is None:
            done.append(work.pop(0))
            continue
        (gm, gp), gc = red[0]
        q = kpy.mono_div(tm, gm)
        factor = tc * kpy.coeff_inv(gc, p)
        if p:
            factor %= p
        step = kpy.neg_vec(kpy.scale_vec(red, factor, q, p), p)
        work = list(kpy.add_vec(tuple(work), step, order, p))
    return tuple(done)


def random_coeff(rng, p):
    if p:
        return rng.randrange(1, p)
    return Fraction(rng.choice([-1, 1]) * rng.randrange(1, 9), rng.randrange(1, 5))


def random_vec(rng, p, order, rank, nterms, maxexp):
    pairs = [
        ((tuple(rng.randrange(0, maxexp + 1) for _ in range(3)), rng.randrange(rank)),
         random_coeff(rng, p))
        for _ in range(nterms)
    ]
    return kpy.canon_vec(pairs, order, p)


def random_case(rng, p, order, rank):
    basis = []
    for _ in range(rng.randrange(1, 5)):
        g = random_vec(rng, p, order, rank, rng.randrange(1, 4), 2)
        if g:
            basis.append(g)
    u = random_vec(rng, p, order, rank, rng.randrange(1, 9), 4)
    return u, basis


@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("order", ORDERS)
def test_matches_merge_reducer(order, p, rank):
    rng = random.Random("nf:%r:%d:%d" % (order, p, rank))
    reduced = 0
    for _ in range(25):
        u, basis = random_case(rng, p, order, rank)
        got = kpy.nf_vec(u, basis, order, p)
        assert got == nf_vec_merge(u, basis, order, p)
        reduced += got != u
        if p == 0:
            assert all(type(c) is Fraction for _, c in got)
    assert reduced  # the cases do reduce, not only pass through


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("order", ORDERS)
def test_empty_input_and_empty_basis(order, p):
    rng = random.Random(p)
    u = random_vec(rng, p, order, 3, 6, 4)
    assert kpy.nf_vec((), [u], order, p) == ()
    assert kpy.nf_vec(u, [], order, p) == u


@pytest.mark.parametrize("p", PRIMES)
def test_block_not_covering_every_variable(p):
    """Order on x, y only, over x, y, z, term over position.  Terms at
    position 0 have z^0 and terms at position 1 have z^1, and the basis
    elements have no z, so no two distinct terms ever compare equal and
    the order is total on every term the reduction meets.  A key that
    also compared z would rank every position-1 term above a position-0
    term of the same x, y degree and give a different result."""
    order = (((0, 1),), 0, ())
    rng = random.Random("partial:%d" % p)
    for _ in range(60):
        pairs = []
        for _ in range(rng.randrange(1, 8)):
            pos = rng.randrange(2)
            pairs.append((((rng.randrange(4), rng.randrange(4), pos), pos), random_coeff(rng, p)))
        u = kpy.canon_vec(pairs, order, p)
        basis = []
        for _ in range(rng.randrange(1, 3)):
            pos = rng.randrange(2)
            g = kpy.canon_vec(
                [(((rng.randrange(2), rng.randrange(2), 0), pos), random_coeff(rng, p))
                 for _ in range(rng.randrange(1, 3))],
                order, p,
            )
            if g:
                basis.append(g)
        assert kpy.nf_vec(u, basis, order, p) == nf_vec_merge(u, basis, order, p)


def test_exponent_overflow_still_raises():
    """Reducing x*z^L by x + z multiplies z^L by z, one past EXP_LIMIT."""
    order = (((0, 1),), 0, ())
    limit = kpy.EXP_LIMIT
    u = (((1, limit), 0), 1),
    g = (((1, 0), 0), 1), (((0, 1), 0), 1)
    with pytest.raises(OverflowError):
        kpy.nf_vec(u, [g], order, 7)


def spair_vec_whole(f, g, order, p):
    """The S-vector as the sum of both whole scaled vectors, the leads
    cancelling in add_vec.  Kept as the reference."""
    (mf, _), cf = f[0]
    (mg, _), cg = g[0]
    l = kpy.mono_lcm(mf, mg)
    a = kpy.scale_vec(f, kpy.coeff_inv(cf, p), kpy.mono_div(l, mf), p)
    b = kpy.scale_vec(g, kpy.coeff_inv(cg, p), kpy.mono_div(l, mg), p)
    return kpy.add_vec(a, kpy.neg_vec(b, p), order, p)


@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("order", ORDERS)
def test_spair_matches_sum_of_scaled_vectors(order, p, rank):
    rng = random.Random("spair:%r:%d:%d" % (order, p, rank))
    checked = 0
    for _ in range(60):
        f = random_vec(rng, p, order, rank, rng.randrange(1, 5), 3)
        g = random_vec(rng, p, order, rank, rng.randrange(1, 5), 3)
        if not f or not g or f[0][0][1] != g[0][0][1]:
            continue
        if rng.randrange(2):  # basis elements are monic
            f, g = kpy.monic_vec(f, p), kpy.monic_vec(g, p)
        got = kpy.spair_vec(f, g, order, p)
        assert got == spair_vec_whole(f, g, order, p)
        if p == 0:
            assert all(type(c) is Fraction for _, c in got)
        checked += 1
    assert checked


@pytest.mark.parametrize("order", ORDERS + [NON_COVERING])
def test_packed_key_sorts_as_term_sortkey(order):
    """Stable sorts by the two keys agree exactly, ties (repeated terms,
    terms apart only outside the blocks) included."""
    rng = random.Random("key:%r" % (order,))
    lay = kpy.layout(order, 3)
    terms = [(tuple(rng.randrange(0, 6) for _ in range(3)), rng.randrange(3)) for _ in range(400)]
    top = kpy.EXP_LIMIT
    terms += [((top, 0, 1), 0), ((0, top, top), 2), ((top, top, top), 1), ((top - 1, 1, top), 1)]
    rng.shuffle(terms)
    by_tuple = sorted(terms, key=lambda t: kpy.term_sortkey(t, order))
    by_packed = sorted(terms, key=lambda t: lay.sortkey(lay.pack(t)))
    assert by_packed == by_tuple
    assert all(lay.unpack(lay.pack(t)) == t for t in terms)
    assert all(lay.deg(lay.pack(t) & lay.emask) == sum(t[0]) for t in terms)


@pytest.mark.parametrize("order", ORDERS)
def test_packed_arithmetic_matches_tuples(order):
    """Products add (the key with them), divisibility is a mask test, and
    lcm and degree agree with the tuple routines."""
    rng = random.Random("arith:%r" % (order,))
    lay = kpy.layout(order, 3)
    for _ in range(300):
        a = tuple(rng.randrange(0, 5) for _ in range(3))
        b = tuple(rng.randrange(0, 5) for _ in range(3))
        pos = rng.randrange(3)
        ta, tb = lay.pack((a, 0)), lay.pack((b, pos))
        assert ta + tb == lay.pack((kpy.mono_mul(a, b), pos))
        ea, eb = ta & lay.emask, tb & lay.emask
        assert (not (eb - ea) & lay.guards) == kpy.mono_divides(a, b)
        assert lay.mono(lay.lcm(ea, eb)) == kpy.mono_lcm(a, b)
        assert lay.deg(eb) == kpy.mono_deg(b)
        assert lay.term(eb, pos) == tb


def test_packed_degree_of_large_exponents():
    """Four fields at EXP_LIMIT sum past one field's width."""
    lay = kpy.layout((((0, 1, 2, 3),), 0, ()), 4)
    top = kpy.EXP_LIMIT
    for mono in [(top,) * 4, (top, 0, top, 1), (top - 1, 3, 0, 2)]:
        assert lay.deg(lay.pack((mono, 0)) & lay.emask) == sum(mono)


@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("order", ORDERS)
def test_packed_reducer_matches_merge_reducer(order, p, rank):
    """One Reducer per basis, reused across inputs, on packed vecs."""
    rng = random.Random("packed:%r:%d:%d" % (order, p, rank))
    lay = kpy.layout(order, 3)
    for _ in range(10):
        _, basis = random_case(rng, p, order, rank)
        R = kpy.Reducer(lay, p, [lay.pack_vec(g) for g in basis])
        for _ in range(5):
            u = random_vec(rng, p, order, rank, rng.randrange(1, 9), 4)
            expected = nf_vec_merge(u, basis, order, p)
            got = kpy.nf_vec(lay.pack_vec(u), R, lay, p)
            assert lay.unpack_vec(got) == expected
            assert kpy.nf_vec(u, R, order, p) == expected
            # the greatest term alone, as membership tests ask for it
            first = kpy.nf_vec(lay.pack_vec(u), R, lay, p, first=True)
            assert lay.unpack_vec(first) == expected[:1]
            assert kpy.nf_vec(u, basis, order, p, first=True) == expected[:1]


def test_exponent_limit_is_exact_in_packed_products():
    """A product that reaches EXP_LIMIT is fine, one past it raises, in
    nf_vec and in spair_vec alike."""
    order = (((0, 1),), 0, ())
    limit = kpy.EXP_LIMIT
    g = (((1, 0), 0), 1), (((0, 1), 0), 1)
    assert kpy.nf_vec(((((1, limit - 1), 0), 1),), [g], order, 7) == ((((0, limit), 0), 6),)
    with pytest.raises(OverflowError):
        kpy.nf_vec(((((1, limit), 0), 1),), [g], order, 7)
    assert kpy.spair_vec(((((1, limit - 1), 0), 1),), g, order, 7) == ((((0, limit), 0), 6),)
    with pytest.raises(OverflowError):
        kpy.spair_vec(((((1, limit), 0), 1),), g, order, 7)


def test_submodule_basis_builds_its_reducer_once(monkeypatch):
    """A basis answering many membership queries packs itself once."""
    from formalpatch import engine
    from formalpatch.fields import PrimeField
    from formalpatch.poly import PolyContext

    p = 32003
    ctx = PolyContext(PrimeField(p), ["x", "y", "z"])
    order = ctx.order0
    rng = random.Random("once")
    gens = [random_vec(rng, p, order, 2, 3, 2) for _ in range(3)]
    B = engine.submodule(gens, ctx, 2)
    queries = []
    for k in range(500):
        if k % 2:
            queries.append(random_vec(rng, p, order, 2, 4, 3))
        else:
            acc = ()
            for g in gens:
                mono = tuple(rng.randrange(0, 3) for _ in range(3))
                acc = kpy.add_vec(acc, kpy.scale_vec(g, rng.randrange(1, p), mono, p), order, p)
            queries.append(acc)
    built = []
    init = kpy.Reducer.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(kpy.Reducer, "__init__", counted)
    answers = [B.contains(q) for q in queries]
    assert len(built) == 1
    monkeypatch.undo()
    assert all(answers[::2])
    assert answers == [not nf_vec_merge(q, B.gens, order, p) for q in queries]
