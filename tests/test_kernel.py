"""The pure kernel's heap-ordered reducer (`_kernel_py.nf_vec`) must
return exactly what the merge-based reducer it replaced returns, and
its S-vector (`_kernel_py.spair_vec`) exactly the sum of the two whole
scaled vectors: the same terms in the same order, with the same
coefficients."""

import random
from fractions import Fraction

import pytest

from formalpatch import _kernel_py as kpy

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
