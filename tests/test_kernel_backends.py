"""The compiled kernel must be bit-for-bit interchangeable with the
pure-Python one: same tuples, same coefficients, same exceptions."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from formalpatch import _kernel_py as kpy

kcy = pytest.importorskip(
    "formalpatch._kernel_cy", reason="compiled kernel not built"
)

ORDERS = [
    (((0, 1, 2),), 0, ()),          # graded reverse lex, term over position
    (((0,), (1, 2)), 0, ()),        # elimination block in front
    (((0, 1, 2),), 1, ()),          # position over term
    (((0, 1, 2),), 0, (0, 0, 1)),   # grouped positions
]


def random_vec(rng, p, nterms=6):
    pairs = []
    for _ in range(nterms):
        mono = tuple(rng.randrange(0, 5) for _ in range(3))
        pos = rng.randrange(0, 3)
        if p:
            coeff = rng.randrange(0, p)
        else:
            coeff = Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
        pairs.append(((mono, pos), coeff))
    return pairs


def vecs(p, order, count=40):
    rng = random.Random(20260822 + p)
    out = []
    for _ in range(count):
        raw = random_vec(rng, p)
        a = kpy.canon_vec(raw, order, p)
        b = kcy.canon_vec(raw, order, p)
        assert a == b
        out.append(a)
    return out


@pytest.mark.parametrize("p", [0, 7])
@pytest.mark.parametrize("order", ORDERS)
class TestPairwiseOps:
    def test_add_scale_mul(self, p, order):
        vs = vecs(p, order)
        rng = random.Random(99 + p)
        for _ in range(60):
            u = rng.choice(vs)
            v = rng.choice(vs)
            assert kpy.add_vec(u, v, order, p) == kcy.add_vec(u, v, order, p)
            mono = tuple(rng.randrange(0, 3) for _ in range(3))
            coeff = rng.randrange(1, p) if p else Fraction(rng.randrange(1, 7), 3)
            assert kpy.scale_vec(u, coeff, mono, p) == kcy.scale_vec(u, coeff, mono, p)
            poly = tuple((((m), 0), c) for ((m, _pos), c) in v)
            assert kpy.mul_vec_poly(u, poly, order, p) == kcy.mul_vec_poly(u, poly, order, p)

    def test_neg_monic(self, p, order):
        for u in vecs(p, order, count=20):
            assert kpy.neg_vec(u, p) == kcy.neg_vec(u, p)
            assert kpy.monic_vec(u, p) == kcy.monic_vec(u, p)

    def test_nf_and_spair(self, p, order):
        vs = [v for v in vecs(p, order) if v]
        basis = vs[:5]
        for u in vs[5:25]:
            assert kpy.nf_vec(u, basis, order, p) == kcy.nf_vec(u, basis, order, p)
        for f in vs[:10]:
            for g in vs[:10]:
                if f and g and f[0][0][1] == g[0][0][1]:
                    assert kpy.spair_vec(f, g, order, p) == kcy.spair_vec(f, g, order, p)

    def test_cmp_and_sortkey_agree(self, p, order):
        vs = vecs(p, order, count=15)
        terms = [t for v in vs for (t, _c) in v]
        for a in terms[:30]:
            for b in terms[:30]:
                assert kpy.cmp_term(a, b, order) == kcy.cmp_term(a, b, order)
        key_py = sorted(terms, key=lambda t: kpy.term_sortkey(t, order))
        key_cy = sorted(terms, key=lambda t: kcy.term_sortkey(t, order))
        assert key_py == key_cy


class TestMonomials:
    def test_basic_ops(self):
        rng = random.Random(5)
        for _ in range(200):
            a = tuple(rng.randrange(0, 6) for _ in range(4))
            b = tuple(rng.randrange(0, 6) for _ in range(4))
            assert kpy.mono_mul(a, b) == kcy.mono_mul(a, b)
            assert kpy.mono_div(a, b) == kcy.mono_div(a, b)
            assert kpy.mono_divides(a, b) == kcy.mono_divides(a, b)
            assert kpy.mono_lcm(a, b) == kcy.mono_lcm(a, b)
            assert kpy.mono_deg(a) == kcy.mono_deg(a)
        assert kpy.mono_one(3) == kcy.mono_one(3)

    def test_overflow_guard_matches(self):
        big = (kpy.EXP_LIMIT, 0)
        with pytest.raises(OverflowError):
            kpy.mono_mul(big, (1, 0))
        with pytest.raises(OverflowError):
            kcy.mono_mul(big, (1, 0))

    def test_coeff_inverse(self):
        assert kpy.coeff_inv(Fraction(3, 4), 0) == kcy.coeff_inv(Fraction(3, 4), 0)
        for c in range(1, 7):
            assert kpy.coeff_inv(c, 7) == kcy.coeff_inv(c, 7)


SCRIPT = """
from formalpatch import kernel
from formalpatch.fields import QQ
from formalpatch.poly import parse_poly
from formalpatch.rings import make_base_ring, validate_prime_data
from formalpatch.engine import vec_of_polys
from formalpatch import patch
B = make_base_ring(QQ, ["x", "y", "t"], [], "t")
mk = lambda s: parse_poly(s, B.context)
pd = validate_prime_data(B, [[mk("t")]], [mk("1")])
cfg = patch.make_config(B, pd, mk("y"), mk("x"), 3, declared_connected=True)
mod = (2, [vec_of_polys([mk("y"), mk("-x")])])
ident = [[mk("1"), mk("0")], [mk("0"), mk("1")]]
prob = patch.pose_problem(cfg, mod, mod, mod, ident, ident, expected_rank=1)
sol = patch.solve(prob, [0, 1, 2])
print(kernel.BACKEND)
print(sol.status, sol.denominator, sol.section_texts())
print(sorted(sol.records))
"""


def test_full_solve_identical_across_backends():
    compiled = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True
    )
    pure = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True,
        env={**os.environ, "FORMALPATCH_PURE": "1"},
    )
    assert compiled.returncode == 0, compiled.stderr
    assert pure.returncode == 0, pure.stderr
    head_c, rest_c = compiled.stdout.split("\n", 1)
    head_p, rest_p = pure.stdout.split("\n", 1)
    assert head_c == "cython"
    assert head_p == "python"
    assert rest_c == rest_p
