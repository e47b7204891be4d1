"""Presented rings: bases, truncations, localizations, prime data,
avoidance, symbolic powers, and fiber dimension counts."""

from math import comb

import pytest

from formalpatch.engine import submodule, vec_of_polys
from formalpatch.fields import QQ, PrimeField
from formalpatch.poly import Polynomial, canonical_text, parse_poly
from formalpatch.rings import (
    RingError,
    fiber_codimension,
    ideal_power_gens,
    localize,
    lt_ideal_dimension,
    make_base_ring,
    prime_avoidance_pick,
    regenerate_generators,
    symbolic_power,
    truncate,
    validate_prime_data,
)


def ideal_texts(basis):
    return [canonical_text(Polynomial(basis.context, g)) for g in basis.visible_gens()]


@pytest.fixture
def a1():
    """The A1 surface x*y = z^2 with t = z."""
    B = make_base_ring(QQ, ["x", "y", "z", "t"], ["x*y - z^2", "z - t"], "t")
    ctx = B.context
    mk = lambda s: parse_poly(s, ctx)
    pd = validate_prime_data(B, [[mk("x"), mk("t")], [mk("y"), mk("t")]], [mk("y"), mk("x")])
    return B, mk, pd


@pytest.fixture
def plane():
    B = make_base_ring(QQ, ["x", "y", "t"], [], "t")
    ctx = B.context
    mk = lambda s: parse_poly(s, ctx)
    pd = validate_prime_data(B, [[mk("t")]], [mk("1")])
    return B, mk, pd


class TestBaseRing:
    def test_zero_divisor_t_rejected(self):
        with pytest.raises(RingError, match=r"zero-divisor.*x\*t"):
            make_base_ring(QQ, ["x", "t"], ["t^2*x"], "t")

    def test_unit_relations_rejected(self):
        with pytest.raises(RingError, match="unit ideal"):
            make_base_ring(QQ, ["x", "t"], ["x - 1", "x"], "t")

    def test_t_must_be_a_variable(self):
        with pytest.raises(RingError, match="not among"):
            make_base_ring(QQ, ["x", "y"], [], "t")

    def test_describe(self, a1):
        B, _, _ = a1
        assert B.describe() == "k[x, y, z, t] / (x*y - t^2, z - t)"


class TestTruncation:
    def test_a1_level_two_relations(self, a1):
        B, _, _ = a1
        T = truncate(B, 2)
        assert ideal_texts(T.rels) == ["x*y", "t^2", "z - t"]

    def test_degenerate_truncation_detected(self):
        # x*t = 1 makes t a unit, so every truncation collapses
        B = make_base_ring(QQ, ["x", "t"], ["x*t - 1"], "t")
        with pytest.raises(RingError, match="degenerate"):
            truncate(B, 1)

    def test_level_must_be_positive(self, plane):
        B, _, _ = plane
        with pytest.raises(RingError, match="at least 1"):
            truncate(B, 0)


class TestLocalization:
    def test_inverse_relation_present(self, plane):
        B, mk, _ = plane
        L = localize(B, mk("x"))
        u = Polynomial.var(L.context, L.context.vars[0])
        x = mk("x").rename_into(L.context)
        one = Polynomial.one(L.context)
        # u*x - 1 is a defining relation, so u*x reduces to 1
        assert L.ideal([]).contains(vec_of_polys([u * x - one]))
        nf = L.ideal([]).nf(vec_of_polys([u * x]))
        assert nf == vec_of_polys([one.rename_into(L.context)])

    def test_trivial_flag(self, plane):
        B, mk, _ = plane
        assert localize(B, mk("1")).trivial
        assert not localize(B, mk("x")).trivial

    def test_density_guard(self, plane):
        B, mk, pd = plane
        with pytest.raises(RingError, match="density"):
            localize(B, mk("t"), pd)

    def test_zero_rejected(self, plane):
        B, mk, _ = plane
        with pytest.raises(RingError, match="zero"):
            localize(B, mk("0"))

    def test_contract_roundtrip(self, plane):
        B, mk, _ = plane
        L = localize(B, mk("x"))
        # (x*y) extended to B[x^-1] contracts to (y)
        xy = mk("x*y").rename_into(L.context)
        ext = L.ideal([xy])
        back = L.contract(ext)
        assert ideal_texts(back) == ["y"]


class TestPrimeData:
    def test_prime_must_contain_t(self, plane):
        B, mk, _ = plane
        with pytest.raises(RingError, match="does not contain t"):
            validate_prime_data(B, [[mk("x")]], [mk("1")])

    def test_separator_own_prime_rejected(self, a1):
        B, mk, _ = a1
        with pytest.raises(RingError, match="its own prime"):
            validate_prime_data(
                B, [[mk("x"), mk("t")], [mk("y"), mk("t")]], [mk("x"), mk("y")]
            )

    def test_separator_must_hit_other_primes(self, a1):
        B, mk, _ = a1
        with pytest.raises(RingError, match="misses"):
            validate_prime_data(
                B, [[mk("x"), mk("t")], [mk("y"), mk("t")]], [mk("1"), mk("x")]
            )

    def test_containment_rejected(self, plane):
        B, mk, _ = plane
        with pytest.raises(RingError, match="minimality"):
            validate_prime_data(
                B, [[mk("t")], [mk("t"), mk("x")]], [mk("1"), mk("1")]
            )

    def test_membership_helpers(self, a1):
        _, mk, pd = a1
        assert pd.in_prime(0, mk("x"))
        assert not pd.in_prime(0, mk("y"))
        assert pd.blockers(mk("t")) == [0, 1]
        assert pd.outside_every_prime(mk("x + y"))
        assert not pd.outside_every_prime(mk("x"))


class TestPrimeAvoidance:
    def test_pair_combination_found(self, a1):
        B, mk, pd = a1
        J = B.ideal([mk("x"), mk("y")])
        pick = prime_avoidance_pick(J, pd, [mk("x"), mk("y")])
        assert canonical_text(pick) == "x + y"

    def test_failure_lists_blockers(self, a1):
        B, mk, pd = a1
        J = B.ideal([mk("x")])
        with pytest.raises(RingError, match="inside prime"):
            prime_avoidance_pick(J, pd, [mk("x")])

    def test_regeneration_matches_construction(self):
        # J = (x, y) over k[x,y,t]/(t^2) with the single prime (t, y):
        # x already avoids it, y is repaired to y + x by r0 = x, rho = 1
        B = make_base_ring(QQ, ["x", "y", "t"], [], "t")
        ctx = B.context
        mk = lambda s: parse_poly(s, ctx)
        pd = validate_prime_data(B, [[mk("t"), mk("y")]], [mk("1")])
        T = truncate(B, 2)
        J = T.ideal([mk("x"), mk("y")])
        out = regenerate_generators(J, pd, T)
        texts = sorted(canonical_text(q) for q in out)
        assert texts == ["x", "x + y"]
        # output spans the same ideal
        J2 = T.ideal(out)
        assert J2.gens == J.gens
        for q in out:
            assert pd.outside_every_prime(q, T)

    def test_regeneration_noop_when_clear(self, plane):
        B, mk, pd = plane
        T = truncate(B, 2)
        J = T.ideal([mk("x"), mk("y - 1")])
        out = regenerate_generators(J, pd, T)
        assert T.ideal(out).gens == J.gens
        for q in out:
            assert pd.outside_every_prime(q, T)


class TestSymbolicPower:
    def test_a1_x_in_second_symbolic_power(self, a1):
        B, mk, pd = a1
        sp, wit = symbolic_power(pd, 0, 2)
        x = vec_of_polys([mk("x")])
        assert sp.contains(x)
        assert wit == 1
        P2 = B.ideal([mk("x^2"), mk("x*t"), mk("t^2")])
        assert not P2.contains(x)

    def test_principal_prime_symbolic_equals_ordinary(self):
        B = make_base_ring(QQ, ["x", "t"], [], "t")
        ctx = B.context
        mk = lambda s: parse_poly(s, ctx)
        pd = validate_prime_data(B, [[mk("t")]], [mk("1")])
        for n in (1, 2, 3):
            sp, wit = symbolic_power(pd, 0, n)
            assert sp.gens == B.ideal([mk("t") ** n]).gens
            assert wit == 0

    def test_monotonicity_chain(self, a1):
        B, mk, pd = a1
        prev = None
        for n in (1, 2, 3):
            sp, _ = symbolic_power(pd, 0, n)
            if prev is not None:
                for g in sp.gens:
                    assert prev.contains(g)
            prev = sp

    def test_rejects_separator_in_prime(self, a1):
        _, mk, pd = a1
        with pytest.raises(RingError, match="lies in the prime"):
            symbolic_power(pd, 0, 2, separator=mk("x"))


    @pytest.mark.parametrize("k, n", [(1, 5), (2, 3), (3, 2), (3, 4)])
    def test_power_takes_each_multiset_once(self, plane, k, n):
        _, mk, _ = plane
        gens = [mk(v) for v in ("x", "y", "t")[:k]]
        power = ideal_power_gens(gens, n)
        assert len(power) == comb(n + k - 1, n)
        assert len({canonical_text(q) for q in power}) == len(power)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_power_basis_matches_all_ordered_products(self, a1, n):
        B, mk, _ = a1
        gens = [mk("x"), mk("t"), mk("x + y - 1")]
        ordered = list(gens)
        for _ in range(n - 1):
            ordered = [a * b for a in ordered for b in gens]
        assert B.ideal(ideal_power_gens(gens, n)).gens == B.ideal(ordered).gens


class TestDimensions:
    def test_component_dimension_a1(self, a1):
        _, _, pd = a1
        assert lt_ideal_dimension(pd.prime_basis(0)) == 1

    def test_unit_ideal_dimension(self, plane):
        B, mk, _ = plane
        assert lt_ideal_dimension(B.ideal([mk("1")])) == -1

    def test_fiber_codimension_plane(self, plane):
        _, mk, pd = plane
        assert fiber_codimension(pd, 0, [mk("x"), mk("y")]) == 2
        assert fiber_codimension(pd, 0, [mk("x")]) == 1

    def test_fiber_codimension_empty_is_none(self):
        B = make_base_ring(QQ, ["x", "t"], [], "t")
        ctx = B.context
        mk = lambda s: parse_poly(s, ctx)
        pd = validate_prime_data(B, [[mk("t")]], [mk("1")])
        assert fiber_codimension(pd, 0, [mk("x"), mk("x - 1")]) is None


class TestPrimeField:
    def test_symbolic_power_mod_p(self):
        B = make_base_ring(PrimeField(7), ["x", "y", "z", "t"], ["x*y - z^2", "z - t"], "t")
        ctx = B.context
        mk = lambda s: parse_poly(s, ctx)
        pd = validate_prime_data(B, [[mk("x"), mk("t")], [mk("y"), mk("t")]], [mk("y"), mk("x")])
        sp, _ = symbolic_power(pd, 0, 2)
        assert sp.contains(vec_of_polys([mk("x")]))
