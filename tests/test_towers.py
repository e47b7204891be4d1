"""Module towers: presentations, truncation levels, the Q/N torsion
filtration with certificates, the filtration laws, and containment
bounds for symbolic powers acting on modules."""

import pytest

from formalpatch.engine import diagonal_rows, submodule, vec_of_polys, vec_text
from formalpatch.fields import QQ
from formalpatch.poly import canonical_text, parse_poly
from formalpatch.rings import localize, make_base_ring, truncate, validate_prime_data
from formalpatch.towers import (
    PresModule,
    TowerError,
    build_tower,
    default_pool,
    q_filtration,
    stabilization_index,
    symbolic_containment_bound,
    verify_tower_laws,
)


@pytest.fixture
def line():
    """k[x, t] with the irreducible fiber (t), separator x."""
    B = make_base_ring(QQ, ["x", "t"], [], "t")
    ctx = B.context
    mk = lambda s: parse_poly(s, ctx)
    pd = validate_prime_data(B, [[mk("t")]], [mk("x")])
    return B, mk, pd


@pytest.fixture
def xmtn(line):
    """The two-generator module with the single relation x*m = t*n."""
    B, mk, pd = line
    M = PresModule.make(B, 2, [vec_of_polys([mk("x"), mk("-t")])])
    return B, mk, pd, M


class TestPresModule:
    def test_zero_module_needs_a_generator(self, line):
        B, _, _ = line
        with pytest.raises(TowerError, match="at least one generator"):
            PresModule.make(B, 0)

    def test_span_and_multiply(self, xmtn):
        B, mk, _, M = xmtn
        # x*m - t*n is a relation, so x*m and t*n agree
        xm = M.multiply(mk("x"), M.unit_vec(0))
        tn = M.multiply(mk("t"), M.unit_vec(1))
        assert M.rel.nf(xm) == M.rel.nf(tn)

    def test_contains_zero(self, xmtn):
        _, mk, _, M = xmtn
        rel = vec_of_polys([mk("x"), mk("-t")])
        assert M.contains_zero(rel)
        assert not M.contains_zero(M.unit_vec(0))


class TestBuildTower:
    def test_levels_and_transitions(self, xmtn):
        B, mk, _, M = xmtn
        tw = build_tower(M, 4)
        assert tw.depth == 4
        for i in (1, 2, 3, 4):
            assert tw.ring(i).level == i
            # t^i kills everything at level i
            v = tw.level(i).multiply(mk("t") ** i, tw.level(i).unit_vec(0))
            assert tw.level(i).contains_zero(v)

    def test_depth_guard(self, xmtn):
        _, _, _, M = xmtn
        with pytest.raises(TowerError, match="at least 1"):
            build_tower(M, 0)

    def test_needs_a_module_over_the_base_ring(self, line):
        B, mk, _ = line
        for R in (truncate(B, 2), localize(B, mk("x"))):
            with pytest.raises(TowerError, match="over the base ring"):
                build_tower(PresModule.make(R, 1), 2)

    def test_over_is_the_module_plus_t_power_rows(self, xmtn):
        B, mk, _, M = xmtn
        for i in (1, 2, 3):
            rows = list(M.rel.gens) + diagonal_rows([(mk("t") ** i).terms], 2)
            by_hand = submodule(rows, B.context, 2, ring_rels=B.rels_vecs)
            assert M.over(truncate(B, i)).rel.gens == by_hand.gens

    def test_x_torsion_of_t_powers(self, xmtn):
        # t^{i-1}*m is nonzero and x-torsion at levels 2, 3, 4
        _, mk, _, M = xmtn
        tw = build_tower(M, 4)
        for i in (2, 3, 4):
            Mi = tw.level(i)
            el = Mi.multiply(mk("t") ** (i - 1), Mi.unit_vec(0))
            assert not Mi.contains_zero(el)
            assert Mi.contains_zero(Mi.multiply(mk("x"), el))


class TestQFiltration:
    def test_xmtn_q_levels(self, xmtn):
        B, mk, pd, M = xmtn
        ctx = B.context
        tw = build_tower(M, 4)
        filt = q_filtration(tw, pd, default_pool(pd))
        expected = {1: "(1, 0)", 2: "(t, 0)", 3: "(t^2, 0)", 4: "(t^3, 0)"}
        for i in (1, 2, 3, 4):
            vis = [
                v
                for v in filt.q_level(i).visible_gens()
                if not tw.level(i).contains_zero(v)
            ]
            assert [vec_text(ctx, 2, v) for v in vis] == [expected[i]]
        assert filt.status() == "CERTIFIED"

    def test_xmtn_certificates(self, xmtn):
        B, mk, pd, M = xmtn
        ctx = B.context
        tw = build_tower(M, 4)
        filt = q_filtration(tw, pd, default_pool(pd))
        flat = [
            (i + 1, vec_text(ctx, 2, q), canonical_text(f))
            for i, lvl in enumerate(filt.certificates)
            for (q, f) in lvl
        ]
        assert flat == [
            (1, "(1, 0)", "x"),
            (2, "(t, 0)", "x"),
            (3, "(t^2, 0)", "x"),
            (4, "(t^3, 0)", "x"),
        ]

    def test_free_tower_q_vanishes(self, line):
        B, mk, pd = line
        M = PresModule.make(B, 1, [])
        tw = build_tower(M, 4)
        filt = q_filtration(tw, pd, default_pool(pd))
        for i in (1, 2, 3, 4):
            for v in filt.q_level(i).gens:
                assert tw.level(i).contains_zero(v)
        assert stabilization_index(filt) == 1

    def test_pool_element_inside_prime_rejected(self, xmtn):
        B, mk, pd, M = xmtn
        tw = build_tower(M, 2)
        with pytest.raises(Exception, match="component prime"):
            q_filtration(tw, pd, [mk("t")])


class TestStabilization:
    def test_xmtn_index_two(self, xmtn):
        _, _, pd, M = xmtn
        tw = build_tower(M, 5)
        filt = q_filtration(tw, pd, default_pool(pd))
        assert stabilization_index(filt) == 2

    def test_index_depth_invariant(self, xmtn):
        _, _, pd, M = xmtn
        for depth in (5, 7):
            tw = build_tower(M, depth)
            filt = q_filtration(tw, pd, default_pool(pd))
            assert stabilization_index(filt) == 2


class TestTowerLaws:
    def test_xmtn_all_pass(self, xmtn):
        _, mk, pd, M = xmtn
        tw = build_tower(M, 4)
        records, filt = verify_tower_laws(tw, pd, mk("x"))
        assert records == sorted(records, key=lambda r: (r.name, r.level))
        bad = [r for r in records if r.verdict != "PASS"]
        assert bad == []

    def test_record_names_and_count(self, xmtn):
        _, mk, pd, M = xmtn
        tw = build_tower(M, 4)
        records, _ = verify_tower_laws(tw, pd, mk("x"))
        assert sorted({r.name for r in records}) == [
            "base-change",
            "divisibility",
            "n-annihilators",
            "q-certificates",
            "q-closure",
            "stabilization",
            "transition-q-restriction",
            "transition-relations",
        ]
        assert len(records) == 24

    def test_insufficient_pool_is_detected(self, xmtn):
        # without x in the pool the Q filtration under-approximates and
        # the N-annihilator law reports it
        B, mk, _, M = xmtn
        ctx = B.context
        pd1 = validate_prime_data(B, [[mk("t")]], [mk("1")])
        tw = build_tower(M, 3)
        records, _ = verify_tower_laws(tw, pd1, mk("x"), pool=[mk("1")])
        bad = [r for r in records if r.verdict != "PASS"]
        assert any(r.name == "n-annihilators" for r in bad)

    def test_free_tower_all_pass(self, line):
        B, mk, pd = line
        M = PresModule.make(B, 1, [])
        tw = build_tower(M, 4)
        records, _ = verify_tower_laws(tw, pd, mk("x"))
        assert all(r.verdict == "PASS" for r in records)

    def test_quotient_base_all_pass(self):
        B = make_base_ring(QQ, ["x", "y", "t"], ["t - x*y"], "t")
        ctx = B.context
        mk = lambda s: parse_poly(s, ctx)
        pd = validate_prime_data(
            B, [[mk("x"), mk("t")], [mk("y"), mk("t")]], [mk("y"), mk("x")]
        )
        M = PresModule.make(B, 1, [])
        tw = build_tower(M, 3)
        records, _ = verify_tower_laws(tw, pd, mk("x + y"))
        assert all(r.verdict == "PASS" for r in records)


class TestContainmentBound:
    def test_xmtn_bound_two(self, xmtn):
        _, _, pd, M = xmtn
        assert symbolic_containment_bound(M, pd, 1, 5) == 2

    def test_free_bound_equals_target(self, line):
        B, _, pd = line
        M = PresModule.make(B, 1, [])
        for c in (1, 2, 3):
            assert symbolic_containment_bound(M, pd, c, 5) == c

    def test_quotient_surface_bound(self):
        B = make_base_ring(QQ, ["x", "y", "t"], ["t - x*y"], "t")
        ctx = B.context
        mk = lambda s: parse_poly(s, ctx)
        pd = validate_prime_data(
            B, [[mk("x"), mk("t")], [mk("y"), mk("t")]], [mk("y"), mk("x")]
        )
        M = PresModule.make(B, 1, [])
        assert symbolic_containment_bound(M, pd, 1, 5) == 1

    def test_exhaustion_raises_with_witness(self, xmtn):
        _, _, pd, M = xmtn
        with pytest.raises(TowerError) as exc:
            symbolic_containment_bound(M, pd, 3, 1)
        assert exc.value.witness is not None
