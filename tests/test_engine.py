"""Engine checks against values frozen from the brute-force oracle, plus
structural properties (determinism, order invariance, budgets)."""

import pytest

from formalpatch import engine, kernel
from formalpatch.cli import main
from formalpatch.engine import (
    Budget,
    BudgetError,
    FreeModuleElement,
    ModuleOrder,
    colon_element,
    colon_module,
    eliminate,
    groebner_basis,
    module_quotient,
    normal_form,
    saturate,
    saturate_rabinowitsch,
    submodule,
    submodule_intersect,
    syzygy_basis,
    vec_of_polys,
    vec_text,
)
from formalpatch.fields import QQ, PrimeField
from formalpatch.instance import bundled_path, load_instance
from formalpatch.poly import LEX, MonomialOrder, PolyContext, parse_poly

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


CTX = PolyContext(QQ, ["x", "y"])
CTX_T = PolyContext(QQ, ["x", "t"], tvar="t")


def p(s, ctx=CTX):
    return parse_poly(s, ctx)


def ideal(ctx, *texts, order=None):
    return submodule([vec_of_polys([parse_poly(s, ctx)]) for s in texts], ctx, 1, order=order)


def shown(basis):
    return [vec_text(basis.context, basis.rank, g) for g in basis.gens]


def test_reduced_basis_lex_frozen():
    lexd = ModuleOrder(LEX).descriptor(CTX)
    b = ideal(CTX, "x^2 - 1", "x - y", order=lexd)
    assert shown(b) == ["x - y", "y^2 - 1"]


def test_normal_form_frozen():
    lexd = ModuleOrder(LEX).descriptor(CTX)
    b = ideal(CTX, "x - y", "y^2 - 1", order=lexd)
    assert vec_text(CTX, 1, b.nf(vec_of_polys([p("x^2*y")]))) == "y"


def test_normal_form_of_one_mod_maximal_ideal():
    b = ideal(CTX, "x", "y")
    assert vec_text(CTX, 1, b.nf(vec_of_polys([p("1")]))) == "1"


def test_membership_of_generator_combination():
    b = ideal(CTX, "x^2 - y", "x*y + 1")
    g = p("x^2 - y") * p("y^3") - p("x*y + 1") * p("x - 2")
    assert b.contains(vec_of_polys([g]))


def test_syzygies_of_x_y_frozen():
    b = ideal(CTX, "x", "y")
    s = syzygy_basis(b)
    # basis sequence is leads-descending: (x, y); the Koszul relation
    assert shown(s) == ["(-y, x)"]


def test_syzygy_over_truncated_ring_frozen():
    ctx = PolyContext(QQ, ["t"], tvar="t")
    rel = (vec_of_polys([parse_poly("t^2", ctx)]),)
    b = submodule([vec_of_polys([parse_poly("t", ctx)])], ctx, 1, ring_rels=rel)
    s = syzygy_basis(b)
    # visible generator is t itself; t*t = t^2 = 0 in the quotient
    assert shown(s) == ["t"]


def test_intersection_of_principal_ideals_frozen():
    bx = ideal(CTX, "x")
    by = ideal(CTX, "y")
    assert shown(submodule_intersect(bx, by)) == ["x*y"]


def test_module_quotient_frozen():
    b = ideal(CTX_T, "x*t")
    q = module_quotient(b, p("t", CTX_T))
    assert shown(q) == ["x"]


def test_colon_by_one_is_identity():
    m1 = FreeModuleElement.from_polys([p("x"), p("y")])
    m2 = FreeModuleElement.from_polys([p("y"), p("x")])
    b = groebner_basis([m1, m2])
    assert module_quotient(b, p("1")).gens == b.gens


def test_annihilator_of_free_generator_is_zero():
    free_zero = submodule([()], CTX_T, 1)
    e0 = (((kernel.mono_one(2), 0), QQ.one),)
    ann = colon_element(free_zero, e0)
    assert ann.gens == ()


def test_saturation_frozen():
    b = ideal(CTX_T, "x*t")
    sat, wit = saturate(b, p("t", CTX_T))
    assert shown(sat) == ["x"]
    assert wit == 1
    assert saturate_rabinowitsch(b, p("t", CTX_T)).gens == sat.gens


def test_saturation_in_domain_is_trivial():
    zero = submodule([()], CTX_T, 1)
    sat, wit = saturate(zero, p("x", CTX_T))
    assert sat.gens == ()
    assert wit == 0


def test_elimination_frozen():
    ctx = PolyContext(QQ, ["u", "x", "y"])
    b = ideal(ctx, "u*x - 1", "u*y")
    e = eliminate(b, ["u"])
    assert shown(e) == ["y"]
    assert eliminate(b, []).gens == b.gens


def test_torsion_lift_over_truncation_frozen():
    # relations of the module with x*m = t*n over k[x,t]/(t^2):
    # saturating by x reveals the torsion generator t*m
    rel = (vec_of_polys([parse_poly("t^2", CTX_T)]),)
    R = submodule(
        [vec_of_polys([p("x", CTX_T), -p("t", CTX_T)])], CTX_T, 2, ring_rels=rel
    )
    sat, wit = saturate(R, p("x", CTX_T))
    assert shown(sat) == ["(0, t^2)", "(x, -t)", "(t, 0)"]
    assert wit == 1


def test_colon_module_matches_elementwise_intersection():
    N = ideal(CTX, "x^2", "x*y")
    M = ideal(CTX, "x")
    c = colon_module(N, M)
    assert shown(c) == ["x", "y"]
    # cross-check against the elementwise construction
    assert colon_element(N, vec_of_polys([p("x")])).gens == c.gens


def test_basis_is_deterministic_and_input_order_free():
    gens = ["x^2 - y", "x*y - 1", "y^3 + x"]
    b1 = ideal(CTX, *gens)
    b2 = ideal(CTX, *reversed(gens))
    assert b1.gens == b2.gens
    assert ideal(CTX, *gens).gens == b1.gens


def test_membership_is_order_independent():
    for order in (None, ModuleOrder(LEX).descriptor(CTX), ModuleOrder(MonomialOrder("grevlex"), "pot").descriptor(CTX)):
        b = ideal(CTX, "x^2 - y", "x*y + 1", order=order)
        g = p("x^2 - y") * p("x + y") + p("x*y + 1") * p("y^2")
        assert b.contains(vec_of_polys([g]))
        assert not b.contains(vec_of_polys([p("x")]))


def test_prime_field_basis_reduction():
    F5 = PrimeField(5)
    ctx5 = PolyContext(F5, ["x", "y"])
    b = submodule(
        [vec_of_polys([parse_poly(s, ctx5)]) for s in ("2*x^2 + y", "3*y^2 + x")],
        ctx5,
        1,
    )
    # basis elements come out monic
    for g in b.gens:
        assert g[0][1] == 1


def test_degree_budget_raises_with_offender():
    b = Budget(maxdeg=2, maxpairs=10)
    with pytest.raises(BudgetError) as e:
        submodule(
            [vec_of_polys([p(s)]) for s in ("x^3 - y", "x*y^2 - 1")],
            CTX,
            1,
            budget=b,
        )
    assert "degree budget" in str(e.value)
    assert e.value.detail and "pair" in e.value.detail


def test_pair_budget_raises():
    b = Budget(maxdeg=40, maxpairs=1)
    with pytest.raises(BudgetError) as e:
        submodule(
            [vec_of_polys([p(s)]) for s in ("x^2 - y", "x*y - 1", "y^2 - x")],
            CTX,
            1,
            budget=b,
        )
    assert "S-pair budget" in str(e.value)


def _budget_failure(build, ctx, budget):
    with pytest.raises(BudgetError) as e:
        build(ctx, budget)
    return str(e.value), e.value.detail


def _replay_basis(ctx, budget=None):
    gens = [vec_of_polys([parse_poly(s, ctx)]) for s in ("x^3 - y", "x*y^2 - 1")]
    return submodule(gens, ctx, 1, budget=budget)


def _replay_syzygies(ctx, budget=None):
    return syzygy_basis(_replay_basis(ctx), budget)


@pytest.mark.parametrize("build", [_replay_basis, _replay_syzygies])
@pytest.mark.parametrize("budget", [Budget(maxdeg=2), Budget(maxpairs=1)])
def test_cached_basis_replays_budget_error(build, budget):
    ctx = PolyContext(QQ, ["x", "y"])
    first = build(ctx)  # cached under the default budget
    replayed = _budget_failure(build, ctx, budget)
    assert replayed == _budget_failure(build, PolyContext(QQ, ["x", "y"]), budget)
    assert build(ctx).gens == first.gens


def test_basis_cache_is_scoped_to_one_ring_family():
    a = load_instance(bundled_path("a2-ideal-xy")).ring.context
    b = load_instance(bundled_path("a2-ideal-xy")).ring.context
    assert a._cache and b._cache
    assert a._cache is not b._cache
    ext = a.prepend_vars(["w"])
    assert ext._cache is a._cache
    assert ext.drop_prefix(1)._cache is a._cache


def test_groebner_run_count_gate(monkeypatch, capsys):
    runs = []
    real = engine._buchberger

    def counted(*args):
        runs.append(1)
        return real(*args)

    monkeypatch.setattr(engine, "_buchberger", counted)
    assert main(["solve", "a2-ideal-xy", "--depth", "4"]) == 0
    capsys.readouterr()
    assert 0 < len(runs) <= 180


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("FORMALPATCH_BUDGET", "7:123")
    assert Budget.from_env() == Budget(7, 123)
    monkeypatch.setenv("FORMALPATCH_BUDGET", "bogus")
    with pytest.raises(ValueError):
        Budget.from_env()


def test_normal_form_wrapper_roundtrip():
    m1 = FreeModuleElement.from_polys([p("x"), p("y")])
    m2 = FreeModuleElement.from_polys([p("0"), p("x - y")])
    b = groebner_basis([m1, m2])
    v = FreeModuleElement.from_polys([p("x"), p("y")])
    r = normal_form(v, b)
    assert r.is_zero
    w = FreeModuleElement.from_polys([p("1"), p("0")])
    assert normal_form(w, b) == w


def test_nf_is_idempotent():
    b = ideal(CTX, "x^2 + y", "y^2 - 2")
    v = vec_of_polys([p("x^3*y^2 - x + 5")])
    r = b.nf(v)
    assert b.nf(r) == r


if HAVE_HYPOTHESIS:

    @st.composite
    def small_polys(draw):
        n = draw(st.integers(0, 3))
        out = parse_poly("0", CTX)
        for _ in range(n):
            e1 = draw(st.integers(0, 2))
            e2 = draw(st.integers(0, 2))
            c = draw(st.integers(-3, 3))
            out = out + p("x") ** e1 * p("y") ** e2 * c
        return out

    @given(st.lists(small_polys(), min_size=1, max_size=3), small_polys(), small_polys())
    @settings(max_examples=25, deadline=None)
    def test_combination_membership_property(gens, a, b):
        vecs = [vec_of_polys([g]) for g in gens]
        basis = submodule(vecs, CTX, 1)
        combo = gens[0] * a + gens[-1] * b
        assert basis.contains(vec_of_polys([combo]))

    @given(small_polys(), small_polys())
    @settings(max_examples=25, deadline=None)
    def test_syzygies_annihilate_generators_property(f, g):
        if f.is_zero or g.is_zero:
            return
        basis = submodule([vec_of_polys([f]), vec_of_polys([g])], CTX, 1)
        syz = syzygy_basis(basis)
        seq = basis.gens
        for rel in syz.gens:
            acc = ()
            for (m, pos), c in rel:
                term = kernel.scale_vec(seq[pos], c, m, CTX.p)
                acc = kernel.add_vec(acc, term, basis.order, CTX.p)
            assert acc == ()
