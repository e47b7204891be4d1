"""Engine checks against values frozen from the brute-force oracle, plus
structural properties (determinism, order invariance, budgets)."""

import hashlib
import random
from fractions import Fraction

import pytest

from formalpatch import engine, kernel
from formalpatch.cli import main
from formalpatch.engine import (
    Budget,
    BudgetError,
    ModuleOrder,
    colon_element,
    colon_module,
    eliminate,
    leads_coprime,
    module_quotient,
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
from formalpatch.poly import LEX, MonomialOrder, PolyContext, Polynomial, block_order, parse_poly

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
    b = submodule([vec_of_polys([p("x"), p("y")]), vec_of_polys([p("y"), p("x")])], CTX, 2)
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


def test_degree_budget_raises_with_offender(monkeypatch):
    monkeypatch.setenv("FORMALPATCH_BUDGET", "2:10")
    with pytest.raises(BudgetError) as e:
        submodule([vec_of_polys([p(s)]) for s in ("x^3 - y", "x*y^2 - 1")], CTX, 1)
    assert "degree budget" in str(e.value)
    assert e.value.detail and "pair" in e.value.detail


def test_pair_budget_raises(monkeypatch):
    monkeypatch.setenv("FORMALPATCH_BUDGET", "40:1")
    with pytest.raises(BudgetError) as e:
        submodule([vec_of_polys([p(s)]) for s in ("x^2 - y", "x*y - 1", "y^2 - x")], CTX, 1)
    assert "S-pair budget" in str(e.value)


def _budget_failure(run):
    with pytest.raises(BudgetError) as e:
        run()
    return str(e.value), e.value.detail


def _replay_basis(ctx):
    gens = [vec_of_polys([parse_poly(s, ctx)]) for s in ("x^3 - y", "x*y^2 - 1")]
    return lambda: submodule(gens, ctx, 1)


def _replay_syzygies(ctx):
    # the basis is built here, under the default budget, so that only
    # the syzygy run meets the tighter one
    basis = _replay_basis(ctx)()
    return lambda: syzygy_basis(basis)


@pytest.mark.parametrize("build", [_replay_basis, _replay_syzygies])
@pytest.mark.parametrize("budget", [Budget(maxdeg=2), Budget(maxpairs=1)])
def test_cached_basis_replays_budget_error(build, budget, monkeypatch):
    run = build(PolyContext(QQ, ["x", "y"]))
    fresh = build(PolyContext(QQ, ["x", "y"]))
    first = run()  # cached under the default budget
    monkeypatch.setenv("FORMALPATCH_BUDGET", "%d:%d" % (budget.maxdeg, budget.maxpairs))
    replayed = _budget_failure(run)
    assert replayed == _budget_failure(fresh)
    monkeypatch.delenv("FORMALPATCH_BUDGET")
    assert run().gens == first.gens


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


def test_colon_count_gate(monkeypatch, capsys):
    # saturate's lead-term certificate skips the colons that would only
    # confirm a module already saturated
    colons = []
    real = engine.module_quotient

    def counted(*args):
        colons.append(1)
        return real(*args)

    monkeypatch.setattr(engine, "module_quotient", counted)
    assert main(["solve", "a2-ideal-xy", "--depth", "4"]) == 0
    capsys.readouterr()
    assert 0 < len(colons) <= 50


def test_spair_count_gate(monkeypatch, capsys):
    calls = []
    real = kernel.spair_vec

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(kernel, "spair_vec", counted)
    assert main(["solve", "a2-ideal-xy", "--depth", "4"]) == 0
    capsys.readouterr()
    assert 0 < len(calls) <= 900


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("FORMALPATCH_BUDGET", "7:123")
    assert Budget.from_env() == Budget(7, 123)
    monkeypatch.setenv("FORMALPATCH_BUDGET", "bogus")
    with pytest.raises(ValueError):
        Budget.from_env()


def test_normal_form_wrapper_roundtrip():
    b = submodule([vec_of_polys([p("x"), p("y")]), vec_of_polys([p("0"), p("x - y")])], CTX, 2)
    assert b.nf(vec_of_polys([p("x"), p("y")])) == ()
    w = vec_of_polys([p("1"), p("0")])
    assert b.nf(w) == w


def test_nf_is_idempotent():
    b = ideal(CTX, "x^2 + y", "y^2 - 2")
    v = vec_of_polys([p("x^3*y^2 - x + 5")])
    r = b.nf(v)
    assert b.nf(r) == r


F32003 = PrimeField(32003)


def random_poly(rng, ctx, nterms, maxexp):
    terms = [
        ((tuple(rng.randrange(0, maxexp + 1) for _ in range(ctx.nvars)), 0), rng.randrange(1, 32003))
        for _ in range(nterms)
    ]
    return Polynomial(ctx, terms)


def test_intersection_over_localized_context_contains_product():
    # u is an adjoined inverse: the auxiliary variable of the
    # intersection must still be eliminated on its own
    ctx = PolyContext(F32003, ("u", "x", "y"), None, 1)
    rng = random.Random("localized-intersection")
    for _ in range(40):
        a = random_poly(rng, ctx, rng.randrange(1, 4), 2)
        b = random_poly(rng, ctx, rng.randrange(1, 4), 2)
        if a.is_zero or b.is_zero:
            continue
        cap = submodule_intersect(
            submodule([vec_of_polys([a])], ctx, 1), submodule([vec_of_polys([b])], ctx, 1)
        )
        assert cap.contains(vec_of_polys([a * b]))


def test_rabinowitsch_matches_iterated_colon_over_localized_context():
    ctx = PolyContext(F32003, ("u", "x", "y"), None, 1)
    for k in range(200):
        rng = random.Random("loc-sat:%d" % k)
        gens = [random_poly(rng, ctx, rng.randrange(1, 4), 2) for _ in range(2)]
        f = random_poly(rng, ctx, rng.randrange(1, 3), 1)
        if f.is_zero:
            continue
        N = submodule([vec_of_polys([g]) for g in gens], ctx, 1)
        assert saturate_rabinowitsch(N, f).gens == saturate(N, f)[0].gens


def iterated_colon(N, f):
    """(N : f^infinity, witness) by the plain chain N, N:f, N:f^2, ...:
    the reference for engine.saturate's lead-term certificate."""
    cur, e = N, 0
    while True:
        nxt = module_quotient(cur, f)
        if nxt.gens == cur.gens:
            return cur, e
        cur, e = nxt, e + 1


def _lead_of(f, basis):
    return kernel.canon_vec(f.terms, basis.order, basis.context.p)[0][0][0]


def _sparse_poly(rng, ctx, nterms, maxexp):
    """Random poly in a random subset of ctx's variables, so that
    leads avoid some variables and the certificate can fire."""
    use = [rng.random() < 0.6 for _ in range(ctx.nvars)]
    terms = [
        ((tuple(rng.randrange(maxexp + 1) if u else 0 for u in use), 0),
         ctx.field.of_ratio(rng.randrange(-9, 10) or 1, rng.randrange(1, 4)))
        for _ in range(nterms)
    ]
    return Polynomial(ctx, terms)


@pytest.mark.parametrize("field", [F32003, QQ], ids=["F32003", "QQ"])
@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("kind", ["grevlex", "lex", "elimination", "pot", "grouped"])
def test_lead_certificate_is_sound(field, rank, kind):
    ctx = PolyContext(field, ["x", "y", "z"])
    order = {
        "grevlex": ModuleOrder(),
        "lex": ModuleOrder(LEX),
        "elimination": ModuleOrder(block_order(["x"], ["y", "z"])),
        "pot": ModuleOrder(policy="pot"),
        "grouped": ModuleOrder(),
    }[kind]
    desc = order.descriptor(ctx, tuple(range(rank))[::-1] if kind == "grouped" else ())
    rng = random.Random("lead-certificate:%r:%d:%s" % (field, rank, kind))
    fired = grew = 0
    for _ in range(20):
        vecs = [
            vec_of_polys([_sparse_poly(rng, ctx, rng.randrange(1, 3), 1) for _ in range(rank)])
            for _ in range(rng.randrange(1, 4))
        ]
        rels = [vec_of_polys([_sparse_poly(rng, ctx, 2, 2)])] if rng.random() < 0.3 else []
        N = submodule(vecs, ctx, rank, rels, desc)
        f = _sparse_poly(rng, ctx, rng.randrange(1, 3), 2)
        if f.is_zero:
            continue
        if leads_coprime(N, _lead_of(f, N)):
            fired += 1
            assert module_quotient(N, f).gens == N.gens
        sat, wit = saturate(N, f)
        assert (sat, wit) == iterated_colon(N, f)
        assert saturate_rabinowitsch(N, f).gens == sat.gens
        grew += wit > 0
    assert fired and grew


def test_lead_certificate_may_miss_a_nonzerodivisor():
    # x + u avoids both components of V(x*u, x*v, y*u, y*v), so it is a
    # nonzerodivisor, but its lead x divides the leads x*u and x*v
    ctx = PolyContext(QQ, ["x", "y", "u", "v", "t"], tvar="t")
    N = ideal(ctx, "x*u", "x*v", "y*u", "y*v")
    f = p("x + u", ctx)
    assert not leads_coprime(N, _lead_of(f, N))
    assert module_quotient(N, f).gens == N.gens
    assert saturate(N, f) == (N, 0)


def test_saturate_keeps_module_quotient_errors():
    b = ideal(CTX_T, "x*t")
    with pytest.raises(ValueError, match="quotient by zero"):
        saturate(b, Polynomial.zero(CTX_T))
    with pytest.raises(ValueError, match="mixed contexts"):
        saturate(b, p("x"))


def reference_buchberger(gens, order, p):
    """Buchberger with no pair criteria: every S-pair of two leads in
    one position is reduced, in first-in first-out order; the result is
    minimalized and interreduced.  Kept as the reference for the pair
    update of engine._buchberger.  Returns (reduced basis, pairs
    reduced)."""
    G = list(gens)
    pairs = [(i, j) for j in range(len(G)) for i in range(j)]
    reduced = 0
    while pairs:
        i, j = pairs.pop(0)
        if G[i][0][0][1] != G[j][0][0][1]:
            continue
        reduced += 1
        h = kernel.nf_vec(kernel.spair_vec(G[i], G[j], order, p), G, order, p)
        if h:
            pairs += [(k, len(G)) for k in range(len(G))]
            G.append(kernel.monic_vec(h, p))

    def redundant(k):
        (mg, pg), _ = G[k][0]
        for k2, h in enumerate(G):
            (mh, ph), _ = h[0]
            if k2 != k and ph == pg and kernel.mono_divides(mh, mg) and (mh != mg or k2 < k):
                return True
        return False

    minimal = [g for k, g in enumerate(G) if not redundant(k)]
    out = []
    for k, g in enumerate(minimal):
        rest = minimal[:k] + minimal[k + 1:]
        out.append(kernel.monic_vec(kernel.nf_vec(g, rest, order, p), p))
    out.sort(key=lambda g: kernel.term_sortkey(g[0][0], order), reverse=True)
    return tuple(out), reduced


# Three variables, positions 0..2.
GB_ORDERS = {
    "grevlex": (((0, 1, 2),), 0, ()),
    "elimination": (((0,), (1, 2)), 0, ()),
    "lex": (((0,), (1,), (2,)), 0, ()),
    "pot": (((0, 1, 2),), 1, ()),
    "grouped": (((0, 1, 2),), 0, (0, 0, 1)),
}


def random_gens(rng, p, order, rank):
    def coeff():
        if p:
            return rng.randrange(1, p)
        return Fraction(rng.choice([-1, 1]) * rng.randrange(1, 5), rng.randrange(1, 3))

    gens = []
    for _ in range(rng.randrange(2, 5)):
        pairs = [
            ((tuple(rng.randrange(0, 3) for _ in range(3)), rng.randrange(rank)), coeff())
            for _ in range(rng.randrange(1, 4))
        ]
        gens.append(kernel.canon_vec(pairs, order, p))
    return gens


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("p", [0, 7, 32003])
@pytest.mark.parametrize("name", sorted(GB_ORDERS))
def test_pair_criteria_match_criterion_free_buchberger(name, p, rank):
    order = GB_ORDERS[name]
    rng = random.Random("criteria:%s:%d:%d" % (name, p, rank))
    popped = reference = 0
    for _ in range(8):
        gens = engine._monic_gens(random_gens(rng, p, order, rank), order, p)
        basis, use = engine._buchberger(gens, order, p, rank == 1, Budget())
        expected, reduced = reference_buchberger(gens, order, p)
        assert basis == expected
        popped += use[1]
        reference += reduced
    assert popped < reference  # the criteria do drop pairs


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("p", [0, 7, 32003])
@pytest.mark.parametrize("name", sorted(GB_ORDERS))
def test_seeded_buchberger_matches_unseeded_run(name, p, rank):
    # a reduced basis as the first `known` inputs forms no pairs of its
    # own; the unseeded run is checked against reference_buchberger above
    order = GB_ORDERS[name]
    rng = random.Random("seeded:%s:%d:%d" % (name, p, rank))
    for _ in range(8):
        seed, _ = engine._buchberger(
            engine._monic_gens(random_gens(rng, p, order, rank), order, p), order, p, rank == 1, Budget()
        )
        gens = seed + engine._monic_gens(random_gens(rng, p, order, rank), order, p)
        basis, _ = engine._buchberger(gens, order, p, rank == 1, Budget(), len(seed))
        expected, _ = engine._buchberger(gens, order, p, rank == 1, Budget())
        assert basis == expected


def _ring(p, rels=()):
    field = PrimeField(p) if p else QQ
    ctx = PolyContext(field, ["x", "y", "z"])
    return ctx, tuple(vec_of_polys([parse_poly(r, ctx)]) for r in rels)


@pytest.mark.parametrize("rels", [(), ("x*z - y^2",)])
@pytest.mark.parametrize("p", [0, 7, 32003])
@pytest.mark.parametrize("name", sorted(GB_ORDERS))
def test_extend_matches_basis_of_the_union(name, p, rels):
    order = GB_ORDERS[name]
    ctx, ring_rels = _ring(p, rels)
    for rank in (1, 2):
        rng = random.Random("extend:%s:%d:%r:%d" % (name, p, rels, rank))
        for _ in range(4):
            first = random_gens(rng, p, order, rank)
            more = random_gens(rng, p, order, rank)
            base = submodule(first, ctx, rank, ring_rels, order)
            union = submodule(first + more, ctx, rank, ring_rels, order)
            assert base.extend(more).gens == union.gens


def small_gens(rng, p, order, rank):
    """Two vecs of one or two terms, exponents at most 2: syzygy inputs
    whose extended bases stay small under every order of GB_ORDERS."""
    gens = []
    for _ in range(2):
        pairs = [
            ((tuple(rng.randrange(0, 3) for _ in range(3)), rng.randrange(rank)),
             rng.randrange(1, p) if p else Fraction(rng.randrange(1, 5), rng.randrange(1, 3)))
            for _ in range(rng.randrange(1, 3))
        ]
        gens.append(kernel.canon_vec(pairs, order, p))
    return gens


def reference_syzygy_project(main, aux, ctx, rank, ring_rels, order):
    """{c : sum c_i main_i lies in span(aux) + relation rows} by the
    textbook construction: every generator, aux and relation rows
    included, gets a tag coordinate; the basis elements with no term
    outside the tags are cut down to the main tags and reduced again
    under `order`."""
    p = ctx.p
    full = list(main) + list(aux) + engine.diagonal_rows(ring_rels, rank)
    one = kernel.mono_one(ctx.nvars)
    ext = [v + (((one, rank + i), ctx.field.one),) for i, v in enumerate(full)]
    ext_order = (order[0], order[1], (0,) * rank + (1,) * len(full))
    gb, _ = engine._buchberger(engine._monic_gens(ext, ext_order, p), ext_order, p, False, Budget())
    projected = [
        tuple(((m, pos - rank), c) for (m, pos), c in g if pos - rank < len(main))
        for g in gb
        if g[0][0][1] >= rank
    ]
    return submodule(projected, ctx, len(main), ring_rels, order).gens


# "split" puts position 0 above positions 1 and 2, in both the rank and
# the main coordinates, so that neither the seed nor the projection is a
# reduced basis under the extended order's grouping.
SYZYGY_ORDERS = dict(GB_ORDERS, split=(((0, 1, 2),), 0, (0, 1, 1)))


@pytest.mark.parametrize("rels", [(), ("x*z - y^2",)])
@pytest.mark.parametrize("p", [0, 7, 32003])
@pytest.mark.parametrize("name", sorted(SYZYGY_ORDERS))
def test_syzygy_project_matches_tagging_every_generator(name, p, rels):
    # main alone tagged, aux a basis of some generators or the zero
    # basis of syzygy_basis; the grouped orders take the route that
    # reduces the projection again
    order = SYZYGY_ORDERS[name]
    ctx, ring_rels = _ring(p, rels)
    for rank in (1, 2, 3):
        rng = random.Random("syzygy:%s:%d:%r:%d" % (name, p, rels, rank))
        for _ in range(4):
            main = small_gens(rng, p, order, rank)
            aux = submodule(small_gens(rng, p, order, rank), ctx, rank, ring_rels, order)
            for basis in (aux, aux.zero()):
                expected = reference_syzygy_project(main, basis.gens, ctx, rank, ring_rels, order)
                assert engine.syzygy_project(main, basis).gens == expected


@pytest.mark.parametrize("order", [None, ModuleOrder(LEX).descriptor(CTX_T)])
def test_eliminations_return_reduced_bases(order):
    # the auxiliary-variable-free part of the elimination basis is taken
    # as it is under the default order and reduced again under any other
    rng = random.Random("contraction:%r" % (order,))
    for _ in range(20):
        a, b, f = (
            parse_poly("%d*x^%d*t + %d*t^%d - %d" % (
                rng.randrange(1, 5), rng.randrange(3), rng.randrange(1, 5),
                rng.randrange(3), rng.randrange(5)), CTX_T)
            for _ in range(3)
        )
        A = submodule([vec_of_polys([a])], CTX_T, 1, order=order)
        B = submodule([vec_of_polys([b])], CTX_T, 1, order=order)
        for result in (submodule_intersect(A, B), saturate_rabinowitsch(A, f)):
            assert result.order == A.order
            again = submodule(list(result.gens), CTX_T, 1, order=A.order)
            assert result.gens == again.gens
        assert submodule_intersect(A, B).contains(vec_of_polys([a * b]))


def _sweep_record(order, p, rank, gens, known=0):
    """(basis, use) of one _buchberger run, and the BudgetErrors
    (message, detail) of its reruns one degree and one pair below that
    use."""
    basis, use = engine._buchberger(gens, order, p, rank == 1, Budget(), known)
    failures = []
    for tight in (Budget(maxdeg=use[0] - 1), Budget(maxpairs=use[1] - 1)):
        if use[1] == 0:
            break
        try:
            engine._buchberger(gens, order, p, rank == 1, tight, known)
        except BudgetError as exc:
            failures.append((str(exc), exc.detail))
    return basis, use, failures


def sweep_digest():
    """SHA-256 over seeded _buchberger runs: ideals (rank 1) and modules
    (ranks 2, 3) over Q, F_7 and F_32003 under every order of GB_ORDERS,
    unseeded and seeded with a reduced basis."""
    h = hashlib.sha256()
    for name in sorted(GB_ORDERS):
        order = GB_ORDERS[name]
        for p in (0, 7, 32003):
            for rank in (1, 2, 3):
                rng = random.Random("sweep:%s:%d:%d" % (name, p, rank))
                for _ in range(5):
                    gens = engine._monic_gens(random_gens(rng, p, order, rank), order, p)
                    record = _sweep_record(order, p, rank, gens)
                    more = engine._monic_gens(random_gens(rng, p, order, rank), order, p)
                    seeded = _sweep_record(order, p, rank, record[0] + more, len(record[0]))
                    h.update(repr((name, p, rank, record, seeded)).encode())
    return h.hexdigest()


# recorded with the tuple-monomial engine that preceded packed terms
SWEEP_DIGEST = "223a00657481eb65d91288e6922ffdd3ab028208f9d3f260bbcc3f7cb509e1f2"


def test_seeded_sweep_matches_frozen_digest():
    # reduced bases, the (lcm degree, pairs) use that budget replay
    # compares, and the BudgetError a tighter budget raises
    assert sweep_digest() == SWEEP_DIGEST


def test_seeded_syzygy_pair_gate(monkeypatch, capsys):
    # colons, kernels and spans start from the reduced bases they extend
    calls = []
    real = kernel.spair_vec

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(kernel, "spair_vec", counted)
    assert main(["repro", "two-planes"]) == 0
    capsys.readouterr()
    assert 0 < len(calls) <= 2000


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
