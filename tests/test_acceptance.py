"""Acceptance gate: ten end-to-end criteria, one test (and one
`pytest -v` line) per criterion.  Every comparison is exact — no
tolerances anywhere.  The whole module is budgeted to finish in well
under sixty seconds at depth 4.

Run:  python3 -m pytest tests/test_acceptance.py -v
"""

import pytest

from formalpatch import oracle, patch
from formalpatch.engine import (
    ModuleOrder,
    eliminate,
    module_quotient,
    saturate,
    submodule,
    submodule_intersect,
    vec_of_polys,
)
from formalpatch.fields import QQ
from formalpatch.poly import PolyContext, parse_poly
from formalpatch.repro import REPRO_IDS, run_repro
from formalpatch.rings import make_base_ring, symbolic_power, truncate, validate_prime_data
from formalpatch.towers import (
    PresModule,
    build_tower,
    default_pool,
    q_filtration,
    stabilization_index,
    symbolic_containment_bound,
    verify_tower_laws,
)


@pytest.fixture(scope="module")
def plane():
    B = make_base_ring(QQ, ["x", "y", "t"], [], "t")
    mk = lambda s: parse_poly(s, B.context)
    pd = validate_prime_data(B, [[mk("t")]], [mk("1")])
    return B, mk, pd


@pytest.fixture(scope="module")
def line():
    B = make_base_ring(QQ, ["x", "t"], [], "t")
    mk = lambda s: parse_poly(s, B.context)
    pd = validate_prime_data(B, [[mk("t")]], [mk("1")])
    return B, mk, pd


@pytest.fixture(scope="module")
def a2_solved(plane):
    B, mk, pd = plane
    cfg = patch.make_config(B, pd, mk("y"), mk("x"), 4, declared_connected=True)
    mod = (2, [vec_of_polys([mk("y"), mk("-x")])])
    ident = [[mk("1"), mk("0")], [mk("0"), mk("1")]]
    prob = patch.pose_problem(cfg, mod, mod, mod, ident, ident, expected_rank=1)
    sol = patch.solve(prob, [0, 1, 2, 3])
    return prob, sol


@pytest.fixture(scope="module")
def ring_problems(plane, line):
    out = {}
    B1, mk1, pd1 = line
    cfg1 = patch.make_config(B1, pd1, mk1("x"), mk1("x - 1"), 4, declared_connected=True)
    prob1 = patch.pose_problem(cfg1, (1, []), (1, []), (1, []), [[mk1("1")]], [[mk1("1")]], expected_rank=1)
    out["a1"] = (prob1, patch.solve(prob1, [0, 1, 2, 3]))
    B2, mk2, pd2 = plane
    cfg2 = patch.make_config(B2, pd2, mk2("y"), mk2("x"), 4, declared_connected=True)
    prob2 = patch.pose_problem(cfg2, (1, []), (1, []), (1, []), [[mk2("1")]], [[mk2("1")]], expected_rank=1)
    out["a2"] = (prob2, patch.solve(prob2, [0, 1, 2, 3]))
    return out


@pytest.fixture(scope="module")
def two_planes_solved():
    B = make_base_ring(QQ, ["x", "y", "u", "v", "t"], ["x*u", "x*v", "y*u", "y*v"], "t")
    mk = lambda s: parse_poly(s, B.context)
    pd = validate_prime_data(
        B,
        [[mk("x"), mk("y"), mk("t")], [mk("u"), mk("v"), mk("t")]],
        [mk("u + v"), mk("x + y")],
        intersections=[[mk("x"), mk("y"), mk("u"), mk("v"), mk("t")]],
    )
    cfg = patch.make_config(B, pd, mk("y + v"), mk("x + u"), 3)
    prob = patch.pose_problem(cfg, (1, []), (1, []), (1, []), [[mk("1")]], [[mk("1")]])
    return B, mk, prob, patch.solve(prob, [0, 1, 2])


def _unit_pair(prob):
    from formalpatch.poly import Polynomial

    ctx = prob.base.context
    one = Polynomial.one(ctx)
    zero = Polynomial.zero(ctx)
    a = [zero] * prob.g1
    a[0] = one
    b = [zero] * prob.g2
    b[0] = one
    return vec_of_polys(a + b)


def test_criterion_01_ideal_solution_free_rank_one_and_strict(plane, a2_solved):
    B, mk, _ = plane
    prob, sol = a2_solved
    assert sol.status == "PASS"
    assert sol.base_module.g == 1
    assert list(sol.base_module.rel.visible_gens()) == []
    for i in range(1, 5):
        assert sol.tower.level(i).g == 1
        assert list(sol.tower.level(i).rel.visible_gens()) == []
    # the section y/y ~ x/x is the unit: 1 lies in the solution
    assert sol.section_texts() == ["((0, 1))/y ~ ((1, 0))/x"]
    # and 1 does not lie in the ideal the problem patched
    I = submodule(
        [vec_of_polys([mk("x")]), vec_of_polys([mk("y")])],
        B.context, 1, ring_rels=B.rels_vecs,
    )
    assert not I.contains(vec_of_polys([mk("1")]))
    print("CRITERION 1: PASS - free rank-1 solution at every level; 1 in M, 1 not in I")


def test_criterion_02_single_relation_torsion_and_bound(line):
    B, mk, _ = line
    pd = validate_prime_data(B, [[mk("t")]], [mk("x")])
    M = PresModule.make(B, 2, [vec_of_polys([mk("x"), mk("-t")])])
    tower = build_tower(M, 4)
    for i in (2, 3, 4):
        Mi = tower.level(i)
        el = Mi.multiply(mk("t") ** (i - 1), Mi.unit_vec(0))
        assert not Mi.contains_zero(el)
        assert Mi.contains_zero(Mi.multiply(mk("x"), el))
    filt = q_filtration(tower, pd, default_pool(pd))
    assert stabilization_index(filt) == 2
    assert symbolic_containment_bound(M, pd, 1, 5) == 2
    print("CRITERION 2: PASS - t^(i-1)m is x-torsion for i=2..4; stabilization n=2; bound(c=1)=2")


def test_criterion_03_ring_problems_recover_base_image(ring_problems):
    for name, (prob, sol) in ring_problems.items():
        assert sol.status == "PASS", name
        assert sol.denominator <= 3, name
        unit = prob.scale_pair_into(_unit_pair(prob), sol.denominator)
        for i in range(1, prob.config.depth + 1):
            base_span = prob.span_with_zero_pairs([unit], i)
            sol_span = prob.span_with_zero_pairs(list(sol.sections), i)
            assert all(base_span.contains(s) for s in sol.sections), (name, i)
            assert sol_span.contains(unit), (name, i)
    print("CRITERION 3: PASS - ring-problem solutions equal the base image at all levels, D <= 3")


def test_criterion_04_two_planes_demonstration(two_planes_solved):
    from formalpatch.poly import Polynomial

    B, mk, prob, sol = two_planes_solved
    assert sol.status == "PASS"
    one = vec_of_polys([Polynomial.one(B.context)])
    mx = patch.check_maximality(sol, [(one, 0, one, 0)])
    assert mx == {"verdict": "CONTAINED", "strict": True, "witness": "(y, x)"}
    report = run_repro("two-planes")
    assert report.verdict == "DEMONSTRATION"
    print("CRITERION 4: PASS - strictly larger than the base image; branch indicator (y, x); DEMONSTRATION")


def test_criterion_05_filtration_laws_and_transition_kernels(
    plane, line, a2_solved, ring_problems, two_planes_solved
):
    B2, mk2, pd2 = plane
    B1, mk1, _ = line
    pdx = validate_prime_data(B1, [[mk1("t")]], [mk1("x")])
    towers = [
        (build_tower(PresModule.make(B1, 2, [vec_of_polys([mk1("x"), mk1("-t")])]), 5), pdx, mk1("x")),
        (build_tower(PresModule.make(B1, 1, []), 5), pdx, mk1("x")),
        (build_tower(PresModule.make(B2, 2, [vec_of_polys([mk2("y"), mk2("-x")])]), 5), pd2, mk2("y")),
    ]
    for tower, pd, f_loc in towers:
        records, filt = verify_tower_laws(tower, pd, f_loc)
        assert all(r.verdict == "PASS" for r in records)
        assert 1 <= stabilization_index(filt) <= 5
    solutions = [a2_solved[1], ring_problems["a1"][1], ring_problems["a2"][1], two_planes_solved[3]]
    for sol in solutions:
        inj = [r for r in sol.records if r[0] == "level-injectivity"]
        assert inj and all(r[2] == "PASS" for r in inj)
    print("CRITERION 5: PASS - all filtration laws on 3 towers at depth 5; zero transition kernels on all patch instances")


def test_criterion_06_symbolic_powers():
    B = make_base_ring(QQ, ["x", "y", "z", "t"], ["x*y - t^2", "z - t"], "t")
    mk = lambda s: parse_poly(s, B.context)
    pd = validate_prime_data(B, [[mk("x"), mk("t")], [mk("y"), mk("t")]], [mk("y"), mk("x")])
    sp, _wit = symbolic_power(pd, 0, 2)
    x1 = vec_of_polys([mk("x")])
    assert sp.contains(x1)
    gens = pd.prime_gens[0]
    P2 = B.ideal([a * b for a in gens for b in gens])
    assert not P2.contains(x1)
    # principal prime: symbolic and ordinary powers agree exactly
    Bl = make_base_ring(QQ, ["x", "t"], [], "t")
    mkl = lambda s: parse_poly(s, Bl.context)
    pdl = validate_prime_data(Bl, [[mkl("t")]], [mkl("x")])
    for n in (1, 2, 3):
        spn, _ = symbolic_power(pdl, 0, n)
        Pn = Bl.ideal([mkl("t") ** n])
        assert all(Pn.contains(g) for g in spn.gens)
        assert all(spn.contains(g) for g in Pn.gens)
    print("CRITERION 6: PASS - x in P^(2) minus P^2 on the surface singularity; principal P^(n) = P^n")


def test_criterion_07_flatness_certificates_and_uniqueness(plane, line, a2_solved):
    B2, mk2, _ = plane
    B1, mk1, _ = line
    free = PresModule.make(truncate(B1, 3), 1, [])
    fc = patch.flatness_certificate(free, 1)
    assert (fc.verdict, fc.fitt_low, fc.fitt_top) == ("FLAT", "(0)", "(1)")
    ideal_mod = PresModule.make(truncate(B2, 2), 2, [vec_of_polys([mk2("y"), mk2("-x")])])
    fc2 = patch.flatness_certificate(ideal_mod, 1)
    assert (fc2.verdict, fc2.fitt_top) == ("NOT-FLAT", "(x, y)")
    xmtn = PresModule.make(truncate(B1, 3), 2, [vec_of_polys([mk1("x"), mk1("-t")])])
    fc3 = patch.flatness_certificate(xmtn, 1)
    assert (fc3.verdict, fc3.fitt_top) == ("NOT-FLAT", "(x, t)")
    prob, sol = a2_solved
    assert patch.check_flat_uniqueness(prob, sol, sol.own_sections(), 1) == {"verdict": "EQUAL", "witness": ""}
    e1 = vec_of_polys([mk2("1"), mk2("0")])
    e2 = vec_of_polys([mk2("0"), mk2("1")])
    cand_I = [(e1, 0, e1, 0), (e2, 0, e2, 0)]
    assert patch.check_flat_uniqueness(prob, sol, cand_I, 1) == {
        "verdict": "REJECTED-NONFLAT", "witness": "(x, y)",
    }
    print("CRITERION 7: PASS - Fitting signatures FLAT/NOT-FLAT as stated; EQUAL for own output, REJECTED-NONFLAT for I")


def test_criterion_08_candidate_certification_and_maximality(plane, a2_solved):
    B, mk, _ = plane
    prob, sol = a2_solved
    e1 = vec_of_polys([mk("1"), mk("0")])
    e2 = vec_of_polys([mk("0"), mk("1")])
    cand = [(e1, 0, e1, 0), (e2, 0, e2, 0)]
    records = patch.certify_solution(prob, cand)
    assert records and all(r[2] == "PASS" for r in records)
    mx = patch.check_maximality(sol, cand)
    assert mx["verdict"] == "CONTAINED" and mx["strict"] is True
    print("CRITERION 8: PASS - candidate I certifies; solver output strictly contains it")


ORACLE_CORPUS = [
    (["x", "y"], None, [], 1, [["y - x^2"]]),
    (["x", "y"], None, [], 1, [["x"], ["y"]]),
    (["x", "y"], None, [], 1, [["x^2 + y^2 - 1"], ["x - y"]]),
    (["x", "y", "z"], None, [], 1, [["y - x^2"], ["z - x^3"]]),
    (["x", "y"], None, [], 1, [["x^2"], ["x*y"]]),
    (["x", "y"], None, [], 1, [["x^2 - y"], ["y^2 - x"]]),
    (["x", "y"], None, [], 1, [["y^2 - x^3"], ["x*y"]]),
    (["x", "y", "z"], None, [], 1, [["x*y - z"], ["y*z - x"]]),
    (["x", "y"], None, [], 2, [["x", "y"], ["y", "x"]]),
    (["x", "y"], None, [], 2, [["x^2", "0"], ["x", "y"], ["0", "y^2"]]),
    (["x", "t"], "t", ["t^2"], 1, [["x*t"], ["x^2 - t"]]),
    (["x", "t"], "t", ["t^3"], 2, [["x", "-t"], ["t^2", "0"]]),
    (["x", "y"], None, [], 1, [["x^3 + y^3 - 1"], ["x + y - 1"]]),
]


def test_criterion_09_engine_matches_bruteforce_oracle():
    assert len(ORACLE_CORPUS) >= 12
    for varnames, tvar, rel_texts, rank, gen_texts in ORACLE_CORPUS:
        ctx = PolyContext(QQ, varnames, tvar=tvar)
        rels = tuple(vec_of_polys([parse_poly(s, ctx)]) for s in rel_texts)
        gens = [vec_of_polys([parse_poly(s, ctx) for s in row]) for row in gen_texts]
        order = ModuleOrder().descriptor(ctx)
        b = submodule(gens, ctx, rank, ring_rels=rels, order=order)
        got = oracle.groebner(gens, list(rels), rank, ctx.nvars, order, ctx.p, 8)
        assert list(b.gens) == list(got)
    # one exact comparison per derived operation
    ctx = PolyContext(QQ, ["x", "y"])
    order = ModuleOrder().descriptor(ctx)
    g1 = [vec_of_polys([parse_poly("x", ctx)])]
    g2 = [vec_of_polys([parse_poly("y", ctx)]), vec_of_polys([parse_poly("x - y^2", ctx)])]
    inter = submodule_intersect(
        submodule(g1, ctx, 1, order=order), submodule(g2, ctx, 1, order=order)
    )
    assert list(inter.gens) == list(oracle.intersect(g1, g2, [], 1, 2, order, ctx.p, 8))
    ctx2 = PolyContext(QQ, ["x", "t"], tvar="t")
    order2 = ModuleOrder().descriptor(ctx2)
    rels2 = [vec_of_polys([parse_poly("t^3", ctx2)])]
    gens2 = [vec_of_polys([parse_poly("x", ctx2), -parse_poly("t", ctx2)])]
    fvec = tuple(((m, 0), c) for (m, _), c in parse_poly("x", ctx2).terms)
    b2 = submodule(gens2, ctx2, 2, ring_rels=tuple(rels2), order=order2)
    q = module_quotient(b2, parse_poly("x", ctx2))
    assert list(q.gens) == list(
        oracle.module_quotient(list(b2.gens), fvec, rels2, 2, 2, order2, ctx2.p, 7, 5)
    )
    sat, wit = saturate(b2, parse_poly("x", ctx2))
    got_s, got_w = oracle.saturate(list(b2.gens), fvec, rels2, 2, 2, order2, ctx2.p, 7, 5)
    assert (list(sat.gens), wit) == (list(got_s), got_w)
    ctx3 = PolyContext(QQ, ["u", "x", "y"])
    gens3 = [
        vec_of_polys([parse_poly("u*x - 1", ctx3)]),
        vec_of_polys([parse_poly("u*y - x", ctx3)]),
    ]
    b3 = submodule(gens3, ctx3, 1)
    e3 = eliminate(b3, ["u"])
    got_e = oracle.eliminate(list(b3.gens), (0,), [], 1, 3, (((0,), (1, 2)), 0, ()), ctx3.p, 8)
    assert e3.gens == submodule(got_e, ctx3, 1).gens
    print("CRITERION 9: PASS - engine agrees bit-exactly with the brute-force oracle on 13 corpus entries and all five operations")


def test_criterion_10_determinism(a2_solved):
    for rid in sorted(REPRO_IDS):
        assert run_repro(rid).text() == run_repro(rid).text(), rid
    prob, sol = a2_solved
    other = patch.solve(prob, [0, 2, 3])
    assert other.sections == sol.sections
    assert other.denominator == sol.denominator
    print("CRITERION 10: PASS - byte-identical repro reports; schedule-independent solver output")
