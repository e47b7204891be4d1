"""Patching problems over a two-chart cover: posing, solving by the
level-wise fiber-product kernel, certificates, maximality against
candidates, and the flatness-based uniqueness check."""

import copy
import json

import pytest

from formalpatch import patch
from formalpatch.engine import submodule, vec_of_polys, vec_text
from formalpatch.fields import QQ
from formalpatch.instance import Instance, bundled_path, load_instance
from formalpatch.poly import parse_poly
from formalpatch.rings import make_base_ring, truncate, validate_prime_data
from formalpatch.towers import PresModule


@pytest.fixture
def plane():
    """k[x, y, t] with the whole fiber (t) in one piece."""
    B = make_base_ring(QQ, ["x", "y", "t"], [], "t")
    ctx = B.context
    mk = lambda s: parse_poly(s, ctx)
    pd = validate_prime_data(B, [[mk("t")]], [mk("1")])
    return B, mk, pd


@pytest.fixture
def ideal_problem(plane):
    """I = (x, y) patched over the cover {y != 0} ∪ {x != 0}."""
    B, mk, pd = plane
    cfg = patch.make_config(B, pd, mk("y"), mk("x"), 4, declared_connected=True)
    mod = (2, [vec_of_polys([mk("y"), mk("-x")])])
    ident = [[mk("1"), mk("0")], [mk("0"), mk("1")]]
    prob = patch.pose_problem(cfg, mod, mod, mod, ident, ident, expected_rank=1)
    return B, mk, cfg, prob


@pytest.fixture
def line_ring_problem():
    """The ring problem on k[x, t] with charts x != 0 and x != 1."""
    B = make_base_ring(QQ, ["x", "t"], [], "t")
    ctx = B.context
    mk = lambda s: parse_poly(s, ctx)
    pd = validate_prime_data(B, [[mk("t")]], [mk("1")])
    cfg = patch.make_config(B, pd, mk("x"), mk("x - 1"), 4, declared_connected=True)
    mod = (1, [])
    one = [[mk("1")]]
    prob = patch.pose_problem(cfg, mod, mod, mod, one, one, expected_rank=1)
    return B, mk, cfg, prob


class TestConfig:
    def test_depth_guard(self, plane):
        B, mk, pd = plane
        with pytest.raises(patch.PatchError, match="depth"):
            patch.make_config(B, pd, mk("y"), mk("x"), 0)

    def test_chart_function_dense_on_fiber(self, plane):
        # t itself vanishes on the whole closed fiber
        B, mk, pd = plane
        with pytest.raises(patch.PatchError, match="density failure"):
            patch.make_config(B, pd, mk("t"), mk("x"), 2)

    def test_missing_locus_must_be_small(self):
        # on k[x, t] the two charts x != 0, x != 0 miss a divisor
        B = make_base_ring(QQ, ["x", "t"], [], "t")
        mk = lambda s: parse_poly(s, B.context)
        pd = validate_prime_data(B, [[mk("t")]], [mk("1")])
        with pytest.raises(patch.PatchError, match="codimension"):
            patch.make_config(B, pd, mk("x"), mk("x"), 2)

    def test_connectivity_warning_when_declared(self, plane):
        B, mk, pd = plane
        cfg = patch.make_config(B, pd, mk("y"), mk("x"), 2, declared_connected=True)
        assert cfg.warnings == ()


class TestPose:
    def test_identity_alpha_certifies(self, ideal_problem):
        _, _, _, prob = ideal_problem
        assert all(r[2] in ("PASS", "CERTIFIED-AT-DEPTH") for r in prob.records)

    def test_non_surjective_alpha_rejected(self, plane):
        B, mk, pd = plane
        cfg = patch.make_config(B, pd, mk("y"), mk("x"), 3, declared_connected=True)
        mod = (2, [vec_of_polys([mk("y"), mk("-x")])])
        scaled = [[mk("t"), mk("0")], [mk("0"), mk("t")]]
        ident = [[mk("1"), mk("0")], [mk("0"), mk("1")]]
        with pytest.raises(patch.PatchError, match="not surjective at level 1"):
            patch.pose_problem(cfg, mod, mod, mod, scaled, ident)


class TestSolveIdeal:
    def test_free_rank_one(self, ideal_problem):
        _, _, _, prob = ideal_problem
        sol = patch.solve(prob, [0, 1, 2, 3])
        assert sol.status == "PASS"
        assert sol.denominator == 1
        assert sol.section_texts() == ["((0, 1))/y ~ ((1, 0))/x"]
        assert sol.base_module.g == 1
        assert list(sol.base_module.rel.visible_gens()) == []
        assert sol.flat_verdict == "FLAT"

    def test_one_generates_but_is_not_in_ideal(self, ideal_problem):
        B, mk, _, prob = ideal_problem
        sol = patch.solve(prob, [0, 1, 2, 3])
        I = submodule(
            [vec_of_polys([mk("x")]), vec_of_polys([mk("y")])],
            B.context,
            1,
            ring_rels=B.rels_vecs,
        )
        assert not I.contains(vec_of_polys([mk("1")]))

    def test_schedule_independence(self, ideal_problem):
        _, _, _, prob = ideal_problem
        a = patch.solve(prob, [0, 1, 2, 3])
        b = patch.solve(prob, [0, 2, 3])
        assert a.sections == b.sections
        assert a.denominator == b.denominator

    def test_short_schedule_unstabilized(self, ideal_problem):
        _, _, _, prob = ideal_problem
        sol = patch.solve(prob, [0])
        assert sol.status == "UNSTABILIZED"


class TestSolveRingProblems:
    def test_line_two_charts(self, line_ring_problem):
        B, mk, _, prob = line_ring_problem
        sol = patch.solve(prob, [0, 1, 2, 3])
        assert sol.status == "PASS"
        assert sol.denominator == 0
        assert sol.section_texts() == ["(1) ~ (1)"]
        assert sol.flat_verdict == "FLAT"

    def test_line_visible_fiber_product(self, line_ring_problem):
        # at level 1 with denominator bound 2 the raw kernel is spanned by
        # (x^2, (x - 1)^2), the common denominators of the section (1, 1)
        B, mk, _, prob = line_ring_problem
        K = prob.sections_at(1, 2)
        texts = [vec_text(B.context, 2, s) for s in K]
        assert texts == ["(x^2, x^2 - 2*x + 1)"]

    def test_plane_two_charts(self, plane):
        B, mk, pd = plane
        cfg = patch.make_config(B, pd, mk("y"), mk("x"), 4, declared_connected=True)
        mod = (1, [])
        one = [[mk("1")]]
        prob = patch.pose_problem(cfg, mod, mod, mod, one, one, expected_rank=1)
        sol = patch.solve(prob, [0, 1, 2, 3])
        assert sol.status == "PASS"
        assert sol.denominator == 0
        assert sol.section_texts() == ["(1) ~ (1)"]

    def test_trivial_first_chart(self, plane):
        B, mk, pd = plane
        cfg = patch.make_config(B, pd, mk("1"), mk("x"), 3, declared_connected=True)
        mod = (1, [])
        one = [[mk("1")]]
        prob = patch.pose_problem(cfg, mod, mod, mod, one, one)
        sol = patch.solve(prob, [0, 1, 2])
        assert sol.status == "PASS"
        assert sol.section_texts() == ["(1) ~ (1)"]


@pytest.fixture
def two_planes():
    """Two planes meeting at a point, as a product family over t."""
    B = make_base_ring(
        QQ, ["x", "y", "u", "v", "t"], ["x*u", "x*v", "y*u", "y*v"], "t"
    )
    ctx = B.context
    mk = lambda s: parse_poly(s, ctx)
    pd = validate_prime_data(
        B,
        [[mk("x"), mk("y"), mk("t")], [mk("u"), mk("v"), mk("t")]],
        [mk("u + v"), mk("x + y")],
        intersections=[[mk("x"), mk("y"), mk("u"), mk("v"), mk("t")]],
    )
    return B, mk, pd


class TestTwoPlanes:
    def test_undeclared_connectivity_warns(self, two_planes):
        B, mk, pd = two_planes
        cfg = patch.make_config(B, pd, mk("y + v"), mk("x + u"), 3)
        assert len(cfg.warnings) == 1
        assert "declared" in cfg.warnings[0]

    def test_branch_indicator_section(self, two_planes):
        B, mk, pd = two_planes
        cfg = patch.make_config(B, pd, mk("y + v"), mk("x + u"), 3)
        mod = (1, [])
        one = [[mk("1")]]
        prob = patch.pose_problem(cfg, mod, mod, mod, one, one)
        sol = patch.solve(prob, [0, 1, 2])
        assert sol.status == "PASS"
        assert sol.denominator == 1
        assert sol.section_texts() == [
            "(y)/(y + v) ~ (x)/(x + u)",
            "(v)/(y + v) ~ (u)/(x + u)",
        ]
        # the base image (1, 1) sits strictly inside: (y, x) is the witness
        one1 = vec_of_polys([mk("1")])
        mx = patch.check_maximality(sol, [(one1, 0, one1, 0)])
        assert mx == {"verdict": "CONTAINED", "strict": True, "witness": "(y, x)"}


class TestCoverChoice:
    def test_two_planes_pool(self, two_planes):
        B, mk, pd = two_planes
        from formalpatch.poly import canonical_text

        f1, f2 = patch.choose_codim2_cover(B, pd, [mk("1 + x"), mk("1 + y")])
        assert (canonical_text(f1), canonical_text(f2)) == ("x + 1", "y + 1")

    def test_plane_pool_xy(self, plane):
        B, mk, pd = plane
        from formalpatch.poly import canonical_text

        f1, f2 = patch.choose_codim2_cover(B, pd, [mk("x"), mk("y")])
        assert (canonical_text(f1), canonical_text(f2)) == ("x", "y")

    def test_unit_pool_trivial_cover(self, plane):
        B, mk, pd = plane
        from formalpatch.poly import canonical_text

        f1, f2 = patch.choose_codim2_cover(B, pd, [mk("1")])
        assert (canonical_text(f1), canonical_text(f2)) == ("1", "1")

    def test_insufficient_pool(self, plane):
        B, mk, pd = plane
        with pytest.raises(patch.PatchError, match="pool"):
            patch.choose_codim2_cover(B, pd, [mk("t")])


class TestCertifyAndMaximality:
    def test_candidate_ideal_certifies(self, ideal_problem):
        B, mk, _, prob = ideal_problem
        e1 = vec_of_polys([mk("1"), mk("0")])
        e2 = vec_of_polys([mk("0"), mk("1")])
        cand = [(e1, 0, e1, 0), (e2, 0, e2, 0)]
        records = patch.certify_solution(prob, cand)
        assert all(r[2] == "PASS" for r in records)

    def test_ideal_strictly_below_solution(self, ideal_problem):
        B, mk, _, prob = ideal_problem
        sol = patch.solve(prob, [0, 1, 2, 3])
        e1 = vec_of_polys([mk("1"), mk("0")])
        e2 = vec_of_polys([mk("0"), mk("1")])
        cand = [(e1, 0, e1, 0), (e2, 0, e2, 0)]
        mx = patch.check_maximality(sol, cand)
        assert mx["verdict"] == "CONTAINED"
        assert mx["strict"] is True
        assert mx["witness"] == "(0, 1, 1, 0)"


# the bundled instances that pose a patching problem
PROBLEM_INSTANCES = ["a2-ideal-xy", "a1-partial-fractions", "two-planes", "flat-free-a2"]


@pytest.mark.parametrize("name", PROBLEM_INSTANCES)
def test_solver_records_match_certify_on_own_sections(name):
    """The solver's gamma-span and commutation records are the
    candidate certificate applied to its own sections at its
    denominator."""
    _, prob, schedule = load_instance(bundled_path(name)).patch_setup()
    sol = patch.solve(prob, schedule)
    certified = patch.certify_solution(prob, sol.own_sections())
    solver = [r for r in sol.records
              if r.name.startswith("gamma-span-") or r.name == "commutation"]
    assert certified and solver == certified


@pytest.mark.parametrize("name", PROBLEM_INSTANCES)
def test_chart_swap_identity(name):
    """Posing the problem again with f1<->f2, m1<->m2 and
    alpha1<->alpha2 keeps the status, the denominator and the flat
    verdict, and the swapped sections, swapped back, lie in the
    original solution's span without escaping it.  The sections
    themselves may differ: the greedy minimal choice depends on the
    coordinate order."""
    path = bundled_path(name)
    with open(path) as fh:
        data = json.load(fh)
    swapped = copy.deepcopy(data)
    for section, a, b in (("config", "f1", "f2"), ("problem", "m1", "m2"),
                          ("problem", "alpha1", "alpha2")):
        entry = swapped[section]
        entry[a], entry[b] = entry[b], entry[a]
    _, prob, schedule = Instance(path, data).patch_setup()
    _, prob_sw, schedule_sw = Instance(path, swapped).patch_setup()
    sol = patch.solve(prob, schedule)
    sol_sw = patch.solve(prob_sw, schedule_sw)
    assert (sol_sw.status, sol_sw.denominator, sol_sw.flat_verdict) == (
        sol.status, sol.denominator, sol.flat_verdict)
    back = [(a, da, b, db) for b, db, a, da in sol_sw.own_sections()]
    mx = patch.check_maximality(sol, back)
    assert (mx["verdict"], mx["strict"]) == ("CONTAINED", False)


def _outcome(sol):
    return sol.status, sol.denominator, sol.section_texts()


@pytest.mark.parametrize("name", PROBLEM_INSTANCES)
def test_prime_field_identity(name):
    """Solving the problem over F_32003 instead of Q keeps the status,
    the denominator, the flat verdict, the verdict of every record and
    the section texts."""
    path = bundled_path(name)
    with open(path) as fh:
        data = json.load(fh)
    modular = copy.deepcopy(data)
    modular["field"] = {"characteristic": 32003}
    sols = []
    for d in (data, modular):
        _, prob, schedule = Instance(path, d).patch_setup()
        sols.append(patch.solve(prob, schedule))
    rational, mod_p = sols
    assert mod_p.problem.base.context.p == 32003
    assert (_outcome(mod_p), mod_p.flat_verdict) == (_outcome(rational), rational.flat_verdict)
    assert [(r.name, r.level, r.verdict) for r in mod_p.records] == [
        (r.name, r.level, r.verdict) for r in rational.records]


@pytest.mark.parametrize("name", PROBLEM_INSTANCES)
def test_bundled_schedule_independence(name):
    """Appending a bound past the end of the schedule, and dropping
    bound 1 from a schedule of four or more bounds, keeps the status,
    the denominator and the sections.  (two-planes' [0, 1, 2] does not
    stabilize without 1, so it takes only the appended bound.)"""
    _, prob, schedule = load_instance(bundled_path(name)).patch_setup()
    want = _outcome(patch.solve(prob, schedule))
    variants = [schedule + [schedule[-1] + 1]]
    if len(schedule) >= 4:
        variants.append([d for d in schedule if d != 1])
    for sched in variants:
        assert _outcome(patch.solve(prob, sched)) == want, sched


def test_difference_matches_matrix_arithmetic(ideal_problem):
    """f2^db alpha1(a) - f1^da alpha2(b), checked against polynomial
    arithmetic on the gluing matrix rows."""
    B, mk, cfg, prob = ideal_problem
    ctx = B.context
    a = vec_of_polys([mk("x + t"), mk("y^2")])
    b = vec_of_polys([mk("1"), mk("-x*y")])
    got = prob.difference(a, 2, b, 1)
    # identity gluing matrices: alpha1(a) = a, alpha2(b) = b
    want = [cfg.f2 * mk("x + t") - cfg.f1**2 * mk("1"),
            cfg.f2 * mk("y^2") - cfg.f1**2 * mk("-x*y")]
    assert vec_text(ctx, 2, got) == vec_text(ctx, 2, vec_of_polys(want))


class TestFlatness:
    def test_relation_module_not_flat(self):
        B = make_base_ring(QQ, ["x", "t"], [], "t")
        mk = lambda s: parse_poly(s, B.context)
        lvl = truncate(B, 3)
        M = PresModule.make(lvl, 2, [vec_of_polys([mk("x"), mk("-t")])])
        fc = patch.flatness_certificate(M, 1)
        assert fc.verdict == "NOT-FLAT"
        assert fc.fitt_top == "(x, t)"
        assert fc.fitt_low == "(0)"

    def test_free_module_flat(self):
        B = make_base_ring(QQ, ["x", "t"], [], "t")
        lvl = truncate(B, 3)
        M = PresModule.make(lvl, 1, [])
        fc = patch.flatness_certificate(M, 1)
        assert fc.verdict == "FLAT"
        assert (fc.fitt_low, fc.fitt_top) == ("(0)", "(1)")

    def test_ideal_presentation_not_flat(self, plane):
        B, mk, _ = plane
        lvl = truncate(B, 2)
        M = PresModule.make(lvl, 2, [vec_of_polys([mk("y"), mk("-x")])])
        fc = patch.flatness_certificate(M, 1)
        assert fc.verdict == "NOT-FLAT"
        assert fc.fitt_top == "(x, y)"

    def test_rank_above_generators(self):
        B = make_base_ring(QQ, ["x", "t"], [], "t")
        lvl = truncate(B, 2)
        M = PresModule.make(lvl, 1, [])
        with pytest.raises(patch.PatchError, match="rank"):
            patch.flatness_certificate(M, 2)


class TestFlatUniqueness:
    def test_ideal_candidate_rejected(self, ideal_problem):
        B, mk, _, prob = ideal_problem
        sol = patch.solve(prob, [0, 1, 2, 3])
        e1 = vec_of_polys([mk("1"), mk("0")])
        e2 = vec_of_polys([mk("0"), mk("1")])
        cand = [(e1, 0, e1, 0), (e2, 0, e2, 0)]
        out = patch.check_flat_uniqueness(prob, sol, cand, 1)
        assert out == {"verdict": "REJECTED-NONFLAT", "witness": "(x, y)"}

    def test_own_output_equal(self, ideal_problem):
        _, _, _, prob = ideal_problem
        sol = patch.solve(prob, [0, 1, 2, 3])
        out = patch.check_flat_uniqueness(prob, sol, sol.own_sections(), 1)
        assert out == {"verdict": "EQUAL", "witness": ""}
