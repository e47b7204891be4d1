"""Patching problems over a two-chart cover: posing, solving by the
level-wise fiber-product kernel, certificates, maximality against
candidates, and the flatness-based uniqueness check."""

import copy
import json

import pytest

from formalpatch import engine, patch
from formalpatch.cli import _DISPATCH, build_parser, main
from formalpatch.engine import saturate, submodule, syzygy_project, vec_of_polys, vec_text
from formalpatch.fields import QQ
from formalpatch.instance import Instance, bundled_path, load_instance
from formalpatch.poly import Polynomial, parse_poly
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


# -- derived levels against the level-wise path ---------------------------


def _level_wise(monkeypatch):
    """Make the level certificate answer "not derivable" to every claim,
    so that every level is computed level by level."""
    monkeypatch.setattr(patch.LevelCertificate, "derivable", lambda self, claim, *args: False)


def _report_texts(command, name, *flags):
    args = build_parser().parse_args([command, name, *flags])
    rep = _DISPATCH[command](args)
    return rep.text(), rep.json()


def _candidates(inst, prob, sol):
    """Candidates for certify and maximality: the solver's own sections,
    the base-ring image when the modules have one generator, and the
    instance's named candidate I when there is one."""
    out = [sol.own_sections()]
    if prob.g1 == prob.g2 == 1:
        one = vec_of_polys([Polynomial.one(prob.base.context)])
        out.append([(one, 0, one, 0)])
    if "I" in inst.data.get("candidates", {}):
        out.append(inst.candidate("I")[0])
    return out


def _outcomes(name, solutions):
    """Per depth 1..12: the solve report (text and JSON), and per
    candidate the certify records, check_maximality and, for a FLAT
    solution, check_flat_uniqueness; then at depth 12 the satrel,
    zero-pair and kernel bases at every level.  `solutions` receives
    each solution patch.solve returns."""
    out = []
    for depth in range(1, 13):
        out.append(_report_texts("solve", name, "--depth", str(depth)))
        sol = solutions[-1]
        prob = sol.problem
        inst = load_instance(bundled_path(name))
        for cand in _candidates(inst, prob, sol):
            out.append(patch.certify_solution(prob, cand))
            out.append(patch.check_maximality(sol, cand))
            if sol.flat_verdict == "FLAT":
                out.append(patch.check_flat_uniqueness(prob, sol, cand, 1))
    schedule = sol.trace["schedule"]
    for i in range(1, 13):
        out.append([prob.satrel(e, i).gens for e in (0, 1, 2)])
        out.append(prob.zero_pairs(i).gens)
        out.append([prob.kernel_basis(i, D).gens for D in schedule])
    if "candidates" in inst.data:
        out.append(_report_texts("certify", name, "--candidate", "I"))
    return out


@pytest.mark.parametrize("name", PROBLEM_INSTANCES)
def test_derived_levels_match_level_wise(name, monkeypatch):
    """At every depth 1..12 the derived levels give the reports,
    certificates, maximality verdicts and bases of the level-wise
    path, byte for byte."""
    solutions = []
    solve = patch.solve

    def solve_and_keep(problem, schedule):
        solutions.append(solve(problem, schedule))
        return solutions[-1]

    monkeypatch.setattr(patch, "solve", solve_and_keep)
    derived = _outcomes(name, solutions)
    _level_wise(monkeypatch)
    assert _outcomes(name, solutions) == derived


def _hand_built(plane, rows, alpha, depth):
    """A PatchProblem on k[x, y, t] with charts x and y: M_1, M_2, M_0
    have one generator each, with the relation texts of `rows`, and
    are glued by the 1x1 matrices (alpha).  Built directly, so no pose
    check runs; returns the problem and the arguments of pose_problem."""
    B, mk, pd = plane
    cfg = patch.make_config(B, pd, mk("x"), mk("y"), depth, declared_connected=True)
    mods = [(1, [vec_of_polys([mk(r)]) for r in texts]) for texts in rows]
    modules = {e: PresModule.make(B, *mod) for e, mod in zip((1, 2, 0), mods)}
    a = (vec_of_polys([mk(alpha)]),)
    matrix = [[mk(alpha)]]
    return patch.PatchProblem(cfg, modules, a, a), (cfg, *mods, matrix, matrix)


def _pose_and_solve(args):
    """The PatchError of pose_problem, or the pose records and the
    solver's status, sections and records."""
    try:
        prob = patch.pose_problem(*args)
    except patch.PatchError as exc:
        return str(exc), exc.witness
    sol = patch.solve(prob, [0, 1, 2])
    return prob.records, sol.status, sol.section_texts(), sol.records


def _level_bases(satrel, zero_pairs, kernel_basis):
    return [([satrel(e, i).gens for e in (1, 2, 0)], zero_pairs(i).gens,
             [kernel_basis(i, D).gens for D in (0, 1, 2)])
            for i in range(1, 5)]


def _computed_bases(prob):
    """The level bases of a problem with one generator per module,
    straight from the engine: each satrel a saturation over B_i, the
    zero pairs their span side by side, each kernel a syzygy
    projection onto satrel(0, i)."""

    def satrel(e, i):
        return saturate(prob.modules[e].over(prob.ring_at(i)).rel, prob.charts[e])[0]

    def zero_pairs(i):
        rows = list(satrel(1, i).gens)
        rows += [patch._join_pair((), g, 1) for g in satrel(2, i).gens]
        return submodule(rows, prob.base.context, 2, ring_rels=prob.ring_at(i).rels_vecs)

    return _level_bases(satrel, zero_pairs,
                        lambda i, D: syzygy_project(prob.phi_rows(D), satrel(0, i)))


# Each case makes one check of the certificate fail: M_1, M_2, M_0 are
# presented by `rows`, glued by alpha, at `depth`.  claims(problem, mk)
# lists (answer, claim...) entries, the answer each claim must give; the
# bases at levels 1..4 must be those the engine computes level by
# level, and the pose and solve outcome the level-wise path's.
FAILING_CHECKS = {
    # t kills x*y - t on B/(t*x*y - t^2): t is a zero divisor on F/S,
    # and level 2's saturation at x holds t*y, outside S + t^2F
    "t-zero-divisor": ((["t*x*y - t^2"],) * 3, "1", 4, lambda prob, mk: [
        (False, "t-regular", prob.satrel(1, None)), (False, "satrel", 1)]),
    # B/(x*y - t) mod t is k[x, y]/(x*y): the chart x is a zero divisor
    # on F/(S + tF), and level i's saturation at x holds y^i
    "chart-zero-divisor": ((["x*y - t"],) * 3, "1", 4, lambda prob, mk: [
        (False, "satrel", 1)]),
    # B/(y^2 - t) mod t is k[x, y]/(y^2): the chart x stays regular but
    # the pool element y (the other chart) is a zero divisor
    "pool-zero-divisor": ((["y^2 - t"],) * 3, "1", 4, lambda prob, mk: [
        (True, "satrel", 1), (False, "torsion", prob.satrel(1, None), mk("y"))]),
    # alpha = t: the image of every phi_D lies in tF_0, so t is a zero
    # divisor on the cokernel F_0/(S_0 + im phi_D) and level i's kernel
    # is larger than K_D + t^iP
    "kernel-cokernel": (([],) * 3, "t", 4, lambda prob, mk: [
        (False, "kernel", prob.phi_rows(D)) for D in (0, 1, 2)]),
    # M_0 = B/(t^2, y*t) under free M_1, M_2: the sections (0, t) and
    # (1, 1) leave P/(sections) = B/(t), on which t is zero, and the
    # solver's level-injectivity FAILs at level 1
    "sections-cokernel": (([], [], ["t^2", "y*t"]), "1", 1, lambda prob, mk: [
        (True, "pairs"), (False, "satrel", 0),
        (False, "pair-kernel", tuple(patch.solve(prob, [0, 1, 2]).sections))]),
}


@pytest.mark.parametrize("case", sorted(FAILING_CHECKS))
def test_fallback_when_a_check_fails(case, plane, monkeypatch):
    rows, alpha, depth, claims = FAILING_CHECKS[case]
    prob, args = _hand_built(plane, rows, alpha, depth)
    for answer, *claim in claims(prob, plane[1]):
        assert prob.certificate.derivable(*claim) is answer, claim
    assert _level_bases(prob.satrel, prob.zero_pairs, prob.kernel_basis) == _computed_bases(prob)
    derived = _pose_and_solve(args)
    _level_wise(monkeypatch)
    assert _pose_and_solve(args) == derived


# -- count gates: the derived levels cost no per-level Groebner work -----


def _count_calls(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)


def _solve_counts(capsys, calls, name, depths):
    counts = []
    for depth in depths:
        calls.clear()
        assert main(["solve", name, "--depth", str(depth)]) == 0
        capsys.readouterr()
        counts.append(len(calls))
    return counts


def test_colons_do_not_grow_with_depth(monkeypatch, capsys):
    # every colon is a check over B; with every level computed this
    # solve makes 131 colons at depth 12 and 43 at depth 4
    calls = []
    for owner in (engine, patch):
        _count_calls(monkeypatch, owner, "module_quotient", calls)
    at4, at12 = _solve_counts(capsys, calls, "a2-ideal-xy", (4, 12))
    assert 0 < at4 == at12


def test_groebner_runs_per_level_are_bounded(monkeypatch, capsys):
    # bound: 7 runs per added level, for the truncations' extensions and
    # the solution tower's levels; with every level computed this solve
    # makes 21 per level, derived it makes 1
    calls = []
    _count_calls(monkeypatch, engine, "_buchberger", calls)
    at4, at12 = _solve_counts(capsys, calls, "a2-ideal-xy", (4, 12))
    assert at12 - at4 <= 56


@pytest.mark.parametrize("name", PROBLEM_INSTANCES)
def test_no_kernel_is_computed_at_a_level(name, monkeypatch, capsys):
    calls = []
    _count_calls(monkeypatch, patch.PatchProblem, "kernel_basis", calls)
    _solve_counts(capsys, calls, name, (12,))
    assert calls and all(level is None for _, level, _ in calls)
