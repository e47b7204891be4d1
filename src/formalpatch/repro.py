"""Scripted reproductions of the bundled worked examples.  Each id runs
a fixed check sequence against its bundled instance file and reports
PASS/FAIL records; the two-planes run is labeled DEMONSTRATION because
its base ring violates the integrality hypothesis on purpose (two
branches through the origin) and exhibits the predicted strict
containment."""

from .engine import submodule, unit_vec, vec_of_polys
from .instance import bundled_path, load_instance
from .poly import Polynomial, canonical_text, parse_poly
from .report import Check, Report
from .rings import ideal_power_gens, symbolic_power
from .towers import (
    default_pool,
    q_filtration,
    stabilization_index,
    symbolic_containment_bound,
)
from . import patch

__all__ = ["REPRO_IDS", "run_repro"]


def _rec(ok, name, level, witness="", failwitness=None):
    if ok:
        return Check(name, level, "PASS", witness)
    return Check(name, level, "FAIL", failwitness if failwitness is not None else witness)


def _unit_pair(problem):
    e0 = unit_vec(problem.base.context, 0)
    return patch._join_pair(e0, e0, problem.g1)


def _solved(rid, denominator=True):
    """(instance, config, problem, solution, report) for rid's bundled
    patching problem, solved on its own schedule; the report holds the
    header and the solver-status record."""
    inst = load_instance(bundled_path(rid))
    cfg, prob, schedule = inst.patch_setup()
    sol = patch.solve(prob, schedule)
    header = [
        ("instance", rid + ".json"),
        ("charts", "f1 = %s, f2 = %s" % (canonical_text(cfg.f1), canonical_text(cfg.f2))),
        ("depth", str(cfg.depth)),
    ]
    if denominator:
        header.append(("denominator", str(sol.denominator)))
    header.append(("sections", "; ".join(sol.section_texts())))
    rep = Report("repro", rid, header=header)
    rep.add(*_rec(sol.status == "PASS", "solver-status", 0, sol.status, sol.status))
    return inst, cfg, prob, sol, rep


def _repro_a2(rid):
    inst, cfg, prob, sol, rep = _solved(rid)
    # the solution must be free of rank one at every level
    free = sol.base_module is not None and sol.base_module.g == 1
    rep.add(*_rec(free and not list(sol.base_module.rel.visible_gens()),
                  "free-rank-one", 0, "1 generator, no relations"))
    for i in range(1, cfg.depth + 1):
        vis = list(sol.tower.level(i).rel.visible_gens()) if sol.tower else ["missing"]
        rep.add(*_rec(free and not vis, "free-rank-one", i, "no relations"))
    # the single section is the unit of the base ring
    rep.add(*_rec(sol.section_texts() == ["((0, 1))/y ~ ((1, 0))/x"],
                  "unit-section-present", 0,
                  "y/y ~ x/x represents 1", "; ".join(sol.section_texts())))
    # 1 does not lie in the ideal the problem started from
    B = inst.ring
    mk = lambda s: parse_poly(s, B.context)
    I = submodule(
        [vec_of_polys([mk("x")]), vec_of_polys([mk("y")])],
        B.context, 1, ring_rels=B.rels_vecs,
    )
    rep.add(*_rec(not I.contains(vec_of_polys([mk("1")])),
                  "unit-outside-ideal", 0, "1 not in (x, y)"))
    # candidate I certifies and sits strictly below the solution
    cand, _rank = inst.candidate("I")
    cert = patch.certify_solution(prob, cand)
    rep.add(*_rec(all(r.verdict == "PASS" for r in cert), "candidate-ideal-certified", 0,
                  "all %d records" % len(cert)))
    mx = patch.check_maximality(sol, cand)
    rep.add(*_rec(mx["verdict"] == "CONTAINED" and mx["strict"],
                  "strict-containment", 0,
                  "witness %s" % mx["witness"], str(mx)))
    rep.add(*_rec(sol.flat_verdict == "FLAT", "flatness", 0,
                  "Fitting signature ((0), (1))", sol.flat_verdict))
    return rep


def _repro_xmtn(rid):
    inst = load_instance(bundled_path(rid))
    tower, pd, f_loc, pool = inst.tower_setup()
    M = tower.base
    ctx = M.context
    mk = lambda s: parse_poly(s, ctx)
    rep = Report("repro", rid, header=[
        ("instance", rid + ".json"),
        ("module", "2 generators, relation x*m - t*n"),
        ("depth", str(tower.depth)),
    ])
    for i in range(2, min(4, tower.depth) + 1):
        Mi = tower.level(i)
        el = Mi.multiply(mk("t") ** (i - 1), Mi.unit_vec(0))
        ok = not Mi.contains_zero(el) and Mi.contains_zero(Mi.multiply(mk("x"), el))
        rep.add(*_rec(ok, "x-torsion", i, "t^%d*m" % (i - 1)))
    filt = q_filtration(tower, pd, pool or default_pool(pd, (f_loc,)))
    n = stabilization_index(filt)
    rep.add(*_rec(n == 2, "stabilization-index", 0, "n = %d" % n))
    bound = symbolic_containment_bound(M, pd, 1, 5)
    rep.add(*_rec(bound == 2, "containment-bound", 0, "c = 1 -> n = %d" % bound))
    return rep


def _repro_partial_fractions(rid):
    _inst, cfg, prob, sol, rep = _solved(rid)
    rep.add(*_rec(sol.denominator <= 3, "denominator-bound", 0,
                  "D = %d" % sol.denominator))
    # both directions of span equality with the base-ring image, levelwise
    unit = _unit_pair(prob)
    D = sol.denominator
    unit_scaled = prob.scale_pair_into(unit, D)
    for i in range(1, cfg.depth + 1):
        base_span = prob.span_with_zero_pairs([unit_scaled], i)
        sol_span = prob.span_with_zero_pairs(list(sol.sections), i)
        ok = all(base_span.contains(s) for s in sol.sections) and sol_span.contains(unit_scaled)
        rep.add(*_rec(ok, "base-image-equality", i, ""))
    return rep


def _repro_two_planes(rid):
    _inst, _cfg, prob, sol, rep = _solved(rid)
    one = vec_of_polys([Polynomial.one(prob.base.context)])
    mx = patch.check_maximality(sol, [(one, 0, one, 0)])
    strictly_larger = mx["verdict"] == "CONTAINED" and mx["strict"]
    if strictly_larger:
        rep.add("intersection-vs-base-image", 0, "DEMONSTRATION",
                "strictly larger than the base image; witness %s" % mx["witness"])
    else:
        rep.add("intersection-vs-base-image", 0, "FAIL", str(mx))
    return rep


def _repro_a1_symbolic(rid):
    inst = load_instance(bundled_path(rid))
    pd = inst.need_primes()
    B = inst.ring
    mk = lambda s: parse_poly(s, B.context)
    rep = Report("repro", rid, header=[
        ("instance", rid + ".json"),
        ("prime", "(" + ", ".join(canonical_text(g) for g in pd.prime_gens[0]) + ")"),
    ])
    sp, exponent = symbolic_power(pd, 0, 2)
    x1 = vec_of_polys([mk("x")])
    rep.add(*_rec(sp.contains(x1), "symbolic-membership", 2,
                  "x in P^(2); saturation exponent %d" % exponent))
    P2 = B.ideal(ideal_power_gens(pd.prime_gens[0], 2))
    rep.add(*_rec(not P2.contains(x1), "ordinary-exclusion", 2, "x not in P^2"))
    return rep


def _repro_flat_free(rid):
    inst, _cfg, prob, sol, rep = _solved(rid, denominator=False)
    rep.add(*_rec(sol.flat_verdict == "FLAT", "flatness", 0,
                  "Fitting signature ((0), (1))", sol.flat_verdict))
    self_check = patch.check_flat_uniqueness(prob, sol, sol.own_sections(), 1)
    rep.add(*_rec(self_check["verdict"] == "EQUAL", "flat-uniqueness-self", 0,
                  "EQUAL", str(self_check)))
    cand, rank = inst.candidate("I")
    cand_check = patch.check_flat_uniqueness(prob, sol, cand, rank)
    rep.add(*_rec(cand_check["verdict"] == "REJECTED-NONFLAT",
                  "flat-uniqueness-candidate", 0,
                  "REJECTED-NONFLAT; Fitting ideal %s" % cand_check["witness"],
                  str(cand_check)))
    return rep


REPRO_IDS = {
    "a2-ideal-xy": _repro_a2,
    "xm-tn": _repro_xmtn,
    "a1-partial-fractions": _repro_partial_fractions,
    "two-planes": _repro_two_planes,
    "a1-symbolic": _repro_a1_symbolic,
    "flat-free-a2": _repro_flat_free,
}


def run_repro(rid: str) -> Report:
    if rid not in REPRO_IDS:
        raise KeyError(rid)
    return REPRO_IDS[rid](rid)
