"""Two-open patching: cover configurations, patching problems, the
level-wise fiber-product solver with bounded denominators, and the
certificate suite (solution property, torsion-freeness, maximality,
flatness, flat uniqueness, codimension-two cover choice).

Modules over the basic-open rings are handled throughout in saturated
coordinates: a module over B[f^{-1}] is presented by generators and a
relation submodule over B saturated at f, so no inverse variables ever
enter the solver's linear algebra.  A section of the would-be glued
module is a pair (a/f1^D, b/f2^D) stored as the coordinate pair (a, b)
with its denominator exponent.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence

from formalpatch import kernel
from formalpatch.engine import (
    SubmoduleBasis,
    diagonal_rows,
    module_quotient,
    saturate,
    submodule,
    submodule_intersect,
    syzygy_project,
    unit_vec,
    vec_coords,
    vec_of_polys,
    vec_text,
)
from formalpatch.poly import Polynomial, canonical_text
from formalpatch.report import Check
from formalpatch.rings import PrimeData, Ring, fiber_codimension, truncate
from formalpatch.towers import PresModule, _torsion_closure, build_tower, default_pool


class PatchError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class OpenConfig:
    """U_1 = D(f1), U_2 = D(f2), U_0 = D(f1 f2) on the formal scheme
    presented by B, with density and codimension-two certificates."""

    __slots__ = ("base", "pd", "f1", "f2", "depth", "warnings")

    def __init__(self, base, pd, f1, f2, depth, warnings):
        self.base = base
        self.pd = pd
        self.f1 = f1
        self.f2 = f2
        self.depth = depth
        self.warnings = tuple(warnings)

    def f0(self) -> Polynomial:
        return self.f1 * self.f2


def make_config(B: Ring, pd: PrimeData, f1: Polynomial, f2: Polynomial, depth: int,
                declared_connected: bool = False) -> OpenConfig:
    if depth < 1:
        raise PatchError("depth must be at least 1")
    for name, f in (("f1", f1), ("f2", f2)):
        blocked = pd.blockers(f)
        if blocked:
            raise PatchError(
                "density failure: %s = %s lies in component prime(s) %s"
                % (name, canonical_text(f), ", ".join(str(b + 1) for b in blocked))
            )
    for j in range(pd.count):
        codim = fiber_codimension(pd, j, [f1, f2])
        if codim is not None and codim < 2:
            raise PatchError(
                "complement of U_1 u U_2 has codimension %d < 2 in component %d"
                % (codim, j + 1)
            )
    warnings = []
    if not declared_connected:
        warnings.append(
            "connectivity of the overlap is declared, not proven; "
            "downstream ring-problem identities assume it"
        )
    return OpenConfig(B, pd, f1, f2, depth, warnings)


def choose_codim2_cover(B: Ring, pd: PrimeData, pool: Sequence[Polynomial]):
    """First pool pair (ordered scan, repeats allowed) whose members
    avoid every component and intersection prime and cut each component
    in codimension at least two."""
    if not pool:
        raise PatchError("empty cover pool")
    inter_bases = [
        submodule([vec_of_polys([g]) for g in gens], B.context, 1, ring_rels=B.rels_vecs)
        for gens in pd.intersection_gens
    ]

    def admissible(f):
        if pd.blockers(f):
            return False
        fv = vec_of_polys([f])
        return all(not ib.contains(fv) for ib in inter_bases)

    ok = [f for f in pool if admissible(f)]
    for f1 in ok:
        for f2 in ok:
            good = True
            for j in range(pd.count):
                codim = fiber_codimension(pd, j, [f1, f2])
                if codim is not None and codim < 2:
                    good = False
                    break
            if good:
                return f1, f2
    raise PatchError("no admissible codimension-two pair in the pool")


def _rows_of_matrix(ctx, rank, matrix):
    """Matrix rows (lists of Polynomial) as vecs of the given rank."""
    rows = []
    for row in matrix:
        if len(row) != rank:
            raise PatchError("matrix row length %d != %d" % (len(row), rank))
        rows.append(vec_of_polys([q.rename_into(ctx) for q in row]) if any(
            not q.is_zero for q in row) else ())
    return rows


def _split_pair(vec, g1):
    a, b = [], []
    for (m, pos), c in vec:
        if pos < g1:
            a.append(((m, pos), c))
        else:
            b.append(((m, pos - g1), c))
    return tuple(a), tuple(b)


def _join_pair(a_vec, b_vec, g1):
    out = list(a_vec)
    out.extend(((m, pos + g1), c) for (m, pos), c in b_vec)
    return tuple(out)


class PatchProblem:
    """Saturated-coordinate patching data: presentations of M_1, M_2,
    M_0 over B and the chart each lives on, gluing matrices over B, and
    per-level caches."""

    def __init__(self, config, modules, alpha1, alpha2, expected_rank=None):
        self.config = config
        self.modules = modules  # {1: M_1, 2: M_2, 0: M_0}, PresModules over B
        self.charts = {1: config.f1, 2: config.f2, 0: config.f0()}
        self.g1, self.g2, self.g0 = (modules[e].g for e in (1, 2, 0))
        self.alpha1 = alpha1  # g1 rows, each a vec of rank g0
        self.alpha2 = alpha2
        self.expected_rank = expected_rank
        self._rings = {}
        self._satrel = {}
        self._zero_pairs = {}
        self.records = []

    # -- rings ---------------------------------------------------------
    @property
    def base(self):
        return self.config.base

    def ring_at(self, level: Optional[int]):
        if level is None:
            return self.base
        if level not in self._rings:
            self._rings[level] = truncate(self.base, level)
        return self._rings[level]

    # -- saturated relation modules -----------------------------------
    def satrel(self, e: int, level: Optional[int]) -> SubmoduleBasis:
        """Relations of M_e over B (level None), or of M_e/t^iM_e over
        B_i, saturated at the chart f_e; f_0 = f1*f2."""
        key = (e, level)
        if key not in self._satrel:
            M = self.modules[e]
            if level is not None:
                M = M.over(self.ring_at(level))
            self._satrel[key] = saturate(M.rel, self.charts[e])[0]
        return self._satrel[key]

    def zero_pairs(self, level: Optional[int]) -> SubmoduleBasis:
        """Pairs representing (0, 0): SatRel_1 + SatRel_2 side by side."""
        if level not in self._zero_pairs:
            s1 = self.satrel(1, level)
            s2 = self.satrel(2, level)
            rows = [_join_pair(g, (), self.g1) for g in s1.gens]
            rows += [_join_pair((), g, self.g1) for g in s2.gens]
            R = self.ring_at(level)
            self._zero_pairs[level] = submodule(
                rows or [()], self.base.context, self.g1 + self.g2, ring_rels=R.rels_vecs
            )
        return self._zero_pairs[level]

    # -- the difference map and its kernel ----------------------------
    def _alpha_image(self, e: int, part_vec):
        """Image in B^{g0} of a coordinate vector over M_e's generators."""
        ctx = self.base.context
        alpha = self.alpha1 if e == 1 else self.alpha2
        acc = ()
        order = ctx.order0
        for (m, pos), c in part_vec:
            term = kernel.scale_vec(alpha[pos], c, m, ctx.p)
            acc = kernel.add_vec(acc, term, order, ctx.p)
        return acc

    def difference(self, a, da: int, b, db: int):
        """f2^db alpha1(a) - f1^da alpha2(b) in B^{g0}: the section
        (a/f1^da, b/f2^db) satisfies the patching condition exactly when
        this lies in the relations of M_0."""
        ctx = self.base.context
        order = ctx.order0
        lhs = kernel.mul_vec_poly(
            self._alpha_image(1, a), vec_of_polys([self.config.f2**db]), order, ctx.p
        )
        rhs = kernel.mul_vec_poly(
            self._alpha_image(2, b), vec_of_polys([-(self.config.f1**da)]), order, ctx.p
        )
        return kernel.add_vec(lhs, rhs, order, ctx.p)

    def kernel_basis(self, level: Optional[int], D: int) -> SubmoduleBasis:
        """K_D = pairs (a, b) with f2^D alpha1(a) = f1^D alpha2(b) in
        the saturated M_0 coordinates; a submodule of B_i^{g1+g2}."""
        ctx = self.base.context
        main = [self.difference(unit_vec(ctx, k), D, (), D) for k in range(self.g1)]
        main += [self.difference((), D, unit_vec(ctx, k), D) for k in range(self.g2)]
        return syzygy_project(main, self.satrel(0, level))

    def scale_pair_into(self, vec, s: int):
        """(a, b) -> (f1^s a, f2^s b), the denominator-D to D+s embedding."""
        if s == 0:
            return vec
        a, b = _split_pair(vec, self.g1)
        return self.scaled_pair(a, s, b, s)

    def scaled_pair(self, a, sa: int, b, sb: int):
        """The pair (f1^sa a, f2^sb b)."""
        ctx = self.base.context
        order = ctx.order0
        a2 = kernel.mul_vec_poly(a, vec_of_polys([self.config.f1**sa]), order, ctx.p)
        b2 = kernel.mul_vec_poly(b, vec_of_polys([self.config.f2**sb]), order, ctx.p)
        return _join_pair(a2, b2, self.g1)

    def span_with_zero_pairs(self, pair_vecs, level: Optional[int]) -> SubmoduleBasis:
        return self.zero_pairs(level).extend(pair_vecs)

    def sections_at(self, level: Optional[int], D: int):
        """A minimal list of kernel elements generating the sections:
        zero pairs and redundant generators are dropped (greedily, in
        canonical basis order, so the result is deterministic)."""
        K = self.kernel_basis(level, D)
        Z = self.zero_pairs(level)
        remaining = [g for g in K.visible_gens() if not Z.contains(g)]
        i = 0
        while i < len(remaining):
            rest = remaining[:i] + remaining[i + 1 :]
            span = self.span_with_zero_pairs(rest, level)
            if span.contains(remaining[i]):
                del remaining[i]
            else:
                i += 1
        return remaining


def _unreached_generator(problem, rows, rel, f):
    """Index of the first unit vector outside the span of `rows` and
    the relation basis `rel`, saturated at f over rel's ring; None when
    the rows generate everything after inverting f."""
    ctx = problem.base.context
    span = saturate(rel.extend(rows), f)[0]
    return next((k for k in range(rel.rank) if not span.contains(unit_vec(ctx, k))), None)


def _torsion_records(problem, satrels_by_level, label, pool):
    """Threefold torsion-freeness certificate in saturated coordinates:
    t-regularity per level, vanishing torsion closure over the pool,
    and zero intersection of the component-separator kernels."""
    cfg = problem.config
    records = []
    depth = cfg.depth
    ctx = problem.base.context
    t = problem.base.t()
    for i in range(1, depth + 1):
        S = satrels_by_level[i]
        g = S.rank
        if i < depth:
            Snext = satrels_by_level[i + 1]
            lhs = module_quotient(Snext, t)
            rhs = Snext.extend(diagonal_rows([(t**i).terms], g))
            ok = lhs.gens == rhs.gens
            records.append(Check(label + "-t-regularity", i, "PASS" if ok else "FAIL"))
        Q = _torsion_closure(S, pool)
        ok = Q.gens == S.gens
        witness = ""
        if not ok:
            extra = next(gv for gv in Q.gens if not S.contains(gv))
            witness = vec_text(ctx, g, extra)
        records.append(Check(label + "-q-vanishing", i, "PASS" if ok else "FAIL", witness))
        inter = None
        for rho in cfg.pd.separators:
            satk = saturate(S, rho.rename_into(ctx))[0]
            inter = satk if inter is None else submodule_intersect(inter, satk)
        ok = inter.gens == S.gens
        records.append(Check(label + "-separator-kernel", i, "PASS" if ok else "FAIL"))
    all_ok = all(r.verdict == "PASS" for r in records)
    records.append(
        Check(label + "-torsion-freeness", 0, "CERTIFIED-AT-DEPTH" if all_ok else "FAIL")
    )
    return records


def pose_problem(config, module1, module2, module0, alpha1_matrix, alpha2_matrix,
                 expected_rank=None, pool=None):
    """Build and certify a patching problem.

    module arguments are (generator count, relation rows) in saturated
    coordinates over B; alphas are matrices of base polynomials, one
    row per M_e generator, entries indexed by M_0 generators.
    """
    g1, rows1 = module1
    g2, rows2 = module2
    g0, rows0 = module0
    ctx = config.base.context
    a1 = _rows_of_matrix(ctx, g0, alpha1_matrix)
    a2 = _rows_of_matrix(ctx, g0, alpha2_matrix)
    if len(a1) != g1 or len(a2) != g2:
        raise PatchError("gluing matrix row count does not match generator count")
    modules = {e: PresModule.make(config.base, g, rows)
               for e, g, rows in ((1, g1, rows1), (2, g2, rows2), (0, g0, rows0))}
    problem = PatchProblem(config, modules, tuple(a1), tuple(a2), expected_rank)
    pool = list(pool) if pool else _default_pool(config)
    f0 = config.f0()

    for e, rows, g in ((1, rows1, g1), (2, rows2, g2)):
        for i in range(1, config.depth + 1):
            S0 = problem.satrel(0, i)
            # well-definedness: relations map to zero in M_0
            for r in rows:
                img = problem._alpha_image(e, r)
                if not S0.contains(img):
                    raise PatchError(
                        "alpha%d does not kill the relation %s at level %s"
                        % (e, vec_text(ctx, g, r), i),
                        witness=vec_text(ctx, g0, img),
                    )
            # surjectivity after inverting f0: every M_0 generator hit
            alpha_rows = [problem._alpha_image(e, unit_vec(ctx, k)) for k in range(g)]
            k = _unreached_generator(problem, alpha_rows, S0, f0)
            if k is not None:
                raise PatchError(
                    "alpha%d not surjective at level %s: generator %d of M_0 unreachable"
                    % (e, i, k + 1),
                    witness="generator %d" % (k + 1),
                )
            # injectivity: kernel of the alpha map lies in M_e's relations
            K = syzygy_project(alpha_rows, S0)
            Se_ext = saturate(problem.satrel(e, i), f0)[0]
            for gv in K.gens:
                if not Se_ext.contains(gv):
                    raise PatchError(
                        "alpha%d not injective at level %s" % (e, i),
                        witness=vec_text(ctx, g, gv),
                    )
    # torsion-freeness certificates for M_1, M_2 towers
    for e, label in ((1, "m1"), (2, "m2")):
        sats = {i: problem.satrel(e, i) for i in range(1, config.depth + 1)}
        recs = _torsion_records(problem, sats, label, pool)
        problem.records.extend(recs)
        bad = [r for r in recs if r.verdict not in ("PASS", "CERTIFIED-AT-DEPTH")]
        if bad:
            raise PatchError(
                "torsion-freeness certificate failed: %s at level %d" % (bad[0].name, bad[0].level)
            )
    return problem


def _default_pool(config):
    return default_pool(config.pd, extra=(config.f1, config.f2))


def _den_text(f, d):
    if d == 0:
        return ""
    base = canonical_text(f)
    if " " in base:
        base = "(" + base + ")"
    return "/" + base + ("^%d" % d if d > 1 else "")


class PatchSolution:
    """Solver output: sections with a common denominator exponent, the
    base presentation and its tower, gamma images, certificates, and
    the stabilization trace."""

    __slots__ = (
        "problem",
        "status",
        "denominator",
        "sections",
        "base_module",
        "tower",
        "records",
        "trace",
        "flat_verdict",
    )

    def __init__(self, problem, status, denominator, sections, base_module, tower,
                 records, trace, flat_verdict):
        self.problem = problem
        self.status = status
        self.denominator = denominator
        self.sections = sections
        self.base_module = base_module
        self.tower = tower
        self.records = records
        self.trace = trace
        self.flat_verdict = flat_verdict

    def own_sections(self):
        """The sections as candidates (a, D, b, D), D the denominator."""
        D = self.denominator
        return [(a, D, b, D) for a, b in (_split_pair(s, self.problem.g1) for s in self.sections)]

    def section_texts(self):
        ctx = self.problem.base.context
        out = []
        f1, f2 = self.problem.config.f1, self.problem.config.f2
        for a, _, b, _ in self.own_sections():
            out.append(
                "(%s)%s ~ (%s)%s"
                % (vec_text(ctx, self.problem.g1, a), _den_text(f1, self.denominator),
                   vec_text(ctx, self.problem.g2, b), _den_text(f2, self.denominator))
            )
        return out


def _spans_equal_under_embedding(problem, K_small, D_small, K_big, D_big, level):
    """Is the D_small kernel, embedded by (f1^s, f2^s), the same span as
    the D_big kernel (zero pairs included on both sides)?"""
    s = D_big - D_small
    embedded = [problem.scale_pair_into(g, s) for g in K_small.gens]
    span = problem.span_with_zero_pairs(embedded, level)
    return all(span.contains(g) for g in K_big.gens)


def solve(problem: PatchProblem, schedule: Sequence[int]) -> PatchSolution:
    """Level-wise fiber products at growing denominator bounds until two
    consecutive bounds agree at every level; then canonicalize at the
    least sufficient bound, lift to a tower over B, and certify."""
    sched = list(schedule)
    if not sched or any(d < 0 for d in sched) or any(
        b <= a for a, b in zip(sched, sched[1:])
    ):
        raise PatchError("the D-schedule must be strictly increasing and nonnegative")
    cfg = problem.config
    levels = list(range(1, cfg.depth + 1))
    kernels = {}  # (level, D) -> basis

    def K(level, D):
        if (level, D) not in kernels:
            kernels[(level, D)] = problem.kernel_basis(level, D)
        return kernels[(level, D)]

    stabilized_at = None
    prev = None
    for D in sched:
        for i in levels:
            K(i, D)
        if prev is not None:
            if all(
                _spans_equal_under_embedding(problem, K(i, prev), prev, K(i, D), D, i)
                for i in levels
            ):
                stabilized_at = (prev, D)
                break
        prev = D

    trace = {"schedule": sched, "kernels_computed": sorted(k for k in kernels)}
    if stabilized_at is None:
        return PatchSolution(
            problem, "UNSTABILIZED", sched[-1] if sched else 0, [], None, None,
            [Check("stabilization", 0, "UNSTABILIZED",
                   "no two consecutive bounds in %s agree" % sched)],
            trace, "NOT-CHECKED",
        )

    D_stab = stabilized_at[1]
    canonical = None
    for d in range(0, D_stab + 1):
        if all(
            _spans_equal_under_embedding(problem, K(i, d), d, K(i, D_stab), D_stab, i)
            for i in levels
        ):
            canonical = d
            break
    trace["stabilized"] = stabilized_at
    trace["canonical_denominator"] = canonical

    sections = problem.sections_at(None, canonical)
    ctx = problem.base.context
    base_mod = _pair_presentation(problem, sections)
    tower = build_tower(base_mod, cfg.depth)
    sol = PatchSolution(problem, None, canonical, sections, base_mod, tower, None, trace,
                        "NOT-CHECKED")

    pool = _default_pool(cfg)
    # gamma span equality in both coordinates and diagram commutation
    records = certify_solution(problem, sol.own_sections())
    for i in levels:
        # the level fiber product is exactly the tower's level module:
        # surjectivity is span equality, injectivity is kernel containment
        span = problem.span_with_zero_pairs(sections, i)
        ok = all(span.contains(g) for g in K(i, canonical).gens)
        records.append(Check("level-surjectivity", i, "PASS" if ok else "FAIL"))
        bad = None
        if sections:
            ker = syzygy_project(sections, problem.zero_pairs(i))
            reli = tower.level(i).rel
            bad = next((gv for gv in ker.gens if not reli.contains(gv)), None)
        records.append(
            Check("level-injectivity", i, "PASS" if bad is None else "FAIL",
                  "" if bad is None else vec_text(ctx, base_mod.g, bad))
        )
    # torsion-freeness of the solution tower itself
    sol_sats = {i: tower.level(i).rel for i in levels}
    records.extend(_torsion_records(problem, sol_sats, "solution", pool))

    if problem.expected_rank is not None:
        fl = flatness_certificate(base_mod, problem.expected_rank)
        sol.flat_verdict = fl.verdict
        if fl.verdict == "FLAT":
            records.append(Check("flatness", 0, "PASS", "FLAT"))
        else:
            records.append(Check("flatness", 0, "FAIL",
                                 "NOT-FLAT; %s" % fl.witness if fl.witness else "NOT-FLAT"))
    records.append(
        Check("stabilization", 0, "PASS",
              "bounds %d and %d agree; canonical bound %d" % (stabilized_at[0], D_stab, canonical))
    )

    sol.status = "PASS" if all(
        r.verdict in ("PASS", "CERTIFIED-AT-DEPTH") for r in records if r.name != "flatness"
    ) else "FAIL"
    records.sort(key=lambda r: (r.name, r.level))
    sol.records = records
    return sol


def _pair_presentation(problem, pairs) -> PresModule:
    """The module over B generated by the given pairs modulo the zero
    pairs; no pairs present the zero module, one generator killed by 1."""
    base = problem.base
    if not pairs:
        return PresModule.make(base, 1, [vec_of_polys([Polynomial.one(base.context)])])
    rel = syzygy_project(pairs, problem.zero_pairs(None))
    return PresModule.make(base, len(pairs), rel.gens)


def certify_solution(problem: PatchProblem, candidate_sections) -> list:
    """PASS/FAIL records per level for a user-supplied candidate given
    as sections (a_vec, da, b_vec, db): gamma span equality in both
    coordinates plus diagram commutation."""
    cfg = problem.config
    ctx = problem.base.context
    diffs = [problem.difference(*s) for s in candidate_sections]
    records = []
    for i in range(1, cfg.depth + 1):
        for e, f in ((1, cfg.f1), (2, cfg.f2)):
            parts = [s[0] if e == 1 else s[2] for s in candidate_sections]
            k = _unreached_generator(problem, parts, problem.satrel(e, i), f)
            records.append(
                Check("gamma-span-m%d" % e, i, "PASS" if k is None else "FAIL",
                      "" if k is None else "generator %d not reached" % (k + 1))
            )
        S0 = problem.satrel(0, i)
        bad = next((d for d in diffs if not S0.contains(d)), None)
        records.append(
            Check("commutation", i, "PASS" if bad is None else "FAIL",
                  "" if bad is None else vec_text(ctx, problem.g0, bad))
        )
    records.sort(key=lambda r: (r.name, r.level))
    return records


def _compare_spans(problem, solution, candidate_sections):
    """Bring the solution and the candidate to their least common
    denominator; return the candidate pairs and, per level, the first
    candidate pair outside the solution's span and the first solution
    pair outside the candidate's span (None where there is none)."""
    D = max([solution.denominator] + [max(s[1], s[3]) for s in candidate_sections])
    sol_pairs = [problem.scale_pair_into(g, D - solution.denominator) for g in solution.sections]
    cand_pairs = [problem.scaled_pair(a, D - da, b, D - db) for a, da, b, db in candidate_sections]

    def escapes():
        for i in range(1, problem.config.depth + 1):
            sol_span = problem.span_with_zero_pairs(sol_pairs, i)
            cand_span = problem.span_with_zero_pairs(cand_pairs, i)
            yield (next((cp for cp in cand_pairs if not sol_span.contains(cp)), None),
                   next((sp for sp in sol_pairs if not cand_span.contains(sp)), None))

    return cand_pairs, escapes()


def check_maximality(solution: PatchSolution, candidate_sections) -> dict:
    """CONTAINED when every candidate generator lies in the solution's
    span at every level; STRICT when some solution section escapes the
    candidate's span somewhere."""
    problem = solution.problem
    _, escapes = _compare_spans(problem, solution, candidate_sections)
    contained = True
    strict = False
    witness = ""
    for cand_out, sol_out in escapes:
        if cand_out is not None:
            contained = False
            witness = vec_text(problem.base.context, problem.g1 + problem.g2, cand_out)
        if sol_out is not None:
            strict = True
            if not witness:
                witness = vec_text(problem.base.context, problem.g1 + problem.g2, sol_out)
        if not contained:
            break
    return {
        "verdict": "CONTAINED" if contained else "NOT-CONTAINED",
        "strict": strict,
        "witness": witness,
    }


class FlatnessVerdict:
    __slots__ = ("verdict", "fitt_low", "fitt_top", "witness")

    def __init__(self, verdict, fitt_low, fitt_top, witness=""):
        self.verdict = verdict
        self.fitt_low = fitt_low
        self.fitt_top = fitt_top
        self.witness = witness


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    ctx = rows[0][0].context
    acc = Polynomial.zero(ctx)
    for j in range(n):
        sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _det(sub)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _minor_ideal(M: PresModule, rows, size):
    ctx = M.context
    if size == 0:
        return M.ring.ideal([Polynomial.one(ctx)])
    if size > len(rows) or size > M.g or not rows:
        return M.ring.ideal([])
    minors = []
    for ri in combinations(range(len(rows)), size):
        for ci in combinations(range(M.g), size):
            sub = [[rows[r][c] for c in ci] for r in ri]
            d = _det(sub)
            if not d.is_zero:
                minors.append(d)
    return M.ring.ideal(minors)


def flatness_certificate(M: PresModule, r: int) -> FlatnessVerdict:
    """FLAT iff Fitt_{r-1}(M) = 0 and Fitt_r(M) = (1), computed from
    the minors of the visible relation rows over the presented ring."""
    if r > M.g or r < 0:
        raise PatchError("expected rank %d out of range for %d generators" % (r, M.g))
    ctx = M.context
    rows = [vec_coords(ctx, M.g, gv) for gv in M.rel.visible_gens()]
    top = _minor_ideal(M, rows, M.g - r)
    low = _minor_ideal(M, rows, M.g - r + 1)
    zero_ring = M.ring.ideal([])
    low_zero = all(zero_ring.contains(gv) for gv in low.gens)
    top_unit = top.is_everything()

    def ideal_text(b):
        vis = b.visible_gens()
        if not vis:
            return "(0)"
        return "(" + ", ".join(canonical_text(Polynomial(ctx, gv)) for gv in vis) + ")"

    if low_zero and top_unit:
        return FlatnessVerdict("FLAT", ideal_text(low), "(1)")
    witness = ideal_text(top) if not top_unit else ideal_text(low)
    return FlatnessVerdict("NOT-FLAT", ideal_text(low), ideal_text(top), witness)


def check_flat_uniqueness(problem: PatchProblem, solution: PatchSolution,
                          candidate_sections, candidate_rank: int) -> dict:
    """EQUAL when a flat certified candidate has the solution's span at
    every level; REJECTED-NONFLAT when the candidate fails the Fitting
    signature."""
    if solution.flat_verdict != "FLAT":
        raise PatchError("flat uniqueness requires a FLAT certified solution")
    cand_pairs, escapes = _compare_spans(problem, solution, candidate_sections)
    fl = flatness_certificate(_pair_presentation(problem, cand_pairs), candidate_rank)
    if fl.verdict != "FLAT":
        return {"verdict": "REJECTED-NONFLAT", "witness": fl.witness}
    for i, (cand_out, sol_out) in enumerate(escapes, 1):
        if cand_out is not None or sol_out is not None:
            return {"verdict": "DIFFERS", "witness": "level %d" % i}
    return {"verdict": "EQUAL", "witness": ""}
