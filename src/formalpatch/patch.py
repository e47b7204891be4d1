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

Derived levels.  Every object the solver needs at level i (over
B_i = B/t^i) is derived from B where a LevelCertificate allows it.  The
lemma is the filtration argument for regular sequences (Matsumura,
Commutative Ring Theory, section 16): if t is a nonzerodivisor on
N = F/S and g is a nonzerodivisor on N/tN, then g is a nonzerodivisor
on every N/t^iN, which is filtered by copies of N/tN.  With F free over
B and S a submodule over B, the certificate's checks, each one lead-term
test or one colon over B, and what they give at every level i >= 1:

- S_e = satrel(e, None) with S_e : t = S_e and (S_e + tF) : f_e =
  S_e + tF: satrel(e, i) = S_e + t^iF, one basis extension with B_i's
  ring relations.  The same for zero_pairs when it holds for e = 1, 2.
- t regular on F/(S + im phi), where phi maps a free module into F/S
  and S's levels are S + t^iF: the kernel of phi at level i is the
  kernel over B plus t^i times the free module.  This covers
  kernel_basis (phi_D into M_0), pose_problem's injectivity (alpha_e)
  and solve's level-injectivity (the sections into the pairs modulo
  the zero pairs), which then holds at every level by construction.
- With derived kernels a span equality over B holds at every level: the
  stabilization test, the canonical-bound search and
  level-surjectivity run once, over B.  A span that misses over B is
  tried at level 1 (B's span plus t times the pairs), whose miss fails
  the test; a miss over B with a hit at level 1 falls back to the
  level-wise test for that pair of bounds only.
- Checks whose level-i module always contains B's need no regularity:
  a PASS over B is a PASS at every level for well-definedness,
  surjectivity after inverting f0, gamma-span, commutation and the
  containments of check_maximality and check_flat_uniqueness.
- t regular on F/S, and a pool element or separator regular on
  F/(S + tF): the torsion records (t-regularity, q-vanishing,
  separator-kernel) PASS at every level, for M_1, M_2 and the solution.

Whatever the certificate cannot derive (a check fails, or a B-level
span misses) is computed level by level.  Reduced bases are unique, so
a derived basis equals the computed one, and every record prints the
same verdict at the same level on either path.  The tower side
(build_tower's own levels, q_filtration, verify_tower_laws) computes
every level.
"""

from __future__ import annotations

import weakref
from itertools import combinations
from typing import Optional, Sequence

from formalpatch import kernel
from formalpatch.engine import (
    SubmoduleBasis,
    diagonal_rows,
    leads_coprime,
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
    M_0 over B and the chart each lives on, gluing matrices over B, the
    level certificate, and per-level caches."""

    def __init__(self, config, modules, alpha1, alpha2, expected_rank=None):
        self.config = config
        self.modules = modules  # {1: M_1, 2: M_2, 0: M_0}, PresModules over B
        self.charts = {1: config.f1, 2: config.f2, 0: config.f0()}
        self.g1, self.g2, self.g0 = (modules[e].g for e in (1, 2, 0))
        self.alpha1 = alpha1  # g1 rows, each a vec of rank g0
        self.alpha2 = alpha2
        self.expected_rank = expected_rank
        self.certificate = LevelCertificate(self)
        self._rings = {}
        self._powers = {}
        self._satrel = {}
        self._zero_pairs = {}
        self._phi = {}
        self._kernels = {}
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

    def chart_power(self, e: int, k: int):
        """f_e^k as a rank-1 vec, built once per (e, k)."""
        if (e, k) not in self._powers:
            self._powers[e, k] = vec_of_polys([self.charts[e] ** k])
        return self._powers[e, k]

    def truncation(self, basis: SubmoduleBasis, level: int) -> SubmoduleBasis:
        """basis + t^level F over B/(t^level), for a submodule of F over
        B: its image in the level's free module, with the level's ring
        relations."""
        t_rows = diagonal_rows([(self.base.t() ** level).terms], basis.rank)
        gens = basis.extend(t_rows).gens
        return SubmoduleBasis(basis.context, basis.rank, basis.order,
                              self.ring_at(level).rels_vecs, gens)

    # -- saturated relation modules -----------------------------------
    def satrel(self, e: int, level: Optional[int]) -> SubmoduleBasis:
        """Relations of M_e over B (level None), or of M_e/t^iM_e over
        B_i, saturated at the chart f_e; f_0 = f1*f2.  A level the
        certificate derives is satrel(e, None) + t^iF."""
        key = (e, level)
        if key not in self._satrel:
            if level is not None and self.certificate.derivable("satrel", e):
                S = self.truncation(self.satrel(e, None), level)
            else:
                M = self.modules[e]
                if level is not None:
                    M = M.over(self.ring_at(level))
                S = saturate(M.rel, self.charts[e])[0]
            self._satrel[key] = S
        return self._satrel[key]

    def zero_pairs(self, level: Optional[int]) -> SubmoduleBasis:
        """Pairs representing (0, 0): SatRel_1 + SatRel_2 side by side."""
        if level not in self._zero_pairs:
            if level is not None and self.certificate.derivable("pairs"):
                Z = self.truncation(self.zero_pairs(None), level)
            else:
                s1 = self.satrel(1, level)
                s2 = self.satrel(2, level)
                rows = [_join_pair(g, (), self.g1) for g in s1.gens]
                rows += [_join_pair((), g, self.g1) for g in s2.gens]
                R = self.ring_at(level)
                Z = submodule(rows or [()], self.base.context, self.g1 + self.g2,
                              ring_rels=R.rels_vecs)
            self._zero_pairs[level] = Z
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
        lhs = kernel.mul_vec_poly(self._alpha_image(1, a), self.chart_power(2, db), order, ctx.p)
        rhs = kernel.mul_vec_poly(self._alpha_image(2, b), self.chart_power(1, da), order, ctx.p)
        return kernel.add_vec(lhs, kernel.neg_vec(rhs, ctx.p), order, ctx.p)

    def phi_rows(self, D: int):
        """The images of the unit pairs under the bound-D difference map
        phi_D; its kernel is K_D."""
        if D not in self._phi:
            ctx = self.base.context
            rows = [self.difference(unit_vec(ctx, k), D, (), D) for k in range(self.g1)]
            rows += [self.difference((), D, unit_vec(ctx, k), D) for k in range(self.g2)]
            self._phi[D] = tuple(rows)
        return self._phi[D]

    def kernel_basis(self, level: Optional[int], D: int) -> SubmoduleBasis:
        """K_D = pairs (a, b) with f2^D alpha1(a) = f1^D alpha2(b) in
        the saturated M_0 coordinates; a submodule of B_i^{g1+g2}.  A
        level the certificate derives is K_D over B plus t^i times the
        free module of pairs."""
        key = (level, D)
        if key not in self._kernels:
            rows = self.phi_rows(D)
            if level is not None and self.certificate.derivable("kernel", rows):
                K = self.truncation(self.kernel_basis(None, D), level)
            else:
                K = syzygy_project(rows, self.satrel(0, level))
            self._kernels[key] = K
        return self._kernels[key]

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
        a2 = kernel.mul_vec_poly(a, self.chart_power(1, sa), order, ctx.p)
        b2 = kernel.mul_vec_poly(b, self.chart_power(2, sb), order, ctx.p)
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


class LevelCertificate:
    """Which truncation levels of a PatchProblem follow from B and
    level 1 (the lemma is in the module docstring).

    derivable(claim, *args) answers a claim for every level i >= 1 at
    once, and memoizes the answer.  The claims:

    - "image": a check whose level-i module contains B's, so that a
      PASS over B is a PASS at every level;
    - "satrel", e: satrel(e, i) = satrel(e, None) + t^iF;
    - "pairs": zero_pairs(i) = zero_pairs(None) + t^iP;
    - "kernel", rows: the kernel of `rows` into F_0/satrel(0, i) is
      the kernel over B plus t^i times the free module;
    - "pair-kernel", rows: the same for `rows` into P/zero_pairs(i);
    - "t-regular", S: (S + t^(i+1)F) : t = S + t^iF;
    - "torsion", S, g: g is a nonzerodivisor on F/(S + t^iF).

    Every check behind them is one lead-term test or one colon over B.
    A False answer proves nothing: the caller takes the level-wise
    path."""

    def __init__(self, problem):
        # a proxy, so that the problem and its certificate form no
        # reference cycle and the problem's bases go as soon as it does
        self.problem = weakref.proxy(problem)
        self._answers = {}
        self._regular = {}

    def derivable(self, claim: str, *args) -> bool:
        key = (claim,) + args
        if key not in self._answers:
            self._answers[key] = self._CLAIMS[claim](self, *args)
        return self._answers[key]

    def regular(self, N: SubmoduleBasis, f: Polynomial) -> bool:
        """Is f a nonzerodivisor on F/N, for a submodule N over B?"""
        key = (N, f)
        if key not in self._regular:
            f = f.rename_into(N.context)
            lead = kernel.canon_vec(f.terms, N.order, N.context.p)[0][0][0]
            self._regular[key] = leads_coprime(N, lead) or module_quotient(N, f).gens == N.gens
        return self._regular[key]

    def _t(self):
        return self.problem.base.t()

    def _image(self):
        # satrel(e, None) lies in satrel(e, i): saturation is monotone
        return True

    def _satrel(self, e):
        return self.derivable("torsion", self.problem.satrel(e, None), self.problem.charts[e])

    def _pairs(self):
        return self.derivable("satrel", 1) and self.derivable("satrel", 2)

    def _kernel(self, rows):
        S = self.problem.satrel(0, None)
        return self.derivable("satrel", 0) and self.regular(S.extend(rows), self._t())

    def _pair_kernel(self, rows):
        Z = self.problem.zero_pairs(None)
        return self.derivable("pairs") and self.regular(Z.extend(rows), self._t())

    def _t_regular(self, S):
        return self.regular(S, self._t())

    def _torsion(self, S, g):
        t_rows = diagonal_rows([self._t().terms], S.rank)
        return self.derivable("t-regular", S) and self.regular(S.extend(t_rows), g)

    _CLAIMS = {
        "image": _image,
        "satrel": _satrel,
        "pairs": _pairs,
        "kernel": _kernel,
        "pair-kernel": _pair_kernel,
        "t-regular": _t_regular,
        "torsion": _torsion,
    }


def _unreached_generator(problem, rows, rel, f):
    """Index of the first unit vector outside the span of `rows` and
    the relation basis `rel`, saturated at f over rel's ring; None when
    the rows generate everything after inverting f."""
    ctx = problem.base.context
    span = saturate(rel.extend(rows), f)[0]
    return next((k for k in range(rel.rank) if not span.contains(unit_vec(ctx, k))), None)


def _failures_by_level(problem, find, *claim):
    """find(level) at levels 1..depth, lazily: a check's first failure
    at that level, or None.  When the certificate grants `claim` (by
    default "image": the check's module at every level contains its
    module over B) and find(None) finds nothing over B, nothing fails
    at any level, and find is not called again."""
    levels = range(1, problem.config.depth + 1)
    if problem.certificate.derivable(*(claim or ("image",))) and find(None) is None:
        return (None for _ in levels)
    return (find(i) for i in levels)


def _torsion_records(problem, S, at_level, label, pool, derived):
    """Threefold torsion-freeness certificate in saturated coordinates:
    t-regularity per level, vanishing torsion closure over the pool,
    and zero intersection of the component-separator kernels.

    S is the relation module over B and at_level(i) its relations over
    B_i; `derived` says that at_level(i) is S + t^iF at every level.
    Then a record whose certificate claim holds PASSes at every level,
    and the others are computed level by level."""
    cfg = problem.config
    cert = problem.certificate
    records = []
    depth = cfg.depth
    ctx = problem.base.context
    t = problem.base.t()
    separators = [rho.rename_into(ctx) for rho in cfg.pd.separators]
    t_everywhere = derived and cert.derivable("t-regular", S)
    q_everywhere = derived and all(cert.derivable("torsion", S, f) for f in pool)
    sep_everywhere = derived and all(cert.derivable("torsion", S, rho) for rho in separators)
    for i in range(1, depth + 1):
        if i < depth:
            ok = t_everywhere
            if not ok:
                Snext = at_level(i + 1)
                lhs = module_quotient(Snext, t)
                rhs = Snext.extend(diagonal_rows([(t**i).terms], Snext.rank))
                ok = lhs.gens == rhs.gens
            records.append(Check(label + "-t-regularity", i, "PASS" if ok else "FAIL"))
        ok = q_everywhere
        witness = ""
        if not ok:
            Si = at_level(i)
            Q = _torsion_closure(Si, pool)
            ok = Q.gens == Si.gens
            if not ok:
                extra = next(gv for gv in Q.gens if not Si.contains(gv))
                witness = vec_text(ctx, Si.rank, extra)
        records.append(Check(label + "-q-vanishing", i, "PASS" if ok else "FAIL", witness))
        ok = sep_everywhere
        if not ok:
            Si = at_level(i)
            inter = None
            for rho in separators:
                satk = saturate(Si, rho)[0]
                inter = satk if inter is None else submodule_intersect(inter, satk)
            ok = inter.gens == Si.gens
        records.append(Check(label + "-separator-kernel", i, "PASS" if ok else "FAIL"))
    all_ok = all(r.verdict == "PASS" for r in records)
    records.append(
        Check(label + "-torsion-freeness", 0, "CERTIFIED-AT-DEPTH" if all_ok else "FAIL")
    )
    return records


def _non_injective(problem, e, alpha_rows, level):
    """The first kernel element of alpha_e into M_0 at `level` outside
    M_e's relations saturated at f0, or None."""
    K = syzygy_project(alpha_rows, problem.satrel(0, level))
    Se_ext = saturate(problem.satrel(e, level), problem.config.f0())[0]
    return next((gv for gv in K.gens if not Se_ext.contains(gv)), None)


def pose_problem(config, module1, module2, module0, alpha1_matrix, alpha2_matrix,
                 expected_rank=None, pool=None):
    """Build and certify a patching problem.

    module arguments are (generator count, relation rows) in saturated
    coordinates over B; alphas are matrices of base polynomials, one
    row per M_e generator, entries indexed by M_0 generators.

    Each check runs over B first.  Well-definedness and surjectivity
    only get easier with the level, so a PASS over B holds at every
    level; injectivity holds at every level when it holds over B and
    the certificate derives the kernel of alpha_e.  Whatever B leaves
    open is checked level by level, and the first level and check that
    fail raise the error.
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
    cert = problem.certificate
    pool = list(pool) if pool else _default_pool(config)
    f0 = config.f0()

    for e, rows, g in ((1, rows1, g1), (2, rows2, g2)):
        images = [problem._alpha_image(e, r) for r in rows]
        alpha_rows = tuple(problem._alpha_image(e, unit_vec(ctx, k)) for k in range(g))
        # well-definedness: relations map to zero in M_0
        unkilled = _failures_by_level(problem, lambda level: next(
            ((r, img) for r, img in zip(rows, images)
             if not problem.satrel(0, level).contains(img)), None))
        # surjectivity after inverting f0: every M_0 generator hit
        unreached = _failures_by_level(problem, lambda level: _unreached_generator(
            problem, alpha_rows, problem.satrel(0, level), f0))
        # injectivity: kernel of the alpha map lies in M_e's relations
        non_injective = _failures_by_level(problem, lambda level: _non_injective(
            problem, e, alpha_rows, level), "kernel", alpha_rows)
        for i in range(1, config.depth + 1):
            bad = next(unkilled)
            if bad is not None:
                raise PatchError(
                    "alpha%d does not kill the relation %s at level %s"
                    % (e, vec_text(ctx, g, bad[0]), i),
                    witness=vec_text(ctx, g0, bad[1]),
                )
            k = next(unreached)
            if k is not None:
                raise PatchError(
                    "alpha%d not surjective at level %s: generator %d of M_0 unreachable"
                    % (e, i, k + 1),
                    witness="generator %d" % (k + 1),
                )
            bad = next(non_injective)
            if bad is not None:
                raise PatchError(
                    "alpha%d not injective at level %s" % (e, i),
                    witness=vec_text(ctx, g, bad),
                )
    # torsion-freeness certificates for M_1, M_2 towers
    for e, label in ((1, "m1"), (2, "m2")):
        recs = _torsion_records(problem, problem.satrel(e, None),
                                lambda i, e=e: problem.satrel(e, i), label, pool,
                                cert.derivable("satrel", e))
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


def _bounds_agree(problem, D_small, D_big):
    """Do the D_small and D_big kernels agree under the embedding at
    every level?

    When the certificate derives both kernels, each is the one over B
    plus t^i P at level i, P the free module of pairs, and the zero
    pairs hold t^i P.  So agreement over B gives agreement at every
    level, and the kernels over B disagreeing at level 1 makes the
    answer no.  Anything else is decided level by level."""
    cert = problem.certificate
    K = problem.kernel_basis
    if (cert.derivable("kernel", problem.phi_rows(D_small))
            and cert.derivable("kernel", problem.phi_rows(D_big))):
        small, big = K(None, D_small), K(None, D_big)
        if _spans_equal_under_embedding(problem, small, D_small, big, D_big, None):
            return True
        if not _spans_equal_under_embedding(problem, small, D_small, big, D_big, 1):
            return False
    return all(
        _spans_equal_under_embedding(problem, K(i, D_small), D_small, K(i, D_big), D_big, i)
        for i in range(1, problem.config.depth + 1)
    )


def solve(problem: PatchProblem, schedule: Sequence[int]) -> PatchSolution:
    """Fiber products at growing denominator bounds until two
    consecutive bounds agree at every level; then canonicalize at the
    least sufficient bound, lift to a tower over B, and certify.  What
    the certificate derives is decided over B and level 1, the rest
    level by level."""
    sched = list(schedule)
    if not sched or any(d < 0 for d in sched) or any(
        b <= a for a, b in zip(sched, sched[1:])
    ):
        raise PatchError("the D-schedule must be strictly increasing and nonnegative")
    cfg = problem.config
    cert = problem.certificate
    levels = list(range(1, cfg.depth + 1))

    stabilized_at = None
    for prev, D in zip(sched, sched[1:]):
        if _bounds_agree(problem, prev, D):
            stabilized_at = (prev, D)
            break

    trace = {"schedule": sched}
    if stabilized_at is None:
        return PatchSolution(
            problem, "UNSTABILIZED", sched[-1] if sched else 0, [], None, None,
            [Check("stabilization", 0, "UNSTABILIZED",
                   "no two consecutive bounds in %s agree" % sched)],
            trace, "NOT-CHECKED",
        )

    D_stab = stabilized_at[1]
    canonical = next(d for d in range(0, D_stab + 1) if _bounds_agree(problem, d, D_stab))
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
    # the level fiber product is exactly the tower's level module:
    # surjectivity is span equality, injectivity is kernel containment.
    # The sections span K_canonical over B, hence at every level where
    # K_canonical is derived; where the kernel of the sections is
    # derived, it is the tower's level relations themselves.
    def unspanned(level):
        span = problem.span_with_zero_pairs(sections, level)
        return next((g for g in problem.kernel_basis(level, canonical).gens
                     if not span.contains(g)), None)

    unspanned_at = _failures_by_level(problem, unspanned, "kernel", problem.phi_rows(canonical))
    into = not sections or cert.derivable("pair-kernel", tuple(sections))
    for i in levels:
        ok = next(unspanned_at) is None
        records.append(Check("level-surjectivity", i, "PASS" if ok else "FAIL"))
        bad = None
        if not into:
            ker = syzygy_project(sections, problem.zero_pairs(i))
            reli = tower.level(i).rel
            bad = next((gv for gv in ker.gens if not reli.contains(gv)), None)
        records.append(
            Check("level-injectivity", i, "PASS" if bad is None else "FAIL",
                  "" if bad is None else vec_text(ctx, base_mod.g, bad))
        )
    # torsion-freeness of the solution tower itself
    records.extend(_torsion_records(problem, base_mod.rel, lambda i: tower.level(i).rel,
                                    "solution", pool, True))

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
    coordinates plus diagram commutation.  Both only get easier with
    the level, so a PASS over B is a PASS at every level."""
    cfg = problem.config
    ctx = problem.base.context
    diffs = [problem.difference(*s) for s in candidate_sections]
    records = []
    for e, f in ((1, cfg.f1), (2, cfg.f2)):
        parts = [s[0] if e == 1 else s[2] for s in candidate_sections]
        unreached = _failures_by_level(problem, lambda level: _unreached_generator(
            problem, parts, problem.satrel(e, level), f))
        for i, k in enumerate(unreached, 1):
            records.append(
                Check("gamma-span-m%d" % e, i, "PASS" if k is None else "FAIL",
                      "" if k is None else "generator %d not reached" % (k + 1))
            )
    uncommuting = _failures_by_level(problem, lambda level: next(
        (d for d in diffs if not problem.satrel(0, level).contains(d)), None))
    for i, bad in enumerate(uncommuting, 1):
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
    pair outside the candidate's span (None where there is none).
    Spans only grow with the level, so a pair inside over B is inside
    at every level."""
    D = max([solution.denominator] + [max(s[1], s[3]) for s in candidate_sections])
    sol_pairs = [problem.scale_pair_into(g, D - solution.denominator) for g in solution.sections]
    cand_pairs = [problem.scaled_pair(a, D - da, b, D - db) for a, da, b, db in candidate_sections]

    def first_outside(pairs, others, level):
        span = problem.span_with_zero_pairs(others, level)
        return next((p for p in pairs if not span.contains(p)), None)

    def escapes():
        yield from zip(
            _failures_by_level(problem, lambda level: first_outside(cand_pairs, sol_pairs, level)),
            _failures_by_level(problem, lambda level: first_outside(sol_pairs, cand_pairs, level)))

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
