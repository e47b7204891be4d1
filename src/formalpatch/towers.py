"""Finite-depth t-adic module towers, the Q/N torsion filtration with
per-generator certificates, stabilization indices, the tower law
verifier, and the symbolic containment bound.

Inverse limits are never materialized: a formal module is its tower of
truncations, and every limit-flavored statement is checked at each
available level.
"""

from __future__ import annotations

from typing import Optional, Sequence

from formalpatch import kernel
from formalpatch.engine import (
    SubmoduleBasis,
    colon_element,
    diagonal_rows,
    saturate,
    submodule,
    submodule_intersect,
    unit_vec,
    vec_text,
)
from formalpatch.poly import Polynomial, canonical_text
from formalpatch.report import Check
from formalpatch.rings import RingError, ideal_power_gens, localize, truncate


class TowerError(RuntimeError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PresModule:
    """Finitely presented module over a presented ring: g generators
    and a reduced relation basis in ambient rank g that includes the
    ring's own relations times each unit vector."""

    __slots__ = ("ring", "g", "rel")

    def __init__(self, ring, g: int, rel: SubmoduleBasis):
        self.ring = ring
        self.g = g
        self.rel = rel

    @classmethod
    def make(cls, ring, g: int, relation_rows=()) -> "PresModule":
        if g < 1:
            raise TowerError("a presentation needs at least one generator")
        rel = submodule(list(relation_rows) or [()], ring.context, g, ring_rels=ring.rels_vecs)
        return cls(ring, g, rel)

    @property
    def context(self):
        return self.ring.context

    def nf(self, vec):
        return self.rel.nf(vec)

    def contains_zero(self, vec) -> bool:
        """Is the element zero in the module?"""
        return self.rel.contains(vec)

    def span(self, vecs) -> SubmoduleBasis:
        """Basis (in ambient coordinates, relations included) of the
        submodule generated by the given elements."""
        return self.rel.extend(vecs)

    def unit_vec(self, k: int):
        return unit_vec(self.context, k)

    def over(self, R) -> "PresModule":
        """M/t^iM over R = B/(t^i), for this module M over B: M's
        relations over R, whose own relations bring in t^i."""
        return PresModule.make(R, self.g, self.rel.gens)

    def multiply(self, f: Polynomial, vec):
        fv = f.rename_into(self.context).terms
        return kernel.mul_vec_poly(vec, fv, self.rel.order, self.context.p)

    def __repr__(self):
        return "PresModule(g=%d over %s)" % (self.g, self.ring.describe())


class TowerModule:
    """M over B together with its truncations M_i = M/(t^i M) for
    i = 1..depth; transitions are the identity on generators."""

    __slots__ = ("base", "depth", "levels")

    def __init__(self, base: PresModule, depth: int, levels):
        self.base = base
        self.depth = depth
        self.levels = list(levels)

    def level(self, i: int) -> PresModule:
        return self.levels[i - 1]

    def ring(self, i: int):
        return self.levels[i - 1].ring


def build_tower(M: PresModule, depth: int) -> TowerModule:
    if depth < 1:
        raise TowerError("tower depth must be at least 1")
    if M.ring.under is not None:
        raise TowerError("towers are built from a module over the base ring")
    levels = [M.over(truncate(M.ring, i)) for i in range(1, depth + 1)]
    for i in range(2, depth + 1):
        finer, coarser = levels[i - 1], levels[i - 2]
        for g in finer.rel.gens:
            if not coarser.contains_zero(g):
                raise TowerError(
                    "transition %d -> %d not well defined on %s"
                    % (i, i - 1, vec_text(M.context, M.g, g))
                )
    return TowerModule(M, depth, levels)


def default_pool(pd, extra: Sequence[Polynomial] = ()) -> list:
    """Annihilator-candidate pool: the separator sum (outside every
    component prime by primality) plus validated extras."""
    ctx = pd.ring.context
    total = Polynomial.zero(ctx)
    for rho in pd.separators:
        total = total + rho
    pool = [total]
    for f in extra:
        if f not in pool:
            pool.append(f)
    _check_pool(pd, pool)
    return pool


def _check_pool(pd, pool):
    """Every pool element must lie outside every component prime."""
    for f in pool:
        blocked = pd.blockers(f)
        if blocked:
            raise RingError(
                "pool element %s lies in component prime(s) %s"
                % (canonical_text(f), ", ".join(str(b + 1) for b in blocked))
            )


class QNFiltration:
    """Per level: Q_i (ambient-coordinate basis, relations included),
    N_i = M_i/Q_i, and certificates (q, f_q) with f_q*q = 0 and f_q
    outside every component prime.  `certified` is per-level."""

    __slots__ = ("tower", "pd", "pool", "Q", "N", "certificates", "certified")

    def __init__(self, tower, pd, pool, Q, N, certificates, certified):
        self.tower = tower
        self.pd = pd
        self.pool = pool
        self.Q = Q
        self.N = N
        self.certificates = certificates
        self.certified = certified

    def q_level(self, i: int) -> SubmoduleBasis:
        return self.Q[i - 1]

    def n_level(self, i: int) -> PresModule:
        return self.N[i - 1]

    def status(self) -> str:
        return "CERTIFIED" if all(self.certified) else "LOWER-BOUND"


def _torsion_closure(rel_or_q: SubmoduleBasis, pool) -> SubmoduleBasis:
    """N : (f_1 ... f_k)^infinity, by saturating at f_1, ..., f_k in
    turn.  One round suffices: (N : f^infinity) : g^infinity is
    N : (fg)^infinity, and that is already saturated at f (and at g):
    if f*v lies in it, then (fg)^n*f*v lies in N for some n, so does
    (fg)^(n+1)*v = g*(fg)^n*f*v, and v lies in it too.  The q-closure
    law of verify_tower_laws checks this by closing again."""
    cur = rel_or_q
    for f in pool:
        cur = saturate(cur, f.rename_into(cur.context))[0]
    return cur


def q_filtration(tower: TowerModule, pd, pool: Sequence[Polynomial]) -> QNFiltration:
    if not pool:
        raise TowerError("q_filtration needs a non-empty pool")
    _check_pool(pd, pool)
    Qs, Ns, certs, certified = [], [], [], []
    exp_cap = tower.depth + 2
    for i in range(1, tower.depth + 1):
        Mi = tower.level(i)
        Q = _torsion_closure(Mi.rel, pool)
        level_certs = []
        ok = True
        product = Polynomial.one(pd.ring.context)
        for f in pool:
            product = product * f
        for q in Q.gens:
            if Mi.contains_zero(q):
                continue  # already zero in M_i; no certificate needed
            found = None
            for f in list(pool) + ([product] if len(pool) > 1 else []):
                for e in range(1, exp_cap + 1):
                    fe = f**e
                    if Mi.contains_zero(Mi.multiply(fe, q)):
                        found = (q, fe)
                        break
                if found:
                    break
            if found is None:
                ok = False
            else:
                level_certs.append(found)
        Ni = PresModule(Mi.ring, Mi.g, Q)
        Qs.append(Q)
        Ns.append(Ni)
        certs.append(level_certs)
        certified.append(ok)
    return QNFiltration(tower, pd, list(pool), Qs, Ns, certs, certified)


def stabilization_index(filt: QNFiltration) -> int:
    """Least n with every composite Q_{i-1+n} -> Q_i the zero map."""
    tower = filt.tower
    if tower.depth < 2:
        raise TowerError("stabilization needs depth at least 2")
    for n in range(1, tower.depth):
        good = True
        for i in range(1, tower.depth - n + 2):
            hi = filt.q_level(i - 1 + n)
            Mi = tower.level(i)
            for q in hi.gens:
                if not Mi.contains_zero(q):
                    good = False
                    break
            if not good:
                break
        if good:
            return n
    raise TowerError(
        "no stabilization within depth %d; deepen the tower" % tower.depth
    )


def verify_tower_laws(tower: TowerModule, pd, f_loc: Polynomial, pool: Optional[Sequence[Polynomial]] = None):
    """Structured PASS/FAIL records for the filtration laws at every
    level, plus the localization base-change comparison at f_loc."""
    pool = list(pool) if pool else default_pool(pd, (f_loc,))
    filt = q_filtration(tower, pd, pool)
    records = []
    ctx = tower.base.context
    g = tower.base.g

    for i in range(1, tower.depth + 1):
        Q = filt.q_level(i)
        Mi = tower.level(i)
        closed = _torsion_closure(Q, pool)
        if closed.gens == Q.gens:
            records.append(Check("q-closure", i, "PASS"))
        else:
            extraneous = next(gv for gv in closed.gens if not Q.contains(gv))
            records.append(Check("q-closure", i, "FAIL", vec_text(ctx, g, extraneous)))

        verdict, witness = "PASS", ""
        for cq, cf in filt.certificates[i - 1]:
            if not Mi.contains_zero(Mi.multiply(cf, cq)):
                verdict, witness = "FAIL", vec_text(ctx, g, cq)
                break
            if any(pd.in_prime(j, cf, Mi.ring) for j in range(pd.count)):
                verdict, witness = "FAIL", canonical_text(cf)
                break
        if not filt.certified[i - 1]:
            verdict, witness = "FAIL", "uncertified generator (pool exhausted)"
        records.append(Check("q-certificates", i, verdict, witness))

        verdict, witness = "PASS", ""
        Ni = filt.n_level(i)
        for k in range(g):
            if Ni.contains_zero(Ni.unit_vec(k)):
                continue
            ann = colon_element(Q, Ni.unit_vec(k))
            hit = False
            for j in range(pd.count):
                Pj = pd.prime_basis(j, Mi.ring)
                if all(Pj.contains(gv) for gv in ann.visible_gens()):
                    hit = True
                    break
            if not hit:
                verdict = "FAIL"
                witness = "generator %d" % (k + 1)
                break
        records.append(Check("n-annihilators", i, verdict, witness))

        if i >= 2:
            prev_rel = tower.level(i - 1).rel
            ok = all(prev_rel.contains(gv) for gv in Mi.rel.gens)
            records.append(Check("transition-relations", i, "PASS" if ok else "FAIL"))
            Qprev = filt.q_level(i - 1)
            bad = next((gv for gv in Q.gens if not Qprev.contains(gv)), None)
            records.append(Check(
                "transition-q-restriction",
                i,
                "PASS" if bad is None else "FAIL",
                "" if bad is None else vec_text(ctx, g, bad),
            ))

        verdict, witness = "PASS", ""
        ti = ctx.index(ctx.tvar)
        for q in Q.visible_gens():
            c = min((m[ti] for (m, _), _ in q), default=0)
            if c == 0 or c >= i:
                continue
            stripped = tuple(
                ((m[:ti] + (m[ti] - c,) + m[ti + 1 :], pos), co) for (m, pos), co in q
            )
            if not filt.q_level(i - c).contains(stripped):
                verdict, witness = "FAIL", vec_text(ctx, g, stripped)
                break
        records.append(Check("divisibility", i, verdict, witness))

    try:
        n = stabilization_index(filt)
        records.append(Check("stabilization", 0, "PASS", "n = %d" % n))
    except TowerError as e:
        records.append(Check("stabilization", 0, "FAIL", str(e)))

    # base-change: the filtration computed over the localization at
    # f_loc must agree with the localized filtration, both directions
    verdict, witness = "PASS", ""
    try:
        for i in range(1, tower.depth + 1):
            Ri = tower.ring(i)
            Li = localize(Ri, f_loc, pd)
            Q = filt.q_level(i)
            lifted = [Li.lift_vec(gv) for gv in Q.gens]
            Mi_loc_rel = submodule(
                [Li.lift_vec(gv) for gv in tower.level(i).rel.gens],
                Li.context,
                g,
                ring_rels=Li.rels_vecs,
            )
            Q_loc = _torsion_closure(Mi_loc_rel, pool)
            span_lifted = submodule(lifted, Li.context, g, ring_rels=Li.rels_vecs)
            for gv in Q_loc.gens:
                if not span_lifted.contains(gv):
                    verdict, witness = "FAIL", "level %d: localized Q has an extra element" % i
                    break
            for gv in span_lifted.gens:
                if not Q_loc.contains(gv):
                    verdict, witness = "FAIL", "level %d: Q does not localize" % i
                    break
            if verdict == "FAIL":
                break
    except RingError as e:
        verdict, witness = "FAIL", str(e)
    records.append(Check("base-change", 0, verdict, witness))

    records.sort(key=lambda r: (r.name, r.level))
    return records, filt


def symbolic_containment_bound(
    M: PresModule,
    pd,
    c: int,
    n_max: int,
    separators: Optional[Sequence[Polynomial]] = None,
):
    """Least n <= n_max with the intersection of the separator-saturated
    P_j^n M containing into t^c M; raises with the witness element when
    no n works."""
    if c < 0:
        raise TowerError("containment target exponent must be nonnegative")
    seps = list(separators) if separators is not None else list(pd.separators)
    if len(seps) != pd.count:
        raise TowerError("need one separator per component prime")
    ctx = M.context
    t = M.ring.t()
    tc_basis = M.span(diagonal_rows([(t**c).terms], M.g))
    witness = None
    for n in range(1, n_max + 1):
        T = None
        for j in range(pd.count):
            powers = ideal_power_gens([g.rename_into(ctx) for g in pd.prime_gens[j]], n)
            PnM = M.span(diagonal_rows([q.terms for q in powers], M.g))
            Sj = saturate(PnM, seps[j].rename_into(ctx))[0]
            T = Sj if T is None else submodule_intersect(T, Sj)
        witness = next((gv for gv in T.gens if not tc_basis.contains(gv)), None)
        if witness is None:
            return n
    raise TowerError(
        "no containment exponent up to %d; witness %s"
        % (n_max, vec_text(ctx, M.g, witness)),
        witness=witness,
    )
