"""Reduced Groebner bases and derived module operations over presented
rings.

A SubmoduleBasis is the universal carrier: a reduced basis of a
submodule of a free module R^rank, where R is a polynomial ring modulo
declared ring relations.  Quotient rings are handled by appending the
relation rows (relation times each unit vector) to every computation;
there is no separate quotient arithmetic.

Everything below the public wrappers works on the kernel's flat vec
representation; see formalpatch._kernel_py for the format.

Every Groebner run goes through the basis cache of its PolyContext
(shared by the contexts derived with prepend_vars / drop_prefix), so a
basis is computed once per ring family.  Entries record the budget
their run used; a hit whose use exceeds the caller's budget is rerun,
so it raises exactly the BudgetError an uncached run would.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
from typing import Optional, Sequence

from formalpatch import kernel
from formalpatch.poly import MonomialOrder, PolyContext, Polynomial, canonical_text


class BudgetError(RuntimeError):
    """Raised when a computation exceeds the configured budget."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


@dataclass(frozen=True)
class Budget:
    maxdeg: int = 40
    maxpairs: int = 200_000

    @staticmethod
    def from_env() -> "Budget":
        raw = os.environ.get("FORMALPATCH_BUDGET")
        if not raw:
            return Budget()
        try:
            d, s = raw.split(":")
            return Budget(int(d), int(s))
        except ValueError:
            raise ValueError(
                "FORMALPATCH_BUDGET must look like 'maxdeg:maxpairs', got %r" % raw
            ) from None


def default_budget() -> Budget:
    return Budget.from_env()


@dataclass(frozen=True)
class ModuleOrder:
    """Module order: a monomial order plus TOP/POT placement.

    term-over-position (the default) compares monomials first and makes
    elimination orders legitimate for modules; position-over-term is
    used internally for syzygy extraction.  Lower positions are greater
    under both policies.
    """

    mono: MonomialOrder = MonomialOrder("grevlex")
    policy: str = "top"

    def descriptor(self, context: PolyContext, posgroup=()):
        blocks = self.mono.descriptor(context)[0]
        pol = 0 if self.policy == "top" else 1
        return (blocks, pol, tuple(posgroup))


TOP_GREVLEX = ModuleOrder()


class FreeModuleElement:
    """A vector of polynomials of fixed length (the ambient rank)."""

    __slots__ = ("context", "rank", "vec")

    def __init__(self, context: PolyContext, rank: int, vec, order=None):
        self.context = context
        self.rank = rank
        self.vec = kernel.canon_vec(vec, order or context.order0, context.p)

    @classmethod
    def from_polys(cls, coords: Sequence[Polynomial]) -> "FreeModuleElement":
        if not coords:
            raise ValueError("empty coordinate vector")
        ctx = coords[0].context
        vec = []
        for pos, c in enumerate(coords):
            if c.context != ctx:
                raise ValueError("mixed contexts in module element")
            vec.extend(((m, pos), co) for (m, _), co in c.terms)
        return cls(ctx, len(coords), vec)

    def coords(self) -> list:
        out = [[] for _ in range(self.rank)]
        for (m, pos), c in self.vec:
            out[pos].append(((m, 0), c))
        return [Polynomial(self.context, terms) for terms in out]

    @property
    def is_zero(self) -> bool:
        return not self.vec

    def __eq__(self, other):
        return (
            isinstance(other, FreeModuleElement)
            and self.context == other.context
            and self.rank == other.rank
            and self.vec == other.vec
        )

    def __hash__(self):
        return hash((self.context, self.rank, self.vec))

    def __repr__(self):
        return "(" + ", ".join(canonical_text(c) for c in self.coords()) + ")"


def vec_of_polys(coords: Sequence[Polynomial]):
    vec = []
    for pos, c in enumerate(coords):
        vec.extend(((m, pos), co) for (m, _), co in c.terms)
    return tuple(vec)


def unit_vec(ctx: PolyContext, k: int):
    """The k-th unit vector of a free module over ctx."""
    return (((kernel.mono_one(ctx.nvars), k), ctx.field.one),)


def vec_text(ctx: PolyContext, rank: int, vec) -> str:
    coords = [[] for _ in range(rank)]
    for (m, pos), c in vec:
        coords[pos].append(((m, 0), c))
    if rank == 1:
        return canonical_text(Polynomial(ctx, coords[0]))
    return "(" + ", ".join(canonical_text(Polynomial(ctx, t)) for t in coords) + ")"


def _relation_rows(ring_rels, rank):
    rows = []
    for rel in ring_rels:
        for j in range(rank):
            rows.append(tuple(((m, j), c) for (m, _), c in rel))
    return rows


def _vec_sugar(v):
    return max((kernel.mono_deg(m) for (m, _), _ in v), default=0)


def _monic_gens(gens, order, p):
    """Canonical, monic forms of the nonzero `gens`, in input order."""
    out = []
    for g in gens:
        v = kernel.canon_vec(g, order, p)
        if v:
            out.append(kernel.monic_vec(v, p))
    return tuple(out)


def _fits(use, budget):
    return use[0] <= budget.maxdeg and use[1] <= budget.maxpairs


def _buchberger(gens, order, p, rank1, budget):
    """Sugar-strategy Buchberger with the product (ideal case only) and
    chain criteria over canonical monic nonzero `gens` (_monic_gens).

    Returns (basis, use): the unique reduced basis, leads descending,
    monic; and (largest S-pair lcm degree, pairs popped), the least
    budget under which this run completes."""
    G = []
    sugar = []
    heap = []
    done = set()
    counter = 0
    topdeg = 0

    def push_pairs(t):
        (mt, pt), _ = G[t][0]
        for i in range(t):
            (mi, pi), _ = G[i][0]
            if pi != pt:
                continue
            l = kernel.mono_lcm(mi, mt)
            s = max(
                sugar[i] + kernel.mono_deg(l) - kernel.mono_deg(mi),
                sugar[t] + kernel.mono_deg(l) - kernel.mono_deg(mt),
            )
            heapq.heappush(heap, (s, kernel.term_sortkey((l, pt), order), i, t))

    for g in gens:
        G.append(g)
        sugar.append(_vec_sugar(g))
        push_pairs(len(G) - 1)

    while heap:
        s, lk, i, j = heapq.heappop(heap)
        done.add((i, j))
        (mi, pi), _ = G[i][0]
        (mj, pj), _ = G[j][0]
        l = kernel.mono_lcm(mi, mj)
        ldeg = kernel.mono_deg(l)
        if ldeg > budget.maxdeg:
            raise BudgetError(
                "degree budget exceeded (S-pair lcm degree %d > %d)" % (ldeg, budget.maxdeg),
                detail={"pair": (i, j), "lcm_degree": ldeg, "maxdeg": budget.maxdeg},
            )
        topdeg = max(topdeg, ldeg)
        counter += 1
        if counter > budget.maxpairs:
            raise BudgetError(
                "S-pair budget exceeded (%d pairs)" % budget.maxpairs,
                detail={"pair": (i, j)},
            )
        if rank1 and kernel.mono_mul(mi, mj) == l:
            continue  # product criterion: coprime leads
        skip = False
        for k in range(len(G)):
            if k == i or k == j:
                continue
            (mk, pk), _ = G[k][0]
            if pk != pi or not kernel.mono_divides(mk, l):
                continue
            lik = kernel.mono_lcm(mi, mk)
            ljk = kernel.mono_lcm(mj, mk)
            if lik == l or ljk == l:
                continue  # strictness keeps the chain criterion acyclic
            a = (i, k) if i < k else (k, i)
            b = (j, k) if j < k else (k, j)
            if a in done and b in done:
                skip = True
                break
        if skip:
            continue
        sp = kernel.spair_vec(G[i], G[j], order, p)
        h = kernel.nf_vec(sp, G, order, p)
        if h:
            G.append(kernel.monic_vec(h, p))
            sugar.append(max(s, _vec_sugar(h)))
            push_pairs(len(G) - 1)

    # minimalize: keep only leads not divisible by another kept lead
    order_key = lambda v: kernel.term_sortkey(v[0][0], order)
    kept = []
    for g in sorted(G, key=order_key):
        (mg, pg), _ = g[0]
        ok = True
        for h in kept:
            (mh, ph), _ = h[0]
            if ph == pg and kernel.mono_divides(mh, mg):
                ok = False
                break
        if ok:
            kept.append(g)
    # interreduce tails
    reduced = list(kept)
    for idx in range(len(reduced)):
        rest = reduced[:idx] + reduced[idx + 1 :]
        reduced[idx] = kernel.monic_vec(kernel.nf_vec(reduced[idx], rest, order, p), p)
    reduced.sort(key=order_key, reverse=True)
    return tuple(reduced), (topdeg, counter)


def _cached_basis(context, gens, order, rank1, budget):
    """(basis, use) of `gens` through the context's basis cache; the key
    is the ordered canonical input, so a rerun replays the same pairs."""
    key = (_monic_gens(gens, order, context.p), order, rank1)
    hit = context._cache.get(key)
    if hit is None or not _fits(hit[1], budget):
        hit = context._cache[key] = _buchberger(key[0], order, context.p, rank1, budget)
    return hit


class SubmoduleBasis:
    """Reduced basis of a submodule of R^rank over a presented ring.

    `gens` is the combined reduced Groebner basis (declared generators
    together with the ring-relation rows, interreduced); `ring_rels` is
    the relation ideal of the presented ring as rank-1 vecs.
    """

    __slots__ = ("context", "rank", "order", "ring_rels", "gens", "_ringrow_basis")

    def __init__(self, context, rank, order, ring_rels, gens):
        self.context = context
        self.rank = rank
        self.order = order
        self.ring_rels = tuple(ring_rels)
        self.gens = tuple(gens)
        self._ringrow_basis = None

    def nf(self, vec):
        return kernel.nf_vec(kernel.canon_vec(vec, self.order, self.context.p), self.gens, self.order, self.context.p)

    def contains(self, vec) -> bool:
        return not self.nf(vec)

    def contains_basis(self, other: "SubmoduleBasis") -> bool:
        return all(self.contains(g) for g in other.gens)

    def is_everything(self) -> bool:
        """Does the submodule contain every unit vector?"""
        return all(self.contains(unit_vec(self.context, j)) for j in range(self.rank))

    def _ring_rows(self):
        if self._ringrow_basis is None:
            rows = _relation_rows(self.ring_rels, self.rank)
            self._ringrow_basis = _cached_basis(
                self.context, rows, self.order, self.rank == 1, default_budget()
            )[0]
        return self._ringrow_basis

    def visible_gens(self):
        """Basis elements that are nonzero in the presented ring's
        quotient (ring-relation rows filtered out)."""
        rows = self._ring_rows()
        p = self.context.p
        out = []
        for g in self.gens:
            if kernel.nf_vec(g, rows, self.order, p):
                out.append(g)
        return tuple(out)

    def elements(self):
        return [FreeModuleElement(self.context, self.rank, g) for g in self.gens]

    def __eq__(self, other):
        return (
            isinstance(other, SubmoduleBasis)
            and self.context == other.context
            and self.rank == other.rank
            and self.order == other.order
            and self.ring_rels == other.ring_rels
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.context, self.rank, self.order, self.ring_rels, self.gens))

    def __repr__(self):
        items = ", ".join(vec_text(self.context, self.rank, g) for g in self.gens)
        return "SubmoduleBasis[rank %d: %s]" % (self.rank, items)


def submodule(
    vecs,
    context: PolyContext,
    rank: int,
    ring_rels=(),
    order=None,
    budget: Optional[Budget] = None,
) -> SubmoduleBasis:
    """Reduced basis of the span of `vecs` plus the ring-relation rows."""
    order = order if order is not None else TOP_GREVLEX.descriptor(context)
    budget = budget or default_budget()
    rows = list(vecs) + _relation_rows(ring_rels, rank)
    gb, _ = _cached_basis(context, rows, order, rank == 1, budget)
    return SubmoduleBasis(context, rank, order, ring_rels, gb)


def groebner_basis(elements: Sequence[FreeModuleElement], order: Optional[ModuleOrder] = None,
                   ring_rels=(), budget: Optional[Budget] = None) -> SubmoduleBasis:
    """Public wrapper over FreeModuleElement input."""
    if not elements:
        raise ValueError("need at least one generator (possibly zero)")
    ctx = elements[0].context
    rank = elements[0].rank
    for e in elements:
        if e.context != ctx or e.rank != rank:
            raise ValueError("generators disagree on ring or ambient rank")
    desc = (order or TOP_GREVLEX).descriptor(ctx)
    return submodule([e.vec for e in elements], ctx, rank, ring_rels, desc, budget)


def normal_form(element: FreeModuleElement, basis: SubmoduleBasis) -> FreeModuleElement:
    if element.context != basis.context or element.rank != basis.rank:
        raise ValueError("element and basis disagree on ring or rank")
    return FreeModuleElement(basis.context, basis.rank, basis.nf(element.vec), basis.order)


def _lift_prepend(vec, k):
    """Reinterpret a vec after k new variables were prepended."""
    pad = (0,) * k
    return tuple(((pad + m, pos), c) for (m, pos), c in vec)


def _strip_prefix(vec, k):
    return tuple(((m[k:], pos), c) for (m, pos), c in vec)


def _uses_prefix(vec, k):
    return any(any(m[i] for i in range(k)) for (m, pos), _ in vec)


def syzygy_project(
    main,
    aux,
    context: PolyContext,
    rank: int,
    ring_rels=(),
    order=None,
    budget: Optional[Budget] = None,
) -> SubmoduleBasis:
    """Basis of {c : sum c_i main_i lies in span(aux) + relation rows},
    a submodule of R^len(main) over the presented ring.

    The workhorse behind syzygies, colons, module quotients and the
    fiber-product kernel: syzygies of main+aux+relation rows are
    computed with an extended position-elimination order and projected
    onto the main coordinates.  Only the projected basis is cached, with
    the larger use of its two runs; the extended basis is not kept.
    """
    order = order if order is not None else TOP_GREVLEX.descriptor(context)
    budget = budget or default_budget()
    p = context.p
    main = tuple(kernel.canon_vec(v, order, p) for v in main)
    aux = tuple(kernel.canon_vec(v, order, p) for v in aux)
    ring_rels = tuple(ring_rels)
    nmain = len(main)
    key = ("syzygy", main, aux, ring_rels, rank, order)
    hit = context._cache.get(key)
    if hit is None or not _fits(hit[1], budget):
        full = list(main) + list(aux) + _relation_rows(ring_rels, rank)
        k = len(full)
        one = kernel.mono_one(context.nvars)
        ext = []
        for i, v in enumerate(full):
            ext.append(v + (((one, rank + i), context.field.one),))
        posgroup = (0,) * rank + (1,) * k
        ext_order = (order[0], order[1], posgroup)
        gb, ext_use = _buchberger(_monic_gens(ext, ext_order, p), ext_order, p, False, budget)
        projected = []
        for g in gb:
            if any(pos < rank for (_, pos), _ in g):
                continue
            proj = tuple(((m, pos - rank), c) for (m, pos), c in g if pos - rank < nmain)
            projected.append(proj)
        projected += _relation_rows(ring_rels, nmain)
        gens, use = _cached_basis(context, projected, order, nmain == 1, budget)
        hit = context._cache[key] = gens, tuple(map(max, ext_use, use))
    return SubmoduleBasis(context, nmain, order, ring_rels, hit[0])


def syzygy_basis(basis: SubmoduleBasis, budget: Optional[Budget] = None) -> SubmoduleBasis:
    """Relations among basis.gens (the reduced basis sequence, leads
    descending) over the presented ring."""
    return syzygy_project(
        basis.gens, [], basis.context, basis.rank, basis.ring_rels, basis.order, budget
    )


def submodule_intersect(b1: SubmoduleBasis, b2: SubmoduleBasis, budget: Optional[Budget] = None) -> SubmoduleBasis:
    """N1 cap N2 by the auxiliary-variable elimination construction."""
    if b1.context != b2.context or b1.rank != b2.rank or b1.ring_rels != b2.ring_rels:
        raise ValueError("intersection needs matching ring, rank and relations")
    ctx = b1.context
    budget = budget or default_budget()
    name = ctx.fresh_name("w")
    ext = ctx.prepend_vars([name])
    p = ctx.p
    one = kernel.mono_one(ext.nvars)
    u = tuple(1 if i == 0 else 0 for i in range(ext.nvars))
    ext_order = TOP_GREVLEX.descriptor(ext)
    gens = []
    for v in b1.gens:
        gens.append(kernel.scale_vec(_lift_prepend(v, 1), ctx.field.one, u, p))
    one_minus_u = kernel.canon_vec((((one, 0), ctx.field.one), ((u, 0), -ctx.field.one if p == 0 else p - 1)), ext_order, p)
    for v in b2.gens:
        gens.append(kernel.mul_vec_poly(_lift_prepend(v, 1), one_minus_u, ext_order, p))
    for row in _relation_rows(b1.ring_rels, b1.rank):
        gens.append(_lift_prepend(row, 1))
    gb, _ = _cached_basis(ctx, gens, ext_order, b1.rank == 1, budget)
    kept = [_strip_prefix(g, 1) for g in gb if not _uses_prefix(g, 1)]
    return submodule(kept, ctx, b1.rank, b1.ring_rels, b1.order, budget)


def colon_element(basis: SubmoduleBasis, m_vec, budget: Optional[Budget] = None) -> SubmoduleBasis:
    """The ideal {r : r*m in N}; the annihilator when N is the zero
    submodule (relation rows only)."""
    return syzygy_project(
        [kernel.canon_vec(m_vec, basis.order, basis.context.p)],
        basis.gens,
        basis.context,
        basis.rank,
        basis.ring_rels,
        basis.order,
        budget,
    )


def colon_module(basis: SubmoduleBasis, other: SubmoduleBasis, budget: Optional[Budget] = None) -> SubmoduleBasis:
    """The ideal (N : M) = intersection of (N : g) over M's basis."""
    if other.context != basis.context or other.rank != basis.rank:
        raise ValueError("colon needs matching ring and rank")
    out = None
    for g in other.gens:
        c = colon_element(basis, g, budget)
        out = c if out is None else submodule_intersect(out, c, budget)
    if out is None:
        raise ValueError("colon by the zero module")
    return out


def module_quotient(basis: SubmoduleBasis, f: Polynomial, budget: Optional[Budget] = None) -> SubmoduleBasis:
    """The submodule (N : f) = {v : f*v in N}."""
    if f.context != basis.context:
        raise ValueError("mixed contexts")
    if f.is_zero:
        raise ValueError("quotient by zero")
    main = []
    for j in range(basis.rank):
        main.append(tuple(((m, j), c) for (m, _), c in f.terms))
    return syzygy_project(
        main, basis.gens, basis.context, basis.rank, basis.ring_rels, basis.order, budget
    )


def saturate(basis: SubmoduleBasis, f: Polynomial, budget: Optional[Budget] = None):
    """(N : f^infinity, witness): iterated colon until the chain is
    stationary; the witness is the least e with N:f^e = N:f^{e+1}."""
    cur = basis
    e = 0
    while True:
        nxt = module_quotient(cur, f, budget)
        if nxt.gens == cur.gens:
            return cur, e
        cur = nxt
        e += 1


def saturate_rabinowitsch(basis: SubmoduleBasis, f: Polynomial, budget: Optional[Budget] = None) -> SubmoduleBasis:
    """Same saturation through u*f - 1 adjunction and elimination;
    cross-checked against the iterated-colon route in the test suite."""
    ctx = basis.context
    budget = budget or default_budget()
    p = ctx.p
    name = ctx.fresh_name("w")
    ext = ctx.prepend_vars([name])
    ext_order = TOP_GREVLEX.descriptor(ext)
    one = kernel.mono_one(ext.nvars)
    u = tuple(1 if i == 0 else 0 for i in range(ext.nvars))
    uf_minus_1 = kernel.add_vec(
        kernel.scale_vec(_lift_prepend(tuple(((m, 0), c) for (m, _), c in f.terms), 1), ctx.field.one, u, p),
        (((one, 0), -ctx.field.one if p == 0 else p - 1),),
        ext_order,
        p,
    )
    gens = [_lift_prepend(v, 1) for v in basis.gens]
    for j in range(basis.rank):
        gens.append(tuple(((m, j), c) for (m, _), c in uf_minus_1))
    gb, _ = _cached_basis(ctx, gens, ext_order, basis.rank == 1, budget)
    kept = [_strip_prefix(g, 1) for g in gb if not _uses_prefix(g, 1)]
    return submodule(kept, ctx, basis.rank, basis.ring_rels, basis.order, budget)


def eliminate(basis: SubmoduleBasis, var_names, budget: Optional[Budget] = None) -> SubmoduleBasis:
    """Contraction of N to the subring without `var_names`: recompute
    under a block order making the block greatest, keep block-free
    elements."""
    ctx = basis.context
    if not var_names:
        return basis
    budget = budget or default_budget()
    block = tuple(ctx.index(v) for v in var_names)
    rest_blocks = tuple(
        tuple(i for i in blk if i not in block) for blk in ctx.default_blocks()
    )
    blocks = (block,) + tuple(b for b in rest_blocks if b)
    elim_order = (blocks, 0, ())
    gb, _ = _cached_basis(ctx, basis.gens, elim_order, basis.rank == 1, budget)
    kept = []
    for g in gb:
        if all(all(m[i] == 0 for i in block) for (m, _), _ in g):
            kept.append(g)
    return submodule(kept, ctx, basis.rank, basis.ring_rels, basis.order, budget)


def contract_prefix(basis: SubmoduleBasis, k: int, target_rels, budget: Optional[Budget] = None) -> SubmoduleBasis:
    """Contract to the ring without the first k (adjoined inverse)
    variables; target_rels are the contracted ring's relations."""
    if k == 0:
        return basis
    ctx = basis.context
    elim = eliminate(basis, ctx.vars[:k], budget)
    target = ctx.drop_prefix(k)
    # ring rows of the extended ring may carry the adjoined variables;
    # only block-free elements survive the contraction
    free = [
        g for g in elim.gens
        if all(all(m[i] == 0 for i in range(k)) for (m, _), _ in g)
    ]
    stripped = [_strip_prefix(g, k) for g in free]
    return submodule(stripped or [()], target, basis.rank, target_rels, None, budget)
