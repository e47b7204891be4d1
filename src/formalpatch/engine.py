"""Reduced Groebner bases and derived module operations over presented
rings.

A SubmoduleBasis is the universal carrier: a reduced basis of a
submodule of a free module R^rank, where R is a polynomial ring modulo
declared ring relations.  Quotient rings are handled by appending the
relation rows (relation times each unit vector) to every computation;
there is no separate quotient arithmetic.

Module elements are always the kernel's flat vecs (see
formalpatch.kernel for the format); vec_of_polys, vec_coords and
vec_text convert them to and from Polynomials.  The default order is
the context's own, ctx.order0.

Groebner bases come from one sugar-strategy Buchberger (_buchberger)
that keeps its pair queue with the update of Gebauer and Moeller (1988):
as each element joins the basis, criteria M and F, the product criterion
(ideal case only) and criterion B_k drop pairs whose S-vectors would
reduce to zero, and older elements whose lead the new one divides form
no further pairs.  Only the pairs that survive are reduced and counted.
A run may start from a reduced basis it extends (SubmoduleBasis.extend,
and syzygy_project, whose aux is always a SubmoduleBasis); that basis
forms no pairs of its own.

Every Groebner run goes through the basis cache of its PolyContext
(shared by the contexts derived with prepend_vars / drop_prefix), so a
basis is computed once per ring family.  The budget has one source,
Budget.from_env (FORMALPATCH_BUDGET), read where a run starts or a
cached run is replayed.  Entries record the budget their run used
(largest S-pair lcm degree, pairs reduced); a hit whose use exceeds the
budget in force is rerun, so it raises exactly the BudgetError an
uncached run would.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
from typing import Sequence

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

    def admits(self, use) -> bool:
        """Does a run that used `use` (largest S-pair lcm degree, pairs
        reduced) fit this budget?"""
        return use[0] <= self.maxdeg and use[1] <= self.maxpairs


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


def vec_of_polys(coords: Sequence[Polynomial]):
    vec = []
    for pos, c in enumerate(coords):
        vec.extend(((m, pos), co) for (m, _), co in c.terms)
    return tuple(vec)


def unit_vec(ctx: PolyContext, k: int):
    """The k-th unit vector of a free module over ctx."""
    return (((kernel.mono_one(ctx.nvars), k), ctx.field.one),)


def vec_coords(ctx: PolyContext, rank: int, vec) -> list:
    """The rank coordinates of a vec, as Polynomials over ctx."""
    coords = [[] for _ in range(rank)]
    for (m, pos), c in vec:
        coords[pos].append(((m, 0), c))
    return [Polynomial(ctx, terms) for terms in coords]


def vec_text(ctx: PolyContext, rank: int, vec) -> str:
    coords = vec_coords(ctx, rank, vec)
    if rank == 1:
        return canonical_text(coords[0])
    return "(" + ", ".join(canonical_text(c) for c in coords) + ")"


def diagonal_rows(polys, rank):
    """Each rank-1 vec of `polys` times each unit vector of R^rank, in
    that order: the relation rows of a presented ring's relations, or
    the rows f*e_j of a single f."""
    rows = []
    for f in polys:
        for j in range(rank):
            rows.append(tuple(((m, j), c) for (m, _), c in f))
    return rows


def _monic_gens(gens, order, p):
    """Canonical, monic forms of the nonzero `gens`, in input order."""
    out = []
    for g in gens:
        v = kernel.canon_vec(g, order, p)
        if v:
            out.append(kernel.monic_vec(v, p))
    return tuple(out)


def _buchberger(gens, order, p, rank1, budget, known=0):
    """Sugar-strategy Buchberger over canonical monic nonzero `gens`
    (_monic_gens), with the pair update of Gebauer and Moeller applied
    as each element t (input or new) joins G:

    - criteria M and F: a new pair (i, t) is dropped when another new
      pair's lcm divides its lcm; of equal lcms one pair is kept;
    - product criterion (ideal case only): a new pair with coprime leads
      still eliminates others by M, then is dropped itself;
    - criterion B_k: a queued pair (i, j) is dropped when lead(t) divides
      its lcm and differs from both lcm(i, t) and lcm(j, t);
    - elements whose lead lead(t) divides form no further pairs; they
      stay in G for reduction.

    Dropped pairs leave the sugar heap lazily: `live` holds the queued
    pairs that are still wanted.

    The first `known` gens must be a reduced Groebner basis under
    `order`: they join G without pairs among themselves, whose
    S-vectors reduce to zero against them.

    The run works on packed terms (kernel.Layout): G's elements are
    packed vecs, also held by one kernel.Reducer that grows with G, and
    leads and lcms are packed exponents.  Each queued pair keeps its
    packed lcm term, the heap's tie-break and the S-vector's scale
    alike.  Only the result is unpacked.

    Returns (basis, use): the unique reduced basis, leads descending,
    monic; and (largest S-pair lcm degree, pairs reduced), both over the
    pairs that survive the update, the least budget under which this
    run completes."""
    if not gens:
        return (), (0, 0)
    lay = kernel.layout(order, len(gens[0][0][0][0]))
    R = kernel.Reducer(lay, p)
    G = []
    leads = []  # packed exponents of each G[k]'s lead
    lpos = []  # position of each G[k]'s lead
    keys = []  # sort key of each lead, ascending as term_sortkey
    degs = []  # degree of each lead
    sugar = []
    heap = []
    live = {}  # position -> {queued pair (i, j): its lcm's exponents}
    active = {}  # position -> elements that still form pairs
    counter = 0
    topdeg = 0
    emask, guards = lay.emask, lay.guards
    lcm, deg = lay.lcm, lay.deg

    def add(g, s):
        G.append(g)
        R.append(g)
        t = g[0][0]
        leads.append(t & emask)
        lpos.append(lay.pos(t))
        keys.append(lay.sortkey(t))
        degs.append(deg(t & emask))
        sugar.append(s)

    def vec_sugar(g):
        return max(deg(t & emask) for t, _ in g)

    def update(t):
        mt, pt = leads[t], lpos[t]
        queued = live.setdefault(pt, {})
        for (i, j), l in list(queued.items()):
            if not (l - mt) & guards and lcm(leads[i], mt) != l and lcm(leads[j], mt) != l:
                del queued[i, j]
        act = active.setdefault(pt, [])
        new = []
        for i in act:
            mi = leads[i]
            l = lcm(mi, mt)
            new.append((i, l, rank1 and mi + mt == l))
        lcms = [l for _, l, _ in new]
        kept_lcms = []  # of the new pairs kept so far, coprime ones included
        for k, (i, l, coprime) in enumerate(new):
            if not coprime and (
                any(not (l - l2) & guards for l2 in kept_lcms)
                or any(not (l - l2) & guards for l2 in lcms[k + 1:])
            ):
                continue
            kept_lcms.append(l)
            if coprime:
                continue
            dl = deg(l)
            s = max(sugar[i] + dl - degs[i], sugar[t] + dl - degs[t])
            queued[i, t] = l
            lt = lay.term(l, pt)
            heapq.heappush(heap, (s, lay.sortkey(lt), i, t, lt))
        act[:] = [i for i in act if (leads[i] - mt) & guards]
        act.append(t)

    for g in gens[:known]:
        g = lay.pack_vec(g)
        add(g, vec_sugar(g))
        active.setdefault(lpos[-1], []).append(len(G) - 1)
    for g in gens[known:]:
        g = lay.pack_vec(g)
        add(g, vec_sugar(g))
        update(len(G) - 1)

    while heap:
        s, _, i, j, lt = heapq.heappop(heap)
        l = live[lpos[i]].pop((i, j), None)
        if l is None:
            continue
        ldeg = deg(l)
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
        sp = kernel.spair_vec(G[i], G[j], lay, p, lt)
        h = kernel.nf_vec(sp, R, lay, p)
        if h:
            add(kernel.monic_vec(h, p), max(s, vec_sugar(h)))
            update(len(G) - 1)

    # minimalize: keep only leads not divisible by another kept lead
    kept = []
    for k in sorted(range(len(G)), key=keys.__getitem__):
        if not any(lpos[h] == lpos[k] and not (leads[k] - leads[h]) & guards for h in kept):
            kept.append(k)
    kept.sort(key=keys.__getitem__, reverse=True)
    # interreduce tails against the kept elements, each tail as soon as
    # it is reduced; an element's own lead divides none of the terms its
    # tail reduction meets, which are all below that lead
    R = R.subset(kept)
    reduced = []
    for idx, k in enumerate(kept):
        tail = G[k][1:]
        new = kernel.nf_vec(tail, R, lay, p)
        if new is tail and k < len(gens):
            reduced.append(gens[k])
            continue
        g = (G[k][0],) + new
        R.replace(idx, g)
        reduced.append(lay.unpack_vec(g))
    return tuple(reduced), (topdeg, counter)


def _cached_basis(context, gens, order, rank1, known=0):
    """(basis, use) of `gens` through the context's basis cache; the
    first `known` gens are a reduced basis (see _buchberger), taken as
    they are.  The key is the ordered canonical input, so a rerun
    replays the same pairs."""
    gens = tuple(gens)
    key = (gens[:known] + _monic_gens(gens[known:], order, context.p), order, rank1, known)
    budget = Budget.from_env()
    hit = context._cache.get(key)
    if hit is None or not budget.admits(hit[1]):
        hit = context._cache[key] = _buchberger(key[0], order, context.p, rank1, budget, known)
    return hit


class SubmoduleBasis:
    """Reduced basis of a submodule of R^rank over a presented ring.

    `gens` is the combined reduced Groebner basis (declared generators
    together with the ring-relation rows, interreduced); `ring_rels` is
    the relation ideal of the presented ring as rank-1 vecs.
    """

    __slots__ = ("context", "rank", "order", "ring_rels", "gens", "_reducer", "_ringrow_reducer")

    def __init__(self, context, rank, order, ring_rels, gens):
        self.context = context
        self.rank = rank
        self.order = order
        self.ring_rels = tuple(ring_rels)
        self.gens = tuple(gens)
        self._reducer = None
        self._ringrow_reducer = None

    def reducer(self):
        """The kernel.Reducer of gens, built on first use and kept for
        the life of this basis."""
        if self._reducer is None:
            lay = kernel.layout(self.order, self.context.nvars)
            self._reducer = kernel.Reducer(lay, self.context.p, [lay.pack_vec(g) for g in self.gens])
        return self._reducer

    def nf(self, vec):
        p = self.context.p
        return kernel.nf_vec(kernel.canon_vec(vec, self.order, p), self.reducer(), self.order, p)

    def contains(self, vec) -> bool:
        R = self.reducer()
        p = self.context.p
        return not kernel.nf_vec(R.layout.canon(vec, p), R, R.layout, p, first=True)

    def extend(self, vecs) -> "SubmoduleBasis":
        """The submodule plus the span of `vecs`, over the same ring and
        order; this basis seeds the Groebner run, so only pairs with the
        new vectors and what they produce are reduced."""
        gens, _ = _cached_basis(
            self.context, self.gens + tuple(vecs), self.order, self.rank == 1, len(self.gens)
        )
        return SubmoduleBasis(self.context, self.rank, self.order, self.ring_rels, gens)

    def zero(self) -> "SubmoduleBasis":
        """The zero submodule over the same ring, rank and order: the
        reduced basis of the relation rows alone."""
        rows = diagonal_rows(self.ring_rels, self.rank)
        gens = _cached_basis(self.context, rows, self.order, self.rank == 1)[0]
        return SubmoduleBasis(self.context, self.rank, self.order, self.ring_rels, gens)

    def contains_basis(self, other: "SubmoduleBasis") -> bool:
        return all(self.contains(g) for g in other.gens)

    def is_everything(self) -> bool:
        """Does the submodule contain every unit vector?"""
        return all(self.contains(unit_vec(self.context, j)) for j in range(self.rank))

    def _ring_rows(self):
        if self._ringrow_reducer is None:
            self._ringrow_reducer = self.zero().reducer()
        return self._ringrow_reducer

    def visible_gens(self):
        """Basis elements that are nonzero in the presented ring's
        quotient (ring-relation rows filtered out)."""
        R = self._ring_rows()
        p = self.context.p
        out = []
        for g in self.gens:
            if kernel.nf_vec(R.layout.pack_vec(g), R, R.layout, p, first=True):
                out.append(g)
        return tuple(out)

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


def submodule(vecs, context: PolyContext, rank: int, ring_rels=(), order=None) -> SubmoduleBasis:
    """Reduced basis of the span of `vecs` plus the ring-relation rows,
    under `order` (default context.order0)."""
    order = order if order is not None else context.order0
    rows = list(vecs) + diagonal_rows(ring_rels, rank)
    gb, _ = _cached_basis(context, rows, order, rank == 1)
    return SubmoduleBasis(context, rank, order, ring_rels, gb)


def _lift_prepend(vec, k):
    """Reinterpret a vec after k new variables were prepended."""
    pad = (0,) * k
    return tuple(((pad + m, pos), c) for (m, pos), c in vec)


def _strip_prefix(vec, k):
    return tuple(((m[k:], pos), c) for (m, pos), c in vec)


def _uses_vars(vec, indices):
    """Does some term of vec carry a variable of `indices`?"""
    return any(m[i] for (m, _), _ in vec for i in indices)


def syzygy_project(main, aux: SubmoduleBasis) -> SubmoduleBasis:
    """Basis of {c : sum c_i main_i lies in aux}, a submodule of
    R^len(main) over aux's presented ring, under aux's order.

    The workhorse behind syzygies, colons, module quotients and the
    fiber-product kernel.  Each main_i is tagged with a unit vector in
    a new coordinate; a basis of the tagged main vectors and aux under
    a position-elimination order (the rank coordinates above the tags)
    has, among its elements, a basis of the wanted submodule: those
    with no term outside the tags.  When the order groups no positions,
    aux's basis seeds the run (see _buchberger) and those elements are
    already the reduced basis under aux's order; otherwise the run
    starts afresh and they are reduced once more.  aux's span holds the
    relation rows, so the result's does too.  Only the projected basis
    is cached, with the larger use of its runs; the extended basis is
    not kept.
    """
    context, rank, order, ring_rels = aux.context, aux.rank, aux.order, aux.ring_rels
    p = context.p
    main = tuple(kernel.canon_vec(v, order, p) for v in main)
    nmain = len(main)
    key = ("syzygy", main, aux.gens, ring_rels, rank, order)
    budget = Budget.from_env()
    hit = context._cache.get(key)
    if hit is None or not budget.admits(hit[1]):
        one = kernel.mono_one(context.nvars)
        tagged = [v + (((one, rank + i), context.field.one),) for i, v in enumerate(main)]
        posgroup = (0,) * rank + (1,) * nmain
        ext_order = (order[0], order[1], posgroup)
        # aux is a reduced basis under ext_order too when order groups
        # no positions, for then the two agree on the rank coordinates
        if not order[2]:
            seed = aux.gens
            gens = seed + _monic_gens(tagged, ext_order, p)
        else:
            seed = ()
            gens = _monic_gens(tagged + list(aux.gens), ext_order, p)
        gb, use = _buchberger(gens, ext_order, p, False, budget, len(seed))
        projected = tuple(
            tuple(((m, pos - rank), c) for (m, pos), c in g) for g in gb if g[0][0][1] >= rank
        )
        if order[2]:
            projected, use2 = _cached_basis(context, projected, order, nmain == 1)
            use = tuple(map(max, use, use2))
        hit = context._cache[key] = projected, use
    return SubmoduleBasis(context, nmain, order, ring_rels, hit[0])


def syzygy_basis(basis: SubmoduleBasis) -> SubmoduleBasis:
    """Relations among basis.gens (the reduced basis sequence, leads
    descending) over the presented ring."""
    return syzygy_project(basis.gens, basis.zero())


def _aux_elimination_order(ctx):
    """Order on ctx's variables with one auxiliary variable prepended
    at index 0: the auxiliary variable alone as the greatest block, then
    ctx's default blocks shifted by one.  (ctx.prepend_vars would put it
    into the inverse block, whose default order does not eliminate it
    once ctx has adjoined inverses.)"""
    blocks = tuple(tuple(i + 1 for i in blk) for blk in ctx.default_blocks())
    return (((0,),) + blocks, 0, ())


def _aux_contraction(gb, like):
    """The elements of a reduced basis `gb` under _aux_elimination_order
    that are free of the auxiliary variable, stripped of it, as a basis
    over like's ring, rank and order.  They are that reduced basis
    already when like's order is the default one, which the elimination
    order restricts to."""
    ctx = like.context
    kept = tuple(_strip_prefix(g, 1) for g in gb if not _uses_vars(g, (0,)))
    if like.order == ctx.order0:
        return SubmoduleBasis(ctx, like.rank, like.order, like.ring_rels, kept)
    return submodule(kept, ctx, like.rank, like.ring_rels, like.order)


def submodule_intersect(b1: SubmoduleBasis, b2: SubmoduleBasis) -> SubmoduleBasis:
    """N1 cap N2 by the auxiliary-variable elimination construction."""
    if b1.context != b2.context or b1.rank != b2.rank or b1.ring_rels != b2.ring_rels:
        raise ValueError("intersection needs matching ring, rank and relations")
    ctx = b1.context
    p = ctx.p
    one = kernel.mono_one(ctx.nvars + 1)
    u = (1,) + (0,) * ctx.nvars
    ext_order = _aux_elimination_order(ctx)
    gens = [kernel.scale_vec(_lift_prepend(v, 1), ctx.field.one, u, p) for v in b1.gens]
    one_minus_u = kernel.canon_vec((((one, 0), ctx.field.one), ((u, 0), -ctx.field.one if p == 0 else p - 1)), ext_order, p)
    gens += [kernel.mul_vec_poly(_lift_prepend(v, 1), one_minus_u, ext_order, p) for v in b2.gens]
    gens += [_lift_prepend(row, 1) for row in diagonal_rows(b1.ring_rels, b1.rank)]
    gb, _ = _cached_basis(ctx, gens, ext_order, b1.rank == 1)
    return _aux_contraction(gb, b1)


def colon_element(basis: SubmoduleBasis, m_vec) -> SubmoduleBasis:
    """The ideal {r : r*m in N}; the annihilator when N is the zero
    submodule (relation rows only)."""
    return syzygy_project([m_vec], basis)


def colon_module(basis: SubmoduleBasis, other: SubmoduleBasis) -> SubmoduleBasis:
    """The ideal (N : M) = intersection of (N : g) over M's basis."""
    if other.context != basis.context or other.rank != basis.rank:
        raise ValueError("colon needs matching ring and rank")
    out = None
    for g in other.gens:
        c = colon_element(basis, g)
        out = c if out is None else submodule_intersect(out, c)
    if out is None:
        raise ValueError("colon by the zero module")
    return out


def module_quotient(basis: SubmoduleBasis, f: Polynomial) -> SubmoduleBasis:
    """The submodule (N : f) = {v : f*v in N}."""
    if f.context != basis.context:
        raise ValueError("mixed contexts")
    if f.is_zero:
        raise ValueError("quotient by zero")
    return syzygy_project(diagonal_rows([f.terms], basis.rank), basis)


def leads_coprime(basis: SubmoduleBasis, lead) -> bool:
    """Is the monomial `lead` coprime to the lead monomial of every
    element of basis.gens?  Then every f whose lead monomial under
    basis.order is `lead` is a nonzerodivisor on F/N, so N : f = N
    (Eisenbud, Commutative Algebra, section 15): if f*v lies in N for a
    nonzero v in normal form, then in(f)*in(v) = in(f*v) lies in in(N),
    as every module order here (TOP, POT, position-grouped) is
    compatible with multiplication by monomials, so some lead divides
    in(f)*in(v), hence in(v), which a normal form rules out.  N's
    relation rows are among basis.gens, so the answer holds over the
    presented ring.  A False answer proves nothing."""
    support = [i for i, a in enumerate(lead) if a]
    return not any(g[0][0][0][i] for g in basis.gens for i in support)


def saturate(basis: SubmoduleBasis, f: Polynomial):
    """(N : f^infinity, witness): iterated colon until the chain is
    stationary; the witness is the least e with N:f^e = N:f^{e+1}.

    Before each colon the lead-term certificate (leads_coprime) is
    tried on the current basis; when it holds, the colon would equal
    that basis, so the chain stops without computing it.  Basis and
    witness are those of the plain chain; a skipped colon cannot raise
    BudgetError."""
    if f.context != basis.context:
        raise ValueError("mixed contexts")
    if f.is_zero:
        raise ValueError("quotient by zero")
    lead = kernel.canon_vec(f.terms, basis.order, basis.context.p)[0][0][0]
    cur = basis
    e = 0
    while not leads_coprime(cur, lead):
        nxt = module_quotient(cur, f)
        if nxt.gens == cur.gens:
            break
        cur = nxt
        e += 1
    return cur, e


def saturate_rabinowitsch(basis: SubmoduleBasis, f: Polynomial) -> SubmoduleBasis:
    """Same saturation through u*f - 1 adjunction and elimination;
    cross-checked against the iterated-colon route in the test suite."""
    ctx = basis.context
    p = ctx.p
    ext_order = _aux_elimination_order(ctx)
    one = kernel.mono_one(ctx.nvars + 1)
    u = (1,) + (0,) * ctx.nvars
    uf_minus_1 = kernel.add_vec(
        kernel.scale_vec(_lift_prepend(f.terms, 1), ctx.field.one, u, p),
        (((one, 0), -ctx.field.one if p == 0 else p - 1),),
        ext_order,
        p,
    )
    gens = [_lift_prepend(v, 1) for v in basis.gens] + diagonal_rows([uf_minus_1], basis.rank)
    gb, _ = _cached_basis(ctx, gens, ext_order, basis.rank == 1)
    return _aux_contraction(gb, basis)


def eliminate(basis: SubmoduleBasis, var_names) -> SubmoduleBasis:
    """Contraction of N to the subring without `var_names`: recompute
    under a block order making the block greatest, keep block-free
    elements."""
    ctx = basis.context
    if not var_names:
        return basis
    block = tuple(ctx.index(v) for v in var_names)
    rest_blocks = tuple(
        tuple(i for i in blk if i not in block) for blk in ctx.default_blocks()
    )
    blocks = (block,) + tuple(b for b in rest_blocks if b)
    elim_order = (blocks, 0, ())
    gb, _ = _cached_basis(ctx, basis.gens, elim_order, basis.rank == 1)
    kept = [g for g in gb if not _uses_vars(g, block)]
    return submodule(kept, ctx, basis.rank, basis.ring_rels, basis.order)


def contract_prefix(basis: SubmoduleBasis, k: int, target_rels) -> SubmoduleBasis:
    """Contract to the ring without the first k (adjoined inverse)
    variables; target_rels are the contracted ring's relations."""
    if k == 0:
        return basis
    ctx = basis.context
    elim = eliminate(basis, ctx.vars[:k])
    target = ctx.drop_prefix(k)
    # ring rows of the extended ring may carry the adjoined variables;
    # only block-free elements survive the contraction
    stripped = [_strip_prefix(g, k) for g in elim.gens if not _uses_vars(g, range(k))]
    return submodule(stripped or [()], target, basis.rank, target_rels)
