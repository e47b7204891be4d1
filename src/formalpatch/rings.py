"""Presented rings: one `Ring` type for the base ring B = k[x..., t]/J,
its truncations B/(t^i) and its basic-open localizations; declared
component-prime data, prime avoidance, generator repair, symbolic
powers, and the leading-term dimension counts used by the cover checks.

Primality of declared primes is an instance attribute, not something
this layer proves; everything certifiable (t-membership, separator
conditions, non-containment, t-regularity, nilpotency degree) is
checked at construction time.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from typing import Optional, Sequence

from formalpatch.engine import (
    SubmoduleBasis,
    _lift_prepend,
    contract_prefix,
    leads_coprime,
    module_quotient,
    saturate,
    submodule,
    vec_of_polys,
)
from formalpatch.poly import PolyContext, Polynomial, canonical_text, parse_poly


class RingError(ValueError):
    """A ring, prime-data or localization invariant failed to certify."""


def _ideal(polys, context, rels=(), order=None):
    vecs = [vec_of_polys([q]) for q in polys] or [()]
    return submodule(vecs, context, 1, ring_rels=rels, order=order)


class Ring:
    """A presented ring, in one of three forms:

    - the base ring B = k[vars, t]/J with t certified regular mod J and
      J proper (`under` None, `level` None);
    - the truncation B/(t^i), t nilpotent of order exactly i, certified
      (`under` B, `level` i);
    - the basic-open localization R[f^{-1}] presented by an adjoined
      inverse u with u*f = 1 (`under` R, `level` R's, `inverted`
      ((f, u),)).  The adjoined variable is the greatest; eliminating
      it contracts extended ideals back to the under ring.

    Build rings only through make_base_ring, truncate and localize.
    """

    __slots__ = ("context", "rels", "level", "under", "inverted")

    def __init__(self, context: PolyContext, rels: SubmoduleBasis, level=None, under=None,
                 inverted=()):
        self.context = context
        self.rels = rels
        self.level = level
        self.under = under
        self.inverted = inverted

    @property
    def rels_vecs(self):
        return self.rels.gens

    @property
    def trivial(self) -> bool:
        """Is this a localization at 1?"""
        return any(f == Polynomial.one(f.context) for f, _ in self.inverted)

    def t(self) -> Polynomial:
        return Polynomial.var(self.context, self.context.tvar)

    def ideal(self, polys) -> SubmoduleBasis:
        return _ideal(polys, self.context, self.rels_vecs)

    def lift_vec(self, vec):
        return _lift_prepend(vec, self.context.ninv - self.under.context.ninv)

    def contract(self, basis: SubmoduleBasis, target_rels=None) -> SubmoduleBasis:
        """Contract a submodule over this localization down to the under ring."""
        k = self.context.ninv - self.under.context.ninv
        rels = self.under.rels_vecs if target_rels is None else target_rels
        return contract_prefix(basis, k, rels)

    def describe(self) -> str:
        if self.inverted:
            fs = ", ".join(canonical_text(f) for f, _ in self.inverted)
            return "%s[(%s)^-1]" % (self.under.describe(), fs)
        if self.under is not None:
            return "%s mod t^%d" % (self.under.describe(), self.level)
        rels = ", ".join(
            canonical_text(Polynomial(self.context, g)) for g in self.rels.visible_gens()
        )
        return "k[%s]%s" % (", ".join(self.context.vars), " / (%s)" % rels if rels else "")

    def _key(self):
        return (self.under, self.level, self.context, self.rels.gens)

    def __eq__(self, other):
        return isinstance(other, Ring) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def make_base_ring(field, varnames: Sequence[str], relation_texts: Sequence[str], tname: str) -> Ring:
    if tname not in varnames:
        raise RingError("distinguished variable %r is not among the ring variables" % tname)
    context = PolyContext(field, varnames, tvar=tname)
    rels = [parse_poly(s, context) for s in relation_texts]
    J = _ideal(rels, context)
    one = vec_of_polys([Polynomial.one(context)])
    if J.contains(one):
        raise RingError("defining relations generate the unit ideal")
    t = Polynomial.var(context, tname)
    # t's one term is its lead; leads coprime to it prove (J : t) = J
    colon = J if leads_coprime(J, t.terms[0][0][0]) else module_quotient(J, t)
    if colon.gens != J.gens:
        for g in colon.gens:
            if not J.contains(g):
                witness = canonical_text(Polynomial(context, g))
                raise RingError(
                    "t is a zero-divisor mod J: (J : t) contains %s outside J" % witness
                )
    return Ring(context, J)


def truncate(B: Ring, i: int) -> Ring:
    if i < 1:
        raise RingError("truncation level must be at least 1, got %d" % i)
    t = B.t()
    rels = _ideal([Polynomial(B.context, g) for g in B.rels_vecs] + [t**i], B.context)
    probe = vec_of_polys([t ** (i - 1)])
    if rels.contains(probe):
        raise RingError("degenerate truncation: t^%d already vanishes at level %d" % (i - 1, i))
    return Ring(B.context, rels, i, B)


def localize(R: Ring, f: Polynomial, pd: Optional["PrimeData"] = None) -> Ring:
    if f.is_zero:
        raise RingError("cannot invert zero")
    if pd is not None:
        for j in range(pd.count):
            if pd.in_prime(j, f, R):
                raise RingError(
                    "density failure: %s lies in component prime %d" % (canonical_text(f), j + 1)
                )
    uname = R.context.fresh_name("u")
    context = R.context.prepend_vars([uname])
    u = Polynomial.var(context, uname)
    flift = f.rename_into(context)
    rel_polys = [Polynomial(context, _lift_prepend(g, 1)) for g in R.rels_vecs]
    rels = _ideal(rel_polys + [u * flift - 1], context)
    return Ring(context, rels, R.level, R, ((f, uname),))


class PrimeData:
    """Declared minimal primes over (t) with separators; certifiable
    side conditions checked in validate_prime_data."""

    __slots__ = ("ring", "prime_gens", "separators", "intersection_gens", "_bases")

    def __init__(self, ring, prime_gens, separators, intersection_gens=()):
        self.ring = ring
        self.prime_gens = tuple(tuple(g) for g in prime_gens)
        self.separators = tuple(separators)
        self.intersection_gens = tuple(tuple(g) for g in intersection_gens)
        self._bases = {}

    @property
    def count(self) -> int:
        return len(self.prime_gens)

    def prime_basis(self, j: int, ringlike=None) -> SubmoduleBasis:
        R = ringlike if ringlike is not None else self.ring
        key = (j, R.context, R.rels_vecs)
        if key not in self._bases:
            gens = [g.rename_into(R.context) for g in self.prime_gens[j]]
            self._bases[key] = _ideal(gens, R.context, R.rels_vecs)
        return self._bases[key]

    def in_prime(self, j: int, q: Polynomial, ringlike=None) -> bool:
        R = ringlike if ringlike is not None else self.ring
        lifted = q.rename_into(R.context)
        return self.prime_basis(j, R).contains(vec_of_polys([lifted]))

    def outside_every_prime(self, q: Polynomial, ringlike=None) -> bool:
        return all(not self.in_prime(j, q, ringlike) for j in range(self.count))

    def blockers(self, q: Polynomial, ringlike=None):
        return [j for j in range(self.count) if self.in_prime(j, q, ringlike)]


def validate_prime_data(
    B: Ring,
    primes: Sequence[Sequence[Polynomial]],
    separators: Sequence[Polynomial],
    intersections: Sequence[Sequence[Polynomial]] = (),
) -> PrimeData:
    s = len(primes)
    if s == 0:
        raise RingError("at least one component prime is required")
    if len(separators) != s:
        raise RingError("need exactly one separator per prime (%d primes, %d separators)" % (s, len(separators)))
    pd = PrimeData(B, primes, separators, intersections)
    t = B.t()
    for j in range(s):
        if not pd.in_prime(j, t):
            raise RingError("prime %d does not contain t" % (j + 1))
    for j in range(s):
        for k in range(s):
            if j == k:
                continue
            if all(pd.in_prime(k, g) for g in pd.prime_gens[j]):
                raise RingError(
                    "minimality violated: prime %d is contained in prime %d" % (j + 1, k + 1)
                )
    for j in range(s):
        rho = separators[j]
        if pd.in_prime(j, rho):
            raise RingError(
                "separator %d (%s) lies in its own prime" % (j + 1, canonical_text(rho))
            )
        for k in range(s):
            if k != j and not pd.in_prime(k, rho):
                raise RingError(
                    "separator %d (%s) misses prime %d" % (j + 1, canonical_text(rho), k + 1)
                )
    return pd


def prime_avoidance_pick(J: SubmoduleBasis, pd: PrimeData, pool: Sequence[Polynomial], ringlike=None) -> Polynomial:
    """First pool element, then first k-linear combination of pool
    pairs, lying in J and outside every component prime.  Deterministic
    scan; failure reports what blocked each candidate."""
    if not pool:
        raise RingError("prime avoidance: empty candidate pool")
    ctx = J.context
    p = ctx.p
    scalars_limit = len(pool) + 1 if p == 0 else min(p - 1, len(pool) + 1)
    candidates = list(pool)
    for i, jdx in combinations(range(len(pool)), 2):
        for c in range(1, scalars_limit + 1):
            candidates.append(pool[i] + pool[jdx] * ctx.field.of_int(c))
    failures = []
    for cand in candidates:
        lifted = cand.rename_into(ctx)
        if not J.contains(vec_of_polys([lifted])):
            failures.append("%s: not in the ideal" % canonical_text(cand))
            continue
        blocked = pd.blockers(cand, ringlike) if ringlike is not None else pd.blockers(cand)
        if blocked:
            failures.append(
                "%s: inside prime(s) %s" % (canonical_text(cand), ", ".join(str(b + 1) for b in blocked))
            )
            continue
        return cand
    raise RingError("prime avoidance exhausted the pool; " + "; ".join(failures))


def regenerate_generators(J_i: SubmoduleBasis, pd: PrimeData, ringlike) -> list:
    """Generators of the same ideal, each outside every component
    prime: a picked r0 repairs any generator stuck inside some primes
    by adding r0 times the sum of their separators."""
    visible = J_i.visible_gens()
    gens = [Polynomial(J_i.context, g) for g in visible]
    if not gens:
        return []
    r0 = prime_avoidance_pick(J_i, pd, gens, ringlike)
    out = [r0]
    for s_h in gens:
        stuck = pd.blockers(s_h, ringlike)
        if not stuck:
            r_h = s_h
        else:
            bump = Polynomial.zero(J_i.context)
            for j in stuck:
                bump = bump + pd.separators[j].rename_into(J_i.context)
            r_h = s_h + r0 * bump
        if r_h not in out:
            out.append(r_h)
    for r in out:
        blocked = pd.blockers(r, ringlike)
        if blocked:
            raise RingError(
                "regeneration failed: %s still lies in prime(s) %s"
                % (canonical_text(r), ", ".join(str(b + 1) for b in blocked))
            )
    regenerated = _ideal([g for g in out], J_i.context, tuple(ringlike.rels_vecs))
    if regenerated.gens != J_i.gens:
        raise RingError("regeneration changed the ideal (internal error)")
    return out


def symbolic_power(pd: PrimeData, j: int, n: int, separator: Optional[Polynomial] = None):
    """(P^n : s^infinity) with its witness exponent.  Correct symbolic
    power whenever s clears every embedded component of P^n; the
    default separator does for the bundled instance families."""
    if n < 1:
        raise RingError("symbolic power needs n >= 1")
    s = separator if separator is not None else pd.separators[j]
    if pd.in_prime(j, s):
        raise RingError("separator %s lies in the prime itself" % canonical_text(s))
    Pn = pd.ring.ideal(ideal_power_gens(pd.prime_gens[j], n))
    return saturate(Pn, s)


def ideal_power_gens(gens: Sequence[Polynomial], n: int) -> list:
    """Generators of (gens)^n: the product of each multiset of n
    generators, taken once, in combinations_with_replacement order;
    C(n + k - 1, n) products for k generators."""
    power = []
    for factors in combinations_with_replacement(gens, n):
        product = factors[0]
        for f in factors[1:]:
            product = product * f
        power.append(product)
    return power


def lt_ideal_dimension(basis: SubmoduleBasis) -> int:
    """Krull dimension of context/ideal via maximal independent
    variable sets of the leading-term ideal (grevlex basis expected).
    Returns -1 for the unit ideal."""
    ctx = basis.context
    one = vec_of_polys([Polynomial.one(ctx)])
    if basis.contains(one):
        return -1
    nv = ctx.nvars
    if nv > 16:
        raise RingError("dimension count limited to 16 variables")
    leads = []
    for g in basis.gens:
        (m, _), _ = g[0]
        leads.append(tuple(i for i in range(nv) if m[i]))
    best = 0
    for mask in range(1 << nv):
        size = bin(mask).count("1")
        if size <= best:
            continue
        members = {i for i in range(nv) if mask >> i & 1}
        if all(not set(sup) <= members for sup in leads):
            best = size
    return best


def fiber_codimension(pd: PrimeData, j: int, extra: Sequence[Polynomial]):
    """Codimension of V(extra + t) inside the component V(P_j);
    None encodes an empty intersection (infinite codimension)."""
    B = pd.ring
    Pj = pd.prime_basis(j)
    d1 = lt_ideal_dimension(Pj)
    cut = B.ideal(
        [Polynomial(B.context, g) for g in Pj.gens]
        + [e.rename_into(B.context) for e in extra]
        + [B.t()]
    )
    d2 = lt_ideal_dimension(cut)
    if d2 < 0:
        return None
    return d1 - d2
