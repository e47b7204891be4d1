"""The benchmark's three workloads: their op lists, input generators and
output checks.

A pass is a fixed list of ops.  An op runs one call into formalpatch and
returns its result; `check` compares that result with what it must be.
Nothing here is timed: `run.py` times the ops and calls the checks
outside the timed region.

- repro-suite       the six `repro` ids through `repro.run_repro`.
- depth-sweep       `cli.main` in process on solve / tower-verify at
                    raised depths, stdout captured.
- engine-random-fp  seeded random submodules over F_32003 through the
                    public engine API, fresh inputs in every pass.

For the bundled workloads the seed only permutes the op order of each
pass; reports are compared by SHA-256 with goldens recorded at the
commit that introduced the benchmark.  For engine-random-fp the seed
draws every coefficient, so no input repeats within or across passes;
results are compared with recorded digests where the (seed, pass) has
them, and every result is certified by identities that hold for any
seed (see `EngineProblem.certify`).
"""

import contextlib
import hashlib
import io
import json
import os
import random

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")

REPRO_ORDER = (
    "a2-ideal-xy",
    "xm-tn",
    "a1-partial-fractions",
    "two-planes",
    "a1-symbolic",
    "flat-free-a2",
)

DEPTH_SWEEP = (
    ("solve", "a2-ideal-xy", "--depth", "12"),
    ("solve", "a1-partial-fractions", "--depth", "30"),
    ("solve", "two-planes", "--depth", "5"),
    ("tower-verify", "xm-tn", "--depth", "12"),
    ("tower-verify", "two-planes", "--depth", "4"),
)

P = 32003

# engine-random-fp draws its support shapes from a fixed catalogue: the
# sequence `_draw_shape` yields from random.Random(SHAPE_SEED), even
# indices ideals in 4 variables, odd indices rank-2 modules in 3
# variables.  The ids below were kept because one problem of that shape
# runs in 0.1-0.9 s on a 2-core x86 host, so no single problem dominates
# a pass, and its time moves by less than a seventh between coefficient
# draws; the shapes skipped ran up to 55 s or moved by a fifth.  The
# seed draws every coefficient, and with generic coefficients over F_p a
# shape costs nearly the same for every seed.
SHAPE_SEED = 0
IDEAL_SHAPES = (0, 8, 10, 34)
MODULE_SHAPES = (9, 21, 25, 39)
MEMBER_QUERIES = 250
OTHER_QUERIES = 250
ORACLE_QUERIES = 20
ORACLE_MAX_DEG = 9


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_goldens():
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)


class Op:
    """One call into formalpatch.  `run` returns the result and `check`
    returns None when it is right or a one-line reason when not."""

    __slots__ = ("name", "run", "check", "problem")

    def __init__(self, name, run, check, problem=None):
        self.name = name
        self.run = run
        self.check = check
        self.problem = problem


def _order_rng(seed, k):
    return random.Random("order:%d:%d" % (seed, k))


# -- repro-suite ---------------------------------------------------------


def _repro_op(rid, golden):
    from formalpatch.repro import run_repro

    def run():
        rep = run_repro(rid)
        return rep.code, rep.text()

    def check(result):
        code, text = result
        if code != 0:
            return "exit code %d" % code
        if sha256_text(text) != golden:
            return "report text differs from the golden"
        return None

    return Op(rid, run, check)


# -- depth-sweep ---------------------------------------------------------


def _cli_op(argv, golden):
    from formalpatch import cli

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def check(result):
        code, text = result
        if code != 0:
            return "exit code %d" % code
        if sha256_text(text) != golden:
            return "stdout differs from the golden"
        return None

    return Op(" ".join(argv), run, check)


# -- engine-random-fp ----------------------------------------------------


def _draw_mono(rng, n, hi):
    e = [0] * n
    for _ in range(rng.randint(1, hi)):
        e[rng.randrange(n)] += 1
    return tuple(e)


def _draw_support(rng, n, rank, nterms, hi):
    return [(_draw_mono(rng, n, hi), rng.randrange(rank)) for _ in range(nterms)]


def _draw_shape(rng, kind):
    n, rank = (4, 1) if kind == "ideal" else (3, 2)
    return {
        "kind": kind,
        "n": n,
        "rank": rank,
        "g1": [_draw_support(rng, n, rank, 3, 2) for _ in range(3)],
        "g2": [_draw_support(rng, n, rank, 3, 2) for _ in range(2)],
        "m": _draw_support(rng, n, rank, 3, 2),
    }


def shape_catalogue():
    rng = random.Random(SHAPE_SEED)
    drawn = [
        _draw_shape(rng, "ideal" if i % 2 == 0 else "module")
        for i in range(max(IDEAL_SHAPES + MODULE_SHAPES) + 1)
    ]
    # alternate ideals and modules so that a pass mixes both kinds
    return [drawn[i] for pair in zip(IDEAL_SHAPES, MODULE_SHAPES) for i in pair]


class EngineProblem:
    """Generated inputs of one engine-random-fp problem and the results
    its ops leave behind for the ops after them."""

    def __init__(self, shape, rng):
        from formalpatch import engine, kernel
        from formalpatch.fields import PrimeField
        from formalpatch.poly import PolyContext, Polynomial

        n, rank = shape["n"], shape["rank"]
        self.kind = shape["kind"]
        self.rank = rank
        self.context = PolyContext(PrimeField(P), "xyzw"[:n])
        order = engine.TOP_GREVLEX.descriptor(self.context)

        def fill(support):
            return kernel.canon_vec([(t, rng.randrange(1, P)) for t in support], order, P)

        x = tuple(1 if i == 0 else 0 for i in range(n))
        self.g1 = [fill(s) for s in shape["g1"]]
        # x times the first generator gives the module x-torsion, so
        # that saturating at x has work to do
        self.g1[0] = kernel.scale_vec(self.g1[0], 1, x, P)
        self.g2 = [fill(s) for s in shape["g2"]]
        self.m = fill(shape["m"])
        self.f = Polynomial(self.context, (((x, 0), 1),), _canonical=True)
        # the first MEMBER_QUERIES queries are combinations of g1, so they
        # lie in the module; the others are random and mostly do not
        self.queries = []
        for _ in range(MEMBER_QUERIES):
            acc = ()
            for g in self.g1:
                term = kernel.scale_vec(g, rng.randrange(1, P), _draw_mono(rng, n, 2), P)
                acc = kernel.add_vec(acc, term, order, P)
            self.queries.append(acc)
        for _ in range(OTHER_QUERIES):
            self.queries.append(fill(_draw_support(rng, n, rank, 4, 4)))
        self.results = {}

    def ops(self):
        from formalpatch import engine

        ctx, rank, res = self.context, self.rank, self.results

        def op_submodule():
            res["B"] = engine.submodule(self.g1, ctx, rank)
            res["B2"] = engine.submodule(self.g2, ctx, rank)

        def op_syzygy():
            res["syzygy_basis"] = engine.syzygy_basis(res["B"])

        def op_saturate():
            res["saturate"] = engine.saturate(res["B"], self.f)

        def op_colon():
            res["colon_element"] = engine.colon_element(res["B"], self.m)

        def op_intersect():
            res["submodule_intersect"] = engine.submodule_intersect(res["B"], res["B2"])

        def op_contains():
            basis = res["B"]
            res["contains"] = [basis.contains(q) for q in self.queries]

        return (
            ("submodule", op_submodule),
            ("syzygy_basis", op_syzygy),
            ("saturate", op_saturate),
            ("colon_element", op_colon),
            ("submodule_intersect", op_intersect),
            ("contains", op_contains),
        )

    def result_text(self, name):
        """Canonical text of an op's result; reduced bases are unique, so
        every correct engine gives the same text."""
        res = self.results
        if name == "submodule":
            return "%r | %r" % (res["B"], res["B2"])
        if name == "saturate":
            return "%r e=%d" % res["saturate"]
        if name == "contains":
            return "".join("1" if a else "0" for a in res["contains"])
        return repr(res[name])

    def oracle_check(self):
        """Compare the bases, the intersection and the membership answers
        with formalpatch.oracle, which row-reduces degree slices and
        shares no code with the engine.  A slice bound counts once the
        oracle gives the same basis at it and one degree above."""
        from formalpatch import kernel, oracle

        res = self.results
        B = res["B"]
        n, rank, order = self.context.nvars, self.rank, B.order

        def stable(compute, start):
            d = start
            prev = compute(d)
            while True:
                nxt = compute(d + 1)
                if nxt == prev:
                    return prev
                if d + 1 >= ORACLE_MAX_DEG:
                    return None
                d, prev = d + 1, nxt

        def degree(vecs):
            return max((kernel.mono_deg(m) for v in vecs for (m, _), _ in v), default=0)

        for label, gens, basis in (("g1", self.g1, B), ("g2", self.g2, res["B2"])):
            got = stable(lambda d: oracle.groebner(gens, [], rank, n, order, P, d), degree(basis.gens))
            if got is None:
                return "oracle basis of %s not stable below degree %d" % (label, ORACLE_MAX_DEG)
            if tuple(got) != basis.gens:
                return "basis of %s differs from the oracle" % label
        cap = res["submodule_intersect"]
        got = stable(lambda d: oracle.intersect(B.gens, res["B2"].gens, [], rank, n, order, P, d),
                     degree(cap.gens))
        if got is None or tuple(got) != cap.gens:
            return "intersection differs from the oracle"
        answers = res["contains"]
        sample = list(range(ORACLE_QUERIES)) + list(range(MEMBER_QUERIES, MEMBER_QUERIES + ORACLE_QUERIES))
        for i in sample:
            q, answer = self.queries[i], answers[i]
            # B.gens is a basis (checked above), so a slice of the query's
            # degree decides membership
            if oracle.member(q, B.gens, [], rank, n, order, P, degree([q])) != answer:
                return "a membership answer differs from the oracle"
        return None

    def certify(self, name):
        """Identities every correct result satisfies, whatever the seed.
        They test soundness (the result lies where it must); the digests
        and the oracle check test the rest."""
        from formalpatch import kernel
        from formalpatch.engine import vec_of_polys

        res = self.results
        B = res["B"]
        order, p = B.order, P
        if name == "submodule":
            if not all(B.contains(g) for g in self.g1) or not all(res["B2"].contains(g) for g in self.g2):
                return "an input generator is outside its basis"
        elif name == "syzygy_basis":
            for s in res["syzygy_basis"].gens:
                acc = ()
                for (mono, pos), c in s:
                    acc = kernel.add_vec(acc, kernel.scale_vec(B.gens[pos], c, mono, p), order, p)
                if acc:
                    return "a syzygy does not vanish on the basis"
        elif name == "saturate":
            sat, e = res["saturate"]
            fe = vec_of_polys([self.f ** e])
            if not sat.contains_basis(B):
                return "the saturation does not contain the module"
            if not all(B.contains(kernel.mul_vec_poly(g, fe, order, p)) for g in sat.gens):
                return "f^e times the saturation leaves the module"
        elif name == "colon_element":
            for c in res["colon_element"].gens:
                cp = tuple(((mono, 0), co) for (mono, _), co in c)
                scaled = kernel.mul_vec_poly(self.m, cp, order, p)
                if not B.contains(scaled):
                    return "a colon element does not multiply m into the module"
        elif name == "submodule_intersect":
            cap = res["submodule_intersect"]
            if not all(B.contains(g) and res["B2"].contains(g) for g in cap.gens):
                return "the intersection leaves one of the modules"
        elif name == "contains":
            if not all(res["contains"][:MEMBER_QUERIES]):
                return "a constructed member was reported outside"
        return None


def engine_problems(seed, k):
    """The problems of pass k for this seed: one per catalogue shape."""
    return [
        EngineProblem(shape, random.Random("engine:%d:%d:%d" % (seed, k, j)))
        for j, shape in enumerate(shape_catalogue())
    ]


def _engine_op(problem, name, fn, golden):
    def check(_result):
        if golden is not None and sha256_text(problem.result_text(name))[:12] != golden:
            return "result digest differs from the golden"
        return problem.certify(name)

    return Op(name, fn, check, problem)


def oracle_sample(ops):
    """The first ideal and the first module problem among `ops`."""
    picked = {}
    for op in ops:
        if op.problem is not None:
            picked.setdefault(op.problem.kind, op.problem)
    return list(picked.values())


# -- the workloads -------------------------------------------------------


# Fewest passes a run makes, whatever --seconds says.  At --seconds 10
# this is the number of passes every run makes (until a pass takes less
# than 10 s / MIN_PASSES), so every run pools as many op samples and the
# tail percentile lands on the same op of the bundled workloads.
MIN_PASSES = {"repro-suite": 8, "depth-sweep": 5, "engine-random-fp": 5}


class Workload:
    """`pass_ops(k)` builds the op list of pass k."""

    def __init__(self, name, seed, goldens):
        self.name = name
        self.seed = seed
        self.goldens = goldens
        self.min_passes = MIN_PASSES[name]

    def pass_ops(self, k):
        g = self.goldens[self.name]
        if self.name == "repro-suite":
            ops = [_repro_op(rid, g[rid]) for rid in REPRO_ORDER]
            _order_rng(self.seed, k).shuffle(ops)
            return ops
        if self.name == "depth-sweep":
            ops = [_cli_op(argv, g[" ".join(argv)]) for argv in DEPTH_SWEEP]
            _order_rng(self.seed, k).shuffle(ops)
            return ops
        digests = g.get(str(self.seed), {}).get(str(k), "").split()
        ops = []
        for problem in engine_problems(self.seed, k):
            for name, fn in problem.ops():
                golden = digests[len(ops)] if digests else None
                ops.append(_engine_op(problem, name, fn, golden))
        return ops


WORKLOADS = ("repro-suite", "depth-sweep", "engine-random-fp")
