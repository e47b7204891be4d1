"""Command-line workbench: instance ingestion, the solver and
certificate commands, bundled reproductions, and a selftest.

Exit codes: 0 when every check is PASS or DEMONSTRATION (depth-limited
certificates included), 1 when a check FAILs, 2 for usage errors,
3 for instance errors, 4 when an engine budget or the denominator
schedule is exhausted."""

import argparse
import os
import re
import sys

from .engine import BudgetError
from .instance import InstanceError, bundled_path, load_instance
from .poly import ParseError, Polynomial, canonical_text, parse_poly
from .report import Report
from .repro import REPRO_IDS, run_repro
from .rings import RingError, ideal_power_gens, symbolic_power
from .towers import TowerError, stabilization_index, verify_tower_laws
from . import patch

__all__ = ["main"]


def _int_at_least(low, word):
    """An argparse type: an integer of at least `low`, which `word`
    names in the error message."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
        if value < low:
            raise argparse.ArgumentTypeError("expected a %s integer, got %d" % (word, value))
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_nonneg_int = _int_at_least(0, "nonnegative")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="formalpatch",
        description="patching workbench for truncated formal modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def report_flags(p):
        p.add_argument("--json", action="store_true", help="emit the report as JSON")
        p.add_argument("--out", help="also write the report to this file")

    p = sub.add_parser("solve", help="solve an instance's patching problem")
    p.add_argument("instance")
    p.add_argument("--depth", type=_positive_int, help="override the instance depth")
    p.add_argument("--dmax", type=_nonneg_int, help="cap the denominator schedule")
    report_flags(p)

    p = sub.add_parser("tower-verify", help="verify the filtration laws on an instance's tower")
    p.add_argument("instance")
    p.add_argument("--depth", type=_positive_int, help="override the tower depth")
    report_flags(p)

    p = sub.add_parser("symbolic-power", help="compute a symbolic power and compare with the ordinary power")
    p.add_argument("instance")
    p.add_argument("--prime", type=_positive_int, help="1-based component index")
    p.add_argument("--n", type=_positive_int, help="power to compute")
    p.add_argument("--sep", help="separator override (polynomial)")
    report_flags(p)

    p = sub.add_parser("cover", help="choose a two-chart cover from a pool")
    p.add_argument("instance")
    p.add_argument("--pool", required=True, help="comma-separated polynomials")
    report_flags(p)

    p = sub.add_parser("certify", help="certify a named candidate against an instance's problem")
    p.add_argument("instance")
    p.add_argument("--candidate", required=True, help="candidate name from the instance file")
    report_flags(p)

    p = sub.add_parser("repro", help="run a bundled reproduction")
    p.add_argument("id", metavar="id", choices=sorted(REPRO_IDS),
                   help="one of: %s" % ", ".join(sorted(REPRO_IDS)))
    report_flags(p)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    report_flags(p)

    return parser


def _instance_path(text):
    """Resolve an instance argument: an existing path wins; otherwise a
    bare name is looked up among the bundled instances."""
    if not os.path.exists(text) and re.fullmatch(r"[A-Za-z0-9_-]+", text):
        candidate = bundled_path(text)
        if os.path.exists(candidate):
            return candidate
    return text


def _cmd_solve(args):
    inst = load_instance(_instance_path(args.instance))
    cfg, prob, schedule = inst.patch_setup(args.depth, args.dmax)
    sol = patch.solve(prob, schedule)
    header = [
        ("instance", args.instance),
        ("charts", "f1 = %s, f2 = %s" % (canonical_text(cfg.f1), canonical_text(cfg.f2))),
        ("depth", str(cfg.depth)),
        ("schedule", " ".join(str(d) for d in schedule)),
        ("status", sol.status),
        ("denominator", str(sol.denominator)),
        ("sections", "; ".join(sol.section_texts())),
    ]
    return Report("solve", args.instance, header, sol.records)


def _cmd_tower_verify(args):
    inst = load_instance(_instance_path(args.instance))
    tower, pd, f_loc, pool = inst.tower_setup(args.depth)
    records, filt = verify_tower_laws(tower, pd, f_loc, pool=pool)
    header = [
        ("instance", args.instance),
        ("depth", str(tower.depth)),
        ("stabilization-index", str(stabilization_index(filt))),
    ]
    return Report("tower-verify", args.instance, header, records)


def _cmd_symbolic_power(args):
    inst = load_instance(_instance_path(args.instance))
    pd = inst.need_primes()
    defaults = inst.symbolic_defaults()
    j = args.prime if args.prime is not None else defaults.get("prime")
    n = args.n if args.n is not None else defaults.get("n")
    if j is None or n is None:
        raise InstanceError(inst.path, "symbolic",
                            "prime index and power needed (flags or instance defaults)")
    if not 1 <= j <= pd.count:
        raise InstanceError(inst.path, "primes",
                            "prime index %d out of range 1..%d" % (j, pd.count))
    sep = None
    if args.sep:
        sep = parse_poly(args.sep, inst.ring.context)
    sp, exponent = symbolic_power(pd, j - 1, n, sep)
    B = inst.ring
    ctx = B.context
    gens = pd.prime_gens[j - 1]
    Pn = B.ideal(ideal_power_gens(gens, n))
    sp_texts = [canonical_text(Polynomial(ctx, gv)) for gv in sp.visible_gens()]
    missing = next(
        (gv for gv in sp.gens if not Pn.contains(gv)), None
    )
    header = [
        ("instance", args.instance),
        ("prime", "(" + ", ".join(canonical_text(g) for g in gens) + ")"),
        ("separator", canonical_text(sep if sep is not None else pd.separators[j - 1])),
    ]
    rep = Report("symbolic-power", args.instance, header)
    rep.add("symbolic-power", n, "PASS",
            "P^(%d) = (%s); saturation exponent %d" % (n, ", ".join(sp_texts) or "0", exponent))
    if missing is None:
        rep.add("symbolic-vs-ordinary", n, "PASS", "EQUAL")
    else:
        rep.add("symbolic-vs-ordinary", n, "PASS",
                "STRICT; %s in P^(%d) but not in P^%d"
                % (canonical_text(Polynomial(ctx, missing)), n, n))
    return rep


def _cmd_cover(args):
    inst = load_instance(_instance_path(args.instance))
    pd = inst.need_primes()
    pool_texts = [s.strip() for s in args.pool.split(",") if s.strip()]
    if not pool_texts:
        raise InstanceError(inst.path, "pool", "empty pool")
    pool = [parse_poly(s, inst.ring.context) for s in pool_texts]
    header = [("instance", args.instance), ("pool", ", ".join(pool_texts))]
    rep = Report("cover", args.instance, header)
    try:
        f1, f2 = patch.choose_codim2_cover(inst.ring, pd, pool)
        rep.add("cover-choice", 0, "PASS",
                "f1 = %s, f2 = %s" % (canonical_text(f1), canonical_text(f2)))
    except patch.PatchError as exc:
        rep.add("cover-choice", 0, "FAIL", str(exc))
    return rep


def _cmd_certify(args):
    inst = load_instance(_instance_path(args.instance))
    cfg, prob, _schedule = inst.patch_setup()
    cand, _rank = inst.candidate(args.candidate)
    records = patch.certify_solution(prob, cand)
    header = [
        ("instance", args.instance),
        ("candidate", args.candidate),
        ("depth", str(cfg.depth)),
    ]
    return Report("certify", args.instance, header, records)


def _cmd_repro(args):
    return run_repro(args.id)


def _cmd_selftest(args):
    rep = Report("selftest", "builtin")
    for rid in sorted(REPRO_IDS):
        first = run_repro(rid)
        second = run_repro(rid)
        same = first.text() == second.text()
        rep.add("determinism-%s" % rid, 0, "PASS" if same else "FAIL",
                "byte-identical" if same else "reports differ")
        ok = first.code == 0
        rep.add("repro-%s" % rid, 0, "PASS" if ok else "FAIL", first.verdict)
    # solver output must not depend on which stabilizing schedule ran
    from .instance import bundled_path

    inst = load_instance(bundled_path("a2-ideal-xy"))
    _, prob, _ = inst.patch_setup()
    a = patch.solve(prob, [0, 1, 2, 3])
    b = patch.solve(prob, [0, 2, 3])
    same = a.sections == b.sections and a.denominator == b.denominator
    rep.add("schedule-independence", 0, "PASS" if same else "FAIL",
            "identical sections" if same else "schedules disagree")
    return rep


_DISPATCH = {
    "solve": _cmd_solve,
    "tower-verify": _cmd_tower_verify,
    "symbolic-power": _cmd_symbolic_power,
    "cover": _cmd_cover,
    "certify": _cmd_certify,
    "repro": _cmd_repro,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        rep = _DISPATCH[args.command](args)
    except InstanceError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (RingError, TowerError, ParseError, patch.PatchError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except BudgetError as exc:
        print("error: budget exhausted: %s" % exc, file=sys.stderr)
        detail = exc.detail or {}
        if hasattr(args, "depth") and "lcm_degree" in detail:
            depth = ("truncation depth %d" % args.depth if args.depth
                     else "the instance's default truncation depth")
            print("hint: at %s an S-pair reached lcm degree %d, above "
                  "the degree cap %d; lower --depth or raise the cap with "
                  "FORMALPATCH_BUDGET=maxdeg:maxpairs"
                  % (depth, detail["lcm_degree"], detail["maxdeg"]), file=sys.stderr)
        return 4

    text = rep.json() if getattr(args, "json", False) else rep.text()
    sys.stdout.write(text)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    return rep.code


if __name__ == "__main__":
    sys.exit(main())
