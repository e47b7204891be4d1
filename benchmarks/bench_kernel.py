"""Compare the compiled kernel against the pure-Python fallback on
representative workloads.  Run from the repository root:

    python3 benchmarks/bench_kernel.py

Each workload runs in a fresh subprocess so the backend choice is made
cleanly at import time (FORMALPATCH_PURE=1 forces the fallback); timing
happens inside the child, so interpreter startup is excluded.  The
children import the package from this checkout's `src`, which goes at
the front of their PYTHONPATH, so no install is needed."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

WORKLOADS = {
    "groebner-ideals": """
from formalpatch.fields import QQ
from formalpatch.poly import parse_poly
from formalpatch.rings import make_base_ring
from formalpatch.engine import submodule, vec_of_polys
B = make_base_ring(QQ, ["x", "y", "z", "t"], [], "t")
mk = lambda s: parse_poly(s, B.context)
def work():
    for _ in range(40):
        submodule(
            [vec_of_polys([mk(s)]) for s in
             ["x + y + z", "x*y + y*z + z*x", "x*y*z - 1", "x^3 - t"]],
            B.context, 1,
        )
""",
    "patch-solve-ideal": """
from formalpatch.fields import QQ
from formalpatch.poly import parse_poly
from formalpatch.rings import make_base_ring, validate_prime_data
from formalpatch.engine import vec_of_polys
from formalpatch import patch
B = make_base_ring(QQ, ["x", "y", "t"], [], "t")
mk = lambda s: parse_poly(s, B.context)
pd = validate_prime_data(B, [[mk("t")]], [mk("1")])
cfg = patch.make_config(B, pd, mk("y"), mk("x"), 4, declared_connected=True)
mod = (2, [vec_of_polys([mk("y"), mk("-x")])])
ident = [[mk("1"), mk("0")], [mk("0"), mk("1")]]
def work():
    for _ in range(4):
        prob = patch.pose_problem(cfg, mod, mod, mod, ident, ident, expected_rank=1)
        patch.solve(prob, [0, 1, 2, 3])
""",
    "tower-laws-xm-tn": """
from formalpatch.fields import QQ
from formalpatch.poly import parse_poly
from formalpatch.rings import make_base_ring, validate_prime_data
from formalpatch.engine import vec_of_polys
from formalpatch.towers import PresModule, build_tower, verify_tower_laws
B = make_base_ring(QQ, ["x", "t"], [], "t")
mk = lambda s: parse_poly(s, B.context)
pd = validate_prime_data(B, [[mk("t")]], [mk("x")])
M = PresModule.make(B, 2, [vec_of_polys([mk("x"), mk("-t")])])
tw = build_tower(M, 7)
def work():
    verify_tower_laws(tw, pd, mk("x"))
""",
}

HARNESS = """
import time
{code}
work()  # warm caches and JIT-free sanity run
start = time.perf_counter()
work()
elapsed = time.perf_counter() - start
from formalpatch import kernel
print("RESULT", kernel.BACKEND, elapsed)
"""


def run_once(code, pure):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if pure:
        env["FORMALPATCH_PURE"] = "1"
    else:
        env.pop("FORMALPATCH_PURE", None)
    proc = subprocess.run(
        [sys.executable, "-c", HARNESS.format(code=code)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    line = [l for l in proc.stdout.splitlines() if l.startswith("RESULT ")][-1]
    _, backend, elapsed = line.split()
    return float(elapsed), backend


def main():
    print("%-24s %10s %10s %8s" % ("workload", "compiled", "pure", "speedup"))
    for name, code in WORKLOADS.items():
        compiled, backend_c = run_once(code, pure=False)
        pure, _ = run_once(code, pure=True)
        note = "" if backend_c == "cython" else "  (extension missing; both runs pure)"
        print("%-24s %9.3fs %9.3fs %7.2fx%s" % (name, compiled, pure, pure / compiled, note))


if __name__ == "__main__":
    main()
