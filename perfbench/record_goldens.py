"""Record the goldens the benchmark checks results against.

    python3 perfbench/record_goldens.py

Writes perfbench/goldens.json: the SHA-256 of every bundled op's report
text, and for engine-random-fp the 12-hex-digit digests of every op's
canonical result text for seeds 0..SEEDS-1 and passes 0..PASSES-1, one
space-separated string per pass, in op order.
Run it only on a commit whose results are known to be right; the
benchmark then holds every later commit to them.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEEDS = 16
PASSES = 6


def main():
    goldens = {"repro-suite": {}, "depth-sweep": {}, "engine-random-fp": {}}
    for rid in workloads.REPRO_ORDER:
        code, text = workloads._repro_op(rid, None).run()
        if code != 0:
            raise SystemExit("repro %s exited with code %d" % (rid, code))
        goldens["repro-suite"][rid] = workloads.sha256_text(text)
    for argv in workloads.DEPTH_SWEEP:
        code, text = workloads._cli_op(argv, None).run()
        if code != 0:
            raise SystemExit("%s exited with code %d" % (" ".join(argv), code))
        goldens["depth-sweep"][" ".join(argv)] = workloads.sha256_text(text)
    for seed in range(SEEDS):
        per_pass = goldens["engine-random-fp"][str(seed)] = {}
        for k in range(PASSES):
            digests = []
            for problem in workloads.engine_problems(seed, k):
                for name, fn in problem.ops():
                    fn()
                    reason = problem.certify(name)
                    if reason:
                        raise SystemExit("seed %d pass %d %s: %s" % (seed, k, name, reason))
                    digests.append(workloads.sha256_text(problem.result_text(name))[:12])
            per_pass[str(k)] = " ".join(digests)
            print("seed %d pass %d recorded" % (seed, k), flush=True)
    with open(workloads.GOLDENS_PATH, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
