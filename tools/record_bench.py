"""Record one point of the benchmark trajectory: BENCH_<id>.json.

    python3 tools/record_bench.py [--repo PATH] [--seed N] [--seconds S] [--out-dir DIR]

Runs `perfbench/run.py` of the checkout at --repo (default: this one),
unchanged, on every workload: untraced (`--trace 0`, the command that
`run.py --workload all` issues for each workload, here read in full
rather than as `all`'s table) and traced (`--trace 1`).  The file holds,
per workload, run.py's info line (kernel backend, calibration, pass
counts), its end-to-end and per-layer metrics, and whether every op was
correct, plus the host and the exact commands.

<id> is the checkout's short commit id when its `src/` and `perfbench/`
match that commit; otherwise it is `tree-` and the short git tree id of
its working `src/`, which `git rev-parse <commit>:src` matches once the
sources are committed.  Exits 1 when a workload reports a wrong result.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(repo, *args, env=None):
    return subprocess.run(["git", *args], cwd=repo, check=True, text=True,
                          stdout=subprocess.PIPE, env=env).stdout.strip()


def checkout_id(repo):
    """(id, commit, src tree, clean) of the checkout at repo."""
    commit = git(repo, "rev-parse", "HEAD")
    clean = not git(repo, "status", "--porcelain", "--", "src", "perfbench")
    if clean:
        return commit[:12], commit, git(repo, "rev-parse", "HEAD:src"), True
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git(repo, "read-tree", "HEAD", env=env)
        git(repo, "add", "-A", "--", "src", env=env)
        tree = git(repo, "write-tree", "--prefix=src/", env=env)
    return "tree-" + tree[:12], commit, tree, False


def run_workload(repo, name, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=repo, text=True, stdout=subprocess.PIPE)
    if proc.returncode != 0:
        raise SystemExit("%s exited with code %d" % (" ".join(cmd), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    info = next(json.loads(l[len("info "):]) for l in lines if l.startswith("info "))
    result = json.loads(lines[-1])
    failures = [l for l in lines if l.startswith("FAILED ")]
    return {"command": cmd[1:], "info": info, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "failures": failures, "metrics": result["metrics"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", default=ROOT, help="checkout to measure (default: this one)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out-dir", default=os.path.join(ROOT, "bench"))
    args = parser.parse_args(argv)
    repo = os.path.abspath(args.repo)
    sys.path.insert(0, os.path.join(repo, "perfbench"))
    import workloads  # the checkout's own workload list

    ident, commit, tree, clean = checkout_id(repo)
    out = {
        "id": ident,
        "commit": commit,
        "src_tree": tree,
        "sources_committed": clean,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "system": platform.system(), "nproc": len(os.sched_getaffinity(0))},
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    for name in workloads.WORKLOADS:
        untraced = run_workload(repo, name, args.seed, args.seconds, 0)
        traced = run_workload(repo, name, args.seed, args.seconds, 1)
        out["workloads"][name] = {
            "kernel_backend": untraced["info"]["kernel_backend"],
            "correct": untraced["correct"] and traced["correct"],
            "end_to_end": untraced,
            "per_layer": traced,
        }
        print("%-18s pass_s %.4f  correct %s" % (
            name, untraced["metrics"]["pass_s"]["value"], out["workloads"][name]["correct"]))
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "BENCH_%s.json" % ident)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", os.path.relpath(path))
    return 0 if all(w["correct"] for w in out["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
