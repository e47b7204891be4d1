"""formalpatch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the repository root; the program is imported from `src/`.  One
caller, one thread, one process: a closed loop that runs passes (fixed
op lists, see workloads.py) back to back until `--seconds` of wall time
is spent in passes and at least the workload's minimum number of passes
ran.  Times are host-normalised (see CAL_REF_S).

With `--trace 0` the passes run untraced and the last line of stdout is
a JSON object whose metrics are the end-to-end ones (END_TO_END).  With
`--trace 1` untraced and traced passes (tracing.py) alternate, and the
metrics are the per-layer ones (PER_LAYER), each the median over the
traced passes of its per-pass value; the spans are written to
perfbench/out/.  `--workload all` runs every workload in its own process
and prints a table of the end-to-end metrics plus failed_share.

Every op result is checked after its pass, outside the timed region; a
failed op is one that raised, exited non-zero or gave a wrong result.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit); the span name is the metric name up to its last dot
PER_LAYER = tuple(
    (name, "count" if name.endswith(".calls") else "ratio" if name.endswith("_share") else "s")
    for name in (
        "kernel.nf_vec.calls", "kernel.nf_vec.self_s",
        "kernel.spair_vec.calls", "kernel.spair_vec.self_s",
        "kernel.canon_vec.self_s", "kernel.mul_vec_poly.self_s",
        "engine.submodule.calls", "engine.submodule.self_s", "engine.submodule.repeat_share",
        "engine.syzygy_project.calls", "engine.syzygy_project.self_s",
        "engine.syzygy_project.repeat_share",
        "engine.saturate.calls", "engine.saturate.self_s", "engine.submodule_intersect.self_s",
        "engine.contains.calls", "engine.contains.self_s",
        "rings.truncate.calls", "rings.truncate.self_s", "rings.truncate.repeat_share",
        "rings.localize.self_s",
        "towers.build_tower.self_s", "towers.q_filtration.self_s",
        "towers.verify_tower_laws.self_s",
        "patch.pose_problem.incl_s", "patch.solve.incl_s",
        "patch.kernel_basis.calls", "patch.span_with_zero_pairs.calls",
        "patch.certify_solution.incl_s", "patch.check_maximality.incl_s",
        "patch.flatness_certificate.incl_s",
        "instance.load_instance.incl_s", "report.text.self_s",
    )
) + (("trace.overhead", "ratio"),)

SETUP_SAMPLES = 7
# Every time reported is host-normalised: multiplied by CAL_REF_S over
# the calibration time measured around it, i.e. expressed in seconds of
# a host on which `calibrate()` takes CAL_REF_S.  On a shared 2-core
# host the speed drifts up to 2x within minutes; normalising halves the
# spread of repeated passes of identical code.  Raw times are on the
# info line.
CAL_REF_S = 0.040


def calibrate():
    """Wall time of a fixed pure-Python loop of tuple building, dict
    updates and sorting (the kernel's kind of work): a host-speed probe
    taken between the ops of every pass."""
    start = perf_counter()
    for _ in range(80):
        acc = {}
        for i in range(600):
            key = ((i * 7919) % 1009, i % 13, (i >> 3,))
            acc[key] = acc.get(key, 0) + i
        items = sorted(acc.items(), key=lambda kv: (kv[0][1], kv[0][0]), reverse=True)
        tuple((k, v % 32003) for k, v in items)
    return perf_counter() - start


def tail(samples):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    xs = sorted(samples)
    n = len(xs)
    idx = max(n - 11, 0)
    return xs[idx], 100.0 * (idx + 1) / n, n


def _import_program():
    sys.path.insert(0, SRC)
    import formalpatch.cli  # noqa: F401  (loads every layer)
    from formalpatch import kernel

    return kernel.BACKEND


def probe(workload, seed):
    """Set-up as a fresh process sees it: import formalpatch and build the
    first pass's inputs, then say so."""
    _import_program()
    workloads.Workload(workload, seed, workloads.load_goldens()).pass_ops(0)
    print("ready", flush=True)


def measure_setup(workload, seed):
    """Median over fresh processes of the time from process start to the
    first op being ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", workload, "--seed", str(seed)]
    samples, cals = [], []
    for _ in range(SETUP_SAMPLES):
        cals.append(calibrate())
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(perf_counter() - start)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError("set-up probe failed with exit code %d" % code)
    cals.append(calibrate())
    return statistics.median(samples) * CAL_REF_S / statistics.median(cals), samples


class Runner:
    """Runs passes of one workload and keeps what they measured."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.next_pass = 0
        self.op_id = 0
        self.attempted = 0
        self.failures = []
        self.calibration = []
        self.raw_pass_times = []
        self.op_times = []  # host-normalised
        self.op_times_by_name = {}
        self.first_ops = None

    def run_pass(self, traced=False):
        """Run the next pass; return its host-normalised time (the sum of
        its ops' normalised times) and, when traced, the per-span
        statistics of its ops (times normalised alike).  Results are
        checked afterwards, with tracing off."""
        k = self.next_pass
        self.next_pass += 1
        ops = self.workload.pass_ops(k)
        if self.first_ops is None:
            self.first_ops = ops
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.begin_pass()
        # the calibration runs before the first op and after every op; an
        # op's time is scaled by the mean of the two calibrations around
        # it, which follow the host's speed more closely than a per-pass
        # figure
        cals = [calibrate()]
        outcomes, op_times = [], []
        for op in ops:
            if tracer is not None:
                tracer.op_id = self.op_id
            self.op_id += 1
            t0 = perf_counter()
            try:
                outcomes.append((op, op.run(), None))
            except Exception as exc:  # BudgetError included: the op failed, the run goes on
                outcomes.append((op, None, "%s: %s" % (type(exc).__name__, exc)))
            op_times.append(perf_counter() - t0)
            cals.append(calibrate())
        stats = tracer.end_pass() if tracer is not None else None
        self.calibration += cals
        normalised = 0.0
        for i, (op, dt) in enumerate(zip(ops, op_times)):
            t = dt * CAL_REF_S / ((cals[i] + cals[i + 1]) / 2.0)
            normalised += t
            self.op_times.append(t)
            self.op_times_by_name.setdefault(op.name, []).append(t)
        raw = sum(op_times)
        self.raw_pass_times.append(raw)
        if stats is not None:
            for st in stats.values():
                st["self_s"] *= normalised / raw
                st["incl_s"] *= normalised / raw
        for op, result, error in outcomes:
            self.attempted += 1
            try:
                reason = error or op.check(result)
            except Exception as exc:  # a result the check cannot read is wrong
                reason = "check raised %s: %s" % (type(exc).__name__, exc)
            if reason:
                self.failures.append("pass %d op %s: %s" % (k, op.name, reason))
        return normalised, stats


def run_untraced(runner, seconds):
    """Passes until `seconds` of wall time is spent in passes and at
    least the workload's minimum number ran."""
    pass_times = []
    while sum(runner.raw_pass_times) < seconds or len(pass_times) < runner.workload.min_passes:
        pass_times.append(runner.run_pass()[0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail_s, tail_pct, n = tail(runner.op_times)
    metrics = {
        "pass_s": statistics.median(pass_times),
        "op_s_p50": statistics.median(runner.op_times),
        "op_s_tail": tail_s,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {"passes": len(pass_times), "op_samples": n, "op_s_tail_percentile": round(tail_pct, 2),
            "raw_pass_s_median": statistics.median(runner.raw_pass_times)}
    return metrics, info


def layer_value(stats, metric):
    """A per-layer metric of one pass's span statistics; 0 for a span the
    pass never entered."""
    span, _, stat = metric.rpartition(".")
    return stats[span][stat] if span in stats else 0


def run_traced(runner, seconds, out_path):
    """Untraced and traced passes in turn, at least two of each, until
    `seconds` of wall time is spent in passes."""
    untraced, traced, per_pass = [], [], []
    while sum(runner.raw_pass_times) < seconds or len(traced) < 2:
        untraced.append(runner.run_pass()[0])
        elapsed, stats = runner.run_pass(traced=True)
        traced.append(elapsed)
        per_pass.append(stats)
    metrics = {}
    for name, _unit in PER_LAYER:
        if name == "trace.overhead":
            metrics[name] = statistics.median(traced) / statistics.median(untraced)
            continue
        metrics[name] = statistics.median(layer_value(p, name) for p in per_pass)
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    runner.tracer.write(out_path)
    info = {"untraced_pass_s": untraced, "traced_pass_s": traced,
            "spans": len(runner.tracer.spans), "spans_file": os.path.relpath(out_path, ROOT)}
    return metrics, info


def run_one(args):
    if not args.trace:
        setup_s, setup_samples = measure_setup(args.workload, args.seed)
    backend = _import_program()
    workload = workloads.Workload(args.workload, args.seed, workloads.load_goldens())
    runner = Runner(workload, Tracer() if args.trace else None)
    if args.trace:
        out = os.path.join(HERE, "out", "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        metrics, info = run_traced(runner, args.seconds, out)
        units = dict(PER_LAYER)
    else:
        metrics, info = run_untraced(runner, args.seconds)
        metrics["setup_s"] = setup_s
        units = dict(END_TO_END)
        info["setup_samples_s"] = [round(s, 4) for s in setup_samples]
    if args.workload == "engine-random-fp":
        # the independent check runs last, so that it does not count in
        # peak_rss_mb
        for problem in workloads.oracle_sample(runner.first_ops):
            try:
                reason = problem.oracle_check()
            except Exception as exc:  # a result the oracle cannot read is wrong
                reason = "check raised %s: %s" % (type(exc).__name__, exc)
            if reason:
                runner.failures.append("oracle: %s problem: %s" % (problem.kind, reason))
    cal = runner.calibration
    info["op_s_median_by_name"] = {
        name: round(statistics.median(ts), 6) for name, ts in runner.op_times_by_name.items()
    }
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "kernel_backend": backend,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_s_median": statistics.median(cal),
        "calibration_s_min": min(cal),
        "calibration_s_max": max(cal),
        "failed_share": len(runner.failures) / runner.attempted,
    })
    for line in runner.failures:
        print("FAILED", line)
    for name in sorted(metrics):
        print("%-40s %14.6f %s" % (name, metrics[name], units[name]))
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name, _ in
            (PER_LAYER if args.trace else END_TO_END)
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process; a table of every end-to-end
    metric, with its unit, and failed_share."""
    names = workloads.WORKLOADS
    rows = {}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print("workload %s exited with code %d" % (name, proc.returncode), file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows[name] = result
    header = ["metric", "unit"] + list(names)
    table = [header]
    for metric, unit in END_TO_END:
        table.append([metric, unit] + ["%.6g" % rows[n]["metrics"][metric]["value"] for n in names])
    table.append(["failed_share", "ratio"] + ["%.6g" % (rows[n]["failed"] / rows[n]["attempted"]) for n in names])
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return 0 if all(rows[n]["correct"] for n in names) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "formalpatch", "__init__.py")):
        print("error: formalpatch sources not found under %s" % SRC, file=sys.stderr)
        return 2
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
