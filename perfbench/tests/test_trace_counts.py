"""Per-layer counts must repeat exactly: two traced passes over the same
inputs give identical `.calls` and `.repeat_share` metrics.  Also checks
that BENCHMARK.json lists the metrics run.py reports.

    python3 -m pytest perfbench/tests

For the bundled workloads the two passes are consecutive passes of one
runner (their op orders differ, their ops do not); engine-random-fp
draws fresh inputs for every pass, so there two runners each trace
pass 0.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTED = [m for m, _ in run.PER_LAYER if m.endswith((".calls", ".repeat_share"))]


def _counts(stats):
    return {metric: run.layer_value(stats, metric) for metric in COUNTED}


def _runner(name):
    return run.Runner(workloads.Workload(name, 0, workloads.load_goldens()), tracing.Tracer())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_two_traced_passes_count_alike(name):
    if name == "engine-random-fp":
        runners = [_runner(name), _runner(name)]
    else:
        runners = [_runner(name)] * 2
    counts = []
    for runner in runners:
        _, stats = runner.run_pass(traced=True)
        counts.append(_counts(stats))
        assert runner.failures == []
    assert counts[0] == counts[1]
    assert counts[0]["kernel.nf_vec.calls"] > 0


def test_benchmark_json_lists_the_metrics_run_reports():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
