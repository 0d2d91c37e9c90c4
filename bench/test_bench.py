"""Self-checks of the benchmark, on the small smoke ladders.

    python3 -m pytest bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spec

WORKLOADS = sorted(spec.WHY)


@pytest.fixture(scope="module")
def traced_pair():
    return {w: [run.run(w, 7, 0, trace=True, smoke=True) for _ in range(2)] for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes(workload):
    result = run.run(workload, 5, 0, trace=False, smoke=True)
    assert result["correct"], [line for line in result["lines"] if line.startswith("problem")]
    assert result["failed"] == 0
    assert result["attempted"] == run.MIN_ROUNDS * len(spec.jobs(workload, smoke=True))
    metrics = result["metrics"]
    assert [name for name, _ in run.END_TO_END] == list(metrics)
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_traced_runs(traced_pair, workload):
    import spans

    first, second = traced_pair[workload]
    assert first["correct"] and second["correct"]
    counted = [name for name, unit, _ in spans.METRICS if unit in ("count", "B", "ratio")
               and name != "trace.overhead_ratio"]

    def counts(layers):
        return {k: v for k, v in layers.items() if not k.endswith("_s")}

    for result in (first, second):
        rounds = [counts(r["layers"]) for r in result["rounds"] if r["traced"]]
        assert rounds and all(c == rounds[0] for c in rounds)
    assert {n: first["metrics"][n]["value"] for n in counted} == \
        {n: second["metrics"][n]["value"] for n in counted}
    assert first["metrics"]["cli.command_s"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_and_remainder_add_up_to_the_round(traced_pair, workload):
    import spans

    for result in traced_pair[workload]:
        traced = [r for r in result["rounds"] if r["traced"]]
        assert traced
        for r in traced:
            self_times = [r["layers"].get(name, 0.0) for name, unit, _ in spans.METRICS
                          if unit == "s" and not name.startswith("trace.")]
            assert min(self_times) >= 0
            remainder = r["wall"] - r["covered"]
            assert 0 <= remainder < r["wall"]
            assert sum(self_times) + remainder == pytest.approx(r["wall"], rel=1e-9)
            assert set(r["layers"]) <= {name for name, _, _ in spans.METRICS}


def test_benchmark_json_lists_what_the_benchmark_reports():
    import spans

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(spec.WHY)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(spans.METRICS)


RIGHT = {
    ("lift", "semidirect:z5:z2:inv"): {"lift": "10 squares"},
    ("analyze", "graded:z2:z3:inv"): {"gamma-squares": "9 of 12", "gg": "false",
                                      "vertical-length": "1", "chain-sizes": "9"},
    ("folding", "semidirect:z5:z2:inv"): {"folding": "absent (search exhausted after 4 nodes)",
                                          "cofolding": "absent (search exhausted after 4 nodes)",
                                          "framed": "false"},
    ("example", "graded:z2:z5:inv"): spec.EXAMPLES["graded:z2:z5:inv"],
}


@pytest.mark.parametrize("job, entry, detail", [
    (("lift", "semidirect:z5:z2:inv"), "lift", "11 squares"),
    (("analyze", "graded:z2:z3:inv"), "gg", "true"),
    (("analyze", "graded:z2:z3:inv"), "chain-sizes", "3 9"),
    (("folding", "semidirect:z5:z2:inv"), "folding", "found: ((0, 1, 2, 3, 4),)"),
    (("example", "graded:z2:z5:inv"), "vertical-length", "2"),
])
def test_verdict_checker_rejects_a_wrong_verdict(job, entry, detail):
    def report(details):
        return {"passed": True, "entries": [{"name": n, "passed": True, "detail": d}
                                            for n, d in details.items()]}

    assert spec.verdict_error(job, report(RIGHT[job])) is None
    assert spec.verdict_error(job, report({**RIGHT[job], entry: detail}))


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lift", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
