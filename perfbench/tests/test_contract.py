"""A short run prints exactly the metrics BENCHMARK.json declares, with their units."""

import json

import pytest

import run

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_short_run_matches_the_declared_metrics(trace, kind):
    line = run.run("serve_fresh", seed=2, seconds=1.0, trace=trace)["line"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == declared
    if trace:
        # Coverage is about 1 by construction; the layers' share is checked apart.
        coverage = line["metrics"]["trace.coverage"]["value"]
        assert coverage > 0.95
        assert 0.0 < line["metrics"]["trace.layer_coverage"]["value"] <= coverage
        assert line["metrics"]["jit.cache_hit_ratio"]["value"] == 1.0


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.workloads.WORKLOADS)
