"""BENCHMARK.json matches the code, and runs repeat their counts exactly."""

import json
import os
import shutil
import subprocess
import sys

from conftest import BENCH, ROOT
from worker import per_layer_spec

RUN = os.path.join(BENCH, "run.py")


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_declared_metrics_are_the_reported_ones():
    bench = _bench()
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == per_layer_spec()
    names = [m["name"] for m in bench["end_to_end"]]
    assert names[0] == "setup_s" and {"wall_s", "verdict_p50_s", "verdict_tail_s", "peak_rss_mb"} <= set(names)
    assert max(m["bound"] for m in bench["end_to_end"]) == bench["end_to_end"][0]["bound"] <= 0.25


def _traced(seed):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", "reject-mix", "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_traced_counts_repeat_exactly():
    a, b = _traced(3), _traced(3)
    assert a["correct"] and b["correct"]
    counts = [n for n, unit, _ in per_layer_spec() if unit == "count"]
    assert {n: a["metrics"][n]["value"] for n in counts} == {n: b["metrics"][n]["value"] for n in counts}
    assert a["metrics"]["cli.cli_dispatch.calls"]["value"] > 0
    assert a["metrics"]["trace.coverage_frac"]["value"] >= 0.9


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reject-mix", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
