"""BENCHMARK.json against the metrics the benchmark actually emits."""

import json
import os
import re
import shutil
import subprocess
import sys

import spans

from conftest import BENCH, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_spec_shape():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"]
                                              for m in spec["end_to_end"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])


def test_declared_workloads_match_the_runner():
    import run
    import workloads

    names = [w["name"] for w in _spec()["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_per_layer_names_match_the_traced_run():
    emitted = set(spans.layer_metrics(spans.Tracer(), {}))
    emitted |= {"scalars.gauss_muladd_ns", "scalars.complex_muladd_ns",
                "scalars.gauss_over_complex", "trace.overhead_s"}
    assert {m["name"] for m in _spec()["per_layer"]} == emitted


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chern-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_sweep_points_are_catalog_points():
    import workloads
    from ncspheres.cli import CATALOG

    assert set(workloads.SWEEP_POINTS) <= set(CATALOG)
    assert workloads.MAIN in workloads.SWEEP_POINTS
