"""ncspheres benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload chern-exact --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it prints the end-to-end metrics (``verify_s``,
``setup_s``, ``peak_rss_mb``, and ``fail_ratio`` in the human-readable
lines); with ``--trace 1`` it prints the per-layer metrics of a traced run
and the tracing overhead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every measurement runs in a fresh worker process (perfbench/worker.py), one
at a time: a closed loop with one caller.  Workers repeat until
``--seconds`` have passed and at least MIN_REPEATS times; ``sweep-exact``
also compares its canonical JSON across repeats.  Reported times are
medians.
See perfbench/README.md for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("chern-exact", "report-float", "sweep-exact")
# three repeats let a median drop one disturbed sweep (and give the
# byte-identity check two comparisons); two halve the others' noise
MIN_REPEATS = {"chern-exact": 2, "report-float": 2, "sweep-exact": 3}
SETUP_SAMPLES = 11
DEADLINE_S = 175.0


class WorkerError(RuntimeError):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def call_worker(mode, workload, seed, deadline) -> dict:
    """Run one worker to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed),
           str(OUT_DIR)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker exceeded the run deadline") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n"
                          + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_record(workers_used) -> dict:
    git_rev = None
    if (ROOT / ".git").exists():  # an exported checkout has no revision
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            git_rev = rev.stdout.strip() if rev.returncode == 0 else None
        except OSError:
            pass
    h = hashlib.sha256()
    for path in sorted((SRC / "ncspheres").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_rev": git_rev,
        "src_sha256": h.hexdigest(),
        "loadavg_start": os.getloadavg(),
        "sweep_workers": workers_used,
    }


def identity_ops(samples) -> list:
    """Byte identity of the canonical JSON across repeats: one op per repeat."""
    first = samples[0]["canonical_sha256"]
    if first is None:
        return []
    return [(f"repeat{n}:canonical_bytes", s["canonical_sha256"] == first)
            for n, s in enumerate(samples[1:], start=1)]


def measure(workload, seed, seconds, deadline):
    """End-to-end medians over repeated workers; returns (metrics, samples)."""
    samples = []
    start = time.monotonic()
    while (len(samples) < MIN_REPEATS[workload]
           or time.monotonic() - start < seconds):
        samples.append(call_worker("run", workload, seed, deadline))
    setups = [s["setup_s"] for s in samples]
    while len(setups) < SETUP_SAMPLES:
        setups.append(call_worker("setup", workload, seed, deadline)["setup_s"])
    metrics = {
        "verify_s": statistics.median(s["verify_s"] for s in samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    return metrics, samples


def measure_traced(workload, seed, deadline):
    """One untraced and one traced repeat, plus the scalar microbenchmark."""
    plain = call_worker("run", workload, seed, deadline)
    traced = call_worker("traced", workload, seed, deadline)
    scal = call_worker("scalars", workload, seed, deadline)
    metrics = dict(traced["layers"])
    metrics.update(scal)
    metrics["trace.overhead_s"] = traced["verify_s"] - plain["verify_s"]
    return metrics, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ncspheres" / "__init__.py").is_file():
        print(f"error: no ncspheres sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    spec = load_spec()
    # byte-compile up front, so no worker's setup_s pays for it
    compileall.compile_dir(str(SRC), quiet=1)
    # cli.sweep's own default: one thread per point, at most cpu_count
    machine = machine_record(min(len(workloads.SWEEP_POINTS),
                                 os.cpu_count() or 1)
                             if args.workload == "sweep-exact" else None)
    try:
        if args.trace:
            raw, samples = measure_traced(args.workload, args.seed, deadline)
            declared = spec["per_layer"]
        else:
            raw, samples = measure(args.workload, args.seed, args.seconds,
                                   deadline)
            declared = spec["end_to_end"]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ident = identity_ops(samples)
    failures = [f"repeat{n}:{name}" for n, s in enumerate(samples)
                for name in s["failed"]]
    failures += [name for name, ok in ident if not ok]
    attempted = sum(s["attempted"] for s in samples) + len(ident)
    failed = len(failures)
    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]}
               for m in declared}

    print(f"workload {args.workload}  seed {args.seed}  repeats {len(samples)}"
          f"  trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if args.trace and args.workload == "sweep-exact":
        print("  (cli.task_*_s are summed over points; with two sweep threads "
              "they include time spent waiting for the GIL)")
    print(f"  {'fail_ratio':40s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations)")
    for name in failures[:20]:
        print(f"  FAILED {name}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine, "metrics": raw,
              "verify_samples": [s["verify_s"] for s in samples],
              "attempted": attempted,
              "failed": failed, "time": time.time()}
    with open(OUT_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
