"""One measurement in a fresh process; prints its result as a JSON line.

Usage: worker.py MODE WORKLOAD SEED [TRACE_DIR]

MODE is ``run`` (set up, verify, check), ``traced`` (the same with the
layer wrappers installed; spans are written to TRACE_DIR), ``setup`` (set
up only) or ``scalars`` (the scalar microbenchmark).  A fresh process per
measurement makes ``setup_s`` include the import of ncspheres and makes
``ru_maxrss`` belong to one workload run alone.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name, seed, pins=workloads.PINS, tracer=None):
    """Set up, verify and check one workload; returns the result dict."""
    setup, verify, gate = workloads.WORKLOADS[name]
    # stdlib modules the harness imported already (fractions, random, ...)
    # are not timed; setup_s counts what ncspheres itself adds
    t0 = time.perf_counter()
    if tracer is not None:
        # before set-up, so the wrappers cover the input building as well
        spans.install_all(tracer)
    inputs = setup(seed)
    t1 = time.perf_counter()
    out = verify(inputs)
    t2 = time.perf_counter()
    ops = gate(out, pins)
    timings = {}
    for _report, task_times in out.get("results", ()):
        for task, dt in task_times.items():
            timings[task] = timings.get(task, 0.0) + dt
    return {
        "setup_s": t1 - t0,
        "verify_s": t2 - t1,
        "attempted": len(ops),
        "failed": [n for n, ok in ops if not ok],
        "canonical_sha256": workloads.canonical_sha256(out),
        "task_timings": timings,
    }


def scalar_operands():
    """R entries and degree-3 trace-chain coefficients at the main point."""
    from ncspheres import homology, ncalg, quatlin, rmatrix, scalars, spheres

    p = rmatrix.DeformParams.parse(workloads.MAIN)
    R = rmatrix.build_R_quaternionic(p, scalars.EXACT)
    alg = ncalg.Algebra(R, scalars.EXACT)
    s = spheres.build_sphere(alg, "seven_sphere", params=p)
    ys = spheres.compute_Y(s)
    ctx3 = homology.ChainContext(spheres.three_sphere_context(s, ys))
    U = quatlin.embed_M2(ys.Y, scalars.EXACT.i)
    chain = homology.trace_chain(ctx3, [U, U.dagger(), U, U.dagger()])
    vals = {str(c): c for _, c in R.items()}
    vals.update((str(c), c) for c in chain.terms.values())
    return [vals[k] for k in sorted(vals)]


def scalar_microbench(ops=20000, repeats=7):
    """ns per a*b+c on GaussRational and on complex, same operands."""
    vals = scalar_operands()
    n = len(vals)
    exact = [(vals[i % n], vals[(7 * i + 3) % n], vals[(13 * i + 5) % n])
             for i in range(ops)]
    floats = [(complex(a), complex(b), complex(c)) for a, b, c in exact]

    def ns_per_op(triples):
        samples = []
        for _ in range(repeats):
            t = time.perf_counter()
            for a, b, c in triples:
                a * b + c
            samples.append((time.perf_counter() - t) / len(triples) * 1e9)
        return statistics.median(samples)

    gauss = ns_per_op(exact)
    cplx = ns_per_op(floats)
    return {"scalars.gauss_muladd_ns": gauss,
            "scalars.complex_muladd_ns": cplx,
            "scalars.gauss_over_complex": gauss / cplx,
            "scalars.operands": n}


def main(argv):
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        t0 = time.perf_counter()
        workloads.WORKLOADS[name][0](seed)
        result = {"setup_s": time.perf_counter() - t0}
    elif mode == "scalars":
        result = scalar_microbench()
    elif mode == "run":
        result = run_workload(name, seed)
    elif mode == "traced":
        tracer = spans.Tracer()
        result = run_workload(name, seed, tracer=tracer)
        tracer.uninstall()
        result["layers"] = spans.layer_metrics(tracer, result["task_timings"])
        trace_dir = argv[3]
        os.makedirs(trace_dir, exist_ok=True)
        tracer.dump(os.path.join(trace_dir, f"spans-{name}-seed{seed}.jsonl"))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
