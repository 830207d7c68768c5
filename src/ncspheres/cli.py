"""Command-line driver: catalog points, verification pipelines, reports.

Tasks run in dependency order (conditions -> algebra -> sphere -> {chern,
coaction}); prerequisites are added to a run automatically, and a failing
task skips only the tasks that list it as a prerequisite, with the failure
recorded in the report.  Exact-mode reports are canonical: sorted keys,
exact scalars rendered as strings, no timings (those go to stderr), so two
runs over the same spec produce byte-identical JSON.
"""

from __future__ import annotations

import json
import sys
import time

from . import __version__
from .errors import InvalidSpec, NCSpheresError
from .homology import (B_boundary, ChainContext, FactoredTrace, b_boundary, chern_even,
                       chern_even_word, chern_odd, check_vanzz_equivalence)
from .ncalg import DEGREE_CAP, Algebra, basis_size, confluence_check
from .quatlin import embed_M2
from .rmatrix import DeformParams, build_R_quaternionic, check_all_conditions
from .scalars import EXACT, FLOAT, GaussRational
from .spheres import (build_projection, build_sphere, check_normality,
                      compute_Y, diagonalize_lambda, lambda_reports,
                      projection_checks, suspension_reports,
                      three_sphere_context, verify_Y_relations, y0_flip_check)

SCHEMA_VERSION = 1

# rational points on the parameter sphere; the Pythagorean ones also admit
# an exact eigenphase
CATALOG = (
    "1,0,0",
    "3/5,4/5,0",
    "3/5,0,4/5",
    "1/3,2/3,2/3",
    "7/25,24/25,0",
    "4/5,3/5,0",
)

class RunSpec:
    """One verification run: a parameter point, a backend, and tasks."""

    def __init__(self, params: DeformParams, backend_name: str = "exact",
                 tasks: tuple = ("conditions",)):
        self.params, self.backend_name, self.tasks = params, backend_name, tasks

    def validate(self) -> None:
        if self.backend_name not in ("exact", "float"):
            raise InvalidSpec(f"unknown backend {self.backend_name!r}")
        if not self.tasks:
            raise InvalidSpec("tasks must be nonempty")
        for t in self.tasks:
            if t not in TASKS:
                raise InvalidSpec(f"unknown task {t!r}")
        self.params.validate()

    def backend(self):
        return EXACT if self.backend_name == "exact" else FLOAT

    def closure(self) -> tuple:
        """Requested tasks plus their prerequisites, in execution order."""
        wanted = set(self.tasks)
        for t in self.tasks:
            wanted.update(_TASKS[t][1])
        return tuple(t for t in TASKS if t in wanted)

    def echo(self) -> dict:
        return {
            "params": self.params.label(),
            "backend": self.backend_name,
            "tasks": list(self.closure()),
            "tol": FLOAT.tol,
            "degree_cap": DEGREE_CAP,
        }


def _scalar_json(value):
    """Exact scalars as canonical strings, float complex as [re, im]."""
    if isinstance(value, GaussRational):
        return str(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"cannot render {type(value).__name__} in a report")


def canonical_json(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2, default=_scalar_json) + "\n"


def _report_list(reports) -> list:
    return [r.to_dict() for r in reports]


def _task_conditions(spec: RunSpec, state: dict) -> dict:
    be = spec.backend()
    R = build_R_quaternionic(spec.params, be)
    state["R"] = R
    reports = check_all_conditions(R)
    return {"passed": all(r.passed for r in reports), "reports": _report_list(reports)}


def _task_algebra(spec: RunSpec, state: dict) -> dict:
    alg = Algebra(state["R"], spec.backend())
    state["alg"] = alg
    rep = confluence_check(alg)  # {"passed", "witness"}
    return {**rep, "confluent": rep["passed"],
            "dims": {str(n): basis_size(n) for n in range(1, 6)}}


def _task_sphere(spec: RunSpec, state: dict) -> dict:
    alg = state["alg"]
    s = build_sphere(alg, "seven_sphere", params=spec.params)
    state["sphere"] = s
    ys = compute_Y(s)
    state["ys"] = ys
    reports = []
    reports.extend(projection_checks(s))
    reports.extend(verify_Y_relations(s, ys))
    reports.extend(lambda_reports(alg, ys))
    reports.append(y0_flip_check(s, ys))
    # the three-sphere divides by the radius sum, which must be central; if it
    # is not, that report fails with its witness and the suspension is left out
    if next(r for r in reports if r.name == "radius_sums_central").passed:
        state["s3"] = three_sphere_context(s, ys)
        reports.extend(suspension_reports(state["s3"], ys))
    norm = check_normality(s, ys)
    # sharp boundary: the generators are normal exactly when Lambda is
    # diagonal, which happens exactly at u2 = 0
    u2_zero = spec.params.u2 == 0
    norm_ok = (norm["lambda_diagonal"] == u2_zero
               and norm["all_normal"] == u2_zero
               and norm["all_non_normal"] == (not u2_zero))
    theta = diagonalize_lambda(ys, spec.backend())
    return {
        "passed": all(r.passed for r in reports) and norm_ok,
        "reports": _report_list(reports),
        "normality": norm,
        "normality_matches_boundary": norm_ok,
        "theta": theta,
        "theta_note": None if theta is not None else "eigenphase irrational at this point",
    }


def _task_chern(spec: RunSpec, state: dict) -> dict:
    s, ys = state["sphere"], state["ys"]
    ctx, ctx3 = ChainContext(s), ChainContext(state["s3"])
    p = build_projection(s)
    U = embed_M2(ys.Y, spec.backend().i)
    ch = {
        "ch0": chern_even(ctx, p, 0),
        "ch1": chern_even(ctx, p, 1),
        "ch2": FactoredTrace(ctx, [(1, chern_even_word(ctx, p, 2))]),  # never expanded
        "ch_half": chern_odd(ctx3, U, 0),
        "ch_3half": chern_odd(ctx3, U, 1),
    }
    zero = {"ch0_zero": ch["ch0"], "ch_half_zero": ch["ch_half"], "ch1_zero": ch["ch1"]}
    closing = {
        "b_ch2_zero": b_boundary(ch["ch2"]),
        "b_ch32_zero": b_boundary(ch["ch_3half"]),
        "B_ch0_equals_b_ch1": B_boundary(ch["ch0"]) - b_boundary(ch["ch1"]),
    }
    top = {"ch2_nonzero": ch["ch2"], "ch_3half_nonzero": ch["ch_3half"]}
    vanishing = {name: chain.is_zero() for name, chain in zero.items()}
    vanishing.update((name, not chain.is_zero()) for name, chain in top.items())
    closures = {name: chain.is_zero() for name, chain in closing.items()}
    vanzz = check_vanzz_equivalence(ctx, ys)
    # each failing zero-verdict names the first term of its chain, each
    # failing nonzero verdict says that its chain is empty
    witnesses = {name: chain.first_term()
                 for name, chain in {**zero, **closing}.items() if not chain.is_zero()}
    witnesses.update((name, "the chain has no terms")
                     for name, chain in top.items() if chain.is_zero())
    return {
        "passed": all(vanishing.values()) and all(closures.values()) and vanzz["agree"],
        "components": {name: chain.digest() for name, chain in ch.items()},
        "vanishing": vanishing,
        "closures": closures,
        "star_chain_equivalence": vanzz,
        **({"witnesses": witnesses} if witnesses else {}),
    }


def _task_coaction(spec: RunSpec, state: dict) -> dict:
    from .coaction import (canonical_witness, check_comodule_algebra,
                           check_hopf_axioms, coinvariant_report,
                           derivation_reports, diagonal_coaction,
                           one_sided_left_coaction, relation_report)

    s = state["sphere"]
    ys = state["ys"]
    be = spec.backend()
    hopf = check_hopf_axioms(be)
    co = diagonal_coaction(s)
    comodule = check_comodule_algebra(co)
    derivs = derivation_reports(s, ys)
    coinv = coinvariant_report(s, ys, co)
    witness = canonical_witness(co)
    fault = relation_report(one_sided_left_coaction(s))
    passed = (all(r.passed for r in hopf) and comodule["passed"]
              and all(r.passed for r in derivs)
              and coinv["dim_degree_1"] == 0 and coinv["dim_degree_2"] == 6
              and coinv["equals_y_span"]
              and coinv["delta_fixes_kernel"]
              and witness["passed"])
    return {
        "passed": passed,
        "hopf": _report_list(hopf),
        "comodule": comodule,
        "derivations": _report_list(derivs),
        "coinvariants": coinv,
        "canonical_witness": witness,
        "one_sided_fault": {k: fault[k] for k in ("relations_preserved", "failures")},
    }


# every task with its prerequisites, in execution order
_TASKS = {
    "conditions": (_task_conditions, ()),
    "algebra": (_task_algebra, ("conditions",)),
    "sphere": (_task_sphere, ("conditions", "algebra")),
    "chern": (_task_chern, ("conditions", "algebra", "sphere")),
    "coaction": (_task_coaction, ("conditions", "algebra", "sphere")),
}
TASKS = tuple(_TASKS)

_VERB_TASKS = {
    "check": ("conditions",),
    "sphere": ("sphere",),
    "chern": ("chern",),
    "coaction": ("coaction",),
    "report": TASKS,
    "sweep": ("conditions", "algebra", "sphere", "coaction"),
}


def run(spec: RunSpec):
    """Execute one run; returns (report, timings in seconds)."""
    spec.validate()
    report = {
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "spec": spec.echo(),
        "tasks": {},
        "passed": True,
    }
    timings = {}
    state: dict = {}
    for task in spec.closure():
        fn, requires = _TASKS[task]
        blocked = next((r for r in requires if not report["tasks"][r].get("passed")), None)
        if blocked is not None:
            report["tasks"][task] = {"skipped": True,
                                     "reason": f"prerequisite {blocked!r} failed"}
            report["passed"] = False
            continue
        t0 = time.perf_counter()
        try:
            result = fn(spec, state)
        except NCSpheresError as exc:
            result = {"passed": False,
                      "error": {"type": type(exc).__name__, "detail": str(exc)}}
        timings[task] = time.perf_counter() - t0
        report["tasks"][task] = result
        if not result["passed"]:
            report["passed"] = False
    return report, timings


def sweep(points, backend_name="exact"):
    """Run the pipeline at each point in order; one (report, timings) each."""
    if not points:
        raise InvalidSpec("sweep needs at least one parameter point")
    specs = [RunSpec(params=p, backend_name=backend_name,
                     tasks=_VERB_TASKS["sweep"])
             for p in points]
    for s in specs:
        s.validate()
    return [run(s) for s in specs]


def _status(entry) -> str:
    """A task entry's status: skipped, pass or fail."""
    return "skipped" if entry.get("skipped") else "pass" if entry["passed"] else "fail"


def sweep_csv(points, results) -> str:
    """Summary table: point, commutative flag, pass/fail bits, theta."""
    task_cols = _VERB_TASKS["sweep"]
    lines = ["point,commutative," + ",".join(task_cols) + ",theta"]
    for p, (report, _) in zip(points, results):
        # R is the flip at u0 = 1; at u0 = -1 the two families anticommute
        commutative = "commutative" if p.u0 == 1 else ""
        bits = [_status(report["tasks"][t]) for t in task_cols]
        theta = report["tasks"]["sphere"].get("theta")
        if theta is None:
            theta_txt = ""
        elif isinstance(theta, complex):
            theta_txt = f"{theta.real}{theta.imag:+}j"
        else:
            theta_txt = str(theta)
        lines.append(f"\"{p.label()}\",{commutative}," + ",".join(bits)
                     + f",\"{theta_txt}\"")
    return "\n".join(lines) + "\n"


def _emit_report(report, timings, args):
    if not args.quiet:
        spec = report["spec"]
        print(f"point {spec['params']}  backend {spec['backend']}")
        for task, entry in report["tasks"].items():
            status = _status(entry)
            detail = (f" ({entry['reason']})" if status == "skipped"
                      else f" {entry['error']['detail']}" if "error" in entry else "")
            print(f"  {task}: {status.upper()}{detail}")
        print("PASS" if report["passed"] else "FAIL")
    _print_timings(report, timings)


def _print_timings(report, timings):
    for task, dt in timings.items():
        print(f"[time] {report['spec']['params']} {task} {dt:.2f}s",
              file=sys.stderr)


def main(argv=None) -> int:
    import argparse  # here, so that importing the package does not load it

    parser = argparse.ArgumentParser(
        prog="ncspheres",
        description="Exact verification of the deformed-sphere algebras.")
    parser.add_argument("verb", choices=sorted(_VERB_TASKS),
                        help="which pipeline to run")
    parser.add_argument("--params", default=None,
                        help="parameter point u0,u1,u2 (rationals, default "
                             "3/5,4/5,0; sweep takes none); write "
                             "--params=-1,0,0 when u0 is negative")
    parser.add_argument("--backend", default="exact",
                        choices=("exact", "float"))
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the canonical JSON report here")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the human-readable summary")
    args = parser.parse_args(argv)

    try:
        if args.verb == "sweep":
            if args.params is not None:
                raise InvalidSpec("sweep runs the catalog points and takes no --params")
            points = [DeformParams.parse(lbl) for lbl in CATALOG]
            results = sweep(points, backend_name=args.backend)
            print(sweep_csv(points, results), end="")
            for report, timings in results:
                _print_timings(report, timings)
            payload = [r for r, _ in results]
            passed = all(r["passed"] for r in payload)
        else:
            label = "3/5,4/5,0" if args.params is None else args.params
            spec = RunSpec(params=DeformParams.parse(label),
                           backend_name=args.backend,
                           tasks=_VERB_TASKS[args.verb])
            payload, timings = run(spec)
            _emit_report(payload, timings, args)
            passed = payload["passed"]
    except NCSpheresError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.json is not None:
        try:
            with open(args.json, "w") as fh:
                fh.write(canonical_json(payload))
        except OSError as exc:
            print(f"error: cannot write report to {args.json}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
