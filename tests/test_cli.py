"""Driver pipeline: spec validation, reports, sweeps, exit codes."""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from ncspheres import cli, spheres
from ncspheres.cli import (CATALOG, RunSpec, canonical_json, main, run, sweep,
                           sweep_csv)
from ncspheres.errors import InvalidSpec, ParamsNotOnSphere
from ncspheres.homology import FactoredTrace, b_boundary, trace_chain
from ncspheres.quatlin import Mat
from ncspheres.rmatrix import DeformParams, build_R_quaternionic
from ncspheres.scalars import GaussRational


def _spec(label="3/5,4/5,0", tasks=("conditions",), **kw):
    return RunSpec(params=DeformParams.parse(label), tasks=tasks, **kw)


def test_spec_validation_rejects_bad_input():
    with pytest.raises(InvalidSpec):
        _spec(tasks=()).validate()
    with pytest.raises(InvalidSpec):
        _spec(tasks=("conditions", "frobnicate")).validate()
    with pytest.raises(InvalidSpec):
        _spec(backend_name="quantum").validate()
    with pytest.raises(ParamsNotOnSphere):
        _spec("1/2,0,0").validate()


def test_closure_adds_prerequisites():
    assert _spec(tasks=("coaction",)).closure() == \
        ("conditions", "algebra", "sphere", "coaction")
    assert _spec(tasks=("chern",)).closure() == \
        ("conditions", "algebra", "sphere", "chern")
    assert _spec(tasks=("conditions",)).closure() == ("conditions",)


def test_exact_run_reports_are_byte_identical():
    spec = _spec(tasks=("conditions", "algebra"))
    r1, _ = run(spec)
    r2, _ = run(_spec(tasks=("conditions", "algebra")))
    assert r1["passed"]
    assert canonical_json(r1) == canonical_json(r2)
    assert r1["spec"]["params"] == "3/5,4/5,0"
    assert r1["spec"]["tasks"] == ["conditions", "algebra"]


def test_canonical_json_renders_exact_scalars():
    blob = {"g": GaussRational(Fraction(-7, 25), Fraction(24, 25)),
            "z": complex(0.5, -1.0)}
    back = json.loads(canonical_json(blob))
    assert back["g"] == "(-7/25,24/25)"
    assert back["z"] == [0.5, -1.0]
    # reports hold backend scalars only; a bare Fraction is not one
    with pytest.raises(TypeError):
        canonical_json({"f": Fraction(3, 5)})


def test_failing_task_skips_downstream(monkeypatch, capsys):
    def boom(spec, state):
        raise InvalidSpec("forced failure")

    monkeypatch.setitem(cli._TASKS, "algebra", (boom, cli._TASKS["algebra"][1]))
    report, _ = run(_spec(tasks=("sphere",)))
    assert not report["passed"]
    assert report["tasks"]["conditions"]["passed"]
    assert report["tasks"]["algebra"]["error"]["detail"] == "forced failure"
    assert report["tasks"]["sphere"] == {
        "skipped": True, "reason": "prerequisite 'algebra' failed"}
    # the summary prints each status once: PASS, FAIL with the error's
    # detail, SKIPPED with the reason
    capsys.readouterr()
    assert main(["sphere", "--params", "3/5,4/5,0"]) == 1
    assert capsys.readouterr().out == (
        "point 3/5,4/5,0  backend exact\n"
        "  conditions: PASS\n"
        "  algebra: FAIL forced failure\n"
        "  sphere: SKIPPED (prerequisite 'algebra' failed)\n"
        "FAIL\n")


def test_a_failed_verdict_prints_fail_without_a_detail(monkeypatch, capsys):
    """A task that fails a verdict, not by an error, prints a bare FAIL."""
    monkeypatch.setattr(cli, "build_R_quaternionic", _off_by_a_seventh)
    assert main(["check", "--params", "1/3,2/3,2/3"]) == 1
    assert capsys.readouterr().out == (
        "point 1/3,2/3,2/3  backend exact\n"
        "  conditions: FAIL\n"
        "FAIL\n")


def test_negative_first_coordinate_runs_in_the_equals_form(capsys):
    """argparse reads a bare -1,0,0 as a flag; --params=-1,0,0 is the point."""
    assert main(["sphere", "--params=-1,0,0", "--quiet"]) == 0
    capsys.readouterr()


def test_failing_task_skips_only_the_tasks_that_list_it(monkeypatch, capsys):
    """coaction does not list chern as a prerequisite, so it runs and passes
    when chern fails; the report and the report verb still fail."""
    def boom(spec, state):
        raise InvalidSpec("forced chern failure")

    monkeypatch.setitem(cli._TASKS, "chern", (boom, cli._TASKS["chern"][1]))
    report, _ = run(_spec("1,0,0", tasks=cli.TASKS))
    assert not report["passed"]
    assert report["tasks"]["chern"] == {
        "passed": False,
        "error": {"type": "InvalidSpec", "detail": "forced chern failure"}}
    assert report["tasks"]["coaction"]["passed"]
    assert main(["report", "--params", "1,0,0", "--quiet"]) == 1
    capsys.readouterr()


def test_sweep_needs_points():
    with pytest.raises(InvalidSpec):
        sweep([])


def test_sweep_preserves_order_and_flags():
    """Only 1,0,0 is commutative: at -1,0,0 the families anticommute,
    x2_0 x1_0 = -x1_0 x2_0."""
    labels = ["1,0,0", "3/5,4/5,0", "-1,0,0"]
    points = [DeformParams.parse(lbl) for lbl in labels]
    results = sweep(points)
    assert all(r["passed"] for r, _ in results)
    assert [r["spec"]["params"] for r, _ in results] == labels
    csv = sweep_csv(points, results)
    lines = csv.strip().split("\n")
    assert lines[0] == "point,commutative,conditions,algebra,sphere,coaction,theta"
    assert lines[1].startswith('"1,0,0",commutative,pass,pass,pass,pass')
    assert lines[2].startswith('"3/5,4/5,0",,pass,pass,pass,pass')
    assert '"(-7/25,24/25)"' in lines[2]
    assert lines[3].startswith('"-1,0,0",,pass,pass,pass,pass')


# stereographic (s, t) = (1e-5, 0): a valid point where the float backend
# prunes a coefficient near its 1e-9 tolerance in one product and keeps it in another
NEAR_TOLERANCE = "9999999999/10000000001,200000/10000000001,0"


@pytest.mark.parametrize("backend", [
    "exact",
    pytest.param("float", marks=pytest.mark.xfail(
        strict=True, reason="the float backend prunes coefficients near its tolerance")),
])
def test_sphere_passes_near_the_float_tolerance(backend, capsys):
    assert main(["sphere", "--backend", backend, "--params", NEAR_TOLERANCE, "--quiet"]) == 0


def _is_rational_square(q: Fraction) -> bool:
    return all(math.isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))


def test_sweep_tasks_pass_at_generic_rational_points():
    """Ten points u = (1 - s^2 - t^2, 2s, 2t) / (1 + s^2 + t^2) with random
    rationals s, t of both signs (t = 0 at every third point), denominators
    up to about 10^17, and one with s = 0, t = 10^163, where u2 ~ 2e-163 is
    below what a squared float ratio can hold: every sweep task passes,
    normality holds exactly where u2 = 0, and the eigenphase is called
    irrational exactly where u1^2 + u2^2 is not a rational square."""
    rng = random.Random(15)

    def draw():
        return rng.choice((-1, 1)) * Fraction(rng.randint(1, 30000),
                                              rng.randint(1, 30000))

    points = []
    for k in range(10):
        s, t = draw(), (Fraction(0) if k % 3 == 0 else draw())
        d = 1 + s * s + t * t
        points.append(DeformParams((1 - s * s - t * t) / d, 2 * s / d, 2 * t / d))
    q = Fraction(10**163)
    points.append(DeformParams((q * q - 1) / (q * q + 1), Fraction(0), 2 * q / (q * q + 1)))
    assert {p.u1 > 0 for p in points} == {p.u2 > 0 for p in points if p.u2} == {True, False}
    for p, (report, _) in zip(points, sweep(points)):
        sphere = report["tasks"]["sphere"]
        assert report["passed"], p.label()
        assert sphere["normality_matches_boundary"], p.label()
        irrational = not _is_rational_square(p.u1 * p.u1 + p.u2 * p.u2)
        assert (sphere["theta_note"] is not None) == irrational, p.label()
        assert (sphere["theta"] is None) == irrational, p.label()


def test_main_exit_codes(tmp_path, capsys):
    assert main(["check", "--quiet"]) == 0
    assert main(["check", "--backend", "float", "--quiet"]) == 0
    assert main(["check", "--params", "frog"]) == 2
    assert main(["check", "--params", "1/2,0,0"]) == 2
    # norm^2 is 1 + 10^-24: within any float tolerance, still off the sphere
    for verb in ("check", "report"):
        assert main([verb, "--backend", "float", "--quiet",
                     "--params", "3/5,4/5,1/1000000000000"]) == 2
        assert "ParamsNotOnSphere" in capsys.readouterr().err
    # one error line, never a traceback: a literal past the 2000-digit limit
    # (past it, an off-sphere norm^2 in the error and, at the 2153-digit point
    # on the sphere, the eigenphase in the JSON report would not print),
    # a digit that is not ASCII, and any --params given to sweep
    big = "1" + "0" * 5000
    m, n = 10 ** 1076 + 7, 3 * 10 ** 1075 + 1
    c = m * m + n * n
    on_sphere = f"{m * m - n * n}/{c},{2 * m * n}/{c},0"
    for argv, why in ((["check", "--params", f"{big},0,0"], "more than 2000 digits"),
                      (["check", "--params", f"1/{big},0,0"], "more than 2000 digits"),
                      (["check", "--params", "1" + "0" * 3000 + ",0,0"], "more than 2000 digits"),
                      (["sphere", "--json", str(tmp_path / "r.json"), "--params", on_sphere],
                       "more than 2000 digits"),
                      (["check", "--params", "\u0663/5,4/5,0"], "not a rational literal"),
                      (["sweep", "--params", "abc"], "sweep runs the catalog points"),
                      (["sweep", "--params", "3/5,4/5,0"], "sweep runs the catalog points")):
        assert main(argv + ["--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and why in err
    capsys.readouterr()


def test_importing_the_cli_loads_neither_dataclasses_argparse_nor_hashlib():
    """Every verb, pin child and benchmark worker pays the package's imports,
    so the package loads no module its verbs do not run: only main parses,
    and only a chain digest hashes."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ncspheres.cli; "
            "print(sorted({'dataclasses', 'argparse', 'hashlib'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_main_returns_one_on_task_failure(monkeypatch, capsys):
    monkeypatch.setitem(
        cli._TASKS, "conditions",
        (lambda spec, state: {"passed": False, "error": {"detail": "nope"}}, ()))
    assert main(["check", "--quiet"]) == 1
    capsys.readouterr()


def _schema():
    return json.loads(resources.files("ncspheres")
                      .joinpath("schema/run_report.schema.json").read_text())


def _plus_entry(real, c, a=0, b=0):
    """A build_projection that returns p + c E_ab, which is not a projection;
    c is a number, or 1j for the backend's i."""
    def perturbed(s):
        p = real(s)
        rows = [list(r) for r in p.rows]
        rows[a][b] = rows[a][b] + s.base.scalar(s.base.backend.i if c == 1j else c)
        return Mat(rows)

    return perturbed


def test_non_idempotent_projection_fails_the_b_ch2_closure(
        monkeypatch, tmp_path, capsys):
    """Negative control for ch0 = 0, ch1 = 0, B(ch0) = b(ch1) and b(ch2) = 0,
    on both backends: p + E_00/3 is not a projection."""
    monkeypatch.setattr(cli, "build_projection",
                        _plus_entry(cli.build_projection, Fraction(1, 3)))
    exact_witnesses = {
        "ch0_zero": "(1/3,0)",
        "ch1_zero": "(1/3,0) (x) (1,0)*x1_0^2 (x) (1,0)*x1_0^2",
        "B_ch0_equals_b_ch1": "(1/3,0) (x) (1,0)*x1_0^2",
        "b_ch2_zero": "(-1/3,0) (x) (1,0)*x1_0^2 (x) (1,0)*x1_0^2 (x) (1,0)*x1_0^2",
    }
    for backend in ("exact", "float"):
        out = tmp_path / f"chern_{backend}.json"
        assert main(["chern", "--backend", backend, "--quiet",
                     "--json", str(out)]) == 1
        capsys.readouterr()
        report = json.loads(out.read_text())
        chern = report["tasks"]["chern"]
        assert not chern["passed"]
        # exactly these verdicts fail: the odd components do not read p,
        # and ch2 stays nonzero
        failing = {name for verdicts in (chern["vanishing"], chern["closures"])
                   for name, ok in verdicts.items() if not ok}
        assert failing == set(exact_witnesses), backend
        # every failing zero-verdict, and only those, names the first term of
        # its chain: for b(ch2), -1/3 (x) x1_0^2 (x) x1_0^2 (x) x1_0^2
        assert set(chern["witnesses"]) == failing
        if backend == "exact":
            assert chern["witnesses"] == exact_witnesses
        else:  # the exact witnesses' terms, each coefficient within 1e-9
            for name, want in exact_witnesses.items():
                coeff, *slots = chern["witnesses"][name].split(" (x) ")
                sign = -1 if want.startswith("(-") else 1
                assert abs(complex(coeff) - sign / 3) < 1e-9, name
                assert slots == ["(1+0j)*x1_0^2"] * want.count(" (x) "), name
        jsonschema.validate(report, _schema())


def _e00(s):
    """A build_projection that returns the constant idempotent E_00."""
    return Mat([[s.base.one() if a == b == 0 else s.base.zero() for b in range(4)]
                for a in range(4)])


def _unitary_one(Y, i):
    """An embed_M2 that returns the constant unitary 1."""
    alg = Y[0].algebra
    return Mat([[alg.one() if a == b else alg.zero() for b in range(2)] for a in range(2)])


def test_constant_projection_and_unitary_fail_the_nonzero_verdicts(
        monkeypatch, tmp_path, capsys):
    """Negative controls for ch2 != 0 and ch_3half != 0: the constant
    idempotent E_00 and the constant unitary 1 have no component of degree
    >= 1 in normalized chains, so both verdicts are false, each with a
    witness that says its chain is empty, and chern exits 1."""
    monkeypatch.setattr(cli, "build_projection", _e00)
    monkeypatch.setattr(cli, "embed_M2", _unitary_one)
    out = tmp_path / "chern.json"
    assert main(["chern", "--quiet", "--json", str(out)]) == 1
    capsys.readouterr()
    report = json.loads(out.read_text())
    chern = report["tasks"]["chern"]
    assert not chern["passed"]
    assert chern["vanishing"]["ch2_nonzero"] is False
    assert chern["vanishing"]["ch_3half_nonzero"] is False
    failing = {name for verdicts in (chern["vanishing"], chern["closures"])
               for name, ok in verdicts.items() if not ok}
    assert set(chern["witnesses"]) == failing
    assert chern["witnesses"]["ch2_nonzero"] == "the chain has no terms"
    assert chern["witnesses"]["ch_3half_nonzero"] == "the chain has no terms"
    jsonschema.validate(report, _schema())


def test_non_idempotent_projection_fails_the_idempotency_report(
        monkeypatch, tmp_path, capsys):
    """Negative control for p^2 = p: the report names entry (0, 0), also when
    the defect, 10^-170, is below what squaring a float could represent."""
    real = spheres.build_projection
    for c in (Fraction(1, 3), Fraction(1, 10**170)):
        monkeypatch.setattr(spheres, "build_projection", _plus_entry(real, c))
        out = tmp_path / "sphere.json"
        assert main(["sphere", "--quiet", "--json", str(out)]) == 1, c
        capsys.readouterr()
        task = json.loads(out.read_text())["tasks"]["sphere"]
        assert not task["passed"]
        idem = next(r for r in task["reports"] if r["name"] == "projection_idempotent")
        assert idem["passed"] is False
        assert idem["max_residual"] > 0
        assert "(0, 0)" in idem["witness"]


def test_broken_projection_fails_hermiticity_and_half_trace_with_witnesses(
        monkeypatch, tmp_path, capsys):
    """Negative controls for p = p* and tr p = 2 on both backends: p + i E_01 is
    not hermitian, first at entry (0, 1), and p + E_00/3 has trace 2 + 1/3, whose
    reduced defect leads with the constant 1/3 (on floats within 1e-9).  The
    other verdict passes and, as every passing report, carries no witness."""
    real = spheres.build_projection
    cases = [
        (_plus_entry(real, 1j, 0, 1), "projection_hermitian", "projection_half_trace",
         {"exact": "entry (0, 1)", "float": "entry (0, 1)"}),
        (_plus_entry(real, Fraction(1, 3)), "projection_half_trace", "projection_hermitian",
         {"exact": "(1/3,0)", "float": 1 / 3}),
    ]
    for build, broken, intact, witnesses in cases:
        monkeypatch.setattr(spheres, "build_projection", build)
        for backend in ("exact", "float"):
            out = tmp_path / f"sphere_{backend}.json"
            assert main(["sphere", "--backend", backend, "--quiet",
                         "--json", str(out)]) == 1, (broken, backend)
            capsys.readouterr()
            task = json.loads(out.read_text())["tasks"]["sphere"]
            assert not task["passed"]
            reports = {r["name"]: r for r in task["reports"]}
            assert reports[broken]["passed"] is False
            assert reports[broken]["max_residual"] > 0
            got, want = reports[broken]["witness"], witnesses[backend]
            if isinstance(want, float):
                assert abs(complex(got) - want) < 1e-9, got
            else:
                assert got == want, (broken, backend)
            assert reports[intact]["passed"] is True
            assert "witness" not in reports[intact]


def test_json_report_validates_against_schema(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["sphere", "--quiet", "--json", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    report = json.loads(text)
    jsonschema.validate(report, _schema())
    # canonical: sorted keys, trailing newline
    assert text == canonical_json(report)
    assert set(report["tasks"]) == {"conditions", "algebra", "sphere"}


@pytest.mark.parametrize("verb", ["check", "sweep"])
def test_unwritable_json_path_is_a_usage_error(verb, tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    assert main([verb, "--quiet", "--json", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write report to {path}: " in err
    assert not path.exists()


def test_catalog_points_sit_on_the_sphere():
    for label in CATALOG:
        DeformParams.parse(label).validate()


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "1e-9"])
def test_main_rejects_bad_tolerance(tol, capsys):
    """The float tolerance is fixed at FLOAT.tol: any --tol, even the old
    default, is a usage error, never a run that silently ignores it."""
    with pytest.raises(SystemExit) as exc:
        main(["check", "--backend", "float", "--tol", tol, "--quiet"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_sphere_report_names_are_unique():
    report, _ = run(_spec(tasks=("sphere",)))
    names = [r["name"] for r in report["tasks"]["sphere"]["reports"]]
    assert "lambda_symmetric" in names
    assert len(names) == len(set(names)), names


def _off_by_a_seventh(params, backend):
    """A build_R_quaternionic whose entry R[2][0][0][2] is off by 1/7."""
    R = build_R_quaternionic(params, backend)
    R.data[2][0][0][2] = R.data[2][0][0][2] + GaussRational(Fraction(1, 7), 0)
    return R


def test_perturbed_tensor_fails_the_symmetry_chain_report(
        monkeypatch, tmp_path, capsys):
    """The check verb exits 1 on a tensor with one entry off by 1/7, and the
    symmetry_chain report names that entry."""
    monkeypatch.setattr(cli, "build_R_quaternionic", _off_by_a_seventh)
    out = tmp_path / "check.json"
    assert main(["check", "--quiet", "--json", str(out)]) == 1
    reports = {r["name"]: r for r in
               json.loads(out.read_text())["tasks"]["conditions"]["reports"]}
    chain = reports["symmetry_chain"]
    assert not chain["passed"] and chain["max_residual"] > 0
    assert chain["witness"] == "inverse at (2,0,0,2)"



# odd components that must fail one verdict each, as (sign, word) lists of
# U, U* and k: the sign-flipped <U x U* x ...> + <U* x U x ...>, whose ch_half
# does not vanish, and <U x U* x U x U*> - <U x U x U* x U*>, no cycle
BROKEN_ODD = {
    "ch_half_zero": lambda U, Ud, k: [(1, [U, Ud] * (k + 1)), (1, [Ud, U] * (k + 1))],
    "b_ch32_zero": lambda U, Ud, k: [(1, [U, Ud] * (k + 1)), (-1, [U] * (k + 1) + [Ud] * (k + 1))],
}


@pytest.mark.parametrize("verdict", sorted(BROKEN_ODD))
def test_broken_odd_components_fail_the_chern_task(verdict, monkeypatch, tmp_path, capsys):
    """chern exits 1 with exactly the one verdict false; its witness is the
    first term of the expanded chain (of its b for b_ch32_zero), and the
    factored components' digests are the expanded chains'."""
    expanded = {}

    def broken(ctx, U, k):
        words = BROKEN_ODD[verdict](U, U.dagger(), k)
        (_, first), (sign, second) = words
        a, b = trace_chain(ctx, first), trace_chain(ctx, second)
        expanded[k] = a + b if sign > 0 else a - b
        return FactoredTrace(ctx, words)

    monkeypatch.setattr(cli, "chern_odd", broken)
    out = tmp_path / "chern.json"
    assert main(["chern", "--quiet", "--json", str(out)]) == 1
    capsys.readouterr()
    chern = json.loads(out.read_text())["tasks"]["chern"]
    verdicts = {**chern["vanishing"], **chern["closures"]}
    assert {name for name, ok in verdicts.items() if not ok} == {verdict}
    want = expanded[0] if verdict == "ch_half_zero" else b_boundary(expanded[1])
    assert chern["witnesses"] == {verdict: want.first_term()}
    for k, name in enumerate(("ch_half", "ch_3half")):
        got = chern["components"][name]
        assert {key: got[key] for key in ("n_terms", "sha256")} == \
            {key: expanded[k].digest()[key] for key in ("n_terms", "sha256")}
