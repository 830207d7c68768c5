"""One witness rule: ``ConditionReport.judge`` names what broke every report.

``REGISTRY`` maps each ``ConditionReport`` of a full report to a negative
control and to the exact witness that control makes the report name.  A
control is a builder patched as the other test modules patch it, run
through ``cli.run`` at ``POINT``; it must fail the run and the report.  The
coverage test walks a passing full report and fails on any report that the
registry lacks, so a new check cannot land without a control.
``CHERN_REGISTRY`` does the same for the eight ``vanishing`` and
``closures`` verdicts of the chern task, with the controls of test_cli.
"""

import ast
import functools
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ncspheres import cli, coaction, homology, spheres
from ncspheres.cli import TASKS, RunSpec, run
from ncspheres.ncalg import Algebra, NCPoly
from ncspheres.rmatrix import ConditionReport, DeformParams, build_R_quaternionic
from ncspheres.scalars import EXACT, FLOAT, max_residual
from ncspheres.spheres import YSystem, lead_witness

import mutants
from test_cli import BROKEN_ODD, _e00, _off_by_a_seventh, _plus_entry, _unitary_one
from test_coaction import HOPF_FAULTS, _derivations_plus_identity
from test_spheres import _perturbed

SRC = Path(__file__).resolve().parent.parent / "src" / "ncspheres"
POINT = "1/3,2/3,2/3"


# ---------------------------------------------------------------------------
# judge
# ---------------------------------------------------------------------------


def test_judge_names_the_position_of_the_first_failing_value():
    r = ConditionReport.judge("c", EXACT, [EXACT.zero, EXACT.convert(Fraction(1, 3)),
                                           EXACT.convert(2)], lambda k, _: f"value {k}")
    assert (r.passed, r.max_residual, r.witness) == (False, 2.0, "value 1")


def test_judge_labels_only_the_first_failing_value_of_a_dict():
    calls = []

    def label(key, value):
        calls.append((key, value))
        return f"at {key}"

    third, half = EXACT.convert(Fraction(1, 3)), EXACT.convert(Fraction(1, 2))
    r = ConditionReport.judge("c", EXACT, {("a", 0): EXACT.zero, ("b", 1): third,
                                           ("c", 2): half}, label)
    assert calls == [(("b", 1), third)]
    assert r.to_dict() == {"name": "c", "passed": False, "max_residual": 0.5,
                           "witness": "at ('b', 1)"}


def test_judge_names_a_polynomial_by_its_leading_term():
    alg = Algebra(build_R_quaternionic(DeformParams.parse(POINT), EXACT), EXACT)
    f = alg.x1(0) * alg.x1(2) - alg.x1(0) + alg.one()
    r = ConditionReport.judge("c", EXACT, [alg.zero(), f], lead_witness)
    assert r.witness == "value 1: (1,0)*x1_0*x1_2"


def test_a_float_below_tol_passes_with_its_residual_and_no_witness():
    r = ConditionReport.judge("c", FLOAT, [0j, 1e-12, -3e-10 + 1e-10j], lambda k, v: "bad")
    assert r.passed and r.witness is None
    assert r.max_residual == abs(-3e-10 + 1e-10j)
    assert "witness" not in r.to_dict()


@pytest.mark.parametrize("be", [EXACT, FLOAT], ids=["exact", "float"])
def test_max_residual_is_the_one_over_the_same_values_in_the_same_order(be):
    """Bit for bit what scalars.max_residual gives the values in order, from a
    list, a dict or a generator alike."""
    alg = Algebra(build_R_quaternionic(DeformParams.parse(POINT), be), be)
    values = [be.convert(Fraction(1, 3)) * be.i, alg.x1(1) * be.convert(Fraction(-2, 7)),
              be.convert(Fraction(2, 3)), be.zero]
    want = max_residual(values).hex()
    for defects in (values, dict(enumerate(values)), (v for v in values)):
        assert ConditionReport.judge("c", be, defects, lambda k, _: k).max_residual.hex() == want


# ---------------------------------------------------------------------------
# no report bypasses judge
# ---------------------------------------------------------------------------


def reports_built_outside_judge(sources: dict) -> list:
    """'file:line' of each ConditionReport built, or given a witness, other
    than by ``ConditionReport.judge``: a call of ``ConditionReport``, or of
    ``cls`` or ``type(self)`` in its class, and an assignment to a
    ``witness`` attribute."""
    bad = []
    for name, text in sources.items():
        tree = ast.parse(text)
        inside, judge = set(), set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "ConditionReport":
                inside.update(id(n) for n in ast.walk(cls))
                judge.update(id(n) for fn in cls.body if getattr(fn, "name", None) == "judge"
                             for n in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                builds = (isinstance(f, ast.Name) and f.id == "ConditionReport"
                          or id(node) in inside and (
                              isinstance(f, ast.Name) and f.id == "cls"
                              or isinstance(f, ast.Call) and getattr(f.func, "id", None) == "type"))
            else:
                builds = isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and any(
                    isinstance(t, ast.Attribute) and t.attr == "witness"
                    for t in getattr(node, "targets", [getattr(node, "target", None)]))
            if builds and id(node) not in judge:
                bad.append(f"{name}:{node.lineno}")
    return bad


def test_only_judge_builds_a_condition_report():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert reports_built_outside_judge(sources) == []


def test_the_guard_sees_each_way_round_judge():
    snippet = "\n".join([
        "r = ConditionReport('x', True, 0.0)",
        "r.witness = 'w'",
        "class ConditionReport:",
        "    def judge(cls): return cls('x', True, 0.0)",
        "    def other(self): return type(self)('x', True, 0.0)",
        "    @classmethod",
        "    def passing(cls): return cls('x', True, 0.0)",
        "class Other:",
        "    @classmethod",
        "    def make(cls): return cls()",
    ])
    assert sorted(reports_built_outside_judge({"m.py": snippet})) == \
        ["m.py:1", "m.py:2", "m.py:5", "m.py:7"]


# ---------------------------------------------------------------------------
# the registry: one negative control and witness per report
# ---------------------------------------------------------------------------


def _projection_plus(c, a=0, b=0):
    return lambda mp: mp.setattr(spheres, "build_projection",
                                 _plus_entry(spheres.build_projection, c, a, b))


def _y_system(change):
    """The sphere task's Y system, changed by change(alg, ys), everywhere."""
    def patch(mp):
        real = cli.compute_Y
        mp.setattr(cli, "compute_Y", lambda s: change(s.base, real(s)))

    return patch


def _y_relations(change):
    """The Y system changed for the relation suite and the Y0 flip only, so
    that Lambda's reports, which read compute_Y's system, still pass."""
    def patch(mp):
        for name in ("verify_Y_relations", "y0_flip_check"):
            real = getattr(cli, name)
            mp.setattr(cli, name, lambda s, ys, real=real: real(s, change(s.base, ys)))

    return patch


def _y0_plus_x1_0_x1_2(alg, ys):
    return YSystem((ys.Y[0] + alg.x1(0) * alg.x1(2),) + ys.Y[1:], ys.Ystar, ys.Y4, ys.lam,
                   ys.params)


def _negate_lambda(a, b):
    def change(alg, ys):
        lam = [row[:] for row in ys.lam]
        lam[a][b] = -lam[a][b]
        return YSystem(ys.Y, ys.Ystar, ys.Y4, lam, ys.params)

    return change


# control -> (task, patch); run once each, at POINT on the exact backend
CONTROLS = {
    "R[2][0][0][2] + 1/7": (
        "conditions", lambda mp: mp.setattr(cli, "build_R_quaternionic", _off_by_a_seventh)),
    "p + E_00/3": ("sphere", _projection_plus(Fraction(1, 3))),
    "p + i E_01": ("sphere", _projection_plus(1j, 0, 1)),
    "Y^0 + x1_0 x1_2": ("sphere", _y_relations(_y0_plus_x1_0_x1_2)),
    "Ystar[1] + x1_0 x1_2": ("sphere", _y_relations(_perturbed)),
    "Y4 + x1_0": ("sphere", _y_system(lambda alg, ys: YSystem(
        ys.Y, ys.Ystar, ys.Y4 + alg.x1(0), ys.lam, ys.params))),
    "Lambda[0][0] negated": ("sphere", _y_system(_negate_lambda(0, 0))),
    "Lambda[0][3] negated": ("sphere", _y_system(_negate_lambda(0, 3))),
    "three-sphere without its radius": (
        "sphere", lambda mp: mp.setattr(cli, "three_sphere_context", lambda s, ys: s)),
    "D_a + identity": ("coaction", _derivations_plus_identity),
    "Delta(w1) with one sign flipped": ("coaction", HOPF_FAULTS["hopf_coassociativity"][0]),
    "eps(w1) + 1": ("coaction", HOPF_FAULTS["hopf_counit"][0]),
    "S = identity": ("coaction", HOPF_FAULTS["hopf_antipode"][0]),
}

TENSOR, YSTAR = "R[2][0][0][2] + 1/7", "Ystar[1] + x1_0 x1_2"
REGISTRY = {  # report -> (control, witness)
    "reality": (TENSOR, "indices (lam,alpha,gam,nu)=(2,0,0,2)"),
    "symmetry_chain": (TENSOR, "inverse at (2,0,0,2)"),
    "quadratic_1": (TENSOR, "(2,0,0,0,1,3)"),
    "quadratic_2": (TENSOR, "(0,0,1,2,1,2)"),
    "involutive": (TENSOR, "(2, 4) -> (2, 4)"),
    "yang_baxter": (TENSOR, "(0, 2, 4) -> (5, 2, 1)"),
    "projection_hermitian": ("p + i E_01", "entry (0, 1)"),
    "projection_idempotent": ("p + E_00/3", "entry (0, 0)"),
    "projection_half_trace": ("p + E_00/3", "(1/3,0)"),
    "y_closed_form": ("Y^0 + x1_0 x1_2", "value 0: (1,0)*x1_0*x1_2"),
    "ystar_closed_form": (YSTAR, "value 1: (1,0)*x1_0*x1_2"),
    "y4_central_hermitian": ("Y4 + x1_0", "value 5: (0,2/3)*x1_1*x2_2"),
    "cond0_imaginary_parts": (YSTAR, "value 0: (-16/27,32/27)*x1_1*x1_3^2*x2_3"),
    "cond0_radius": (YSTAR, "value 0: (-16/27,32/27)*x1_1*x1_3^2*x2_2"),
    "cond0_products_equal": (YSTAR, "value 0: (-16/27,32/27)*x1_1*x1_3^2*x2_2"),
    "cond00_y4_commutes": ("Y4 + x1_0", "value 0: (16/9,4/9)*x1_1*x1_3*x2_2"),
    "sp_commutation_1": (YSTAR, "value 0: (-2/3,4/3)*x1_0*x1_2*x1_3*x2_3"),
    "sp_commutation_2": (YSTAR, "value 0: (-16/27,32/27)*x1_1*x1_3^2*x2_3"),
    "sp_total_sum": (YSTAR, "value 0: (-16/27,32/27)*x1_1*x1_3^2*x2_2"),
    "four_sphere_radius": (YSTAR, "value 0: (-16/27,32/27)*x1_1*x1_3^2*x2_2"),
    "radius_sums_central": (YSTAR, "value 0: (16/9,4/9)*x1_0*x1_1*x1_2*x1_3*x2_3"),
    "radius_product_identity": (YSTAR, "value 0: (-2/3,4/3)*x1_0*x1_2*x1_3*x2_2"),
    "family_commutation_relations": ("Y^0 + x1_0 x1_2", "relation 1"),
    "lambda_symmetric": ("Lambda[0][3] negated", "entry (0, 3)"),
    "lambda_unitary": ("Lambda[0][0] negated", "entry (0, 3)"),
    "lambda_star_identity": ("Lambda[0][0] negated", "value 0: (20/9,0)*x1_3*x2_3"),
    "lambda_closed_form": ("Lambda[0][0] negated", "entry (0, 0)"),
    "y0_flip_variant_relations": (YSTAR, "value 0: (-16/27,32/27)*x1_1*x1_3^2*x2_3"),
    "three_sphere_radius": ("three-sphere without its radius", "value 0: (-4,0)*x1_3^4"),
    "suspension_y4_squared": ("three-sphere without its radius", "value 0: (4,0)*x1_3^4"),
    "derivations_kill_y_system": ("D_a + identity", "value 0: (2/3,-4/3)*x1_3*x2_3"),
    "derivation_leibniz": ("D_a + identity", "value 0: (-1,0)*x1_0^2"),
    "derivation_su2_bracket": ("D_a + identity", "value 0: (2,0)*x1_0"),
    "hopf_coassociativity": ("Delta(w1) with one sign flipped",
                             "w0: (Delta x id) Delta != (id x Delta) Delta"),
    "hopf_counit": ("eps(w1) + 1", "w0: (eps x id) Delta != id"),
    "hopf_antipode": ("S = identity", "w0: m (S x id) Delta != eps 1"),
}


def condition_reports(node) -> list:
    """Every ConditionReport dict anywhere in a run report, in order."""
    if isinstance(node, dict):
        own = [node] if {"name", "passed", "max_residual"} <= node.keys() else []
        return own + [r for value in node.values() for r in condition_reports(value)]
    if isinstance(node, list):
        return [r for value in node for r in condition_reports(value)]
    return []


@functools.cache
def control_report(control: str) -> dict:
    """The run report of one control's task, the Hopf caches cold around it."""
    task, patch = CONTROLS[control]
    caches = (coaction.check_hopf_axioms, coaction._hopf_gens)
    with pytest.MonkeyPatch.context() as mp:
        for cache in caches:
            cache.cache_clear()
        patch(mp)
        report, _ = run(RunSpec(params=DeformParams.parse(POINT), tasks=(task,)))
    for cache in caches:
        cache.cache_clear()
    return report


@functools.cache
def full_report() -> dict:
    """The passing run report of every task at POINT, exact."""
    report, _ = run(RunSpec(params=DeformParams.parse(POINT), tasks=TASKS))
    return report


def test_the_registry_names_every_report_of_a_full_report():
    report = full_report()
    assert report["passed"]
    reports = condition_reports(report)
    names = [r["name"] for r in reports]
    assert len(names) == len(set(names)) == 36
    assert set(names) == set(REGISTRY)
    assert all("witness" not in r for r in reports)
    assert {control for control, _ in REGISTRY.values()} == set(CONTROLS)


@pytest.mark.parametrize("name", list(REGISTRY))
def test_the_control_fails_the_report_and_names_its_witness(name):
    control, witness = REGISTRY[name]
    report = control_report(control)
    assert report["passed"] is False
    got, = (r for r in condition_reports(report) if r["name"] == name)
    assert got["passed"] is False and got["max_residual"] > 0
    assert got["witness"] == witness


# ---------------------------------------------------------------------------
# the Chern verdicts: one negative control and witness each
# ---------------------------------------------------------------------------


def _chern_odd_words(verdict):
    """A chern_odd that returns test_cli's broken odd words for one verdict."""
    return lambda mp: mp.setattr(cli, "chern_odd", lambda ctx, U, k: homology.FactoredTrace(
        ctx, BROKEN_ODD[verdict](U, U.dagger(), k)))


def _constant_e00_and_one(mp):
    mp.setattr(cli, "build_projection", _e00)
    mp.setattr(cli, "embed_M2", _unitary_one)


# control -> patch; run once each through the chern task, at POINT on the exact backend
CHERN_CONTROLS = {
    "p + E_00/3": lambda mp: mp.setattr(
        cli, "build_projection", _plus_entry(cli.build_projection, Fraction(1, 3))),
    "constant E_00 and unitary 1": _constant_e00_and_one,
    "odd words of one sign": _chern_odd_words("ch_half_zero"),
    "second odd word U x U x U* x U*": _chern_odd_words("b_ch32_zero"),
}

P_E00, EMPTY = "p + E_00/3", "the chain has no terms"
CHERN_REGISTRY = {  # vanishing or closures verdict -> (control, witness)
    "ch0_zero": (P_E00, "(1/3,0)"),
    "ch_half_zero": ("odd words of one sign", "(16/3,-32/3)*x1_0*x2_0 (x) (1,0)*x1_0*x2_0"),
    "ch1_zero": (P_E00, "(1/3,0) (x) (1,0)*x1_0^2 (x) (1,0)*x1_0^2"),
    "ch2_nonzero": ("constant E_00 and unitary 1", EMPTY),
    "ch_3half_nonzero": ("constant E_00 and unitary 1", EMPTY),
    "b_ch2_zero": (P_E00, "(-1/3,0) (x) (1,0)*x1_0^2 (x) (1,0)*x1_0^2 (x) (1,0)*x1_0^2"),
    "b_ch32_zero": ("second odd word U x U x U* x U*",
                    "(64/9,-224/27) (x) (1,0)*x1_0*x2_0 (x) (1,0)*x1_0*x2_0"),
    "B_ch0_equals_b_ch1": (P_E00, "(1/3,0) (x) (1,0)*x1_0^2"),
}


@functools.cache
def chern_control_task(control: str) -> dict:
    """The chern task of one Chern control's run report."""
    with pytest.MonkeyPatch.context() as mp:
        CHERN_CONTROLS[control](mp)
        report, _ = run(RunSpec(params=DeformParams.parse(POINT), tasks=("chern",)))
    return report["tasks"]["chern"]


def test_the_chern_registry_names_every_verdict_of_a_full_report():
    chern = full_report()["tasks"]["chern"]
    verdicts = {**chern["vanishing"], **chern["closures"]}
    assert all(verdicts.values()) and "witnesses" not in chern
    assert verdicts.keys() == CHERN_REGISTRY.keys()
    assert {control for control, _ in CHERN_REGISTRY.values()} == set(CHERN_CONTROLS)


@pytest.mark.parametrize("name", list(CHERN_REGISTRY))
def test_the_chern_control_fails_the_verdict_and_names_its_witness(name):
    control, witness = CHERN_REGISTRY[name]
    chern = chern_control_task(control)
    assert chern["passed"] is False
    assert {**chern["vanishing"], **chern["closures"]}[name] is False
    assert chern["witnesses"][name] == witness


def test_no_sphere_control_ends_the_task_in_error():
    for control, (task, _) in CONTROLS.items():
        if task == "sphere":
            assert "error" not in control_report(control)["tasks"]["sphere"], control


def test_a_radius_sum_that_is_not_central_fails_its_report_and_keeps_the_others(
        monkeypatch, tmp_path, capsys):
    """Y^0 + x1_0 x1_2 in the whole Y system: the three-sphere cannot divide
    by a radius sum that is not central, so its two suspension reports are
    left out, and the task fails through radius_sums_central, not an error."""
    _y_system(_y0_plus_x1_0_x1_2)(monkeypatch)
    out = tmp_path / "out.json"
    assert cli.main(["sphere", "--params", POINT, "--quiet", "--json", str(out)]) == 1
    sphere = json.loads(out.read_text())["tasks"]["sphere"]
    assert sphere["passed"] is False and "error" not in sphere
    reports = {r["name"]: r for r in sphere["reports"]}
    assert len(sphere["reports"]) == len(reports) == 22
    assert not {"three_sphere_radius", "suspension_y4_squared"} & reports.keys()
    assert reports["radius_sums_central"]["witness"] == \
        "value 0: (0,32/27)*x1_1^2*x1_3^2*x2_2"


# ---------------------------------------------------------------------------
# verdicts outside the registry: one negative control each
# ---------------------------------------------------------------------------


def _run_patched(task: str, patch, label: str = POINT) -> dict:
    """The exact run report of one task, with patch(monkeypatch) applied."""
    with pytest.MonkeyPatch.context() as mp:
        patch(mp)
        report, _ = run(RunSpec(params=DeformParams.parse(label), tasks=(task,)))
    assert report["passed"] is False
    return report


class _DoubledExchange(Algebra):
    """The algebra with the first coefficient of the rule x2_0 x1_0 -> ... doubled."""

    def __init__(self, R, backend):
        super().__init__(R, backend)
        (key, c), *rest = self.exchange[(4, 0)]
        self.exchange[(4, 0)] = [(key, c + c), *rest]


@pytest.mark.parametrize("label", [POINT, "3/5,4/5,0"])
def test_a_doubled_exchange_coefficient_fails_confluence(label):
    report = _run_patched("algebra", lambda mp: mp.setattr(cli, "Algebra", _DoubledExchange),
                          label)
    algebra = report["tasks"]["algebra"]
    assert algebra["passed"] is False and algebra["confluent"] is False
    assert algebra["witness"] == "word (4, 1, 0)"
    assert report["tasks"]["conditions"]["passed"]


def _corep_times_i(mp):
    """The right-multiplication table with entry [0][0] multiplied by i."""
    real = coaction.corep_matrix

    def corep(backend, *, right):
        h = real(backend, right=right)
        if right:
            h[0][0] = h[0][0].scale(backend.i)
        return h

    mp.setattr(coaction, "corep_matrix", corep)


def test_a_corepresentation_entry_times_i_fails_the_comodule_and_canonical_checks():
    task = _run_patched("coaction", _corep_times_i)["tasks"]["coaction"]
    assert task["passed"] is False
    comodule = task["comodule"]
    assert [comodule[k] for k in ("relations_preserved", "star_compatible", "coassociative",
                                  "counit_law", "passed")] == [False] * 5
    assert comodule["failures"] and comodule["max_residual"] > 0
    assert task["canonical_witness"]["passed"] is False
    assert task["canonical_witness"]["max_residual"] > 0


def _coinvariants_plus_x1_0_x2_0(mp):
    """Degree-2 coinvariants with x1_0 x2_0, which D_a does not kill, appended."""
    real = coaction.coinvariants

    def coinvariants(alg, degree):
        vecs = real(alg, degree)
        return vecs + [alg.x1(0) * alg.x2(0)] if degree == 2 else vecs

    mp.setattr(coaction, "coinvariants", coinvariants)


def test_a_coinvariant_that_delta_moves_fails_delta_fixes_kernel():
    task = _run_patched("coaction", _coinvariants_plus_x1_0_x2_0)["tasks"]["coaction"]
    assert task["passed"] is False
    coinv = task["coinvariants"]
    assert coinv["dim_degree_2"] == 7
    assert coinv["equals_y_span"] is False
    assert coinv["delta_fixes_kernel"] is False
    assert task["comodule"]["passed"] and task["canonical_witness"]["passed"]


def _twice_d_a_on_degree_two(mp):
    """D_a with its degree-2 terms doubled: still zero on the Y system, but
    D_a(f g) != D_a(f) g + f D_a(g) on a pair of generators it moves."""
    real = coaction.derivation

    def derivation(alg, a, f):
        return NCPoly(alg, {m: c + c if sum(m) == 2 else c
                            for m, c in real(alg, a, f).terms.items()})

    mp.setattr(coaction, "derivation", derivation)


def test_twice_d_a_on_degree_two_fails_the_leibniz_rule_alone():
    task = _run_patched("coaction", _twice_d_a_on_degree_two)["tasks"]["coaction"]
    assert task["passed"] is False
    kill_y, leibniz, su2 = task["derivations"]
    assert kill_y["name"] == "derivations_kill_y_system" and kill_y["passed"]
    assert su2["name"] == "derivation_su2_bracket" and su2["passed"]
    assert leibniz["name"] == "derivation_leibniz" and leibniz["passed"] is False
    assert leibniz["witness"] == "value 0: (2,0)*x1_0*x1_1"


def _lambda_defect(mp):
    """homology's Lambda defects with the first symmetry entry set to 1."""
    real = homology.lambda_defects

    def defects(lam, be):
        sym, uni = real(lam, be)
        return [be.one] + sym[1:], uni

    mp.setattr(homology, "lambda_defects", defects)


def test_a_lambda_defect_without_a_chain_defect_fails_the_star_chain_equivalence():
    report = _run_patched("chern", _lambda_defect)
    chern = report["tasks"]["chern"]
    assert chern["passed"] is False
    vanzz = chern["star_chain_equivalence"]
    assert vanzz["chain_vanishes"] is True
    assert vanzz["lambda_symmetric_unitary"] is False
    assert vanzz["agree"] is False
    assert all(chern["vanishing"].values()) and all(chern["closures"].values())


def test_every_census_control_is_collected():
    """tests/mutants.py counts a survivor as killed when its one pytest call
    on mutants.CONTROLS exits nonzero, as it does on a node id that no longer
    exists."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *mutants.CONTROLS], cwd=mutants.ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
