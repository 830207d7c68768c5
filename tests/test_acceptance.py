"""Release gate: one test per acceptance criterion.

Each criterion is a single test function, so `pytest -v` prints one
pass/fail line per criterion.  Exact-backend identities must land on
residual 0.0, float-backend residuals are bounded by 1e-9, and the three
heavyweight suites carry explicit wall-clock budgets.
"""

import functools
import math
import operator
import random
import time
from fractions import Fraction

import pytest

from ncspheres.cli import (CATALOG, RunSpec, canonical_json, run, sweep,
                           sweep_csv)
from ncspheres.coaction import (canonical_witness, check_comodule_algebra,
                                coinvariant_report, derivation,
                                derivation_reports, diagonal_coaction,
                                one_sided_left_coaction)
from ncspheres.homology import (B_boundary, ChainContext, TensorChain,
                                b_boundary, chain_from_slots, chern_even, chern_odd)
from ncspheres.ncalg import basis_size, commutators, confluence_check
from ncspheres.quatlin import embed_M2
from ncspheres.rmatrix import (DeformParams, build_R_quaternionic,
                               check_all_conditions)
from ncspheres.scalars import EXACT, GaussRational
from ncspheres.spheres import (build_projection, check_normality,
                               diagonalize_lambda, lambda_reports,
                               projection_checks, suspension_reports,
                               three_sphere_context, verify_Y_relations,
                               y0_flip_check)

from conftest import expanded_odd, make_point
from test_ncalg import word_normal_form

MAIN = "3/5,4/5,0"

# chain digests at MAIN: (number of terms, sha256 of the canonical terms)
CH2_DIGEST = (172032,
              "e27a737cbc7ca2a5174382cd3e4801bd70dc0ec8c99034896532d069e2d26560")
CH_3HALF_DIGEST = (8192,
                   "d6b0f0010acaec829ae2730689fe5c588c0e595a97b5ea59e5f88f6463a1dcee")

CONDITION_NAMES = ["reality", "symmetry_chain", "quadratic_1", "quadratic_2",
                   "involutive", "yang_baxter"]


@pytest.fixture(scope="module")
def catalog():
    """Algebra, sphere quotient, and Y system at every catalog point."""
    return {label: make_point(label) for label in CATALOG}


def test_c1_exchange_tensor_conditions_hold_exactly():
    t0 = time.perf_counter()
    for label in CATALOG:
        R = build_R_quaternionic(DeformParams.parse(label), EXACT)
        reports = check_all_conditions(R)
        assert [r.name for r in reports] == CONDITION_NAMES
        for r in reports:
            assert r.passed and r.max_residual == 0.0, (label, r.name)
    assert time.perf_counter() - t0 < 10.0


def test_c2_graded_dimensions_and_reduction_confluence(catalog):
    t0 = time.perf_counter()
    want = [math.comb(n + 7, 7) for n in range(1, 6)]
    # the exhaustive certificate, then 100 random words per point, 200 in
    # total: leftmost and rightmost rewriting and both bracketings of the
    # product all give the same normal form
    for label in (MAIN, "1/3,2/3,2/3"):
        _, alg, _, _ = catalog[label]
        assert confluence_check(alg)["passed"]
        assert [basis_size(n) for n in range(1, 6)] == want
        x = [alg.generator(g) for g in range(8)]
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randint(1, 5)
            w = tuple(rng.randrange(8) for _ in range(n))
            left = word_normal_form(alg, w, "leftmost")
            assert left == word_normal_form(alg, w, "rightmost"), (label, w)
            assert left == functools.reduce(operator.mul, (x[g] for g in w)), (label, w)
            right_fold = x[w[-1]]
            for g in reversed(w[:-1]):
                right_fold = x[g] * right_fold
            assert left == right_fold, (label, w)
    assert time.perf_counter() - t0 < 60.0


def test_c3_norm_elements_are_central_everywhere(catalog):
    for label, (_, alg, _, _) in catalog.items():
        for f in (alg.family_casimir(1), alg.family_casimir(2), alg.casimir()):
            assert all(x.is_zero() for x in commutators(f)), label


def test_c4_projection_identities_everywhere(catalog):
    for label, (_, _, s, _) in catalog.items():
        reports = projection_checks(s)
        assert [r.name for r in reports] == [
            "projection_hermitian", "projection_idempotent",
            "projection_half_trace"]
        for r in reports:
            assert r.passed and r.max_residual == 0.0, (label, r.name)


def test_c5_y_system_star_structure_and_eigenphase(catalog):
    for label, (p, alg, s, ys) in catalog.items():
        for r in verify_Y_relations(s, ys) + lambda_reports(alg, ys):
            assert r.passed and r.max_residual == 0.0, (label, r.name)
        assert y0_flip_check(s, ys).passed
        for r in suspension_reports(three_sphere_context(s, ys), ys):
            assert r.passed and r.max_residual == 0.0, (label, r.name)
        # the star matrix is diagonal exactly when u2 = 0; every Y is then
        # a unimodular multiple of its own star and hence normal, while all
        # four coordinates fail to be normal as soon as u2 != 0
        norm = check_normality(s, ys)
        u2_zero = p.u2 == 0
        assert norm["lambda_diagonal"] == u2_zero, label
        assert norm["all_normal"] == u2_zero, label
        assert norm["all_non_normal"] == (not u2_zero), label
        assert norm["sum_vanishes"], label
    _, _, _, ys = catalog[MAIN]
    assert diagonalize_lambda(ys, EXACT) == GaussRational(Fraction(-7, 25), Fraction(24, 25))


def _random_poly(alg, rng):
    out = alg.zero()
    for _ in range(2):
        f = alg.scalar(Fraction(rng.randint(-3, 3)))
        for _ in range(rng.randint(0, 2)):
            f = f * alg.generator(rng.randrange(8))
        out = out + f
    return out


def test_c6_homology_suite_at_main_point(catalog):
    t0 = time.perf_counter()
    _, alg, s, ys = catalog[MAIN]
    ctx = ChainContext(s)
    rng = random.Random(20240817)
    for _ in range(50):
        deg = rng.randint(1, 3)
        c = chain_from_slots(ctx, [_random_poly(alg, rng)
                                   for _ in range(deg + 1)])
        assert (b_boundary(B_boundary(c)) + B_boundary(b_boundary(c))).is_zero()
        assert B_boundary(B_boundary(c)).is_zero()
        if deg >= 2:
            assert b_boundary(b_boundary(c)).is_zero()
    p_mat = build_projection(s)
    ch0 = chern_even(ctx, p_mat, 0)
    ch1 = chern_even(ctx, p_mat, 1)
    ch2 = chern_even(ctx, p_mat, 2)
    assert ch0.is_zero() and ch1.is_zero()
    assert not ch2.is_zero()
    b_ch2 = b_boundary(TensorChain(ctx, 4, ch2.terms))
    assert b_ch2.is_zero()
    # the report's route, through the matrix faces, against b on ch2's terms
    assert b_boundary(ch2) == b_ch2
    d2 = ch2.digest()
    assert (d2["n_terms"], d2["sha256"]) == CH2_DIGEST
    ctx3 = ChainContext(three_sphere_context(s, ys))
    U = embed_M2(ys.Y, s.base.backend.i)
    assert chern_odd(ctx3, U, 0).is_zero()
    ch32 = chern_odd(ctx3, U, 1)
    assert not ch32.is_zero()
    b_ch32 = b_boundary(ch32)
    assert b_ch32.is_zero()
    # the report's route for b(ch_3half), through the faces of both words,
    # against b on the terms of the expanded chain
    expanded = expanded_odd(ctx3, U, 1)
    assert b_boundary(expanded) == b_ch32
    d32 = ch32.digest()
    assert (d32["n_terms"], d32["sha256"]) == CH_3HALF_DIGEST
    # negative control: one perturbed coefficient is no longer a cycle
    bad = TensorChain(expanded.ctx, expanded.degree, dict(expanded.terms))
    key = expanded.canonical_terms()[0][0]
    bad.terms[key] = bad.terms[key] + 1
    assert not b_boundary(bad).is_zero()
    # transgression: both sides built from independently computed components
    assert B_boundary(ch0) == b_boundary(ch1)
    assert B_boundary(ch1) == b_ch2
    assert time.perf_counter() - t0 < 300.0


def test_c7_bundle_coaction_suite(catalog):
    for label, (_, _, s, _) in catalog.items():
        rep = check_comodule_algebra(diagonal_coaction(s))
        assert rep["passed"] and rep["max_residual"] == 0.0, label
    _, alg, s, ys = catalog[MAIN]
    co = diagonal_coaction(s)
    for a in (1, 2, 3):
        for f in list(ys.Y) + [ys.Y4]:
            assert derivation(alg, a, f).is_zero()
    for r in derivation_reports(s, ys):
        assert r.passed and r.max_residual == 0.0, r.name
    coin = coinvariant_report(s, ys, co)
    assert coin["dim_degree_1"] == 0
    assert coin["dim_degree_2"] == 6
    assert coin["equals_y_span"] and coin["delta_fixes_kernel"]
    wit = canonical_witness(co)
    assert wit["passed"] and wit["max_residual"] == 0.0
    fault = check_comodule_algebra(one_sided_left_coaction(s))
    assert not fault["relations_preserved"]
    assert fault["failures"], "expected a recorded relation-failure witness"
    assert fault["failures"][0]["residual"] > 0


def _collect_residuals(node, out):
    if isinstance(node, dict):
        for k, v in node.items():
            if k == "one_sided_fault":
                continue  # intentionally nonzero at a deformed point
            if "residual" in k:
                vals = v if isinstance(v, list) else [v]
                out.extend(x for x in vals if isinstance(x, (int, float)))
            else:
                _collect_residuals(v, out)
    elif isinstance(node, list):
        for v in node:
            _collect_residuals(v, out)


def test_c8_float_backend_reproduces_exact_identities():
    spec = RunSpec(params=DeformParams.parse(MAIN), backend_name="float",
                   tasks=("chern", "coaction"))
    report, _ = run(spec)
    assert report["passed"]
    assert set(report["tasks"]) == {"conditions", "algebra", "sphere",
                                    "chern", "coaction"}
    residuals = []
    _collect_residuals(report, residuals)
    assert len(residuals) > 20
    assert max(residuals) <= 1e-9


@pytest.mark.parametrize("backend_name", ["exact", "float"])
def test_c9_sweep_reports_are_byte_identical(backend_name):
    """Run to run; golden/manifest.json pins the bytes of both outputs."""
    points = [DeformParams.parse(label) for label in CATALOG]
    first = sweep(points, backend_name=backend_name)
    second = sweep(points, backend_name=backend_name)
    assert all(rep["passed"] for rep, _ in first)
    assert canonical_json([rep for rep, _ in first]) == canonical_json([rep for rep, _ in second])
    assert sweep_csv(points, first) == sweep_csv(points, second)
