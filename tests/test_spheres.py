from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncspheres.errors import InvalidSpec
from ncspheres.ncalg import Algebra
from ncspheres.quatlin import epsilon
from ncspheres.rmatrix import DeformParams, build_R_quaternionic
from ncspheres.scalars import EXACT, FLOAT, GaussRational
from ncspheres.spheres import (YSystem, build_projection, build_sphere,
                               check_normality,
                               diagonalize_lambda, lambda_closed_form,
                               lambda_reports, projection_checks,
                               solve_star_matrix, suspension_reports,
                               three_sphere_context, verify_Y_relations,
                               y0_flip_check)

from conftest import make_point


def test_build_sphere_rejects_unknown_kind(pyth):
    p, alg, _, _ = pyth
    with pytest.raises(InvalidSpec):
        build_sphere(alg, "moebius", params=p)


def test_projection_checks(pyth, mixed, classical):
    for point in (pyth, mixed, classical):
        _, _, s, _ = point
        reports = projection_checks(s)
        names = [r.name for r in reports]
        assert "projection_hermitian" in names
        assert "projection_idempotent" in names
        assert "projection_half_trace" in names
        assert all(r.passed for r in reports)
        assert all(r.max_residual == 0.0 for r in reports)


def test_y_relations_exact(pyth, mixed):
    for point in (pyth, mixed):
        _, _, s, ys = point
        reports = verify_Y_relations(s, ys)
        assert all(r.passed for r in reports), \
            [(r.name, r.max_residual) for r in reports if not r.passed]


def test_lambda_solved_equals_closed_form(pyth, mixed):
    """The solver recovers Lambda with no knowledge of the block formula."""
    for point in (pyth, mixed):
        p, alg, s, ys = point
        solved = solve_star_matrix(alg, ys.Y, ys.Ystar)
        closed = lambda_closed_form(p, EXACT)
        for r in range(4):
            for c in range(4):
                assert solved[r][c] == closed[r][c]


def test_lambda_reports(pyth, mixed):
    for point in (pyth, mixed):
        _, alg, _, ys = point
        reports = lambda_reports(alg, ys)
        assert all(r.passed for r in reports)


def test_perturbed_lambda_fails_star_identity(pyth):
    """Fault injection: flipping one block phase must break Y* = Lambda Y."""
    p, alg, s, ys = pyth
    bad = [row[:] for row in ys.lam]
    bad[0][0] = -bad[0][0]
    fake = YSystem(Y=ys.Y, Ystar=ys.Ystar, Y4=ys.Y4, lam=bad, params=ys.params)
    reports = {r.name: r for r in lambda_reports(alg, fake)}
    assert not reports["lambda_star_identity"].passed
    assert reports["lambda_star_identity"].max_residual > 0


EXACT_THETAS = {
    "1,0,0": GaussRational(Fraction(1), Fraction(0)),
    "3/5,4/5,0": GaussRational(Fraction(-7, 25), Fraction(24, 25)),
    "3/5,0,4/5": GaussRational(Fraction(-7, 25), Fraction(24, 25)),
    "7/25,24/25,0": GaussRational(Fraction(-527, 625), Fraction(336, 625)),
    "4/5,3/5,0": GaussRational(Fraction(7, 25), Fraction(24, 25)),
}


def test_exact_eigenphases_at_pythagorean_points():
    for label, want in EXACT_THETAS.items():
        _, _, _, ys = make_point(label)
        assert diagonalize_lambda(ys, EXACT) == want, label


def test_irrational_point_has_no_exact_theta_but_a_float_one(mixed):
    _, _, _, ys = mixed
    assert diagonalize_lambda(ys, EXACT) is None
    assert abs(abs(diagonalize_lambda(ys, FLOAT)) - 1.0) < 1e-12


def _at(u0, u1, u2) -> YSystem:
    """A Y system carrying only the point, all that diagonalize_lambda reads."""
    p = DeformParams(u0, u1, u2)
    p.validate()
    return YSystem(Y=(), Ystar=(), Y4=None, lam=[], params=p)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=40)


@given(rationals, rationals)
def test_exact_eigenvalues_where_u1_u2_radius_is_a_rational_square(t, r):
    """(u0, s) and (u1, u2)/s are rational points of the unit circle, so
    (u1)^2 + (u2)^2 = s^2 and the eigenvalues u0 +- i|s| are exact."""
    u0, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    u1, u2 = s * (1 - r * r) / (1 + r * r), s * 2 * r / (1 + r * r)
    lam_plus = GaussRational(u0, abs(s))
    assert diagonalize_lambda(_at(u0, u1, u2), EXACT) == lam_plus * lam_plus


@given(st.integers(min_value=1, max_value=10**6))
def test_irrational_eigenvalue_where_u1_u2_radius_is_not_a_square(k):
    """With n = 2k and m = n^2/2 + 1 the point (n^2/2, n, 1)/m is on the
    sphere and (u1)^2 + (u2)^2 = (n^2 + 1)/m^2 in lowest terms, whose
    numerator lies strictly between two squares."""
    n = 2 * k
    m = n * n // 2 + 1
    ys = _at(Fraction(n * n // 2, m), Fraction(n, m), Fraction(1, m))
    assert ys.params.u1 ** 2 + ys.params.u2 ** 2 == Fraction(n * n + 1, m * m)
    assert diagonalize_lambda(ys, EXACT) is None
    assert abs(abs(diagonalize_lambda(ys, FLOAT)) - 1.0) < 1e-12


def test_normality_boundary():
    """Generators are normal exactly when Lambda is diagonal (u2 = 0)."""
    for label, u2_zero in (("3/5,4/5,0", True), ("7/25,24/25,0", True),
                           ("3/5,0,4/5", False), ("1/3,2/3,2/3", False)):
        _, _, s, ys = make_point(label)
        rep = check_normality(s, ys)
        assert rep["lambda_diagonal"] is u2_zero
        assert rep["all_normal"] is u2_zero
        assert rep["all_non_normal"] is (not u2_zero)
        if not u2_zero:
            assert all(r > 0 for r in rep["commutator_residuals"])


def test_y0_flip_lands_in_variant_relations(pyth, mixed):
    for point in (pyth, mixed):
        _, _, s, ys = point
        rep = y0_flip_check(s, ys)
        assert rep.passed
        assert rep.max_residual == 0.0


def _epsilon_oracle(Y, Ys):
    """The 4sp1 and 4sp2 polynomials and the Y0 -> -Y0 variant, k = 1..3,
    spelled out with the Levi-Civita symbol: (sp1, sp2, flip1, flip2).

    The variant is taken of Z = (-Y0, Y1, Y2, Y3) with Z* = (-Y0*, Y1*,
    Y2*, Y3*), read off the given stars Ys.
    """
    Z = (-Y[0], Y[1], Y[2], Y[3])
    Zs = (-Ys[0], Ys[1], Ys[2], Ys[3])
    out = ([], [], [], [])
    for k in (1, 2, 3):
        f1 = -(Ys[0] * Y[k] - Ys[k] * Y[0])
        f2 = Y[0] * Ys[k] - Y[k] * Ys[0]
        g1 = Zs[0] * Z[k] - Zs[k] * Z[0]
        g2 = -(Z[0] * Zs[k] - Z[k] * Zs[0])
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                e = epsilon(k, m, n)
                if e:
                    f1 = f1 + e * (Ys[m] * Y[n])
                    f2 = f2 + e * (Y[m] * Ys[n])
                    g1 = g1 + e * (Zs[m] * Z[n])
                    g2 = g2 + e * (Z[m] * Zs[n])
        for acc, f in zip(out, (f1, f2, g1, g2)):
            acc.append(f)
    return out


def _perturbed(alg, ys):
    """ys with one star entry off: Ystar[1] gains x1^0 x1^2.

    4sp1 has the larger residual at 3/5,4/5,0 and 4sp2 at 1/3,2/3,2/3, so
    a report that reads only one of them fails at one of the two points.
    """
    Ystar = (ys.Ystar[0], ys.Ystar[1] + alg.x1(0) * alg.x1(2)) + ys.Ystar[2:]
    return YSystem(Y=ys.Y, Ystar=Ystar, Y4=ys.Y4, lam=ys.lam, params=ys.params)


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("label", ["3/5,4/5,0", "1/3,2/3,2/3"])
def test_products_match_the_epsilon_expansions(label, backend):
    """4sp1 = -(Ybar* Y)[k], 4sp2 = -(Y Ybar*)[k], and the flipped variant
    of Z is term for term 4sp1 and 4sp2 of Y: on the Y system itself (where
    all of them vanish), on a perturbed star, and on the generator pair
    (x1, x2), which satisfies none of the relations."""
    be = EXACT if backend == "exact" else FLOAT
    _, alg, _, ys = make_point(label, backend=be)
    x1 = tuple(alg.x1(k) for k in range(4))
    x2 = tuple(alg.x2(k) for k in range(4))
    for system in (ys, _perturbed(alg, ys),
                   YSystem(Y=x1, Ystar=x2, Y4=ys.Y4, lam=ys.lam, params=ys.params)):
        yy, sy = system.products
        sp1, sp2, flip1, flip2 = _epsilon_oracle(system.Y, system.Ystar)
        for k in range(3):
            assert sp1[k] == -sy[k + 1] and sp2[k] == -yy[k + 1]
            assert flip1[k] == sp1[k] and flip2[k] == sp2[k]
            if system is ys:
                assert sp1[k].is_zero() and sp2[k].is_zero()
    # the oracle's Z* is the star of Z on the real Y system
    assert (-ys.Y[0]).star() == -ys.Ystar[0]


@pytest.mark.parametrize("label", ["3/5,4/5,0", "1/3,2/3,2/3"])
def test_perturbed_star_fails_the_folded_reports(label):
    """Negative control for the fold: one perturbed Ystar entry makes every
    report read off the imaginary parts FAIL, each with the residual of the
    written-out polynomials."""
    _, alg, s, ys = make_point(label)
    fake = _perturbed(alg, ys)
    sp1, sp2, flip1, flip2 = _epsilon_oracle(fake.Y, fake.Ystar)

    def worst(polys):
        return max(f.residual() for f in polys)

    reports = {r.name: r for r in verify_Y_relations(s, fake)}
    reports["y0_flip_variant_relations"] = y0_flip_check(s, fake)
    want = {
        "cond0_imaginary_parts": worst(sp1 + sp2),
        "sp_commutation_1": worst(sp1),
        "sp_commutation_2": worst(sp2),
        "y0_flip_variant_relations": worst(flip1 + flip2),
    }
    # distinct residuals, so the two commutation reports cannot be swapped
    assert want["sp_commutation_1"] != want["sp_commutation_2"]
    for name, residual in want.items():
        assert residual > 0
        assert not reports[name].passed, name
        assert reports[name].max_residual == residual, name


def test_three_sphere_and_suspension(pyth):
    _, _, s, ys = pyth
    s3 = three_sphere_context(s, ys)
    reports = suspension_reports(s3, ys)
    assert all(r.passed for r in reports)
    # Y4 squares to 1 - (radius part) and the Y norm is 1 in this quotient
    total = sum((y.star() * y for y in ys.Y), s.base.zero())
    assert s3.reduce(total - s.base.one()).is_zero()


def test_projection_entries_generate_y(pyth):
    """The invariant combinations inside p are exactly the Y coordinates."""
    _, alg, s, ys = pyth
    p = build_projection(s)
    # the 2x2 embedding doubles scalar parts, so the difference of the two
    # diagonal block traces is 2 Y4
    diag = sum((p.rows[k][k] for k in range(2)), alg.zero()) \
        - sum((p.rows[k][k] for k in range(2, 4)), alg.zero())
    assert s.reduce(diag - ys.Y4 * 2).is_zero()


def test_float_backend_full_suite():
    be = FLOAT
    _, alg, s, ys = make_point("3/5,4/5,0", backend=be)
    for r in verify_Y_relations(s, ys) + lambda_reports(alg, ys) \
            + projection_checks(s):
        assert r.passed
        assert r.max_residual <= 1e-9


def test_solve_star_matrix_rejects_dependent_y(pyth):
    _, alg, _, ys = pyth
    Y = (ys.Y[0], ys.Y[0], ys.Y[2], ys.Y[3])
    with pytest.raises(InvalidSpec, match="linearly dependent"):
        solve_star_matrix(alg, Y, ys.Ystar)


def test_solve_star_matrix_rejects_inconsistent_system(pyth):
    _, alg, _, ys = pyth
    Ystar = (ys.Ystar[0] + alg.x1(0),) + tuple(ys.Ystar[1:])
    with pytest.raises(InvalidSpec, match="no matrix Lambda"):
        solve_star_matrix(alg, ys.Y, Ystar)
