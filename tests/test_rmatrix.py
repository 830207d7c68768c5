import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncspheres.cli import CATALOG
from ncspheres.errors import MalformedNumber, ParamsNotOnSphere
from ncspheres.quatlin import Mat, translation
from ncspheres.rmatrix import (DeformParams, build_BigR, build_R_quaternionic,
                               check_all_conditions, check_involutive,
                               check_quadratic_1, check_quadratic_2,
                               check_reality, check_symmetry_chain,
                               check_yang_baxter, invert_16x16)
from ncspheres.scalars import EXACT, FLOAT, GaussRational

CONDITION_NAMES = ("reality", "symmetry_chain", "quadratic_1", "quadratic_2",
                   "involutive", "yang_baxter")
CONTRACTION_CHECKS = (check_reality, check_quadratic_1, check_quadratic_2)


def dense_contraction_oracle(R):
    """Brute-force dense contractions for reality, quadratic_1 and quadratic_2.

    Visits every index tuple, zero entries included, in the lexicographic
    order the checks document, and returns {name: (max_residual, witness)}
    with the witness text the checks print.
    """
    be, E, rng = R.backend, R.entry, range(4)

    def total(terms):
        acc = be.zero
        for t in terms:
            acc = acc + t
        return acc

    def reality(l, a, g, n):
        want = be.one if (l == n and a == g) else be.zero
        return total(E(l, a, b, m).conjugate() * E(m, b, g, n)
                     for b in rng for m in rng) - want

    def quadratic_1(l, b, a, d, g, m):
        return (total(E(l, b, a, r) * E(r, d, g, m) for r in rng)
                - total(E(l, d, g, r) * E(r, b, a, m) for r in rng))

    def quadratic_2(l, b, n, m, a, r):
        return (total(E(l, b, g, n) * E(m, g, a, r) for g in rng)
                - total(E(m, b, g, r) * E(l, g, a, n) for g in rng))

    out = {}
    for name, diff, arity, fmt in (
            ("reality", reality, 4, "indices (lam,alpha,gam,nu)=({},{},{},{})"),
            ("quadratic_1", quadratic_1, 6, "({},{},{},{},{},{})"),
            ("quadratic_2", quadratic_2, 6, "({},{},{},{},{},{})")):
        worst, witness = 0.0, None
        for idx in product(rng, repeat=arity):
            d = diff(*idx)
            worst = max(worst, abs(d))
            if witness is None and not be.is_zero(d):
                witness = fmt.format(*idx)
        out[name] = (worst, witness)
    return out


def dense_exchange_oracle(R):
    """Brute-force dense involutive and yang_baxter checks.

    Builds the 64x64 exchange matrix straight from R's entries, squares it
    over all 64 pairs, and applies both sides of the braid relation to each
    of the 512 basis triples.  Every (word, image) pair, zeros included, is
    compared in lexicographic order; returns {name: (max_residual, witness)}.
    """
    be, N = R.backend, 4
    pairs = list(product(range(8), repeat=2))
    triples = list(product(range(8), repeat=3))

    def exchange(a, b, c, d):
        """Coefficient of x^c x^d in the rewrite of x^a x^b."""
        if (a < N) == (b < N):
            return be.one if (c, d) == (b, a) else be.zero
        if a < N and c >= N and d < N:        # x1^lam x2^alpha
            return R.entry(a, b - N, c - N, d)
        if a >= N and c < N and d >= N:       # x2^alpha x1^lam
            return R.entry(b, a - N, d - N, c).conjugate()
        return be.zero

    big = {(p, q): exchange(*p, *q) for p in pairs for q in pairs}

    def apply(vec, slot):
        """The exchange on sites (slot, slot + 1) of a {triple: coeff} vector."""
        out = {t: be.zero for t in triples}
        for t, v in vec.items():
            for q in pairs:
                c = big[(t[slot], t[slot + 1]), q]
                w = t[:slot] + q + t[slot + 2:]
                out[w] = out[w] + v * c
        return out

    def report(diffs):
        worst, witness = 0.0, None
        for key in sorted(diffs):
            worst = max(worst, abs(diffs[key]))
            if witness is None and not be.is_zero(diffs[key]):
                witness = "{} -> {}".format(*key)
        return worst, witness

    square = {}
    for p in pairs:
        for r in pairs:
            acc = be.zero
            for q in pairs:
                acc = acc + big[p, q] * big[q, r]
            square[p, r] = acc - (be.one if p == r else be.zero)
    braid = {}
    for t in triples:
        lhs = rhs = {t: be.one}
        for slot in (0, 1, 0):
            lhs = apply({w: v for w, v in lhs.items() if not v.is_zero()}, slot)
        for slot in (1, 0, 1):
            rhs = apply({w: v for w, v in rhs.items() if not v.is_zero()}, slot)
        for w in triples:
            braid[t, w] = lhs[w] - rhs[w]
    return {"involutive": report(square), "yang_baxter": report(braid)}


def test_params_parse_and_validate():
    p = DeformParams.parse("3/5,4/5,0")
    p.validate()
    assert p.label() == "3/5,4/5,0"
    with pytest.raises(MalformedNumber):
        DeformParams.parse("1,2")
    with pytest.raises(ParamsNotOnSphere):
        DeformParams.parse("1,1,0").validate()
    # off the sphere by 10^-24, far below any float tolerance: exact refusal
    with pytest.raises(ParamsNotOnSphere):
        DeformParams.parse("3/5,4/5,1/1000000000000").validate()


def test_classical_tensor_is_the_identity_exchange():
    """At u = (1,0,0) the exchange is plain transposition."""
    R = build_R_quaternionic(DeformParams.parse("1,0,0"), EXACT)
    for lam in range(4):
        for alpha in range(4):
            for beta in range(4):
                for mu in range(4):
                    want = EXACT.one if (lam == mu and alpha == beta) else EXACT.zero
                    assert R.entry(lam, alpha, beta, mu) == want


def test_all_conditions_at_two_points():
    for label in ("3/5,4/5,0", "1/3,2/3,2/3"):
        R = build_R_quaternionic(DeformParams.parse(label), EXACT)
        reports = check_all_conditions(R)
        assert [r.name for r in reports] == list(CONDITION_NAMES)
        assert all(r.passed for r in reports)
        assert all(r.max_residual == 0.0 for r in reports)


def _abcd_entries(A, B, C, D):
    """R-hat = sum A_r (x) B_r + i sum C_a (x) D_a, as {(lam, al, bt, mu): c}.

    The first factor carries (lam, mu) and the second (alpha, beta).
    """
    i = EXACT.i
    out = {}
    for lam, al, bt, mu in product(range(4), repeat=4):
        val = sum((a.rows[lam][mu] * b.rows[al][bt] for a, b in zip(A, B)), EXACT.zero)
        val += sum((i * c.rows[lam][mu] * d.rows[al][bt] for c, d in zip(C, D)), EXACT.zero)
        out[lam, al, bt, mu] = val
    return out


def test_general_builder_agrees_with_direct():
    """The two-deformation ABCD sum with v = e_1 is build_R_quaternionic."""
    ident, J1, J2 = (Mat(translation(a)) for a in (0, 1, 2))
    for label in ("3/5,0,4/5", "3/5,4/5,0", "1/3,2/3,2/3"):
        p = DeformParams.parse(label)
        D = Mat([[p.u1 * a + p.u2 * b for a, b in zip(r1, r2)]
                 for r1, r2 in zip(J1.rows, J2.rows)])
        want = _abcd_entries([ident], [Mat([[p.u0 * k for k in row] for row in ident.rows])],
                             [J1], [D])
        R = build_R_quaternionic(p, EXACT)
        assert {idx: R.entry(*idx) for idx in want} == want, label


def test_off_sphere_v_vector_rejected():
    # the builder validates the parameter vector before it builds anything
    for be in (EXACT, FLOAT):
        with pytest.raises(ParamsNotOnSphere):
            build_R_quaternionic(DeformParams(Fraction(1), Fraction(1), Fraction(0)), be)


def test_float_tensor_matches_golden_reprs():
    """Every float entry at every catalog point keeps its repr, so a sign
    flipped on a zero part, which == cannot see, fails here."""
    golden = json.loads((Path(__file__).parent / "golden" / "r_float.json").read_text())
    assert list(golden) == list(CATALOG)
    for label, want in golden.items():
        R = build_R_quaternionic(DeformParams.parse(label), FLOAT)
        assert [repr(R.entry(*idx)) for idx in product(range(4), repeat=4)] == want, label


def test_perturbed_tensor_fails_yang_baxter():
    """Fault injection: a single entry off by 1/7 must be caught."""
    R = build_R_quaternionic(DeformParams.parse("3/5,4/5,0"), EXACT)
    R.data[1][2][2][1] = R.data[1][2][2][1] + GaussRational(Fraction(1, 7), 0)
    reports = check_all_conditions(R)
    assert not all(r.passed for r in reports)
    ybe = check_yang_baxter(R)
    assert not ybe.passed
    assert ybe.witness is not None
    assert ybe.max_residual > 0


@pytest.mark.parametrize("idx, was_zero", [((0, 1, 2, 3), True),
                                           ((1, 2, 2, 1), False)],
                         ids=["zero_entry", "nonzero_entry"])
def test_perturbed_entry_fails_contraction_checks(idx, was_zero):
    """Fault injection: one entry off by 1/7 fails each contraction check.

    Each report must name the first failing tuple of the dense contraction,
    with its residual.
    """
    R = build_R_quaternionic(DeformParams.parse("3/5,4/5,0"), EXACT)
    a, b, c, d = idx
    assert R.data[a][b][c][d].is_zero() == was_zero
    R.data[a][b][c][d] = R.data[a][b][c][d] + GaussRational(Fraction(1, 7), 0)
    oracle = dense_contraction_oracle(R)
    for check in CONTRACTION_CHECKS:
        r = check(R)
        assert not r.passed, r.name
        assert r.max_residual > 0, r.name
        assert r.witness is not None, r.name
        assert (r.max_residual, r.witness) == oracle[r.name]


@pytest.mark.parametrize("idx", [(0, 1, 2, 3), (1, 2, 2, 1)],
                         ids=["zero_entry", "nonzero_entry"])
def test_perturbed_entry_matches_the_dense_exchange_oracle(idx):
    """involutive and yang_baxter report the oracle's residual and its first
    failing (word, image) pair in lexicographic order."""
    R = build_R_quaternionic(DeformParams.parse("3/5,4/5,0"), EXACT)
    a, b, c, d = idx
    R.data[a][b][c][d] = R.data[a][b][c][d] + GaussRational(Fraction(1, 7), 0)
    oracle = dense_exchange_oracle(R)
    for check in (check_involutive, check_yang_baxter):
        r = check(R)
        assert not r.passed, r.name
        assert (r.max_residual, r.witness) == oracle[r.name]


@pytest.mark.parametrize("idx, delta, tag", [
    ((2, 0, 0, 2), GaussRational(Fraction(1, 7), 0), "inverse"),
    ((2, 0, 0, 2), GaussRational(0, Fraction(1, 7)), "conjugate"),
    ((1, 2, 2, 3), GaussRational(Fraction(1, 7), 0), "exchange"),
], ids=["real_shift", "imaginary_shift", "zero_entry"])
def test_perturbed_entry_fails_symmetry_chain(idx, delta, tag):
    """Fault injection: one entry off by 1/7 or i/7 fails symmetry_chain, and
    the witness names the perturbed index (lam,beta,alpha,mu) with the first
    link of the chain that breaks there; the unperturbed tensor passes."""
    p = DeformParams.parse("3/5,4/5,0")
    clean = check_symmetry_chain(build_R_quaternionic(p, EXACT))
    assert clean.passed and clean.max_residual == 0.0 and clean.witness is None
    R = build_R_quaternionic(p, EXACT)
    a, b, c, d = idx
    R.data[a][b][c][d] = R.data[a][b][c][d] + delta
    r = check_symmetry_chain(R)
    assert not r.passed
    assert r.max_residual >= abs(delta)
    assert r.witness == f"{tag} at ({a},{b},{c},{d})"


def test_entry_below_tolerance_takes_part_in_contractions():
    """A float entry that is nonzero but below tol still enters the sums,
    and the exchange rows, which read the same entries."""
    be = FLOAT
    R = build_R_quaternionic(DeformParams.parse("3/5,4/5,0"), be)
    assert R.data[0][1][2][3] == 0
    R.data[0][1][2][3] = 1e-12
    assert be.is_zero(R.data[0][1][2][3])
    oracle = dense_contraction_oracle(R)
    for check in CONTRACTION_CHECKS:
        r = check(R)
        assert r.passed, r.name
        assert r.max_residual > 0, r.name
        assert (r.max_residual, r.witness) == oracle[r.name]
    rows = build_BigR(R)
    assert ((6, 3), 1e-12) in rows[(0, 5)]
    assert ((3, 6), (1e-12).conjugate()) in rows[(5, 0)]


def test_inverse_contraction_is_identity():
    R = build_R_quaternionic(DeformParams.parse("7/25,24/25,0"), EXACT)
    rinv = invert_16x16(R)
    for lam in range(4):
        for alpha in range(4):
            for lam2 in range(4):
                for alpha2 in range(4):
                    acc = EXACT.zero
                    for beta in range(4):
                        for mu in range(4):
                            acc = acc + R.entry(lam, alpha, beta, mu) \
                                * rinv(beta, mu, lam2, alpha2)
                    want = EXACT.one if (lam, alpha) == (lam2, alpha2) else EXACT.zero
                    assert acc == want


def test_big_r_is_involutive_on_words():
    """Applying the doubled exchange twice returns every pair unchanged."""
    R = build_R_quaternionic(DeformParams.parse("7/25,24/25,0"), EXACT)
    rows = build_BigR(R)
    for a in range(8):
        for b in range(8):
            acc = {}
            for (c, d), coeff in rows[(a, b)]:
                for (e, f), coeff2 in rows[(c, d)]:
                    key = (e, f)
                    acc[key] = acc.get(key, EXACT.zero) + coeff * coeff2
            for key, v in acc.items():
                want = EXACT.one if key == (a, b) else EXACT.zero
                assert v == want, (a, b, key)


@st.composite
def pythagorean_params(draw):
    """Rational points u = ((1-t^2)/(1+t^2), 2t/(1+t^2), 0) on the circle."""
    t = draw(st.fractions(min_value=-3, max_value=3, max_denominator=12))
    d = 1 + t * t
    return DeformParams((1 - t * t) / d, 2 * t / d, Fraction(0))


@settings(max_examples=12, deadline=None)
@given(pythagorean_params())
def test_conditions_on_random_circle_points(p):
    p.validate()
    R = build_R_quaternionic(p, EXACT)
    assert all(r.passed for r in check_all_conditions(R))


def test_float_backend_residuals_small():
    be = FLOAT
    R = build_R_quaternionic(DeformParams.parse("3/5,4/5,0"), be)
    for r in check_all_conditions(R):
        assert r.passed
        assert r.max_residual <= 1e-9


def test_items_reads_current_entries():
    """items() sees every write to R.data, and tests zero exactly."""
    p = DeformParams.parse("3/5,4/5,0")
    R = build_R_quaternionic(p, EXACT)
    before = R.items()
    assert all(not c.is_zero() for _, c in before)
    R.data[0][1][2][3] = GaussRational(Fraction(1, 7), 0)
    after = R.items()
    assert len(after) == len(before) + 1
    assert ((0, 1, 2, 3), GaussRational(Fraction(1, 7), 0)) in after
    R.data[0][1][2][3] = EXACT.zero
    assert R.items() == before
    Rf = build_R_quaternionic(p, FLOAT)
    n = len(Rf.items())
    Rf.data[0][1][2][3] = 1e-12 + 0j
    assert len(Rf.items()) == n + 1


def test_invert_16x16_rejects_singular_tensor():
    R = build_R_quaternionic(DeformParams.parse("3/5,4/5,0"), EXACT)
    for beta in range(4):
        for mu in range(4):
            R.data[0][0][beta][mu] = EXACT.zero
    with pytest.raises(ZeroDivisionError):
        invert_16x16(R)
