import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncspheres import ncalg
from ncspheres.coaction import CommPoly, MixedElement, span_contains
from ncspheres.errors import DegreeOverflow, NotAGroebnerBasis, NotCentral
from ncspheres.ncalg import (Algebra, NCPoly, ReductionContext,
                             basis_monomials, basis_size, commutators,
                             confluence_check, format_poly, mono_key,
                             mono_word)
from ncspheres.rmatrix import DeformParams, build_R_quaternionic
from ncspheres.scalars import (EXACT, FLOAT, GaussRational, add_into,
                               parse_rational)
from ncspheres.spheres import three_sphere_context

from conftest import make_point


def _random_poly(alg, rng, degree=2, terms=3):
    out = alg.zero()
    for _ in range(terms):
        f = alg.scalar(Fraction(rng.randint(-4, 4)))
        for _ in range(rng.randint(0, degree)):
            f = f * alg.generator(rng.randrange(8))
        out = out + f
    return out


def test_basis_size_is_stars_and_bars():
    """With the count, degree n and a strictly increasing mono_key pin both
    the set and the order of the basis monomials."""
    for n in range(9):
        monos = basis_monomials(n)
        assert basis_size(n) == math.comb(n + 7, 7)
        assert len(monos) == basis_size(n)
        assert all(len(m) == 8 and sum(m) == n for m in monos)
        keys = [mono_key(m) for m in monos]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_cross_relation_normal_form(pyth):
    """x2^a x1^l rewrites to the conjugated-tensor combination."""
    p, alg, s, ys = pyth
    R = alg.R
    for lam in range(4):
        for alpha in range(4):
            lhs = alg.x2(alpha) * alg.x1(lam)
            rhs = alg.zero()
            for beta in range(4):
                for mu in range(4):
                    c = R.entry(lam, alpha, beta, mu).conjugate()
                    if not EXACT.is_zero(c):
                        rhs = rhs + alg.x1(mu) * alg.x2(beta) * c
            assert (lhs - rhs).is_zero()


def word_normal_form(alg, word, strategy="leftmost"):
    """Oracle: rewrite a generator word by the rules in alg.exchange, at the
    leftmost or rightmost descending pair, until every pair is ascending.

    Every x1 id is below every x2 id, so x2 x1 and a descending pair within
    one family are exactly the descending pairs.
    """
    be = alg.backend
    pending = {tuple(word): be.one}
    done = {}
    while pending:
        w, coeff = pending.popitem()
        pos = [i for i in range(len(w) - 1) if w[i] > w[i + 1]]
        if not pos:
            add_into(done, tuple(w.count(g) for g in range(8)), coeff)
            continue
        i = pos[0] if strategy == "leftmost" else pos[-1]
        for pair, c in alg.exchange[(w[i], w[i + 1])]:
            w2 = w[:i] + pair + w[i + 2:]
            add_into(pending, w2, coeff * c)
            if be.is_zero(pending[w2]):
                del pending[w2]
    return NCPoly(alg, done)


def test_rewriting_agrees_with_multiplication(pyth, mixed):
    """The rewriting oracle gives the product of the generators on every word
    of length 2 and 3, and leaves a normal-ordered word as it is."""
    for point in (pyth, mixed):
        _, alg, _, _ = point
        for n in (2, 3):
            for w in itertools.product(range(8), repeat=n):
                want = alg.one()
                for g in w:
                    want = want * alg.generator(g)
                assert word_normal_form(alg, w) == want, w
        for w in ((0, 4), (4, 4), (1, 2)):
            m = tuple(w.count(g) for g in range(8))
            assert word_normal_form(alg, w).terms == {m: alg.backend.one}


def test_within_family_generators_commute(pyth):
    _, alg, _, _ = pyth
    for i in range(4):
        for j in range(4):
            assert alg.x1(i).commutator(alg.x1(j)).is_zero()
            assert alg.x2(i).commutator(alg.x2(j)).is_zero()


def test_confluence_certificate(pyth, mixed):
    for point in (pyth, mixed):
        _, alg, _, _ = point
        assert confluence_check(alg) == {"passed": True, "witness": None}
        dims = [basis_size(n) for n in range(1, 6)]
        assert dims == [math.comb(n + 7, 7) for n in range(1, 6)]


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("label, entry, witness", [
    ("3/5,4/5,0", (0, 0, 0, 0), (4, 1, 0)),
    ("3/5,4/5,0", (1, 2, 3, 0), (6, 1, 0)),
    ("3/5,4/5,0", (2, 3, 1, 0), (6, 2, 0)),
    ("1/3,2/3,2/3", (0, 0, 0, 0), (4, 1, 0)),
    ("1/3,2/3,2/3", (1, 2, 3, 0), (4, 1, 0)),
    ("1/3,2/3,2/3", (2, 3, 1, 0), (5, 2, 0)),
])
def test_perturbed_tensor_fails_the_confluence_certificate(label, entry, witness, backend):
    """Negative control: one R entry off by 1/7 breaks associativity on the
    generators, and the first failing triple is the witness (the witnesses
    are the ones the leftmost/rightmost word rewriter gave)."""
    be = EXACT if backend == "exact" else FLOAT
    R = build_R_quaternionic(DeformParams.parse(label), be)
    lam, alpha, beta, mu = entry
    R.data[lam][alpha][beta][mu] += be.convert(Fraction(1, 7))
    rep = confluence_check(Algebra(R, be))
    assert rep == {"passed": False, "witness": f"word {witness}"}


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("label, entry", [
    ("1,0,0", None), ("3/5,4/5,0", None), ("1/3,2/3,2/3", None),
    ("3/5,4/5,0", (0, 0, 0, 0)), ("3/5,4/5,0", (1, 2, 3, 0)), ("3/5,4/5,0", (2, 3, 1, 0)),
    ("1/3,2/3,2/3", (0, 0, 0, 0)), ("1/3,2/3,2/3", (1, 2, 3, 0)),
    ("1/3,2/3,2/3", (2, 3, 1, 0)),
])
def test_the_ambiguities_decide_confluence(label, entry, backend):
    """The 56 ambiguities a > b > c decide the certificate: on every other
    generator triple both sides rewrite alike, so the defect has no terms,
    and judging all 512 triples gives confluence_check's verdict and witness.
    Run at each point as built and under each perturbation above."""
    be = EXACT if backend == "exact" else FLOAT
    R = build_R_quaternionic(DeformParams.parse(label), be)
    if entry is not None:
        lam, alpha, beta, mu = entry
        R.data[lam][alpha][beta][mu] += be.convert(Fraction(1, 7))
    alg = Algebra(R, be)
    x = [alg.generator(g) for g in range(8)]
    defects = {w: (x[w[0]] * x[w[1]]) * x[w[2]] - x[w[0]] * (x[w[1]] * x[w[2]])
               for w in itertools.product(range(8), repeat=3)}
    assert [w for w, d in defects.items() if not w[0] > w[1] > w[2] and d.terms] == []
    failing = [w for w, d in defects.items() if d.terms]
    assert bool(failing) == (entry is not None)
    assert confluence_check(alg) == {"passed": not failing,
                                     "witness": f"word {failing[0]}" if failing else None}


def test_reduction_order_agreement(pyth):
    """Leftmost and rightmost rewriting agree with the product on random words."""
    _, alg, _, _ = pyth
    rng = random.Random(7)
    for _ in range(60):
        w = tuple(rng.randrange(8) for _ in range(rng.randint(2, 5)))
        left = word_normal_form(alg, w, "leftmost")
        right = word_normal_form(alg, w, "rightmost")
        assert left == right, w
        want = alg.one()
        for g in w:
            want = want * alg.generator(g)
        assert left == want, w


def test_product_associativity_random(pyth):
    _, alg, _, _ = pyth
    rng = random.Random(3)
    for _ in range(15):
        f = _random_poly(alg, rng)
        g = _random_poly(alg, rng)
        h = _random_poly(alg, rng)
        assert ((f * g) * h - f * (g * h)).is_zero()


def test_star_is_an_antihomomorphism(pyth):
    _, alg, _, _ = pyth
    rng = random.Random(11)
    for _ in range(15):
        f = _random_poly(alg, rng)
        g = _random_poly(alg, rng)
        assert ((f * g).star() - g.star() * f.star()).is_zero()
        assert (f.star().star() - f).is_zero()


def test_generator_ids_outside_0_to_7_are_refused(pyth):
    _, alg, _, _ = pyth
    for g in (8, -1):
        with pytest.raises(ValueError, match=f"generator id {g} out of range"):
            alg.generator(g)


def test_generators_are_hermitian(pyth):
    _, alg, _, _ = pyth
    for g in range(8):
        x = alg.generator(g)
        assert (x.star() - x).is_zero()


def test_casimirs_are_central(pyth, mixed, classical):
    for point in (pyth, mixed, classical):
        _, alg, _, _ = point
        for f in (alg.casimir(), alg.family_casimir(1), alg.family_casimir(2)):
            assert all(x.is_zero() for x in commutators(f))


def test_single_generator_not_central(pyth):
    _, alg, _, _ = pyth
    assert not all(x.is_zero() for x in commutators(alg.x1(0)))


def test_reduction_context_rejects_noncentral(pyth):
    """The message names the first generator that the relation does not
    commute with, on the algebra and on the seven-sphere alike."""
    p, alg, s, ys = pyth
    with pytest.raises(NotCentral, match="^relation element not central, generator 4$"):
        ReductionContext(alg, p).quotient(alg.x1(0) * alg.x1(0))
    with pytest.raises(NotCentral, match="^relation element not central, generator 0$"):
        s.quotient(ys.Y[0] * ys.Y[0])


def test_reduction_context_rejects_a_relation_that_is_not_homogeneous(pyth):
    """c + c*c is central, c the casimir, but has degrees 2 and 4."""
    p, alg, _, _ = pyth
    c = alg.casimir()
    with pytest.raises(ValueError, match="relation element must be homogeneous"):
        ReductionContext(alg, p).quotient(c + c * c)


def test_reduction_kills_ideal_elements(pyth):
    """(x^2 - 1) * m must reduce to zero for arbitrary monomial cofactors."""
    _, alg, s, _ = pyth
    rng = random.Random(5)
    rel = alg.casimir() - alg.one()
    for _ in range(20):
        cof = _random_poly(alg, rng, degree=2, terms=2)
        assert s.reduce(rel * cof).is_zero()
        assert s.reduce(cof * rel).is_zero()


def test_reduce_is_idempotent_and_linear(pyth):
    _, alg, s, _ = pyth
    rng = random.Random(13)
    for _ in range(10):
        f = _random_poly(alg, rng, degree=3)
        g = _random_poly(alg, rng, degree=3)
        rf = s.reduce(f)
        assert (s.reduce(rf) - rf).is_zero()
        lhs = s.reduce(f + g)
        rhs = s.reduce(f) + s.reduce(g)
        assert (lhs - rhs).is_zero()


def test_reduction_subtracts_only_ideal_elements(pyth):
    """f - reduce(f) lies in the span of (x^2 - 1) m, deg m <= deg f - 2.

    The span is built from products in the algebra alone, without the
    reduction code, so it checks reduce rather than its cache.  The
    x^2 factor in f makes sure that reduction has work to do.
    """
    _, alg, s, _ = pyth
    rng = random.Random(17)
    rel = alg.casimir() - alg.one()
    for _ in range(10):
        f = _random_poly(alg, rng) * alg.casimir() + _random_poly(alg, rng, degree=4)
        rf = s.reduce(f)
        assert (s.reduce(rf) - rf).is_zero()
        ideal = [rel * NCPoly(alg, {m: EXACT.one})
                 for k in range(max(map(sum, f.terms)) - 1)
                 for m in basis_monomials(k)]
        assert span_contains(alg, ideal, [f - rf])


def test_degree_cap_enforced(pyth):
    p, alg, _, _ = pyth
    ctx = ReductionContext(alg, p).quotient(alg.casimir())
    f = alg.one()
    for _ in range(13):
        f = f * alg.x1(1)
    with pytest.raises(DegreeOverflow):
        ctx.reduce(f)


class EchelonOracle:
    """Reduction modulo central relations c_j - 1 by filtered linear algebra.

    The degree-k piece of the ideal is sum_j (c_j - 1) V_{k - deg c_j}, so
    reduction runs degree by degree against lazily built sparse row echelon
    bases of the spans {(c_j - 1) * m}.  Built from products in the algebra
    alone, it is the oracle for ReductionContext's division.
    """

    def __init__(self, alg, relations):
        self.alg = alg
        self.relations = relations
        self._echelons = {}

    def reduce_mono(self, m):
        """Subtract pivot rows until no monomial is a pivot lead."""
        be = self.alg.backend
        work = {m: be.one}
        changed = True
        while changed:
            changed = False
            for n in sorted(work, key=mono_key, reverse=True):
                c = work.get(n)
                if c is None or be.is_zero(c):
                    work.pop(n, None)
                    continue
                if sum(n) < 2:
                    continue
                row = self._pivot_rows(sum(n)).get(n)
                if row is None:
                    continue
                _subtract_row(work, c, row, be)
                changed = True
                break
        return {n: c for n, c in work.items() if not be.is_zero(c)}

    def _pivot_rows(self, k):
        """{lead: row} for degree k; each lead is its row's largest monomial,
        and a row whose largest monomial drops below degree k is spent."""
        hit = self._echelons.get(k)
        if hit is not None:
            return hit
        be = self.alg.backend
        pivots = {}

        def insert(full):
            while full:
                lead = max(full, key=mono_key)
                if sum(lead) < k:
                    return
                got = pivots.get(lead)
                if got is None:
                    inv = 1 / full[lead]
                    pivots[lead] = {n: inv * c for n, c in full.items()}
                    return
                _subtract_row(full, full[lead], got, be)

        for c in self.relations:
            dc = next(iter({sum(n) for n in c.terms}))
            if k < dc:
                continue
            for n in basis_monomials(k - dc):
                full = dict((c * NCPoly(self.alg, {n: be.one})).terms)
                nv = full.get(n, be.zero) - be.one
                if be.is_zero(nv):
                    full.pop(n, None)
                else:
                    full[n] = nv
                insert(full)
        self._echelons[k] = pivots
        return pivots


def _subtract_row(work, f, row, be):
    """work -= f * row in place, dropping the entries that become zero."""
    for n, c in row.items():
        v = work.get(n, be.zero) - f * c
        if be.is_zero(v):
            work.pop(n, None)
        else:
            work[n] = v


def _sphere_relations(s, ys):
    """(name, context, relations) of the seven- and three-sphere quotients."""
    alg = s.base
    s7 = [alg.casimir()]
    s3 = s7 + [sum((ys.Ystar[m] * ys.Y[m] for m in range(4)), alg.zero())]
    return [("S7", s, s7), ("S3", three_sphere_context(s, ys), s3)]


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("label", ["3/5,4/5,0", "1/3,2/3,2/3"])
def test_division_matches_the_echelon_oracle(label, backend, request):
    """reduce_mono agrees with the echelon on every monomial through degree 8,
    for both sphere quotients: by == on the exact backend; on the float
    backend with the same keys and every coefficient within tol."""
    if backend == "exact":  # the session's points, whose caches later tests reuse
        be = EXACT
        _, alg, s, ys = request.getfixturevalue(
            "pyth" if label == "3/5,4/5,0" else "mixed")
    else:
        be = FLOAT
        _, alg, s, ys = make_point(label, be)
    monos = [m for k in range(9) for m in basis_monomials(k)]
    assert len(monos) == 12870
    for name, ctx, relations in _sphere_relations(s, ys):
        oracle = EchelonOracle(alg, relations)
        for m in monos:
            got, want = ctx.reduce_mono(m), oracle.reduce_mono(m)
            if be.exact:
                assert got == want, (name, m)
            else:
                assert got.keys() == want.keys(), (name, m)
                assert all(abs(got[n] - want[n]) <= be.tol for n in got), (name, m)


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("label", ["3/5,4/5,0", "1/3,2/3,2/3"])
def test_normal_monomials_follow_the_leads(label, backend):
    """Through degree 6 an S7 monomial is its own normal form iff its x2_3
    exponent is at most 1, and an S3 monomial iff in addition its x1_3
    exponent is at most 3: the Hilbert series the division relies on."""
    be = EXACT if backend == "exact" else FLOAT
    _, alg, s, ys = make_point(label, be)
    (_, s7, _), (_, s3, _) = _sphere_relations(s, ys)
    for k in range(7):
        for m in basis_monomials(k):
            assert (s7.reduce_mono(m) == {m: be.one}) == (m[7] <= 1), m
            assert (s3.reduce_mono(m) == {m: be.one}) == (m[7] <= 1 and m[3] <= 3), m


def test_the_three_sphere_is_the_seven_sphere_modulo_one_more_relation(monkeypatch):
    """quotient keeps the seven-sphere's relation and its memos by identity and
    adds one relation: the radius sum is the only element checked for
    centrality, so x^2 - 1 is neither checked nor reduced again."""
    _, alg, s, ys = make_point("1/3,2/3,2/3")
    checked = []
    real = ncalg.commutators
    monkeypatch.setattr(ncalg, "commutators", lambda f: checked.append(f) or real(f))
    s3 = three_sphere_context(s, ys)
    assert checked == [sum((ys.Ystar[m] * ys.Y[m] for m in range(4)), alg.zero())]
    assert (s3.base, s3.params) == (s.base, s.params)
    assert len(s._relations) == 1 and len(s3._relations) == 2
    assert s3._relations[0] is s._relations[0]
    assert s3._memo[0] is s._memo[0] and s3._memo[1] is s._memo[1]


@pytest.mark.parametrize("be", [EXACT, FLOAT], ids=["exact", "float"])
def test_the_three_sphere_leaves_the_seven_spheres_normal_forms(be):
    """Degree-4 polynomials, x1_3^4 among them (the three-sphere's lead), have
    the same seven-sphere normal forms, term by term, before the three-sphere
    is built, after it has reduced them too, and in a fresh seven-sphere."""
    p, alg, s, ys = make_point("1/3,2/3,2/3", be)
    rng = random.Random(29)
    x13 = alg.x1(3)
    polys = [_random_poly(alg, rng, degree=4, terms=4) for _ in range(12)]
    polys += [x13 * x13 * x13 * x13, ys.Y4 * ys.Y4, alg.casimir() * alg.casimir()]
    before = [s.reduce(f).terms for f in polys]
    s3 = three_sphere_context(s, ys)
    assert [s3.reduce(f).terms for f in polys] != before
    fresh = ReductionContext(alg, p).quotient(alg.casimir())
    assert [s.reduce(f).terms for f in polys] == before == [fresh.reduce(f).terms for f in polys]


def test_degree_twelve_reduces_and_is_idempotent(pyth):
    """x2_3^12 divides down through long chains of lower monomials."""
    p, alg, _, _ = pyth
    ctx = ReductionContext(alg, p).quotient(alg.casimir())
    m = (0,) * 7 + (12,)
    nf = NCPoly(alg, ctx.reduce_mono(m))
    assert max(map(sum, nf.terms)) == 12 and m not in nf.terms
    assert all(n[7] <= 1 for n in nf.terms)
    assert ctx.reduce(nf) == nf


def test_relation_that_keeps_no_lead_is_rejected(pyth):
    """The casimir passed twice, or its square, adds nothing new: refused,
    never a normal form."""
    _, alg, s, _ = pyth
    for again in (alg.casimir(), alg.casimir() * alg.casimir()):
        with pytest.raises(NotAGroebnerBasis, match="no lead"):
            s.quotient(again)


def test_leads_that_share_a_generator_are_rejected(classical):
    """At the commutative point every element is central; x1_0 x2_3 has a lead
    that shares x2_3 with the casimir's lead x2_3^2."""
    _, alg, s, _ = classical
    rel = alg.x1(0) * alg.x2(3)
    assert all(x.is_zero() for x in commutators(rel))
    with pytest.raises(NotAGroebnerBasis, match="share a generator"):
        s.quotient(rel)


def test_division_never_reads_the_product():
    """After quotient(), a mono_mul that doubles every product leaves the
    normal forms alone: a division step shifts exponents, it forms no product."""
    be = EXACT
    p = DeformParams.parse("3/5,4/5,0")
    alg = Algebra(build_R_quaternionic(p, be), be)
    ctx = ReductionContext(alg, p).quotient(alg.casimir())
    m, q, lead = (0, 1, 0, 0, 0, 0, 0, 2), (0, 1, 0, 0, 0, 0, 0, 0), (0,) * 7 + (2,)
    want = ReductionContext(alg, p).quotient(alg.casimir()).reduce_mono(m)
    assert want != {m: be.one}
    plain = alg.mono_mul
    alg.mono_mul = lambda a, b: {k: 2 * c for k, c in plain(a, b).items()}
    assert alg.mono_mul(q, lead) != plain(q, lead)
    assert ctx.reduce_mono(m) == want


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("label", ["3/5,4/5,0", "1/3,2/3,2/3"])
def test_division_step_equals_the_one_sided_product(label, backend, request):
    """For both three-sphere relations g_j and every monomial q through degree
    2, q * g_j formed by mono_mul and the exponent-shifted terms q + n of g_j
    have one normal form modulo relations 0..j-1: by == on the exact backend;
    on the float backend with the same keys and every coefficient within tol."""
    if backend == "exact":
        be = EXACT
        _, alg, s, ys = request.getfixturevalue(
            "pyth" if label == "3/5,4/5,0" else "mixed")
    else:
        be = FLOAT
        _, alg, s, ys = make_point(label, be)
    ctx = three_sphere_context(s, ys)
    qs = [q for k in range(3) for q in basis_monomials(k)]
    assert len(qs) == 45 and len(ctx._relations) == 2
    for j, (_, g) in enumerate(ctx._relations):
        for q in qs:
            prod = {}
            for n, c in g.items():
                for k, e in alg.mono_mul(q, n).items():
                    add_into(prod, k, c * e)
            got = ctx._reduce_terms(prod, j)
            want = ctx._reduce_terms({tuple(map(operator.add, q, n)): c
                                      for n, c in g.items()}, j)
            if be.exact:
                assert got == want, (j, q)
            else:
                assert got.keys() == want.keys(), (j, q)
                assert all(abs(got[n] - want[n]) <= be.tol for n in got), (j, q)


def _read_poly(alg, text):
    """Read format_poly's '(re,im)*x1_k*x2_k^e + ...' back into an NCPoly."""
    terms = {}
    if text != "0":
        for term in text.split(" + "):
            coeff, *factors = term.split("*")
            re_part, im_part = coeff[1:-1].split(",")
            mono = [0] * 8
            for factor in factors:
                name, _, power = factor.partition("^")
                family, k = name.split("_")
                mono[(0 if family == "x1" else 4) + int(k)] = int(power or 1)
            terms[tuple(mono)] = GaussRational(parse_rational(re_part),
                                               parse_rational(im_part))
    return NCPoly(alg, terms)


def test_poly_parse_format_round_trip(pyth):
    _, alg, _, _ = pyth
    f = alg.x1(0) * alg.x2(3) * GaussRational(Fraction(2, 3), Fraction(-1, 5)) \
        + alg.x1(1) * alg.x1(1) * 3 - alg.one()
    text = format_poly(f)
    assert text == "(-1,0) + (2/3,-1/5)*x1_0*x2_3 + (3,0)*x1_1^2"
    assert (_read_poly(alg, text) - f).is_zero()
    g = f * alg.casimir()
    assert (_read_poly(alg, format_poly(g)) - g).is_zero()
    assert format_poly(alg.zero()) == "0"
    assert _read_poly(alg, "0").is_zero()


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_mono_key_orders_by_degree_first(i, j):
    m1 = tuple(1 if k == i else 0 for k in range(8))
    m2 = tuple(1 if k == j else 0 for k in range(8)) \
        if i != j else tuple(2 if k == j else 0 for k in range(8))
    if sum(m1) < sum(m2):
        assert mono_key(m1) < mono_key(m2)


def test_mono_key_sorts_as_the_graded_word_order():
    """The key orders every monomial of degree <= 8 as (degree, expanded word)
    does, and no two monomials share a key."""
    monos = [m for n in range(9) for m in basis_monomials(n)]
    assert len(monos) == 12870
    assert sorted(monos, key=mono_key) == sorted(monos, key=lambda m: (sum(m), mono_word(m)))
    assert len({mono_key(m) for m in monos}) == len(monos)


def _expanded_product(alg, f, g, split):
    """The product of two sparse values expanded through mono_mul, summed with
    add_into in the order of the loops: the reference for the product table.
    split(key) is (A-monomial, rest); the rests of a product add slot by slot."""
    out = {}
    for x, c in f.terms.items():
        m, hm = split(x)
        for y, d in g.terms.items():
            n, hn = split(y)
            hk = tuple(map(operator.add, hm, hn))
            for k, e in alg.mono_mul(m, n).items():
                add_into(out, (k, hk) if hk else k, c * d * e)
    return out


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
def test_products_read_from_the_table_equal_the_direct_expansion(backend):
    """NCPoly and MixedElement products, on a cold and on a warm table, keep
    the terms, the key order and (on floats) every bit of the expansion."""
    _, alg, s, _ = make_point("1/3,2/3,2/3", backend)
    rng = random.Random(7)
    h = [CommPoly.generator(backend, a) for a in range(4)]
    for _ in range(6):
        f, g = _random_poly(alg, rng, degree=3, terms=4), _random_poly(alg, rng, degree=3, terms=4)
        a = MixedElement.from_poly(s, f, h[rng.randrange(4)] * h[rng.randrange(4)])
        b = MixedElement.from_poly(s, g, h[rng.randrange(4)])
        # both orders twice: the table must give (m, n) and (n, m) their own products
        for x, y in [(f, g), (g, f)] * 2:
            want = NCPoly(alg, _expanded_product(alg, x, y, lambda m: (m, ())))
            assert list((x * y).terms.items()) == list(want.terms.items())
        for x, y in [(a, b), (b, a)] * 2:
            want = MixedElement(s, _expanded_product(alg, x, y, lambda key: key))
            assert list((x * y).terms.items()) == list(want.terms.items())


def test_float_equality_follows_the_tolerance_rule():
    _, alg, _, _ = make_point("3/5,4/5,0", FLOAT)
    f = alg.x1(0) * alg.x2(1) + alg.one()
    assert f == f and f == NCPoly(alg, dict(f.terms))
    near = NCPoly(alg, {m: c + 1e-12 for m, c in f.terms.items()})
    far = NCPoly(alg, {m: c + 1e-6 for m, c in f.terms.items()})
    assert near == f and f == near
    assert far != f and f != far
    assert NCPoly(alg, {**f.terms, (0, 0, 0, 0, 0, 0, 0, 2): 1e-6 + 0j}) != f
