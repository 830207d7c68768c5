"""Structure Hopf algebra, bundle coaction, derivations, coinvariants."""

import json
import random
from fractions import Fraction

import pytest

from ncspheres import coaction
from ncspheres.cli import RunSpec, main, run, sweep
from ncspheres.coaction import (CommPoly, MixedElement, canonical_witness,
                                check_comodule_algebra, check_hopf_axioms,
                                coinvariant_report, coinvariants, corep_matrix,
                                derivation, derivation_matrix,
                                derivation_reports, diagonal_coaction,
                                hopf_antipode, hopf_counit,
                                hopf_delta, one_sided_left_coaction,
                                span_contains)
from ncspheres.errors import DegreeOverflow
from ncspheres.ncalg import NCPoly, basis_monomials, span_solve
from ncspheres.quatlin import epsilon
from ncspheres.rmatrix import DeformParams
from ncspheres.scalars import EXACT, FLOAT

from conftest import make_point


@pytest.fixture(scope="module")
def diag(pyth):
    _, _, s, _ = pyth
    return diagonal_coaction(s)


def test_hopf_axioms_exact():
    for rep in check_hopf_axioms(EXACT):
        assert rep.passed and rep.max_residual == 0.0
    names = [r.name for r in check_hopf_axioms(EXACT)]
    assert names == ["hopf_coassociativity", "hopf_counit", "hopf_antipode"]


def test_hopf_axioms_float():
    for rep in check_hopf_axioms(FLOAT):
        assert rep.passed and rep.max_residual <= 1e-9


def test_hopf_generators_are_built_once_per_backend(monkeypatch):
    built = []
    original = coaction.hopf_delta_gen

    def counting(backend, mu):
        built.append(mu)
        return original(backend, mu)

    monkeypatch.setattr(coaction, "hopf_delta_gen", counting)
    coaction._hopf_gens.cache_clear()
    coaction._hopf_axiom_reports.cache_clear()
    be = FLOAT
    first = check_hopf_axioms(be)
    assert check_hopf_axioms(be) == first
    assert sorted(built) == [0, 1, 2, 3]
    assert coaction._hopf_gens.cache_info().misses == 1
    # the shared chains are still the coproducts of the generators
    for mu, gen in enumerate(coaction._hopf_gens(be)):
        assert gen.terms == original(be, mu).terms


def _written_out_delta_gen(backend, mu):
    """Oracle: the coproduct of w^mu spelled out with the Levi-Civita symbol."""
    w = [CommPoly.generator(backend, i) for i in range(4)]
    if mu == 0:
        out = w[0].tensor(w[0])
        for a in (1, 2, 3):
            out = out - w[a].tensor(w[a])
        return out
    out = w[0].tensor(w[mu]) + w[mu].tensor(w[0])
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            e = epsilon(a, b, mu)
            if e:
                t = w[a].tensor(w[b])
                out = out + (t if e > 0 else t.scale(-backend.one))
    return out


def test_hopf_delta_gen_matches_the_written_out_coproduct():
    for be in (EXACT, FLOAT):
        for mu in range(4):
            got = coaction.hopf_delta_gen(be, mu)
            want = _written_out_delta_gen(be, mu)
            assert got == want
            assert got.terms == want.terms


def _sweep_counting_hopf_checks(monkeypatch, backend_name, be):
    """Three-point cli.sweep on cold Hopf caches; returns the results, the
    number of times the axiom-check body ran, and the generators built.
    Afterwards a check on `be` must hit the cache, so the body ran on it."""
    built = []
    gen = coaction.hopf_delta_gen

    def counting_gen(be, mu):
        built.append(mu)
        return gen(be, mu)

    coaction._hopf_axiom_reports.cache_clear()
    coaction._hopf_gens.cache_clear()
    monkeypatch.setattr(coaction, "hopf_delta_gen", counting_gen)
    points = [DeformParams.parse(p) for p in ("1,0,0", "3/5,4/5,0", "1/3,2/3,2/3")]
    results = sweep(points, backend_name=backend_name)
    runs = coaction._hopf_axiom_reports.cache_info().misses
    check_hopf_axioms(be)
    assert coaction._hopf_axiom_reports.cache_info().misses == runs
    return results, runs, built


def test_hopf_axioms_are_checked_once_across_a_float_sweep(monkeypatch):
    results, runs, built = _sweep_counting_hopf_checks(monkeypatch, "float", FLOAT)
    assert all(r["passed"] for r, _ in results)
    assert runs == 1
    assert sorted(built) == [0, 1, 2, 3]


def test_hopf_axioms_are_checked_once_across_a_sweep(monkeypatch):
    results, runs, built = _sweep_counting_hopf_checks(monkeypatch, "exact", EXACT)
    assert all(r["passed"] for r, _ in results)
    assert runs == 1
    assert sorted(built) == [0, 1, 2, 3]
    hopf = [r["tasks"]["coaction"]["hopf"] for r, _ in results]
    assert hopf[0] == hopf[1] == hopf[2]
    assert [h["name"] for h in hopf[0]] == [
        "hopf_coassociativity", "hopf_counit", "hopf_antipode"]


def test_mutating_the_returned_reports_leaves_the_next_call_alone():
    be = FLOAT
    first = check_hopf_axioms(be)
    kept = list(first)
    first.reverse()
    first.pop()
    assert check_hopf_axioms(be) == kept


def _written_out_hopf_defects(be):
    """Oracle: the (coassociativity, counit, antipode) defects written out
    term by term, each side summed as CommPolys, with the module's (possibly
    patched) hopf_delta, hopf_counit and hopf_antipode taken on every factor."""
    delta, counit_of = coaction.hopf_delta, coaction.hopf_counit
    antipode_of = coaction.hopf_antipode
    w = [CommPoly.generator(be, i) for i in range(4)]
    elements = list(w) + [w[a] * w[b] for a in range(4) for b in range(a, 4)]
    coassoc, counit, antipode = [], [], []
    for f in elements:
        left = right = lc = rc = sl = sr = CommPoly(be, {})
        for m, c in delta(f).terms.items():
            f1 = CommPoly(be, {m[:4]: be.one})
            f2 = CommPoly(be, {m[4:]: be.one})
            left = left + delta(f1).tensor(f2).scale(c)
            right = right + f1.tensor(delta(f2)).scale(c)
            lc = lc + CommPoly(be, {m[4:]: c * counit_of(f1)})
            rc = rc + CommPoly(be, {m[:4]: c * counit_of(f2)})
            sl = sl + (antipode_of(f1) * f2).scale(c)
            sr = sr + (f1 * antipode_of(f2)).scale(c)
        coassoc.append(left - right)
        counit += [lc - f, rc - f]
        target = CommPoly(be, {coaction.H_ONE: counit_of(f)})
        antipode += [sl - target, sr - target]
    return coassoc, counit, antipode


W1 = (0, 1, 0, 0)


def _flip_one_sign_of_delta_w1(monkeypatch):
    real = coaction.hopf_delta_gen

    def flipped(backend, mu):
        d = real(backend, mu)
        if mu != 1:
            return d
        k = min(d.terms)
        return CommPoly(backend, {**d.terms, k: -d.terms[k]})

    monkeypatch.setattr(coaction, "hopf_delta_gen", flipped)
    coaction._hopf_gens.cache_clear()


def _offset_counit_of_w1(monkeypatch):
    real = coaction.hopf_counit
    monkeypatch.setattr(coaction, "hopf_counit",
                        lambda f: real(f) + f.terms.get(W1, f.backend.zero))


def _identity_antipode(monkeypatch):
    monkeypatch.setattr(coaction, "hopf_antipode", lambda f: f)


HOPF_FAULTS = {
    "hopf_coassociativity": (_flip_one_sign_of_delta_w1,
                             "w0: (Delta x id) Delta != (id x Delta) Delta"),
    "hopf_counit": (_offset_counit_of_w1, "w0: (eps x id) Delta != id"),
    "hopf_antipode": (_identity_antipode, "w0: m (S x id) Delta != eps 1"),
}


@pytest.fixture
def cold_hopf_caches():
    """The Hopf caches cleared before and after a test that patches the maps."""
    for cache in (coaction._hopf_axiom_reports, coaction._hopf_gens):
        cache.cache_clear()
    yield
    for cache in (coaction._hopf_axiom_reports, coaction._hopf_gens):
        cache.cache_clear()


@pytest.mark.parametrize("fault", [None, *HOPF_FAULTS])
@pytest.mark.parametrize("be", [EXACT, FLOAT], ids=["exact", "float"])
def test_hopf_defects_match_the_written_out_check(be, fault, monkeypatch, cold_hopf_caches):
    if fault:
        HOPF_FAULTS[fault][0](monkeypatch)
    got = coaction._hopf_axiom_defects(be)
    want = _written_out_hopf_defects(be)
    assert [len(law) for law in got] == [14, 28, 28]
    for got_law, want_law in zip(got, want):
        assert [d.terms for _, d in got_law] == [d.terms for d in want_law]
    if fault:
        assert any(not d.is_zero() for d in want[list(HOPF_FAULTS).index(fault)])


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("verdict", list(HOPF_FAULTS))
def test_a_broken_hopf_map_fails_its_verdict(verdict, backend, monkeypatch, tmp_path,
                                             capsys, cold_hopf_caches):
    """Negative controls: one sign of Delta(w1) flipped, eps offset by 1 on w1,
    S the identity; each fails its verdict and names the first failing law."""
    breaks, witness = HOPF_FAULTS[verdict]
    breaks(monkeypatch)
    out = tmp_path / "coaction.json"
    assert main(["coaction", "--backend", backend, "--quiet", "--json", str(out)]) == 1
    capsys.readouterr()
    task = json.loads(out.read_text())["tasks"]["coaction"]
    assert task["passed"] is False
    hopf = {r["name"]: r for r in task["hopf"]}
    assert hopf[verdict]["passed"] is False
    assert hopf[verdict]["max_residual"] > 0
    assert hopf[verdict]["witness"] == witness


def test_passing_hopf_reports_carry_no_witness():
    for be in (EXACT, FLOAT):
        assert all("witness" not in r.to_dict() for r in check_hopf_axioms(be))


def test_one_hopf_check_takes_delta_of_each_monomial_once(monkeypatch, cold_hopf_caches):
    args = []
    real = coaction.hopf_delta

    def counting(f):
        args.append(tuple(sorted(f.terms)))
        return real(f)

    monkeypatch.setattr(coaction, "hopf_delta", counting)
    assert all(r.passed for r in check_hopf_axioms(EXACT))
    assert len(args) == len(set(args))
    assert all(len(a) == 1 for a in args)
    # 1, the w^mu and the nine norm-reduced degree-2 monomials
    assert len(args) == 14


def _assert_keys_stay_reduced(make, values, be):
    """Sums, differences and scalings of reduced elements: the full
    constructor run again on their terms changes nothing."""
    two = be.convert(2)
    for x in values:
        for y in values:
            for z in (x + y, x - y, x.scale(two), -x, (x + y).scale(two) - y):
                assert make(z.terms).terms == z.terms


@pytest.mark.parametrize("be", [EXACT, FLOAT], ids=["exact", "float"])
def test_linear_operations_keep_hopf_keys_reduced(be):
    w = [CommPoly.generator(be, i) for i in range(4)]
    in_h = [w[3] * w[3], w[1] * w[3], hopf_antipode(w[2] * w[3])]
    in_hh = [w[3].tensor(w[3] * w[3]), hopf_delta(w[3] * w[3]), w[3].tensor(w[1])]
    for values in (in_h, in_hh):
        _assert_keys_stay_reduced(lambda t: CommPoly(be, t), values, be)


@pytest.mark.parametrize("label", ["3/5,4/5,0", "1/3,2/3,2/3"])
@pytest.mark.parametrize("be", [EXACT, FLOAT], ids=["exact", "float"])
def test_linear_operations_keep_mixed_keys_reduced(label, be):
    _, alg, s, _ = make_point(label, be)
    co = diagonal_coaction(s)
    x1, x2 = co.images[1], co.images[6]
    values = [x1, x2, x1 * x2, x2 * x1, x1 * x1, MixedElement.from_poly(s, alg.casimir())]
    _assert_keys_stay_reduced(lambda t: MixedElement(s, t), values, be)


def test_norm_relation_is_built_in():
    w = [CommPoly.generator(EXACT, mu) for mu in range(4)]
    norm = w[0] * w[0] + w[1] * w[1] + w[2] * w[2] + w[3] * w[3]
    assert (norm - CommPoly(EXACT, {coaction.H_ONE: EXACT.one})).is_zero()


def test_norm_relation_reduces_each_tensor_factor_on_its_own():
    """In H (x) H, w3^2 in the second factor becomes 1 - w0^2 - w1^2 - w2^2
    there, and the first factor is left as it is."""
    one = EXACT.one
    got = CommPoly(EXACT, {(1, 0, 0, 0, 0, 0, 0, 2): one})
    assert got.terms == {(1, 0, 0, 0, 0, 0, 0, 0): one,
                         (1, 0, 0, 0, 2, 0, 0, 0): -one,
                         (1, 0, 0, 0, 0, 2, 0, 0): -one,
                         (1, 0, 0, 0, 0, 0, 2, 0): -one}
    # a w3^2 in each factor reduces in each
    both = CommPoly(EXACT, {(0, 0, 0, 2) * 2: one})
    assert len(both.terms) == 16
    assert all(m[3] < 2 and m[7] < 2 for m in both.terms)


def test_tensor_product_multiplies_factorwise():
    """(f (x) g)(f' (x) g') = f f' (x) g g', including through the norm
    relation."""
    for be in (EXACT, FLOAT):
        w = [CommPoly.generator(be, mu) for mu in range(4)]
        f, g = w[3] + w[1] * w[2], w[0] - w[3]
        f2, g2 = w[3] * w[0], w[3] + w[2].scale(be.convert(Fraction(1, 2)))
        assert f.tensor(g) * f2.tensor(g2) == (f * f2).tensor(g * g2)


def test_coproduct_is_multiplicative_on_degree_two():
    for be in (EXACT, FLOAT):
        w = [CommPoly.generator(be, mu) for mu in range(4)]
        for a in range(4):
            for b in range(a, 4):
                assert hopf_delta(w[a] * w[b]) == hopf_delta(w[a]) * hopf_delta(w[b])


def test_antipode_is_an_involution():
    w = [CommPoly.generator(EXACT, mu) for mu in range(4)]
    f = w[0] * w[1] - w[2] * w[3] + w[1]
    assert hopf_antipode(hopf_antipode(f)) == f


def test_counit_is_multiplicative():
    w = [CommPoly.generator(EXACT, mu) for mu in range(4)]
    for a in range(4):
        for b in range(4):
            lhs = hopf_counit(w[a] * w[b])
            rhs = hopf_counit(w[a]) * hopf_counit(w[b])
            assert EXACT.is_zero(lhs - rhs)


def test_corep_entries_counit_to_kronecker():
    h = corep_matrix(EXACT, right=True)
    for mu in range(4):
        for nu in range(4):
            v = hopf_counit(h[mu][nu])
            want = EXACT.one if mu == nu else EXACT.zero
            assert EXACT.is_zero(v - want)


def test_diagonal_coaction_is_a_comodule_algebra(diag):
    rep = check_comodule_algebra(diag)
    assert rep["passed"]
    assert rep["relations_preserved"] and not rep["failures"]
    assert rep["star_compatible"] and rep["coassociative"] and rep["counit_law"]
    assert rep["max_residual"] == 0.0


@pytest.mark.parametrize("build", [diagonal_coaction, one_sided_left_coaction],
                         ids=["diagonal", "one_sided"])
@pytest.mark.parametrize("be", [EXACT, FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("label", ["3/5,4/5,0", "1/3,2/3,2/3"])
def test_ordered_generator_pairs_preserve_the_relations_by_construction(label, be, build):
    """check_comodule_algebra skips the pairs gi <= gj, where x_gi x_gj is
    already normal and delta multiplies the images in ascending generator
    order, and the same-family pairs gi > gj, whose images lie in that family
    (x) H, where the family and H both commute: for all of them
    images[gi] * images[gj] - delta(x_gi x_gj) has no terms."""
    _, alg, s, _ = make_point(label, backend=be)
    co = build(s)
    ordered = [(gi, gj) for gi in range(8) for gj in range(gi, 8)]
    same_family = [(gi, gj) for family in (0, 4) for gi in range(family, family + 4)
                   for gj in range(family, gi)]
    for gi, gj in ordered + same_family:
        diff = co.images[gi] * co.images[gj] - co.delta(alg.generator(gi) * alg.generator(gj))
        assert not diff.terms, (gi, gj)


def test_delta_is_multiplicative_on_random_polys(pyth, diag):
    _, alg, _, _ = pyth
    rng = random.Random(31)
    for _ in range(3):
        f = alg.scalar(Fraction(rng.randint(-3, 3)))
        g = alg.scalar(Fraction(rng.randint(-3, 3)))
        for _ in range(2):
            f = f * alg.generator(rng.randrange(8))
            g = g * alg.generator(rng.randrange(8))
        assert (diag.delta(f * g) - diag.delta(f) * diag.delta(g)).is_zero()


def test_mixed_element_arithmetic(pyth):
    _, alg, s, _ = pyth
    a = MixedElement.from_poly(s, alg.x1(1))
    b = MixedElement.from_poly(s, alg.x2(2))
    prod = a * b
    assert prod == MixedElement.from_poly(s, alg.x1(1) * alg.x2(2))
    assert (a - a).is_zero() and (a - a).residual() == 0.0
    # hermitian A-slot with trivial H-slot is star-fixed
    assert a.star() == a
    # the sphere relation is applied inside the A slot
    assert MixedElement.from_poly(s, alg.casimir()) == \
        MixedElement.from_poly(s, alg.one())


def test_canonical_witness_is_exact(diag):
    rep = canonical_witness(diag)
    assert rep["passed"] and rep["max_residual"] == 0.0
    assert rep["component_residuals"] == [0.0, 0.0, 0.0, 0.0]


def test_derivation_reports_pass(pyth):
    _, _, s, ys = pyth
    reps = derivation_reports(s, ys)
    assert [r.name for r in reps] == [
        "derivations_kill_y_system", "derivation_leibniz",
        "derivation_su2_bracket"]
    for rep in reps:
        assert rep.passed and rep.max_residual == 0.0


def test_derivation_on_first_family_is_pinned(pyth):
    # right-translation convention: D_a x^0 = x^a, D_a x^a = -x^0,
    # D_a x^b = -eps_abc x^c
    _, alg, _, _ = pyth
    x = [alg.x1(mu) for mu in range(4)]
    assert (derivation(alg, 1, x[0]) - x[1]).is_zero()
    assert (derivation(alg, 1, x[1]) + x[0]).is_zero()
    assert (derivation(alg, 1, x[2]) + x[3]).is_zero()
    assert (derivation(alg, 1, x[3]) - x[2]).is_zero()


def _generator_product_derivation(alg, a, f):
    """Oracle: the Leibniz rule with every prefix and suffix multiplied out
    one generator at a time."""
    M = derivation_matrix(a)
    out = alg.zero()
    for m, c in f.terms.items():
        word = []
        for g in range(8):
            word.extend([g] * m[g])
        for pos in range(len(word)):
            g = word[pos]
            fam, mu = divmod(g, 4)
            pre = alg.one()
            for gg in word[:pos]:
                pre = pre * alg.generator(gg)
            post = alg.one()
            for gg in word[pos + 1:]:
                post = post * alg.generator(gg)
            for nu in range(4):
                if M[mu][nu] == 0:
                    continue
                mid = alg.generator(fam * 4 + nu)
                out = out + (pre * mid * post) * (M[mu][nu] * c)
    return out


@pytest.mark.parametrize("point", ["pyth", "mixed"])
def test_derivation_matches_generator_products(point, request):
    _, alg, _, _ = request.getfixturevalue(point)
    rng = random.Random(13)
    for _ in range(4):
        f = alg.zero()
        for _ in range(3):
            term = alg.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 3)):
                term = term * alg.generator(rng.randrange(8))
            f = f + term
        for a in (1, 2, 3):
            assert derivation(alg, a, f) == _generator_product_derivation(alg, a, f)


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("label", ["3/5,4/5,0", "1/3,2/3,2/3"])
def test_derivation_matches_generator_products_on_the_basis(label, backend, request):
    """Exponent arithmetic gives the Leibniz image formed from generator
    products, with the same coefficients, on every basis monomial of degree
    <= 4."""
    if backend == "exact":
        _, alg, _, _ = request.getfixturevalue("pyth" if label == "3/5,4/5,0" else "mixed")
    else:
        _, alg, _, _ = make_point(label, FLOAT)
    one = alg.backend.one
    monos = [m for k in range(5) for m in basis_monomials(k)]
    assert len(monos) == 495
    for m in monos:
        f = NCPoly(alg, {m: one})
        for a in (1, 2, 3):
            want = _generator_product_derivation(alg, a, f)
            assert derivation(alg, a, f).terms == want.terms, (a, m)


def test_coinvariants_match_y_span(pyth, diag):
    _, _, s, ys = pyth
    rep = coinvariant_report(s, ys, diag)
    assert rep["dim_degree_1"] == 0
    assert rep["dim_degree_2"] == 6
    assert rep["contains_y_span"] and rep["equals_y_span"]
    assert rep["delta_fixes_kernel"]


def test_coinvariants_refuse_large_degrees(pyth):
    _, alg, _, _ = pyth
    with pytest.raises(DegreeOverflow):
        coinvariants(alg, 5)


def test_coinvariant_span_of_the_wrong_size_fails_the_report(
        monkeypatch, tmp_path, capsys):
    """Negative control for the coinvariants: a degree-2 span one vector short."""
    real = coaction.coinvariants

    def short(alg, degree):
        vecs = real(alg, degree)
        return vecs[1:] if degree == 2 else vecs

    monkeypatch.setattr(coaction, "coinvariants", short)
    out = tmp_path / "coaction.json"
    assert main(["coaction", "--quiet", "--json", str(out)]) == 1
    capsys.readouterr()
    task = json.loads(out.read_text())["tasks"]["coaction"]
    assert not task["passed"]
    coinv = task["coinvariants"]
    assert coinv["dim_degree_2"] == 5
    assert coinv["equals_y_span"] is False
    assert sorted(coinv) == ["contains_y_span", "delta_fixes_kernel",
                             "dim_degree_1", "dim_degree_2", "equals_y_span"]
    assert task["comodule"]["passed"] and task["canonical_witness"]["passed"]


def test_a_degree_one_coinvariant_fails_the_coaction_task(monkeypatch, tmp_path, capsys):
    """Negative control for dim_degree_1: the degree-1 coinvariants made
    nonempty fail the task, while every other coaction verdict passes."""
    real = coaction.coinvariants

    def with_x1_0(alg, degree):
        vecs = real(alg, degree)
        return vecs + [alg.x1(0)] if degree == 1 else vecs

    monkeypatch.setattr(coaction, "coinvariants", with_x1_0)
    out = tmp_path / "coaction.json"
    assert main(["coaction", "--quiet", "--json", str(out)]) == 1
    capsys.readouterr()
    task = json.loads(out.read_text())["tasks"]["coaction"]
    assert task["passed"] is False
    coinv = task["coinvariants"]
    assert coinv["dim_degree_1"] == 1 and coinv["dim_degree_2"] == 6
    assert coinv["equals_y_span"] and coinv["delta_fixes_kernel"]
    assert all(r["passed"] for r in task["hopf"] + task["derivations"])
    assert task["comodule"]["passed"] and task["canonical_witness"]["passed"]


@pytest.mark.parametrize("be", [EXACT, FLOAT], ids=["exact", "float"])
def test_the_degree_four_coinvariants_are_twenty_vectors_each_d_a_kills(be):
    kernel = coaction._kernel_terms(be, 4)
    assert len(kernel) == 20
    for terms in kernel:
        for a in (1, 2, 3):
            assert all(be.is_zero(c) for c in coaction._derive(a, terms).values()), a


def test_one_coaction_task_takes_each_star_and_table_law_once(monkeypatch):
    """With the Hopf caches warm, one exact coaction task takes the star of
    the diagonal coaction's eight generator images once, and forms the 64
    tensor products of the comodule law once on the table that both its
    families share; the one-sided control runs its relation check alone."""
    check_hopf_axioms(EXACT)
    calls = {"star": 0, "tensor": 0}
    for cls, name in ((MixedElement, "star"), (CommPoly, "tensor")):
        def counting(*args, real=getattr(cls, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(cls, name, counting)
    report, _ = run(RunSpec(params=DeformParams.parse("3/5,4/5,0"), tasks=("coaction",)))
    assert report["tasks"]["coaction"]["passed"]
    assert calls == {"star": 8, "tensor": 64}


def test_one_sided_action_breaks_relations(pyth):
    _, _, s, _ = pyth
    rep = check_comodule_algebra(one_sided_left_coaction(s))
    assert not rep["passed"]
    assert not rep["relations_preserved"]
    assert rep["failures"] and rep["failures"][0]["residual"] > 0
    assert rep["max_residual"] > 0


def test_one_sided_action_fails_even_when_commutative(classical):
    # at the classical point the relations survive, the comodule law does not
    _, _, s, _ = classical
    rep = check_comodule_algebra(one_sided_left_coaction(s))
    assert rep["relations_preserved"]
    assert not rep["coassociative"]
    assert not rep["passed"]


def test_float_backend_coaction_residuals(pyth):
    from conftest import make_point
    _, _, s, ys = make_point("3/5,4/5,0", backend=FLOAT)
    co = diagonal_coaction(s)
    rep = check_comodule_algebra(co)
    assert rep["passed"] and rep["max_residual"] <= 1e-9
    assert canonical_witness(co)["max_residual"] <= 1e-9
    for r in derivation_reports(s, ys):
        assert r.passed and r.max_residual <= 1e-9


def test_span_contains_rejects_a_non_coinvariant(pyth):
    _, alg, _, ys = pyth
    k2 = coinvariants(alg, 2)
    x = alg.x1(0)
    assert not span_contains(alg, k2, [x * x])
    assert span_contains(alg, k2, [ys.Y[0]])


def test_span_contains_fails_when_one_of_several_targets_is_outside(pyth):
    _, alg, _, ys = pyth
    k2 = coinvariants(alg, 2)
    inside = list(ys.Y) + [ys.Y4, alg.casimir()]
    assert span_contains(alg, k2, inside)
    for pos in range(len(inside) + 1):
        targets = inside[:pos] + [alg.x1(0) * alg.x2(1)] + inside[pos:]
        assert not span_contains(alg, k2, targets)


@pytest.mark.parametrize("be", [EXACT, FLOAT], ids=["exact", "float"])
def test_span_solve_solves_each_target_as_if_alone(be):
    """Over the same rows, one elimination for several targets gives each
    target what an elimination for it alone gives, bit for bit on floats."""
    _, alg, _, ys = make_point("1/3,2/3,2/3", backend=be)
    k2 = coinvariants(alg, 2)
    targets = list(ys.Ystar) + [alg.x1(0) * alg.x1(0), ys.Y4]
    assert {m for f in targets for m in f.terms} <= {m for v in k2 for m in v.terms}
    pivots, coords = span_solve(alg, k2, targets)
    assert len(pivots) == 6
    assert [c is None for c in coords] == [False] * 4 + [True, False]
    for f, got in zip(targets, coords):
        alone_pivots, (alone,) = span_solve(alg, k2, [f])
        assert alone_pivots == pivots
        assert repr(alone) == repr(got)
