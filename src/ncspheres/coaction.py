"""The classical SU(2) symmetry of the seven-sphere quotient.

H is the commutative *-algebra of polynomial functions on unit quaternions,
in the four real coordinates w0..w3 modulo sum (w^mu)^2 = 1.  Its Hopf
structure is dual to quaternion multiplication.  One class, CommPoly, holds
H and its tensor powers H^{(x) k}: a key lists the exponents of w0..w3 of
each of the k factors, one block of four after another, so the product
adds keys position by position and the tensor product concatenates them.

The sphere algebra carries the right coaction induced by x_i -> x_i w on
both generator quaternions; the corepresentation matrix is built directly
from the quaternion product,

    h^mu_nu = (e_nu w)^mu  in H,   delta(x_i^mu) = sum_nu x_i^nu (x) h^mu_nu,

so no matrix sign conventions enter.  Because right multiplications compose
contravariantly, this h satisfies the right-comodule law
Delta(h^mu_rho) = sum_nu h^nu_rho (x) h^mu_nu.

Derivations D_a are the infinitesimal actions x -> x e_a extended by the
Leibniz rule; their joint kernels per degree are the coinvariants.
"""

from __future__ import annotations

import functools
import operator

from .ncalg import NCPoly, ReductionContext, basis_monomials, span_solve
from .quatlin import epsilon, quat_conjugate, quat_multiply, translation
from .rmatrix import ConditionReport
from .scalars import Backend, Sparse, add_into, all_zero, max_residual, row_reduce
from .spheres import lead_witness, quaternion_generators

H_ONE = (0, 0, 0, 0)


def _reduce_hmono(mono, coeff, out):
    """Push w3^2 -> 1 - w0^2 - w1^2 - w2^2 in every block of four exponents
    until each block's w3 exponent is 0 or 1."""
    stack = [(mono, coeff)]
    while stack:
        m, c = stack.pop()
        j = 3
        while m[j] < 2:
            j += 4
            if j >= len(m):
                add_into(out, m, c)
                break
        else:  # the block ending at j holds w3^2
            base = m[:j] + (m[j] - 2,) + m[j + 1:]
            stack.append((base, c))
            for i in range(j - 3, j):
                lower = list(base)
                lower[i] += 2
                stack.append((tuple(lower), -c))
    return out


class CommPoly(Sparse):
    """Element of H^{(x) k}: commutative polynomial in the w0..w3 of each of
    k factors, modulo the unit norm in each.

    Keys are normalised where they are formed: the constructor reduces raw
    terms (products, hand-built keys); ``_new``, for sums, differences and
    scalings of reduced keys, only prunes zeros."""

    __slots__ = ("backend",)

    def __init__(self, backend: Backend, terms):
        self.backend = backend
        acc = {}
        for m, c in terms.items():
            _reduce_hmono(m, c, acc)
        self.terms = {m: c for m, c in acc.items() if not backend.is_zero(c)}

    def _new(self, terms) -> "CommPoly":
        new = object.__new__(CommPoly)
        new.backend = be = self.backend
        new.terms = {m: c for m, c in terms.items() if not be.is_zero(c)}
        return new

    @classmethod
    def generator(cls, backend, mu: int):
        m = tuple(1 if i == mu else 0 for i in range(4))
        return cls(backend, {m: backend.one})

    def _product(self, other: "CommPoly", join) -> "CommPoly":
        """The sum of c d at join(m, n) over the terms (m, c) of self and (n, d) of other."""
        out = {}
        for m, c in self.terms.items():
            for n, d in other.terms.items():
                add_into(out, join(m, n), c * d)
        return CommPoly(self.backend, out)

    def __mul__(self, other: "CommPoly") -> "CommPoly":
        return self._product(other, lambda m, n: tuple(map(operator.add, m, n)))

    def tensor(self, other: "CommPoly") -> "CommPoly":
        """self (x) other: each pair of keys concatenated."""
        return self._product(other, operator.add)


# ---------------------------------------------------------------------------
# Hopf structure on generators, extended as algebra maps
# ---------------------------------------------------------------------------


def hopf_delta_gen(backend, mu: int) -> CommPoly:
    """Coproduct of w^mu, dual to the quaternion product: the sum of
    +-w^a (x) w^b over the (a, b) with e_a e_b = +-e_mu: row mu of the
    left translations."""
    unit = [tuple(int(i == a) for i in range(4)) for a in range(4)]
    terms = {}
    for a in range(4):
        for b, k in enumerate(translation(a)[mu]):
            if k:
                terms[unit[a] + unit[b]] = backend.one if k > 0 else -backend.one
    return CommPoly(backend, terms)


@functools.cache
def _hopf_gens(backend) -> tuple:
    """hopf_delta_gen for mu = 0..3, built once per backend; shared, so never mutated."""
    return tuple(hopf_delta_gen(backend, mu) for mu in range(4))


def _extend(terms: dict, images, unit):
    """sum c * prod_g images[g]^{m[g]} over the terms {m: c}: the algebra map
    fixed by its values on the generators."""
    out = unit._new({})
    for m, c in terms.items():
        term = unit.scale(c)
        for g, e in enumerate(m):
            for _ in range(e):
                term = term * images[g]
        out = out + term
    return out


def hopf_delta(f: CommPoly) -> CommPoly:
    """Coproduct as an algebra map H -> H (x) H."""
    be = f.backend
    return _extend(f.terms, _hopf_gens(be), CommPoly(be, {H_ONE + H_ONE: be.one}))


def hopf_counit(f: CommPoly):
    """Evaluation at the identity quaternion: the coefficients of the
    monomials in w0 alone."""
    return sum((c for m, c in f.terms.items() if not any(m[1:])), f.backend.zero)


def hopf_antipode(f: CommPoly) -> CommPoly:
    """Quaternion conjugation: w0 -> w0, w^a -> -w^a, a sign on each key."""
    return f._new({m: -c if (m[1] + m[2] + m[3]) % 2 else c for m, c in f.terms.items()})


def check_hopf_axioms(backend: Backend) -> list:
    """Coassociativity, counit and antipode laws on generators and on all
    degree-2 products.  H does not depend on the point, so the reports are
    computed once per backend; each call returns a fresh list."""
    return list(_hopf_axiom_reports(backend))


@functools.cache
def _hopf_axiom_reports(be: Backend) -> tuple:
    names = ("hopf_coassociativity", "hopf_counit", "hopf_antipode")
    return tuple(ConditionReport.judge(name, be, dict(law), lambda w, _: w)
                 for name, law in zip(names, _hopf_axiom_defects(be)))


def _hopf_axiom_defects(be: Backend) -> tuple:
    """(coassociativity, counit, antipode): lists of (witness, difference of
    the two sides) on the generators and all degree-2 products, left law
    before right.  Each element's Delta is walked once, each side's terms
    added into one dict; Delta, eps and S are taken once per monomial, and
    an element's Delta and eps summed from its monomials'."""
    images = {}  # monomial -> (Delta, eps, S)

    def image(m):
        if m not in images:
            g = CommPoly(be, {m: be.one})
            images[m] = hopf_delta(g), hopf_counit(g), hopf_antipode(g)
        return images[m]

    w = [CommPoly.generator(be, i) for i in range(4)]
    elements = [(f"w{a}", w[a]) for a in range(4)]
    elements += [(f"w{a}*w{b}", w[a] * w[b]) for a in range(4) for b in range(a, 4)]
    coassoc, counit, antipode = [], [], []
    for name, f in elements:
        delta = sum((image(n)[0].scale(c) for n, c in f.terms.items()), CommPoly(be, {}))
        eps = sum((c * image(n)[1] for n, c in f.terms.items()), be.zero)
        sides = left, right, lc, rc, sl, sr = {}, {}, {}, {}, {}, {}
        for m, c in delta.terms.items():
            m1, m2 = m[:4], m[4:]
            (d1, e1, s1), (d2, e2, s2) = image(m1), image(m2)
            # (Delta (x) id) Delta = (id (x) Delta) Delta
            for k, d in d1.terms.items():
                add_into(left, k + m2, c * d)
            for k, d in d2.terms.items():
                add_into(right, m1 + k, c * d)
            # (eps (x) id) Delta = id = (id (x) eps) Delta
            add_into(lc, m2, c * e1)
            add_into(rc, m1, c * e2)
            # m (S (x) id) Delta = eps(f) 1 = m (id (x) S) Delta
            for k, d in s1.terms.items():
                add_into(sl, tuple(map(operator.add, k, m2)), c * d)
            for k, d in s2.terms.items():
                add_into(sr, tuple(map(operator.add, m1, k)), c * d)
        # only the antipode keys add exponents (making w3^2): the others join reduced blocks
        left, right, lc, rc = (f._new(t) for t in sides[:4])
        sl, sr = (CommPoly(be, t) for t in sides[4:])
        target = CommPoly(be, {H_ONE: eps})
        coassoc.append((f"{name}: (Delta x id) Delta != (id x Delta) Delta", left - right))
        counit += [(f"{name}: (eps x id) Delta != id", lc - f),
                   (f"{name}: (id x eps) Delta != id", rc - f)]
        antipode += [(f"{name}: m (S x id) Delta != eps 1", sl - target),
                     (f"{name}: m (id x S) Delta != eps 1", sr - target)]
    return coassoc, counit, antipode


# ---------------------------------------------------------------------------
# mixed elements of A (x) H
# ---------------------------------------------------------------------------


class MixedElement(Sparse):
    """Sparse element of A(S7_R) (x) H; A-slots sphere-reduced, H-slots
    norm-reduced by the constructor, and ``_new`` only prunes zeros."""

    __slots__ = ("sphere",)

    def __init__(self, sphere: ReductionContext, terms):
        self.sphere = sphere
        be = sphere.base.backend
        acc = {}
        for (am, hm), c in terms.items():
            for am2, c2 in sphere.reduce_mono(am).items():
                if hm[3] < 2:  # already norm-reduced, as almost every key is
                    add_into(acc, (am2, hm), c * c2)
                    continue
                for hm2, c3 in _reduce_hmono(hm, c * c2, {}).items():
                    add_into(acc, (am2, hm2), c3)
        self.terms = {k: v for k, v in acc.items() if not be.is_zero(v)}

    def _new(self, terms) -> "MixedElement":
        new = object.__new__(MixedElement)
        new.sphere = sphere = self.sphere
        be = sphere.base.backend
        new.terms = {k: v for k, v in terms.items() if not be.is_zero(v)}
        return new

    @classmethod
    def from_poly(cls, sphere, f: NCPoly, h: CommPoly | None = None):
        be = sphere.base.backend
        hterms = {H_ONE: be.one} if h is None else h.terms
        terms = {}
        for m, c in f.terms.items():
            for hm, hc in hterms.items():
                add_into(terms, (m, hm), c * hc)
        return cls(sphere, terms)

    def __mul__(self, other):
        alg = self.sphere.base
        products = alg._products
        out = {}
        for (am, hm), c in self.terms.items():
            for (an, hn), d in other.terms.items():
                cd = c * d
                hk = (hm[0] + hn[0], hm[1] + hn[1], hm[2] + hn[2], hm[3] + hn[3])
                for ak, e in products.get((am, an)) or alg.product_terms(am, an):
                    add_into(out, (ak, hk), cd * e)
        return MixedElement(self.sphere, out)

    def star(self):
        alg = self.sphere.base
        out = {}
        for (am, hm), c in self.terms.items():
            cc = c.conjugate()
            for ak, e in alg.star_mono(am).items():
                add_into(out, (ak, hm), cc * e)
        return MixedElement(self.sphere, out)


# ---------------------------------------------------------------------------
# the coaction
# ---------------------------------------------------------------------------


def corep_matrix(backend: Backend, *, right: bool) -> list:
    """h^mu_nu = (e_nu w)^mu in H, the right-multiplication corepresentation,
    or with right=False (w e_nu)^mu, used only as the faulty one-sided variant."""
    h = [[None] * 4 for _ in range(4)]
    for a in range(4):
        w = CommPoly.generator(backend, a)
        for mu, row in enumerate(translation(a, right)):
            for nu, k in enumerate(row):
                if k:
                    h[mu][nu] = w if k > 0 else -w
    return h


def _identity_table(backend: Backend) -> list:
    """h^mu_nu = delta^mu_nu, constant in H: the table of a family the coaction fixes."""
    return [[CommPoly(backend, {H_ONE: backend.one} if mu == nu else {}) for nu in range(4)]
            for mu in range(4)]


def _family_images(s: ReductionContext, h, family: int) -> list:
    """delta(x^mu) = sum_nu x^nu (x) h^mu_nu on the generators of one family."""
    images = []
    for mu in range(4):
        img = MixedElement(s, {})
        for nu in range(4):
            img = img + MixedElement.from_poly(s, s.base.generator(family * 4 + nu), h[mu][nu])
        images.append(img)
    return images


class Coaction:
    """Algebra map A -> A (x) H fixed by one corepresentation table per
    generator family: delta(x_i^mu) = sum_nu x_i^nu (x) h_i^mu_nu."""

    def __init__(self, sphere: ReductionContext, tables):
        self.sphere = sphere
        self.tables = tables  # (h_1, h_2), 4x4 tables of CommPoly
        self.images = [img for family, h in enumerate(tables)
                       for img in _family_images(sphere, h, family)]

    def delta(self, f: NCPoly) -> MixedElement:
        sphere = self.sphere
        return _extend(f.terms, self.images, MixedElement.from_poly(sphere, sphere.base.one()))


def diagonal_coaction(s: ReductionContext) -> Coaction:
    """x_i -> x_i w on both quaternions: the bundle's structure coaction."""
    h = corep_matrix(s.base.backend, right=True)
    return Coaction(s, (h, h))


def one_sided_left_coaction(s: ReductionContext) -> Coaction:
    """x1 -> w x1, x2 -> x2: generally fails to preserve the relations."""
    be = s.base.backend
    return Coaction(s, (corep_matrix(be, right=False), _identity_table(be)))


def relation_report(co: Coaction) -> dict:
    """Relation preservation: delta is well defined iff the images satisfy the
    normal-ordering relations.  For x2 generator gi and x1 generator gj the
    coaction applied to the normal form of x_gi x_gj must equal the product
    of the images.  No other pair is formed: for gi <= gj the word is normal
    and delta multiplies the same images in the same order, and a family's
    images lie in that family (x) H, where both factors commute.  With the
    sphere relation x^2 -> 1 (x) 1.
    """
    s = co.sphere
    alg = s.base
    relations = {f"g{gi}*g{gj}": co.images[gi] * co.images[gj]
                 - co.delta(alg.generator(gi) * alg.generator(gj))
                 for gi in range(4, 8) for gj in range(4)}
    relations["x^2 - 1"] = co.delta(alg.casimir()) - MixedElement.from_poly(s, alg.one())
    failures = [{"relation": name, "residual": diff.residual()}
                for name, diff in relations.items() if not diff.is_zero()]
    return {
        "relations_preserved": not failures,
        "max_residual": max_residual(relations.values()),
        "failures": failures[:4],
    }


def check_comodule_algebra(co: Coaction) -> dict:
    """The relation report, star compatibility on the generator images, and
    on each distinct table (the diagonal coaction's two families share one)
    the comodule law (delta x id) delta = (id x Delta) delta and the counit law.
    """
    be = co.sphere.base.backend
    rep = relation_report(co)
    star_ok = all_zero(be, [img.star() - img for img in co.images])
    coassoc, counit = [], []
    for h in {id(h): h for h in co.tables}.values():
        for mu in range(4):
            for rho in range(4):
                rhs = CommPoly(be, {})
                for nu in range(4):
                    rhs = rhs + h[nu][rho].tensor(h[mu][nu])
                coassoc.append(hopf_delta(h[mu][rho]) - rhs)
                counit.append(hopf_counit(h[mu][rho]) - (be.one if mu == rho else be.zero))
    coassoc_ok, counit_ok = all_zero(be, coassoc), all_zero(be, counit)
    return {
        **rep,
        "star_compatible": star_ok,
        "coassociative": coassoc_ok,
        "counit_law": counit_ok,
        "passed": rep["relations_preserved"] and star_ok and coassoc_ok and counit_ok,
    }


# ---------------------------------------------------------------------------
# derivations and coinvariants
# ---------------------------------------------------------------------------


@functools.cache
def derivation_matrix(a: int):
    """Integer matrix M with D_a(x^mu) = sum_nu M[mu][nu] x^nu.

    M is the negated right-translation matrix (x -> -x e_a), the sign that
    makes D_1(x1^0) = +x1^1; the joint kernels are insensitive to it.
    """
    return tuple(tuple(-k for k in row) for row in translation(a, right=True))


def derivation(alg, a: int, f: NCPoly) -> NCPoly:
    """Leibniz extension of the infinitesimal right translation.  D_a turns an
    x^mu into sum_nu M[mu][nu] x^nu of the same family, and each family
    commutes, so each occurrence moves one exponent of a normal monomial."""
    return NCPoly(alg, _derive(a, f.terms))


def _derive(a: int, terms: dict) -> dict:
    """The terms of D_a applied to the polynomial with these terms."""
    M = derivation_matrix(a)
    out = {}
    for m, c in terms.items():
        for g in range(8):
            for _ in range(m[g]):
                for nu, k in enumerate(M[g % 4]):
                    if k:
                        img = list(m)
                        img[g] -= 1
                        img[g - g % 4 + nu] += 1
                        add_into(out, tuple(img), k * c)
    return out


def coinvariants(alg, degree: int) -> list:
    """Basis of the joint kernel of D_1, D_2, D_3 on the degree-n component.

    Computed in the graded quadratic algebra (the derivations preserve
    degree); the quotient sphere algebra inherits each coinvariant.  D_a
    only moves exponents, so the kernel does not depend on the point.
    """
    return [NCPoly(alg, terms) for terms in _kernel_terms(alg.backend, degree)]


@functools.cache
def _kernel_terms(be: Backend, degree: int) -> tuple:
    """Each coinvariant as {basis monomial: coefficient}, solved once per
    backend and degree; shared, so never mutated.

    One row_reduce of the stacked images of D_1, D_2, D_3: a row per
    derivation and image monomial, keyed by the basis monomial it comes
    from.  One kernel vector per free monomial fc, in basis order: 1 at fc
    and minus the pivot rows' fc entries at their pivots.
    """
    basis = basis_monomials(degree)
    rows = {(a, mm): {} for a in (1, 2, 3) for mm in basis}
    for a in (1, 2, 3):
        for m in basis:
            for mm, c in _derive(a, {m: be.one}).items():
                rows[a, mm][m] = c
    rows = list(rows.values())
    pivot_rows = dict(zip(row_reduce(rows, basis, be), rows))
    return tuple({m: be.one if m == fc else -pivot_rows[m][fc] for m in basis
                  if m == fc or fc in pivot_rows.get(m, ())}
                 for fc in basis if fc not in pivot_rows)


def span_contains(alg, basis_polys, targets) -> bool:
    """Exact membership of each of `targets` in the span, by one span_solve."""
    return None not in span_solve(alg, basis_polys, targets)[1]


def derivation_reports(s: ReductionContext, ys) -> list:
    """Invariance of the Y system, the Leibniz rule, and the su(2) bracket."""
    alg = s.base
    be = alg.backend
    inv = [derivation(alg, a, f) for a in (1, 2, 3) for f in list(ys.Y) + [ys.Y4]]
    gens = [alg.generator(g) for g in range(8)]
    probes = gens + [ys.Y[0], ys.Y[3]]
    D = [{a: derivation(alg, a, f) for a in (1, 2, 3)} for f in probes]
    # Leibniz on the 64 ordered pairs of generators, which every D_a moves
    fg = [[f * g for g in gens] for f in gens]
    leib = [derivation(alg, a, fg[i][j]) - (D[i][a] * g + f * D[j][a])
            for a in (1, 2, 3) for i, f in enumerate(gens) for j, g in enumerate(gens)]
    # operator bracket [D_a, D_b] against the quaternion prediction.
    # On coefficient vectors D_a D_b acts as M_b M_a (reversed order), and
    # with the negated right translations [M_b, M_a] = -2 eps_{abc} M_c,
    # so the operator bracket is -2 eps_{abc} D_c.
    su2 = []
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            if a == b:
                continue
            for Df in D:
                lhs = derivation(alg, a, Df[b]) - derivation(alg, b, Df[a])
                rhs = alg.zero()
                for c in (1, 2, 3):
                    e = epsilon(a, b, c)
                    if e:
                        rhs = rhs + (-2 * e) * Df[c]
                su2.append(lhs - rhs)
    return [
        ConditionReport.judge("derivations_kill_y_system", be, inv, lead_witness),
        ConditionReport.judge("derivation_leibniz", be, leib, lead_witness),
        ConditionReport.judge("derivation_su2_bracket", be, su2, lead_witness),
    ]


def coinvariant_report(s: ReductionContext, ys, co: Coaction) -> dict:
    """Degree-1 and degree-2 coinvariants, matched against the Y span and the coaction."""
    alg = s.base
    k1 = coinvariants(alg, 1)
    k2 = coinvariants(alg, 2)
    expected = list(ys.Y) + [ys.Y4, alg.casimir()]
    contains = span_contains(alg, k2, expected)
    full_match = len(k2) == 6 and contains and span_contains(alg, expected, k2)
    # finite cross-check: delta(f) = f (x) 1 for each kernel element
    fixed = all_zero(alg.backend, [co.delta(f) - MixedElement.from_poly(s, f) for f in k2])
    return {
        "dim_degree_1": len(k1),
        "dim_degree_2": len(k2),
        "contains_y_span": contains,
        "equals_y_span": full_match,
        "delta_fixes_kernel": fixed,
    }


# ---------------------------------------------------------------------------
# the canonical-map witness
# ---------------------------------------------------------------------------


def canonical_witness(co: Coaction) -> dict:
    """T = <psi| delta(|psi>) must equal (1 (x) w^mu) componentwise.

    This is the generator-level surjectivity witness for the canonical map
    of the bundle: every H-generator is hit, and the structure Hopf algebra
    is cosemisimple, which upgrades surjectivity to bijectivity.
    """
    s = co.sphere
    alg = s.base
    be = alg.backend
    x1, x2 = quaternion_generators(alg)
    dx1, dx2 = co.images[:4], co.images[4:]
    c1 = [MixedElement.from_poly(s, f) for f in quat_conjugate(x1)]
    c2 = [MixedElement.from_poly(s, f) for f in quat_conjugate(x2)]
    T = [a + b for a, b in zip(quat_multiply(c2, dx2), quat_multiply(c1, dx1))]
    diffs = [T[mu] - MixedElement.from_poly(s, alg.one(), CommPoly.generator(be, mu))
             for mu in range(4)]
    return {
        "passed": all_zero(be, diffs),
        "max_residual": max_residual(diffs),
        "component_residuals": [d.residual() for d in diffs],
    }
