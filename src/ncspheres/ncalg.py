"""Quadratic *-algebra on two commuting families of four hermitian generators.

Generators are indexed 0..3 (first family, "x1") and 4..7 (second family,
"x2").  Words are brought to the normal order x1-part then x2-part using the
exchange tensor: x2^alpha x1^lambda = conj(R)^{lambda alpha}_{beta mu}
x1^mu x2^beta, with each family commutative.  Monomials are 8-tuples of
exponents; the monomial order is graded, then lexicographic on the expanded
word with x1_0 < x1_1 < ... < x2_3, so the leading monomial of the quadratic
casimir x^2 is (x2_3)^2.

Products go through one normal-ordering recursion (mono_mul), and
confluence_check certifies that its normal monomials are a basis by checking
associativity on every generator triple (Bergman's diamond lemma).  Normal
forms, the star operation and ideal reduction are all exact over the
algebra's scalar backend; the float backend reuses the same code paths with
tolerance-based pruning.  ReductionContext is the one quotient type: the
algebra at a parameter point, to which quotient() adds one central relation
at a time (x^2 = 1 gives the seven-sphere, and the three-sphere radius on top
of it the three-sphere).  Reduction is division by the monic relations, whose
pairwise coprime leads make them a Groebner basis.
"""

from __future__ import annotations

import itertools
import operator

from .errors import DegreeOverflow, NotAGroebnerBasis, NotCentral
from .rmatrix import ConditionReport, DeformParams, RTensor, build_BigR
from .scalars import Backend, Sparse, add_into, row_reduce

NGEN = 8
X1 = range(0, 4)
X2 = range(4, 8)

ZERO8 = (0,) * 8
_UNIT4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

# reduce refuses monomials above this degree; the tasks reduce at most degree 4
DEGREE_CAP = 12


def mono_word(m):
    """Expanded generator word of a normal monomial, ascending ids."""
    out = []
    for g in range(NGEN):
        out.extend([g] * m[g])
    return tuple(out)


def mono_key(m):
    """Sort key realizing the graded-then-lex order (bigger key = later)."""
    # as (sum(m), mono_word(m)): in one degree, more copies of a lower generator sort first
    return (sum(m), *map(operator.neg, m))


def basis_monomials(n: int):
    """All degree-n normal monomials, sorted ascending in the monomial order:
    one per multiset of n generator ids, that is, per nondecreasing word."""
    words = itertools.combinations_with_replacement(range(NGEN), n)
    return sorted((tuple(map(w.count, range(NGEN))) for w in words), key=mono_key)


def basis_size(n: int) -> int:
    """Stars-and-bars count of degree-n monomials in 8 commuting slots."""
    import math

    return math.comb(n + NGEN - 1, NGEN - 1)


class Algebra:
    """The quadratic algebra A_R for a fixed exchange tensor and backend."""

    def __init__(self, R: RTensor, backend: Backend):
        self.R = R
        self.backend = backend
        # the rewrite rules: x^a x^b -> sum c x^c x^d, read off at each redex
        self.exchange = build_BigR(R)
        self._swap_cache = {}
        # product_terms' table: polynomial products meet few distinct monomial pairs
        self._products = {}

    # -- monomial multiplication --------------------------------------

    def _swap(self, x2part, x1part):
        """x2^{x2part} * x1^{x1part} as {(x1part', x2part'): coeff}.

        A one-generator x2 block passes x1's first generator by the exchange
        rows; a longer block first passes its last generator through."""
        key = (x2part, x1part)
        hit = self._swap_cache.get(key)
        if hit is not None:
            return hit
        be = self.backend
        res = {}
        if not any(x2part) or not any(x1part):
            res[x1part, x2part] = be.one
        elif sum(x2part) == 1:
            lam = next(g for g in range(4) if x1part[g])
            rest = tuple(map(operator.sub, x1part, _UNIT4[lam]))
            for (mu, b), c in self.exchange[(4 + x2part.index(1), lam)]:
                for (tail, fin2), c2 in self._swap(_UNIT4[b - 4], rest).items():
                    add_into(res, (tuple(map(operator.add, tail, _UNIT4[mu])), fin2), c * c2)
        else:
            alpha = next(g for g in range(3, -1, -1) if x2part[g])
            rest2 = tuple(map(operator.sub, x2part, _UNIT4[alpha]))
            for (mid1, beta), c in self._swap(_UNIT4[alpha], x1part).items():
                for (fin1, fin2), c2 in self._swap(rest2, mid1).items():
                    add_into(res, (fin1, tuple(map(operator.add, fin2, beta))), c * c2)
        res = {k: v for k, v in res.items() if not be.is_zero(v)}
        self._swap_cache[key] = res
        return res

    def mono_mul(self, m, n):
        """Product of two normal monomials as {monomial: coeff}."""
        m1, m2 = m[:4], m[4:]
        n1, n2 = n[:4], n[4:]
        if not any(m2) or not any(n1):
            return {tuple(map(operator.add, m, n)): self.backend.one}
        # distinct (mid1, mid2) give distinct products, so nothing accumulates
        return {(m1[0] + mid1[0], m1[1] + mid1[1], m1[2] + mid1[2], m1[3] + mid1[3],
                 mid2[0] + n2[0], mid2[1] + n2[1], mid2[2] + n2[2], mid2[3] + n2[3]): c
                for (mid1, mid2), c in self._swap(m2, n1).items()}

    def product_terms(self, m, n):
        """mono_mul(m, n) as a tuple of (monomial, coeff), kept in _products."""
        self._products[m, n] = terms = tuple(self.mono_mul(m, n).items())
        return terms

    def star_mono(self, m):
        """Star of a normal monomial: reverse the word, generators hermitian."""
        # (x1^a x2^b)* = x2^b x1^a since each family is commutative
        return {f1 + f2: c for (f1, f2), c in self._swap(m[4:], m[:4]).items()}

    # -- polynomial constructors ---------------------------------------

    def zero(self) -> "NCPoly":
        return NCPoly(self, {})

    def one(self) -> "NCPoly":
        return NCPoly(self, {ZERO8: self.backend.one})

    def generator(self, g: int) -> "NCPoly":
        if not 0 <= g < NGEN:
            raise ValueError(f"generator id {g} out of range")
        return NCPoly(self, {tuple(1 if i == g else 0 for i in range(NGEN)): self.backend.one})

    def x1(self, k: int) -> "NCPoly":
        return self.generator(k)

    def x2(self, k: int) -> "NCPoly":
        return self.generator(4 + k)

    def casimir(self) -> "NCPoly":
        """x^2 = (x1)^2 + (x2)^2, the full quadratic casimir."""
        return self.family_casimir(1) + self.family_casimir(2)

    def family_casimir(self, family: int) -> "NCPoly":
        """(x1)^2 or (x2)^2 for family 1 or 2."""
        gens = X1 if family == 1 else X2
        be = self.backend
        return NCPoly(self, {tuple(2 if i == g else 0 for i in range(NGEN)): be.one
                             for g in gens})

    def scalar(self, c) -> "NCPoly":
        c = self.backend.convert(c)
        return NCPoly(self, {ZERO8: c})


class NCPoly(Sparse):
    """Sparse normal-form polynomial {8-tuple monomial: scalar coefficient}."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: Algebra, terms):
        self.algebra = algebra
        be = algebra.backend
        self.terms = {m: c for m, c in terms.items() if not be.is_zero(c)}

    def _new(self, terms) -> "NCPoly":
        return NCPoly(self.algebra, terms)

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: mono_key(kv[0]))

    # -- ring operations ------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            alg = self.algebra
            products = alg._products
            out = {}
            for m, c in self.terms.items():
                for n, d in other.terms.items():
                    cd = c * d
                    # add_into written out: 260 k of 304 k calls in a profiled sphere run
                    for k, e in products.get((m, n)) or alg.product_terms(m, n):
                        got = out.get(k)
                        out[k] = cd * e if got is None else got + cd * e
            return NCPoly(alg, out)
        return self.scale(self.algebra.backend.convert(other))

    __rmul__ = __mul__

    def star(self) -> "NCPoly":
        """Antilinear antihomomorphism; generators are hermitian."""
        alg = self.algebra
        out = {}
        for m, c in self.terms.items():
            cc = c.conjugate()
            for k, e in alg.star_mono(m).items():
                add_into(out, k, cc * e)
        return NCPoly(alg, out)

    def commutator(self, other: "NCPoly") -> "NCPoly":
        return self * other - other * self

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"NCPoly({format_poly(self)})"


def commutators(f: NCPoly) -> list:
    """[f, x_g] for the eight generators g = 0..7 of f's algebra, in order.

    Generators generate, so f is central iff every one of these is zero.
    """
    alg = f.algebra
    return [f.commutator(alg.generator(g)) for g in range(NGEN)]


def span_solve(alg: Algebra, basis, targets) -> tuple:
    """(pivots, coords) of one row_reduce of [basis | targets]: a row per
    monomial of their union, in sorted order, keyed by polynomial position.
    Pivots lie in basis positions and each column is updated alone, so
    coords[t] depends on target t's own column only: its coefficients on
    basis[pivots[r]], or None outside the span."""
    be, n = alg.backend, len(basis)
    polys = list(basis) + list(targets)
    rows = {m: {} for m in sorted({m for p in polys for m in p.terms}, key=mono_key)}
    for k, p in enumerate(polys):
        for m, c in p.terms.items():
            rows[m][k] = c
    rows = list(rows.values())
    pivots = row_reduce(rows, range(n), be)
    rank = len(pivots)
    return pivots, [None if any(not be.is_zero(row.get(t, be.zero)) for row in rows[rank:])
                    else [row.get(t, be.zero) for row in rows[:rank]]
                    for t in range(n, len(polys))]


# ---------------------------------------------------------------------------
# confluence certification (diamond lemma)
# ---------------------------------------------------------------------------


def confluence_check(alg: Algebra) -> dict:
    """Certify the monomial basis through the product that computes it.

    mono_mul rewrites a word only by the rules in alg.exchange (x2^a x1^l to
    x1 x2 terms) and the flips within a family, under one fixed strategy.
    Each rewrite strictly lowers (cross inversions, in-family inversions) in
    lexicographic order, so rewriting terminates.  (x_a x_b) x_c reduces the
    redex ab first and x_a (x_b x_c) the redex bc, so equality on all 512
    generator triples resolves every overlap ambiguity.  By Bergman's diamond
    lemma (Adv. Math. 29, 1978) the system is then confluent: the normal
    monomials are a basis, the graded dimensions are the stars-and-bars
    counts, and mono_mul computes the unique normal form in every degree.
    The witness is the first failing triple in lexicographic order.  The 64
    pair products x_a x_b are formed once and shared by both sides.
    """
    x = [alg.generator(g) for g in range(NGEN)]
    xx = [[xa * xb for xb in x] for xa in x]
    defects = {(a, b, c): xx[a][b] * x[c] - x[a] * xx[b][c]
               for a, b, c in itertools.product(range(NGEN), repeat=3)}
    r = ConditionReport.judge("confluence", alg.backend, defects, lambda w, _: f"word {w}")
    return {"passed": r.passed, "witness": r.witness}


# ---------------------------------------------------------------------------
# reduction modulo central relations (division by a Groebner basis)
# ---------------------------------------------------------------------------


class ReductionContext:
    """The algebra at one parameter point, modulo c_j - 1 for central c_j.

    ReductionContext(base, params) holds no relation yet: it is the algebra
    itself.  quotient(c) adds one relation, so the seven-sphere is the
    algebra modulo x^2 - 1 and the three-sphere is the seven-sphere modulo
    its radius.  Each c_j must be homogeneous and central; c_j - 1 is reduced
    modulo relations 0..j-1 and made monic.  The algebra is of solvable type
    (Kandri-Rody and Weispfenning, J. Symbolic Comput. 9, 1990), so
    lead(q * g) = q * lead(g); with pairwise coprime leads the monic
    relations are a Groebner basis (Bergman's diamond lemma), and dividing a
    monomial by the first relation whose lead divides it, recursing on the
    lower terms, gives the unique normal form.  A relation that keeps no lead
    or shares a generator with an earlier lead, and a product whose lead is
    not the divided monomial with coefficient 1, raise NotAGroebnerBasis.
    """

    def __init__(self, base: Algebra, params: DeformParams):
        self.base, self.params = base, params
        self._relations = ()  # (lead, monic terms), normal modulo the earlier ones
        self._memo = ({},)  # [k]: {monomial: normal form modulo the first k relations}

    def quotient(self, c: NCPoly) -> "ReductionContext":
        """This quotient modulo c - 1 as well.  The new context shares this
        one's relations and memos by identity: a later relation changes
        neither the earlier relations nor the normal forms modulo them.
        Raises NotCentral naming the first generator of commutators(c) that
        is not zero, and ValueError unless c is homogeneous."""
        be = self.base.backend
        r = ConditionReport.judge("central", be, commutators(c), lambda g, _: f"generator {g}")
        if not r.passed:
            raise NotCentral(f"relation element not central, {r.witness}")
        if len({sum(m) for m in c.terms}) != 1:
            raise ValueError("relation element must be homogeneous")
        g = self._reduce_terms({**c.terms, ZERO8: -be.one}, len(self._relations))
        lead = max(g, key=mono_key, default=ZERO8)
        if lead == ZERO8:
            raise NotAGroebnerBasis("relation keeps no lead modulo the earlier ones")
        for earlier, _ in self._relations:
            if any(a and b for a, b in zip(lead, earlier)):
                raise NotAGroebnerBasis(
                    f"leads {mono_word(earlier)} and {mono_word(lead)} share a generator")
        inv = 1 / g[lead]
        monic = {m: inv * c for m, c in g.items()} | {lead: be.one}
        q = ReductionContext(self.base, self.params)
        q._relations, q._memo = self._relations + ((lead, monic),), self._memo + ({},)
        return q

    def _reduce_terms(self, terms: dict, k: int) -> dict:
        """Normal form of {monomial: coeff} modulo the first k relations."""
        be = self.base.backend
        if k:
            out = {}
            for m, c in terms.items():
                for n, d in self._normal_form(m, k).items():
                    add_into(out, n, c * d)
            terms = out
        return {m: c for m, c in terms.items() if not be.is_zero(c)}

    def _divide(self, m, k):
        """The lower terms of m - q * g_j for the first of the first k relations
        whose lead divides m = q * lead(g_j); None if m is normal."""
        alg = self.base
        for j, (lead, g) in enumerate(self._relations[:k]):
            q = tuple(a - b for a, b in zip(m, lead))
            if min(q) < 0:
                continue
            prod = {}
            for n, c in g.items():
                for n2, e in alg.mono_mul(q, n).items():
                    add_into(prod, n2, c * e)
            prod = self._reduce_terms(prod, j)  # g_j is central only modulo 0..j-1
            top = max(prod, key=mono_key, default=None)
            if top != m or not alg.backend.is_zero(prod.pop(m) - 1):
                raise NotAGroebnerBasis(
                    f"lead of the product for {mono_word(m)} is not that monomial")
            return {n: -c for n, c in prod.items()}
        return None

    def _normal_form(self, m, k: int) -> dict:
        """Memoized division of m by the first k relations."""
        memo = self._memo[k]
        hit = memo.get(m)
        if hit is None:
            step = self._divide(m, k)
            hit = {m: self.base.backend.one} if step is None else self._reduce_terms(step, k)
            memo[m] = hit
        return hit

    def reduce_mono(self, m):
        """Cached canonical form of a single monomial as {monomial: coeff}."""
        return self._normal_form(m, len(self._relations))

    def reduce(self, f: NCPoly) -> NCPoly:
        """Canonical representative of f modulo the ideal, via the monomial memos."""
        for m in f.terms:
            if sum(m) > DEGREE_CAP:
                raise DegreeOverflow(f"degree {sum(m)} exceeds reduction cap {DEGREE_CAP}")
        return NCPoly(self.base, self._reduce_terms(f.terms, len(self._relations)))


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

_GEN_NAMES = [f"x1_{k}" for k in range(4)] + [f"x2_{k}" for k in range(4)]


def format_poly(f: NCPoly) -> str:
    if not f.terms:
        return "0"
    parts = []
    for m, c in f.items_sorted():
        factors = [str(c)]
        for g in range(NGEN):
            if m[g] == 1:
                factors.append(_GEN_NAMES[g])
            elif m[g] > 1:
                factors.append(f"{_GEN_NAMES[g]}^{m[g]}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def leading_term(f: NCPoly) -> str:
    """f's last term in monomial order, as format_poly writes it."""
    return format_poly(NCPoly(f.algebra, dict(f.items_sorted()[-1:])))
