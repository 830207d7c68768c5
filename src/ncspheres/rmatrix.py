"""Deformation tensors R^{lambda alpha}_{beta mu} and their admissibility checks.

The tensor drives the exchange relation x1^lambda x2^alpha =
R^{la}_{bm} x2^beta x1^mu.  Admissibility is a bundle of exact conditions:
reality (conjugate contraction is the identity), a four-term symmetry chain,
two quadratic exchange conditions, and involutivity plus the braid relation
for the big 64x64 exchange operator on all eight generators.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from operator import itemgetter

from .errors import MalformedNumber, ParamsNotOnSphere
from .quatlin import translation
from .scalars import (EXACT, Backend, add_into, all_zero, max_residual, parse_rational,
                      row_reduce)

N = 4  # generators per family


class DeformParams(namedtuple("DeformParams", "u0 u1 u2")):
    """Point (u0, u1, u2) on the real 2-sphere selecting a deformation:
    immutable, and equal and hashable by value."""

    __slots__ = ()

    @staticmethod
    def parse(text: str) -> "DeformParams":
        parts = text.split(",")
        if len(parts) != 3:
            raise MalformedNumber(f"expected 'u0,u1,u2', got {text!r}")
        u0, u1, u2 = (parse_rational(p) for p in parts)
        return DeformParams(u0, u1, u2)

    def validate(self) -> None:
        """Raise ParamsNotOnSphere unless u0^2 + u1^2 + u2^2 = 1 exactly.

        The point is rational, so the test is exact on either backend.
        """
        s = self.u0 * self.u0 + self.u1 * self.u1 + self.u2 * self.u2
        if s != 1:
            raise ParamsNotOnSphere(f"(u0,u1,u2)={self} has norm^2 {s}")

    def scalars(self, backend: Backend):
        return tuple(backend.convert(u) for u in (self.u0, self.u1, self.u2))

    def label(self) -> str:
        return f"{self.u0},{self.u1},{self.u2}"

    def __str__(self):
        return f"({self.u0}, {self.u1}, {self.u2})"


class RTensor:
    """Dense 4x4x4x4 coefficient tensor."""

    __slots__ = ("data", "backend")

    def __init__(self, data, backend: Backend):
        self.data = data
        self.backend = backend

    def entry(self, lam, alpha, beta, mu):
        return self.data[lam][alpha][beta][mu]

    def items(self) -> list:
        """Entries that are not exactly zero, as ((lam, alpha, beta, mu), coeff).

        Read from data on every call, in lexicographic index order, so every
        contraction sum runs over its contracted index in increasing order,
        as a dense loop would, and float sums round the same way.  The zero
        test is exact on both backends: a float entry below the tolerance is
        still nonzero and still takes part in a contraction.
        """
        d = self.data
        return [((lam, alpha, beta, mu), d[lam][alpha][beta][mu])
                for lam in range(N) for alpha in range(N)
                for beta in range(N) for mu in range(N)
                if d[lam][alpha][beta][mu] != 0]


def build_R_quaternionic(params: DeformParams, backend: Backend = EXACT) -> RTensor:
    """R = u0 * flip-identity + i * J+_1 (x) (u1 J+_1 + u2 J+_2).

    Index placement: R[lam][alpha][beta][mu] multiplies x2^beta x1^mu in the
    rewrite of x1^lam x2^alpha, so the first J factor carries (lam, mu) and
    the second (alpha, beta).
    """
    params.validate()
    u0, u1, u2 = params.scalars(backend)
    zero, one, i = backend.zero, backend.one, backend.i
    lift = {0: zero, 1: one, -1: -one}
    J1, J2 = ([[lift[k] for k in row] for row in translation(a)] for a in (1, 2))
    D = [[u1 * a + u2 * b for a, b in zip(r1, r2)] for r1, r2 in zip(J1, J2)]
    # zero (+ u0), then + the J term: this order fixes the sign of float zeros
    data = [[[[(zero + u0 if lam == mu and alpha == beta else zero)
               + i * J1[lam][mu] * D[alpha][beta]
               for mu in range(N)] for beta in range(N)] for alpha in range(N)]
            for lam in range(N)]
    return RTensor(data, backend)


# ---------------------------------------------------------------------------
# condition checks
# ---------------------------------------------------------------------------


class ConditionReport:
    def __init__(self, name: str, passed: bool, max_residual: float, witness: str | None = None):
        self.name, self.passed = name, passed
        self.max_residual, self.witness = max_residual, witness

    @classmethod
    def judge(cls, name: str, be: Backend, defects, label) -> "ConditionReport":
        """The report on `defects`, {key: value} or a list keyed by position:
        passed iff every value is zero by ``all_zero``; ``max_residual`` is only
        displayed.  A failing report's witness is ``label(key, value)`` of the
        first value that is not zero."""
        keyed = list(defects.items() if isinstance(defects, dict) else enumerate(defects))
        values = [v for _, v in keyed]
        passed = all_zero(be, values)
        witness = None if passed else label(*next((k, v) for k, v in keyed
                                                  if not all_zero(be, (v,))))
        return cls(name, passed, max_residual(values), witness)

    def to_dict(self) -> dict:
        """name, passed and max_residual, and the witness if there is one."""
        return {k: v for k, v in vars(self).items() if v is not None}


def _pairs(R: RTensor, left: tuple, right: tuple):
    """(idx, c, jdx, d) for each pair of nonzero entries R[idx] = c and
    R[jdx] = d whose indices at `left` and at `right` agree: the one join
    of the two-factor contractions.  idx runs in lexicographic order and,
    for each idx, so does jdx, so every sum adds its terms in a fixed order.
    """
    nz = R.items()
    by_key = {}
    for jdx, d in nz:
        by_key.setdefault(tuple(jdx[s] for s in right), []).append((jdx, d))
    for idx, c in nz:
        for jdx, d in by_key.get(tuple(idx[s] for s in left), ()):
            yield idx, c, jdx, d


def _compare(name: str, be: Backend, lhs: dict, rhs: dict, fmt: str) -> ConditionReport:
    """Report on lhs - rhs over the union of keys, in lexicographic key order.

    A key on neither side has lhs = rhs = 0 there, so it can neither fail nor
    raise the residual; the witness is the first failing key, in `fmt`.
    """
    diffs = {key: lhs.get(key, be.zero) - rhs.get(key, be.zero)
             for key in sorted(lhs.keys() | rhs.keys())}
    return ConditionReport.judge(name, be, diffs, lambda key, _: fmt.format(*key))


def check_reality(R: RTensor) -> ConditionReport:
    """conj(R)^{la}_{bm} R^{mb}_{gn} = delta^l_n delta^a_g.

    The contraction runs over the nonzero entries of R only: each nonzero
    conj(R)^{la}_{bm} meets the nonzero R^{mb}_{..} that share (m, b).  The
    witness is the first failing (lam, alpha, gam, nu) in lexicographic order.
    """
    be = R.backend
    lhs = {}
    for (lam, alpha, _, _), c, (_, _, gam, nu), d in _pairs(R, (3, 2), (0, 1)):
        add_into(lhs, (lam, alpha, gam, nu), c.conjugate() * d)
    ident = {(lam, alpha, alpha, lam): be.one for lam in range(N) for alpha in range(N)}
    return _compare("reality", be, lhs, ident,
                    "indices (lam,alpha,gam,nu)=({},{},{},{})")


def invert_16x16(R: RTensor):
    """Contraction inverse of R viewed as a 16x16 matrix over its backend."""
    be, n = R.backend, N * N
    rows = [{n + k: be.one} for k in range(n)]
    for (lam, alpha, beta, mu), c in R.items():
        rows[lam * N + alpha][beta * N + mu] = c
    if len(row_reduce(rows, range(n), be)) < n:
        raise ZeroDivisionError("R tensor is singular as a 16x16 matrix")

    def rinv(beta, mu, lam, alpha):
        return rows[beta * N + mu].get(n + lam * N + alpha, be.zero)

    return rinv


def check_symmetry_chain(R: RTensor) -> ConditionReport:
    """R^{lb}_{am} = R^{ma}_{bl} = conj(R^{mb}_{al}) = (R^-1)^{bm}_{la}."""
    rinv = invert_16x16(R)
    diffs = {}
    for lam, beta, alpha, mu in itertools.product(range(N), repeat=4):
        v = R.entry(lam, beta, alpha, mu)
        for tag, w in (("exchange", R.entry(mu, alpha, beta, lam)),
                       ("conjugate", R.entry(mu, beta, alpha, lam).conjugate()),
                       ("inverse", rinv(beta, mu, lam, alpha))):
            diffs[tag, lam, beta, alpha, mu] = v - w
    return ConditionReport.judge("symmetry_chain", R.backend, diffs,
                                 lambda key, _: "{} at ({},{},{},{})".format(*key))


def _quadratic(name: str, R: RTensor, join: tuple, lhs_at: tuple, rhs_at: tuple):
    """Report on an identity whose sides sum the same products: each pair R[idx] R[jdx]
    of _pairs(R, *join) adds to the lhs at the positions lhs_at of the eight indices
    idx + jdx (0-3 from idx, 4-7 from jdx), then to the rhs at rhs_at."""
    lhs, rhs, lkey, rkey = {}, {}, itemgetter(*lhs_at), itemgetter(*rhs_at)
    for idx, c, jdx, d in _pairs(R, *join):
        ij, prod = idx + jdx, c * d
        add_into(lhs, lkey(ij), prod)
        add_into(rhs, rkey(ij), prod)
    return _compare(name, R.backend, lhs, rhs, "({},{},{},{},{},{})")


def check_quadratic_1(R: RTensor) -> ConditionReport:
    """R^{lb}_{ar} R^{rd}_{gm} = R^{ld}_{gr} R^{rb}_{am} (contraction over r).

    The contraction runs over the nonzero entries of R only.  Both sides sum
    the same products: a nonzero pair R^{pq}_{rs} R^{st}_{uv} adds to the lhs
    at (l,b,a,d,g,m) = (p,q,r,t,u,v) and to the rhs at (p,t,u,q,r,v).  The
    witness is the first failing (lam, beta, alpha, delta, gam, mu) in
    lexicographic order.
    """
    return _quadratic("quadratic_1", R, ((3,), (0,)), (0, 1, 2, 5, 6, 7), (0, 5, 6, 1, 2, 7))


def check_quadratic_2(R: RTensor) -> ConditionReport:
    """R^{lb}_{gn} R^{mg}_{ar} = R^{mb}_{gr} R^{lg}_{an} (contraction over g).

    The contraction runs over the nonzero entries of R only.  Both sides sum
    the same products: a nonzero pair R^{pq}_{gs} R^{tg}_{uv} adds to the lhs
    at (l,b,n,m,a,r) = (p,q,s,t,u,v) and to the rhs at (t,q,v,p,u,s).  The
    witness is the first failing (lam, beta, nu, mu, alpha, rho) in
    lexicographic order.
    """
    return _quadratic("quadratic_2", R, ((2,), (1,)), (0, 1, 3, 4, 6, 7), (4, 1, 7, 0, 6, 3))


def build_BigR(R: RTensor) -> dict:
    """Exchange operator on all 8 generators as sparse rows.

    Returns {(a, b): [((c, d), coeff), ...]} meaning
    x^a x^b = sum coeff * x^c x^d.  Within-family blocks are the flip;
    cross blocks carry R and conj(R), read off R.items(), so each cross
    row lists its entries in (beta, mu) order and takes exactly the
    entries the contraction checks take.
    """
    one = R.backend.one
    rows = {(a, b): [((b, a), one)] if (a < N) == (b < N) else []
            for a in range(8) for b in range(8)}
    for (lam, alpha, beta, mu), c in R.items():
        # x1^lam x2^alpha carries R, x2^alpha x1^lam carries conj(R)
        rows[(lam, alpha + N)].append(((beta + N, mu), c))
        rows[(alpha + N, lam)].append(((mu, beta + N), c.conjugate()))
    return rows


def _compose_rows(first: dict, second: dict, be: Backend) -> dict:
    """Row map of (second after first): keys -> list of (key, coeff)."""
    out = {}
    for key, ents in first.items():
        acc = {}
        for mid, c in ents:
            for fin, d in second[mid]:
                add_into(acc, fin, c * d)
        out[key] = [(k, v) for k, v in acc.items() if not be.is_zero(v)]
    return out


def _flat(rows: dict) -> dict:
    """A row map as {(word, image): coeff}."""
    return {(key, fin): c for key, ents in rows.items() for fin, c in ents}


def check_involutive(R: RTensor) -> ConditionReport:
    """BigR squared is the identity on the 64-dimensional degree-2 space.

    The witness is the first failing (word, image) pair in lexicographic order.
    """
    be = R.backend
    rows = build_BigR(R)
    ident = {(key, key): be.one for key in rows}
    return _compare("involutive", be, _flat(_compose_rows(rows, rows, be)), ident, "{} -> {}")


def _lift(rows: dict, slot: int) -> dict:
    """Lift the 2-site operator to 3 sites, acting on (slot, slot+1)."""
    out = {}
    for a in range(8):
        for b in range(8):
            for c in range(8):
                key = (a, b, c)
                if slot == 0:
                    out[key] = [((d, e, c), coeff) for (d, e), coeff in rows[(a, b)]]
                else:
                    out[key] = [((a, d, e), coeff) for (d, e), coeff in rows[(b, c)]]
    return out


def check_yang_baxter(R: RTensor) -> ConditionReport:
    """(BigR x 1)(1 x BigR)(BigR x 1) = (1 x BigR)(BigR x 1)(1 x BigR).

    The witness is the first failing (word, image) pair in lexicographic order.
    """
    be = R.backend
    rows = build_BigR(R)
    r01 = _lift(rows, 0)
    r12 = _lift(rows, 1)
    lhs = _flat(_compose_rows(_compose_rows(r01, r12, be), r01, be))
    rhs = _flat(_compose_rows(_compose_rows(r12, r01, be), r12, be))
    return _compare("yang_baxter", be, lhs, rhs, "{} -> {}")


def check_all_conditions(R: RTensor) -> list:
    """All admissibility checks in a fixed order."""
    return [
        check_reality(R),
        check_symmetry_chain(R),
        check_quadratic_1(R),
        check_quadratic_2(R),
        check_involutive(R),
        check_yang_baxter(R),
    ]
