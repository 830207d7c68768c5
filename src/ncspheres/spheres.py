"""The seven-sphere quotient of the quadratic algebra, and the Y system.

The seven-sphere is the quotient by the central relation x^2 = 1.  On it the
pair (x2, x1) of quaternion-valued generators gives the projection
p = |psi><psi| and the degree-2 coordinate functions

    Y = 2 x2 conj(x1)   (quaternion product, components Y^0..Y^3),
    Y4 = ||x2||^2 - ||x1||^2,

whose star structure is encoded by a symmetric unitary matrix Lambda with
Y^{mu*} = Lambda^mu_nu Y^nu.  Lambda is recovered here by solving the linear
system exactly from the computed stars, independently of its closed form,
so the closed-form comparison is a genuine cross-check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .errors import InvalidSpec
from .ncalg import Algebra, NCPoly, ReductionContext, commutators, leading_term, span_solve
from .quatlin import Mat, embed_M2, epsilon, quat_conjugate, quat_multiply
from .rmatrix import ConditionReport, DeformParams
from .scalars import Backend, all_zero


def build_sphere(alg: Algebra, kind: str, params: DeformParams) -> ReductionContext:
    """The seven-sphere, alg modulo x^2 = 1 ('seven_sphere', the one kind
    there is), at the parameter point that built alg's exchange tensor.

    Raises NotCentral if the casimir fails to commute with every generator
    (possible for fault-injected exchange tensors).
    """
    if kind != "seven_sphere":
        raise InvalidSpec(f"unknown sphere kind {kind!r}")
    return ReductionContext(alg, params).quotient(alg.casimir())


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def quaternion_generators(alg: Algebra):
    """The two generator quaternions (x1, x2) as 4-tuples of NCPoly."""
    x1 = tuple(alg.x1(k) for k in range(4))
    x2 = tuple(alg.x2(k) for k in range(4))
    return x1, x2


def build_projection(s: ReductionContext) -> Mat:
    """p = |psi><psi| for psi = (x2, x1), as a 4x4 matrix over the algebra.

    Quaternion blocks x_i x_j^* are embedded into 2x2 complex blocks, so p
    is hermitian entry-wise by construction and idempotent modulo x^2 = 1.
    """
    alg = s.base
    i = alg.backend.i
    x1, x2 = quaternion_generators(alg)
    blocks = [
        [quat_multiply(x2, quat_conjugate(x2)), quat_multiply(x2, quat_conjugate(x1))],
        [quat_multiply(x1, quat_conjugate(x2)), quat_multiply(x1, quat_conjugate(x1))],
    ]
    rows = []
    for br in range(2):
        emb = [embed_M2(blocks[br][bc], i) for bc in range(2)]
        for r in range(2):
            rows.append(list(emb[0].rows[r]) + list(emb[1].rows[r]))
    return Mat(rows)


def _entry(key, _) -> str:
    """The witness at position `key` of a 4x4 matrix read row by row."""
    return f"entry {divmod(key, 4)}"


def lead_witness(key, f: NCPoly) -> str:
    """The witness of a polynomial value: its position and leading term."""
    return f"value {key}: {leading_term(f)}"


def projection_checks(s: ReductionContext) -> list:
    """Hermiticity (exact), idempotency mod ideal, half-trace identity.

    A failing hermiticity or idempotency names the first entry (a, b), in
    row-major order, of p - p* or of the reduced p^2 - p that is nonzero; a
    failing half trace names the leading term of the reduced tr p - 2."""
    alg = s.base
    be = alg.backend
    p = build_projection(s)
    pd = p.dagger()
    herm = [p.rows[a][b] - pd.rows[a][b] for a in range(4) for b in range(4)]
    p2 = p @ p
    idem = [s.reduce(p2.rows[a][b] - p.rows[a][b]) for a in range(4) for b in range(4)]
    tr = sum((p.rows[a][a] for a in range(4)), alg.zero())
    trace = s.reduce(tr - 2 * alg.one())
    return [
        ConditionReport.judge("projection_hermitian", be, herm, _entry),
        ConditionReport.judge("projection_idempotent", be, idem, _entry),
        ConditionReport.judge("projection_half_trace", be, [trace],
                              lambda _, f: leading_term(f)),
    ]


# ---------------------------------------------------------------------------
# Y system
# ---------------------------------------------------------------------------


class YSystem:
    def __init__(self, Y: tuple, Ystar: tuple, Y4: NCPoly, lam: list, params: DeformParams):
        self.Y, self.Ystar, self.Y4, self.lam, self.params = Y, Ystar, Y4, lam, params

    @cached_property
    def products(self) -> tuple:
        """(Y Ybar*, Ybar* Y), with Ybar* the quaternion conjugate of the
        componentwise star (Y^{0*}, -Y^{1*}, -Y^{2*}, -Y^{3*}).

        Every radius and commutation identity of the two spheres is a
        component of this pair: [0] are sum_mu Y^mu Y^{mu*} and
        sum_mu Y^{mu*} Y^mu, and [1..3] are minus the 4sp2 and 4sp1
        polynomials.
        """
        ybar = quat_conjugate(self.Ystar)
        return quat_multiply(self.Y, ybar), quat_multiply(ybar, self.Y)


def compute_Y(s: ReductionContext) -> YSystem:
    """Coordinate functions and their star structure.

    Lambda is solved exactly from Y^{mu*} = Lambda^mu_nu Y^nu as an
    (overdetermined) linear system on monomial coefficients; an inconsistent
    system raises InvalidSpec, which doubles as a fault detector.
    """
    alg = s.base
    x1, x2 = quaternion_generators(alg)
    Y = tuple(2 * c for c in quat_multiply(x2, quat_conjugate(x1)))
    Ystar = tuple(y.star() for y in Y)
    q1 = alg.family_casimir(1)
    q2 = alg.family_casimir(2)
    Y4 = q2 - q1
    lam = solve_star_matrix(alg, Y, Ystar)
    return YSystem(Y, Ystar, Y4, lam, s.params)


def solve_star_matrix(alg: Algebra, Y, Ystar) -> list:
    """Solve Ystar[mu] = sum_nu lam[mu][nu] Y[nu] exactly; raise if impossible."""
    pivots, lam = span_solve(alg, Y, Ystar)
    if len(pivots) < 4:
        raise InvalidSpec("Y components are linearly dependent")
    if None in lam:
        raise InvalidSpec("no matrix Lambda satisfies the star system")
    return lam


def lambda_closed_form(params: DeformParams, backend: Backend) -> list:
    """The two-block symmetric unitary matrix pairing (Y0,Y3) and (Y1,Y2)."""
    u0, u1, u2 = params.scalars(backend)
    i = backend.i
    z = backend.zero
    a = u0 + i * u1
    d = u0 - i * u1
    c = i * u2
    return [
        [a, z, z, c],
        [z, a, c, z],
        [z, c, d, z],
        [c, z, z, d],
    ]


def lambda_defects(lam: list, be: Backend) -> tuple:
    """The entries of Lambda^T - Lambda and of Lambda Lambda^dagger - 1, as
    (symmetric, unitary): Lambda is symmetric unitary iff all are zero."""
    sym = [lam[a][b] - lam[b][a] for a in range(4) for b in range(4)]
    uni = [sum((lam[a][c] * lam[b][c].conjugate() for c in range(4)), be.zero)
           - (be.one if a == b else be.zero)
           for a in range(4) for b in range(4)]
    return sym, uni


def lambda_reports(alg: Algebra, ys: YSystem) -> list:
    """Symmetry, unitarity, star identity, and closed-form agreement."""
    be = alg.backend
    lam = ys.lam
    sym, uni = lambda_defects(lam, be)
    star = [ys.Ystar[mu] - sum((lam[mu][nu] * ys.Y[nu] for nu in range(4)), alg.zero())
            for mu in range(4)]
    closed = lambda_closed_form(ys.params, be)
    off = [lam[a][b] - closed[a][b] for a in range(4) for b in range(4)]
    return [
        ConditionReport.judge("lambda_symmetric", be, sym, _entry),
        ConditionReport.judge("lambda_unitary", be, uni, _entry),
        ConditionReport.judge("lambda_star_identity", be, star, lead_witness),
        ConditionReport.judge("lambda_closed_form", be, off, _entry),
    ]


# ---------------------------------------------------------------------------
# relation suite
# ---------------------------------------------------------------------------


def verify_Y_relations(s: ReductionContext, ys: YSystem) -> list:
    """All defining identities of the two spheres, each as a ConditionReport.

    Lambda's own reports are not among them; lambda_reports gives those.

    Identities that hold in the quadratic algebra itself (the star forms,
    the commutation relations, centrality) are checked without any quotient;
    only the radius conditions use the sphere ideal.  Centrality is judged
    on ncalg.commutators, the test that quotient puts to its relations.
    """
    alg = s.base
    be = alg.backend
    one = alg.one()
    reports = []

    def rep(name, values, label=lead_witness):
        reports.append(ConditionReport.judge(name, be, values, label))

    x1, x2 = quaternion_generators(alg)

    def expansion(a, b):
        """2 a conj(b), each component written out with epsilon."""
        out = [2 * sum((a[m] * b[m] for m in range(4)), alg.zero())]
        for k in (1, 2, 3):
            f = a[k] * b[0] - a[0] * b[k]
            for n in (1, 2, 3):
                for m in (1, 2, 3):
                    e = epsilon(k, n, m)
                    if e:
                        f = f - e * (a[n] * b[m])
            out.append(2 * f)
        return out

    # closed forms of the components and their stars
    rep("y_closed_form", [y - c for y, c in zip(ys.Y, expansion(x2, x1))])
    rep("ystar_closed_form",
        [y - c for y, c in zip(ys.Ystar, quat_conjugate(expansion(x1, x2)))])

    # Y4 central hermitian
    rep("y4_central_hermitian", [ys.Y4 - ys.Y4.star()] + commutators(ys.Y4))

    # every radius and commutation identity below is a component of the
    # pair (Y Ybar*, Ybar* Y)
    yy, sy = ys.products
    Y42 = ys.Y4 * ys.Y4
    # 4sp1 is -(Ybar* Y)[k] and 4sp2 is -(Y Ybar*)[k], k = 1..3
    sp1, sp2 = list(sy[1:]), list(yy[1:])
    rep("cond0_imaginary_parts", sp2 + sp1)
    # the radius, modulo the sphere ideal, in both orderings
    radius = [s.reduce(yy[0] + Y42 - one), s.reduce(sy[0] + Y42 - one)]
    rep("cond0_radius", radius)
    # equal radius sums: their difference is the total star-commutator sum
    total = [yy[0] - sy[0]]
    rep("cond0_products_equal", total)

    # cond00: Y4 commutes with every component and its star
    rep("cond00_y4_commutes", [f.commutator(ys.Y4) for f in list(ys.Y) + list(ys.Ystar)])

    rep("sp_commutation_1", sp1)
    rep("sp_commutation_2", sp2)
    rep("sp_total_sum", total)
    rep("four_sphere_radius", radius)

    # both radius sums are central already in the quadratic algebra
    rep("radius_sums_central", commutators(sy[0]) + commutators(yy[0]))

    # product identity: both sums equal 4 ||x1||^2 ||x2||^2 exactly
    prod = 4 * (alg.family_casimir(1) * alg.family_casimir(2))
    rep("radius_product_identity", [sy[0] - prod, yy[0] - prod])

    # the six explicit commutation relations, over the 16 products Y^a Y^b
    u0, u1, u2 = ys.params.scalars(be)
    i = be.i
    P = [[ya * yb for yb in ys.Y] for ya in ys.Y]
    rels = [
        (u0 + i * u1) * (P[1][0] - P[0][1]) + (i * u2) * (P[1][3] - P[0][2]),
        (u0 - i * u1) * (P[3][2] - P[2][3]) + (i * u2) * (P[3][1] - P[2][0]),
        u0 * (P[2][0] - P[0][2]) - i * u1 * (P[1][3] + P[3][1]) + i * u2 * (P[1][0] - P[3][2]),
        u0 * (P[3][1] - P[1][3]) - i * u1 * (P[0][2] + P[2][0]) + i * u2 * (P[0][1] - P[2][3]),
        u0 * (P[3][0] - P[0][3]) + i * u1 * (P[1][2] + P[2][1]) + i * u2 * (P[2][2] - P[1][1]),
        u0 * (P[2][1] - P[1][2]) + i * u1 * (P[0][3] + P[3][0]) + i * u2 * (P[3][3] - P[0][0]),
    ]
    rep("family_commutation_relations", rels, lambda k, _: f"relation {k + 1}")

    return reports


def check_normality(s: ReductionContext, ys: YSystem) -> dict:
    """Star-commutator census of the four coordinate functions.

    When the off-diagonal entries of Lambda vanish each Y^mu is a scalar
    multiple of its own star and therefore normal; otherwise all four
    components fail to be normal.  The total sum vanishes in either case.
    """
    be = s.base.backend
    comms = [ys.Ystar[m] * ys.Y[m] - ys.Y[m] * ys.Ystar[m] for m in range(4)]
    normal = [c.is_zero() for c in comms]
    total = sum(comms, s.base.zero())
    off_diag = [ys.lam[a][b] for a in range(4) for b in range(4) if a != b]
    return {
        "normal": normal,
        "all_non_normal": not any(normal),
        "all_normal": all(normal),
        "lambda_diagonal": all_zero(be, off_diag),
        "sum_vanishes": total.is_zero(),
        "commutator_residuals": [c.residual() for c in comms],
    }


# ---------------------------------------------------------------------------
# three-sphere and suspension
# ---------------------------------------------------------------------------


def three_sphere_context(s: ReductionContext, ys: YSystem) -> ReductionContext:
    """The seven-sphere s modulo sum Y^{mu*} Y^mu = 1 as well.

    The radius sum is central and homogeneous of degree 4; reduced modulo
    x^2 = 1 its lead is (x1_3)^4, coprime to the casimir's (x2_3)^2, so the
    same division applies.  The central coordinate Y4 becomes nilpotent
    (its square lies in the ideal) which realizes the equatorial sphere.
    """
    return s.quotient(sum((ys.Ystar[m] * ys.Y[m] for m in range(4)), s.base.zero()))


def suspension_reports(s3: ReductionContext, ys: YSystem) -> list:
    """Three-sphere radius in both orderings, and Y4^2 -> 0."""
    one = s3.base.one()
    be = s3.base.backend
    yy, sy = ys.products
    y4_squared = s3.reduce(ys.Y4 * ys.Y4)
    return [
        ConditionReport.judge("three_sphere_radius", be,
                              [s3.reduce(sy[0] - one), s3.reduce(yy[0] - one)], lead_witness),
        ConditionReport.judge("suspension_y4_squared", be, [y4_squared], lead_witness),
    ]


def y0_flip_check(s: ReductionContext, ys: YSystem) -> ConditionReport:
    """The flip Y0 -> -Y0 carries the commutation identities into the
    variant with the opposite sign on the 0-component terms.

    Writing Z = (-Y0, Y1, Y2, Y3), the flipped components satisfy the
    plus-sign form of the first identity and the minus-sign form of the
    second, so the two presentations differ only by this substitution.
    Term for term, those flipped polynomials of Z are the 4sp1 and 4sp2
    polynomials of Y: each 0-component term carries one factor Z0 = -Y0
    (or Z0* = -Y0*), whose sign cancels the flipped sign of the term.  So
    the residual is that of the imaginary parts of (Ybar* Y, Y Ybar*).
    """
    yy, sy = ys.products
    return ConditionReport.judge("y0_flip_variant_relations", s.base.backend,
                                 yy[1:] + sy[1:], lead_witness)


# ---------------------------------------------------------------------------
# eigenstructure of Lambda
# ---------------------------------------------------------------------------


def diagonalize_lambda(ys: YSystem, backend: Backend):
    """The deformation phase theta of Lambda', or None where it is not exact.

    Lambda' = u0 + i(u1 sigma-like block + u2 off-block) has eigenvalues
    u0 +- i s with s = sqrt((u1)^2 + (u2)^2); after normalizing the first
    eigenvalue to 1 the remaining phase is e^{i theta} = (u0 + i s)^2.
    The exact backend needs s rational and returns None otherwise.
    """
    params = ys.params
    s2 = params.u1 * params.u1 + params.u2 * params.u2
    root = Fraction(math.isqrt(s2.numerator), math.isqrt(s2.denominator))
    if backend.exact and root * root != s2:
        return None
    s = root if backend.exact else math.sqrt(s2)
    lam_plus = backend.convert(params.u0) + backend.i * backend.convert(s)
    return lam_plus * lam_plus
