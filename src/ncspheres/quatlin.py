"""Quaternion linear algebra: the Hamilton product, translations, embeddings, Mat.

Conventions fixed here and relied on everywhere else:

* basis e0 = 1, e1, e2, e3 with e_a e_b = -delta_ab + eps_abc e_c and
  eps_123 = +1 (so e1 e2 = e3);
* ``quat_multiply`` is the one Hamilton product.  ``translation(a)`` is
  the matrix of left multiplication by e_a on component columns,
  ``translation(a, right=True)`` that of right multiplication, both read
  off ``quat_multiply``; the exchange tensor, the corepresentation, the
  derivations and the coproduct are all read off these matrices;
* ``epsilon`` is written out by hand, independently of ``quat_multiply``,
  so the closed forms of Y and Y* and the su(2) bracket that use it
  cross-check the product;
* J+_a = translation(a) for a in 1..3.  The family is real antisymmetric
  and satisfies J_a J_b = -delta_ab + eps_abc J_c with the same eps
  orientation as the quaternions themselves.  (A popular closed formula for
  these matrices circulates with the eps term's sign flipped; that variant
  breaks the multiplication rule above, so the matrices are built directly
  from the quaternion product.)
"""

from __future__ import annotations


def epsilon(a: int, b: int, c: int) -> int:
    """Levi-Civita symbol on {1,2,3} with eps(1,2,3) = +1."""
    if (a, b, c) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        return 1
    if (a, b, c) in ((1, 3, 2), (3, 2, 1), (2, 1, 3)):
        return -1
    return 0


def quat_multiply(p, q):
    """Componentwise quaternion product of two 4-sequences.

    Works over any (possibly noncommutative) ring whose elements support
    + - *.  Order matters: component products are taken as p-part * q-part.
    """
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return (
        p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
        p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
        p0 * q2 + p2 * q0 + p3 * q1 - p1 * q3,
        p0 * q3 + p3 * q0 + p1 * q2 - p2 * q1,
    )


def translation(a: int, right: bool = False) -> list:
    """Integer 4x4 matrix of q -> e_a q, or of q -> q e_a when `right` is set.

    Column nu holds the components of e_a e_nu (of e_nu e_a when right),
    read off ``quat_multiply``.
    """
    if a not in range(4):
        raise ValueError(f"quaternion basis index out of 0..3: {a!r}")
    unit = [tuple(int(k == nu) for k in range(4)) for nu in range(4)]
    cols = [quat_multiply(e, unit[a]) if right else quat_multiply(unit[a], e) for e in unit]
    return [[col[mu] for col in cols] for mu in range(4)]


def quat_conjugate(q):
    """e-conjugation only: q0 - q1 e1 - q2 e2 - q3 e3 (no component star)."""
    return (q[0], -q[1], -q[2], -q[3])


class Mat:
    """Small dense matrix over the algebra: product and adjoint."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __matmul__(self, other):
        n, k = self.shape
        k2, m = other.shape
        assert k == k2
        out = []
        for i in range(n):
            row = []
            for j in range(m):
                acc = self.rows[i][0] * other.rows[0][j]
                for t in range(1, k):
                    acc = acc + self.rows[i][t] * other.rows[t][j]
                row.append(acc)
            out.append(row)
        return Mat(out)

    def dagger(self):
        """Conjugate transpose: the transpose of the entries' star()."""
        return Mat([[r[j].star() for r in self.rows] for j in range(self.shape[1])])

    def __repr__(self):
        return f"Mat({self.rows!r})"


def embed_M2(q, i_unit):
    """Embed a quaternion (4-sequence) as a 2x2 matrix over the complexification.

    q = q0 + q1 e1 + q2 e2 + q3 e3 maps to
    [[q0 + i q1, q2 + i q3], [-q2 + i q3, q0 - i q1]];
    i_unit is the imaginary unit of the component coefficient domain
    (a scalar that components can be multiplied by).
    """
    q0, q1, q2, q3 = q
    return Mat([
        [q0 + q1 * i_unit, q2 + q3 * i_unit],
        [-q2 + q3 * i_unit, q0 - q1 * i_unit],
    ])
