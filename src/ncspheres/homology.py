"""Normalized Hochschild/cyclic chains over a sphere quotient.

Chains live in A tensor Abar^n with Abar = A / C1: slot 0 may carry the
unit, slots >= 1 may not.  A chain is a sparse map from (n+1)-tuples of
interned canonical monomials to scalars; every slot entry is kept in sphere
normal form, so chain equality is plain dictionary equality.

The boundary operators are the standard ones on normalized chains:

    b(a0 x ... x an) = sum_i (-1)^i a0 x ... x (a_i a_{i+1}) x ... x an
                       + (-1)^n (a_n a_0) x a1 x ... x a_{n-1}
    B(a0 x ... x an) = sum_i (-1)^{ni} 1 x a_i x ... x an x a0 x ... x a_{i-1}

The Connes-Chern components are partial matrix traces of tensor powers of
the projection (even case) or of the coordinate quaternion and its star
(odd case).  Every trace goes through the generalized trace map
(Loday, Cyclic Homology, 1.2.1),

    (E_0 f_0) x ... x (E_n f_n) -> tr(E_0 ... E_n) f_0 x ... x f_n,

with each matrix factored, once per context, over an echelon basis {f_a} of its
entries and constant coefficient matrices E_a: the index paths are walked over
the few constant coordinates into the contracted tensor c, kept as sum_a c[a]
f_a0 x ... x f_an over the c[a] nonzero by the zero test (561 of ch2's 721
cancel at 3/5,4/5,0).  The prune keeps every digest: an exact zero adds nothing to a sum;
on floats, at the catalog points, the pruned ch2 and ch_3half entries are
exactly 0, and the faces' pruned entries (<= 5e-16) feed only b ch2, whose terms
cancel either way.  A FactoredTrace is a signed sum of such traces, one per word;
every Chern component is one, built by FactoredTrace alone.  One walk of all
the words builds their tree of key prefixes, each with a row of last-slot terms,
and each distinct subtree once, keyed by its live (factor suffix, weight, word):
163 serve ch2's 47 910 walk nodes at 3/5,4/5,0, 289 its 98 304 leaves at
1/3,2/3,2/3 (exact); a weight by value_key, as 4+0j == 4-0j but times 1-0j they
differ.  A FactoredTrace builds this tree once and is a TensorChain whose terms are
its leaves; its digest encodes each distinct node at slot n-1 once.  As the trace
map is a chain map, b of it is its faces' tree; b of a TensorChain reads its terms.
b is linear, so b of a zero chain is zero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby

from .errors import NotUnitaryEnough
from .ncalg import NCPoly, ReductionContext, commutators, format_poly, mono_key
from .quatlin import Mat
from .scalars import Sparse, add_into, all_zero, max_residual, row_reduce
from .spheres import lambda_defects

UNIT_ID = 0


class ChainContext:
    """Interning tables and product caches bound to one sphere quotient."""

    def __init__(self, sphere: ReductionContext):
        self.sphere = sphere
        self.alg = sphere.base
        self.backend = sphere.base.backend
        self._monos = [(0,) * 8]
        self._ids = {(0,) * 8: UNIT_ID}
        # mono_key of each interned monomial, by id: the canonical sort key
        self.mono_keys = [mono_key((0,) * 8)]
        self._pair_cache = {}
        self._memo = {}

    def intern(self, mono) -> int:
        got = self._ids.get(mono)
        if got is None:
            got = len(self._monos)
            self._monos.append(mono)
            self._ids[mono] = got
            self.mono_keys.append(mono_key(mono))
        return got

    def expand_poly(self, f: NCPoly):
        """Sphere-reduce f and expand as a tuple of (monomial id, coeff)."""
        red = self.sphere.reduce(f)
        return tuple((self.intern(m), c) for m, c in red.items_sorted())

    def pair_product(self, i: int, j: int):
        """Reduced product of two interned monomials, as ((id, coeff), ...)."""
        got = self._pair_cache.get((i, j))
        if got is None:
            mono = self.alg.mono_mul(self._monos[i], self._monos[j])
            got = self._pair_cache[i, j] = self.expand_poly(NCPoly(self.alg, mono))
        return got

    def once(self, op, *args):
        """op(*args), as Mat.dagger, Mat.__matmul__, _minus_half or _factor, formed
        once per op and argument objects.  An entry holds its arguments other than
        this context, so no id is reused and the context is not in its own memo."""
        key = (op, *map(id, args))
        if key not in self._memo:
            self._memo[key] = (op(*args), [a for a in args if a is not self])
        return self._memo[key][0]


class TensorChain(Sparse):
    """Sparse normalized chain; backed by a ChainContext."""

    __slots__ = ("ctx", "degree")

    def __init__(self, ctx: ChainContext, degree: int, terms=None):
        self.ctx, self.degree, be = ctx, degree, ctx.backend
        self.terms = {k: v for k, v in (terms or {}).items() if not be.is_zero(v)}

    def _new(self, terms) -> "TensorChain":
        return TensorChain(self.ctx, self.degree, terms)

    def n_terms(self) -> int:
        return len(self.terms)

    def __add__(self, other: "TensorChain") -> "TensorChain":
        if isinstance(other, TensorChain) and other.degree != self.degree:
            raise ValueError("degree mismatch in chain addition")
        return super().__add__(other)

    def __sub__(self, other: "TensorChain") -> "TensorChain":
        # not self + (-other): -c and (-1+0j)*c differ in the sign of a
        # float zero, which str() and so the digest would show
        return (self + other.scale(self.ctx.backend.convert(-1))
                if isinstance(other, TensorChain) else NotImplemented)

    def canonical_terms(self):
        """Terms sorted by the tuples of their slot monomials' graded-lex keys."""
        keys = self.ctx.mono_keys
        return sorted(self.terms.items(), key=lambda t: tuple([keys[i] for i in t[0]]))

    @property
    def tree(self):
        """The canonical terms as a tree of expand_factored's form, built on each read."""
        return _trie(self.canonical_terms(), 0, self.degree)

    def first_term(self) -> str:
        """The first canonical term as c*m0 (x) m1 (x) ..., each slot by format_poly."""
        prefix, ((mid, coeff), *_) = next(canonical_rows(self.tree, self.degree))
        ctx, one = self.ctx, self.ctx.backend.one
        return " (x) ".join(format_poly(NCPoly(ctx.alg, {ctx._monos[i]: one if pos else coeff}))
                            for pos, i in enumerate(prefix + (mid,)))

    def digest(self) -> dict:
        """Size and sha256 of the terms in canonical order, each its slots' repr(mono)
        + "|", then str(coeff) + ";".  Each distinct node at slot n-1 (n = 0: the row)
        is encoded once, by id, and hashed in one chunk under each prefix."""
        import hashlib  # here, not at the top: it loads OpenSSL, which only digests use

        h, n, slot = hashlib.sha256(), 0, [repr(m).encode() + b"|" for m in self.ctx._monos]
        last, chunks = min(self.degree, 1), {}  # the walk holds the tree, so no id is reused
        for prefix, node in canonical_rows(self.tree, self.degree - last):
            if id(node) not in chunks:
                rows = [(slot[mid], row) for mid, row in node] if last else [(b"", node)]
                chunks[id(node)] = [head + slot[mid] + str(c).encode() + b";"
                                    for head, row in rows for mid, c in row]
            h.update(head := b"".join([slot[i] for i in prefix]))
            h.update(head.join(chunks[id(node)]))  # head + x for each further suffix x
            n += len(chunks[id(node)])
        return {"degree": self.degree, "n_terms": n, "is_zero": n == 0, "sha256": h.hexdigest()}


def _trie(terms, pos: int, n: int):
    """The tree of canonical terms [(key, coeff)] below a key prefix of length pos."""
    if pos == n:
        return tuple((key[n], c) for key, c in terms)
    return tuple((mid, _trie(list(run), pos + 1, n))
                 for mid, run in groupby(terms, key=lambda t: t[0][pos]))


def chain_from_slots(ctx: ChainContext, slots) -> TensorChain:
    """Multilinear expansion of a pure tensor of polynomials into a chain:
    the trace of the word of 1x1 matrices [[f0]] x ... x [[fn]]."""
    return trace_chain(ctx, [Mat([[f]]) for f in slots])


# ---------------------------------------------------------------------------
# boundary operators
# ---------------------------------------------------------------------------


def b_boundary(chain) -> TensorChain:
    """Hochschild boundary, lowering degree by one: zero on a zero chain, before any
    face or term is read; else read off the tree of a FactoredTrace's signed faces,
    or off a TensorChain's terms."""
    n = chain.degree
    if n < 1:
        raise ValueError("b is undefined on degree-0 chains")
    ctx = chain.ctx
    if chain.is_zero():
        return TensorChain(ctx, n - 1)
    if isinstance(chain, FactoredTrace):
        return TensorChain(ctx, n - 1, _leaves(expand_factored(
            ctx, [(sign, _faces(ctx, mats)) for sign, mats, _ in chain.words]), n - 1))
    out = {}
    for key, coeff in chain.terms.items():
        for i in range(n):
            sign = coeff if i % 2 == 0 else -coeff
            for mid, c in ctx.pair_product(key[i], key[i + 1]):
                if mid == UNIT_ID and i > 0:
                    continue
                add_into(out, key[:i] + (mid,) + key[i + 2:], sign * c)
        sign = coeff if n % 2 == 0 else -coeff
        for mid, c in ctx.pair_product(key[n], key[0]):
            add_into(out, (mid,) + key[1:n], sign * c)
    return TensorChain(ctx, n - 1, out)


def B_boundary(chain: TensorChain) -> TensorChain:
    """Connes boundary on normalized chains; raises degree by one."""
    n = chain.degree
    ctx = chain.ctx
    out = {}
    for key, coeff in chain.terms.items():
        if UNIT_ID in key:  # then every rotation has a unit in a slot >= 1
            continue
        for i in range(n + 1):
            add_into(out, (UNIT_ID,) + key[i:] + key[:i], coeff if (n * i) % 2 == 0 else -coeff)
    return TensorChain(ctx, n + 1, out)


# ---------------------------------------------------------------------------
# partial matrix traces and Chern components
# ---------------------------------------------------------------------------


def _leaves(tree, degree: int) -> dict:
    """The terms {prefix + (id,): coeff} of a tree's leaves (prefix, row)."""
    return {p + (m,): c for p, row in canonical_rows(tree, degree) for m, c in row}


def trace_chain(ctx: ChainContext, mats) -> TensorChain:
    """<M0 x ... x Mn> = sum_{i0..in} M0[i0,i1] x M1[i1,i2] x ... x Mn[in,i0], expanded."""
    return TensorChain(ctx, len(mats) - 1, FactoredTrace(ctx, [(1, mats)]).terms)


def _faces(ctx: ChainContext, mats):
    """The pure list of b<M0 x ... x Mn>, n >= 1: its signed matrix faces, contracted.

    The trace map is a chain map (Loday, Cyclic Homology, 1.2.2):
        b<M0 x ... x Mn> = sum_{i<n} (-1)^i <M0 x ... x M_i M_{i+1} x ... x Mn>
                           + (-1)^n <Mn M0 x M1 x ... x M_{n-1}>.
    Each face is a degree-(n-1) trace of matrix products, reduced entry by
    entry, so nothing assumes an identity such as p^2 = p.
    """
    n, one = len(mats) - 1, ctx.backend.one
    prods = [ctx.once(Mat.__matmul__, x, y) for x, y in zip(mats, mats[1:] + mats[:1])]
    faces = [mats[:i] + [prods[i]] + mats[i + 2:] for i in range(n)] + [[prods[n]] + mats[1:n]]
    return [t for i, face in enumerate(faces)
            for t in _contract(ctx, face, one if i % 2 == 0 else -one)]


def _factor(ctx: ChainContext, m: Mat, normalized: bool):
    """(basis, coords): m[i][j] = sum_a E_a[i, j] f_a, with basis[a] = f_a as
    ((id, coeff), ...) and coords[i][j] = ((a, E_a[i, j]), ...), nonzero only.

    {f_a} is the echelon basis of one row_reduce over the entries, each a row
    {monomial id: coeff}, with pivots sought in descending monomial order; an
    entry's coordinates are its values at the pivot columns.  normalized
    drops the unit first.
    """
    be, r = ctx.backend, len(m.rows)
    cells = [dict(ctx.expand_poly(f)) for row in m.rows for f in row]
    if normalized:
        for cell in cells:
            cell.pop(UNIT_ID, None)
    cols = sorted({mid for cell in cells for mid in cell},
                  key=ctx.mono_keys.__getitem__, reverse=True)
    rows = [dict(cell) for cell in cells]
    pivots = row_reduce(rows, cols, be)
    basis = [tuple((mid, row[mid]) for mid in cols if mid in row and not be.is_zero(row[mid]))
             for row in rows[:len(pivots)]]
    coords = [tuple((a, cell[mid]) for a, mid in enumerate(pivots)
                    if mid in cell and not be.is_zero(cell[mid])) for cell in cells]
    return basis, [coords[i * r:(i + 1) * r] for i in range(r)]


def _contract(ctx: ChainContext, mats, coeff):
    """pure = [((f_a0, ..., f_an), c[a])] of coeff * <M0 x ... x Mn> over the c[a]
    nonzero by the zero test, in c's order; ctx.once(_factor, ...) factors each matrix."""
    if len({len(m.rows) for m in mats}) != 1:
        raise ValueError("matrix sizes differ")
    r, last = len(mats[0].rows), len(mats) - 1
    factors = [ctx.once(_factor, ctx, m, pos > 0) for pos, m in enumerate(mats)]
    # one state (first index, current index, a0..ak) per partial index path;
    # closing the paths at the last slot leaves c, keyed by a0..an alone
    c = {(i, i, ()): coeff for i in range(r)}
    for pos, (_, coords) in enumerate(factors):
        c, states = {}, c
        for (i0, i, pre), v in states.items():
            for j in ((i0,) if pos == last else range(r)):
                for a, e in coords[i][j]:
                    add_into(c, pre + (a,) if pos == last else (i0, j, pre + (a,)), v * e)
    return [(tuple(factors[pos][0][k] for pos, k in enumerate(a)), v)
            for a, v in c.items() if not ctx.backend.is_zero(v)]


def expand_factored(ctx: ChainContext, words):
    """The tree of words = [(sign, pure)], pure a list of ((f_0, ..., f_n), c): () if
    its chain is zero, else at slot n a row ((id, coeff), ...), nonzero only, and at
    slot k < n the nonempty children ((id, subtree), ...), both in canonical order."""
    sfx = {}  # each suffix f[p:], p >= 1, by the identity of its factors, as a small int
    live = [(f, [sfx.setdefault(tuple(map(id, f[p:])), len(sfx)) for p in range(1, len(f))],
             w, k) for k, (_, pure) in enumerate(words) for f, w in pure]
    return _subtree(({}, {}, [sign for sign, _ in words], ctx), 0, live) if live else ()


def _subtree(walk, pos, live):
    """The node at slot pos of the live (f, sfx, c cc_0 ... cc_{pos-1}, word), sfx[p]
    the id of f[p+1:], walk = (memo, weight ids, signs, ctx); a child is built once
    per key, its live (f[pos+1:], value_key(w), word) as small ints in one string.  A row
    sums each word apart, in pure's order, and adds the sums as TensorChain's + and
    - add the expanded words, a negative one times -1 (raw terms flip float zeros)."""
    memo, weights, signs, ctx = walk
    key_of, be, buckets = ctx.mono_keys.__getitem__, ctx.backend, {}
    if pos == len(live[0][0]) - 1:
        for f, _, w, k in live:  # one sum per word and monomial, in word order
            for mid, cc in f[pos]:
                add_into(buckets, (k, mid), w * cc)
        total, minus = {}, be.convert(-1)
        for (k, mid), v in buckets.items():
            if not be.is_zero(v):
                add_into(total, mid, v if signs[k] > 0 else minus * v)
        return tuple((mid, total[mid]) for mid in sorted(total, key=key_of)
                     if not be.is_zero(total[mid]))
    for f, sfx, w, k in live:
        for mid, cc in f[pos]:
            buckets.setdefault(mid, []).append((f, sfx, w * cc, k))
    keys = {mid: " ".join([f"{sfx[pos]},{weights.setdefault(be.value_key(w), len(weights))},{k}"
                           for _, sfx, w, k in child]) for mid, child in buckets.items()}
    for mid, key in keys.items():
        if key not in memo:
            memo[key] = _subtree(walk, pos + 1, buckets[mid])
    return tuple((mid, memo[keys[mid]]) for mid in sorted(keys, key=key_of) if memo[keys[mid]])


def canonical_rows(node, depth: int, prefix=()):
    """The leaves (prefix, row) of a tree of the given depth, in canonical order;
    a prefix is the tuple of its slots' ids."""
    if depth:
        for mid, child in node:
            yield from canonical_rows(child, depth - 1, prefix + (mid,))
    elif node:
        yield prefix, node


class FactoredTrace(TensorChain):
    """sum_w sign_w <word_w> from a list of (sign, mats), sign 1 or -1, kept as
    words = [(sign, mats, pure)] and their tree, whose leaves are its terms;
    each word is factored here, before the digest's tables read ctx's monomials."""

    __slots__ = ("words", "tree")

    def __init__(self, ctx: ChainContext, words):
        self.ctx, one = ctx, ctx.backend.one
        self.words = [(sign, list(mats), _contract(ctx, mats, one)) for sign, mats in words]
        (self.degree,) = {len(mats) - 1 for _, mats, _ in self.words}
        self.tree = expand_factored(ctx, [(sign, pure) for sign, _, pure in self.words])

    @property
    def terms(self) -> dict:
        return _leaves(self.tree, self.degree)

    def is_zero(self) -> bool:
        """The words may cancel: zero iff the tree is empty, read without its terms."""
        return not self.tree


def _minus_half(p: Mat) -> Mat:
    half = p.rows[0][0].algebra.scalar(Fraction(1, 2))
    return Mat([[f - half if a == b else f for b, f in enumerate(row)]
                for a, row in enumerate(p.rows)])


def chern_even(ctx: ChainContext, p: Mat, k: int) -> FactoredTrace:
    """ch_k(p) = <(p - 1/2) x p^{x 2k}> of degree 2k, p - 1/2 formed once per ctx."""
    return FactoredTrace(ctx, [(1, [ctx.once(_minus_half, p)] + [p] * (2 * k))])


def unitarity_report(ctx: ChainContext, U: Mat) -> list:
    """The entries of UU* - U*U and of UU* minus a multiple of 1, then the
    commutators of that multiple, all modulo the context ideal: UU* = U*U is
    a central multiple of 1 iff all of them are zero."""
    Ud = ctx.once(Mat.dagger, U)
    A, Bm, r = ctx.once(Mat.__matmul__, U, Ud), ctx.once(Mat.__matmul__, Ud, U), len(U.rows)
    reduce = ctx.sphere.reduce
    # UU* = U*U; off the diagonal UU* is 0, on it every entry equals the central first
    return [reduce(f) for a in range(r) for b in range(r)
            for f in (A.rows[a][b] - Bm.rows[a][b],
                      A.rows[a][b] if a != b else A.rows[a][a] - A.rows[0][0])
            ] + [reduce(f) for f in commutators(reduce(A.rows[0][0]))]


def chern_odd(ctx: ChainContext, U: Mat, k: int) -> FactoredTrace:
    """ch_{k+1/2}(U) = <U x U* x ...> - <U* x U x ...>, words of length 2k+2.

    Raises NotUnitaryEnough unless UU* = U*U reduces to a central multiple
    of the identity: every defect of unitarity_report is zero.
    """
    defects = unitarity_report(ctx, U)
    if not all_zero(ctx.backend, defects):
        raise NotUnitaryEnough(f"UU* = U*U check failed with residual {max_residual(defects)}")
    Ud = ctx.once(Mat.dagger, U)
    return FactoredTrace(ctx, [(1, [U, Ud] * (k + 1)), (-1, [Ud, U] * (k + 1))])


# ---------------------------------------------------------------------------
# the equivalence of the two vanishing criteria
# ---------------------------------------------------------------------------


def check_vanzz_equivalence(ctx: ChainContext, ys) -> dict:
    """Chain-level vanishing versus existence of the symmetric unitary Lambda.

    (a) sum_mu (Y^{mu*} x Y^mu - Y^mu x Y^{mu*}) = 0 as a normalized chain;
    (b) the solved Lambda is symmetric and unitary.  The two verdicts must
    agree; the report carries both plus the agreement bit.
    """
    chain = TensorChain(ctx, 1, {})
    for mu in range(4):
        chain = chain + chain_from_slots(ctx, [ys.Ystar[mu], ys.Y[mu]])
        chain = chain - chain_from_slots(ctx, [ys.Y[mu], ys.Ystar[mu]])
    chain_zero = chain.is_zero()
    sym, uni = lambda_defects(ys.lam, ctx.backend)
    lambda_ok = all_zero(ctx.backend, sym + uni)
    return {"chain_vanishes": chain_zero, "lambda_symmetric_unitary": lambda_ok,
            "agree": chain_zero == lambda_ok, "chain_terms": chain.n_terms()}
