"""Chain complex sanity: boundary identities, traces, Chern components."""

import hashlib
import itertools
import operator
import random
import types
from fractions import Fraction

import pytest

from ncspheres import homology
from ncspheres.cli import CATALOG, RunSpec, run
from ncspheres.errors import NotUnitaryEnough
from ncspheres.homology import (UNIT_ID, B_boundary, ChainContext, FactoredTrace,
                                TensorChain, b_boundary, canonical_rows,
                                chain_from_slots, chern_even, chern_odd, check_vanzz_equivalence,
                                expand_factored, trace_chain)
from ncspheres.quatlin import Mat, embed_M2
from ncspheres.rmatrix import DeformParams
from ncspheres.scalars import EXACT, FLOAT, add_into
from ncspheres.spheres import build_projection, three_sphere_context

from conftest import expanded_odd, make_point


@pytest.fixture(scope="module")
def chain_ctx(pyth):
    _, _, s, _ = pyth
    return ChainContext(s)


@pytest.fixture(scope="module")
def chain_ctx3(pyth):
    _, _, s, ys = pyth
    return ChainContext(three_sphere_context(s, ys))


def _random_poly(alg, rng, degree=2, terms=2):
    out = alg.zero()
    for _ in range(terms):
        f = alg.scalar(Fraction(rng.randint(-3, 3)))
        for _ in range(rng.randint(0, degree)):
            f = f * alg.generator(rng.randrange(8))
        out = out + f
    return out


def _random_chain(ctx, rng, degree):
    slots = [_random_poly(ctx.alg, rng) for _ in range(degree + 1)]
    return chain_from_slots(ctx, slots).scale(Fraction(rng.randint(1, 3)))


def test_boundary_identities_on_random_chains(chain_ctx):
    rng = random.Random(20240601)
    for _ in range(12):
        c = _random_chain(chain_ctx, rng, rng.randint(1, 3))
        assert b_boundary(B_boundary(c)) + B_boundary(b_boundary(c)) == \
            TensorChain(chain_ctx, c.degree, {})
        assert B_boundary(B_boundary(c)).is_zero()
        if c.degree >= 2:
            assert b_boundary(b_boundary(c)).is_zero()


def test_b_squared_drops_to_zero_from_degree_zero_too(chain_ctx):
    rng = random.Random(7)
    c = _random_chain(chain_ctx, rng, 0)
    # bB alone must vanish where Bb is not defined
    assert b_boundary(B_boundary(c)).is_zero()


def test_b_rejects_degree_zero(chain_ctx):
    c = chain_from_slots(chain_ctx, [chain_ctx.alg.one()])
    with pytest.raises(ValueError, match="b is undefined on degree-0 chains"):
        b_boundary(c)
    with pytest.raises(ValueError, match="b is undefined on degree-0 chains"):
        b_boundary(FactoredTrace(chain_ctx, [(1, [Mat([[chain_ctx.alg.one()]])])]))


def test_slots_after_first_are_normalized(chain_ctx):
    alg = chain_ctx.alg
    f = alg.x1(0) + alg.one()
    c = chain_from_slots(chain_ctx, [alg.one(), f])
    # the unit component of slot 1 is quotiented away
    assert c == chain_from_slots(chain_ctx, [alg.one(), alg.x1(0)])
    assert c.n_terms() == 1


def test_chain_addition_refuses_unequal_degrees_even_when_empty(chain_ctx):
    """An empty chain keeps its degree: it does not take the other operand's."""
    c = chain_from_slots(chain_ctx, [chain_ctx.alg.x1(0), chain_ctx.alg.x2(1)])
    assert c.degree == 1 and not c.is_zero()
    for a, b in ((TensorChain(chain_ctx, 2, {}), c), (c, TensorChain(chain_ctx, 2, {}))):
        with pytest.raises(ValueError, match="degree mismatch"):
            a + b
        with pytest.raises(ValueError, match="degree mismatch"):
            a - b


def test_chain_arithmetic_rejects_a_scalar_operand(chain_ctx):
    c = chain_from_slots(chain_ctx, [chain_ctx.alg.x1(0)])
    for op in (operator.add, operator.sub):
        with pytest.raises(TypeError):
            op(c, 1)
        with pytest.raises(TypeError):
            op(1, c)


def test_trace_chain_matches_slotwise_expansion(chain_ctx):
    alg = chain_ctx.alg
    A = Mat([[alg.x1(0), alg.x1(1)], [alg.x2(2), alg.one()]])
    B = Mat([[alg.x2(0), alg.zero()], [alg.x1(3), alg.x2(1) + alg.one()]])
    got = trace_chain(chain_ctx, [A, B])
    want = TensorChain(chain_ctx, 1, {})
    for i in range(2):
        for j in range(2):
            want = want + chain_from_slots(
                chain_ctx, [A.rows[i][j], B.rows[j][i]])
    assert got == want


def test_trace_of_one_matrix_is_its_diagonal_sum(chain_ctx):
    """A one-matrix word closes its cycle at the first slot."""
    alg = chain_ctx.alg
    rng = random.Random(3)
    A = Mat([[_random_poly(alg, rng) for _ in range(3)] for _ in range(3)])
    got = trace_chain(chain_ctx, [A])
    assert got.degree == 0 and not got.is_zero()
    assert got == chain_from_slots(
        chain_ctx, [A.rows[0][0] + A.rows[1][1] + A.rows[2][2]])


def test_trace_chain_refuses_matrices_of_different_sizes(chain_ctx):
    one = chain_ctx.alg.one()
    with pytest.raises(ValueError, match="matrix sizes differ"):
        trace_chain(chain_ctx, [Mat([[one]]), Mat([[one, one], [one, one]])])


def test_b_of_trace_contracts_matrix_products(chain_ctx):
    """b<A x B x C> = <AB x C> - <A x BC> + <CA x B>."""
    alg = chain_ctx.alg
    rng = random.Random(99)
    mats = []
    for _ in range(3):
        mats.append(Mat([[_random_poly(alg, rng, degree=1) for _ in range(2)]
                         for _ in range(2)]))
    A, B, C = mats
    lhs = b_boundary(trace_chain(chain_ctx, [A, B, C]))
    rhs = trace_chain(chain_ctx, [A @ B, C]) \
        - trace_chain(chain_ctx, [A, B @ C]) \
        + trace_chain(chain_ctx, [C @ A, B])
    assert lhs == rhs
    assert b_boundary(FactoredTrace(chain_ctx, [(1, [A, B, C])])) == rhs


@pytest.mark.parametrize("length", [2, 3, 4, 5])
def test_trace_boundary_matches_b_of_the_trace(chain_ctx, length):
    """b through the faces of one word equals b on the expanded chain, degrees 1 to 4."""
    alg = chain_ctx.alg
    rng = random.Random(100 + length)
    mats = [Mat([[_random_poly(alg, rng, terms=3) for _ in range(2)]
                 for _ in range(2)]) for _ in range(length)]
    want = b_boundary(trace_chain(chain_ctx, mats))
    assert not want.is_zero()
    got = b_boundary(FactoredTrace(chain_ctx, [(1, mats)]))
    assert got.degree == want.degree == length - 2
    assert got == want


@pytest.mark.parametrize("point", ["pyth", "mixed"])
def test_non_idempotent_projection_is_not_a_cycle(point, request):
    """Negative control: off p^2 = p both routes give the same nonzero b."""
    _, alg, s, _ = request.getfixturevalue(point)
    ctx = ChainContext(s)
    p = build_projection(s)
    rows = [list(r) for r in p.rows]
    rows[0][1] = rows[0][1] + alg.generator(2) * alg.generator(5)
    ch1 = chern_even(ctx, Mat(rows), 1)
    faces = b_boundary(ch1)
    assert not faces.is_zero()
    assert faces == b_boundary(trace_chain(ctx, ch1.words[0][1]))
    # the idempotent control: the faces of its zero ch1 cancel, read past b's zero rule
    word = chern_even(ctx, p, 1).words[0][1]
    assert not homology._leaves(expand_factored(ctx, [(1, homology._faces(ctx, word))]), 1)


def test_trace_invariant_under_constant_conjugation(chain_ctx):
    alg = chain_ctx.alg
    one, zero = alg.one(), alg.zero()
    S = Mat([[one, one], [zero, one]])
    Sinv = Mat([[one, -one], [zero, one]])
    rng = random.Random(5)
    A = Mat([[_random_poly(alg, rng, degree=1) for _ in range(2)]
             for _ in range(2)])
    B = Mat([[_random_poly(alg, rng, degree=1) for _ in range(2)]
             for _ in range(2)])
    lhs = trace_chain(chain_ctx, [S @ A @ Sinv, S @ B @ Sinv])
    assert lhs == trace_chain(chain_ctx, [A, B])


def test_low_chern_components_vanish(pyth, chain_ctx, chain_ctx3):
    _, _, s, ys = pyth
    p = build_projection(s)
    ch0 = chern_even(chain_ctx, p, 0)
    ch1 = chern_even(chain_ctx, p, 1)
    assert ch0.is_zero()
    assert ch1.is_zero()
    assert B_boundary(ch0) == b_boundary(ch1)
    U = embed_M2(ys.Y, s.base.backend.i)
    assert chern_odd(chain_ctx3, U, 0).is_zero()


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
def test_b_of_a_zero_chain_is_zero_without_forming_a_face(backend, monkeypatch):
    """b is linear: the zero factored trace of [p - 1/2, p, p] at 3/5,4/5,0
    has the zero b of degree 1, formed before any matrix face."""
    _, alg, s, _ = make_point("3/5,4/5,0", backend)
    ctx, p = ChainContext(s), build_projection(s)
    half = alg.scalar(Fraction(1, 2))
    q = Mat([[f - half if a == b else f for b, f in enumerate(row)]
             for a, row in enumerate(p.rows)])
    ch1 = FactoredTrace(ctx, [(1, [q, p, p])])
    assert ch1.is_zero()

    def no_faces(ctx, mats):
        raise AssertionError("b formed the faces of a zero chain")

    monkeypatch.setattr(homology, "_faces", no_faces)
    got = b_boundary(ch1)
    assert got.degree == 1 and got.is_zero()


def test_chern_scale_factor_does_not_change_verdict(pyth, chain_ctx):
    _, _, s, _ = pyth
    p = build_projection(s)
    b = chern_even(chain_ctx, p, 1)
    a = b.scale(7)
    assert a.is_zero() == b.is_zero()
    assert b_boundary(a) == b_boundary(b).scale(7)
    assert b_boundary(a).is_zero() == b_boundary(b).is_zero()


def test_half_shift_subtracts_half_on_diagonal(pyth, chain_ctx):
    _, alg, s, _ = pyth
    p = build_projection(s)
    q = chern_even(chain_ctx, p, 0).words[0][1][0]
    half = alg.scalar(Fraction(1, 2))
    for a in range(4):
        for b in range(4):
            want = p.rows[a][b] - half if a == b else p.rows[a][b]
            assert (q.rows[a][b] - want).is_zero()


def test_the_even_words_share_one_shifted_projection(pyth, chain_ctx):
    """ch0, ch1 and ch2 start with the one p - 1/2 of the context, so it is
    factored once."""
    p = build_projection(pyth[2])
    first = [chern_even(chain_ctx, p, k).words[0][1][0] for k in range(3)]
    assert first[0] is first[1] is first[2]


def test_one_chern_task_factors_each_matrix_and_slot_kind_once(monkeypatch):
    """An exact chern task at 3/5,4/5,0 factors 29 matrix objects and slot
    kinds, each once (the shifted p once for ch0, ch1 and ch2)."""
    calls, real = [], homology._factor
    monkeypatch.setattr(homology, "_factor",
                        lambda ctx, m, normalized: calls.append((m, normalized)) or
                        real(ctx, m, normalized))
    rep, _ = run(RunSpec(DeformParams.parse("3/5,4/5,0"), "exact", ("chern",)))
    assert rep["passed"]
    assert len({(id(m), normalized) for m, normalized in calls}) == len(calls) == 29


def test_a_dropped_matrix_leaves_no_factors_to_a_new_one(pyth):
    """Temporary matrices factored one after another, each dropped before the
    next is built, as chain_from_slots builds them: each gets its own factors,
    even where a new matrix could take a dropped one's id."""
    _, alg, s, _ = pyth
    ctx = ChainContext(s)
    polys = [alg.generator(g) * alg.generator(h) + alg.generator(h)
             for g in range(8) for h in range(8)]
    for f in polys:
        for normalized in (False, True):
            assert ctx.once(homology._factor, ctx, Mat([[f]]), normalized) == \
                homology._factor(ctx, Mat([[f]]), normalized), (f, normalized)
    for f, g in zip(polys, polys[1:]):
        want = {(i, j): a * b for i, a in ctx.expand_poly(f)
                for j, b in ctx.expand_poly(g) if j != UNIT_ID}
        assert chain_from_slots(ctx, [f, g]).terms == want


def test_a_context_is_freed_without_the_cycle_collector(pyth):
    """The memo holds each entry's arguments but not the context itself, so a
    context that has factored, multiplied and shifted matrices dies with its
    last reference."""
    import gc
    import weakref

    _, alg, s, ys = pyth
    gc.disable()
    try:
        ctx, ctx3 = ChainContext(s), ChainContext(three_sphere_context(s, ys))
        chern_even(ctx, build_projection(s), 1).digest()
        chern_odd(ctx3, embed_M2(ys.Y, alg.backend.i), 1).digest()
        refs = [weakref.ref(ctx), weakref.ref(ctx3)]
        del ctx, ctx3
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_chern_odd_rejects_triangular_matrix(pyth, chain_ctx):
    _, alg, _, _ = pyth
    U = Mat([[alg.x1(0), alg.x2(0)], [alg.zero(), alg.x1(0)]])
    with pytest.raises(NotUnitaryEnough):
        chern_odd(chain_ctx, U, 0)


def test_chern_odd_requires_a_central_multiple_of_one(pyth, chain_ctx3):
    """U = (x1_0) has UU* = U*U = x1_0^2, a multiple of the 1x1 identity
    that is not central on the three-sphere: refused."""
    _, alg, _, _ = pyth
    with pytest.raises(NotUnitaryEnough):
        chern_odd(chain_ctx3, Mat([[alg.x1(0)]]), 0)


def test_chern_odd_unit_requirement_is_stricter(pyth, chain_ctx):
    # |x1|^2 is central but not 1 on the big sphere, so the embedded
    # first-family quaternion is unitary only up to a central factor:
    # chern_odd accepts it, while UU* = 1 fails modulo the sphere ideal
    _, alg, s, _ = pyth
    U = embed_M2(tuple(alg.x1(m) for m in range(4)), s.base.backend.i)
    chern_odd(chain_ctx, U, 0)
    UUd = U @ U.dagger()
    assert not s.reduce(UUd.rows[0][0] - alg.one()).is_zero()


def test_digest_is_canonical(chain_ctx):
    alg = chain_ctx.alg
    f, g = alg.x1(0), alg.x2(1) * alg.x2(2)
    c1 = chain_from_slots(chain_ctx, [f, g]) + chain_from_slots(
        chain_ctx, [g, f])
    c2 = chain_from_slots(chain_ctx, [g, f]) + chain_from_slots(
        chain_ctx, [f, g])
    assert c1.digest() == c2.digest()
    d = c1.digest()
    assert d["degree"] == 1 and d["n_terms"] == c1.n_terms()
    assert len(d["sha256"]) == 64 and not d["is_zero"]
    assert c1.digest() != (c1 + c1).digest()


def test_factored_trace_calls_the_chain_methods_installed_later(pyth, chain_ctx, monkeypatch):
    """A wrapper put on TensorChain.digest or .first_term after import, as a
    profiler puts one, sees a FactoredTrace's calls too."""
    calls = []
    for name in ("digest", "first_term"):
        real = getattr(TensorChain, name)
        monkeypatch.setattr(TensorChain, name,
                            lambda self, name=name, real=real: calls.append(name) or real(self))
    p = build_projection(pyth[2])
    chain = FactoredTrace(chain_ctx, [(1, [p, p])])
    assert chain.digest()["n_terms"] > 0 and chain.first_term()
    assert calls == ["digest", "first_term"]


def test_vanzz_equivalence_agrees(pyth, classical, chain_ctx):
    _, _, _, ys = pyth
    rep = check_vanzz_equivalence(chain_ctx, ys)
    assert rep["agree"] and rep["chain_vanishes"]
    assert rep["lambda_symmetric_unitary"]
    assert rep["chain_terms"] == 0
    _, _, s0, ys0 = classical
    rep0 = check_vanzz_equivalence(ChainContext(s0), ys0)
    assert rep0["agree"] and rep0["chain_vanishes"]


# ---------------------------------------------------------------------------
# the factored trace map against the brute-force index-path walk
# ---------------------------------------------------------------------------


def _walk_trace(ctx, mats):
    """Oracle for trace_chain: one product per cyclic index path and per
    choice of one monomial in each entry on the path."""
    r, n = len(mats[0].rows), len(mats) - 1
    # slots >= 1 live in A / C1, so their entries lose the unit monomial
    cells = [[[tuple(e for e in ctx.expand_poly(f) if not (pos and e[0] == UNIT_ID))
               for f in row] for row in m.rows] for pos, m in enumerate(mats)]
    out = {}
    for path in itertools.product(range(r), repeat=n + 1):
        entries = [cells[pos][path[pos]][path[(pos + 1) % (n + 1)]]
                   for pos in range(n + 1)]
        for choice in itertools.product(*entries):
            coeff = ctx.backend.one
            for _, c in choice:
                coeff = coeff * c
            add_into(out, tuple(mid for mid, _ in choice), coeff)
    return TensorChain(ctx, n, out)


def _oracle_words(ctx, rng):
    """(name, word): sizes 1, 2 and 4 at degrees 0-4, units and zero entries,
    linearly dependent entries, a non-idempotent p and repeated matrices."""
    alg = ctx.alg
    one, zero = alg.one(), alg.zero()

    def rand(r, terms):  # a generator in each entry keeps slots >= 1 nonzero
        return Mat([[_random_poly(alg, rng, terms=terms) + alg.generator(rng.randrange(8))
                     for _ in range(r)] for _ in range(r)])

    words = [(f"random {r}x{r} of degree {n}", [rand(r, terms) for _ in range(n + 1)])
             for r, terms in ((1, 2), (2, 2), (4, 1)) for n in range(5)]
    f, g = _random_poly(alg, rng, terms=3), _random_poly(alg, rng, terms=3)
    dependent = Mat([[f, g], [f + g, f - g * 3]])  # four entries, rank two
    units = Mat([[one, zero], [alg.x1(0) + one, alg.x2(1) * 2 - one]])
    rows = [list(r) for r in build_projection(ctx.sphere).rows]
    rows[0][0] = rows[0][0] + alg.scalar(Fraction(1, 3))
    return words + [
        ("dependent entries, one object thrice", [dependent] * 3),
        ("units and zeros", [units, rand(2, 2), units, units, rand(2, 2)]),
        ("p + E_00/3", chern_even(ctx, Mat(rows), 1).words[0][1]),
    ]


@pytest.mark.parametrize("point", ["pyth", "mixed"])
def test_factored_trace_equals_the_index_path_walk(point, request):
    """Exact: trace_chain is the walk, and b through the faces is b of the walk."""
    _, _, s, _ = request.getfixturevalue(point)
    ctx = ChainContext(s)
    words = _oracle_words(ctx, random.Random(4))
    nonzero = 0
    for name, word in words:
        want = _walk_trace(ctx, word)
        assert trace_chain(ctx, word) == want, name
        nonzero += not want.is_zero()
        if len(word) > 1:
            assert b_boundary(FactoredTrace(ctx, [(1, word)])) == b_boundary(want), name
    assert nonzero == len(words)


def test_canonical_order_is_the_order_of_the_mono_key_tuples(pyth):
    """canonical_terms sorts as the tuples of slot mono_keys, on every
    oracle word and on ch_3half at the main point."""
    _, _, s, ys = pyth
    ctx, ctx3 = ChainContext(s), ChainContext(three_sphere_context(s, ys))
    chains = [trace_chain(ctx, word) for _, word in _oracle_words(ctx, random.Random(4))]
    chains.append(expanded_odd(ctx3, embed_M2(ys.Y, s.base.backend.i), 1))
    for chain in chains:
        keys = chain.ctx.mono_keys
        want = sorted(chain.terms, key=lambda k: tuple(keys[i] for i in k))
        assert [k for k, _ in chain.canonical_terms()] == want


@pytest.mark.parametrize("label, backend, n_terms", [
    ("3/5,4/5,0", EXACT, 172032), ("3/5,4/5,0", FLOAT, 172032), ("1/3,2/3,2/3", EXACT, 602112)],
    ids=["exact-3/5,4/5,0", "float-3/5,4/5,0", "exact-1/3,2/3,2/3"])
def test_trace_expands_only_the_surviving_entries_of_c(label, backend, n_terms):
    """FactoredTrace keeps only the entries of c that survive the zero test,
    and the walk of ch2 yields exactly its terms, each nonzero; expanding the
    cancelled entries of c as well would give 783 616 keys at 3/5,4/5,0 and
    1 565 952 at 1/3,2/3,2/3."""
    _, _, s, _ = make_point(label, backend)
    ctx = ChainContext(s)
    pure = chern_even(ctx, build_projection(s), 2).words[0][2]
    assert pure and not any(ctx.backend.is_zero(v) for _, v in pure)
    terms = [(prefix + (mid,), v)
             for prefix, row in canonical_rows(expand_factored(ctx, [(1, pure)]), 4)
             for mid, v in row]
    assert len(terms) == n_terms
    assert TensorChain(ctx, 4, dict(terms)).n_terms() == n_terms


def _agree_within_tol(got, want):
    """The same terms, named by their monomials, each coefficient within tol."""
    def named(chain):
        return {tuple(chain.ctx._monos[i] for i in key): complex(v)
                for key, v in chain.terms.items()}
    got, want = named(got), named(want)
    assert set(got) == set(want)
    assert max((abs(got[k] - want[k]) for k in got), default=0.0) <= FLOAT.tol


def test_factored_trace_matches_the_walk_on_floats():
    _, _, s, _ = make_point("1/3,2/3,2/3", FLOAT)
    ctx = ChainContext(s)
    for name, word in _oracle_words(ctx, random.Random(4)):
        want = _walk_trace(ctx, word)
        _agree_within_tol(trace_chain(ctx, word), want)
        if len(word) > 1:
            _agree_within_tol(b_boundary(FactoredTrace(ctx, [(1, word)])), b_boundary(want))


def test_float_chern_components_agree_with_the_exact_chains(pyth):
    """ch2 and ch_3half at the main point: the exact chain's keys, within tol."""
    def components(s, ys):
        ctx3 = ChainContext(three_sphere_context(s, ys))
        U = embed_M2(ys.Y, s.base.backend.i)
        return chern_even(ChainContext(s), build_projection(s), 2), expanded_odd(ctx3, U, 1)

    exact = components(*pyth[2:])
    floats = components(*make_point("3/5,4/5,0", FLOAT)[2:])
    for got, want in zip(floats, exact):
        assert not want.is_zero()
        _agree_within_tol(got, want)


def test_row_memo_tells_signed_zero_weights_apart():
    """Float weights 4+0j and 4-0j are == but give 4+0j and 4-0j times 1-0j, and
    -0+4j and 4j are == but stay apart times 1+0j, so the walk keys a subtree by
    Backend.value_key(w), which keeps the sign of each zero part.  Two slots: two
    leaves share their last factor.  Three slots: two internal nodes share their
    suffix, and they share a subtree on the exact backend only.  The walk's terms
    print as each tensor's computed apart, with no memo."""
    cases = [(EXACT, (EXACT.convert(4),) * 2, EXACT.one, {str(EXACT.convert(4))}),
             # the literal 1-0j is 1+0j
             (FLOAT, (4 + 0j, complex(4, -0.0)), complex(1, -0.0), ["(4+0j)", "(4-0j)"]),
             (FLOAT, (4j, complex(-0.0, 4)), complex(1, 0.0), ["(-0+4j)", "4j"])]
    for backend, weights, one, printed in cases:
        _, alg, s, _ = make_point("1,0,0", backend)
        ctx = ChainContext(s)
        a, b, x, c = (ctx.expand_poly(alg.generator(g))[0][0] for g in range(4))
        for slots in (((c, one),),), (((x, one),), ((c, one),)):
            pure = [((((m, one),), *slots), w) for m, w in zip((a, b), weights)]
            want = {}
            for f, w in pure:  # one leaf per tensor here: w cc0 cc1 ..., as the walk multiplies
                for choice in itertools.product(*f):
                    v = w
                    for _, cc in choice:
                        v = v * cc
                    want[tuple(mid for mid, _ in choice)] = str(v)
            tree = expand_factored(ctx, [(1, pure)])
            got = {prefix + (mid,): str(v) for prefix, row in canonical_rows(tree, len(slots))
                   for mid, v in row}
            assert got == want
            if backend is FLOAT:
                assert sorted(want.values()) == printed
            else:
                assert set(want.values()) == printed
            if len(slots) == 2:  # the internal nodes below a and below b
                children = dict(tree)
                assert (children[a] is children[b]) == (backend is EXACT)


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
def test_ch2_builds_each_distinct_subtree_once(backend, monkeypatch):
    """ch2 at 3/5,4/5,0: _subtree builds 163 distinct subtrees, by slot the root,
    9, 35, 64 and 54 rows, for its 47 910 walk nodes and 43 008 leaves; the shared
    tree's leaves are the pure tensors' expanded terms, printed alike."""
    _, _, s, _ = make_point("3/5,4/5,0", backend)
    ctx = ChainContext(s)
    builds, real = {}, homology._subtree

    def counting(walk, pos, live):
        builds[pos] = builds.get(pos, 0) + 1
        return real(walk, pos, live)

    monkeypatch.setattr(homology, "_subtree", counting)
    trace = chern_even(ctx, build_projection(s), 2)
    assert builds == {0: 1, 1: 9, 2: 35, 3: 64, 4: 54}

    def walk_nodes(node, depth):
        return 1 + (sum(walk_nodes(child, depth - 1) for _, child in node) if depth else 0)

    assert walk_nodes(trace.tree, 4) == 47910
    # the expanded-chain oracle: each pure tensor expanded into its terms, the
    # products taken slot by slot and summed in pure's order, as the walk does
    want = {}
    for f, w in trace.words[0][2]:
        for choice in itertools.product(*f):
            v = w
            for _, cc in choice:
                v = v * cc
            add_into(want, tuple(mid for mid, _ in choice), v)
    want = TensorChain(ctx, 4, want)
    got = [(prefix + (mid,), str(v)) for prefix, row in canonical_rows(trace.tree, 4)
           for mid, v in row]
    assert sum(1 for _ in canonical_rows(trace.tree, 4)) == 43008
    assert got == [(key, str(v)) for key, v in want.canonical_terms()]
    assert len(got) == 172032


def _oracle_digest(chain):
    """The digest by its definition: for each term of canonical_terms() in order,
    each slot's repr(monomial) + "|", then str(coeff) + ";", one update each."""
    h, terms = hashlib.sha256(), chain.canonical_terms()
    for key, coeff in terms:
        for i in key:
            h.update((repr(chain.ctx._monos[i]) + "|").encode())
        h.update((str(coeff) + ";").encode())
    return {"degree": chain.degree, "n_terms": len(terms), "is_zero": not terms,
            "sha256": h.hexdigest()}


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
def test_digest_is_the_hash_of_its_definition(backend):
    """Degree 0 and 1 chains, empty chains, and a hand-built degree-2 tree in
    which one node at slot 1 sits under two prefixes: the digest hashes each
    term's slots and coefficient in canonical order, as the oracle does."""
    _, alg, s, _ = make_point("3/5,4/5,0", backend)
    ctx = ChainContext(s)
    x = [alg.generator(g) for g in range(8)]
    f = x[0] * x[1] + x[2].scale(3) + alg.scalar(Fraction(1, 3))
    g = x[3] * x[4] - x[5]
    chains = [chain_from_slots(ctx, [f]), chain_from_slots(ctx, [f, g]),
              chain_from_slots(ctx, [g, f]) - chain_from_slots(ctx, [f, g]).scale(2)]
    chains += [TensorChain(ctx, n, {}) for n in range(3)]
    for chain in chains:
        assert chain.digest() == _oracle_digest(chain)
    assert [c.digest()["is_zero"] for c in chains] == [False] * 3 + [True] * 3
    # both heads carry the same tail f (x) g, so one node object can serve both
    chain = chain_from_slots(ctx, [x[6] + x[7], f, g]) + chain_from_slots(ctx, [x[0], g, f])
    tree = chain.tree
    shared = dict(tree)[ctx.expand_poly(x[6])[0][0]]
    assert dict(tree)[ctx.expand_poly(x[7])[0][0]] == shared
    hand = tuple((mid, shared if node == shared else node) for mid, node in tree)
    assert sum(node is shared for _, node in hand) == 2
    built = types.SimpleNamespace(ctx=ctx, degree=2, tree=hand)
    assert TensorChain.digest(built) == chain.digest() == _oracle_digest(chain)


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("label", ["1,0,0", "3/5,4/5,0"])
def test_streamed_digest_equals_the_digest_of_the_expanded_chain(label, backend):
    """ch0, ch1, ch2, the four traces behind ch_half and ch_3half, and ch0 and
    ch1 of p + E_00/3: the walk's (n_terms, sha256) is the digest of the
    expanded chain and of the oracle that hashes its definition, its keys
    strictly increase in the canonical order, the factored zero test is the
    expanded chain's, and so is the first term of a nonzero one."""
    _, alg, s, ys = make_point(label, backend)
    ctx, ctx3 = ChainContext(s), ChainContext(three_sphere_context(s, ys))
    p, U = build_projection(s), embed_M2(ys.Y, backend.i)
    Ud = U.dagger()
    rows = [list(r) for r in p.rows]
    rows[0][0] = rows[0][0] + alg.scalar(Fraction(1, 3))
    words = [(ctx, chern_even(ctx, p, k).words[0][1]) for k in range(3)]
    words += [(ctx3, w) for w in ([U, Ud], [Ud, U], [U, Ud] * 2, [Ud, U] * 2)]
    words += [(ctx, chern_even(ctx, Mat(rows), k).words[0][1]) for k in range(2)]
    sizes = []
    for c, word in words:
        trace, chain = FactoredTrace(c, [(1, word)]), trace_chain(c, word)
        terms = [(prefix + (mid,), v)
                 for prefix, row in canonical_rows(trace.tree, trace.degree) for mid, v in row]
        assert trace.digest() == chain.digest() == _oracle_digest(chain)
        assert trace.is_zero() == chain.is_zero() == (not terms)
        if terms:
            assert trace.first_term() == chain.first_term()
        keys = c.mono_keys
        ranks = [tuple(keys[i] for i in key) for key, _ in terms]
        assert all(x < y for x, y in zip(ranks, ranks[1:]))
        sizes.append(len(terms))
    # ch0 and ch1 vanish; ch2 and the four odd traces do not, nor do the perturbed ch0, ch1
    assert sizes[:2] == [0, 0] and min(sizes[2:7]) > 1 and min(sizes[7:]) > 0


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("label", CATALOG)
def test_factored_odd_components_equal_the_expanded_chains(label, backend):
    """ch_half and ch_3half as factored combinations: digest, zero test and
    first term are those of trace_chain(w1) - trace_chain(w2), and exact b of
    ch_3half through the faces is b on the expanded chain's terms."""
    _, _, s, ys = make_point(label, backend)
    ctx3 = ChainContext(three_sphere_context(s, ys))
    U = embed_M2(ys.Y, backend.i)
    for k in (0, 1):
        got, want = chern_odd(ctx3, U, k), expanded_odd(ctx3, U, k)
        assert got.digest() == want.digest(), k
        assert got.is_zero() == want.is_zero() == (k == 0)
        if k:
            assert got.first_term() == want.first_term()
    if backend is EXACT and label in ("3/5,4/5,0", "1/3,2/3,2/3"):
        assert b_boundary(got) == b_boundary(want)


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
def test_a_factored_trace_is_a_tensor_chain(backend):
    """ch_half and ch_3half at 3/5,4/5,0 as FactoredTraces: TensorChains whose
    terms, read off the tree, n_terms, +, - and == are those of trace_chain of
    the same words, with a factored or an expanded chain on either side."""
    _, _, s, ys = make_point("3/5,4/5,0", backend)
    ctx3 = ChainContext(three_sphere_context(s, ys))
    U = embed_M2(ys.Y, backend.i)
    for k in (0, 1):
        got, want = chern_odd(ctx3, U, k), expanded_odd(ctx3, U, k)
        assert isinstance(got, TensorChain) and got.degree == want.degree == 2 * k + 1
        assert got.terms == want.terms and got.n_terms() == want.n_terms()
        assert (got.n_terms() == 0) == (k == 0)
        for x, y in ((got, got), (got, want), (want, got)):
            assert (x + y).terms == (want + want).terms, k
            assert (x - y).terms == (want - want).terms == {}, k
            assert x == y and x + y == want + want, k
        assert got != got + got or k == 0


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("label", ["3/5,4/5,0", "1/3,2/3,2/3"])
def test_b_of_two_words_is_the_signed_sum_of_each_words_b(label, backend):
    """b of a two-word FactoredTrace, one walk over both words' faces, against
    one walk per word with the chains summed by TensorChain's + and -: the same
    terms and, as the float digest sees signed zeros, the same digest.  U has
    one perturbed entry, so neither word's b vanishes; k <= 1, as b of k = 2
    has millions of terms."""
    _, alg, s, ys = make_point(label, backend)
    ctx3 = ChainContext(three_sphere_context(s, ys))
    rows = [list(r) for r in embed_M2(ys.Y, backend.i).rows]
    rows[0][1] = rows[0][1] + alg.generator(2) * alg.generator(5)
    U = Mat(rows)
    Ud = U.dagger()
    for k in (0, 1):
        words = [(1, [U, Ud] * (k + 1)), (-1, [Ud, U] * (k + 1))]
        want = TensorChain(ctx3, 2 * k)
        for sign, word in words:
            one = b_boundary(FactoredTrace(ctx3, [(1, word)]))
            assert not one.is_zero(), k
            want = want + one if sign > 0 else want - one
        got = b_boundary(FactoredTrace(ctx3, words))
        assert not want.is_zero(), k
        assert got.terms == want.terms, k
        assert got.digest() == want.digest(), k
