"""Tests for complexes: shifts, cones, minimization, homs, isomorphism, JSON."""

import copy
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import sphtwist.complexes
import sphtwist.twists
from conftest import (
    FALLBACK_SEEDS,
    _matmul,
    dense_cone,
    dense_hom_to_projective,
    dense_minimize,
    dense_tensor_projective,
    dense_twist,
    dense_untwist,
    fallback_pair,
    glued_twist,
    glued_untwist,
    make_algebra,
    perturbed_pair,
    random_element,
    random_two_term,
    random_word,
    reversed_summands,
    seeded,
)
from sphtwist import (
    AlgebraElement,
    ChainMap,
    GradedVectorComplex,
    ProjComplex,
    ZigzagAlgebra,
    cone,
    euler_class,
    hom_from_projective,
    hom_to_projective,
    homology_table,
    is_isomorphic,
    is_minimal,
    minimize,
)
from sphtwist.complexes import _arrow_ranks
from sphtwist.fields import Fp
from sphtwist.twists import apply_word, compare_words, twist, untwist, verify_relations


@pytest.fixture
def alg():
    return make_algebra(2, 2)


@pytest.fixture
def alg3():
    return make_algebra(3, 2)


def two_term(alg, src, tgt, entries):
    return ProjComplex(alg, {0: src, 1: tgt}, {0: entries})


# ----------------------------------------------------------------------
# shifts


def test_shift_identity(alg):
    M = ProjComplex.projective(alg, 1)
    assert M.shift(0, 0) == M


def test_shift_inverse(alg):
    M = two_term(alg, [(1, 1)], [(2, 0)], [[alg.arrow(1, 2)]])
    assert M.shift(1, 0).shift(-1, 0) == M
    assert M.shift(2, 3).shift(-2, -3) == M


def test_shift_negates_euler(alg):
    M = two_term(alg, [(1, 1)], [(2, 0)], [[alg.arrow(1, 2)]])
    assert euler_class(M.shift(1, 0)) == [-p for p in euler_class(M)]


def test_shift_differential_sign(alg):
    M = two_term(alg, [(1, 1)], [(2, 0)], [[alg.arrow(1, 2)]])
    shifted = M.shift(1, 0)
    assert shifted.diffs[-1][0][0] == -alg.arrow(1, 2)


# ----------------------------------------------------------------------
# cones


def test_cone_of_zero_map_is_direct_sum(alg):
    M = ProjComplex.projective(alg, 1)
    K = ProjComplex.projective(alg, 2)
    C = cone(ChainMap.zero(M, K))
    assert C.summands(-1) == ((1, 0),)
    assert C.summands(0) == ((2, 0),)
    assert all(x.is_zero() for mat in C.diffs.values() for row in mat for x in row)


def test_cone_of_identity_is_contractible(alg):
    M = ProjComplex.projective(alg, 1)
    assert minimize(cone(ChainMap.identity(M))).is_zero()


def test_cone_of_evaluation_arrow_is_minimal(alg):
    P1 = ProjComplex.projective(alg, 1, shift=1)
    P2 = ProjComplex.projective(alg, 2)
    f = ChainMap(P1, P2, {0: [[alg.arrow(1, 2)]]})
    C = cone(f)
    assert C.summands(-1) == ((1, 1),) and C.summands(0) == ((2, 0),)
    assert is_minimal(C)
    assert minimize(C) == C


def test_cone_rejects_non_chain_map(alg):
    M = two_term(alg, [(1, 2)], [(1, 0)], [[alg.loop(1)]])
    K = two_term(alg, [(1, 2)], [(1, 0)], [[alg.zero()]])
    with pytest.raises(ValueError):
        ChainMap(M, K, {0: [[alg.e(1)]], 1: [[alg.e(1)]]})


def test_cone_satisfies_d_squared(alg):
    rng = seeded(7)
    for _ in range(10):
        M = random_two_term(alg, rng)
        C = cone(ChainMap.zero(M, M))
        ProjComplex(C.algebra, C.terms, C.diffs)  # validates d^2 = 0


# ----------------------------------------------------------------------
# minimization


def test_minimize_cancels_identity_entry(alg):
    M = two_term(alg, [(1, 0)], [(1, 0)], [[alg.e(1)]])
    assert minimize(M).is_zero()


def test_local_inverse_of_unit_plus_loop(alg):
    # homogeneity forces differential pivots to be pure scalar idempotents,
    # but the local inversion handles a radical tail too
    x = alg.e(1).scale(2) + alg.loop(1).scale(3)
    inv = alg.invert_local(x)
    assert x * inv == alg.e(1)
    assert inv * x == alg.e(1)
    assert alg.invert_local(alg.loop(1)) is None
    assert alg.invert_local(alg.arrow(1, 2)) is None


def test_minimize_keeps_radical_entries(alg):
    M = two_term(alg, [(1, 1)], [(2, 0)], [[alg.arrow(1, 2)]])
    assert minimize(M) == M


def test_minimize_idempotent(alg):
    rng = seeded(11)
    for _ in range(15):
        M = random_two_term(alg, rng)
        Mm = minimize(M)
        assert is_minimal(Mm)
        assert minimize(Mm) == Mm


def test_minimize_pivot_order_independent(alg3):
    rng = seeded(13)
    for _ in range(10):
        M = random_two_term(alg3, rng)
        a = minimize(M)
        b = minimize(reversed_summands(M))
        assert sorted(a.terms) == sorted(b.terms)
        for t in a.terms:
            assert sorted(a.terms[t]) == sorted(b.terms[t])
        assert is_isomorphic(a, b)


def test_zero_complex_everywhere(alg):
    Z = ProjComplex.zero(alg)
    assert minimize(Z).is_zero()
    assert Z.shift(1, 2).is_zero()
    assert homology_table(Z) == {1: {}, 2: {}}
    assert is_isomorphic(Z, ProjComplex.zero(alg))


# ----------------------------------------------------------------------
# hom complexes


def test_hom_from_projective_spherical(alg):
    P1 = ProjComplex.projective(alg, 1)
    hom = hom_from_projective(1, P1)
    assert hom.dims() == {(0, 0): 1, (0, 2): 1}


def test_hom_from_projective_neighbor(alg):
    P2 = ProjComplex.projective(alg, 2)
    hom = hom_from_projective(1, P2)
    assert sum(hom.dims().values()) == 1


def test_hom_from_projective_distant(alg3):
    P3 = ProjComplex.projective(alg3, 3)
    assert sum(hom_from_projective(1, P3).dims().values()) == 0


def test_hom_to_projective_spherical(alg):
    P1 = ProjComplex.projective(alg, 1)
    hom = hom_to_projective(P1, 1)
    assert hom.dims() == {(0, 0): 1, (0, 2): 1}


def test_hom_to_projective_neighbor(alg):
    P2 = ProjComplex.projective(alg, 2)
    assert sum(hom_to_projective(P2, 1).dims().values()) == 1


def test_vertex_is_checked_at_the_api_boundary():
    # a vertex off the chain raises, whether or not M has vectors at a
    # vertex on it: the word image of P1 has vectors at 1, P3 none at 1
    # (n = 3), and the zero complex none at all
    alg = make_algebra(3, 2)
    M = apply_word([1, -2], ProjComplex.projective(alg, 1))
    P3 = ProjComplex.projective(alg, 3)
    assert hom_from_projective(1, M).basis and hom_to_projective(M, 1).basis
    assert not hom_from_projective(1, P3).basis and not hom_to_projective(P3, 1).basis
    for X in (M, P3, ProjComplex.zero(alg)):
        for v in (0, 4, -1):
            for call in (lambda: hom_from_projective(v, X),
                         lambda: hom_to_projective(X, v),
                         lambda: twist(v, X), lambda: untwist(v, X)):
                with pytest.raises(ValueError, match="vertex %d out of range" % v):
                    call()


def test_hom_duality_on_homology(alg):
    # perfect trace pairing: H^{(t,u)} RHom(P_i, M) is dual to
    # H^{(-t, N-u)} RHom(M, P_i)
    rng = seeded(17)
    N = alg.params.N
    for _ in range(8):
        M = random_two_term(alg, rng)
        for i in (1, 2):
            fwd = hom_from_projective(i, M).homology()
            bwd = hom_to_projective(M, i).homology()
            assert {(-t, N - u): d for (t, u), d in fwd.items()} == bwd


def frobenius_dual(key):
    """The path psi* whose product with psi is a loop: e_j <-> l_j and
    a_jk <-> a_kj."""
    if key[0] == "a":
        return ("a", key[2], key[1])
    return ("l" if key[0] == "e" else "e", key[1])


def hom_cases(char):
    """Seeded (M, i) at n = 2..4 and N = 2..5: a random two-term complex
    after a random word, against every vertex."""
    for n in (2, 3, 4):
        for N in (2, 3, 4, 5):
            rng = seeded(9000 + 10 * n + N + (char or 0))
            degrees = tuple(rng.randint(1, N - 1) for _ in range(n - 1))
            alg = make_algebra(n, N, degrees, char=char)
            for _ in range(10):
                M = random_two_term(alg, rng)
                M = apply_word(random_word(alg, rng, max_len=4), M)
                for i in range(1, n + 1):
                    yield M, i


@pytest.mark.parametrize("char", [None, 5])
def test_hom_complexes_are_dual_at_chain_level(char):
    # the vector (r, psi) of RHom(M, P_i) sits in bidegree (-t, N - d)
    # exactly when (r, psi*) of RHom(P_i, M) sits in (t, d), and the two
    # differentials are literal transposes with equal scalars
    entries = pairs = 0
    for M, i in hom_cases(char):
        N = M.algebra.params.N
        fwd = hom_from_projective(i, M)
        bwd = dense_hom_to_projective(M, i)
        assert set(bwd.basis) == {-t for t in fwd.basis}
        for t, vecs in fwd.basis.items():
            assert sorted(bwd.basis[-t]) == sorted(
                (N - d, (r, frobenius_dual(key))) for d, (r, key) in vecs)
        pos = {m: {label: k for k, (_d, label) in enumerate(vecs)}
               for m, vecs in bwd.basis.items()}
        assert set(bwd.diffs) == {-t - 1 for t in fwd.diffs}
        for t, mat in fwd.diffs.items():
            back = bwd.diffs[-t - 1]
            for a, (_d, (r, key)) in enumerate(fwd.basis[t]):
                col = pos[-t][(r, frobenius_dual(key))]
                for b, (_d, (r2, key2)) in enumerate(fwd.basis[t + 1]):
                    row = pos[-t - 1][(r2, frobenius_dual(key2))]
                    assert back[row][col] == mat[a][b]
                    pairs += 1
                    entries += bool(mat[a][b])
    assert entries > 400 and pairs > 4000


@pytest.mark.parametrize("char", [None, 5])
def test_hom_to_projective_matches_dense_reference(char):
    # the engine reads RHom(M, P_i) off RHom(P_i, M); the reference
    # enumerates it on its own and pre-composes with the dense d_M: equal
    # basis lists in order and equal dense differentials
    entries = 0
    for M, i in hom_cases(char):
        got, want = hom_to_projective(M, i), dense_hom_to_projective(M, i)
        assert got.basis == want.basis
        assert got.diffs == want.diffs
        entries += sum(bool(x) for mat in want.diffs.values()
                       for row in mat for x in row)
    assert entries > 400


def test_homology_table_of_projective(alg):
    table = homology_table(ProjComplex.projective(alg, 1))
    assert table[1] == {(0, 0): 1, (0, 2): 1}
    assert sum(table[2].values()) == 1


def test_homology_invariant_under_minimize(alg3):
    rng = seeded(19)
    for _ in range(10):
        M = random_two_term(alg3, rng)
        assert homology_table(M) == homology_table(minimize(M))


# ----------------------------------------------------------------------
# isomorphism testing


def test_isomorphic_to_self_with_certificate(alg):
    M = two_term(alg, [(1, 1)], [(2, 0)], [[alg.arrow(1, 2)]])
    ok, cert = is_isomorphic(M, M, with_certificate=True)
    assert ok
    assert cert.commutes()


def test_distinct_shifts_not_isomorphic(alg):
    P = ProjComplex.projective(alg, 1)
    assert not is_isomorphic(P, P.shift(0, 1))
    assert not is_isomorphic(P, P.shift(1, 0))
    assert not is_isomorphic(P, ProjComplex.projective(alg, 2))


def test_isomorphism_needs_one_algebra():
    """Complexes over algebras with different fields or parameters are
    refused, with and without a certificate, even when their data agree;
    equal parameters and field over two algebra objects are accepted."""
    q2 = make_algebra(2, 2)
    for other in (make_algebra(2, 2, char=7), make_algebra(3, 2), make_algebra(2, 3)):
        M, K = ProjComplex.projective(q2, 1), ProjComplex.projective(other, 1)
        for flag in (False, True):
            with pytest.raises(ValueError, match="different algebras"):
                is_isomorphic(M, K, with_certificate=flag)
            with pytest.raises(ValueError, match="different algebras"):
                is_isomorphic(K, M, with_certificate=flag)
    assert is_isomorphic(ProjComplex.projective(q2, 1),
                         ProjComplex.projective(make_algebra(2, 2), 1))


def test_chain_map_takes_equal_algebras_as_one():
    """``ChainMap`` accepts the certificate ``is_isomorphic`` returns for
    complexes over two algebra objects with equal parameters and field,
    and refuses a Q against an F_7 algebra, or n = 2 against n = 3, with
    the same message as before."""
    for char in (None, 7):
        a, b = make_algebra(2, 2, char=char), make_algebra(2, 2, char=char)
        for M, K in [(ProjComplex.projective(a, 1), ProjComplex.projective(b, 1)),
                     (twist(1, ProjComplex.projective(a, 2)),
                      twist(1, ProjComplex.projective(b, 2)))]:
            ok, cert = is_isomorphic(M, K, with_certificate=True)
            assert ok and cert.source.algebra is not cert.target.algebra
            f = ChainMap(cert.source, cert.target, cert.mats)
            assert f.commutes() and f.mats == cert.mats
    q2 = make_algebra(2, 2)
    P = ProjComplex.projective(q2, 1)
    for other in (make_algebra(2, 2, char=7), make_algebra(3, 2)):
        Q = ProjComplex.projective(other, 1)
        for source, target in ((P, Q), (Q, P)):
            with pytest.raises(ValueError) as got:
                ChainMap(source, target, {})
            assert str(got.value) == "source and target live over different algebras"


def test_isomorphic_after_scaling_differential(alg):
    M = two_term(alg, [(1, 1)], [(2, 0)], [[alg.arrow(1, 2)]])
    K = two_term(alg, [(1, 1)], [(2, 0)], [[alg.arrow(1, 2).scale(5)]])
    ok, cert = is_isomorphic(M, K, with_certificate=True)
    assert ok and cert.commutes()


def test_same_summands_different_differential_detected(alg):
    # {P1<2> -> P1} with d = loop vs with d = 0: not isomorphic
    M = two_term(alg, [(1, 2)], [(1, 0)], [[alg.loop(1)]])
    K = two_term(alg, [(1, 2)], [(1, 0)], [[alg.zero()]])
    assert not is_isomorphic(M, K)


def test_certificate_between_minimized_copies(alg):
    rng = seeded(23)
    for _ in range(5):
        M = random_two_term(alg, rng)
        ok, cert = is_isomorphic(M, minimize(M), with_certificate=True)
        assert ok
        assert cert.commutes()


def basis_change(M, rng):
    """M with d_t replaced by F_t . d_t . G_{t+1} for seeded invertible F.

    In each degree F = permutation . (product of elementary matrices); the
    elementary ones scale a summand or add a homogeneous multiple of one
    summand to another, so F = E + R with E invertible, and G = F^-1.
    """
    alg = M.algebra
    field = alg.field

    def identity(row):
        return [[alg.e(v) if a == b else alg.zero() for b in range(len(row))]
                for a, (v, _s) in enumerate(row)]

    terms, fwd, inv = {}, {}, {}
    for t, row in M.terms.items():
        size = len(row)
        F, G = identity(row), identity(row)
        for _ in range(2 * size):
            i, j = rng.randrange(size), rng.randrange(size)
            E, Einv = identity(row), identity(row)
            if i == j:
                c = field.of(rng.choice([-1, 2, 3]))
                E[i][i] = alg.from_key(("e", row[i][0]), c)
                Einv[i][i] = alg.from_key(("e", row[i][0]), field.one / c)
            else:
                x = random_element(alg, rng, row[i][0], row[j][0],
                                   row[i][1] - row[j][1])
                E[i][j], Einv[i][j] = x, -x
            F, G = _matmul(alg, E, F), _matmul(alg, G, Einv)
        perm = list(range(size))
        rng.shuffle(perm)
        P = [[alg.e(row[perm[a]][0]) if b == perm[a] else alg.zero()
              for b in range(size)] for a in range(size)]
        Pinv = [[P[b][a] for b in range(size)] for a in range(size)]
        terms[t] = [row[perm[a]] for a in range(size)]
        fwd[t], inv[t] = _matmul(alg, P, F), _matmul(alg, G, Pinv)
    diffs = {t: _matmul(alg, _matmul(alg, fwd[t], M.mat(t)), inv[t + 1])
             for t in M.diffs}
    return ProjComplex(alg, terms, diffs)


def repeated_two_term(alg, rng):
    """A minimal two-term complex whose summands repeat, so that its arrow
    blocks can have rank 2 and more."""
    n = alg.params.n
    src = [(rng.randint(1, n), 0) for _ in range(rng.randint(2, 6))]
    tgt = [(rng.randint(1, n), rng.choice([-1, -2])) for _ in range(rng.randint(2, 6))]
    mat = [[random_element(alg, rng, v, v2, s - s2) for v2, s2 in tgt]
           for v, s in src]
    return ProjComplex(alg, {0: src, 1: tgt}, {0: mat})


@pytest.mark.parametrize("char", [None, 7])
def test_arrow_ranks_invariant_under_basis_change(char):
    rng = seeded(41)
    ranks = set()
    for n in (2, 3):
        alg = make_algebra(n, 2, char=char)
        for _ in range(12):
            if rng.random() < 0.6:
                M = repeated_two_term(alg, rng)
            else:
                word = random_word(alg, rng, max_len=4)
                M = apply_word(word, ProjComplex.projective(alg, rng.randint(1, n)))
            K = basis_change(M, rng)
            assert is_minimal(K)
            assert _arrow_ranks(K) == _arrow_ranks(M)
            if char is None:  # over F_7 some of these reach the weight grid
                assert is_isomorphic(M, K)
            ranks.update(_arrow_ranks(M).values())
    assert ranks >= {1, 2, 3}


def test_loop_coefficients_are_not_invariant(alg):
    # P1 -> P2<-1> + P1<-2>: changing the basis of the target by a21 from
    # P2<-1> to P1<-2> turns d = [a12, 0] into [a12, -l1], so only arrow
    # coefficients may enter the rank invariant
    a12, z = alg.arrow(1, 2), alg.zero()
    M = two_term(alg, [(1, 0)], [(2, -1), (1, -2)], [[a12, z]])
    K = two_term(alg, [(1, 0)], [(2, -1), (1, -2)], [[a12, -alg.loop(1)]])
    assert _arrow_ranks(M) == _arrow_ranks(K) == {(0, ("a", 1, 2), 0, -1): 1}
    ok, cert = is_isomorphic(M, K, with_certificate=True)
    assert ok and cert.commutes()


def two_copy(char):
    """P1^2 -> P2<-1>^2 with diag(a12, a12) against diag(0, a12)."""
    alg = make_algebra(2, 2, char=char)
    a, z = alg.arrow(1, 2), alg.zero()
    terms = {0: [(1, 0), (1, 0)], 1: [(2, -1), (2, -1)]}
    return (ProjComplex(alg, terms, {0: [[a, z], [z, a]]}),
            ProjComplex(alg, terms, {0: [[z, z], [z, a]]}))


@pytest.mark.parametrize("char", [31, 101, None])
def test_two_copy_pair_rejected_by_arrow_ranks(char):
    M, K = two_copy(char)
    start = time.perf_counter()
    assert is_isomorphic(M, K, with_certificate=True) == (False, None)
    assert time.perf_counter() - start < 1


def loop_pair(char, copies):
    """P1<0>^k -> P1<-2>^k by diag(l1, ..., l1) against diag(0, l1, ..., l1)
    on one object."""
    alg = make_algebra(1, 2, char=char)
    l, z = alg.loop(1), alg.zero()
    terms = {0: [(1, 0)] * copies, 1: [(1, -2)] * copies}
    return tuple(ProjComplex(alg, terms, {0: [
        [(first if r == 0 else l) if r == c else z for c in range(copies)]
        for r in range(copies)]}) for first in (l, z))


LOOP_PAIRS = [(31, 2), (7, 3), (None, 2), (None, 3), (None, 4), (7, 4), (31, 4)]


def test_decides_without_sympy():
    # completeness needs no symbolic package: with sympy unimportable, the
    # pinned fallback pairs, the two-copy pairs and the loop pairs decide
    code = (
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "from conftest import FALLBACK_SEEDS, fallback_pair\n"
        "from test_complexes import LOOP_PAIRS, loop_pair, two_copy\n"
        "from sphtwist import is_isomorphic\n"
        "for char, seeds in FALLBACK_SEEDS.items():\n"
        "    for seed in seeds:\n"
        "        M, K = fallback_pair(char, seed)\n"
        "        ok, cert = is_isomorphic(M, K, with_certificate=True)\n"
        "        assert ok and cert.commutes()\n"
        "for char in (31, 101, None):\n"
        "    assert not is_isomorphic(*two_copy(char))\n"
        "for char, copies in LOOP_PAIRS:\n"
        "    assert not is_isomorphic(*loop_pair(char, copies))\n"
    )
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([here, src]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


@pytest.mark.parametrize("char", [7, 101, None])
def test_repeated_summand_with_zero_differential(char):
    # P2<0> -> P2<-1>^3 with d = 0: every map is a chain map, and the unit
    # vectors and the fixed weight rows give idempotent blocks of rank <= 2
    alg = make_algebra(2, 2, char=char)
    M = ProjComplex(alg, {0: [(2, 0)], 1: [(2, -1)] * 3})
    start = time.perf_counter()
    ok, cert = is_isomorphic(M, M, with_certificate=True)
    assert time.perf_counter() - start < 1
    assert ok
    assert cert.commutes()
    assert cert.mats == ChainMap.identity(M).mats


@pytest.mark.parametrize("char,seed", [
    (char, seed) for char, seeds in FALLBACK_SEEDS.items() for seed in seeds])
def test_fallback_decides_basis_change(monkeypatch, char, seed):
    # neither the all-ones nor the ramp weight, and not the matched one,
    # gives these pairs an invertible combination, so the seeded points
    # are reached; they or the bounded grid find one
    real = sphtwist.complexes._seeded_weights
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sphtwist.complexes, "_seeded_weights", spy)
    M, K = fallback_pair(char, seed)
    start = time.perf_counter()
    ok, cert = is_isomorphic(M, K, with_certificate=True)
    assert time.perf_counter() - start < 2
    assert len(calls) == 1
    assert ok and cert.commutes()
    assert (cert.source, cert.target) == (minimize(M), minimize(K))


@pytest.mark.parametrize("char,copies", LOOP_PAIRS)
def test_fallback_bounds_each_weight_by_its_degree(char, copies):
    # the loop pair: the arrow ranks agree (there is no arrow) and every
    # chain map is singular; the search must not run through all
    # p^dim(kernel) weight vectors, nor an unbounded grid over Q
    start = time.perf_counter()
    assert is_isomorphic(*loop_pair(char, copies), with_certificate=True) == (False, None)
    assert time.perf_counter() - start < 1


def test_perturbed_pair_rejected():
    # P2<1>^4 -> P2<-1>^4 by loops, one entry doubled before the basis
    # change: the loop block loses rank, the arrow ranks cannot see it, and
    # the pair gets past the all-ones, ramp and matched weights (a kernel
    # of dimension 18); the block dimensions differ
    M, K = perturbed_pair(None, 3340)
    start = time.perf_counter()
    assert is_isomorphic(M, K, with_certificate=True) == (False, None)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("char", [2, 7, None])
def test_all_ones_weight_is_tried_first(monkeypatch, char):
    # on kernels of two or more vectors, the first combination whose
    # blocks are rank-tested weighs every kernel vector 1; its first block
    # differs from that of the unit vector e_1 on some of these seeds, so
    # the check tells the two apart
    complexes = sphtwist.complexes
    solved, tested = [], []
    real_maps, real_rank = complexes._chain_maps, complexes.mat_rank

    def chain_maps(*args):
        solved.append(real_maps(*args))
        return solved[-1]

    def rank(rows, mod):
        if solved and not tested:
            tested.append([list(row) for row in rows])
        return real_rank(rows, mod)

    monkeypatch.setattr(complexes, "_chain_maps", chain_maps)
    monkeypatch.setattr(complexes, "mat_rank", rank)
    mod = char or 0
    checked = unlike_e1 = 0
    for seed in range(40):
        solved.clear()
        tested.clear()
        is_isomorphic(*fallback_pair(char, seed), with_certificate=True)
        if not solved or len(solved[0][2]) < 2:
            continue
        _index, blocks, kernel = solved[0]

        def first_block(weights):
            combo = {}
            for w, vec in zip(weights, kernel):
                for i, x in vec.items():
                    combo[i] = combo.get(i, 0) + w * x
            return [[combo.get(i, 0) % mod if mod else combo.get(i, 0) for i in row]
                    for row in blocks[0]]

        ones = first_block([1] * len(kernel))
        assert tested == [ones]
        checked += 1
        unlike_e1 += ones != first_block([1] + [0] * (len(kernel) - 1))
    assert checked >= 20 and unlike_e1 > 0


@pytest.mark.parametrize("pair,calls", [
    (lambda: loop_pair(7, 3), 3),
    (lambda: perturbed_pair(None, 3340), 2),
], ids=["loop F7 3", "perturbed Q 3340"])
def test_each_chain_map_system_is_solved_once(monkeypatch, pair, calls):
    # Hom(Mm, Km) once for the kernel and its block dimension, then End Mm
    # and, while the dimensions agree, End Km: never one system twice
    M, K = pair()
    solves = []
    kernel = sphtwist.complexes._kernel

    def spy(*args):
        solves.append(args)
        return kernel(*args)

    monkeypatch.setattr(sphtwist.complexes, "_kernel", spy)
    assert not is_isomorphic(M, K)
    assert len(solves) == calls


def test_self_isomorphism_at_89_summands(alg):
    M = apply_word([1, -2] * 5, ProjComplex.projective(alg, 1))
    assert M.total_summands() == 89
    start = time.perf_counter()
    ok, cert = is_isomorphic(M, M, with_certificate=True)
    assert time.perf_counter() - start < 1
    assert ok and cert.commutes()


# ----------------------------------------------------------------------
# JSON serialization


def test_json_round_trip_bit_exact(alg3):
    rng = seeded(29)
    for _ in range(10):
        M = random_two_term(alg3, rng)
        blob = json.dumps(M.to_dict(), sort_keys=True)
        back = ProjComplex.from_dict(json.loads(blob))
        assert back == M
        assert json.dumps(back.to_dict(), sort_keys=True) == blob


def test_json_round_trip_prime_field():
    alg = make_algebra(2, 2, char=7)
    M = ProjComplex(
        alg,
        {0: [(1, 1)], 1: [(2, 0)]},
        {0: [[alg.from_key(("a", 1, 2), 3)]]},
    )
    blob = json.dumps(M.to_dict(), sort_keys=True)
    back = ProjComplex.from_dict(json.loads(blob))
    assert back == M


def test_from_dict_reads_the_entries_only(alg, monkeypatch):
    # [1,-2]^10 . P1 has 10,946 summands and 1,458 in its widest degree: the
    # rows handed to the constructor hold the JSON's entries, no dense
    # matrix of zeros around them
    M = apply_word([1, -2] * 10, ProjComplex.projective(alg, 1))
    data = json.loads(json.dumps(M.to_dict()))
    shapes = []
    scalar_rows = sphtwist.complexes._scalar_rows

    def spy(alg, what, t, mat, srcs, tgts):
        shapes.append((all(isinstance(row, dict) for row in mat),
                       sum(map(len, mat))))
        return scalar_rows(alg, what, t, mat, srcs, tgts)

    monkeypatch.setattr(sphtwist.complexes, "_scalar_rows", spy)
    assert ProjComplex.from_dict(data) == M
    assert all(rows_only for rows_only, _ in shapes)
    assert sum(cells for _, cells in shapes) == sum(map(len, data["diffs"].values()))


# "diffs" of a to_dict of P1, or of P1<0> -> P2<-1> with degrees 0 and 1
BAD_DIFFS = [
    (False, {"0": []}),
    (False, {"-1": []}),
    (False, {"0": [[0, 0, {"a:1:2": "1"}]]}),
    (False, {"0": [[5, 0, {"e:1": "1"}]]}),
    (True, {"0": [[0, 3, {"a:1:2": "1"}]]}),
    (True, {"0": [[1, 0, {"a:1:2": "1"}]]}),
    (True, {"0": [[-1, 0, {"a:1:2": "1"}]]}),
    (True, {"0": [["0", 0, {"a:1:2": "1"}]]}),
    (True, {"0": [[0, 0.0, {"a:1:2": "1"}]]}),
    (True, {"1": []}),
]


@pytest.mark.parametrize("two_degrees,diffs", BAD_DIFFS)
def test_from_dict_rejects_malformed_diffs(alg, two_degrees, diffs):
    M = (two_term(alg, [(1, 0)], [(2, -1)], [[alg.arrow(1, 2)]]) if two_degrees
         else ProjComplex.projective(alg, 1))
    data = M.to_dict()
    assert ProjComplex.from_dict(data) == M
    data["diffs"] = diffs
    with pytest.raises(ValueError):
        ProjComplex.from_dict(data)


def test_validation_rejects_bad_differential(alg):
    with pytest.raises(ValueError):
        # entry not homogeneous of the required degree
        ProjComplex(alg, {0: [(1, 0)], 1: [(2, 0)]}, {0: [[alg.arrow(1, 2)]]})
    with pytest.raises(ValueError):
        # d^2 != 0
        ProjComplex(
            alg,
            {0: [(1, 2)], 1: [(2, 1)], 2: [(1, 0)]},
            {0: [[alg.arrow(1, 2)]], 1: [[alg.arrow(2, 1)]]},
        )


# the constructors of a complex, each given one grading or vertex that is not
# an int: a float shift would give apply_word summands like P2<1.5>
BAD_GRADINGS = {
    "shift 0.5": (lambda alg: ProjComplex(alg, {0: [(1, 0.5)]}), "internal shift 0.5"),
    "degree '0'": (lambda alg: ProjComplex(alg, {"0": [(1, 0)]}), "degree '0'"),
    "diffs degree '0'": (lambda alg: ProjComplex(alg, {0: [(1, 0)], 1: [(2, -1)]},
                                                 {"0": [[alg.arrow(1, 2)]]}),
                         "degree '0'"),
    "vertex 1.0": (lambda alg: ProjComplex(alg, {0: [(1.0, 0)]}), "vertex 1.0"),
    "from_dict shift 0.5": (lambda alg: ProjComplex.from_dict(dict(
        ProjComplex.projective(alg, 1).to_dict(), terms={"0": [[1, 0.5]]})),
        "internal shift 0.5"),
    "projective shift 0.5": (lambda alg: ProjComplex.projective(alg, 1, shift=0.5),
                             "internal shift 0.5"),
    "projective shift 'x'": (lambda alg: ProjComplex.projective(alg, 1, shift="x"),
                             "internal shift 'x'"),
    "projective shift True": (lambda alg: ProjComplex.projective(alg, 1, shift=True),
                              "internal shift True"),
    "projective degree 0.0": (lambda alg: ProjComplex.projective(alg, 1, degree=0.0),
                              "degree 0.0"),
    "projective vertex True": (lambda alg: ProjComplex.projective(alg, True),
                               "vertex True"),
}


@pytest.mark.parametrize("case", sorted(BAD_GRADINGS))
def test_constructors_reject_non_integer_gradings(alg, case):
    build, named = BAD_GRADINGS[case]
    with pytest.raises(ValueError, match="^%s is not an integer$" % re.escape(named)):
        build(alg)


@pytest.mark.parametrize("t", [0.0, "0", True])
def test_chain_map_rejects_non_integer_degrees(alg, t):
    # 0.0 and True hash like 0, so a lookup keyed by degrees would take
    # them for it; "0" used to fail in _scalar_rows with TypeError
    P = ProjComplex.projective(alg, 1)
    with pytest.raises(ValueError, match="^degree %s is not an integer$" % re.escape(repr(t))):
        ChainMap(P, P, {t: [[alg.e(1)]]})


# (source summand, target summand, basis paths summed into the entry); at
# N = 2, a12 alone is valid only from P1<s> to P2<s - 1>, e1 alone from P1<s>
# to P1<s> and l1 alone from P1<s> to P1<s - 2>
BAD_ENTRIES = {
    "wrong vertex": ((1, 1), (1, 0), [("a", 1, 2)]),
    "wrong degree": ((1, 0), (2, 0), [("a", 1, 2)]),
    "two paths": ((1, 0), (1, 0), [("e", 1), ("l", 1)]),
    "a path and a wrong-degree one": ((1, 2), (1, 0), [("l", 1), ("e", 1)]),
}


@pytest.mark.parametrize("kind", ["differential", "chain map"])
@pytest.mark.parametrize("case", sorted(BAD_ENTRIES))
def test_validation_rejects_mistyped_entry(alg, kind, case):
    def build(src, tgt, keys):
        x = alg.zero()
        for key in keys:
            x = x + alg.from_key(key)
        if kind == "differential":
            return two_term(alg, [src], [tgt], [[x]])
        M = ProjComplex.projective(alg, src[0], src[1])
        K = ProjComplex.projective(alg, tgt[0], tgt[1])
        return ChainMap(M, K, {0: [[x]]})

    build((1, 1), (2, 0), [("a", 1, 2)])
    with pytest.raises(ValueError, match="is not in e_"):
        build(*BAD_ENTRIES[case])


# ----------------------------------------------------------------------
# sparse storage against the dense reference


def reference_cases(alg, rng, count):
    """Seeded complexes: two-term ones, some of them moved by a short word."""
    for _ in range(count):
        M = random_two_term(alg, rng)
        if rng.random() < 0.5:
            M = apply_word(random_word(alg, rng, max_len=3), M)
        yield M


def assert_literally_equal(got, want):
    assert got.terms == want.terms
    assert got.diffs == want.diffs
    assert got == want


@pytest.mark.parametrize("char", [None, 7])
def test_sparse_constructions_equal_dense_reference(char):
    # the copies' internal shifts depend on N and the edge degrees
    count = 0
    for n, N, degrees in ((2, 2, None), (3, 2, None), (2, 3, (2,)),
                          (3, 3, (1, 2)), (3, 4, (3, 1))):
        alg = make_algebra(n, N, degrees, char=char)
        rng = seeded(6000 + 100 * (N - 2) + n + (char or 0))
        for M in reference_cases(alg, rng, 50):
            K = random_two_term(alg, rng)
            i = rng.randint(1, n)
            tensor, mats = dense_tensor_projective(i, hom_from_projective(i, M), M)
            ev = ChainMap(tensor, M, mats)
            for X in (M, reversed_summands(M)):
                count += 1
                maps = [ChainMap.identity(X), ChainMap.zero(X, K),
                        ChainMap.zero(K, X.shift(1, 0))]
                if X is M:
                    maps.append(ev)
                for f in maps:
                    assert_literally_equal(cone(f), dense_cone(f))
                    assert_literally_equal(minimize(cone(f)),
                                           dense_minimize(dense_cone(f)))
                for j in range(1, n + 1):
                    assert_literally_equal(twist(j, X), dense_twist(j, X))
                    assert_literally_equal(untwist(j, X), dense_untwist(j, X))
    assert count == 500


def _contents(*objects):
    """Deep copies of the terms and rows of complexes and chain maps."""
    return copy.deepcopy([(X.terms, X._rows) if isinstance(X, ProjComplex)
                          else (X.source.terms, X.target.terms, X._rows)
                          for X in objects])


@pytest.mark.parametrize("char", [None, 7])
def test_constructions_leave_their_inputs_unchanged(char):
    # cone takes over only the fresh rows shift makes for M[1], and the
    # twists copy a row of M before they change it; a builder that took
    # over an input's rows would let minimize reduce them in place
    count = 0
    for n in (2, 3):
        alg = make_algebra(n, 2, char=char)
        rng = seeded(9100 + n + (char or 0))
        for M in reference_cases(alg, rng, 20):
            K = random_two_term(alg, rng)
            i = rng.randint(1, n)
            tensor, mats = dense_tensor_projective(i, hom_from_projective(i, M), M)
            maps = [ChainMap(tensor, M, mats), ChainMap.identity(M),
                    ChainMap.zero(M, K), ChainMap.zero(K, M.shift(1, 0))]
            inputs = [M, K, tensor] + maps
            before = _contents(*inputs)
            held = {id(row) for X in inputs for mat in X._rows.values() for row in mat}
            for f in maps:
                C = cone(f)
                assert not held & {id(row) for mat in C._rows.values() for row in mat}
                minimize(cone(f))
            for X in (M, K):
                minimize(X.shift(1, 0))
                minimize(X.shift(2, 1))
                for j in range(1, n + 1):
                    twist(j, X)
                    untwist(j, X)
                apply_word(random_word(alg, rng), X)
            count += any(M._rows.values())
            assert _contents(*inputs) == before
    assert count >= 35


@pytest.mark.parametrize("char", [None, 2, 3, 7])
def test_twists_equal_glued_reference(char):
    # the rows written in the cone's layout, the untwist's with the
    # i-summands of a minimal input cancelled first, are the rows of the
    # block-by-block construction: same degrees in the same order, same
    # summand tuples, same rows with their entries in the same order (the
    # order is_isomorphic meets them in); the cone of the identity is never
    # minimal
    count = 0
    for n, N, degrees in ((2, 2, None), (3, 2, None), (2, 3, None), (4, 2, None),
                          (3, 3, (1, 2)), (3, 3, (2, 1)), (2, 3, (2,))):
        alg = make_algebra(n, N, degrees, char=char)
        rng = seeded(7000 + 10 * N + n + (char or 0))
        for M in reference_cases(alg, rng, 30):
            for X in (M, reversed_summands(M), minimize(M), cone(ChainMap.identity(M))):
                count += not is_minimal(X)
                for j in range(1, n + 1):
                    for got, want in ((twist(j, X), glued_twist(j, X)),
                                      (untwist(j, X), glued_untwist(j, X))):
                        assert list(got.terms.items()) == list(want.terms.items())
                        assert [(t, [list(row.items()) for row in mat])
                                for t, mat in got._rows.items()] == [
                            (t, [list(row.items()) for row in mat])
                            for t, mat in want._rows.items()]
    assert count >= 210


def test_untwist_lists_each_summands_copies_as_their_duals(alg):
    # two copies of P1<1> with idempotent entries: the minimal model keeps
    # P1<-1> and P1<1> in degree 1, in the order in which hom_basis lists
    # the duals of the paths e_1 and l_1 of RHom(P_1, P1<1>)
    e1, z = alg.e(1), alg.zero()
    X = two_term(alg, [(2, 2), (1, 1), (1, 1)], [(2, 2), (1, 1)],
                 [[z, -2 * alg.arrow(2, 1)], [z, 2 * e1], [z, -e1]])
    got = untwist(1, X)
    assert got.terms[1] == ((2, 2), (1, 1), (1, -1))
    assert_literally_equal(got, dense_untwist(1, X))


@pytest.mark.parametrize("char", [None, 7])
def test_literal_verdict_agrees_with_certificate_path(char):
    # the seeded complexes of the dense-reference test, their reversed
    # copies, seeded basis changes and an unrelated complex
    verdicts = []
    for n in (2, 3):
        alg = make_algebra(n, 2, char=char)
        rng = seeded(6000 + n + (char or 0))
        prev = ProjComplex.zero(alg)
        for M in reference_cases(alg, rng, 50):
            Mm = minimize(M)
            for K in (M, reversed_summands(M), reversed_summands(Mm),
                      basis_change(Mm, rng), prev):
                ok = is_isomorphic(M, K)
                assert ok == is_isomorphic(M, K, with_certificate=True)[0]
                verdicts.append(ok)
            prev = M
    assert len(verdicts) == 500 and 0 < verdicts.count(False) <= 100


def test_literal_verdict_sees_the_differential(alg):
    # equal summands, differentials equal only up to an arrow coefficient
    a12 = alg.arrow(1, 2)
    M = two_term(alg, [(1, 0), (1, 0)], [(2, -1)], [[a12], [alg.zero()]])
    K = two_term(alg, [(1, 0), (1, 0)], [(2, -1)], [[alg.zero()], [a12]])
    L = two_term(alg, [(1, 0), (1, 0)], [(2, -1)], [[a12], [a12]])
    Z = two_term(alg, [(1, 0), (1, 0)], [(2, -1)], [[alg.zero()], [alg.zero()]])
    for X, Y, want in ((M, K, True), (M, L, True), (M, Z, False), (K, Z, False)):
        assert is_isomorphic(X, Y) is want
        assert is_isomorphic(X, Y, with_certificate=True)[0] is want


def test_minimize_returns_its_own_output_unchanged(alg3):
    rng = seeded(17)
    for M in reference_cases(alg3, rng, 30):
        Mm = minimize(M)
        assert minimize(Mm) is Mm
        assert_literally_equal(Mm, dense_minimize(M))
    # a complex built from the same data is not flagged, and minimizes
    # to an equal copy
    copy = ProjComplex(alg3, Mm.terms, Mm.diffs)
    assert minimize(copy) is not copy and minimize(copy) == Mm


def test_far_letters_return_the_old_construction(monkeypatch):
    # the summands lie on vertices 1 and 2 of the chain of five, so the
    # letters 4 and 5 are far from all of them: no copy of P_4 or P_5 is
    # glued to X, and the result is literally the dense construction's
    alg = make_algebra(5, 2)
    rng = seeded(23)

    def refuse(*args):
        raise AssertionError("a far letter built rows for copies of its projective")

    for _ in range(20):
        src, tgt = [[(rng.randint(1, 2), rng.randint(-2, 2))
                     for _ in range(rng.randint(1, 3))] for _ in "st"]
        M = two_term(alg, src, tgt, [[random_element(alg, rng, v, v2, s - s2)
                                      for v2, s2 in tgt] for v, s in src])
        word = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 3))]
        for X in (M, apply_word(word, M)):
            want = {j: (dense_twist(j, X), dense_untwist(j, X)) for j in (4, 5)}
            with monkeypatch.context() as m:
                m.setattr(sphtwist.twists, "_hom_into", refuse)
                for j in (4, 5):
                    assert_literally_equal(twist(j, X), want[j][0])
                    assert_literally_equal(untwist(j, X), want[j][1])


def test_dense_views_keep_their_shape(alg):
    M = two_term(alg, [(1, 1), (2, 0)], [(2, 0)], [[alg.arrow(1, 2)], [alg.zero()]])
    assert set(M.diffs) == {0}
    assert M.diffs[0][1][0].is_zero() and M.diffs[0][0][0] == alg.arrow(1, 2)
    assert M.mat(0) == [[alg.arrow(1, 2)], [alg.zero()]]
    assert M.mat(5) == []
    C = cone(ChainMap.zero(M, M))  # M[1] + M: degrees -1, 0 and 1
    assert sorted(C.diffs) == [-1, 0]
    assert len(C.diffs[-1]) == 2 and len(C.diffs[-1][0]) == 3
    assert len(C.diffs[0]) == 3 and len(C.diffs[0][0]) == 1
    assert C.diffs[-1][0][0] == -alg.arrow(1, 2)
    assert all(x.is_zero() for row in C.diffs[-1] for x in row[1:])
    f = ChainMap.identity(M)
    assert sorted(f.mats) == [0, 1]
    assert f.mats[0][1][1] == alg.e(2) and f.mats[0][0][1].is_zero()
    H = hom_from_projective(1, M)
    assert set(H.diffs) == {0}
    for m, mat in H.diffs.items():
        assert len(mat) == len(H.basis[m])
        assert all(len(row) == len(H.basis[m + 1]) for row in mat)


def test_dense_views_are_built_once(alg):
    M = apply_word([1, -2], ProjComplex.projective(alg, 1))
    f = ChainMap.identity(M)
    H = hom_from_projective(1, M)
    assert M.diffs is M.diffs and f.mats is f.mats and H.diffs is H.diffs


def test_hot_path_builds_no_dense_view(alg):
    M = apply_word([1, -2] * 3, ProjComplex.projective(alg, 1))
    K = apply_word([1, -2] * 3 + [1, 2, 1, -2, -1, -2], ProjComplex.projective(alg, 1))
    homology_table(M)
    hom_to_projective(M, 2)
    ok, cert = is_isomorphic(M, K, with_certificate=True)
    assert ok and cert.commutes()
    assert not any("diffs" in vars(C) for C in (M, K, cert.source, cert.target))
    assert "mats" not in vars(cert)


def test_constructor_rejects_wrong_shape(alg):
    with pytest.raises(ValueError):
        two_term(alg, [(1, 1)], [(2, 0)], [[alg.arrow(1, 2), alg.zero()]])
    P = ProjComplex.projective(alg, 1)
    with pytest.raises(ValueError):
        ChainMap(P, P, {0: [[alg.e(1)], [alg.e(1)]]})
    # a matrix for a degree with no columns, or with no rows and columns,
    # is checked against the empty shape, not dropped
    with pytest.raises(ValueError, match="wrong shape"):
        ProjComplex(alg, {0: [(1, 0)]}, {0: [[alg.arrow(1, 2)]]})
    with pytest.raises(ValueError, match="wrong shape"):
        ProjComplex(alg, {0: [(1, 0)]}, {2: [[alg.zero()]]})
    with pytest.raises(ValueError, match="wrong shape"):
        ChainMap(P, P, {3: [[alg.e(1)]]})
    assert ProjComplex(alg, {0: [(1, 0)]}, {0: [[]], 3: []}) == P
    assert ChainMap(P, P, {3: []}).mats == ChainMap.zero(P, P).mats
    # dict rows {column: element}, as from_dict builds them: a column out
    # of range, negative or not an int is a wrong shape, not a wrapped index
    terms = {0: [(1, 0)], 1: [(2, -1)]}
    for row in ({1: alg.arrow(1, 2)}, {-1: alg.arrow(1, 2)}, {"0": alg.arrow(1, 2)}):
        with pytest.raises(ValueError, match="wrong shape"):
            ProjComplex(alg, terms, {0: [row]})
    assert ProjComplex(alg, terms, {0: [{0: alg.arrow(1, 2)}]}) == two_term(
        alg, [(1, 0)], [(2, -1)], [[alg.arrow(1, 2)]])


def test_engine_builds_no_algebra_element(monkeypatch):
    # past the constructors every entry is a scalar: twists, hom complexes,
    # minimize, relation checks, comparisons and certificates build no
    # algebra element and invert none
    alg7 = make_algebra(3, 2, char=7)
    alg = make_algebra(2, 2)
    P = ProjComplex.projective(alg, 1)

    def refuse(*args):
        raise AssertionError("the engine built or inverted an algebra element")

    monkeypatch.setattr(AlgebraElement, "__init__", refuse)
    monkeypatch.setattr(ZigzagAlgebra, "invert_local", refuse)
    M = apply_word([1, -2] * 3, P)
    assert M.total_summands() == 13
    assert homology_table(M)[1] and sum(hom_to_projective(M, 2).dims().values())
    assert minimize(cone(ChainMap.identity(M))).is_zero()
    assert verify_relations(alg7).all_passed
    assert not compare_words([1, 2, 1], [2, 1, 2], alg).distinct
    assert compare_words([1, 2, 1], [1, 1, 2], alg).distinct
    ok, cert = is_isomorphic(apply_word([1, 2, 1], M), apply_word([2, 1, 2], M),
                             with_certificate=True)
    assert ok and cert.commutes()


@pytest.mark.parametrize("char", [None, 7])
def test_engine_holds_plain_scalars(monkeypatch, char):
    # every entry the engine stores is an int (a nonzero residue over F_p),
    # or over Q a Fraction left by an uneven division; the dense views
    # still hold the public Fraction or Fp
    built = []
    for cls in (ProjComplex, ChainMap):
        def record(self, *args, _set=cls._set_rows):
            _set(self, *args)
            built.append(self)
        monkeypatch.setattr(cls, "_set_rows", record)
    init = GradedVectorComplex.__init__

    def record_hom(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(GradedVectorComplex, "__init__", record_hom)
    alg = make_algebra(3, 2, char=char)
    rng = seeded(7100 + (char or 0))
    outputs = [apply_word([1, -2] * 3 + [3, -1], ProjComplex.projective(alg, 1))]
    for M in reference_cases(alg, rng, 20):
        for X in (M, cone(ChainMap.identity(M))):
            for i in range(1, 4):
                outputs += [twist(i, X), untwist(i, X), hom_from_projective(i, X),
                            hom_to_projective(X, i)]
            Mm = minimize(X)
            ok, cert = is_isomorphic(X, basis_change(Mm, rng), with_certificate=True)
            assert ok
            outputs.append(cert)
    ints = 0
    for obj in built:
        for mat in obj._rows.values():
            for row in mat:
                for x in row.values():
                    if type(x) is int:
                        assert 0 < x < char if char else x != 0
                        ints += 1
                    else:
                        assert char is None and type(x) is Fraction and x != 0, x
    assert ints > 1000

    public = Fraction if char is None else Fp
    for out in outputs:
        if isinstance(out, GradedVectorComplex):
            views = [out.diffs]
        else:
            mats = out.mats if isinstance(out, ChainMap) else out.diffs
            views = [{t: [[c for x in row for c in x.coeffs.values()]
                          for row in mat] for t, mat in mats.items()}]
            views.append({t: [[c for x in row for c in x.coeffs.values()]
                              for row in out.mat(t)] for t in mats})
        for view in views:
            assert all(type(x) is public
                       for mat in view.values() for row in mat for x in row)

    # a pivot 2 leaves -1/2 of an arrow over Q, and its residue over F_7
    a12 = alg.arrow(1, 2)
    X = two_term(alg, [(1, 0), (1, 0)], [(1, 0), (2, -1)],
                 [[2 * alg.e(1), a12], [alg.e(1), alg.zero()]])
    got = minimize(X)._rows[0][0][0]
    assert type(got) is (Fraction if char is None else int)
    assert got == (Fraction(-1, 2) if char is None else 3)


# ----------------------------------------------------------------------
# scale: the pseudo-Anosov ladder [1,-2]^8


# sha256 of the certificate rows (``certificate_digest``) of [1,-2]^m . P1
# against its rewrite by [-1,-2,-1] then [2,1,2], as the full elimination of
# the chain-map system gave them; m = 7 and 8 are too slow for this suite
LADDER_CERTIFICATES = {
    (None, 4): "709eb839f1a10e560806c385628b047ff758e1ab904d52247b6fd8b79249efdd",
    (None, 5): "2df3b463acd57eadaab8fb7cf621561ef7769a10a061cb87e908954c26fe6555",
    (None, 6): "6a08090ab2e96c468c7789cf234a74b959aa729f19c7c31b3f3d6d053295e12c",
    (7, 4): "ba42431ffd66bbb2ebf81adc25398882e6cbcb2a8053b8b7c7232d110d03a03d",
    (7, 5): "aed1678da7523df19234898170e422ab3665b29c2e76b28ccf528471f4d8fa8a",
    (7, 6): "5f282106784687a79990a43879997fca6131c879f66ff23e3f7d3a9d470d8e48",
}


def certificate_digest(cert):
    """sha256 of a chain map's dict rows: per degree, every (r, c, scalar)."""
    rows = {str(t): [[r, c, str(x)] for r, row in enumerate(mat) for c, x in sorted(row.items())]
            for t, mat in sorted(cert._rows.items())}
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("char", [None, 7], ids=["Q", "F7"])
def test_ladder_certificates_are_pinned(char):
    alg = ZigzagAlgebra((2, 2), char)
    for m in (4, 5, 6):
        M = apply_word([1, -2] * m, ProjComplex.projective(alg, 1))
        K = apply_word([2, 1, 2], apply_word([-1, -2, -1], M))
        ok, cert = is_isomorphic(M, K, with_certificate=True)
        assert ok and certificate_digest(cert) == LADDER_CERTIFICATES[(char, m)]


def test_ladder_m8_is_fast(alg):
    start = time.perf_counter()
    M = apply_word([1, -2] * 8, ProjComplex.projective(alg, 1))
    elapsed = time.perf_counter() - start
    assert M.total_summands() == 1597
    assert elapsed < 0.5


def test_ladder_m8_peak_memory():
    # VmHWM, not ru_maxrss: a child started by fork and exec reports the
    # parent's peak as its ru_maxrss on Linux
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs the Linux VmHWM counter")
    code = (
        "from sphtwist import ProjComplex, ZigzagAlgebra, apply_word\n"
        "alg = ZigzagAlgebra((2, 2))\n"
        "M = apply_word([1, -2] * 8, ProjComplex.projective(alg, 1))\n"
        "assert M.total_summands() == 1597\n"
        "with open('/proc/self/status') as fh:\n"
        "    print([l for l in fh if l.startswith('VmHWM:')][0].split()[1])\n"
    )
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(here), "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         timeout=60, capture_output=True, text=True).stdout
    peak_mb = int(out.split()[-1]) / 1024.0  # VmHWM is in kB
    assert peak_mb < 60
