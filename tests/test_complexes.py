"""Tests for complexes: shifts, cones, minimization, homs, isomorphism, JSON."""

import json

import pytest

from conftest import make_algebra, random_two_term, reversed_summands, seeded
from sphtwist import (
    ChainMap,
    ProjComplex,
    cone,
    euler_class,
    hom_from_projective,
    hom_to_projective,
    homology_table,
    is_isomorphic,
    is_minimal,
    minimize,
)


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
    assert hom.total_dim() == 1


def test_hom_from_projective_distant(alg3):
    P3 = ProjComplex.projective(alg3, 3)
    assert hom_from_projective(1, P3).total_dim() == 0


def test_hom_to_projective_spherical(alg):
    P1 = ProjComplex.projective(alg, 1)
    hom = hom_to_projective(P1, 1)
    assert hom.dims() == {(0, 0): 1, (0, 2): 1}


def test_hom_to_projective_neighbor(alg):
    P2 = ProjComplex.projective(alg, 2)
    assert hom_to_projective(P2, 1).total_dim() == 1


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
