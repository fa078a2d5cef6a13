"""Tests for the chain algebra: basis, grading, products, Frobenius trace."""

import re
import time
from fractions import Fraction
from itertools import product

import pytest

from conftest import make_algebra
from sphtwist import ChainParams, ProjComplex, ZigzagAlgebra
from sphtwist.algebra import key_str
from sphtwist.fields import raw
from sphtwist.linalg import mat_rank


# ----------------------------------------------------------------------
# independent oracle: enumerate quiver paths modulo the relations


def enumerate_basis(n):
    """Brute-force path enumeration on the A_n quiver modulo relations.

    A path is a tuple of arrows (i, j) with |i - j| = 1.  Two-step paths
    that do not return to their start die; round trips become the loop at
    the start, and loops absorb nothing further.  Returns the set of
    surviving normal forms.
    """
    basis = {("e", i) for i in range(1, n + 1)}
    arrows = [(i, i + 1) for i in range(1, n)] + [(i + 1, i) for i in range(1, n)]
    frontier = [((a,), a[0], a[1], False) for a in arrows]
    while frontier:
        path, start, end, is_loop = frontier.pop()
        if is_loop:
            basis.add(("l", start))
            continue  # loops compose to zero with everything
        basis.add(("a", path[0][0], path[-1][1]))
        for a in arrows:
            if a[0] != end:
                continue
            if a[1] == path[-1][0]:  # round trip on the last edge
                if len(path) == 1:
                    frontier.append((path + (a,), start, a[1], True))
                # longer paths ending in a round trip contain a loop
                # followed by an arrow, which is zero
            # two steps in the same direction vanish
    return basis


@pytest.mark.parametrize("n,expected", [(2, 6), (3, 10), (4, 14)])
def test_basis_size_matches_path_enumeration(n, expected):
    # the loop at a lone vertex is not a composite of arrows, so the
    # path-enumeration oracle applies for n >= 2 only
    alg = make_algebra(n, 2)
    assert alg.dimension() == expected
    assert set(alg.basis) == enumerate_basis(n)
    assert alg.dimension() == 4 * n - 2


def test_n1_is_dual_numbers_in_top_degree():
    alg = make_algebra(1, 2)
    assert set(alg.basis) == {("e", 1), ("l", 1)}
    assert alg.deg[("l", 1)] == 2


def test_edge_degrees_n3_N3():
    alg = make_algebra(3, 3, (1, 2))
    assert alg.dimension() == 10
    assert alg.deg[("a", 1, 2)] == 1
    assert alg.deg[("a", 2, 1)] == 2
    assert alg.deg[("a", 2, 3)] == 2
    assert alg.deg[("a", 3, 2)] == 1


def test_parameter_validation():
    with pytest.raises(ValueError):
        ChainParams(0, 2)
    with pytest.raises(ValueError):
        ChainParams(2, 1)
    with pytest.raises(ValueError):
        ChainParams(2, 2, (2,))  # degree outside [1, N-1]
    with pytest.raises(ValueError):
        ChainParams(3, 2, (1,))  # wrong number of edge degrees
    # n, N and each edge degree must be ints, bool refused, with ValueError:
    # no float builds an algebra and no string escapes as TypeError
    for args, message in [
        ((2, 2.5), "spherical dimension must be an integer, got N=2.5"),
        ((2, "3"), "spherical dimension must be an integer, got N='3'"),
        ((2, True), "spherical dimension must be an integer, got N=True"),
        ((2.0, 2), "chain length must be an integer, got n=2.0"),
        ((True, 2), "chain length must be an integer, got n=True"),
        ((None, 2), "chain length must be an integer, got n=None"),
        ((2, 2, (1.0,)), "edge degree 1.0 is not an integer"),
        ((2, 2, (True,)), "edge degree True is not an integer"),
        ((3, 3, [1, "2"]), "edge degree '2' is not an integer"),
        ((2, 2, 1), "edge degrees must be a sequence of integers, got 1"),
    ]:
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            ChainParams(*args)
    # ProjComplex.from_dict builds its algebra through the same checks
    data = ProjComplex.projective(make_algebra(2, 2), 1).to_dict()
    for key, value in [("n", 2.0), ("N", "2"), ("edge_degrees", [1.0]),
                       ("edge_degrees", 1), ("edge_degrees", None)]:
        bad = dict(data, algebra=dict(data["algebra"], **{key: value}))
        with pytest.raises(ValueError, match="integer"):
            ProjComplex.from_dict(bad)
    assert ProjComplex.from_dict(data) == ProjComplex.projective(make_algebra(2, 2), 1)


# ----------------------------------------------------------------------
# products


def test_round_trip_gives_loop():
    alg = make_algebra(2, 2)
    assert alg.arrow(1, 2) * alg.arrow(2, 1) == alg.loop(1)
    assert alg.arrow(2, 1) * alg.arrow(1, 2) == alg.loop(2)


def test_straight_through_vanishes():
    alg = make_algebra(3, 2)
    assert (alg.arrow(1, 2) * alg.arrow(2, 3)).is_zero()
    assert (alg.arrow(3, 2) * alg.arrow(2, 1)).is_zero()


def test_idempotent_identities():
    alg = make_algebra(2, 2)
    a = alg.arrow(1, 2)
    assert alg.e(1) * a == a
    assert a * alg.e(2) == a
    assert (alg.e(2) * a).is_zero()


def test_loops_annihilate():
    alg = make_algebra(2, 2)
    assert (alg.loop(1) * alg.arrow(1, 2)).is_zero()
    assert (alg.arrow(2, 1) * alg.loop(2)).is_zero()
    assert (alg.loop(1) * alg.loop(1)).is_zero()


@pytest.mark.parametrize("char", [None, 7], ids=["Q", "F7"])
def test_cancelled_terms_leave_no_key(char):
    alg = make_algebra(2, 2, char=char)
    e1, a12, l1, a21 = alg.e(1), alg.arrow(1, 2), alg.loop(1), alg.arrow(2, 1)
    x = (e1 + a12) * (l1 - a21)  # e1.l1 = l1 and a12.(-a21) = -l1
    assert x.is_zero() and x.coeffs == {}
    a = e1 + a12.scale(3) + l1
    assert (a + (-a)).is_zero() and (a + (-a)).coeffs == {}
    assert (a - a).coeffs == {}


def test_element_repr_hash_and_zero_scale():
    alg = make_algebra(2, 2)
    x = alg.loop(1).scale(3) + alg.arrow(1, 2).scale(-2) + alg.e(1)
    y = alg.e(1) + alg.arrow(1, 2).scale(-2) + alg.loop(1).scale(3)
    assert repr(x) == repr(y) == "1*e1 + -2*a12 + 3*l1"  # in basis order
    assert repr(alg.zero()) == "0"
    assert x == y and hash(x) == hash(y) and len({x, y, alg.zero()}) == 2
    for z in (x.scale(0), make_algebra(2, 2, char=7).e(1).scale(7)):
        assert z.is_zero() and z.coeffs == {} and repr(z) == "0"


def test_mismatched_algebras_rejected():
    # two objects with equal params and field are one algebra: their
    # elements add and multiply; another field or chain is refused
    a1 = make_algebra(2, 2)
    a2 = make_algebra(2, 2)
    assert a1 is not a2 and a1 == a2 and hash(a1) == hash(a2)
    assert a1.e(1) + a2.arrow(1, 2) == a2.e(1) + a1.arrow(1, 2)
    assert a1.arrow(1, 2) * a2.arrow(2, 1) == a2.loop(1)
    for other in (make_algebra(2, 2, char=7), make_algebra(3, 2)):
        assert a1 != other
        with pytest.raises(ValueError):
            a1.e(1) * other.e(1)
        with pytest.raises(ValueError):
            a1.e(1) + other.e(1)


@pytest.mark.parametrize("n,N", [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (4, 3)])
def test_associativity_exhaustive(n, N):
    alg = make_algebra(n, N)
    elems = [alg.from_key(k) for k in alg.basis]
    for x, y, z in product(elems, repeat=3):
        assert (x * y) * z == x * (y * z)


@pytest.mark.parametrize("n,N", [(2, 2), (3, 3), (4, 2)])
def test_grading_multiplicative(n, N):
    alg = make_algebra(n, N)
    for k1 in alg.basis:
        for k2 in alg.basis:
            prod = alg.from_key(k1) * alg.from_key(k2)
            if not prod.is_zero():
                assert prod.degree() == alg.deg[k1] + alg.deg[k2]


# ----------------------------------------------------------------------
# hom spaces


def test_hom_space_spherical_profile():
    alg = make_algebra(2, 2)
    assert alg.hom_space(1, 1) == {0: 1, 2: 1}
    assert alg.hom_space(1, 2) == {1: 1}


def test_hom_space_distant_vertices_zero():
    alg = make_algebra(3, 2)
    assert alg.hom_space(1, 3) == {}


def test_hom_space_rejects_bad_vertex():
    alg = make_algebra(2, 2)
    with pytest.raises(ValueError):
        alg.hom_space(0, 1)
    with pytest.raises(ValueError):
        alg.hom_space(1, 3)


@pytest.mark.parametrize("n,N", [(1, 2), (2, 2), (3, 2), (4, 3)])
def test_chain_profile(n, N):
    alg = make_algebra(n, N)
    for i in range(1, n + 1):
        assert alg.hom_space(i, i) == {0: 1, N: 1}
        for j in range(1, n + 1):
            total = sum(alg.hom_space(i, j).values())
            if abs(i - j) == 1:
                assert total == 1
            elif i != j:
                assert total == 0


# ----------------------------------------------------------------------
# Frobenius trace


def test_trace_examples():
    alg = make_algebra(2, 2)
    assert alg.trace(alg.loop(1)) == 1
    assert alg.trace(alg.e(1)) == 0
    assert alg.trace(alg.arrow(1, 2)) == 0


@pytest.mark.parametrize("n,N", [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_gram_matrix_nondegenerate(n, N):
    alg = make_algebra(n, N)
    gram = [[raw(x) for x in row] for row in alg.gram_matrix()]
    assert mat_rank(gram, alg.field.char or 0) == len(gram) == alg.dimension()


@pytest.mark.parametrize("n,N", [(2, 2), (3, 3)])
def test_trace_symmetric(n, N):
    alg = make_algebra(n, N)
    for k1 in alg.basis:
        for k2 in alg.basis:
            x, y = alg.from_key(k1), alg.from_key(k2)
            assert alg.trace(x * y) == alg.trace(y * x)


# ----------------------------------------------------------------------
# prime field option


def test_prime_field_profile():
    alg = make_algebra(3, 2, char=5)
    assert alg.dimension() == 10
    assert alg.arrow(1, 2) * alg.arrow(2, 1) == alg.loop(1)
    assert alg.trace(alg.loop(2)) == 1
    gram = [[raw(x) for x in row] for row in alg.gram_matrix()]
    assert mat_rank(gram, 5) == len(gram) == 10
    x = alg.from_key(("e", 1), 3)
    assert (x + x + x + x).coeff(("e", 1)) == 2  # 12 mod 5


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        ZigzagAlgebra(ChainParams(2, 2), char=6)


def test_describe_round_trips_through_json():
    import json

    alg = make_algebra(2, 2)
    data = json.loads(json.dumps(alg.describe()))
    assert data["n"] == 2 and data["N"] == 2
    assert len(data["basis"]) == 6
    assert data["products"]["a12.a21"] == "l1"


def brute_force_table(alg):
    """The product table by the basis x basis loop over composable pairs."""
    table = {}
    for x in alg.basis:
        for y in alg.basis:
            if alg.tgt[x] != alg.src[y]:
                continue
            if x[0] == "e":
                table[(x, y)] = y
            elif y[0] == "e":
                table[(x, y)] = x
            elif x[0] == "a" and y[0] == "a" and y[2] == x[1]:
                table[(x, y)] = ("l", x[1])
    return table


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_product_table_matches_brute_force(n):
    alg = make_algebra(n, 3)
    want = brute_force_table(alg)
    assert alg.table == want
    described = alg.describe()["products"]
    assert described == {
        "%s.%s" % (key_str(x), key_str(y)): key_str(z)
        for (x, y), z in want.items()
    }
    assert list(described) == sorted(described)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert alg.hom_basis(i, j) == tuple(
                k for k in alg.basis if alg.src[k] == i and alg.tgt[k] == j)


def test_large_chain_builds_at_once():
    start = time.perf_counter()
    alg = make_algebra(400, 3)
    assert time.perf_counter() - start < 0.05
    assert len(alg.table) == 9 * 400 - 6
