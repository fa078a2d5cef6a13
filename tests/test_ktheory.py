"""Tests for Euler classes, Burau matrices, lattices and the elliptic action."""

import time
from fractions import Fraction

import pytest

from conftest import make_algebra, random_two_term, random_word, seeded
from sphtwist import (
    IntersectionLattice,
    ProjComplex,
    an_minus2_lattice,
    apply_word,
    build_tdiagram,
    burau_matrix,
    chi_q,
    definiteness,
    elliptic_generator,
    elliptic_word,
    euler_class,
    pl_product,
    pl_reflection,
    strange_duality_rank_check,
    twist,
)
from sphtwist.ktheory import _parse_elliptic_tree, imat_identity, imat_mul
from sphtwist.laurent import (
    LaurentPoly,
    laurent_identity,
    laurent_mat_eq,
    laurent_mat_mul,
    laurent_mat_vec,
)


@pytest.fixture
def alg():
    return make_algebra(2, 2)


# ----------------------------------------------------------------------
# Euler classes


def test_euler_class_of_projective(alg):
    assert euler_class(ProjComplex.projective(alg, 2)) == [
        LaurentPoly.zero(),
        LaurentPoly.one(),
    ]


def test_euler_class_shift_sign(alg):
    M = ProjComplex.projective(alg, 1)
    assert euler_class(M.shift(1, 0)) == [-p for p in euler_class(M)]


def test_euler_class_of_neighbor_twist(alg):
    e = euler_class(twist(1, ProjComplex.projective(alg, 2)))
    assert not e[0].is_zero() and not e[1].is_zero()
    assert e[0] == LaurentPoly.q(1, -1)  # -q from P1<d1> in degree -1


# ----------------------------------------------------------------------
# Burau matrices


def test_burau_inverse_letters(alg):
    prod = laurent_mat_mul(burau_matrix([1], alg), burau_matrix([-1], alg))
    assert laurent_mat_eq(prod, laurent_identity(2))
    prod = laurent_mat_mul(burau_matrix([-1], alg), burau_matrix([1], alg))
    assert laurent_mat_eq(prod, laurent_identity(2))


def test_burau_braid_relation(alg):
    assert laurent_mat_eq(
        burau_matrix([1, 2, 1], alg), burau_matrix([2, 1, 2], alg)
    )


def test_burau_commutation():
    alg3 = make_algebra(3, 2)
    assert laurent_mat_eq(burau_matrix([1, 3], alg3), burau_matrix([3, 1], alg3))


def test_burau_generator_entries(alg):
    B = burau_matrix([1], alg)
    assert B[0][0] == LaurentPoly.q(2, -1)  # 1 - (1 + q^2)
    assert B[0][1] == LaurentPoly.q(1, -1)  # -q
    assert B[1][0] == LaurentPoly.zero()
    assert B[1][1] == LaurentPoly.one()


@pytest.mark.parametrize("n", [2, 3])
def test_burau_functoriality_random(n):
    alg = make_algebra(n, 2)
    rng = seeded(211)
    for _ in range(12):
        w = random_word(alg, rng, max_len=6)
        M = random_two_term(alg, rng)
        lhs = euler_class(apply_word(w, M))
        rhs = laurent_mat_vec(burau_matrix(w, alg), euler_class(M))
        assert lhs == rhs


def _sign_conjugate(mat):
    """Conjugation by diag((-1)^i), matching [P_i] -> (-1)^i root_i."""
    n = len(mat)
    return [
        [(-1) ** (i + j) * mat[i][j] for j in range(n)] for i in range(n)
    ]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_burau_at_q1_is_picard_lefschetz(n):
    alg = make_algebra(n, 2)
    rng = seeded(223)
    words = [[i] for i in range(1, n + 1)] + [
        random_word(alg, rng, max_len=5) for _ in range(6)
    ]
    for w in words:
        B1 = [[p(1) for p in row] for row in burau_matrix(w, alg)]
        assert _sign_conjugate(B1) == pl_product(w, n)


def test_chi_q_values(alg):
    assert chi_q(alg, 1, 1) == LaurentPoly({0: 1, 2: 1})
    assert chi_q(alg, 1, 2) == LaurentPoly.q(1)


# ----------------------------------------------------------------------
# Picard-Lefschetz reflections


def test_reflection_matrix_a2():
    lat = an_minus2_lattice(2)
    assert pl_reflection([1, 0], lat) == [[-1, 1], [0, 1]]


def test_reflection_involution():
    lat = an_minus2_lattice(3)
    for k in range(3):
        v = [1 if i == k else 0 for i in range(3)]
        R = pl_reflection(v, lat)
        assert imat_mul(R, R) == imat_identity(3)


def test_reflection_preserves_form():
    lat = build_tdiagram(2, 3, 5)
    for k in range(lat.rank):
        v = [1 if i == k else 0 for i in range(lat.rank)]
        R = pl_reflection(v, lat)
        form = [list(row) for row in lat.form]
        Rt = [[R[j][i] for j in range(lat.rank)] for i in range(lat.rank)]
        assert imat_mul(Rt, imat_mul(form, R)) == form


def test_reflection_braid_relation_a2():
    r1 = pl_product([1], 2)
    r2 = pl_product([2], 2)
    assert imat_mul(r1, imat_mul(r2, r1)) == imat_mul(r2, imat_mul(r1, r2))


def test_reflection_rejects_wrong_square():
    lat = an_minus2_lattice(2)
    with pytest.raises(ValueError):
        pl_reflection([2, 0], lat)
    with pytest.raises(ValueError):
        pl_reflection([0, 0], lat)


# ----------------------------------------------------------------------
# T-diagram lattices and definiteness


def test_tdiagram_ranks():
    assert build_tdiagram(2, 3, 7).rank == 10
    assert build_tdiagram(2, 3, 5).rank == 8
    assert build_tdiagram(3, 3, 3).rank == 7


def test_tdiagram_rejects_short_arm():
    with pytest.raises(ValueError):
        build_tdiagram(1, 3, 5)


def test_e8_negative_definite():
    report = definiteness(build_tdiagram(2, 3, 5))
    assert report.verdict == "negative_definite"
    assert report.signature == (0, 8, 0)


def test_affine_e6_semidefinite():
    report = definiteness(build_tdiagram(3, 3, 3))
    assert report.verdict == "negative_semidefinite"
    assert report.kernel_rank == 1


def test_t237_indefinite():
    report = definiteness(build_tdiagram(2, 3, 7))
    assert report.verdict == "indefinite"
    assert report.signature == (1, 9, 0)


def test_lattice_rejects_asymmetric():
    with pytest.raises(ValueError):
        IntersectionLattice(((0, 1), (2, 0)))


# independent oracle: characteristic polynomial sign analysis


def _char_poly(form):
    """Coefficients of det(xI - A) by the Faddeev-LeVerrier recursion."""
    n = len(form)
    A = [[Fraction(x) for x in row] for row in form]
    coeffs = [Fraction(1)]
    M = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            M[i][i] += coeffs[-1]
        M = [
            [sum(A[i][t] * M[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(M[i][i] for i in range(n)) / k
        coeffs.append(c)
    return coeffs  # x^n + c1 x^{n-1} + ... + cn


def _signature_from_char_poly(form):
    # symmetric => all roots real; Descartes' rule is exact
    coeffs = _char_poly(form)
    zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zero += 1

    def sign_changes(cs):
        signs = [1 if c > 0 else -1 for c in cs if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    pos = sign_changes(coeffs)
    neg = sign_changes([(-1) ** i * c for i, c in enumerate(coeffs)])
    return (pos, neg, zero)


def test_definiteness_agrees_with_char_poly_oracle():
    for b1 in range(2, 12):
        for b2 in range(b1, 12):
            for b3 in range(b2, 12):
                if b1 + b2 + b3 > 15:
                    continue
                lat = build_tdiagram(b1, b2, b3)
                report = definiteness(lat)
                assert report.signature == _signature_from_char_poly(lat.form)


# ----------------------------------------------------------------------
# strange duality rank bookkeeping


def test_strange_duality_ranks():
    assert strange_duality_rank_check((2, 3, 7), (2, 3, 7))
    assert not strange_duality_rank_check((2, 3, 5), (2, 3, 5))
    # 14 + 10 = 24, so the rank identity does hold here
    assert strange_duality_rank_check((2, 3, 9), (2, 3, 5))
    assert not strange_duality_rank_check((2, 3, 9), (2, 3, 6))


# ----------------------------------------------------------------------
# elliptic-curve shadow


def test_elliptic_generator_matrices():
    assert elliptic_generator("O") == [[1, -1], [0, 1]]
    assert elliptic_generator("Op") == [[1, 0], [1, 1]]
    assert elliptic_generator("L") == [[1, -1], [0, 1]]
    with pytest.raises(ValueError):
        elliptic_generator("X")


def test_elliptic_braid_relation():
    assert elliptic_word("O Op O") == elliptic_word("Op O Op")


def test_elliptic_central_element():
    assert elliptic_word("(O Op)^6") == imat_identity(2)
    assert elliptic_word("(O Op)^3") == [[-1, 0], [0, -1]]


def test_elliptic_translation_shadow():
    assert elliptic_word("L^-1 O") == imat_identity(2)


def test_elliptic_determinants():
    for word in ("O", "Op", "O Op", "(O Op^-1)^2", "L^2 Op"):
        (a, b), (c, d) = elliptic_word(word)
        assert a * d - b * c == 1


def test_elliptic_word_parsing():
    assert _parse_elliptic_tree("O Op") == [("O", 1), ("Op", 1)]
    assert _parse_elliptic_tree("L^-1 O") == [("L", -1), ("O", 1)]
    assert _parse_elliptic_tree("(O Op)^2") == [([("O", 1), ("Op", 1)], 2)]
    assert elliptic_word("(O Op)^2") == elliptic_word("O Op O Op")
    assert _parse_elliptic_tree("(O Op)^-1") == [([("O", 1), ("Op", 1)], -1)]
    assert elliptic_word("(O Op)^-1") == elliptic_word("Op^-1 O^-1")


def test_elliptic_deep_nesting_without_recursion():
    depth = 5000
    tree = _parse_elliptic_tree("(" * depth + "O Op" + ")^-1" * depth)
    for _ in range(depth):
        (tree, k), = tree
        assert k == -1
    assert tree == [("O", 1), ("Op", 1)]
    # an odd number of inversions leaves one inverse
    assert (elliptic_word("(" * depth + "O" + ")^-1" * depth)
            == elliptic_word("O"))
    assert (elliptic_word("(" * (depth + 1) + "O" + ")^-1" * (depth + 1))
            == elliptic_word("O^-1"))


def test_elliptic_huge_exponent_by_squaring():
    assert elliptic_word("O^1000000000") == [[1, -1000000000], [0, 1]]
    assert elliptic_word("Op^-999999999") == [[1, 0], [-999999999, 1]]
    (a, b), (c, d) = elliptic_word("O^12345 Op^-678 L^91011")
    assert a * d - b * c == 1
    assert elliptic_word("O^12345 Op^-678") == imat_mul(
        elliptic_word("Op^-678"), elliptic_word("O^12345"))


@pytest.mark.parametrize("text", ["X", "(O", "O)", "^2", "O @"])
def test_elliptic_word_rejects(text):
    with pytest.raises(ValueError):
        elliptic_word(text)


def test_elliptic_group_power_by_squaring():
    # (O Op) has order 6 and 10^9 = 4 mod 6
    start = time.perf_counter()
    assert elliptic_word("(O Op)^1000000000") == elliptic_word("(O Op)^4")
    assert elliptic_word("((O Op)^-999999999 L)^3") == elliptic_word("((O Op)^3 L)^3")
    assert time.perf_counter() - start < 0.1
