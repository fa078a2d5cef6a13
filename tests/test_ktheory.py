"""Tests for Euler classes, Burau matrices, lattices and the elliptic action."""

import time
from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from conftest import (
    DenseLattice,
    dense_burau_letter,
    dense_burau_matrix,
    dense_definiteness,
    dense_pl_product,
    dense_pl_reflection,
    dense_tdiagram,
    laurent_identity,
    laurent_mat_mul,
    make_algebra,
    random_two_term,
    random_word,
    seeded,
)
from sphtwist import (
    IntersectionLattice,
    cli,
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
from sphtwist.ktheory import (
    imat_identity,
    imat_mul,
)
from sphtwist.laurent import LaurentPoly, laurent_mat_vec


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
# Laurent polynomials


def test_laurent_cancellation_and_int_operands():
    q, one = LaurentPoly.q(), LaurentPoly.one()
    p = (q + 1) * (q - 1)
    assert p.coeffs == {2: 1, 0: -1} and 1 not in p.coeffs
    assert (p - p).coeffs == {} and p == q * q - 1
    assert 1 - q == LaurentPoly({0: 1, 1: -1}) and (1 - one).coeffs == {}
    assert one * 3 == 3 and 3 * one == LaurentPoly({0: 3}) and q != 1
    assert hash(q * q - 1) == hash(p) and len({p, q * q - 1, q}) == 2
    with pytest.raises(TypeError, match="cannot coerce"):
        q + 0.5


# ----------------------------------------------------------------------
# Burau matrices


def test_burau_inverse_letters(alg):
    prod = laurent_mat_mul(burau_matrix([1], alg), burau_matrix([-1], alg))
    assert prod == laurent_identity(2)
    prod = laurent_mat_mul(burau_matrix([-1], alg), burau_matrix([1], alg))
    assert prod == laurent_identity(2)


def test_burau_braid_relation(alg):
    assert burau_matrix([1, 2, 1], alg) == burau_matrix([2, 1, 2], alg)


def test_burau_commutation():
    alg3 = make_algebra(3, 2)
    assert burau_matrix([1, 3], alg3) == burau_matrix([3, 1], alg3)


def test_burau_generator_entries(alg):
    B = burau_matrix([1], alg)
    assert B[0][0] == LaurentPoly.q(2, -1)  # 1 - (1 + q^2)
    assert B[0][1] == LaurentPoly.q(1, -1)  # -q
    assert B[1][0] == LaurentPoly.zero()
    assert B[1][1] == LaurentPoly.one()


@pytest.mark.parametrize("n", [2, 3])
def test_burau_functoriality_random(n):
    # at N = 2 with degree 1 both arrows of an edge have degree 1, so the
    # seeded chains at N = 3..5 have every edge degree d != N - d: there a
    # twist's entry q^(deg a_ij) tells a_ij from a_ji
    rng, chains = seeded(211), seeded(212)
    algebras = [make_algebra(n, 2)] + [
        make_algebra(n, N, [chains.choice([d for d in range(1, N) if 2 * d != N])
                            for _ in range(n - 1)])
        for N in (3, 4, 5)]
    for alg in algebras:
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


def _coeffs(mat):
    return [[p.coeffs for p in row] for row in mat]


def _seeded_chain(rng, n):
    N = rng.randint(2, 4)
    degrees = [rng.randint(1, N - 1) for _ in range(n - 1)]
    return make_algebra(n, N, degrees)


def _edge_words(rng, n):
    """Words at the edges of burau_matrix's row layout: the empty word,
    runs of one letter, inverse-heavy words (a neighbour row reaches below
    the updated row's lowest exponent, so its lists are padded at the
    front) and words whose cancellation leaves zeros at a list's ends."""
    inverse_heavy = [(1 if rng.random() < 0.1 else -1) * rng.randint(1, n)
                     for _ in range(40)]
    words = [[], [1] * 7, [-n] * 7, inverse_heavy,
             [-g for g in range(n, 0, -1)] * 3, [1, -1] * 3, [n, -n, -n, n]]
    if n > 1:
        words += [[1, 2, 1, -2, -1, -2], [2, 1, 2, -1, -2, -1] * 2,
                  [1, 2, -1, -2, 2, 1, -2, -1]]
    return words


@pytest.mark.parametrize("n", range(1, 9))
def test_burau_matrix_equals_dense_reference(n):
    rng = seeded(700 + n)
    cases = []
    for k in range(6):
        alg = make_algebra(n, 2) if k < 3 else _seeded_chain(rng, n)
        length = 60 if k == 0 else rng.randint(0, 60)
        cases.append((alg, [rng.choice([1, -1]) * rng.randint(1, n)
                            for _ in range(length)]))
    for alg in (make_algebra(n, 2), _seeded_chain(rng, n)):
        cases += [(alg, w) for w in _edge_words(rng, n)]
    for alg, w in cases:
        got = burau_matrix(w, alg)
        assert all(isinstance(p, LaurentPoly) for row in got for p in row)
        assert _coeffs(got) == _coeffs(dense_burau_matrix(w, alg))
        for g in range(1, n + 1):
            for letter in (g, -g):
                assert (_coeffs(burau_matrix([letter], alg))
                        == _coeffs(dense_burau_letter(letter, alg)))


@pytest.mark.parametrize("word", [[0], [3], [1, -3]])
def test_burau_rejects_letters_out_of_range(alg, word):
    with pytest.raises(ValueError):
        burau_matrix(word, alg)


_ALGEBRAS = {n: make_algebra(n, 2) for n in range(2, 6)}
PROPS = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def braid_words(draw, max_len=16):
    n = draw(st.integers(2, 5))
    letter = st.integers(1, n).flatmap(lambda g: st.sampled_from([g, -g]))
    return n, draw(st.lists(letter, max_size=max_len))


@st.composite
def relators(draw, n):
    """A word equal to the identity: a braid or far-commutation relator."""
    i = draw(st.integers(1, n))
    j = draw(st.integers(1, n).filter(lambda j: j != i))
    if abs(i - j) == 1:
        word = [i, j, i, -j, -i, -j]
    else:
        word = [i, j, -i, -j]
    if draw(st.booleans()):
        word = [-g for g in reversed(word)]
    return word


@PROPS
@given(braid_words())
def test_burau_word_times_inverse_is_identity(nw):
    n, w = nw
    alg = _ALGEBRAS[n]
    inverse = [-g for g in reversed(w)]
    prod = laurent_mat_mul(burau_matrix(w, alg), burau_matrix(inverse, alg))
    assert prod == laurent_identity(n)


@PROPS
@given(braid_words(), st.data())
def test_burau_inserting_a_relator_changes_nothing(nw, data):
    n, w = nw
    alg = _ALGEBRAS[n]
    pos = data.draw(st.integers(0, len(w)))
    rel = data.draw(relators(n))
    assert _coeffs(burau_matrix(w[:pos] + rel + w[pos:], alg)) == _coeffs(
        burau_matrix(w, alg))


@PROPS
@given(braid_words(max_len=24))
def test_burau_at_q1_is_picard_lefschetz_random(nw):
    n, w = nw
    B1 = [[p(1) for p in row] for row in burau_matrix(w, _ALGEBRAS[n])]
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


@pytest.mark.parametrize("n", range(2, 9))
def test_pl_product_equals_dense_reference(n):
    rng = seeded(730 + n)
    for _ in range(10):
        w = [rng.choice([1, -1]) * rng.randint(1, n)
             for _ in range(rng.randint(0, 60))]
        assert pl_product(w, n) == dense_pl_product(w, n)
    with pytest.raises(ValueError):
        pl_product([n + 1], n)


def _root(lattice, rng, steps):
    """A seeded -2-vector: a basis vector moved by nodal reflections, each
    in a node that pairs nontrivially with it."""
    r = lattice.rank
    x = [0] * r
    x[rng.randrange(r)] = 1
    for _ in range(steps):
        w = [sum(a * b for a, b in zip(row, x)) for row in lattice.form]
        i = rng.choice([k for k in range(r) if w[k]])
        x[i] += w[i]
    return x


def test_pl_reflection_equals_dense_reference():
    lat = build_tdiagram(19, 15, 11)
    dense = DenseLattice(dense_tdiagram(19, 15, 11))
    r = lat.rank
    vectors = [[1 if k == j else 0 for k in range(r)] for j in range(r)]
    rng = seeded(743)
    vectors += [_root(lat, rng, rng.randint(20, 200)) for _ in range(12)]
    assert any(max(map(abs, v)) > 2 for v in vectors)
    for v in vectors:
        assert lat.pairing(v, v) == -2
        assert pl_reflection(v, lat) == dense_pl_reflection(v, dense)
    bad = [2 * x for x in vectors[-1]]  # square -8
    with pytest.raises(ValueError) as got:
        pl_reflection(bad, lat)
    with pytest.raises(ValueError) as want:
        dense_pl_reflection(bad, dense)
    assert str(got.value) == str(want.value)


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


def _seeded_form(rng, kind, r):
    """A symmetric integer form of rank r; kind picks its shape."""
    form = [[0] * r for _ in range(r)]
    if kind == "gram":  # -G^T G: negative semidefinite, singular when k < r
        k = rng.randint(1, r + 1)
        G = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(k)]
        for i in range(r):
            for j in range(r):
                form[i][j] = -sum(row[i] * row[j] for row in G)
        return form
    density = rng.choice([0.2, 0.5, 0.9])
    for i in range(r):
        for j in range(i, r):
            if rng.random() < density:
                form[i][j] = form[j][i] = rng.randint(-3, 3)
    if kind == "hyperbolic":
        for i in range(r):
            form[i][i] = 0
    elif kind == "root":  # -2 on the diagonal, like the T-diagrams
        for i in range(r):
            form[i][i] = -2
    return form


def test_definiteness_equals_dense_reference():
    rng = seeded(757)
    verdicts = set()
    kinds = ["gram", "hyperbolic", "root", "random"]
    for case in range(200):
        r = rng.randint(1, 12)
        form = _seeded_form(rng, kinds[case % 4], r)
        lat = IntersectionLattice(form)
        report = definiteness(lat)
        assert report == dense_definiteness(lat)
        verdicts.add(report.verdict)
    assert verdicts == {"negative_definite", "negative_semidefinite", "indefinite"}


def test_definiteness_hyperbolic_branch():
    # zero diagonal everywhere: every pivot comes from e_i -> e_i + e_j
    form = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]]
    report = definiteness(IntersectionLattice(form))
    assert report.signature == (2, 2, 0)
    assert report == dense_definiteness(IntersectionLattice(form))
    assert definiteness(IntersectionLattice(((0, 0), (0, 0)))).signature == (0, 0, 2)


def test_definiteness_large_tdiagram_is_sparse_and_fast():
    start = time.perf_counter()
    report = definiteness(build_tdiagram(400, 2, 2))  # D_402
    assert report.signature == (0, 402, 0)
    assert time.perf_counter() - start < 1.0


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


# sparse rows: the public constructor, the dense view and the pivot order


CONSTRUCTOR_INPUTS = [
    5, "ab", None, {"a": 1}, [1, 2], [[1, 2], 3], ([0], "0"),
    [[-2.5, 1], [1, -2]], [[True, 1], [1, -2]], [["-2", 1], [1, -2]],
    [[1.5], [1, 2]], [[1, 2], [2]], [[1], [2, 3]], [[]], [[1, 2], [2, 1, 0]],
    [[0, 1], [2, 0]], [[0, 0], [1, 0]], [[1, 0, 2], [0, 1, 0], [0, 0, 1]],
    [], (), [[0]], [[5]], [[-2, 1], [1, -2]], ((1, 2), (2, -1)),
    [(0, 3), [3, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    dense_tdiagram(2, 2, 2),
]


@pytest.mark.parametrize("form", CONSTRUCTOR_INPUTS, ids=repr)
def test_lattice_constructor_matches_dense_reference(form):
    """The constructor accepts and refuses what the dense one did, with the
    same message, and an accepted lattice reads as the dense one."""
    try:
        want = DenseLattice(form)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            IntersectionLattice(form)
        assert str(got.value) == str(e)
        return
    lat = IntersectionLattice(form)
    assert lat.form == want.form and lat.rank == want.rank
    assert lat.to_dict() == want.to_dict()
    assert repr(lat) == "IntersectionLattice(form=%r)" % (want.form,)
    rng = seeded(767)
    r = lat.rank
    vectors = [[1 if k == j else 0 for k in range(r)] for j in range(r)]
    vectors += [[rng.randint(-3, 3) for _ in range(r)] for _ in range(4)]
    for x in vectors:
        for y in vectors:
            assert lat.pairing(x, y) == want.pairing(x, y)


def test_lattice_equality_and_hash_follow_the_form():
    rng = seeded(769)
    forms = [_seeded_form(rng, kind, rng.randint(1, 8))
             for kind in ("gram", "hyperbolic", "root", "random") for _ in range(10)]
    forms += [dense_tdiagram(2, 3, 5), dense_tdiagram(3, 3, 3), [[0] * 8] * 8]
    for a in forms:
        for b in forms:
            x, y = IntersectionLattice(a), IntersectionLattice(b)
            assert (x == y) == (DenseLattice(a) == DenseLattice(b))
            if x == y:
                assert hash(x) == hash(y)
    for t in [(2, 3, 5), (3, 3, 3), (7, 2, 4)]:
        built, parsed = build_tdiagram(*t), IntersectionLattice(dense_tdiagram(*t))
        assert built == parsed and hash(built) == hash(parsed)
        assert built.form == parsed.form == DenseLattice(dense_tdiagram(*t)).form
    A = an_minus2_lattice(5)
    assert A == IntersectionLattice(A.form) and hash(A) == hash(IntersectionLattice(A.form))
    assert len({build_tdiagram(2, 3, 5), IntersectionLattice(dense_tdiagram(2, 3, 5)),
                an_minus2_lattice(8)}) == 2
    assert A != A.form and A != DenseLattice(A.form)


def test_dense_form_is_built_once():
    for L in (an_minus2_lattice(4), IntersectionLattice([[-2, 1], [1, -2]])):
        assert "form" not in vars(L)
        assert L.form is L.form and L.form[0][:2] == (-2, 1)


def test_sparse_paths_never_build_the_dense_form(monkeypatch, capsys):
    """Building the lattices, definiteness, reflections, Picard-Lefschetz
    products and text-mode ``lattice --t`` read the rows only."""
    t = (55, 35, 2)
    want_t = dense_definiteness(DenseLattice(dense_tdiagram(*t)))
    rng = seeded(773)
    word = [rng.choice([1, -1]) * rng.randint(1, 8) for _ in range(200)]
    want_pl = dense_pl_product(word, 8)
    e = [[1 if k == j else 0 for k in range(8)] for j in range(8)]
    want_refl = [dense_pl_reflection(v, DenseLattice(dense_tdiagram(2, 3, 5))) for v in e]

    def no_dense_form(self):
        raise AssertionError("the dense form was built")

    monkeypatch.setattr(IntersectionLattice, "form", property(no_dense_form))
    assert definiteness(build_tdiagram(*t)) == want_t
    assert definiteness(an_minus2_lattice(100)).signature == (0, 100, 0)
    assert pl_product(word, 8) == want_pl
    assert [pl_reflection(v, build_tdiagram(2, 3, 5)) for v in e] == want_refl
    assert strange_duality_rank_check((2, 3, 7), (2, 3, 7))
    start = time.perf_counter()
    assert cli.main(["lattice", "--t", "3160,2,2"]) == 0
    assert time.perf_counter() - start < 1.0  # about 2 s with the dense form
    out = capsys.readouterr().out
    assert out == ("rank: 3162\ndefiniteness: negative_definite\n"
                   "signature (pos, neg, zero): (0, 3162, 0)\n")
    assert len(out.encode()) == 84
    assert cli.main(["lattice", "--t", "2,3,5", "--reflections"]) == 0
    assert "reflection in node 8: %s" % (want_refl[7],) in capsys.readouterr().out


def _sparse_form(rng, kind, r):
    """A seeded symmetric form of rank r on a sparse graph.

    The graph is a forest.  Its first tree holds index 0 and every other
    node joins it by a random earlier node, the centre 0 with probability
    one half, so index 0 has many neighbours and is eliminated last in
    minimum-degree order; the other trees, on the remaining indices in a
    seeded order, make disconnected blocks, and a few isolated nodes
    add zero rows.  For kind "cycles" some extra edges close cycles.
    Edge weights are seeded nonzero integers; the diagonal is -2
    ("root"), zero everywhere ("hyperbolic"), or seeded in -3..3.  Kind
    "laplacian" is minus a weighted graph Laplacian instead: positive edge
    weights and each diagonal minus the sum of its row's weights, negative
    semidefinite with one kernel vector per block.
    """
    form = [[0] * r for _ in range(r)]
    rest = list(range(1, r))
    rng.shuffle(rest)
    blocks = [[0]]
    for v in rest:
        if rng.random() < 0.1:
            blocks.append([v])
        elif rng.random() < 0.05 and len(blocks[0]) > 1:
            blocks.append([v])  # isolated unless a later node joins it
        else:
            blocks[-1 if len(blocks) > 1 and rng.random() < 0.5 else 0].append(v)
    edges = []
    for block in blocks:
        for k, v in enumerate(block[1:], 1):
            u = block[0] if rng.random() < 0.5 else block[rng.randrange(k)]
            edges.append((u, v))
    if kind == "cycles":
        for _ in range(r // 6):
            u, v = rng.randrange(r), rng.randrange(r)
            if u != v:
                edges.append((u, v))
    weights = [1, 1, 2] if kind == "laplacian" else [-2, -1, 1, 1, 1, 2]
    for u, v in edges:
        form[u][v] = form[v][u] = rng.choice(weights)
    for i in range(r):
        if kind == "laplacian":
            form[i][i] = -sum(form[i])
        elif kind == "root":
            form[i][i] = -2
        elif kind != "hyperbolic":
            form[i][i] = rng.choice([-3, -2, -2, -1, 0, 1, 2])
    return form


def _first_pivots(lat):
    """The first pivot of ``definiteness`` and of the index-order rule, or
    None when no diagonal is nonzero."""
    rows = lat._rows
    diag = [i for i, row in enumerate(rows) if i in row]
    if not diag:
        return None
    return min(diag, key=lambda i: (len(rows[i]), i)), diag[0]


def test_sparse_definiteness_equals_dense_reference():
    """Minimum-degree pivots give the report of index-order pivots, on
    trees and forests centred at index 0, zero diagonals and cycles, up
    to rank 60; up to rank 15 the char-poly oracle agrees too."""
    rng = seeded(787)
    kinds = ["root", "mixed", "hyperbolic", "cycles", "laplacian"]
    verdicts = set()
    reordered = oracle = 0
    for case in range(100):
        kind = kinds[case % 5]
        r = rng.randint(16, 60) if case % 4 == 0 else rng.randint(1, 15)
        form = _sparse_form(rng, kind, r)
        lat = IntersectionLattice(form)
        report = definiteness(lat)
        assert report == dense_definiteness(DenseLattice(form)), (kind, form)
        if r <= 15 and case % 3 == 0:  # the oracle costs O(r^4) Fractions
            assert report.signature == _signature_from_char_poly(form), (kind, form)
            oracle += 1
        pivots = _first_pivots(lat)
        reordered += pivots is not None and pivots[0] != pivots[1]
        verdicts.add(report.verdict)
    assert verdicts == {"negative_definite", "negative_semidefinite", "indefinite"}
    assert oracle >= 20 and reordered >= 60


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
    O, Op = elliptic_generator("O"), elliptic_generator("Op")
    assert elliptic_word("O Op") == imat_mul(Op, O)
    assert elliptic_word("L^-1") == [[1, 1], [0, 1]]
    assert elliptic_word("L^-1 O") == imat_mul(O, [[1, 1], [0, 1]])
    assert elliptic_word("(O Op)^2") == imat_mul(imat_mul(Op, O), imat_mul(Op, O))
    assert elliptic_word("(O Op)^2") == elliptic_word("O Op O Op")
    assert imat_mul(elliptic_word("(O Op)^-1"), imat_mul(Op, O)) == imat_identity(2)
    assert elliptic_word("(O Op)^-1") == elliptic_word("Op^-1 O^-1")


def test_elliptic_deep_nesting_without_recursion():
    depth = 5000
    assert (elliptic_word("(" * depth + "O Op" + ")^-1" * depth)
            == elliptic_word("O Op"))
    assert (elliptic_word("(" * depth + "O Op" + ")" * depth)
            == elliptic_word("O Op"))
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
