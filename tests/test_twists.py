"""Tests for the twist functors, word evaluation and the distinguisher."""

import copy
import inspect

import pytest

from conftest import make_algebra, random_two_term, random_word, seeded
from sphtwist import (
    ChainMap,
    ProjComplex,
    apply_word,
    compare_words,
    complexes,
    cone,
    hom_matrix,
    is_isomorphic,
    is_minimal,
    minimize,
    parse_braid_word,
    twist,
    twists,
    untwist,
    verify_relations,
)


@pytest.fixture
def alg():
    return make_algebra(2, 2)


@pytest.fixture
def alg3():
    return make_algebra(3, 2)


# ----------------------------------------------------------------------
# the twist on generators


@pytest.mark.parametrize("n,N", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_twist_of_own_projective_is_single_shifted_copy(n, N):
    alg = make_algebra(n, N)
    for i in range(1, n + 1):
        T = twist(i, ProjComplex.projective(alg, i))
        assert T.total_summands() == 1
        (t,) = T.degrees()
        ((v, s),) = T.summands(t)
        assert v == i


def test_twist_own_projective_matches_raw_cone_oracle(alg):
    # oracle: the unminimized cone of (e_1, l_1): P1 (+) P1<N> -> P1,
    # reduced by hand through the generic minimizer
    N = alg.params.N
    src = ProjComplex(alg, {0: [(1, 0), (1, N)]})
    tgt = ProjComplex.projective(alg, 1)
    ev = ChainMap(src, tgt, {0: [[alg.e(1)], [alg.loop(1)]]})
    oracle = minimize(cone(ev))
    assert oracle == twist(1, ProjComplex.projective(alg, 1))
    assert oracle.summands(-1) == ((1, N),)


def test_twist_neighbor_is_two_term_evaluation_cone(alg):
    T = twist(1, ProjComplex.projective(alg, 2))
    d1 = alg.params.edge_degrees[0]
    assert T.summands(-1) == ((1, d1),)
    assert T.summands(0) == ((2, 0),)
    assert T.diffs[-1][0][0] == alg.arrow(1, 2)


def test_twist_distant_projective_unchanged(alg3):
    P3 = ProjComplex.projective(alg3, 3)
    assert twist(1, P3) == P3


def test_twist_zero_complex(alg):
    Z = ProjComplex.zero(alg)
    assert twist(1, Z).is_zero()
    assert untwist(1, Z).is_zero()


def test_twist_rejects_bad_generator(alg):
    P = ProjComplex.projective(alg, 1)
    with pytest.raises(ValueError):
        twist(3, P)
    with pytest.raises(ValueError):
        untwist(0, P)


# ----------------------------------------------------------------------
# the inverse twist


def test_untwist_undoes_twist_on_neighbor_exactly(alg):
    P2 = ProjComplex.projective(alg, 2)
    assert untwist(1, twist(1, P2)) == P2


def test_untwist_own_projective_inverse_shift(alg):
    P1 = ProjComplex.projective(alg, 1)
    T = twist(1, P1)
    U = untwist(1, P1)
    # bigrading shifts of T and U are opposite
    (t1,) = T.degrees()
    (t2,) = U.degrees()
    assert t1 == -t2
    assert T.summands(t1)[0][1] == -U.summands(t2)[0][1]
    assert twist(1, U) == P1
    assert untwist(1, T) == P1


@pytest.mark.parametrize("n,N", [(2, 2), (2, 3), (3, 2)])
def test_inverse_relation_on_random_complexes(n, N):
    alg = make_algebra(n, N)
    rng = seeded(101)
    for _ in range(6):
        M = random_two_term(alg, rng)
        for i in range(1, n + 1):
            assert is_isomorphic(apply_word([i, -i], M), M)
            assert is_isomorphic(apply_word([-i, i], M), M)


# ----------------------------------------------------------------------
# words and relations


def test_apply_word_inverse_pair(alg):
    P2 = ProjComplex.projective(alg, 2)
    assert is_isomorphic(apply_word([1, -1], P2), P2)


def test_braid_relation_on_objects(alg):
    for k in (1, 2):
        P = ProjComplex.projective(alg, k)
        assert is_isomorphic(apply_word([1, 2, 1], P), apply_word([2, 1, 2], P))


def test_commutation_on_objects(alg3):
    for k in (1, 2, 3):
        P = ProjComplex.projective(alg3, k)
        assert is_isomorphic(apply_word([1, 3], P), apply_word([3, 1], P))


@pytest.mark.parametrize("n,N", [(2, 2), (4, 2), (2, 3)])
def test_verify_relations(n, N):
    report = verify_relations(make_algebra(n, N))
    assert report.all_passed
    assert not report.failures()


def test_relation_report_serializes(alg):
    data = verify_relations(alg).to_dict()
    assert data["all_passed"] is True
    assert all(c["passed"] for c in data["checks"])


def relation_order(n, objects):
    """(relation, object) in the order the report lists them."""
    out = []
    for i in range(1, n + 1):
        for k in objects:
            out += [("T%d T'%d = id" % (i, i), k), ("T'%d T%d = id" % (i, i), k)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in objects:
                if j == i + 1:
                    out.append(("T%d T%d T%d = T%d T%d T%d" % (i, j, i, j, i, j), k))
                else:
                    out.append(("T%d T%d = T%d T%d" % (i, j, j, i), k))
    return out


@pytest.mark.parametrize("n,N,degrees,char", [
    (2, 2, None, None), (3, 2, None, None), (4, 2, None, None),
    (5, 2, None, None), (6, 2, None, None), (3, 3, None, None),
    (3, 3, (1, 2), None), (4, 2, None, 7),
])
def test_verify_relations_needs_no_chain_map_solve(monkeypatch, n, N, degrees, char):
    # every relation pair is literally equal up to the order of summands
    def refuse(*args):
        raise AssertionError("the chain-map system was built")

    monkeypatch.setattr(complexes, "_chain_maps", refuse)
    report = verify_relations(make_algebra(n, N, degrees, char))
    assert report.all_passed
    assert [(c.relation, c.object_vertex) for c in report.checks] == \
        relation_order(n, range(1, n + 1))


def test_verify_relations_on_some_objects(alg3):
    report = verify_relations(alg3, objects=[3, 1])
    assert report.all_passed
    assert [(c.relation, c.object_vertex) for c in report.checks] == \
        relation_order(3, [3, 1])


def test_verify_relations_applies_each_prefix_once(monkeypatch):
    # RHom(P_i, P_k) = 0 for |i - k| > 1, so on P_k only the groups with a
    # letter within distance 1 of k are evaluated, each prefix of their
    # words once; count_letters copies every output, so no two words share
    # an image here
    n = 6
    calls = count_letters(monkeypatch)
    assert verify_relations(make_algebra(n, 2)).all_passed
    groups = [[(i, -i), (-i, i)] for i in range(1, n + 1)]
    groups += [[(i, j, i), (j, i, j)] if j == i + 1 else [(i, j), (j, i)]
               for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    want = sorted({(k, p) for k in range(1, n + 1) for words in groups
                   if any(abs(abs(g) - k) <= 1 for w in words for g in w)
                   for p in prefixes(*words)})
    assert applied_prefixes(calls) == want
    assert len(want) == 252  # against 384 for every group on every P_k


def test_verify_relations_applies_each_letter_once_per_image(monkeypatch):
    # a letter with no vector returns its input, so T_j T_i . P_k is the
    # object T_i . P_k when j is far from i and k, and the letters after
    # it are applied to that object once, whatever word reached it
    calls = []
    real = twists.apply_letter

    def record(g, M):
        out = real(g, M)
        calls.append((M, g, out))  # keeps M alive, so its id is not reused
        return out

    monkeypatch.setattr(twists, "apply_letter", record)
    assert verify_relations(make_algebra(6, 2)).all_passed
    keys = [(id(M), g) for M, g, _out in calls]
    assert len(set(keys)) == len(keys) == 192  # against 252 prefixes
    for M, g, out in calls:
        far = all(abs(v - abs(g)) > 1 for row in M.terms.values() for v, _s in row)
        assert (out is M) == far


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("char", [None, 7])
def test_letters_with_no_vector_return_their_input(n, N, char):
    # a minimal image with no summand within distance 1 of i has no vector
    # of RHom(P_i, M): twist and untwist at i return M itself, and so does
    # minimize on a projective, which has no differential
    alg = make_algebra(n, N, char=char)
    rng = seeded(1000 * n + 100 * N + (char or 0))
    checked = grown = 0
    for _ in range(12):
        j = rng.randint(1, n)
        P = ProjComplex.projective(alg, j, rng.randint(-2, 2), rng.randint(-1, 1))
        assert minimize(P) is P
        # letters next to j keep the image's summands near j
        near = range(max(1, j - 1), min(n, j + 1) + 1)
        M = apply_word([rng.choice(near) * rng.choice([1, -1])
                        for _ in range(rng.randint(0, 4))], P)
        vertices = {v for row in M.terms.values() for v, _s in row}
        for i in range(1, n + 1):
            if all(abs(v - i) > 1 for v in vertices):
                assert not complexes._hom_vectors(i, M)[0]
                assert twist(i, M) is M and untwist(i, M) is M
                checked += 1
                grown += M.total_summands() > 1
    # at n = 2 no letter is far from anything; from n = 4 on some image
    # with a far letter is not a projective
    assert (checked or n == 2) and (grown or n < 4)


def test_far_letters_build_no_hom_basis(monkeypatch):
    # a letter with no summand of M within distance 1 of i returns M
    # before the vectors of RHom(P_i, M) are enumerated, and an
    # out-of-range letter still raises
    def refuse(*args):
        raise AssertionError("_hom_vectors called on a far letter")

    alg = make_algebra(5, 2)
    M = apply_word([1, -2, 1], ProjComplex.projective(alg, 1))
    monkeypatch.setattr(twists, "_hom_vectors", refuse)
    for i in (4, 5):
        assert twist(i, M) is M and untwist(i, M) is M
    for i in (0, 6, True, 1.0):
        with pytest.raises(ValueError):
            twist(i, M)
        with pytest.raises(ValueError):
            untwist(i, M)
    with pytest.raises(AssertionError):
        twist(3, M)


def test_twists_build_one_hom_direction(monkeypatch):
    # both generators enumerate the vectors of RHom(P_i, M) through the
    # shared helper, twists in hom_basis order and untwists in descending
    # degree; no helper has a mode that enumerates RHom(M, P_i)
    assert list(inspect.signature(complexes._hom_vectors).parameters) == [
        "i", "M", "descending"]
    assert "dual" not in inspect.signature(complexes._hom_into).parameters
    calls = []
    build = complexes._hom_vectors

    def record(i, M, descending=False):
        calls.append(descending)
        return build(i, M, descending)

    for module in (complexes, twists):
        monkeypatch.setattr(module, "_hom_vectors", record)
    alg = make_algebra(2, 3)
    M = apply_word([-1, 2, -2, -1, 1], ProjComplex.projective(alg, 1))
    assert calls == [True, False, True, True, False]
    for i in (1, 2):
        calls.clear()
        twist(i, M)
        assert calls == [False]
        calls.clear()
        untwist(i, M)
        assert calls == [True]
    calls.clear()
    assert apply_word([1, -2] * 3, M).total_summands() > 1
    assert calls == [False, True] * 3
    calls.clear()
    assert verify_relations(make_algebra(3, 2)).all_passed
    assert set(calls) == {False, True}


def test_twists_write_their_cones_in_place(monkeypatch):
    # no twist glues its cone: of a minimal input, the twist reduces the
    # cone before its layout and hands nothing to cone or minimize; any
    # other input gets the same layout, handed to minimize once to be
    # reduced in place; the untwist's _hom_into writes -d_H into the row
    # lists of the cone that it returns or hands to minimize, past M's rows
    assert list(inspect.signature(complexes._hom_into).parameters) == [
        "M", "index", "rows", "neg"]
    assert not hasattr(complexes, "_glue")
    written, reduced = [], []
    hom_into, reduce = complexes._hom_into, twists.minimize

    def record_rows(M, index, rows, neg=False):
        hom_into(M, index, rows, neg)
        written.append(rows)

    def record_minimize(M):
        reduced.append(M)
        return reduce(M)

    def refuse(f):
        raise AssertionError("a twist built its cone through cone()")

    monkeypatch.setattr(twists, "_hom_into", record_rows)
    monkeypatch.setattr(twists, "minimize", record_minimize)
    monkeypatch.setattr(complexes, "cone", refuse)
    alg = make_algebra(3, 2)
    held = 0
    for M in (apply_word([1, -2], ProjComplex.projective(alg, 1)),
              apply_word([2, -1, -3, 2], ProjComplex.projective(alg, 2))):
        same = ProjComplex._from_rows(alg, M.terms, {
            t: [dict(row) for row in mat] for t, mat in M._rows.items()})
        for i in (1, 2, 3):
            written.clear()
            reduced.clear()
            X = twist(i, M)
            assert len(written) == 1 and reduced == []
            assert X._minimal and is_minimal(X)
            assert twist(i, same) == X
            assert len(reduced) == 1 and reduced[0]._fresh
            written.clear()
            reduced.clear()
            X = untwist(i, M)
            cone = reduced[0] if reduced else X
            for t, mat in written[0].items():
                # the copies of H^t sit in degree t + 1, after M's
                assert mat is cone._rows[t + 1]
                held += len(mat)
    assert held >= 20
    reduced.clear()
    P1 = ProjComplex.projective(alg, 1)
    assert twist(3, P1) == P1 and reduced == [P1]


def test_untwist_reads_minimal_input_either_way():
    # a minimal complex rebuilt without its mark, by from_dict or with its
    # rows copied in their order, is twisted through the whole cone, and
    # minimize cancels the i-summands; the marked one cancels them before
    # the layout: the same data, and from the copy with every degree and
    # every row's entries in the same order (from_dict sorts each row)
    count = 0
    for n, N in ((2, 2), (3, 2), (2, 3), (4, 2)):
        for char in (None, 2, 7):
            alg = make_algebra(n, N, char=char)
            rng = seeded(3100 + 10 * n + N + (char or 0))
            for _ in range(8):
                M = apply_word(random_word(alg, rng, 8),
                               ProjComplex.projective(alg, rng.randint(1, n)))
                plain = ProjComplex.from_dict(M.to_dict(), alg)
                same = ProjComplex._from_rows(alg, M.terms, {
                    t: [dict(row) for row in mat] for t, mat in M._rows.items()})
                assert M._minimal and not (plain._minimal or same._minimal)
                for i in range(1, n + 1):
                    for letter in (untwist, twist):
                        got, want = letter(i, M), letter(i, same)
                        assert got == letter(i, plain)
                        assert list(got.terms.items()) == list(want.terms.items())
                        assert [[list(row.items()) for row in mat]
                                for mat in got._rows.values()] == [
                            [list(row.items()) for row in mat]
                            for mat in want._rows.values()]
                        assert list(got._rows) == list(want._rows)
                    count += any(v == i for row in M.terms.values() for v, _s in row)
    assert count >= 150


def test_ladder_untwists_leave_nothing_to_minimize(monkeypatch):
    # on the ladder [1,-2]^m, m <= 6, each i-summand cancels against its
    # loop copy before the untwist's cone is laid out, and nothing else
    # cancels: the cone is minimal as built and minimize never sees it;
    # laid out whole, those cones held 1,756 summands, 1,204 of them kept
    reduced = []
    reduce = twists.minimize

    def record(M):
        reduced.append(M.total_summands())
        return reduce(M)

    monkeypatch.setattr(twists, "minimize", record)
    kept = 0
    for char in (None, 7):
        alg = make_algebra(2, 2, char=char)
        for m in range(1, 7):
            M = ProjComplex.projective(alg, 1)
            for g in [1, -2] * m:
                reduced.clear()
                X = twists.apply_letter(g, M)
                if g < 0:
                    assert reduced == [] and X._minimal and is_minimal(X)
                    kept += X.total_summands()
                M = X
    assert kept == 1204


def test_twists_of_minimal_inputs_never_reach_minimize(monkeypatch):
    # the twist reduces the cone of a minimal complex before its layout:
    # minimize is handed no twist cone (a far letter hands it M itself,
    # which it returns), and every image is minimal; on the ladder
    # [1,-2]^m, m <= 6, applied to P1 and to P2 and unwound by [2,-1]^m,
    # over Q and F_7, and on seeded words over Q, F_2, F_3 and F_7
    reduced = []
    reduce = twists.minimize

    def record(M):
        reduced.append(M)
        return reduce(M)

    monkeypatch.setattr(twists, "minimize", record)
    count = 0

    def apply(word, M):
        nonlocal count
        for g in word:
            reduced.clear()
            X = twists.apply_letter(g, M)
            if g > 0:
                assert reduced in ([], [M]) and X._minimal and is_minimal(X)
                count += 1
            M = X
        return M

    for char in (None, 7):
        alg = make_algebra(2, 2, char=char)
        for k in (1, 2):
            P = ProjComplex.projective(alg, k)
            for m in range(1, 7):
                assert apply([2, -1] * m, apply([1, -2] * m, P)) == P
    for n in (2, 3, 4):
        for N in (2, 3):
            for char in (None, 2, 3, 7):
                alg = make_algebra(n, N, char=char)
                rng = seeded(3200 + 100 * n + 10 * N + (char or 0))
                for _ in range(10):
                    apply(random_word(alg, rng, 8),
                          ProjComplex.projective(alg, rng.randint(1, n)))
    assert count >= 600


def test_apply_word_builds_no_hom_complex(monkeypatch):
    # the twists write the cone's rows from the hom vectors directly
    def refuse(*args):
        raise AssertionError("GradedVectorComplex built")

    monkeypatch.setattr(complexes.GradedVectorComplex, "__init__", refuse)
    M = apply_word([1, -2] * 3, ProjComplex.projective(make_algebra(2, 3), 1))
    assert M.total_summands() == 13
    P2 = ProjComplex.projective(make_algebra(3, 2), 2)
    assert not apply_word([-2, 1, 2, -1], P2).is_zero()


def test_images_are_integral():
    # every scalar of a projective's image over Q is +-1, and over F_p the
    # image is the reduction of the Q image, term for term and row for row:
    # the twists meet the same pivots in the same order in every field
    count = 0
    for n in (2, 3, 4):
        for N in (2, 3):
            algs = {p: make_algebra(n, N, char=p) for p in (None, 2, 3, 7)}
            rng = seeded(8800 + 10 * N + n)
            for _ in range(20):
                word, k = random_word(algs[None], rng, 10), rng.randint(1, n)
                images = {p: apply_word(word, ProjComplex.projective(alg, k))
                          for p, alg in algs.items()}
                Q = images.pop(None)
                assert all(x in (1, -1) for mat in Q._rows.values()
                           for row in mat for x in row.values())
                for p, X in images.items():
                    assert list(X.terms.items()) == list(Q.terms.items())
                    assert X._rows == {
                        t: [{c: x % p for c, x in row.items()} for row in mat]
                        for t, mat in Q._rows.items()}
                count += Q.total_summands() > 3
    assert count >= 30


# ----------------------------------------------------------------------
# hom matrices


def test_hom_matrix_identity_word(alg):
    assert hom_matrix([], alg) == [[2, 1], [1, 2]]


def test_hom_matrix_braid_invariant(alg):
    assert hom_matrix([1, 2, 1], alg) == hom_matrix([2, 1, 2], alg)


def test_hom_matrix_graded_mode(alg):
    table = hom_matrix([], alg, graded=True)
    assert table[0][0] == {(0, 0): 1, (0, 2): 1}


# ----------------------------------------------------------------------
# the distinguisher


def test_braid_related_words_indistinguishable(alg):
    report = compare_words([1, 2, 1], [2, 1, 2], alg)
    assert report.verdict == "IndistinguishableOnObjects"
    assert not report.distinct


def test_distinct_generators_distinguished(alg):
    report = compare_words([1], [2], alg)
    assert report.verdict == "Distinct"
    assert report.witness_vertex is not None


def test_double_twist_distinguished_from_identity(alg):
    report = compare_words([1, 1], [], alg)
    assert report.distinct


def test_distinguisher_symmetric(alg):
    a = compare_words([1], [2], alg)
    b = compare_words([2], [1], alg)
    assert a.distinct and b.distinct
    assert a.witness_vertex == b.witness_vertex


def test_comparison_report_serializes(alg):
    data = compare_words([1], [2], alg).to_dict()
    assert data["verdict"] == "Distinct"
    assert "witness_vertex" in data
    assert data["hom_matrix_word1"] == hom_matrix([1], alg)


def count_images(monkeypatch):
    calls = []
    real = twists.apply_word

    def counting(letters, M):
        calls.append(list(letters))
        return real(letters, M)

    monkeypatch.setattr(twists, "apply_word", counting)
    return calls


def count_letters(monkeypatch):
    """Record, for each ``apply_letter`` call, the object the word started
    from and the word applied to it so far."""
    calls = []
    origin = {}  # id(output) -> (starting object, word), outputs kept alive
    real = twists.apply_letter

    def counting(g, M):
        start, word = origin.get(id(M), (M, ()))
        out = copy.copy(real(g, M))  # a far letter may return M itself
        origin[id(out)] = (start, word + (g,))
        calls.append((start, word + (g,), out))
        return out

    monkeypatch.setattr(twists, "apply_letter", counting)
    return calls


def applied_prefixes(calls):
    return sorted((start.terms[0][0][0], word) for start, word, _out in calls)


def prefixes(*words):
    return {tuple(w[:end]) for w in words for end in range(1, len(w) + 1)}


def test_compare_words_builds_each_image_once(alg3, monkeypatch):
    pairs = [
        ([1, 2, 1], [2, 1, 2]),
        ([1, -2, 1, -2, 1, 2, 1], [1, -2, 1, -2, 2, 1, 2]),
        ([1, -2, 1], [1, -2, 1, 3]),
        ([2, 2], [2, 2]),
    ]
    for w1, w2 in pairs:
        calls = count_letters(monkeypatch)
        report = compare_words(w1, w2, alg3)
        # one letter per distinct prefix and object: the shared prefix once
        want = sorted((k, p) for k in (1, 2, 3) for p in prefixes(w1, w2))
        assert applied_prefixes(calls) == want
        monkeypatch.undo()
        assert report.hom_matrices == (hom_matrix(w1, alg3), hom_matrix(w2, alg3))
        for k in (1, 2, 3):
            P = ProjComplex.projective(alg3, k)
            same = is_isomorphic(apply_word(w1, P), apply_word(w2, P))
            assert report.per_vertex[k] == ("isomorphic" if same
                                            else "non-isomorphic")


def test_compare_words_shares_far_letters(alg3, monkeypatch):
    # T1 . P3 is P3 itself, so T2 T1 T2 . P3 reuses the images T2 . P3 and
    # T1 T2 . P3 built for T1 T2 T1 . P3: 4 letters on P3, not 6; on P1
    # and P2 every letter is near, and the two words share no image
    calls = []
    real = twists.apply_letter

    def record(g, M):
        calls.append((M, g))
        return real(g, M)

    monkeypatch.setattr(twists, "apply_letter", record)
    report = compare_words([1, 2, 1], [2, 1, 2], alg3)
    assert not report.distinct
    P3 = ProjComplex.projective(alg3, 3)
    first = next(c for c, (M, _g) in enumerate(calls) if M == P3)
    assert first == 12
    assert [g for _M, g in calls[first:]] == [1, 2, 1, 2]


def test_compare_words_builds_hom_tables_on_first_read(alg3, monkeypatch):
    # the report keeps its 2n images and builds the two tables when
    # hom_matrices is first read, once; an explicit hom_matrices wins, and
    # a report built without images reads None
    calls = []
    build = twists._hom_table

    def record(images, graded=False):
        calls.append(len(images))
        return build(images, graded)

    monkeypatch.setattr(twists, "_hom_table", record)
    report = compare_words([1, 2, 1], [2, 1, 2], alg3)
    assert calls == []
    want = (hom_matrix([1, 2, 1], alg3), hom_matrix([2, 1, 2], alg3))
    calls.clear()
    assert report.hom_matrices == want and calls == [3, 3]
    assert report.hom_matrices == want and calls == [3, 3]
    assert twists.ComparisonReport([1], [2], False).hom_matrices is None
    explicit = twists.ComparisonReport([1], [2], False, hom_matrices=([[1]], [[2]]))
    assert explicit.hom_matrices == ([[1]], [[2]]) and calls == [3, 3]


def test_hom_matrix_builds_n_images(alg3, monkeypatch):
    calls = count_images(monkeypatch)
    hom_matrix([1, -2, 3], alg3, graded=True)
    assert calls == [[1, -2, 3]] * 3


# ----------------------------------------------------------------------
# word parsing


def test_parse_braid_word():
    assert parse_braid_word("1 2 -1", 2) == [1, 2, -1]
    assert parse_braid_word("", 2) == []


@pytest.mark.parametrize("text", ["0", "3", "-3", "x", "1.5"])
def test_parse_braid_word_rejects(text):
    with pytest.raises(ValueError):
        parse_braid_word(text, 2)


def test_apply_word_rejects_out_of_range(alg):
    P = ProjComplex.projective(alg, 1)
    with pytest.raises(ValueError):
        apply_word([3], P)


# ----------------------------------------------------------------------
# prime field lane


def test_relations_hold_over_prime_field():
    report = verify_relations(make_algebra(2, 2, char=5))
    assert report.all_passed
