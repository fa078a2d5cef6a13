"""Acceptance gate: the eight headline guarantees, each with a time budget.

Every test prints a single ``ACCEPTANCE k: PASS/FAIL`` line (visible with
``pytest -s`` or in captured output on failure) and fails if the checks or
the time budget are violated.  Run the whole gate with::

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import json
import time
from itertools import combinations

from conftest import (
    make_algebra,
    random_two_term,
    random_word,
    reversed_summands,
    seeded,
)
from sphtwist import (
    ProjComplex,
    apply_word,
    build_tdiagram,
    burau_matrix,
    compare_words,
    cone,
    definiteness,
    elliptic_generator,
    elliptic_word,
    euler_class,
    hom_matrix,
    is_isomorphic,
    is_minimal,
    minimize,
    pl_product,
    strange_duality_rank_check,
    twist,
    verify_relations,
)
from sphtwist.ktheory import imat_identity, imat_mul
from sphtwist.laurent import laurent_mat_vec
from sphtwist.linalg import mat_det
from sphtwist.twists import ChainMap


def run_criterion(number, limit_seconds, body):
    start = time.perf_counter()
    error = None
    detail = ""
    try:
        detail = body() or ""
    except AssertionError as exc:  # report, then re-raise for pytest
        error = exc
    elapsed = time.perf_counter() - start
    ok = error is None and elapsed < limit_seconds
    print(
        "ACCEPTANCE %d: %s (%.2fs / %gs limit)%s"
        % (number, "PASS" if ok else "FAIL", elapsed, limit_seconds,
           " -- " + detail if detail else "")
    )
    if error is not None:
        raise error
    assert elapsed < limit_seconds, "criterion %d exceeded %gs" % (
        number, limit_seconds)


# ----------------------------------------------------------------------


def test_acceptance_1_algebra_profile():
    def body():
        for n in range(1, 5):
            for N in (2, 3):
                alg = make_algebra(n, N)
                if n >= 2:
                    assert alg.dimension() == 4 * n - 2
                for i in range(1, n + 1):
                    assert alg.hom_space(i, i) == {0: 1, N: 1}
                    for j in range(1, n + 1):
                        total = sum(alg.hom_space(i, j).values())
                        if abs(i - j) == 1:
                            assert total == 1
                        elif i != j:
                            assert total == 0
                assert mat_det(alg.gram_matrix()) != 0
        return "n in 1..4, N in {2,3}: dims, Ext profiles, Gram all exact"

    run_criterion(1, 1.0, body)


def test_acceptance_2_inverse_theorem():
    def body():
        checked = 0
        # every generator against every projective, all shapes
        for n in range(1, 5):
            for N in (2, 3):
                alg = make_algebra(n, N)
                for i in range(1, n + 1):
                    for k in range(1, n + 1):
                        P = ProjComplex.projective(alg, k)
                        assert is_isomorphic(apply_word([i, -i], P), P)
                        assert is_isomorphic(apply_word([-i, i], P), P)
                        checked += 1
        # 20 seeded random two-term complexes spread over the shapes
        rng = seeded(2024)
        shapes = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]
        algebras = [make_algebra(n, N) for n, N in shapes]
        for idx in range(20):
            alg = algebras[idx % len(algebras)]
            M = random_two_term(alg, rng)
            i = 1 + idx % alg.params.n
            assert is_isomorphic(apply_word([i, -i], M), M)
            assert is_isomorphic(apply_word([-i, i], M), M)
            checked += 1
        return "%d object/generator pairs, both orders" % checked

    run_criterion(2, 10.0, body)


def test_acceptance_3_braid_relations():
    def body():
        for n in (2, 3, 4):
            report = verify_relations(make_algebra(n, 2))
            assert report.all_passed, report.failures()
        return "braid + commutation relations on all projectives, n in 2..4"

    run_criterion(3, 30.0, body)


def test_acceptance_4_faithfulness_shadow():
    def body():
        alg = make_algebra(2, 2)
        words = [[], [1], [2], [1, 1], [1, 2], [2, 1], [1, 2, 1]]
        for w1, w2 in combinations(words, 2):
            report = compare_words(w1, w2, alg)
            assert report.distinct, (w1, w2)
        braid = compare_words([1, 2, 1], [2, 1, 2], alg)
        assert not braid.distinct

        # growth of total hom dimension along powers of the two-generator
        # rotation: on the two-object chain (1 2)^3 is the central full
        # twist, which acts as a pure shift and keeps every hom dimension
        # constant, so the growth statement is read on the three-object
        # chain where the rotation is not central
        alg3 = make_algebra(3, 2)
        totals = []
        for m in (1, 2, 3):
            mat = hom_matrix([1, 2] * (3 * m), alg3)
            totals.append(sum(sum(row) for row in mat))
        assert totals[0] < totals[1] < totals[2], totals
        return "21 pairs distinct, braid pair not; hom totals %s" % (totals,)

    run_criterion(4, 60.0, body)


def test_acceptance_5_decategorification():
    def body():
        rng = seeded(5050)
        cases = 0
        while cases < 50:
            n = 2 + cases % 2  # n in {2, 3}
            alg = make_algebra(n, 2)
            w = random_word(alg, rng, max_len=6)
            M = random_two_term(alg, rng)
            lhs = euler_class(apply_word(w, M))
            rhs = laurent_mat_vec(burau_matrix(w, alg), euler_class(M))
            assert lhs == rhs, (w,)
            cases += 1

        # q = 1 specialization matches Picard-Lefschetz products after
        # the sign flip [P_i] -> (-1)^i root_i
        for n in (2, 3):
            alg = make_algebra(n, 2)
            words = [[i] for i in range(1, n + 1)] + [
                random_word(alg, rng, max_len=5) for _ in range(5)
            ]
            for w in words:
                B1 = [[p(1) for p in row] for row in burau_matrix(w, alg)]
                signed = [
                    [(-1) ** (i + j) * B1[i][j] for j in range(n)]
                    for i in range(n)
                ]
                assert signed == pl_product(w, n), (w,)
        return "50 functoriality cases + q=1 reflection products"

    run_criterion(5, 30.0, body)


def test_acceptance_6_elliptic_shadow():
    def body():
        A = elliptic_generator("O")
        B = elliptic_generator("Op")
        assert imat_mul(A, imat_mul(B, A)) == imat_mul(B, imat_mul(A, B))
        assert elliptic_word("(O Op)^6") == imat_identity(2)
        assert elliptic_word("L^-1 O") == imat_identity(2)
        return "ABA=BAB, (AB)^6=I, L^-1 O = I"

    run_criterion(6, 1.0, body)


def test_acceptance_7_lattice_claims():
    def body():
        assert definiteness(build_tdiagram(2, 3, 5)).verdict == "negative_definite"
        r333 = definiteness(build_tdiagram(3, 3, 3))
        assert r333.verdict == "negative_semidefinite" and r333.kernel_rank == 1
        assert definiteness(build_tdiagram(2, 3, 7)).verdict == "indefinite"
        for b in [(2, 3, 7), (2, 3, 5), (2, 3, 9), (2, 4, 6)]:
            for c in [(2, 3, 7), (2, 3, 5), (2, 3, 6)]:
                want = sum(b) + sum(c) == 24
                assert strange_duality_rank_check(b, c) == want, (b, c)
        return "T(2,3,5)/T(3,3,3)/T(2,3,7) verdicts + rank identity"

    run_criterion(7, 1.0, body)


def test_acceptance_8_engine_hygiene():
    def body():
        rng = seeded(8888)
        shapes = [(2, 2), (2, 3), (3, 2)]
        algebras = [make_algebra(n, N) for n, N in shapes]
        for case in range(200):
            alg = algebras[case % len(algebras)]
            M = random_two_term(alg, rng)
            i = 1 + case % alg.params.n

            # d^2 = 0 after each operation (the constructor validates)
            T = twist(i, M)
            ProjComplex(T.algebra, T.terms, T.diffs)
            S = M.shift(1, -1)
            ProjComplex(S.algebra, S.terms, S.diffs)
            C = cone(ChainMap.zero(M, M))
            ProjComplex(C.algebra, C.terms, C.diffs)

            # minimization: idempotent, pivot-order independent up to iso
            Mm = minimize(M)
            assert is_minimal(Mm)
            assert minimize(Mm) == Mm
            if case % 10 == 0:
                Mr = minimize(reversed_summands(M))
                for t in Mm.terms:
                    assert sorted(Mm.terms[t]) == sorted(Mr.terms[t])
                assert is_isomorphic(Mm, Mr)

            # JSON round trip is bit-exact
            blob = json.dumps(M.to_dict(), sort_keys=True)
            back = ProjComplex.from_dict(json.loads(blob))
            assert back == M
            assert json.dumps(back.to_dict(), sort_keys=True) == blob
        return "200 fuzz cases: d^2=0, minimization, JSON"

    run_criterion(8, 60.0, body)
