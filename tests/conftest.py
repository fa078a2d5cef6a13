"""Shared helpers: seeded random complexes and words for fuzz-style tests."""

import random

from sphtwist import ChainParams, ProjComplex, ZigzagAlgebra


def make_algebra(n, N, degrees=None, char=None):
    return ZigzagAlgebra(ChainParams(n, N, degrees), char=char)


def random_element(alg, rng, i, j, degree):
    """A random homogeneous element of e_i A e_j of the given degree."""
    out = alg.zero()
    for key in alg.hom_basis(i, j):
        if alg.deg[key] == degree:
            out = out + alg.from_key(key, rng.randint(-3, 3))
    return out


def random_two_term(alg, rng, max_summands=3):
    """A random two-term complex (d^2 = 0 holds automatically)."""
    n = alg.params.n
    nrows = rng.randint(1, max_summands)
    ncols = rng.randint(1, max_summands)
    src = [(rng.randint(1, n), rng.randint(-2, 2)) for _ in range(nrows)]
    tgt = [(rng.randint(1, n), rng.randint(-2, 2)) for _ in range(ncols)]
    mat = []
    for v, s in src:
        row = []
        for v2, s2 in tgt:
            if rng.random() < 0.75:
                row.append(random_element(alg, rng, v, v2, s - s2))
            else:
                row.append(alg.zero())
        mat.append(row)
    return ProjComplex(alg, {0: src, 1: tgt}, {0: mat})


def reversed_summands(M):
    """M with the summands of every degree listed in reverse order."""
    terms = {t: row[::-1] for t, row in M.terms.items()}
    diffs = {t: [row[::-1] for row in mat[::-1]] for t, mat in M.diffs.items()}
    return ProjComplex(M.algebra, terms, diffs)


def random_word(alg, rng, max_len=6):
    n = alg.params.n
    length = rng.randint(0, max_len)
    word = []
    for _ in range(length):
        g = rng.randint(1, n)
        if rng.random() < 0.5:
            g = -g
        word.append(g)
    return word


def seeded(seed):
    return random.Random(seed)
