"""Exact linear algebra: rank, kernel and determinant on seeded matrices."""

from itertools import permutations

import pytest

from conftest import seeded
from sphtwist.fields import Field
from sphtwist.linalg import mat_det, mat_rank, nullspace

FIELDS = [Field(None), Field(7)]


def random_matrix(field, rng, nrows, ncols):
    """Entries drawn with many zeros; some rows repeat to force singularity."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.2:
            k = field.of(rng.randint(-2, 2))
            rows.append([k * x for x in rng.choice(rows)])
        else:
            rows.append(
                [field.of(rng.choice([0, 0, 0, 1, -1, 2, -3, 5])) for _ in range(ncols)]
            )
    return rows


def leibniz_det(field, rows):
    n = len(rows)
    total = field.zero
    for perm in permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        term = field.of(-1 if inversions % 2 else 1)
        for r, c in enumerate(perm):
            term = term * rows[r][c]
        total = total + term
    return total


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_det_matches_leibniz_expansion(field):
    rng = seeded(31)
    singular = 0
    for _ in range(120):
        n = rng.randint(1, 6)
        rows = random_matrix(field, rng, n, n)
        want = leibniz_det(field, rows)
        assert mat_det(rows) == want
        singular += not want
    assert singular > 10


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_rank_nullity_and_kernel_shape(field):
    rng = seeded(32)
    deficient = 0
    for _ in range(200):
        nrows = rng.randint(0, 6)
        ncols = rng.randint(1, 6)
        rows = random_matrix(field, rng, nrows, ncols)
        rank = mat_rank(rows)
        kernel = nullspace(rows, ncols, field.one)
        assert rank + len(kernel) == ncols
        deficient += rank < min(nrows, ncols)
        # a column is free when it does not raise the rank of the columns
        # before it; the kernel vector for it is 1 there and 0 at the others
        free = [
            c
            for c in range(ncols)
            if mat_rank([r[: c + 1] for r in rows]) == mat_rank([r[:c] for r in rows])
        ]
        assert len(kernel) == len(free)
        for v, fc in zip(kernel, free):
            assert len(v) == ncols
            assert [v[c] for c in free] == [field.one if c == fc else 0 for c in free]
            for row in rows:
                assert sum((a * b for a, b in zip(row, v)), field.zero) == 0
    assert deficient > 20


def test_edge_cases():
    one = Field(None).one
    assert mat_rank([]) == 0
    assert mat_rank([[]]) == 0
    assert nullspace([], 3, one) == [
        [one, 0 * one, 0 * one],
        [0 * one, one, 0 * one],
        [0 * one, 0 * one, one],
    ]
    assert nullspace([], 0, one) == []
    assert mat_det([]) is None
