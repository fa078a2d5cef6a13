"""Exact linear algebra: rank, kernel and determinant on seeded matrices."""

import copy
from fractions import Fraction
from itertools import permutations
from math import gcd, isqrt, prod

import pytest

from conftest import dense_nullspace, seeded
from sphtwist.fields import Field, raw
from sphtwist.linalg import _eliminate, _rows, mat_det, mat_rank, nullspace

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


def assert_engine_scalars_agree(field, rows, ncols):
    """Rank, kernel and determinant (of a square ``rows``) are equal on the
    public scalars and on their engine scalars, ints reduced by ``mod``,
    and the engine results hold engine scalars only."""
    mod = field.char or 0
    engine = [[raw(x) for x in row] for row in rows]
    assert mat_rank(engine, mod) == mat_rank(rows)
    kernel = nullspace(engine, ncols, 1, mod)
    assert kernel == nullspace(rows, ncols, field.one)
    values = [x for v in kernel for x in v]
    if len(rows) == ncols:
        values.append(mat_det(engine, mod))
        assert values[-1] == mat_det(rows)
    for x in values:
        assert 0 <= x < mod and type(x) is int if mod else type(x) in (int, Fraction)


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
        assert_engine_scalars_agree(field, rows, n)
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
        assert_engine_scalars_agree(field, rows, ncols)
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


def as_dicts(rows):
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def sparse_matrix(field, rng, nrows, ncols):
    """About three nonzeros a row; some rows are combinations of others."""
    rows = []
    for _ in range(nrows):
        if len(rows) > 1 and rng.random() < 0.15:
            a, b = rng.sample(rows, 2)
            k = field.of(rng.randint(-3, 3))
            rows.append([x + k * y for x, y in zip(a, b)])
            continue
        row = [field.zero] * ncols
        for c in rng.sample(range(ncols), min(ncols, 3)):
            row[c] = field.of(rng.choice([1, -1, 2, -3, 5]))
        rows.append(row)
    return rows


def matmul(field, A, B):
    out = [[field.zero] * len(B[0]) for _ in A]
    for r, row in enumerate(A):
        for k, a in enumerate(row):
            if a:
                for c, b in enumerate(B[k]):
                    if b:
                        out[r][c] = out[r][c] + a * b
    return out


def textbook_det(field, rows):
    """Dense Gaussian elimination, the first nonzero entry as pivot."""
    m = [list(r) for r in rows]
    det = field.one
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col]), None)
        if pivot is None:
            return field.zero
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col]
        for r in range(col + 1, len(m)):
            if m[r][col]:
                factor = m[r][col] / m[col][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_dict_rows_agree_with_dense_rows(field):
    rng = seeded(33)
    for _ in range(150):
        nrows, ncols = rng.randint(0, 8), rng.randint(1, 8)
        rows = random_matrix(field, rng, nrows, ncols)
        assert mat_rank(as_dicts(rows)) == mat_rank(rows)
        assert nullspace(as_dicts(rows), ncols, field.one) == nullspace(
            rows, ncols, field.one)
        square = random_matrix(field, rng, ncols, ncols)
        assert mat_det(as_dicts(square)) == mat_det(square)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_sparse_matrices_up_to_60(field):
    rng = seeded(34)
    for size in (10, 25, 40, 60):
        rows = sparse_matrix(field, rng, rng.randint(size // 2, size), size)
        rank = mat_rank(rows)
        kernel = nullspace(as_dicts(rows), size, field.one)
        assert 0 < rank < size and rank + len(kernel) == size
        assert_engine_scalars_agree(field, rows, size)
        # the vector for a free column is 1 there, 0 at the other free
        # columns and 0 right of its own
        free = [max(c for c, x in enumerate(v) if x) for v in kernel]
        assert free == sorted(set(free))
        for v, fc in zip(kernel, free):
            assert [v[c] for c in free] == [field.one if c == fc else 0 for c in free]
            for row in rows:
                assert sum((a * b for a, b in zip(row, v)), field.zero) == 0
        A = sparse_matrix(field, rng, size, size)
        B = sparse_matrix(field, rng, size, size)
        for i in range(size):  # a unit diagonal makes singularity rare
            A[i][i] = A[i][i] + field.one
        assert mat_det(A) and mat_det(matmul(field, A, B)) == mat_det(A) * mat_det(B)
        assert mat_det(A) == textbook_det(field, A)
        assert mat_det(B) == textbook_det(field, B)
        assert_engine_scalars_agree(field, A, size)


# ----------------------------------------------------------------------
# the peel and the integral elimination


def scalar(field, rng):
    """A nonzero public scalar: an int, small or up to 10^6, divided about
    half the time by a denominator up to 10^6 that is prime to 14 (so that
    it is invertible in F_2 and F_7)."""
    while True:
        x = field.of(rng.choice([1, -1, 2, -3, 5, rng.randint(-10**6, 10**6)]))
        if rng.random() < 0.5:
            d = rng.randint(1, 10**6)
            while gcd(d, 14) != 1:
                d += 1
            x = x / field.of(d)
        if x:
            return x


def cascade_system(field, rng, ncols, chain, extra):
    """Dense rows whose peel cascades along a chain of ``chain`` columns.

    The first chain row has one entry, and each later one adds the next
    chain column to entries on earlier ones, so peeling one forces the
    next.  Two more rows empty out: a second one-entry row on the chain's
    start and a row on two chain columns.  ``extra`` random rows on all
    columns are left for the elimination; the rows are shuffled.
    """
    cols = rng.sample(range(ncols), chain)
    rows = []

    def row(entries):
        r = [field.zero] * ncols
        for c in entries:
            r[c] = scalar(field, rng)
        rows.append(r)

    for k, c in enumerate(cols):
        row([c] + rng.sample(cols[:k], min(k, rng.randint(1, 2))))
    row(cols[:1])
    row(rng.sample(cols, 2))
    for _ in range(extra):
        row(rng.sample(range(ncols), rng.randint(2, min(ncols, 4))))
    rng.shuffle(rows)
    return rows, cols


def engine(field, rows):
    return [[raw(x) for x in row] for row in rows]


def check_against_references(field, rows, ncols):
    """``nullspace``, ``mat_rank`` and (square) ``mat_det`` on the engine
    scalars and on the public ones equal the dense textbook reference, and
    leave their input rows as they were."""
    mod = field.char or 0
    want = dense_nullspace(rows, ncols, field)
    eng = engine(field, rows)
    for args in ((eng, ncols, 1, mod), (rows, ncols, field.one),
                 (as_dicts(eng), ncols, 1, mod), (as_dicts(rows), ncols, field.one)):
        before = copy.deepcopy(args[0])
        assert nullspace(*args) == want
        assert mat_rank(args[0], *args[3:]) == ncols - len(want)
        if len(rows) == ncols:
            assert mat_det(args[0], *args[3:]) == textbook_det(field, rows)
        assert args[0] == before
    assert_engine_scalars_agree(field, rows, ncols)
    return want


FIELDS3 = [Field(None), Field(2), Field(7)]


@pytest.mark.parametrize("field", FIELDS3, ids=["Q", "F2", "F7"])
def test_peel_cascades_and_agrees_with_textbook_kernel(field):
    rng = seeded(35)
    mod = field.char or 0
    mixed = emptied = 0
    for _ in range(60):
        ncols = rng.randint(8, 16)
        chain = rng.randint(5, min(ncols, 9))
        rows, cols = cascade_system(field, rng, ncols, chain, rng.randint(0, ncols // 2))
        kernel = check_against_references(field, rows, ncols)
        for v in kernel:
            assert all(not v[c] for c in cols)  # the chain is forced to zero
        pivot, echelon, _num, _den = _eliminate(_rows(engine(field, rows)), mod)
        peeled = len(pivot) - len(echelon)
        assert peeled >= chain
        emptied += peeled < len(rows) - len(echelon)
        if not mod:
            kinds = {type(raw(x)) for row in rows for x in row if x}
            mixed += kinds == {int, Fraction}
    assert emptied == 60
    assert mod or mixed > 40


@pytest.mark.parametrize("field", FIELDS3, ids=["Q", "F2", "F7"])
def test_peel_that_leaves_nothing(field):
    rng = seeded(36)
    mod = field.char or 0
    for _ in range(30):
        ncols = rng.randint(5, 12)
        chain = rng.randint(5, ncols)
        rows, cols = cascade_system(field, rng, ncols, chain, 0)
        kernel = check_against_references(field, rows, ncols)
        pivot, echelon, _num, _den = _eliminate(_rows(engine(field, rows)), mod)
        assert echelon == [] and sorted(pivot.values()) == sorted(cols)
        assert len(kernel) == ncols - chain


@pytest.mark.parametrize("field", FIELDS3, ids=["Q", "F2", "F7"])
def test_square_cascades_match_textbook_det(field):
    rng = seeded(37)
    nonzero = 0
    for _ in range(40):
        n = rng.randint(5, 12)
        rows, _cols = cascade_system(field, rng, n, rng.randint(5, n), n)
        rows = rows[:n]
        check_against_references(field, rows, n)
        nonzero += bool(textbook_det(field, rows))
    assert nonzero > 5


def test_dense_rational_system_keeps_its_coefficients_small():
    """A dense 40 x 40 rational system of rank 37: 37 random rows and three
    rational combinations of them.  The integral elimination keeps each
    pivot row primitive, and within the Hadamard bound of the input scaled
    to primitive integer rows, which bounds every minor."""
    field = Field(None)
    rng = seeded(38)
    base = [[Fraction(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(40)]
            for _ in range(37)]
    weights = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in base]
               for _ in range(3)]
    rows = base + [[sum((w * r[c] for w, r in zip(ws, base)), Fraction(0))
                    for c in range(40)] for ws in weights]
    rng.shuffle(rows)
    eng = engine(field, rows)
    before = copy.deepcopy(eng)
    kernel = dense_nullspace(rows, 40, field)
    assert len(kernel) == 3
    assert nullspace(eng, 40, 1) == kernel == nullspace(rows, 40, field.one)
    assert mat_rank(eng) == 37 and mat_det(eng) == 0
    assert eng == before
    pivot, echelon, _num, _den = _eliminate(_rows(eng), 0)
    norms = []
    for row in _rows(eng):
        d = 1
        for x in row.values():
            d = d * Fraction(x).denominator // gcd(d, Fraction(x).denominator)
        ints = [int(x * d) for x in row.values()]
        g = gcd(*ints)
        norms.append(isqrt(sum((x // g) ** 2 for x in ints)) + 1)
    bound = prod(sorted(norms)[-37:])
    assert len(pivot) == 37
    for _col, row in echelon:
        assert gcd(*row.values()) == 1
        assert max(abs(x) for x in row.values()) <= bound
