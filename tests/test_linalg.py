"""Exact linear algebra: rank and kernel on seeded matrices, with
invertibility checked against determinant references."""

import copy
from fractions import Fraction
from itertools import permutations
from math import gcd, isqrt, prod

import pytest

from conftest import dense_nullspace, seeded
from sphtwist.fields import Field, raw
from sphtwist.linalg import _eliminate, _rows, mat_rank, nullspace

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


def engine(field, rows):
    return [[raw(x) for x in row] for row in rows]


def assert_engine_scalars_agree(field, rows, ncols):
    """Rank and kernel on the engine scalars of the public ``rows``, ints
    reduced by ``mod``, equal those of the textbook ``dense_nullspace``,
    and the kernel holds engine scalars only."""
    mod = field.char or 0
    want = dense_nullspace(rows, ncols, field)
    eng = engine(field, rows)
    kernel = nullspace(eng, ncols, mod)
    assert kernel == want
    assert mat_rank(eng, mod) == ncols - len(want)
    for x in (x for v in kernel for x in v):
        assert 0 <= x < mod and type(x) is int if mod else type(x) in (int, Fraction)


def invertible(field, rows):
    """``mat_rank`` says whether a square matrix of public scalars is invertible."""
    return mat_rank(engine(field, rows), field.char or 0) == len(rows)


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
        assert invertible(field, rows) == bool(want)
        assert_engine_scalars_agree(field, rows, n)
        singular += not want
    assert singular > 10


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_rank_nullity_and_kernel_shape(field):
    rng = seeded(32)
    mod = field.char or 0
    deficient = 0
    for _ in range(200):
        nrows = rng.randint(0, 6)
        ncols = rng.randint(1, 6)
        rows = random_matrix(field, rng, nrows, ncols)
        eng = engine(field, rows)
        rank = mat_rank(eng, mod)
        kernel = nullspace(eng, ncols, mod)
        assert rank + len(kernel) == ncols
        assert_engine_scalars_agree(field, rows, ncols)
        deficient += rank < min(nrows, ncols)
        # a column is free when it does not raise the rank of the columns
        # before it; the kernel vector for it is 1 there and 0 at the others
        free = [
            c
            for c in range(ncols)
            if mat_rank([r[: c + 1] for r in eng], mod) == mat_rank([r[:c] for r in eng], mod)
        ]
        assert len(kernel) == len(free)
        for v, fc in zip(kernel, free):
            assert len(v) == ncols
            assert [v[c] for c in free] == [1 if c == fc else 0 for c in free]
            for row in rows:
                assert sum((a * field.of(b) for a, b in zip(row, v)), field.zero) == 0
    assert deficient > 20


def test_edge_cases():
    for mod in (0, 7):
        assert mat_rank([], mod) == 0  # the empty block counts as invertible
        assert mat_rank([[]], mod) == 0
        assert mat_rank([{}], mod) == 0
        assert nullspace([], 3, mod) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert nullspace([[0, 0, 0]], 3, mod) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert nullspace([], 0, mod) == []
        for v in nullspace([], 3, mod):
            assert all(type(x) is int for x in v)


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
    mod = field.char or 0
    for _ in range(150):
        nrows, ncols = rng.randint(0, 8), rng.randint(1, 8)
        rows = engine(field, random_matrix(field, rng, nrows, ncols))
        assert mat_rank(as_dicts(rows), mod) == mat_rank(rows, mod)
        assert nullspace(as_dicts(rows), ncols, mod) == nullspace(rows, ncols, mod)
        square = random_matrix(field, rng, ncols, ncols)
        full = mat_rank(as_dicts(engine(field, square)), mod) == ncols
        assert full == invertible(field, square) == bool(textbook_det(field, square))


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_sparse_matrices_up_to_60(field):
    rng = seeded(34)
    mod = field.char or 0
    for size in (10, 25, 40, 60):
        rows = sparse_matrix(field, rng, rng.randint(size // 2, size), size)
        rank = mat_rank(engine(field, rows), mod)
        kernel = nullspace(as_dicts(engine(field, rows)), size, mod)
        assert 0 < rank < size and rank + len(kernel) == size
        assert_engine_scalars_agree(field, rows, size)
        # the vector for a free column is 1 there, 0 at the other free
        # columns and 0 right of its own
        free = [max(c for c, x in enumerate(v) if x) for v in kernel]
        assert free == sorted(set(free))
        for v, fc in zip(kernel, free):
            assert [v[c] for c in free] == [1 if c == fc else 0 for c in free]
            for row in rows:
                assert sum((a * field.of(b) for a, b in zip(row, v)), field.zero) == 0
        A = sparse_matrix(field, rng, size, size)
        B = sparse_matrix(field, rng, size, size)
        for i in range(size):  # a unit diagonal makes singularity rare
            A[i][i] = A[i][i] + field.one
        # A is invertible, so A.B is invertible exactly when B is
        AB = matmul(field, A, B)
        assert invertible(field, A) and textbook_det(field, A)
        assert invertible(field, AB) == invertible(field, B) == bool(textbook_det(field, B))
        assert bool(textbook_det(field, AB)) == invertible(field, AB)
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


def check_against_references(field, rows, ncols):
    """``nullspace`` and ``mat_rank`` on the engine scalars of ``rows``, as
    dense and as dict rows, equal the dense textbook reference, a square
    matrix has full rank exactly when its textbook determinant is nonzero,
    and the input rows are left as they were."""
    mod = field.char or 0
    want = dense_nullspace(rows, ncols, field)
    eng = engine(field, rows)
    for given in (eng, as_dicts(eng)):
        before = copy.deepcopy(given)
        assert nullspace(given, ncols, mod) == want
        assert mat_rank(given, mod) == ncols - len(want)
        if len(rows) == ncols:
            assert (mat_rank(given, mod) == ncols) == bool(textbook_det(field, rows))
        assert given == before
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
        pivot, echelon = _eliminate(_rows(engine(field, rows)), mod)
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
        pivot, echelon = _eliminate(_rows(engine(field, rows)), mod)
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
    assert nullspace(eng, 40) == kernel
    assert mat_rank(eng) == 37
    assert eng == before
    pivot, echelon = _eliminate(_rows(eng), 0)
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


def fractions_only(rows):
    """``rows`` with each row divided by the least q >= 2 that leaves every
    nonzero entry a Fraction that is not an integer; the kernel and the
    rank stay."""
    out = []
    for row in rows:
        ints = [x.numerator for x in row if x and x.denominator == 1]
        q = 2
        while any(n % q == 0 for n in ints):
            q += 1
        out.append([x / q for x in row])
    return out


def test_rows_of_fractions_only():
    """Rows over Q that hold no int at all, only Fractions that are not
    integers, take the integer elimination like every other row set: the
    kernel and the rank equal the textbook reference, on dense and dict
    rows, a square matrix has full rank exactly when its determinant is
    nonzero, and the input rows are unchanged."""
    field = Field(None)
    rng = seeded(39)
    singular = regular = eliminated = 0
    for k in range(90):
        ncols = rng.randint(6, 14)
        if k % 3 == 0:
            chain = rng.randint(5, min(ncols, 9))
            rows, _cols = cascade_system(field, rng, ncols, chain, rng.randint(1, ncols))
        elif k % 3 == 1:
            rows = random_matrix(field, rng, ncols, ncols)
        else:
            rows = [[Fraction(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(ncols)]
                    for _ in range(rng.randint(2, ncols + 2))]
        rows = fractions_only(rows)
        eng = engine(field, rows)
        assert all(type(x) is Fraction and x.denominator > 1
                   for row in eng for x in row if x)
        check_against_references(field, rows, ncols)
        eliminated += bool(_eliminate(_rows(eng), 0)[1])
        if len(rows) == ncols:
            singular += not textbook_det(field, rows)
            regular += bool(textbook_det(field, rows))
    assert eliminated > 60 and singular > 5 and regular > 5
