"""Shared helpers: seeded random complexes and words for fuzz-style tests,
dense-matrix references for cone, minimize, RHom(M, P_i), the twists and
the K-theory shadows, with the Laurent matrix product and the dense-form
lattice they need, the twists glued block by block from their hom
complex, a textbook kernel basis, and the record classes as the
dataclasses they once were."""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace

from sphtwist import (
    ChainMap,
    ChainParams,
    DefinitenessReport,
    GradedVectorComplex,
    ProjComplex,
    ZigzagAlgebra,
    an_minus2_lattice,
    chi_q,
    hom_from_projective,
)
from sphtwist.complexes import minimize
from sphtwist.fields import raw
from sphtwist.ktheory import imat_mul
from sphtwist.laurent import LaurentPoly


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


def random_copies(alg, rng, max_copies=4):
    """A random two-term complex with 2..max_copies copies of one summand in
    each degree, every entry a multiple of one radical path."""
    n = alg.params.n
    v, v2 = rng.randint(1, n), rng.randint(1, n)
    key = rng.choice([k for k in alg.hom_basis(v, v2) if alg.deg[k]])
    s = rng.randint(-2, 2)
    src = [(v, s)] * rng.randint(2, max_copies)
    tgt = [(v2, s - alg.deg[key])] * rng.randint(2, max_copies)
    mat = [[alg.from_key(key, rng.randint(-3, 3)) if rng.random() < 0.75
            else alg.zero() for _ in tgt] for _ in src]
    return ProjComplex(alg, {0: src, 1: tgt}, {0: mat})


# seeds of random_copies pairs whose is_isomorphic gets past the all-ones,
# ramp and matched weights: the seeded points or the bounded weight grid
# decides them
FALLBACK_SEEDS = {2: (238, 279, 289), 3: (39, 59, 96), None: (1461, 704, 663)}


def fallback_pair(char, seed):
    """A random_copies complex at n = N = 2 and a basis change of it."""
    rng = seeded(seed)
    M = random_copies(make_algebra(2, 2, char=char), rng)
    return M, basis_change(M, rng)


def perturbed_pair(char, seed):
    """A random_copies complex at n = N = 2 and a basis change of it with
    one nonzero entry doubled first: the same summands, and isomorphic
    exactly when the doubling keeps the rank of the matrix of scalars."""
    rng = seeded(seed)
    M = random_copies(make_algebra(2, 2, char=char), rng)
    mat = [list(row) for row in M.mat(0)]
    entries = [(r, c) for r, row in enumerate(mat) for c, x in enumerate(row)
               if not x.is_zero()]
    if entries:
        r, c = rng.choice(entries)
        mat[r][c] = mat[r][c].scale(2)
    return M, basis_change(ProjComplex(M.algebra, M.terms, {0: mat}), rng)


def _elementary(alg, row, i, j, x):
    """The identity on the summands ``row`` plus x in entry (i, j)."""
    out = [[alg.e(a[0]) if r == c else alg.zero() for c in range(len(row))]
           for r, a in enumerate(row)]
    out[i][j] = out[i][j] + x
    return out


def basis_change(M, rng):
    """M after a seeded invertible change of basis.

    In each degree f = permutation . diagonal . unipotent, the unipotent
    made of homogeneous entries off the diagonal; the new differential is
    f_t d_t f_{t+1}^{-1}, over the summands in permuted order.
    """
    alg = M.algebra
    fwd, inv, terms = {}, {}, {}
    for t, row in M.terms.items():
        size = len(row)
        perm = list(range(size))
        rng.shuffle(perm)
        f = [[alg.e(row[b][0]) if b == perm[a] else alg.zero()
              for b in range(size)] for a in range(size)]
        g = [[alg.e(row[b][0]) if b == perm[a] else alg.zero()
              for a in range(size)] for b in range(size)]
        for i in range(size):
            c = alg.field.of(rng.choice([1, -1, 2, -2, 3]))
            if not c:  # 2 or 3 over F_2 or F_3
                continue
            # scale summand i by c: the identity plus (c - 1) e at (i, i)
            f = _matmul(alg, f, _elementary(alg, row, i, i,
                                            alg.from_key(("e", row[i][0]), c - 1)))
            g = _matmul(alg, _elementary(alg, row, i, i, alg.from_key(
                ("e", row[i][0]), 1 / c - 1)), g)
        for _ in range(2 * size):
            i, j = rng.randrange(size), rng.randrange(size)
            (v, s), (v2, s2) = row[i], row[j]
            key = alg.path.get((v, v2, s - s2))
            if i == j or key is None:
                continue
            x = alg.from_key(key, rng.choice([1, -1, 2]))
            f = _matmul(alg, f, _elementary(alg, row, i, j, x))
            g = _matmul(alg, _elementary(alg, row, i, j, -x), g)
        terms[t] = [row[p] for p in perm]
        fwd[t], inv[t] = f, g
    diffs = {t: _matmul(alg, _matmul(alg, fwd[t], M.mat(t)), inv[t + 1])
             for t in M.diffs}
    return ProjComplex(alg, terms, diffs)


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


# ----------------------------------------------------------------------
# dense reference: the engine's earlier dense-matrix constructions, kept to
# check the sparse ones against literally


def _zeros(algebra, nrows, ncols):
    return [[algebra.zero() for _ in range(ncols)] for _ in range(nrows)]


def _matmul(algebra, A, B):
    if not A or not B:
        return []
    ncols = len(B[0])
    out = _zeros(algebra, len(A), ncols)
    for r, row in enumerate(A):
        for k, x in enumerate(row):
            if x.is_zero():
                continue
            brow = B[k]
            for c in range(ncols):
                if not brow[c].is_zero():
                    out[r][c] = out[r][c] + x * brow[c]
    return out


def dense_cone(f):
    """Mapping cone of f: M -> K, [[-d_M, f], [0, d_K]], on dense matrices."""
    M, K = f.source, f.target
    alg = M.algebra
    terms = {}
    degrees = {t - 1 for t in M.terms} | set(K.terms)
    for t in degrees:
        row = tuple(M.terms.get(t + 1, ())) + tuple(K.terms.get(t, ()))
        if row:
            terms[t] = row
    diffs = {}
    for t in terms:
        if t + 1 not in terms:
            continue
        m_src = M.terms.get(t + 1, ())
        k_src = K.terms.get(t, ())
        m_tgt = M.terms.get(t + 2, ())
        k_tgt = K.terms.get(t + 1, ())
        mat = _zeros(alg, len(m_src) + len(k_src), len(m_tgt) + len(k_tgt))
        dm = M.mat(t + 1)
        fm = f.mat(t + 1)
        dk = K.mat(t)
        for r in range(len(m_src)):
            for c in range(len(m_tgt)):
                mat[r][c] = -dm[r][c]
            for c in range(len(k_tgt)):
                mat[r][len(m_tgt) + c] = fm[r][c]
        for r in range(len(k_src)):
            for c in range(len(k_tgt)):
                mat[len(m_src) + r][len(m_tgt) + c] = dk[r][c]
        diffs[t] = mat
    return ProjComplex(alg, terms, diffs)


def dense_minimize(M):
    """Gaussian elimination on dense matrices, pivots by (degree, row, column)."""
    alg = M.algebra
    terms = {t: list(row) for t, row in M.terms.items()}
    diffs = {t: M.mat(t) for t in M.diffs}
    for t in sorted(diffs):
        mat = diffs.get(t)
        r = 0
        while mat is not None and r < len(mat):
            for c, x in enumerate(mat[r]):
                inv = alg.invert_local(x)
                if inv is not None:
                    break
            else:
                r += 1
                continue
            col_entries = [mat[rr][c] for rr in range(len(mat))]
            row_entries = list(mat[r])
            for rr in range(len(mat)):
                if rr == r or col_entries[rr].is_zero():
                    continue
                factor = col_entries[rr] * inv
                for cc in range(len(mat[rr])):
                    if cc == c or row_entries[cc].is_zero():
                        continue
                    mat[rr][cc] = mat[rr][cc] - factor * row_entries[cc]
            del terms[t][r]
            del terms[t + 1][c]
            for row in mat:
                del row[c]
            del mat[r]
            if t - 1 in diffs:
                for row in diffs[t - 1]:
                    del row[r]
            if t + 1 in diffs:
                del diffs[t + 1][c]
            for tt in (t - 1, t, t + 1):
                if tt in diffs and (not diffs[tt] or not diffs[tt][0]):
                    del diffs[tt]
            for tt in (t, t + 1):
                if not terms[tt]:
                    del terms[tt]
            mat = diffs.get(t)
    return ProjComplex(alg, terms, diffs)


def dense_hom_to_projective(M, i):
    """RHom(M, P_i) enumerated on its own: the basis path psi in e_j A e_i
    against the summand r = (j, s) of M^t is the vector (r, psi) in
    bidegree (-t, deg(psi) - s), summand by summand in hom_basis order, and
    the differential pre-composes psi with M's dense differential."""
    alg = M.algebra
    alg.check_vertex(i)
    basis, pos = {}, {}
    for t, row in M.terms.items():
        vecs = [(alg.deg[key] - s, (r, key))
                for r, (j, s) in enumerate(row) for key in alg.hom_basis(j, i)]
        if vecs:
            basis[-t] = vecs
            pos[-t] = {label: k for k, (_d, label) in enumerate(vecs)}
    rows = {}
    for t in M.diffs:
        if -t - 1 in basis and -t in basis:
            d = M.mat(t)
            rows[-t - 1] = [{} for _ in basis[-t - 1]]
            for k, (_d, (b, key)) in enumerate(basis[-t - 1]):
                for a, drow in enumerate(d):
                    for key2, x in (drow[b] * alg.from_key(key)).coeffs.items():
                        rows[-t - 1][k][pos[-t][(a, key2)]] = raw(x)
    return GradedVectorComplex(alg.field, basis, rows)


def dense_tensor_projective(i, H, M, dual=False):
    """P_i (x) H with its (co-)evaluation matrices, from H's dense view."""
    alg = M.algebra
    sign = -1 if dual else 1
    terms = {}
    maps = {}
    for m, row in H.basis.items():
        t = sign * m
        terms[t] = [(i, sign * s) for s, _label in row]
        mat = _zeros(alg, len(row), len(M.terms[t]))
        for idx, (_s, (r, key)) in enumerate(row):
            mat[idx][r] = alg.from_key(key)
        maps[t] = [list(col) for col in zip(*mat)] if dual else mat
    diffs = {}
    for m, mat in H.diffs.items():
        if dual:
            m, mat = -m - 1, zip(*mat)
        diffs[m] = [[alg.from_key(("e", i), x) for x in row] for row in mat]
    return ProjComplex(alg, terms, diffs), maps


def dense_twist(i, M):
    if M.is_zero():
        return M
    tensor, ev = dense_tensor_projective(i, hom_from_projective(i, M), M)
    return dense_minimize(dense_cone(ChainMap(tensor, M, ev)))


def dense_untwist(i, M):
    if M.is_zero():
        return M
    tensor, coev = dense_tensor_projective(i, dense_hom_to_projective(M, i), M,
                                           dual=True)
    cone = dense_cone(ChainMap(M, tensor, coev))
    return dense_minimize(cone.shift(-1, 0))


# ----------------------------------------------------------------------
# glued reference: the twists through the hom complex RHom(P_i, M), one
# block-form ``_glue`` of M and the copies of P_i, and ``minimize`` on
# copied rows


def _glue(alg, A, dA, f, B, dB):
    """The complex A (+) B with differential [[dA, f], [0, dB]], A's
    summands first in each degree.  A and B map degrees to tuples of
    summands, dA and dB degrees to dict rows, f degrees to the triples
    (row, column, scalar) of A^t -> B^{t+1}.  The result takes over dA's
    rows and writes f's entries into them; it writes B's rows anew, their
    columns shifted past A's: the layout of ``cone``."""
    terms = {t: A.get(t, ()) + B.get(t, ()) for t in A.keys() | B.keys()}
    rows = {}
    for t in terms:
        if t + 1 not in terms:
            continue
        off = len(A.get(t + 1, ()))
        mat = rows[t] = dA.get(t) or [{} for _ in A.get(t, ())]
        for r, c, x in f.get(t, ()):
            mat[r][off + c] = x
        db = dB.get(t) or [{} for _ in B.get(t, ())]
        mat.extend([{off + c: x for c, x in row.items()} for row in db])
    return ProjComplex._from_rows(alg, terms, rows)


def _glued(i, M, dual):
    alg = M.algebra
    H = hom_from_projective(i, M)
    if not H.basis:
        return minimize(M)
    mod = alg.field.char or 0
    basis, rows = H.basis, H._rows
    if dual:  # each summand's vectors in the order hom_basis lists their duals
        perm = {t: sorted(range(len(v)), key=lambda k: (v[k][1][0], -v[k][0]))
                for t, v in basis.items()}
        new = {t: {k: a for a, k in enumerate(p)} for t, p in perm.items()}
        rows = {t: [{new[t + 1][c]: x for c, x in mat[k].items()} for k in perm[t]]
                for t, mat in rows.items()}
        basis = {t: [basis[t][k] for k in p] for t, p in perm.items()}
    dt, ds = (1, -alg.params.N) if dual else (-1, 0)
    copies = {t + dt: tuple((i, d + ds) for d, _l in vecs) for t, vecs in basis.items()}
    dH = {t + dt: [{c: mod - x for c, x in row.items()} for row in mat]
          for t, mat in rows.items()}
    if not dual:
        ev = {t - 1: [(k, r, 1) for k, (_d, (r, _key)) in enumerate(vecs)]
              for t, vecs in basis.items()}
        return minimize(_glue(alg, copies, dH, ev, M.terms, M._rows))
    coev = {t: [(r, k, mod - 1) for k, (_d, (r, _key)) in enumerate(vecs)]
            for t, vecs in basis.items()}
    # _glue takes over the rows of its first block: hand it copies of M's
    rows = {t: [dict(row) for row in mat] for t, mat in M._rows.items()}
    return minimize(_glue(alg, M.terms, rows, coev, copies, dH))


def glued_twist(i, M):
    return _glued(i, M, dual=False)


def glued_untwist(i, M):
    return _glued(i, M, dual=True)


def laurent_identity(n):
    return [
        [LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(n)]
        for i in range(n)
    ]


def laurent_mat_mul(A, B):
    n = len(A)
    m = len(B[0]) if B else 0
    k = len(B)
    return [
        [
            sum((A[i][t] * B[t][j] for t in range(k)), LaurentPoly.zero())
            for j in range(m)
        ]
        for i in range(n)
    ]


def dense_burau_letter(g, algebra):
    n = algebra.params.n
    i = abs(g)
    algebra.check_vertex(i)
    mat = laurent_identity(n)
    for j in range(1, n + 1):
        if g > 0:
            pairing = chi_q(algebra, i, j)
        else:
            pairing = chi_q(algebra, j, i).substitute_inverse()
        mat[i - 1][j - 1] = mat[i - 1][j - 1] - pairing
    return mat


def dense_burau_matrix(letters, algebra):
    """The product of full letter matrices, one laurent_mat_mul per letter."""
    out = laurent_identity(algebra.params.n)
    for g in letters:
        out = laurent_mat_mul(dense_burau_letter(g, algebra), out)
    return out


@dataclass(frozen=True)
class DenseLattice:
    """The dense-form lattice that ``IntersectionLattice`` replaced: the same
    checks, in the same order, with the same messages, on a tuple of rows."""

    form: tuple

    def __post_init__(self):
        if not isinstance(self.form, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in self.form
        ):
            raise ValueError("form matrix must be a list of rows")
        for row in self.form:
            for x in row:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise ValueError("form entry %r is not an integer" % (x,))
        form = tuple(tuple(row) for row in self.form)
        r = len(form)
        if any(len(row) != r for row in form):
            raise ValueError("form matrix must be square")
        for i in range(r):
            for j in range(r):
                if form[i][j] != form[j][i]:
                    raise ValueError("form matrix must be symmetric")
        object.__setattr__(self, "form", form)

    @property
    def rank(self):
        return len(self.form)

    def pairing(self, x, y):
        return sum(
            x[i] * self.form[i][j] * y[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def to_dict(self):
        return {"rank": self.rank, "form": [list(row) for row in self.form]}


# The five record classes as the @dataclass definitions that plain classes
# replaced, the references for their repr, ==, hash, frozenness and
# defaults.  Each sets __qualname__ to the real class's name, which the
# dataclass repr prints, so equal fields give equal repr strings.


@dataclass(frozen=True)
class DataclassChainParams:
    __qualname__ = "ChainParams"

    n: int
    N: int
    edge_degrees: tuple = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one chain object, got n=%r" % (self.n,))
        if self.N < 2:
            raise ValueError("spherical dimension must be >= 2, got N=%r" % (self.N,))
        degs = self.edge_degrees
        if degs is None:
            degs = tuple(1 for _ in range(self.n - 1))
        else:
            degs = tuple(degs)
        if len(degs) != self.n - 1:
            raise ValueError(
                "expected %d edge degrees, got %d" % (self.n - 1, len(degs))
            )
        for d in degs:
            if not 1 <= d <= self.N - 1:
                raise ValueError("edge degree %r outside [1, %d]" % (d, self.N - 1))
        object.__setattr__(self, "edge_degrees", degs)


@dataclass(frozen=True)
class DataclassDefinitenessReport:
    __qualname__ = "DefinitenessReport"

    verdict: str
    signature: tuple
    kernel_rank: int


@dataclass
class DataclassRelationCheck:
    __qualname__ = "RelationCheck"

    relation: str
    object_vertex: int
    passed: bool


@dataclass
class DataclassRelationReport:
    __qualname__ = "RelationReport"

    checks: list = field(default_factory=list)


@dataclass
class DataclassComparisonReport:
    __qualname__ = "ComparisonReport"

    word1: list
    word2: list
    distinct: bool
    witness_vertex: int = None
    witness_invariant: str = None
    per_vertex: dict = field(default_factory=dict)
    hom_matrices: tuple = None


DATACLASS_RECORDS = SimpleNamespace(
    ChainParams=DataclassChainParams,
    DefinitenessReport=DataclassDefinitenessReport,
    RelationCheck=DataclassRelationCheck,
    RelationReport=DataclassRelationReport,
    ComparisonReport=DataclassComparisonReport,
)


def dense_tdiagram(b1, b2, b3):
    """The dense form of T(b1, b2, b3), entry by entry: node 0 is the centre
    and each arm numbers its nodes outwards."""
    rank = b1 + b2 + b3 - 2
    form = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        form[i][i] = -2
    node = 1
    for b in (b1, b2, b3):
        prev = 0
        for _ in range(b - 1):
            form[prev][node] = form[node][prev] = 1
            prev = node
            node += 1
    return form


def dense_pl_reflection(v, lattice):
    """The reflection matrix from the dense pairing of every column with v."""
    if lattice.pairing(v, v) != -2:
        raise ValueError("reflection vector must have square -2, got %d"
                         % lattice.pairing(v, v))
    r = lattice.rank
    out = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    for j in range(r):
        ej = [1 if k == j else 0 for k in range(r)]
        c = lattice.pairing(ej, v)
        for i in range(r):
            out[i][j] += c * v[i]
    return out


def dense_pl_product(letters, n):
    lattice = DenseLattice(an_minus2_lattice(n).form)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for g in letters:
        i = abs(g)
        if not 1 <= i <= n:
            raise ValueError("letter %r out of range" % (g,))
        v = [1 if k == i - 1 else 0 for k in range(n)]
        out = imat_mul(dense_pl_reflection(v, lattice), out)
    return out


def dense_definiteness(lattice):
    """Congruence diagonalization on the full Fraction matrix, pivoting in
    index order: the first active index with a nonzero diagonal, else the
    first pair (i, j) with A[i][j] != 0 for e_i -> e_i + e_j.
    ``ktheory.definiteness`` pivots in minimum-degree order instead; by
    Sylvester's law of inertia both give the same report."""
    r = lattice.rank
    A = [[Fraction(x) for x in row] for row in lattice.form]
    active = list(range(r))
    pos = neg = zero = 0
    while active:
        k = next((i for i in active if A[i][i] != 0), None)
        if k is None:
            pair = next(
                (
                    (i, j)
                    for i in active
                    for j in active
                    if i != j and A[i][j] != 0
                ),
                None,
            )
            if pair is None:
                zero += len(active)
                break
            i, j = pair
            for c in range(r):
                A[i][c] += A[j][c]
            for c in range(r):
                A[c][i] += A[c][j]
            continue
        pivot = A[k][k]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        active.remove(k)
        for i in active:
            if A[i][k] == 0:
                continue
            factor = A[i][k] / pivot
            for j in active:
                A[i][j] -= factor * A[k][j]
    if pos == 0 and zero == 0:
        verdict = "negative_definite"
    elif pos == 0:
        verdict = "negative_semidefinite"
    else:
        verdict = "indefinite"
    return DefinitenessReport(verdict, (pos, neg, zero), zero)


def dense_nullspace(rows, ncols, field):
    """Kernel basis of dense rows by textbook reduced row echelon form in
    public scalars: the vector for a free column is 1 there, 0 at the other
    free columns, and minus that column's entry of each reduced pivot row
    at its pivot."""
    m = [[field.of(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        p = next((i for i in range(len(pivots), len(m)) if m[i][c]), None)
        if p is None:
            continue
        r = len(pivots)
        m[r], m[p] = m[p], m[r]
        inv = field.one / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [field.zero] * ncols
            v[fc] = field.one
            for r, c in enumerate(pivots):
                v[c] = -m[r][fc]
            basis.append(v)
    return basis
