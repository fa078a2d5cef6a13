"""Decategorified shadows: graded Euler characteristics, Burau-type
matrices, Picard-Lefschetz reflections, star-shaped T(b1,b2,b3) lattices
and the elliptic-curve action on (rank, degree) vectors.

Orientation convention: matrices act on column vectors, and a word
[g1, g2] acts left to right, so its matrix is B(g2).B(g1).
"""

import re
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from operator import add, sub

from .algebra import _FrozenRecord
from .laurent import LaurentPoly
from .linalg import _add


# ----------------------------------------------------------------------
# graded Euler characteristics and Burau matrices


def euler_class(M):
    """Graded Euler characteristic: component i is
    sum over (t, s) of (-1)^t q^s (multiplicity of P_i<s> in degree t).

    Each component is summed as one {exponent: coefficient} dict and
    wrapped in LaurentPoly once."""
    out = [{} for _ in range(M.algebra.params.n)]
    for t, row in M.terms.items():
        sign = -1 if t % 2 else 1
        for v, s in row:
            acc = out[v - 1]
            acc[s] = acc.get(s, 0) + sign
    return [LaurentPoly(acc) for acc in out]


def chi_q(algebra, i, j):
    """Graded hom pairing: sum of q^deg over the basis of e_i A e_j."""
    return LaurentPoly(algebra.hom_space(i, j))


def _letter_row(g, algebra):
    """Row |g| of the matrix of letter g, as (i, e, neighbours): the
    diagonal entry is -q^e at row and column i (0-based), and each
    neighbour (j, e_j) is the entry -q^(e_j) at column j.

    The twist at i acts by [M] -> [M] - chi_q(P_i, M) [P_i]; its inverse
    uses the dual pairing, which substitutes q -> q^{-1} and transposes
    the hom direction.  Every other row is the identity's, and the row is
    nonzero only where e_i A e_j is, at j = i-1, i, i+1.  Each entry is a
    monomial: e_i A e_i = span{e_i, l_i} makes the diagonal 1 - (1 + q^N)
    = -q^N (q^-N for the inverse), and e_i A e_j is the one arrow a_ij, so
    the entry is -q^(deg a_ij) (-q^(-deg a_ji) for the inverse).
    """
    i = abs(g)
    algebra.check_vertex(i)
    N = algebra.params.N
    deg = algebra.deg
    neighbours = tuple(
        (j - 1, deg["a", i, j] if g > 0 else -deg["a", j, i])
        for j in (i - 1, i + 1) if 1 <= j <= algebra.params.n)
    return i - 1, N if g > 0 else -N, neighbours


def _trim(row, low, i):
    """Drop the zero margin of row i of ``burau_matrix``: each list's
    trailing zeros, then the leading zeros its nonzero lists share."""
    for a in row:
        while a and not a[-1]:
            a.pop()
    lead = min((next(k for k, x in enumerate(a) if x) for a in row if a), default=0)
    if lead:
        for a in row:
            if a:
                del a[:lead]
        low[i] += lead


def burau_matrix(letters, algebra):
    """Matrix of a braid word on Euler classes (column action).

    A letter changes one row of the product: row i = |g| becomes its letter
    row times the product, which reads at most three rows.  Row r is kept
    as a sign, a lowest exponent low[r] and one dense coefficient list per
    column, whose index k holds the coefficient of q^(low[r] + k) divided
    by the sign; an empty list is a zero entry.  The letter's diagonal
    entry is the monomial -q^(±N) (see _letter_row), so it only flips row
    i's sign and moves low[i].  Each neighbour entry -q^e is added into
    row i's lists in place, one slice per column, after padding them at
    the front when the neighbour reaches below low[i]; after a letter that
    padded, row i's zero margin is dropped (``_trim``).  Each entry is
    wrapped in LaurentPoly once, at the end.
    """
    n = algebra.params.n
    sign = [1] * n
    low = [0] * n
    out = [[[1] if r == c else [] for c in range(n)] for r in range(n)]
    steps = {}
    for g in letters:
        step = steps.get(g)
        if step is None:
            step = steps[g] = _letter_row(g, algebra)
        i, e, neighbours = step
        sign[i] = -sign[i]
        low[i] += e
        row = out[i]
        padded = False
        for j, e_j in neighbours:
            shift = low[j] + e_j - low[i]
            if shift < 0:
                pad = [0] * -shift
                for a in row:
                    if a:
                        a[:0] = pad
                low[i] += shift
                shift = 0
                padded = True
            op = sub if sign[i] == sign[j] else add
            for a, b in zip(row, out[j]):
                if b:
                    end = shift + len(b)
                    if len(a) < end:
                        a.extend([0] * (end - len(a)))
                    a[shift:end] = map(op, a[shift:end], b)
        if padded:
            _trim(row, low, i)
    return [
        [LaurentPoly({lo + k: s * x for k, x in enumerate(a) if x}) for a in row]
        for row, s, lo in zip(out, sign, low)
    ]


# ----------------------------------------------------------------------
# intersection lattices and Picard-Lefschetz reflections


class IntersectionLattice:
    """A free abelian group with a symmetric integer bilinear form.

    The form is held as one dict row {j: x} of nonzero entries per basis
    vector.  ``form`` is a dense tuple-of-tuples view of it, built on first
    use; only ``to_dict`` needs it.
    """

    def __init__(self, form):
        if not isinstance(form, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in form
        ):
            raise ValueError("form matrix must be a list of rows")
        for row in form:
            for x in row:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise ValueError("form entry %r is not an integer" % (x,))
        r = len(form)
        if any(len(row) != r for row in form):
            raise ValueError("form matrix must be square")
        rows = [{j: x for j, x in enumerate(row) if x} for row in form]
        for i, row in enumerate(rows):
            for j, x in row.items():
                if rows[j].get(i, 0) != x:
                    raise ValueError("form matrix must be symmetric")
        self._rows = rows

    @classmethod
    def _from_rows(cls, rows):
        """Unvalidated constructor from symmetric dict rows of nonzero
        integer entries."""
        self = cls.__new__(cls)
        self._rows = rows
        return self

    @cached_property
    def form(self):
        r = len(self._rows)
        dense = []
        for row in self._rows:
            line = [0] * r
            for j, x in row.items():
                line[j] = x
            dense.append(tuple(line))
        return tuple(dense)

    @property
    def rank(self):
        return len(self._rows)

    def pairing(self, x, y):
        return sum(
            x[i] * a * y[j]
            for i, row in enumerate(self._rows)
            for j, a in row.items()
        )

    def to_dict(self):
        return {"rank": self.rank, "form": [list(row) for row in self.form]}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        return hash(tuple(frozenset(row.items()) for row in self._rows))

    def __repr__(self):
        return "IntersectionLattice(form=%r)" % (self.form,)


def an_minus2_lattice(n):
    """The A_n root lattice with all spheres of square -2 (adjacency +1)."""
    rows = [{i: -2} for i in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = rows[i + 1][i] = 1
    return IntersectionLattice._from_rows(rows)


def pl_reflection(v, lattice):
    """Reflection x -> x + <x, v> v in a -2-vector, as a column-action matrix.

    Its matrix is I + v w^T with w = form.v, summed from the rows of the
    nonzero entries of v only.
    """
    r = lattice.rank
    support = [(k, v[k]) for k in range(r) if v[k]]
    w = [0] * r
    for k, x in support:
        for j, a in lattice._rows[k].items():
            w[j] += a * x
    square = sum(x * w[k] for k, x in support)
    if square != -2:
        raise ValueError("reflection vector must have square -2, got %d" % square)
    return [
        [(1 if i == j else 0) + c * v[i] for j, c in enumerate(w)]
        for i in range(r)
    ]


def pl_product(letters, n):
    """Product of A_n basis reflections for a braid word (column action).

    The reflection in e_i changes one row of the product: row i gains
    sum_j form[i][j] * row j, added in one pass per nonzero form[i][j].
    """
    rows = an_minus2_lattice(n)._rows
    out = imat_identity(n)
    for g in letters:
        i = abs(g)
        if not 1 <= i <= n:
            raise ValueError("letter %r out of range" % (g,))
        new = out[i - 1]
        for j, c in rows[i - 1].items():
            new = [x + c * y for x, y in zip(new, out[j])]
        out[i - 1] = new
    return out


def build_tdiagram(b1, b2, b3):
    """Star-shaped -2-sphere lattice T(b1, b2, b3).

    The central sphere is counted in each arm, so the rank is
    1 + sum(b_i - 1) = b1 + b2 + b3 - 2.
    """
    bs = (b1, b2, b3)
    for b in bs:
        if b < 2:
            raise ValueError("arm lengths must be >= 2, got %r" % (b,))
    rank = sum(bs) - 2
    rows = [{i: -2} for i in range(rank)]
    node = 1
    for b in bs:
        prev = 0  # central node
        for _ in range(b - 1):
            rows[prev][node] = rows[node][prev] = 1
            prev = node
            node += 1
    return IntersectionLattice._from_rows(rows)


class DefinitenessReport(_FrozenRecord):
    """The verdict (negative_definite, negative_semidefinite or indefinite),
    the inertia indices (positive, negative, zero) as ``signature``, and
    the kernel rank.

    Frozen: equal and hashed by its fields, and assignment raises
    AttributeError.
    """

    __match_args__ = ("verdict", "signature", "kernel_rank")

    def __init__(self, verdict, signature, kernel_rank):
        self.__dict__.update(verdict=verdict, signature=signature,
                             kernel_rank=kernel_rank)

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "signature": list(self.signature),
            "kernel_rank": self.kernel_rank,
        }


def definiteness(lattice):
    """Exact inertia of the form via sparse rational congruence
    diagonalization.

    No floating point: works on dict rows that hold only the nonzero
    entries among the active indices, ints until an exact Fraction
    multiplier meets them.  The form stays symmetric, so row k also serves
    as column k.  An eliminated index keeps an empty row, and an empty row
    stays empty, since no other row has an entry in its column.

    Pivot: the active index with a nonzero diagonal and the fewest
    entries, ties broken by the lower index (minimum-degree order).  A heap
    of (entries, index) finds it with lazy deletion: an entry whose row has
    since lost its diagonal or changed its count is skipped when popped,
    and every row a step changes is pushed afresh.  On a tree, such as a
    T-diagram or A_n, this takes a leaf each time and makes no fill-in
    (Rose, J. Math. Anal. Appl. 32, 1970).  When no diagonal is nonzero,
    the first nonempty row i and its lowest neighbour j take the
    hyperbolic-pair basis change e_i -> e_i + e_j, which makes the diagonal
    entry 2*A[i][j] != 0; past the last nonempty row, the active indices
    left span the kernel.

    Every step is a congruence, so by Sylvester's law of inertia the
    signature, and with it the verdict and the kernel rank, does not depend
    on the pivot order.
    """
    A = [dict(row) for row in lattice._rows]
    left = len(A)
    heap = [(len(row), i) for i, row in enumerate(A) if i in row]
    heapify(heap)
    first = 0  # every row below it is empty for good
    pos = neg = 0
    while left:
        k = None
        while heap:
            size, i = heappop(heap)
            if i in A[i] and len(A[i]) == size:
                k = i
                break
        if k is None:
            while first < len(A) and not A[first]:
                first += 1
            if first == len(A):
                break
            i = first
            row_i = A[i]
            j = min(row_i)
            diag = 2 * row_i[j]  # A[i][i] = A[j][j] = 0
            for c, x in A[j].items():
                if c != i:
                    _add(row_i, c, x, 0)
                    _add(A[c], i, x, 0)
            row_i[i] = diag
            heappush(heap, (len(row_i), i))
            continue
        row_k = A[k]
        A[k] = {}
        pivot = row_k.pop(k)
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        left -= 1
        for i, a in row_k.items():
            row_i = A[i]
            del row_i[k]
            factor = Fraction(a, pivot)
            for j, b in row_k.items():
                _add(row_i, j, -factor * b, 0)
            if i in row_i:
                heappush(heap, (len(row_i), i))
    zero = left
    if pos == 0 and zero == 0:
        verdict = "negative_definite"
    elif pos == 0:
        verdict = "negative_semidefinite"
    else:
        verdict = "indefinite"
    return DefinitenessReport(verdict, (pos, neg, zero), zero)


def strange_duality_rank_check(b, c):
    """True iff rank T(b) + rank T(c) + 2 equals 22 (the K3 second Betti
    number), i.e. sum(b) + sum(c) = 24."""
    rb = build_tdiagram(*b).rank
    rc = build_tdiagram(*c).rank
    return rb + rc + 2 == 22


# ----------------------------------------------------------------------
# elliptic-curve shadow on (rank, degree) vectors


def imat_mul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def imat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _twist_matrix(s):
    """Matrix of v -> v - chi(s, v) s with chi((r,d),(r',d')) = rd' - dr'."""
    r0, d0 = s
    # chi(s, (r, d)) = r0*d - d0*r
    return [
        [1 + d0 * r0, -r0 * r0],
        [d0 * d0, 1 - r0 * d0],
    ]


ELLIPTIC_GENERATORS = {
    "O": _twist_matrix((1, 0)),   # twist by the structure sheaf
    "Op": _twist_matrix((0, 1)),  # twist by a point sheaf
    "L": _twist_matrix((1, 0)),   # twist by a degree-0 line bundle
}


def elliptic_generator(name):
    """2x2 integer matrix of a generator on column vectors (rank, degree)."""
    try:
        return [list(row) for row in ELLIPTIC_GENERATORS[name]]
    except KeyError:
        raise ValueError(
            "unknown elliptic generator %r (expected one of O, Op, L)" % (name,)
        )


def _imat_inverse_det1(m):
    (a, b), (c, d) = m
    det = a * d - b * c
    if det != 1:
        raise ValueError("matrix is not in SL(2,Z)")
    return [[d, -b], [-c, a]]


# An elliptic word whose product reaches an entry this large is refused:
# Python prints no integer of more than 4300 digits, and a hyperbolic word's
# entries grow exponentially in its exponent.
ELLIPTIC_MAX_ENTRY = 10**4300


def _elliptic_mul(A, B):
    """A . B for 2x2 integer matrices, refusing entries of
    ELLIPTIC_MAX_ENTRY or more."""
    (a, b), (c, d) = A
    (e, f), (g, h) = B
    out = [[a * e + b * g, a * f + b * h], [c * e + d * g, c * f + d * h]]
    if max(map(abs, out[0] + out[1])) >= ELLIPTIC_MAX_ENTRY:
        raise ValueError("elliptic word has a matrix entry of 10^4300 or more")
    return out


def _imat_pow(m, k):
    if k < 0:
        return _imat_pow(_imat_inverse_det1(m), -k)
    out = imat_identity(2)
    while k:  # square-and-multiply; powers of m commute with each other
        if k & 1:
            out = _elliptic_mul(m, out)
        k >>= 1
        if k:  # the square after the last bit would go unused
            m = _elliptic_mul(m, m)
    return out


_TOKEN = re.compile(r"\(|\)|\^-?\d+|[A-Za-z]+")


def elliptic_word(word):
    """Matrix of a word over the elliptic generators, such as
    ``"(O Op)^6 L^-1"`` (column action, letters applied left to right).

    The word is evaluated as its tokens are read.  A stack holds the
    running product of each open group, outermost first, so nesting depth
    is bounded by memory only, not by the interpreter's recursion limit.
    A generator, or a group once it closes, is raised to its exponent by
    squaring, so ``(O Op)^k`` costs O(log k) matrix products, and
    multiplied into the product of the enclosing group.  Raises ValueError
    on a malformed word, and once a product has an entry of
    ``ELLIPTIC_MAX_ENTRY`` (10^4300) or more.
    """
    tokens = _TOKEN.findall(word)
    if "".join(tokens).replace(" ", "") != word.replace(" ", ""):
        raise ValueError("malformed elliptic word %r" % (word,))
    stack = [imat_identity(2)]
    pos = 0
    while pos < len(tokens):
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            stack.append(imat_identity(2))
            continue
        if tok.startswith("^"):
            raise ValueError("exponent without a base in elliptic word")
        if tok == ")":
            if len(stack) == 1:
                raise ValueError("unbalanced ')' in elliptic word")
            base = stack.pop()
        elif tok in ELLIPTIC_GENERATORS:
            base = ELLIPTIC_GENERATORS[tok]
        else:
            raise ValueError("unknown elliptic generator %r" % (tok,))
        k = 1
        if pos < len(tokens) and tokens[pos].startswith("^"):
            k = int(tokens[pos][1:])
            pos += 1
        stack[-1] = _elliptic_mul(_imat_pow(base, k), stack[-1])
    if len(stack) != 1:
        raise ValueError("unbalanced '(' in elliptic word")
    return stack[0]
