"""Decategorified shadows: graded Euler characteristics, Burau-type
matrices, Picard-Lefschetz reflections, star-shaped T(b1,b2,b3) lattices
and the elliptic-curve action on (rank, degree) vectors.

Orientation convention: matrices act on column vectors, and a word
[g1, g2] acts left to right, so its matrix is B(g2).B(g1).
"""

import re
from dataclasses import dataclass
from fractions import Fraction

from .laurent import (
    LaurentPoly,
    laurent_identity,
    laurent_mat_mul,
)


# ----------------------------------------------------------------------
# graded Euler characteristics and Burau matrices


def euler_class(M):
    """Graded Euler characteristic: component i is
    sum over (t, s) of (-1)^t q^s (multiplicity of P_i<s> in degree t)."""
    n = M.algebra.params.n
    out = [LaurentPoly.zero() for _ in range(n)]
    for t, row in M.terms.items():
        sign = -1 if t % 2 else 1
        for v, s in row:
            out[v - 1] = out[v - 1] + LaurentPoly.q(s, sign)
    return out


def chi_q(algebra, i, j):
    """Graded hom pairing: sum of q^deg over the basis of e_i A e_j."""
    out = LaurentPoly.zero()
    for d, dim in algebra.hom_space(i, j).items():
        out = out + LaurentPoly.q(d, dim)
    return out


def burau_letter(g, algebra):
    """Matrix of a single twist letter on Euler classes.

    The twist at i acts by [M] -> [M] - chi_q(P_i, M) [P_i]; its inverse
    uses the dual pairing, which substitutes q -> q^{-1} and transposes
    the hom direction.
    """
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


def burau_matrix(letters, algebra):
    """Matrix of a braid word on Euler classes (column action)."""
    n = algebra.params.n
    out = laurent_identity(n)
    for g in letters:
        out = laurent_mat_mul(burau_letter(g, algebra), out)
    return out


# ----------------------------------------------------------------------
# intersection lattices and Picard-Lefschetz reflections


@dataclass(frozen=True)
class IntersectionLattice:
    """A free abelian group with a symmetric integer bilinear form."""

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


def an_minus2_lattice(n):
    """The A_n root lattice with all spheres of square -2 (adjacency +1)."""
    form = [[0] * n for _ in range(n)]
    for i in range(n):
        form[i][i] = -2
        if i + 1 < n:
            form[i][i + 1] = form[i + 1][i] = 1
    return IntersectionLattice(tuple(tuple(r) for r in form))


def pl_reflection(v, lattice):
    """Reflection x -> x + <x, v> v in a -2-vector, as a column-action matrix."""
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


def pl_product(letters, n):
    """Product of A_n basis reflections for a braid word (column action)."""
    lattice = an_minus2_lattice(n)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for g in letters:
        i = abs(g)
        if not 1 <= i <= n:
            raise ValueError("letter %r out of range" % (g,))
        v = [1 if k == i - 1 else 0 for k in range(n)]
        out = imat_mul(pl_reflection(v, lattice), out)
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
    form = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        form[i][i] = -2
    node = 1
    for b in bs:
        prev = 0  # central node
        for _ in range(b - 1):
            form[prev][node] = form[node][prev] = 1
            prev = node
            node += 1
    return IntersectionLattice(tuple(tuple(r) for r in form))


@dataclass(frozen=True)
class DefinitenessReport:
    verdict: str  # negative_definite | negative_semidefinite | indefinite
    signature: tuple  # (positive, negative, zero) inertia indices
    kernel_rank: int

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "signature": list(self.signature),
            "kernel_rank": self.kernel_rank,
        }


def definiteness(lattice):
    """Exact inertia of the form via rational congruence diagonalization.

    No floating point: works over Fractions, handling zero diagonals with
    the hyperbolic-pair basis change e_i -> e_i + e_j.
    """
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
            # e_i -> e_i + e_j makes the diagonal entry 2*A[i][j] != 0
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


def _imat_pow(m, k):
    if k < 0:
        return _imat_pow(_imat_inverse_det1(m), -k)
    out = imat_identity(2)
    for _ in range(k):
        out = imat_mul(m, out)
    return out


_TOKEN = re.compile(r"\(|\)|\^-?\d+|[A-Za-z]+")


def parse_elliptic_word(text):
    """Parse a word over {O, Op, L} with inverses, ^k powers and groups.

    Examples: ``O Op``, ``L^-1 O``, ``(O Op)^6``.  Returns a list of
    (letter, exponent) pairs with groups expanded.
    """
    tokens = _TOKEN.findall(text)
    if "".join(tokens).replace(" ", "") != text.replace(" ", ""):
        raise ValueError("malformed elliptic word %r" % (text,))
    pos = 0

    def parse_seq(depth):
        nonlocal pos
        out = []
        while pos < len(tokens):
            tok = tokens[pos]
            if tok == ")":
                if depth == 0:
                    raise ValueError("unbalanced ')' in elliptic word")
                return out
            pos += 1
            if tok == "(":
                group = parse_seq(depth + 1)
                if pos >= len(tokens) or tokens[pos] != ")":
                    raise ValueError("unbalanced '(' in elliptic word")
                pos += 1
                k = 1
                if pos < len(tokens) and tokens[pos].startswith("^"):
                    k = int(tokens[pos][1:])
                    pos += 1
                if k >= 0:
                    out.extend(group * k)
                else:
                    inverse = [(name, -e) for name, e in reversed(group)]
                    out.extend(inverse * (-k))
            elif tok.startswith("^"):
                raise ValueError("exponent without a base in elliptic word")
            else:
                if tok not in ELLIPTIC_GENERATORS:
                    raise ValueError("unknown elliptic generator %r" % (tok,))
                k = 1
                if pos < len(tokens) and tokens[pos].startswith("^"):
                    k = int(tokens[pos][1:])
                    pos += 1
                out.append((tok, k))
        if depth != 0:
            raise ValueError("unbalanced '(' in elliptic word")
        return out

    return parse_seq(0)


def elliptic_word(word):
    """Matrix of a word over the elliptic generators (column action,
    letters applied left to right).  Accepts text or (letter, exp) pairs."""
    if isinstance(word, str):
        word = parse_elliptic_word(word)
    out = imat_identity(2)
    for name, k in word:
        out = imat_mul(_imat_pow(elliptic_generator(name), k), out)
    return out
