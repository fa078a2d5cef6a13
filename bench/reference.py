"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``sphtwist``.  Each function recomputes a quantity
from the mathematics (the zigzag relations, the q-Burau recurrence, the
Fibonacci growth of the ladder, exact elimination) so that a check never
compares the program against itself or against a stored copy of its output.

Laurent polynomials are dicts {exponent: integer coefficient}; algebra
elements are dicts {basis key: scalar} with keys ('e', i), ('a', i, j) and
('l', i), the same path names the program uses.
"""

from fractions import Fraction


# ----------------------------------------------------------------------
# sparse combinations and Laurent polynomials


def combine(a, b, sign=1):
    """a + sign*b for sparse combinations {key: coefficient}."""
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + sign * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def lp_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            s = out.get(e1 + e2, 0) + c1 * c2
            if s:
                out[e1 + e2] = s
            else:
                out.pop(e1 + e2, None)
    return out


def lp_invert_q(a):
    return {-e: c for e, c in a.items()}


# ----------------------------------------------------------------------
# the chain algebra, recomputed from its relations


class Chain:
    """Degrees and products of basis paths of the A_n zigzag algebra."""

    def __init__(self, n, N=2, degrees=None):
        self.n = n
        self.N = N
        self.degrees = tuple(degrees) if degrees else (1,) * (n - 1)

    def ends(self, key):
        if key[0] == "a":
            return key[1], key[2]
        return key[1], key[1]

    def deg(self, key):
        if key[0] == "e":
            return 0
        if key[0] == "l":
            return self.N
        i, j = key[1], key[2]
        d = self.degrees[min(i, j) - 1]
        return d if j == i + 1 else self.N - d

    def paths(self, i, j):
        """Basis paths from i to j."""
        if i == j:
            return [("e", i), ("l", i)]
        if abs(i - j) == 1:
            return [("a", i, j)]
        return []

    def key_mul(self, x, y):
        if self.ends(x)[1] != self.ends(y)[0]:
            return None
        if x[0] == "e":
            return y
        if y[0] == "e":
            return x
        if x[0] == "a" and y[0] == "a" and y[2] == x[1]:
            return ("l", x[1])
        return None

    def mul(self, x, y):
        """Product of two elements given as {key: scalar}."""
        out = {}
        for k1, c1 in x.items():
            for k2, c2 in y.items():
                k = self.key_mul(k1, k2)
                if k is None:
                    continue
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return out

    def chi(self, i, j):
        """Graded dimension of e_i A e_j as a Laurent polynomial."""
        out = {}
        for key in self.paths(i, j):
            out = combine(out, {self.deg(key): 1})
        return out

    def flip(self, word):
        """The mirror word under the diagram automorphism i -> n+1-i."""
        return [(1 if g > 0 else -1) * (self.n + 1 - abs(g)) for g in word]


def burau_column(chain, word, k):
    """q-Burau image of [P_k] under a word acting left to right.

    The twist at i sends a class x to x - (sum_j chi(i,j) x_j) e_i; its
    inverse uses chi(j,i) with q inverted.
    """
    col = [dict() for _ in range(chain.n)]
    col[k - 1] = {0: 1}
    for g in word:
        i = abs(g)
        pairing = {}
        for j in range(1, chain.n + 1):
            if not col[j - 1]:
                continue
            c = chain.chi(i, j) if g > 0 else lp_invert_q(chain.chi(j, i))
            pairing = combine(pairing, lp_mul(c, col[j - 1]))
        col[i - 1] = combine(col[i - 1], pairing, -1)
    return col


def burau_product(chain, word):
    """Full q-Burau matrix of a word, built column by column."""
    cols = [burau_column(chain, word, k) for k in range(1, chain.n + 1)]
    return [[cols[c][r] for c in range(chain.n)] for r in range(chain.n)]


def hom_pairing(chain, i, classes):
    """Euler characteristic of RHom(P_i, M) from the class of M."""
    out = {}
    for j in range(1, chain.n + 1):
        out = combine(out, lp_mul(chain.chi(i, j), classes[j - 1]))
    return out


def euler_of_terms(n, terms):
    """Graded Euler class from {degree: [(vertex, shift), ...]}."""
    out = [dict() for _ in range(n)]
    for t, row in terms.items():
        for v, s in row:
            out[v - 1] = combine(out[v - 1], {s: -1 if t % 2 else 1})
    return out


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


# ----------------------------------------------------------------------
# exact scalar elimination


def rank(rows, p=None):
    """Rank of a matrix over Q (p None) or F_p; entries are ints/Fractions."""
    if p is None:
        m = [[Fraction(x) for x in row] for row in rows]
    else:
        m = [[int(x) % p for x in row] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c] if p is None else pow(m[r][c], -1, p)
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
                if p is not None:
                    m[i] = [a % p for a in m[i]]
        r += 1
    return r


def invertible(rows, p=None):
    if any(len(row) != len(rows) for row in rows):
        return False
    return rank(rows, p) == len(rows)


# ----------------------------------------------------------------------
# integer shadows


def int_mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def pl_product(word, n):
    """Product of the A_n (-2)-reflections x -> x + <x, e_i> e_i."""
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for g in word:
        i = abs(g) - 1
        # the reflection changes only row i of the product
        new = [-x for x in out[i]]
        for j in (i - 1, i + 1):
            if 0 <= j < n:
                new = [a + b for a, b in zip(new, out[j])]
        out[i] = new
    return out


def twist_matrix(r0, d0):
    """v -> v - chi(s, v) s for s = (r0, d0), chi((r,d),(r',d')) = rd' - dr'."""
    return [[1 + d0 * r0, -r0 * r0], [d0 * d0, 1 - r0 * d0]]


ELLIPTIC = {"O": twist_matrix(1, 0), "L": twist_matrix(1, 0), "Op": twist_matrix(0, 1)}


def mat_pow(m, k):
    """Binary powering of a 2x2 integer matrix of determinant 1."""
    if k < 0:
        (a, b), (c, d) = m
        m, k = [[d, -b], [-c, a]], -k
    out = [[1, 0], [0, 1]]
    while k:
        if k & 1:
            out = int_mat_mul(out, m)
        m = int_mat_mul(m, m)
        k >>= 1
    return out


def elliptic_matrix(letters):
    """Matrix of [(name, exponent), ...] acting left to right on columns."""
    out = [[1, 0], [0, 1]]
    for name, k in letters:
        out = int_mat_mul(mat_pow(ELLIPTIC[name], k), out)
    return out


def tdiagram_verdict(p, q, r):
    """Sign of the T(p,q,r) form from 1/p + 1/q + 1/r against 1."""
    s = Fraction(1, p) + Fraction(1, q) + Fraction(1, r)
    if s > 1:
        return "negative_definite"
    if s == 1:
        return "negative_semidefinite"
    return "indefinite"
