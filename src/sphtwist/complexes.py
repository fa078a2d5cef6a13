"""Bounded complexes of shifted projectives over the chain algebra.

Conventions (fixed once, used everywhere):

* A summand is a pair ``(vertex, internal_shift)`` standing for P_v<s>.
* The differential in homological degree t is a matrix from the degree-t
  summands (rows) to the degree-(t+1) summands (columns); the entry from
  (v, s) to (v', s') lies in e_v A e_{v'} and is homogeneous of internal
  degree s - s'.  Composition of matrices is left-to-right multiplication
  in the algebra, so d^2 = 0 is literally d[t] . d[t+1] = 0.
* Only bidegree-(0,0) chain maps are first class; shifts live on objects.
* cone(f: M -> K) has terms M[1] (+) K in each degree and differential
  d(m, k) = (-d_M m, f(m) + d_K k).
* Homological shift [t0] relabels degrees t -> t - t0 and multiplies the
  differential by (-1)^t0; internal shift <s0> adds s0 to every summand.
"""


from itertools import chain, product as iproduct

from .linalg import mat_det, mat_rank, nullspace


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


def _mat_is_zero(A):
    return all(x.is_zero() for row in A for x in row)


def _check_entries(alg, what, t, mat, srcs, tgts):
    """Raise ValueError unless ``mat`` is a matrix of entries srcs -> tgts.

    It must have shape len(srcs) x len(tgts), and entry (r, c) must lie in
    e_v A e_v' and be homogeneous of degree s - s', where srcs[r] = (v, s)
    and tgts[c] = (v', s').
    """
    if len(mat) != len(srcs) or any(len(r) != len(tgts) for r in mat):
        raise ValueError("%s at degree %d has wrong shape" % (what, t))
    for r, (v, s) in enumerate(srcs):
        for c, (v2, s2) in enumerate(tgts):
            for key in mat[r][c].coeffs:
                if alg.src[key] != v or alg.tgt[key] != v2 or alg.deg[key] != s - s2:
                    raise ValueError(
                        "%s entry (%d,%d) at degree %d is not in e_%d A e_%d "
                        "of degree %d" % (what, r, c, t, v, v2, s - s2)
                    )


class ProjComplex:
    """A bounded complex of shifted projectives P_v<s> with d^2 = 0."""

    def __init__(self, algebra, terms, diffs=None, check=True):
        self.algebra = algebra
        self.terms = {
            t: tuple(tuple(s) for s in row) for t, row in terms.items() if row
        }
        diffs = diffs or {}
        self.diffs = {}
        for t in self.terms:
            if t + 1 not in self.terms:
                continue
            mat = diffs.get(t)
            if mat is None:
                mat = _zeros(algebra, len(self.terms[t]), len(self.terms[t + 1]))
            self.diffs[t] = tuple(tuple(row) for row in mat)
        if check:
            self._validate()

    def _validate(self):
        alg = self.algebra
        for t, row in self.terms.items():
            for v, s in row:
                alg.check_vertex(v)
        for t, mat in self.diffs.items():
            _check_entries(alg, "differential", t, mat,
                           self.terms[t], self.terms[t + 1])
        for t in self.diffs:
            if t + 1 in self.diffs:
                sq = _matmul(self.algebra, self.mat(t), self.mat(t + 1))
                if not _mat_is_zero(sq):
                    raise ValueError("d^2 != 0 between degrees %d and %d" % (t, t + 2))

    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, algebra):
        return cls(algebra, {}, check=False)

    @classmethod
    def projective(cls, algebra, vertex, shift=0, degree=0):
        """The one-term complex P_vertex<shift> in homological degree ``degree``."""
        algebra.check_vertex(vertex)
        return cls(algebra, {degree: [(vertex, shift)]}, check=False)

    def is_zero(self):
        return not self.terms

    def degrees(self):
        return sorted(self.terms)

    def summands(self, t):
        return self.terms.get(t, ())

    def total_summands(self):
        return sum(len(row) for row in self.terms.values())

    def mat(self, t):
        """Differential at degree t as a mutable list-of-lists."""
        if t in self.diffs:
            return [list(row) for row in self.diffs[t]]
        return _zeros(
            self.algebra, len(self.terms.get(t, ())), len(self.terms.get(t + 1, ()))
        )

    def shift(self, t0, s0):
        terms = {
            t - t0: tuple((v, s + s0) for v, s in row) for t, row in self.terms.items()
        }
        sign = -1 if t0 % 2 else 1
        diffs = {
            t - t0: [[x.scale(sign) for x in row] for row in mat]
            for t, mat in self.diffs.items()
        }
        return ProjComplex(self.algebra, terms, diffs, check=False)

    def __eq__(self, other):
        if not isinstance(other, ProjComplex):
            return NotImplemented
        return (
            self.algebra.params == other.algebra.params
            and self.algebra.field == other.algebra.field
            and self.terms == other.terms
            and self.diffs == other.diffs
        )

    def __repr__(self):
        if self.is_zero():
            return "ProjComplex(0)"
        parts = []
        for t in self.degrees():
            names = ", ".join("P%d<%d>" % (v, s) for v, s in self.terms[t])
            parts.append("%d: [%s]" % (t, names))
        return "ProjComplex{%s}" % "; ".join(parts)

    # ------------------------------------------------------------------
    # JSON serialization

    def to_dict(self):
        alg = self.algebra
        diffs = {}
        for t, mat in self.diffs.items():
            triplets = []
            for r, row in enumerate(mat):
                for c, x in enumerate(row):
                    if x.is_zero():
                        continue
                    coeffs = {
                        ":".join(str(p) for p in key): alg.field.scalar_to_str(v)
                        for key, v in sorted(x.coeffs.items())
                    }
                    triplets.append([r, c, coeffs])
            diffs[str(t)] = triplets
        return {
            "algebra": {
                "n": alg.params.n,
                "N": alg.params.N,
                "edge_degrees": list(alg.params.edge_degrees),
                "char": alg.field.char,
            },
            "terms": {str(t): [[v, s] for v, s in row] for t, row in self.terms.items()},
            "diffs": diffs,
        }

    @classmethod
    def from_dict(cls, data, algebra=None):
        from .algebra import ChainParams, ZigzagAlgebra

        if algebra is None:
            spec = data["algebra"]
            algebra = ZigzagAlgebra(
                ChainParams(spec["n"], spec["N"], tuple(spec["edge_degrees"])),
                char=spec.get("char"),
            )
        terms = {int(t): [tuple(p) for p in row] for t, row in data["terms"].items()}
        diffs = {}
        for t_str, triplets in data["diffs"].items():
            t = int(t_str)
            mat = _zeros(algebra, len(terms[t]), len(terms[t + 1]))
            for r, c, coeffs in triplets:
                val = algebra.zero()
                for key_str, cstr in coeffs.items():
                    parts = key_str.split(":")
                    key = (parts[0],) + tuple(int(p) for p in parts[1:])
                    val = val + algebra.from_key(key, algebra.field.scalar_from_str(cstr))
                mat[r][c] = val
            diffs[t] = mat
        return cls(algebra, terms, diffs)


class ChainMap:
    """A bidegree-(0,0) chain map between two complexes over one algebra."""

    def __init__(self, source, target, mats, check=True):
        if source.algebra is not target.algebra:
            raise ValueError("source and target live over different algebras")
        self.source = source
        self.target = target
        self.mats = {}
        for t in source.terms:
            if t not in target.terms:
                continue
            mat = mats.get(t)
            if mat is None:
                mat = _zeros(source.algebra, len(source.terms[t]), len(target.terms[t]))
            self.mats[t] = tuple(tuple(row) for row in mat)
        if check:
            self._validate()

    def _validate(self):
        for t, mat in self.mats.items():
            _check_entries(self.source.algebra, "chain map", t, mat,
                           self.source.terms[t], self.target.terms[t])
        if not self.commutes():
            raise ValueError("not a chain map: f does not commute with d")

    def mat(self, t):
        if t in self.mats:
            return [list(row) for row in self.mats[t]]
        return _zeros(
            self.source.algebra,
            len(self.source.terms.get(t, ())),
            len(self.target.terms.get(t, ())),
        )

    def commutes(self):
        alg = self.source.algebra
        degrees = set(self.source.terms) | set(self.target.terms)
        for t in degrees:
            lhs = _matmul(alg, self.source.mat(t), self.mat(t + 1))
            rhs = _matmul(alg, self.mat(t), self.target.mat(t))
            nr = len(self.source.terms.get(t, ()))
            nc = len(self.target.terms.get(t + 1, ()))
            if nr == 0 or nc == 0:
                continue
            if not lhs:
                lhs = _zeros(alg, nr, nc)
            if not rhs:
                rhs = _zeros(alg, nr, nc)
            if lhs != rhs:
                return False
        return True

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, {}, check=False)

    @classmethod
    def identity(cls, M):
        mats = {}
        for t, row in M.terms.items():
            mat = _zeros(M.algebra, len(row), len(row))
            for r, (v, _s) in enumerate(row):
                mat[r][r] = M.algebra.e(v)
            mats[t] = mat
        return cls(M, M, mats, check=False)


def cone(f):
    """Mapping cone of a chain map f: M -> K.

    Terms are M[1] (+) K; the differential is
    [[-d_M, f], [0, d_K]] in block form.  ``f`` is trusted to commute with
    the differentials: ``ChainMap(..., check=True)`` validates maps at the
    API boundary, and the internal builders construct chain maps directly.
    """
    M, K = f.source, f.target
    alg = M.algebra
    terms = {}
    degrees = set()
    for t in M.terms:
        degrees.add(t - 1)
    degrees |= set(K.terms)
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
    return ProjComplex(alg, terms, diffs, check=False)


# ----------------------------------------------------------------------
# homotopy minimization


def minimize(M):
    """Gaussian-elimination reduction to the minimal model of M.

    Cancels differential entries that are invertible in the algebra (nonzero
    idempotent coefficient, which forces equal vertex and equal internal
    shift), applying the two-term update
    d <- d - (column) . pivot^{-1} . (row) to the same differential.  Pivots
    are taken in the order of the first invertible entry by (degree, row,
    column).  The result has all entries in the span of arrows and loops.
    """
    alg = M.algebra
    terms = {t: list(row) for t, row in M.terms.items()}
    diffs = {t: M.mat(t) for t in M.diffs}

    # One sweep suffices.  A cancellation at (t, r, c) changes entries of
    # degree t only, by (entry in column c) . pivot^{-1} . (entry in row r);
    # earlier degrees merely lose a column.  Every entry already passed is in
    # the radical (arrows and loops), so its column-c factor is too, and the
    # radical is an ideal: nothing passed can become invertible, and the scan
    # resumes at the same row index with the same pivots a full rescan finds.
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
            # drop summand r in degree t and summand c in degree t+1
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
    return ProjComplex(alg, terms, diffs, check=False)


def is_minimal(M):
    """True when no differential entry has a nonzero idempotent coefficient."""
    for t, mat in M.diffs.items():
        for row in mat:
            for x in row:
                if any(k[0] == "e" for k in x.coeffs):
                    return False
    return True


# ----------------------------------------------------------------------
# hom complexes (vector-space valued)


class GradedVectorComplex:
    """A bounded complex of graded vector spaces with scalar differentials.

    ``basis[m]`` lists (internal_degree, label) pairs; ``diffs[m]`` is the
    scalar matrix basis[m] -> basis[m+1], homogeneous of internal degree 0.
    """

    def __init__(self, field, basis, diffs):
        self.field = field
        self.basis = {m: list(row) for m, row in basis.items() if row}
        self.diffs = {
            m: [list(r) for r in mat]
            for m, mat in diffs.items()
            if m in self.basis and m + 1 in self.basis
        }

    def dims(self):
        """Bigraded dimensions {(homological, internal): dim}."""
        out = {}
        for m, row in self.basis.items():
            for s, _label in row:
                out[(m, s)] = out.get((m, s), 0) + 1
        return out

    def total_dim(self):
        return sum(len(row) for row in self.basis.values())

    def _restrict(self, m, s):
        """Indices of degree-s basis vectors in homological degree m."""
        return [i for i, (si, _l) in enumerate(self.basis.get(m, [])) if si == s]

    def _diff_block(self, m, s):
        """The internal-degree-s block of diffs[m], as dict rows for mat_rank."""
        if m not in self.diffs:
            return []
        cols = self._restrict(m + 1, s)
        mat = self.diffs[m]
        return [{j: mat[r][c] for j, c in enumerate(cols) if mat[r][c]}
                for r in self._restrict(m, s)]

    def homology(self):
        """Bigraded homology dimensions, by exact rank computations."""
        out = {}
        internal = {s for row in self.basis.values() for s, _l in row}
        for m in self.basis:
            for s in internal:
                n_here = len(self._restrict(m, s))
                if n_here == 0:
                    continue
                rk_out = mat_rank(self._diff_block(m, s))
                rk_in = mat_rank(self._diff_block(m - 1, s))
                h = n_here - rk_out - rk_in
                if h:
                    out[(m, s)] = h
        return out


def _hom_projective(i, M, dual):
    """RHom(P_i, M), or RHom(M, P_i) with ``dual``, as graded vector spaces.

    A basis path phi in e_i A e_j (dual: e_j A e_i) against summand r =
    (j, s) of M^t is the basis vector labelled (r, key) in bidegree
    (t, deg(phi) + s) (dual: (-t, deg(phi) - s)).  The differential
    post-composes phi with d_M (dual: pre-composes), so the dual one runs
    from the summands of M^{t+1} to those of M^t.
    """
    alg = M.algebra
    alg.check_vertex(i)
    sign = -1 if dual else 1

    def paths(j):
        return alg.hom_basis(j, i) if dual else alg.hom_basis(i, j)

    basis = {}
    index = {}
    for t, row in M.terms.items():
        vecs = []
        for r, (j, s) in enumerate(row):
            for key in paths(j):
                index[(t, r, key)] = len(vecs)
                vecs.append((alg.deg[key] + sign * s, (r, key)))
        basis[sign * t] = vecs
    diffs = {}
    for t, mat in M.diffs.items():
        src, tgt = (t + 1, t) if dual else (t, t + 1)
        out = [[alg.field.zero] * len(basis[sign * tgt]) for _ in basis[sign * src]]
        for a, (j, _s) in enumerate(M.terms[src]):
            for key in paths(j):
                src_idx = index[(src, a, key)]
                phi = alg.from_key(key)
                for b in range(len(M.terms[tgt])):
                    prod = mat[b][a] * phi if dual else phi * mat[a][b]
                    for key2, coeff in prod.coeffs.items():
                        tgt_idx = index[(tgt, b, key2)]
                        out[src_idx][tgt_idx] = out[src_idx][tgt_idx] + coeff
        diffs[sign * src] = out
    return GradedVectorComplex(alg.field, basis, diffs)


def hom_from_projective(i, M):
    """The complex computing RHom(P_i, M); see ``_hom_projective``."""
    return _hom_projective(i, M, dual=False)


def hom_to_projective(M, i):
    """The complex computing RHom(M, P_i); see ``_hom_projective``."""
    return _hom_projective(i, M, dual=True)


def homology_table(M):
    """Per-vertex bigraded homology of RHom(P_i, M)."""
    return {
        i: hom_from_projective(i, M).homology()
        for i in range(1, M.algebra.params.n + 1)
    }


# ----------------------------------------------------------------------
# isomorphism testing


def _multisets_match(M, K):
    if set(M.terms) != set(K.terms):
        return False
    for t in M.terms:
        if sorted(M.terms[t]) != sorted(K.terms[t]):
            return False
    return True


def _arrow_ranks(M):
    """Ranks of the arrow blocks of a minimal complex, an isomorphism invariant.

    Block (t, a, s, s2) holds the coefficients of the arrow a in the entries
    of d_t from the summands (src a, s) of M^t to the summands (tgt a, s2)
    of M^{t+1}.  A product of two radical basis paths is a loop or zero, so
    an isomorphism f = E + R of minimal complexes (E its invertible
    idempotent part, R its radical part) changes each block only as
    E_t^-1 . A . E_{t+1}, and keeps its rank.  Blocks of rank 0 are left
    out.
    """
    blocks = {}
    for t, mat in M.diffs.items():
        src, tgt = M.terms[t], M.terms[t + 1]
        for r, row in enumerate(mat):
            for c, x in enumerate(row):
                for key, coeff in x.coeffs.items():
                    if key[0] == "a":
                        block = blocks.setdefault((t, key, src[r][1], tgt[c][1]), {})
                        block.setdefault(r, {})[c] = coeff
    return {b: mat_rank(list(rows.values())) for b, rows in blocks.items()}


def _chain_map_unknowns(M, K):
    alg = M.algebra
    unknowns = []
    for t in sorted(set(M.terms) & set(K.terms)):
        for r, (v, s) in enumerate(M.terms[t]):
            for c, (v2, s2) in enumerate(K.terms[t]):
                for key in alg.hom_basis(v, v2):
                    if alg.deg[key] == s - s2:
                        unknowns.append((t, r, c, key))
    return unknowns


def _chain_map_equations(M, K, pos):
    """Rows {unknown index: coeff} of the linear system d_M . f = f . d_K.

    ``pos`` maps each unknown (t, r, c, key) to its index.  One row per
    equation (t, r, c, key): the key-coefficient of entry (r, c) of
    d_M[t] . f[t+1] - f[t] . d_K[t].  Products of basis paths are read from
    the algebra's table.
    """
    table = M.algebra.table
    hom_basis = M.algebra.hom_basis
    rows = {}

    def add(eq_key, idx, coeff):
        row = rows.setdefault(eq_key, {})
        s = row.get(idx)
        s = coeff if s is None else s + coeff
        if s:
            row[idx] = s
        else:
            del row[idx]

    for t in set(M.terms) | set(K.terms):
        m_src = M.terms.get(t, ())
        k_tgt = K.terms.get(t + 1, ())
        if not m_src or not k_tgt:
            continue
        # d_M[t] . f[t+1]  contributions
        for r, row in enumerate(M.diffs.get(t, ())):
            for mid, x in enumerate(row):
                if x.is_zero():
                    continue
                v_mid = M.terms[t + 1][mid][0]
                for c, (v2, _s2) in enumerate(k_tgt):
                    for key in hom_basis(v_mid, v2):
                        i = pos.get((t + 1, mid, c, key))
                        if i is None:
                            continue
                        for k1, coeff in x.coeffs.items():
                            key2 = table.get((k1, key))
                            if key2 is not None:
                                add((t, r, c, key2), i, coeff)
        # - f[t] . d_K[t]  contributions
        dk = K.diffs.get(t, ())
        for r, (v, _s) in enumerate(m_src):
            for mid, row in enumerate(dk):
                for key in hom_basis(v, K.terms[t][mid][0]):
                    i = pos.get((t, r, mid, key))
                    if i is None:
                        continue
                    for c, x in enumerate(row):
                        for k2, coeff in x.coeffs.items():
                            key2 = table.get((key, k2))
                            if key2 is not None:
                                add((t, r, c, key2), i, -coeff)
    return [row for row in rows.values() if row]


def _quick_weights(m):
    """Deterministic first-try weight vectors for the kernel combination."""
    for k in range(m):
        v = [0] * m
        v[k] = 1
        yield v
    yield [1] * m
    yield list(range(1, m + 1))
    for base in range(2, 8):
        yield [base**j for j in range(m)]


def _symbolic_weights(block_dets_fn, m, degree_bound):
    """Complete fallback: decide via the symbolic determinant polynomial.

    Evaluates the product of block determinants at a generic combination
    of the kernel basis.  If the polynomial vanishes identically there is
    no invertible chain map; otherwise a nonvanishing integer point is
    found coordinate by coordinate (a nonzero polynomial of degree <= D in
    one variable has a nonvanishing value among 0..D).
    """
    import sympy

    syms = sympy.symbols("w0:%d" % m)
    prod = sympy.Integer(1)
    for det in block_dets_fn(syms):
        prod = prod * det
    prod = sympy.expand(prod)
    if prod == 0:
        return None
    point = []
    for k in range(m):
        for a in range(degree_bound + 1):
            cand = sympy.expand(prod.subs(syms[k], a))
            if cand != 0:
                prod = cand
                point.append(a)
                break
        else:  # pragma: no cover - degree bound guarantees a hit
            return None
    return point


def is_isomorphic(M, K, with_certificate=False):
    """Decide whether two complexes are isomorphic (not merely quasi-iso).

    Both inputs are minimized first; minimal complexes are isomorphic iff
    there is a chain map whose idempotent-coefficient blocks are invertible
    in every homological degree.  Returns ``bool`` or, with
    ``with_certificate=True``, a pair ``(bool, ChainMap-or-None)`` where the
    certificate maps minimize(M) to minimize(K).

    The decisions come in this order:

    1. both minimal complexes are zero: isomorphic;
    2. the summands of some degree differ as multisets: not isomorphic;
    3. the arrow-block ranks differ (``_arrow_ranks``): not isomorphic;
    4. the chain-map system d_M . f = f . d_K has only the zero solution:
       not isomorphic;
    5. a combination of the kernel basis with the weights of
       ``_quick_weights``, then with weight 1 on the kernel vectors whose
       free column is the idempotent coefficient between the j-th copies of
       a summand in both complexes, has invertible blocks: isomorphic;
    6. over F_p, every weight vector is tried; over Q, the product of the
       block determinants is expanded symbolically (sympy) and either
       vanishes (not isomorphic) or yields an invertible combination.
    """
    Mm = minimize(M)
    Km = minimize(K)
    alg = Mm.algebra

    def done(ok, cert):
        return (ok, cert) if with_certificate else ok

    if Mm.is_zero() and Km.is_zero():
        return done(True, ChainMap.zero(Mm, Km))
    if not _multisets_match(Mm, Km) or _arrow_ranks(Mm) != _arrow_ranks(Km):
        return done(False, None)

    unknowns = _chain_map_unknowns(Mm, Km)
    upos = {u: i for i, u in enumerate(unknowns)}
    eqs = _chain_map_equations(Mm, Km, upos)
    kernel = nullspace(eqs, len(unknowns), alg.field.one)
    if not kernel:
        return done(False, None)

    # f is invertible iff in each degree the scalar block of idempotent
    # coefficients between the copies of each (vertex, shift) is; a block
    # lists the index of the unknown (t, r, c, e_v) per entry
    blocks = []
    matched = set()
    for t in Mm.terms:
        groups = {}
        for r, (v, s) in enumerate(Mm.terms[t]):
            groups.setdefault((v, s), ([], []))[0].append(r)
        for c, (v, s) in enumerate(Km.terms[t]):
            groups[(v, s)][1].append(c)
        for (v, s), (rs, cs) in groups.items():
            blocks.append([[upos[(t, r, c, ("e", v))] for c in cs] for r in rs])
            matched.update(upos[(t, r, c, ("e", v))] for r, c in zip(rs, cs))

    def accept(weights):
        terms = [(alg.field.of(w), vec) for w, vec in zip(weights, kernel) if w]

        def coeff(i):
            acc = alg.field.zero
            for w, vec in terms:
                if vec[i]:
                    acc = acc + w * vec[i]
            return acc

        if not all(mat_det([[coeff(i) for i in row] for row in blk]) for blk in blocks):
            return None
        mats_by_t = {}
        for i, (t, r, c, key) in enumerate(unknowns):
            x = coeff(i)
            if not x:
                continue
            mat = mats_by_t.setdefault(
                t, _zeros(alg, len(Mm.terms[t]), len(Km.terms[t]))
            )
            mat[r][c] = mat[r][c] + alg.from_key(key, x)
        return ChainMap(Mm, Km, mats_by_t)

    # the free column of a kernel vector is its last nonzero entry
    free = [max(i for i, x in enumerate(vec) if x) for vec in kernel]
    for weights in chain(_quick_weights(len(kernel)),
                         [[1 if fc in matched else 0 for fc in free]]):
        cert = accept(weights)
        if cert is not None:
            return done(True, cert)

    if alg.field.char is not None:
        # small search space: enumerate weight vectors over F_p exhaustively
        for weights in iproduct(range(alg.field.char), repeat=len(kernel)):
            cert = accept(list(weights))
            if cert is not None:
                return done(True, cert)
        return done(False, None)

    def block_dets_fn(syms):
        import sympy

        dets = []
        for blk in blocks:
            mat = sympy.zeros(len(blk), len(blk[0]))
            for a, row in enumerate(blk):
                for b, i in enumerate(row):
                    entry = sympy.Integer(0)
                    for k, vec in enumerate(kernel):
                        if vec[i]:
                            entry = entry + syms[k] * sympy.Rational(vec[i])
                    mat[a, b] = entry
            dets.append(mat.det())
        return dets

    degree_bound = sum(len(blk) for blk in blocks)
    point = _symbolic_weights(block_dets_fn, len(kernel), degree_bound)
    if point is None:
        return done(False, None)
    cert = accept(point)
    if cert is None:  # pragma: no cover - symbolic search guarantees success
        return done(False, None)
    return done(True, cert)
