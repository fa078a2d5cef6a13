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
  d(m, k) = (-d_M m, f(m) + d_K k), laid out in this block form by
  ``cone``.  The twists lay out their cones of the evaluation and the
  co-evaluation themselves, cancelling first what cancels in a minimal
  input (``twists._evaluation_cone``, ``twists._twist``).
* Only RHom(P_i, M) is built (``_hom_vectors``, ``_hom_into``); its dual
  RHom(M, P_i) is read off it by the trace pairing (``hom_to_projective``).
* Homological shift [t0] relabels degrees t -> t - t0 and multiplies the
  differential by (-1)^t0; internal shift <s0> adds s0 to every summand.

Storage: e_v A e_v' holds at most one basis path of each degree, so an
entry from P_v<s> to P_v'<s'> is a scalar times the path of degree s - s'
(``ZigzagAlgebra.path``), fixed by the two summands.  Inside this module
every matrix (a differential, a chain map, the differential of a hom
complex) is a list of rows, one dict ``{column: scalar}`` per row holding
its nonzero entries only, and every construction iterates over those
entries.  The scalars are engine scalars (``fields``), plain ints:
residues in [0, p) over F_p, and over Q ints, or Fractions after a
division that leaves a remainder.  The loops reduce them by ``mod``, the
characteristic or 0 over Q.  One rule decides every product (the degree
rule): a product of basis paths is the basis path of its degree between
its ends, or zero when there is none.  So entries a -> b -> c of summands
compose to a nonzero entry exactly when (v_a, v_c, s_a - s_c) is in
``ZigzagAlgebra.path``, and its scalar is the product of theirs;
``_hom_into`` composes a vector with an entry by the same lookup.
Only this module and ``twists._twist`` read or write that format.  Algebra
elements and public scalars appear at the boundary alone: the public
constructors take dense matrices of them and convert them once
(``_scalar_rows``, which validates them), and ``ProjComplex.diffs``,
``ChainMap.mats``, ``GradedVectorComplex.diffs`` and ``mat(t)`` are dense
views built on first use.  The internal builders go through the
unvalidated ``_from_rows`` constructors.  Rows are never changed once a
complex or map holds them, so objects may share them: ``minimize`` works
on copies, unless the complex is marked ``_fresh``, a cone whose rows its
builder made for it alone and hands over to be reduced in place.
``cone`` takes over the negated rows that ``shift`` makes for M[1] and
writes f's entries into them.  The twists write each row of their cones
once, at its final columns: the untwist M's rows with the co-evaluation
entries, and -d_H, which ``_hom_into`` writes into the cone's own row
lists; the twist the rows that survive its reduction of a minimal input,
which runs on the copies' rows and copies a row of M only where a pivot
changes it (``_cancel``, the pivot update it shares with ``minimize``).
"""


from functools import cached_property
from itertools import product as iproduct

from .fields import div, raw
from .linalg import _add, _kernel, mat_rank


def _check_int(what, x):
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError("%s %r is not an integer" % (what, x))


def _path(alg, a, b):
    """The basis path of an entry from summand a to summand b."""
    return alg.path[(a[0], b[0], a[1] - b[1])]


def _scalar_rows(alg, what, t, mat, srcs, tgts):
    """Dict rows of the scalars of a dense matrix of algebra elements, or
    of dict rows {column: element} (``from_dict``).

    Raise ValueError unless the matrix is len(srcs) x len(tgts) and its
    entry (r, c) is a multiple of the path of e_v A e_v' of degree s - s',
    where srcs[r] = (v, s) and tgts[c] = (v', s').
    """
    cols = set(range(len(tgts)))
    if len(mat) != len(srcs) or any(
            not row.keys() <= cols if isinstance(row, dict) else len(row) != len(tgts)
            for row in mat):
        raise ValueError("%s at degree %d has wrong shape" % (what, t))
    out = []
    for r, ((v, s), row) in enumerate(zip(srcs, mat)):
        scalars = {}
        for c, x in row.items() if isinstance(row, dict) else enumerate(row):
            if x.coeffs:
                v2, s2 = tgts[c]
                key = alg.path.get((v, v2, s - s2))
                if list(x.coeffs) != [key]:
                    raise ValueError(
                        "%s entry (%d,%d) at degree %d is not in e_%d A e_%d "
                        "of degree %d" % (what, r, c, t, v, v2, s - s2)
                    )
                scalars[c] = raw(x.coeffs[key])
        out.append(scalars)
    return out


def _dense(alg, rows, srcs, tgts):
    """Dense matrix of algebra elements of dict rows from srcs to tgts."""
    zero = alg.zero()
    return [[alg.from_key(_path(alg, a, b), row[c]) if c in row else zero
             for c, b in enumerate(tgts)] for a, row in zip(srcs, rows)]


def _rows_product(A, B, src, path, tgt, mod):
    """The product of dict-row matrices src -> mid and mid -> tgt; the
    degree rule decides by ``path`` (``ZigzagAlgebra.path``) which entries
    a -> c can be nonzero."""
    out = []
    for (v, s), row in zip(src, A):
        acc = {}
        for k, x in row.items():
            for c, y in B[k].items():
                w, s2 = tgt[c]
                if (v, w, s - s2) in path:
                    _add(acc, c, x * y, mod)
        out.append(acc)
    return out


class ProjComplex:
    """A bounded complex of shifted projectives P_v<s> with d^2 = 0.

    ``diffs`` may give dense matrices for some degrees; a missing one is
    zero.  Each is converted with its shape and entries validated, and the
    vertices and d^2 = 0 are validated too.
    """

    _minimal = False  # set on the outputs of ``minimize`` and ``projective``
    _fresh = False  # set by a builder that hands its rows to ``minimize``

    def __init__(self, algebra, terms, diffs=None):
        self.algebra = algebra
        self.terms = {
            t: tuple(tuple(s) for s in row) for t, row in terms.items() if row
        }
        for t in [*self.terms, *(diffs or ())]:
            _check_int("degree", t)
        for row in self.terms.values():
            for v, s in row:
                algebra.check_vertex(v)
                _check_int("internal shift", s)
        self._set_rows({
            t: _scalar_rows(algebra, "differential", t, mat, self.summands(t),
                            self.summands(t + 1))
            for t, mat in (diffs or {}).items()
        })
        for t, rows in self._rows.items():
            if t + 1 in self._rows and any(_rows_product(
                    rows, self._rows[t + 1], self.terms[t], algebra.path,
                    self.terms[t + 2], algebra.field.char or 0)):
                raise ValueError("d^2 != 0 between degrees %d and %d" % (t, t + 2))

    @classmethod
    def _from_rows(cls, algebra, terms, rows):
        """Unvalidated constructor: ``terms`` maps degrees to nonempty tuples
        of summands, ``rows`` degrees to dict rows of nonzero entries."""
        self = cls.__new__(cls)
        self.algebra = algebra
        self.terms = terms
        self._set_rows(rows)
        return self

    def _set_rows(self, rows):
        # one dict row per summand of every degree t with t + 1 in terms
        terms = self.terms
        self._rows = {
            t: rows.get(t) or [{} for _ in row]
            for t, row in terms.items() if t + 1 in terms
        }

    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, algebra):
        return cls._from_rows(algebra, {}, {})

    @classmethod
    def projective(cls, algebra, vertex, shift=0, degree=0):
        """The one-term complex P_vertex<shift> in homological degree
        ``degree``, marked minimal: it has no differential."""
        algebra.check_vertex(vertex)
        _check_int("internal shift", shift)
        _check_int("degree", degree)
        out = cls._from_rows(algebra, {degree: ((vertex, shift),)}, {})
        out._minimal = True
        return out

    def is_zero(self):
        return not self.terms

    def degrees(self):
        return sorted(self.terms)

    def summands(self, t):
        return self.terms.get(t, ())

    def total_summands(self):
        return sum(len(row) for row in self.terms.values())

    @cached_property
    def diffs(self):
        """Dense view {t: matrix} for every t with t + 1 in ``terms``."""
        return {t: tuple(map(tuple, self.mat(t))) for t in self._rows}

    def mat(self, t):
        """Differential at degree t as a mutable dense list-of-lists."""
        rows = self._rows.get(t) or [{} for _ in self.summands(t)]
        return _dense(self.algebra, rows, self.summands(t), self.summands(t + 1))

    def shift(self, t0, s0):
        terms = {
            t - t0: tuple((v, s + s0) for v, s in row) for t, row in self.terms.items()
        }
        rows = self._rows
        if t0 % 2:
            mod = self.algebra.field.char or 0
            rows = {t: [{c: mod - x for c, x in row.items()} for row in mat]
                    for t, mat in rows.items()}
        return ProjComplex._from_rows(
            self.algebra, terms, {t - t0: mat for t, mat in rows.items()})

    def __eq__(self, other):
        if not isinstance(other, ProjComplex):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.terms == other.terms
            and self._rows == other._rows
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
        for t, rows in self._rows.items():
            src, tgt = self.terms[t], self.terms[t + 1]
            diffs[str(t)] = [
                [r, c, {":".join(str(p) for p in _path(alg, src[r], tgt[c])):
                        alg.field.scalar_to_str(row[c])}]
                for r, row in enumerate(rows) for c in sorted(row)
            ]
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
            degrees = spec["edge_degrees"]
            if degrees is None:  # null does not stand for the default degrees
                raise ValueError("edge_degrees must be a list of integers, got null")
            algebra = ZigzagAlgebra(
                ChainParams(spec["n"], spec["N"], degrees),
                char=spec.get("char"),
            )
        terms = {int(t): [tuple(p) for p in row] for t, row in data["terms"].items()}
        diffs = {}
        zero = algebra.zero()
        for t_str, triplets in data["diffs"].items():
            t = int(t_str)
            src, tgt = terms.get(t), terms.get(t + 1)
            if not src or not tgt:
                raise ValueError("differential at degree %d, but degree %d has "
                                 "no terms" % (t, t + 1 if src else t))
            rows = diffs[t] = [{} for _ in src]  # the entries only, not a dense matrix
            for r, c, coeffs in triplets:
                if not (isinstance(r, int) and isinstance(c, int)
                        and 0 <= r < len(src) and 0 <= c < len(tgt)):
                    raise ValueError("differential entry (%r,%r) at degree %d is "
                                     "out of range" % (r, c, t))
                val = zero
                for key_str, cstr in coeffs.items():
                    parts = key_str.split(":")
                    key = (parts[0],) + tuple(int(p) for p in parts[1:])
                    val = val + algebra.from_key(key, algebra.field.scalar_from_str(cstr))
                rows[r][c] = val
        return cls(algebra, terms, diffs)


class ChainMap:
    """A bidegree-(0,0) chain map between two complexes over one algebra.

    The complexes may live over two algebra objects with equal parameters
    and field, as ``is_isomorphic`` accepts them.  ``mats`` may give dense
    matrices for some degrees; a missing one is zero.  Each is converted
    with its shape and entries validated, and the map must commute with
    the differentials.
    """

    def __init__(self, source, target, mats):
        if source.algebra != target.algebra:
            raise ValueError("source and target live over different algebras")
        for t in mats:
            _check_int("degree", t)
        self._set_rows(source, target, {
            t: _scalar_rows(source.algebra, "chain map", t, mat, source.summands(t),
                            target.summands(t))
            for t, mat in mats.items()
        })
        self._validate()

    @classmethod
    def _from_rows(cls, source, target, rows):
        """Unvalidated constructor from dict rows of nonzero entries."""
        self = cls.__new__(cls)
        self._set_rows(source, target, rows)
        return self

    def _set_rows(self, source, target, rows):
        # one dict row per source summand of every degree both complexes share
        self.source = source
        self.target = target
        self._rows = {
            t: rows.get(t) or [{} for _ in row]
            for t, row in source.terms.items() if t in target.terms
        }

    def _validate(self):
        if not self.commutes():
            raise ValueError("not a chain map: f does not commute with d")

    @cached_property
    def mats(self):
        """Dense view {t: matrix} for every t where both complexes have terms."""
        return {t: tuple(map(tuple, self.mat(t))) for t in self._rows}

    def mat(self, t):
        rows = self._rows.get(t) or [{} for _ in self.source.summands(t)]
        return _dense(self.source.algebra, rows, self.source.summands(t),
                      self.target.summands(t))

    def commutes(self):
        """True when d_M[t] . f[t+1] = f[t] . d_K[t] in every degree t."""
        M, K = self.source, self.target
        mod, path = M.algebra.field.char or 0, M.algebra.path
        for t in M.terms:
            if t + 1 not in K.terms:
                continue
            zero = [{} for _ in M.terms[t]]
            d, f1 = M._rows.get(t), self._rows.get(t + 1)
            f, dk = self._rows.get(t), K._rows.get(t)
            lhs = (_rows_product(d, f1, M.terms[t], path, K.terms[t + 1], mod)
                   if d and f1 else zero)
            rhs = (_rows_product(f, dk, M.terms[t], path, K.terms[t + 1], mod)
                   if f and dk else zero)
            if lhs != rhs:
                return False
        return True

    @classmethod
    def zero(cls, source, target):
        return cls._from_rows(source, target, {})

    @classmethod
    def identity(cls, M):
        rows = {t: [{r: 1} for r in range(len(row))] for t, row in M.terms.items()}
        return cls._from_rows(M, M, rows)


def cone(f):
    """Mapping cone of a chain map f: M -> K.

    Terms are M[1] (+) K, M[1]'s summands first in each degree; the
    differential is [[-d_M, f], [0, d_K]] in block form.  The cone takes
    over the fresh rows of -d_M that ``shift`` makes for M[1] and writes
    f's entries into them, and writes K's rows anew, their columns shifted
    past M[1]'s.  ``f`` is trusted to commute with the differentials: the
    ``ChainMap`` constructor validates maps at the API boundary.
    """
    Ms, K = f.source.shift(1, 0), f.target
    A, B = Ms.terms, K.terms
    terms = {t: A.get(t, ()) + B.get(t, ()) for t in A.keys() | B.keys()}
    rows = {}
    for t in terms:
        if t + 1 not in terms:
            continue
        off = len(A.get(t + 1, ()))
        mat = rows[t] = Ms._rows.get(t) or [{} for _ in A.get(t, ())]
        for r, row in enumerate(f._rows.get(t + 1, ())):
            for c, x in row.items():
                mat[r][off + c] = x
        db = K._rows.get(t) or [{} for _ in B.get(t, ())]
        mat.extend([{off + c: x for c, x in row.items()} for row in db])
    return ProjComplex._from_rows(K.algebra, terms, rows)


# ----------------------------------------------------------------------
# homotopy minimization


def _cancel(mat, at, r, c, src, tgt, path, mod):
    """Cancel the invertible entry (r, c) of the dict rows ``mat`` from the
    summands ``src`` to ``tgt``: each other row with an entry in column c
    loses its multiple of row r that clears that entry, the products
    decided by the degree rule, and row r is emptied.  ``at`` maps each
    column to the rows with an entry there, and is kept up to date."""
    row = mat[r]
    for cc in row:
        at[cc].discard(r)
    for rr in at[c]:
        target, (v, sv) = mat[rr], src[rr]
        factor = div(target.pop(c), row[c], mod)
        for cc, y in row.items():
            w, sw = tgt[cc]
            if cc == c or (v, w, sv - sw) not in path:
                continue
            x = target.get(cc, 0) - factor * y
            if mod:
                x %= mod
            if x:
                if cc not in target:
                    at[cc].add(rr)
                target[cc] = x
            else:
                del target[cc]
                at[cc].discard(rr)
    mat[r] = {}


def minimize(M):
    """Gaussian-elimination reduction to the minimal model of M.

    Cancels differential entries that are invertible in the algebra, the
    multiples of an idempotent, which join equal summands (equal vertex and
    equal internal shift), applying the two-term update
    d <- d - (column) . pivot^{-1} . (row) to the same differential.  Pivots
    are taken in the order of the first invertible entry by (degree, row,
    column).  The result has all entries in the span of arrows and loops.
    An output of ``minimize`` is returned unchanged.  The reduction works
    on copies of the rows, or on the rows themselves when M is marked
    ``_fresh`` (a complex that no one else holds, like the twists' cones).
    The live rows are indexed by column in a list of sets, built at a
    degree's first pivot, rows of summands absent from the next degree are
    not searched for a pivot, and degrees that lost no summand keep their
    terms and rows in the renumbering.
    """
    if M._minimal:
        return M
    mod, path = M.algebra.field.char or 0, M.algebra.path
    rows = M._rows if M._fresh else {t: [dict(row) for row in mat]
                                     for t, mat in M._rows.items()}
    dead = {t: set() for t in M.terms}  # cancelled summands, by degree

    # One sweep suffices.  A cancellation at (t, r, c) changes entries of
    # degree t only, by (entry in column c) . pivot^{-1} . (entry in row r);
    # earlier degrees merely lose a column.  Every entry already passed is in
    # the radical (arrows and loops), so its column-c factor is too, and the
    # radical is an ideal: nothing passed can become invertible, and the scan
    # goes on with the next row and the same pivots a full rescan finds.
    # Summands keep their indices until one renumbering at the end.
    for t in sorted(rows):
        mat = rows[t]
        src, tgt = M.terms[t], M.terms[t + 1]
        gone = dead[t]
        kinds = set(tgt)  # a row of another summand has no invertible entry
        at = None  # column -> live rows with an entry there, from the first pivot
        for r, row in enumerate(mat):
            s = src[r]
            if s not in kinds or r in gone:
                continue
            c = -1  # the first invertible entry's column
            for cc in row:
                if tgt[cc] == s and (c < 0 or cc < c):
                    c = cc
            if c < 0:
                continue
            if at is None:  # the rows before the first pivot are as built
                at = [set() for _ in tgt]
                for rr, live in enumerate(mat):
                    if rr not in gone:
                        for cc in live:
                            at[cc].add(rr)
            _cancel(mat, at, r, c, src, tgt, path, mod)
            gone.add(r)
            dead[t + 1].add(c)

    new = {}  # degree -> {old index: new index}, for degrees that lost summands
    terms = {}
    for t, row in M.terms.items():
        if not dead[t]:
            terms[t] = row
            continue
        keep = [i for i in range(len(row)) if i not in dead[t]]
        if keep:
            new[t] = {i: k for k, i in enumerate(keep)}
            terms[t] = tuple(row[i] for i in keep)
    out = {}
    for t in terms:
        if t + 1 in terms:
            mat = rows[t]
            if t in new:
                mat = [mat[r] for r in new[t]]
            if t + 1 in new:
                cols = new[t + 1]
                mat = [{cols[c]: x for c, x in row.items() if c in cols} for row in mat]
            out[t] = mat
    out = ProjComplex._from_rows(M.algebra, terms, out)
    out._minimal = True
    return out


def is_minimal(M):
    """True when no differential entry is a multiple of an idempotent."""
    return not any(M.terms[t + 1][c] == M.terms[t][r]
                   for t, mat in M._rows.items()
                   for r, row in enumerate(mat) for c in row)


# ----------------------------------------------------------------------
# hom complexes (vector-space valued)


class GradedVectorComplex:
    """A bounded complex of graded vector spaces with scalar differentials.

    ``basis[m]`` lists (internal_degree, label) pairs; ``rows[m]`` holds
    the differential basis[m] -> basis[m+1], homogeneous of internal degree
    0, as dict rows of its nonzero engine scalars.
    """

    def __init__(self, field, basis, rows):
        self.field = field
        self.basis = {m: list(row) for m, row in basis.items() if row}
        self._rows = {m: mat for m, mat in rows.items()
                      if m in self.basis and m + 1 in self.basis}

    @cached_property
    def diffs(self):
        """Dense view {m: matrix} of the differentials."""
        of, zero = self.field.of, self.field.zero
        return {m: [[of(row[c]) if c in row else zero
                     for c in range(len(self.basis[m + 1]))] for row in rows]
                for m, rows in self._rows.items()}

    def dims(self):
        """Bigraded dimensions {(homological, internal): dim}."""
        out = {}
        for m, row in self.basis.items():
            for s, _label in row:
                out[(m, s)] = out.get((m, s), 0) + 1
        return out

    def homology(self):
        """Bigraded homology dimensions, by exact rank computations.  The
        differential is homogeneous, so its internal-degree-s block is the
        rows of the degree-s vectors, read as built."""
        where = {}  # (m, s) -> indices of the degree-s basis vectors of basis[m]
        for m, row in self.basis.items():
            for i, (s, _label) in enumerate(row):
                where.setdefault((m, s), []).append(i)
        rows, mod = self._rows, self.field.char or 0
        rank = {}  # of the blocks with rows and columns; the others are zero
        for (m, s), idx in where.items():
            if m in rows and (m + 1, s) in where:
                rank[(m, s)] = mat_rank([rows[m][r] for r in idx], mod)
        out = {}
        for (m, s), idx in where.items():
            h = len(idx) - rank.get((m, s), 0) - rank.get((m - 1, s), 0)
            if h:
                out[(m, s)] = h
        return out


def _hom_vectors(i, M, descending=False):
    """The basis of RHom(P_i, M): a basis path phi in e_i A e_j against
    summand r = (j, s) of M^t is the vector labelled (r, key) in bidegree
    (t, d), d = deg(phi) + s, which names it among the vectors on r.
    Returns ``(basis, index)``: basis[t] lists the (internal degree, label)
    pairs of the nonempty degrees t, summand by summand, each summand's
    paths in ``hom_basis`` order, or in descending degree with
    ``descending``; index[t][r] maps d to the position in basis[t] of the
    vector of degree d on summand r of M^t, or is None when r carries none.
    The callers validate i.
    """
    alg = M.algebra
    paths = alg._hom_basis  # hom_basis without its vertex checks: M's are valid
    basis = {}
    index = {}
    for t, row in M.terms.items():
        vecs = []
        at = [None] * len(row)
        for r, (j, s) in enumerate(row):
            keys = paths.get((i, j))
            if keys:
                pos = at[r] = {}
                for key in keys[::-1] if descending else keys:
                    d = alg.deg[key] + s
                    pos[d] = len(vecs)
                    vecs.append((d, (r, key)))
        if vecs:
            basis[t] = vecs
            index[t] = at
    return basis, index


def _hom_into(M, index, rows, neg=False):
    """Write the differential of RHom(P_i, M), a path followed by d_M, into
    ``rows``: rows[t][k], the dict row of the vector of degree t that
    ``index`` numbers k (as ``_hom_vectors`` made it, or renumbered by the
    untwist), receives each entry at the number of its column, as mod - x
    with ``neg``; a vector that ``index`` leaves out gets none.  A
    path to summand a of degree d followed by an entry x from a to b is x
    times the vector of degree d on b, or zero when b carries no such
    vector (the degree rule of the module docstring).  A (vector, column)
    pair meets one entry of d_M, so each entry is set once."""
    mod = M.algebra.field.char or 0
    for t, mat in M._rows.items():
        if t not in index or t + 1 not in index:  # no vector on M^t or M^{t+1}
            continue
        out, cols = rows[t], index[t + 1]
        for at, row in zip(index[t], mat):
            if at is None:
                continue
            for b, x in row.items():
                # x runs from summand a of M^t to summand b of M^{t+1}
                to = cols[b]
                if to is None:
                    continue
                if neg:
                    x = mod - x
                for d, k in at.items():
                    c = to.get(d)
                    if c is not None:
                        out[k][c] = x


def hom_from_projective(i, M):
    """The complex computing RHom(P_i, M) (``_hom_vectors``, ``_hom_into``)."""
    M.algebra.check_vertex(i)
    basis, index = _hom_vectors(i, M)
    rows = {t: [{} for _ in vecs] for t, vecs in basis.items()}
    _hom_into(M, index, rows)
    return GradedVectorComplex(M.algebra.field, basis, rows)


def hom_to_projective(M, i):
    """The complex computing RHom(M, P_i), read off its dual RHom(P_i, M):
    by the trace pairing, the vector (r, phi) in bidegree (t, d) pairs with
    (r, phi*) in (-t, N - d), phi* the path of degree N - deg(phi) back to
    i, and the differential of degree -t-1 is the transpose of that of
    degree t.  Each summand's paths in descending degree list their duals
    in ``hom_basis`` order."""
    alg, N = M.algebra, M.algebra.params.N
    alg.check_vertex(i)
    basis, index = _hom_vectors(i, M, descending=True)
    rows = {t: [{} for _ in vecs] for t, vecs in basis.items()}
    _hom_into(M, index, rows)
    back = {-t - 1: [{} for _ in rows[t + 1]] for t in rows if t + 1 in rows}
    for t, mat in rows.items():  # the last degree's rows are empty
        for a, row in enumerate(mat):
            for b, x in row.items():
                back[-t - 1][b][a] = x
    return GradedVectorComplex(alg.field, {
        -t: [(N - d, (r, alg.path[(alg.tgt[key], i, N - alg.deg[key])]))
             for d, (r, key) in vecs] for t, vecs in basis.items()}, back)


def homology_table(M):
    """Per-vertex bigraded homology of RHom(P_i, M)."""
    return {
        i: hom_from_projective(i, M).homology()
        for i in range(1, M.algebra.params.n + 1)
    }


# ----------------------------------------------------------------------
# isomorphism testing


def _sorted_summands(M):
    """M with each degree's summands in stable sorted order, the
    differential's rows and columns permuted to match."""
    perm = {t: sorted(range(len(row)), key=row.__getitem__)
            for t, row in M.terms.items()}
    terms = {t: tuple(M.terms[t][i] for i in p) for t, p in perm.items()}
    rows = {}
    for t, mat in M._rows.items():
        new = {old: k for k, old in enumerate(perm[t + 1])}
        rows[t] = [{new[c]: x for c, x in mat[r].items()} for r in perm[t]]
    return ProjComplex._from_rows(M.algebra, terms, rows)


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
    mod = M.algebra.field.char or 0
    for t, mat in M._rows.items():
        src, tgt = M.terms[t], M.terms[t + 1]
        for r, row in enumerate(mat):
            v, s = src[r]
            for c, x in row.items():
                v2, s2 = tgt[c]
                if v != v2:  # the entry is a multiple of the arrow v -> v2
                    block = blocks.setdefault((t, ("a", v, v2), s, s2), {})
                    block.setdefault(r, {})[c] = x
    return {b: mat_rank(list(rows.values()), mod) for b, rows in blocks.items()}


def _seeded_weights(m, mod):
    """Four fixed pseudo-random weight vectors: MINSTD values from seed 1,
    reduced mod p over F_p and mod 65536 over Q."""
    x = 1
    for _ in range(4):
        point = []
        for _ in range(m):
            x = x * 48271 % 2147483647
            point.append(x % (mod or 65536))
        yield point


def _chain_maps(M, K, mod):
    """``(index, blocks, kernel)``: the unknowns of a chain map M -> K, its
    idempotent blocks and a basis of the chain maps.

    The unknowns are the entries (t, r, c) whose two summands have a basis
    path between them, numbered in that order: ``index[t][r]`` maps each c
    of an unknown (t, r, c) to its number.  ``blocks`` holds per degree t
    and summand of M^t the numbers of the idempotent coefficients between
    its copies: one row per copy in M^t, one column per copy in K^t.  The
    equation (t, r, c) is the scalar of entry (r, c) of
    d_M[t] . f[t+1] - f[t] . d_K[t], a dict {unknown: coefficient} kept in
    the r-th dict {c: equation} of degree t.  Each product visits only the
    unknowns on its middle summand.  Each unknown meets an equation through
    one middle summand only, so its coefficient is one nonzero scalar of
    d_M or d_K (negated, as mod - x, for d_K), set once.  The fresh rows go
    to ``_kernel``, whose basis does not depend on their order.
    """
    path = M.algebra.path
    index = {}
    blocks = {}
    count = 0
    for t in sorted(M.terms.keys() & K.terms.keys()):
        copies = {}
        for c, summand in enumerate(K.terms[t]):
            copies.setdefault(summand, []).append(c)
        index[t] = rows = []
        for v, s in M.terms[t]:
            cs = sorted(c for (v2, s2), group in copies.items()
                        if (v, v2, s - s2) in path for c in group)
            row = dict(zip(cs, range(count, count + len(cs))))
            rows.append(row)
            count += len(cs)
            blocks.setdefault((t, v, s), []).append(
                [row[c] for c in copies.get((v, s), ())])
    equations = []
    for t, src in M.terms.items():
        tgt = K.terms.get(t + 1)
        if not tgt:
            continue
        eqs = [{} for _ in src]
        d, f1 = M._rows.get(t), index.get(t + 1)
        if d and f1:  # d_M[t] . f[t+1]
            for (v, s), row, eq in zip(src, d, eqs):
                for m, x in row.items():
                    for c, i in f1[m].items():
                        w, s2 = tgt[c]
                        if (v, w, s - s2) in path:
                            eq.setdefault(c, {})[i] = x
        f, dk = index.get(t), K._rows.get(t)
        if f and dk:  # - f[t] . d_K[t]
            for (v, s), row, eq in zip(src, f, eqs):
                for m, i in row.items():
                    for c, x in dk[m].items():
                        w, s2 = tgt[c]
                        if (v, w, s - s2) in path:
                            eq.setdefault(c, {})[i] = mod - x
        for eq in eqs:
            equations.extend(eq.values())
    return index, list(blocks.values()), _kernel(equations, count, mod)


def _block_dim(blocks, kernel, mod):
    """dim pi(Hom(M, K)): the rank of the chain maps ``kernel`` restricted
    to their idempotent ``blocks``."""
    block = {i for blk in blocks for row in blk for i in row}
    return mat_rank([{i: x for i, x in vec.items() if i in block} for vec in kernel], mod)


def is_isomorphic(M, K, with_certificate=False):
    """Decide whether two complexes are isomorphic (not merely quasi-iso).

    Both inputs are minimized first; minimal complexes are isomorphic iff
    there is a chain map whose idempotent-coefficient blocks are invertible
    in every homological degree.  Returns ``bool`` or, with
    ``with_certificate=True``, a pair ``(bool, ChainMap-or-None)`` where the
    certificate maps minimize(M) to minimize(K).

    The decisions come in this order:

    0. without ``with_certificate``, before minimizing: the inputs are equal
       as data once each degree's summands are in stable sorted order
       (``_sorted_summands``), so the sorting permutation is a chain map:
       isomorphic;
    1. both minimal complexes are zero: isomorphic;
    2. the summands of some degree differ as multisets: not isomorphic;
    3. the arrow-block ranks differ (``_arrow_ranks``): not isomorphic;
    4. the chain-map system d_M . f = f . d_K, which ``_chain_maps``
       writes in one pass, has only the zero solution: not isomorphic.
       Its fresh rows go to ``linalg._kernel`` uncopied,
       which first peels them: an equation with one unknown left forces
       that unknown to zero everywhere, which may leave more such
       equations.  On the ladder this settles 84% of the unknowns at 55
       summands and 98.9% at 1597.  Only the rest is eliminated, over Q in
       integers, and the kernel basis is the canonical one all the same;
    5. one stream of candidate weights for a combination of the kernel
       basis, in this order: weight 1 on every kernel vector; the ramp,
       weight k on kernel vector k; weight 1 on the kernel vectors whose
       free column is the idempotent coefficient between the j-th copies
       of a summand in both complexes; the four points of
       ``_seeded_weights``; then, unless the idempotent-block
       parts of Hom(Mm, Km), End(Mm) and End(Km) differ in dimension
       (``_block_dim``), every weight vector with weight k at most the
       number of block rows kernel vector k meets (and below p over F_p).
       The first combination whose every block has full rank
       (``mat_rank``) is the certificate: isomorphic; when the stream runs
       out: not isomorphic.

    Raises ValueError when M and K live over algebras with different
    parameters or fields.
    """
    if M.algebra != K.algebra:
        raise ValueError("the complexes live over different algebras")
    if not with_certificate and (M == K or _sorted_summands(M) == _sorted_summands(K)):
        return True
    Mm = minimize(M)
    Km = minimize(K)
    mod = Mm.algebra.field.char or 0

    def done(ok, cert):
        return (ok, cert) if with_certificate else ok

    if Mm.is_zero() and Km.is_zero():
        return done(True, ChainMap.zero(Mm, Km))
    if not _multisets_match(Mm, Km) or _arrow_ranks(Mm) != _arrow_ranks(Km):
        return done(False, None)

    # f is invertible iff in each degree the scalar block of idempotent
    # coefficients between the copies of each (vertex, shift) is
    index, blocks, kernel = _chain_maps(Mm, Km, mod)
    if not kernel:
        return done(False, None)

    def accept(weights):
        combo = {}
        for w, vec in zip(weights, kernel):
            if w:
                for i, x in vec.items():
                    combo[i] = combo.get(i, 0) + w * x
        if mod:
            combo = {i: x % mod for i, x in combo.items()}
        if not all(mat_rank([[combo.get(i, 0) for i in row] for row in blk], mod)
                   == len(blk) for blk in blocks):
            return None
        rows = {}
        for t, f in index.items():
            for r, f_row in enumerate(f):
                for c, i in f_row.items():
                    x = combo.get(i)
                    if x:
                        if t not in rows:
                            rows[t] = [{} for _ in f]
                        rows[t][r][c] = x
        cert = ChainMap._from_rows(Mm, Km, rows)
        cert._validate()
        return cert

    def candidates():
        yield [1] * len(kernel)
        yield list(range(1, len(kernel) + 1))
        # the free column of a kernel vector is its last nonzero entry
        matched = {row[j] for blk in blocks for j, row in enumerate(blk)}
        yield [1 if max(vec) in matched else 0 for vec in kernel]
        yield from _seeded_weights(len(kernel), mod)
        # pi, the idempotent-block part, is multiplicative, so an isomorphism
        # u gives pi(Hom(Mm, Km)) = pi(End Mm) pi(u) = pi(u) pi(End Km)
        dim = _block_dim(blocks, kernel, mod)
        if any(_block_dim(*_chain_maps(X, X, mod)[1:], mod) != dim for X in (Mm, Km)):
            return
        # the product of the block determinants has degree <= reach[k] in
        # weight k, the number of block rows kernel vector k meets, so its
        # first nonvanishing point in lexicographic order has weight k <= reach[k]
        row_of = {i: b for b, row in enumerate(row for blk in blocks for row in blk)
                  for i in row}
        reach = [len({row_of[i] for i in vec if i in row_of}) for vec in kernel]
        yield from iproduct(*(range(min(mod, d + 1) if mod else d + 1) for d in reach))

    for weights in candidates():
        cert = accept(weights)
        if cert is not None:
            return done(True, cert)
    return done(False, None)
