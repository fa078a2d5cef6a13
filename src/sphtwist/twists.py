"""Spherical twist functors, braid-word evaluation and relation checks.

A braid word is a sequence of nonzero integers: g > 0 applies the twist at
vertex g, g < 0 its inverse.  Words act left to right.  All outputs are
minimized, so sizes stay proportional to the homology they carry.
"""

from functools import cached_property

from .algebra import _Record
from .complexes import (
    ProjComplex,
    _cancel,
    _hom_into,
    _hom_vectors,
    homology_table,
    is_isomorphic,
    minimize,
)


def parse_braid_word(text, n):
    """Parse a whitespace-separated word of nonzero generators.

    Accepts tokens like ``1 2 -1``; rejects 0, out-of-range generators and
    non-integers.
    """
    letters = []
    for tok in text.split():
        try:
            g = int(tok)
        except ValueError:
            raise ValueError("braid letter %r is not an integer" % (tok,))
        if g == 0:
            raise ValueError("braid letter 0 is not allowed")
        if abs(g) > n:
            raise ValueError("braid letter %d outside generator range 1..%d" % (g, n))
        letters.append(g)
    return letters


def check_word(letters, n):
    for g in letters:
        if g == 0 or abs(g) > n:
            raise ValueError("braid letter %r outside generator range 1..%d" % (g, n))
    return list(letters)


def _meets(i, M):
    """True when a summand of M lies within distance 1 of vertex i; else
    RHom(P_i, M) = 0."""
    for row in M.terms.values():
        for v, _s in row:
            if -2 < v - i < 2:
                return True
    return False


def _evaluation_cone(i, M):
    """The twist's cone of the evaluation P_i (x) H -> M, H = RHom(P_i, M),
    minimized, in the layout of ``minimize`` on the glued cone.

    In degree u the cone holds the copies of the vectors of H^{u+1}, in
    the order ``_hom_vectors`` numbers them, then M's summands.  A copy's
    row holds -d_H, which ``_hom_into`` writes, then its evaluation entry
    1 into r.  When M is minimal, ``minimize``'s sweep runs before the
    layout, in its order, and the cone is returned marked minimal.  M's
    rows hold radical entries, and an update multiplies one of them, so
    they never pivot and only the copies' rows are searched.  A copy
    cancels against another copy (an entry of -d_H, which keeps the
    internal degree) or, with none left, against an i-summand of M by its
    evaluation entry.  M's rows join the column index, shared, at the
    first such pivot of their degree, and are copied at their first change.
    Each surviving row is then written once at its final columns, or kept
    when the next degree lost nothing.  Any other M gets the same layout
    with nothing cancelled, and ``minimize`` reduces it in place.
    """
    alg = M.algebra
    mod, path = alg.field.char or 0, alg.path
    basis, index = _hom_vectors(i, M)
    work = {t: [{} for _ in vecs] for t, vecs in basis.items()}  # rows of H^t's copies
    _hom_into(M, index, work, neg=True)
    del index  # a letter peaks in the layout: free H's index, then its basis
    copies = {}
    for t, vecs in basis.items():
        mat, off, out = work[t], len(basis.get(t + 1, ())), []
        for row, (d, (r, _key)) in zip(mat, vecs):
            row[off + r] = 1
            out.append((i, d))
        copies[t - 1] = tuple(out)
    del basis
    # the degrees in the order of the glued cone, the set union of the
    # copies' degrees and M's, which is_isomorphic writes its equations in
    summ = {u: copies.get(u, ()) + M.terms.get(u, ())
            for u in copies.keys() | M.terms.keys()}
    dead = {}  # cancelled summands, by degree
    for t in sorted(work) if M._minimal else ():  # the sweep of degree t - 1
        mat, src, tgt = work[t], summ[t - 1], summ[t]
        nc, off, held = len(mat), len(copies.get(t, ())), M._rows.get(t - 1)
        gone, at = dead.get(t - 1, ()), None
        for r in range(nc):
            if r in gone:
                continue
            row, s, c = mat[r], src[r], -1
            for cc in row:
                if tgt[cc] == s and (c < 0 or cc < c):
                    c = cc
            if c < 0:
                continue
            if at is None:
                at = [set() for _ in tgt]
                for rr in range(nc):
                    if rr not in gone:
                        for cc in mat[rr]:
                            at[cc].add(rr)
                gone, cut = dead.setdefault(t - 1, set()), dead.setdefault(t, set())
            if c >= off and held:  # the copy cancels against a summand of M
                if len(mat) == nc:
                    mat.extend(held)
                    for rr, live in enumerate(held, nc):
                        if rr not in gone:
                            for b in live:
                                at[off + b].add(rr)
                for rr in at[c]:
                    if rr >= nc and mat[rr] is held[rr - nc]:
                        mat[rr] = {off + b: x for b, x in mat[rr].items()}
            _cancel(mat, at, r, c, src, tgt, path, mod)
            gone.add(r)
            cut.add(c)
    terms, place = {}, {}
    for u, src in summ.items():
        gone = dead.get(u)
        if not gone:
            terms[u] = src
            continue
        keep = [p for p in range(len(src)) if p not in gone]
        if keep:
            terms[u] = tuple(src[p] for p in keep)
            place[u] = {p: k for k, p in enumerate(keep)}
    rows = {}
    for u in terms:
        if u + 1 not in terms:
            continue
        mat, gone, cols = work.get(u + 1, ()), dead.get(u, ()), place.get(u + 1)
        nc, off = len(copies.get(u, ())), len(copies.get(u + 1, ()))
        out = rows[u] = [
            row if cols is None else {cols[c]: x for c, x in row.items() if c in cols}
            for k, row in enumerate(mat[:nc]) if k not in gone]
        held = M._rows.get(u) or [{}] * len(M.terms.get(u, ()))
        for a, row in enumerate(mat[nc:] or held):
            if nc + a in gone:
                continue
            if row is not held[a]:  # changed by a pivot, in the glued columns
                out.append(row if cols is None else {cols[c]: x for c, x in row.items()})
            elif cols is None:
                out.append({off + b: x for b, x in row.items()})
            else:
                out.append({cols[off + b]: x for b, x in row.items()})
    cone = ProjComplex._from_rows(alg, terms, rows)
    if M._minimal:
        cone._minimal = True
        return cone
    cone._fresh = True
    return minimize(cone)


def _twist(i, M, inverse):
    """The shared body of ``twist`` and (with ``inverse``) ``untwist``.

    One copy of P_i per vector (d, (r, key)) of H = RHom(P_i, M) on
    summand r of M^t, with differential -d_H, written once by
    ``_hom_into``.  Twist: P_i<d> in degree t - 1, the copies before M in
    each degree, with evaluation entry 1 into r (``_evaluation_cone``).
    Untwist: the copy of the vector's Frobenius dual in RHom(M, P_i),
    P_i<d - N> in degree t + 1, after M, with co-evaluation entry -1 from
    r; each summand's vectors are listed in descending degree, the order
    ``hom_basis`` lists their duals in.  When M is minimal, each i-summand
    r = (i, s) of M^t is cancelled against the copy of its loop vector,
    P_i<s> in degree t + 1, before the cone is laid out (Gaussian
    elimination): their entry -e_i is the only invertible one of r's row,
    so ``minimize`` would take exactly these pivots, first in each degree.
    The cone keeps M's other summands and the other copies, each row
    written once at its final columns: a row of M with its co-evaluation
    entries, and a copy's -d_H, to which each entry x into a cancelled loop
    copy of r adds x . d_M(r, -) and -x at the copy of (r, e_i), one r at a
    time in ascending order, as ``minimize`` would.  What is left for
    ``minimize`` are the entries of -d_H between kept copies; without any,
    the cone is minimal as built.  A letter with no summand of M within
    distance 1 of i (``_meets``) has no vector, and returns M, minimized:
    the cone of 0 -> M, or of M -> 0 shifted back.
    """
    alg = M.algebra
    alg.check_vertex(i)
    if not _meets(i, M):
        return minimize(M)
    if not inverse:
        return _evaluation_cone(i, M)
    basis, index = _hom_vectors(i, M, descending=True)
    del basis
    N, mod = alg.params.N, alg.field.char or 0
    # place[t][r]: the index in the cone of summand r of M^t, None for a
    # cancelled i-summand; degrees with none to cancel have no entry
    place, kept = {}, dict(M.terms)
    if M._minimal:
        for t, row in M.terms.items():
            at, keep = [], []
            for a in row:
                if a[0] == i:
                    at.append(None)
                else:
                    at.append(len(keep))
                    keep.append(a)
            if len(keep) < len(row):
                place[t], kept[t] = at, tuple(keep)
    # index[t][r][d] becomes the index in the cone, in degree t + 1, of the
    # copy of the vector of degree d on r; the cancelled loop copies leave it
    copies = {}
    for t, at in index.items():
        row, cut, out = M.terms[t], place.get(t), []
        k = len(kept.get(t + 1, ()))
        for r, pos in enumerate(at):
            if pos is not None:
                if cut and cut[r] is None:
                    del pos[N + row[r][1]]
                for d in pos:
                    pos[d] = k
                    k += 1
                    out.append((i, d - N))
        copies[t + 1] = tuple(out)
    terms = {}
    for t in M.terms.keys() | copies.keys():  # the degrees in the glued cone's order
        row = kept.get(t, ()) + copies.get(t, ())
        if row:
            terms[t] = row
    rows, pivots, coev = {}, {}, mod - 1  # pivots: (t, r) -> row of cancelled r
    for t in terms:
        if t + 1 not in terms:
            continue
        mat = rows[t] = []
        cut, cols, at = place.get(t), place.get(t + 1), index.get(t)
        for r, src in enumerate(M._rows.get(t) or [{}] * len(M.terms.get(t, ()))):
            if cols is None:
                row = dict(src)
            else:
                row = {}
                for b, x in src.items():
                    if cols[b] is not None:
                        row[cols[b]] = x
            if at and at[r]:
                for k in at[r].values():  # the co-evaluation entries
                    row[k] = coev
            if cut and cut[r] is None:
                pivots[t, r] = row
            else:
                mat.append(row)
        mat.extend({} for _ in copies.get(t, ()))
    _hom_into(M, index, {t - 1: mat for t, mat in rows.items()}, neg=True)
    # an entry of -d_H joins two copies of one P_i<d - N>, so it is
    # invertible; the other entries of a minimal M's cone are not
    done = M._minimal and not any(
        any(mat[len(kept.get(t, ())):]) for t, mat in rows.items())
    # each entry x of d_M from a to a cancelled r is an entry -x of -d_H
    # into r's loop copy: the copy of a's vector of that degree gets -x
    # times the rest of r's row, as r's pivot would update it, one r at a
    # time in ascending order
    for t, mat in M._rows.items():
        cols = place.get(t + 1)
        if cols is None or t not in index:
            continue
        tgt, out = M.terms[t + 1], rows[t + 1]
        for at, row in zip(index[t], mat):
            if at is None:
                continue
            for b in sorted(row) if len(row) > 1 else row:
                if cols[b] is not None:
                    continue
                k = at.get(N + tgt[b][1])
                if k is None:
                    continue
                x, dst = row[b], out[k]
                for c, y in pivots[t + 1, b].items():
                    v = dst.get(c, 0) - x * y
                    if mod:
                        v %= mod
                    if v:
                        dst[c] = v
                    else:
                        del dst[c]
    cone = ProjComplex._from_rows(alg, terms, rows)
    if done:  # minimize would find no pivot and return the cone as it is
        cone._minimal = True
        return cone
    cone._fresh = True
    return minimize(cone)


def twist(i, M):
    """Twist at vertex i: the cone of the evaluation P_i (x) RHom(P_i, M) -> M.

    A basis path phi in e_i A e_j against the summand (j, s) of M^t
    contributes a summand P_i<deg(phi) + s> in homological degree t of the
    tensor, t - 1 of the cone; the evaluation entry for that copy is phi
    itself.  The copies' rows, -d_H, are written from the vectors of
    RHom(P_i, M) without building that hom complex.  For a minimal M the
    cone is reduced before its layout, in the order ``minimize`` would
    take its pivots, and each surviving row is written once at its final
    columns; no ``minimize`` runs (``_evaluation_cone``).
    """
    return _twist(i, M, inverse=False)


def untwist(i, M):
    """Inverse twist at vertex i, via the Frobenius-dual co-evaluation.

    The co-evaluation M -> P_i (x) RHom(M, P_i)^dual is read off
    RHom(P_i, M): by the trace pairing, the basis path phi in e_i A e_j
    against the summand (j, s) of M^t is dual to phi* in e_j A e_i, whose
    copy P_i<deg(phi) + s - N> sits in homological degree t + 1 of the
    result, with co-evaluation entry phi* itself.  The result is the
    shifted cone minimize(cone(co-evaluation)[-1]).  For a minimal M each
    i-summand and the copy of its loop vector are cancelled before the
    cone is laid out; the cone's rows, M's with the co-evaluation entries
    and the copies' -d_H, are each written once at their columns, and
    ``minimize`` reduces what is left in place, when anything is
    (``_twist``).  The shifts are arranged so that twist and untwist are
    inverse on the nose.
    """
    return _twist(i, M, inverse=True)


def apply_letter(g, M):
    if g > 0:
        return twist(g, M)
    return untwist(-g, M)


def apply_word(letters, M):
    """Left-to-right composition of twists, minimizing after each letter."""
    check_word(letters, M.algebra.params.n)
    out = M
    for g in letters:
        out = apply_letter(g, out)
    return out


def hom_matrix(letters, algebra, graded=False):
    """n x n table of total dims of H(RHom(P_i, w . P_j)).

    With ``graded=True`` entries are the bigraded dimension dicts instead.
    """
    images = [
        apply_word(letters, ProjComplex.projective(algebra, j))
        for j in range(1, algebra.params.n + 1)
    ]
    return _hom_table(images, graded)


def _hom_table(images, graded=False):
    """Entry (i, j) is the homology of RHom(P_i, images[j - 1])."""
    tables = [homology_table(image) for image in images]
    return [
        [tab[i] if graded else sum(tab[i].values()) for tab in tables]
        for i in range(1, len(images) + 1)
    ]


# ----------------------------------------------------------------------
# relation verification


class RelationCheck(_Record):
    __match_args__ = ("relation", "object_vertex", "passed")

    def __init__(self, relation, object_vertex, passed):
        self.relation = relation
        self.object_vertex = object_vertex
        self.passed = passed


class RelationReport(_Record):
    __match_args__ = ("checks",)

    def __init__(self, checks=None):
        self.checks = [] if checks is None else checks

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_dict(self):
        return {
            "all_passed": self.all_passed,
            "checks": [
                {
                    "relation": c.relation,
                    "object": c.object_vertex,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }


def _relation_groups(n):
    """The relations as (name, w1, w2), in groups reported together on each
    object: the two inverse relations of each generator, then each braid or
    commutation relation alone."""
    groups = [[("T%d T'%d = id" % (i, i), (i, -i), ()),
               ("T'%d T%d = id" % (i, i), (-i, i), ())] for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if j == i + 1:
                name = "T%d T%d T%d = T%d T%d T%d" % (i, j, i, j, i, j)
                groups.append([(name, (i, j, i), (j, i, j))])
            else:
                name = "T%d T%d = T%d T%d" % (i, j, j, i)
                groups.append([(name, (i, j), (j, i))])
    return groups


def _image(word, P, images):
    """word . P, each letter applied once per object it meets: ``images``
    is the memo {(id(M), letter): image} of one P, whose values keep each M
    alive.  A far letter returns its input, so its image is shared too."""
    M = P
    for g in word:
        key = (id(M), g)
        out = images.get(key)
        if out is None:
            out = images[key] = apply_letter(g, M)
        M = out
    return M


def verify_relations(algebra, objects=None):
    """Check inverse, braid and commutation relations on the projectives.

    Relations are verified on objects (each P_k), not as natural
    transformations, and reported group by group, each group on every
    object in turn.  RHom(P_i, P_k) = 0 for |i - k| > 1, so T_i and its
    inverse return P_k itself: a group with no letter within distance 1 of
    k holds on P_k with both sides P_k, and is recorded as passed with no
    letter applied.  The other groups are evaluated one P_k at a time,
    each letter applied once to each image it meets, so words that reach
    the same object share its next image.
    """
    if objects is None:
        objects = range(1, algebra.params.n + 1)
    groups = _relation_groups(algebra.params.n)
    near = {}  # vertex -> the groups with a letter within distance 1 of it
    for group in groups:
        letters = {abs(g) for _name, w1, w2 in group for g in w1 + w2}
        for k in {v for g in letters for v in (g - 1, g, g + 1)}:
            near.setdefault(k, []).append(group)
    passed = {}  # (name, k) -> verdict, for the groups near k only
    for k in objects:
        P = ProjComplex.projective(algebra, k)
        images = {}
        for group in near.get(k, ()):
            for name, w1, w2 in group:
                passed[(name, k)] = is_isomorphic(_image(w1, P, images),
                                                  _image(w2, P, images))
    report = RelationReport()
    for group in groups:
        for k in objects:
            for name, _w1, _w2 in group:
                report.checks.append(RelationCheck(name, k, passed.get((name, k), True)))
    return report


# ----------------------------------------------------------------------
# the faithfulness-based distinguisher


class ComparisonReport(_Record):
    """Outcome of acting with two words on every projective generator."""

    __match_args__ = ("word1", "word2", "distinct", "witness_vertex",
                      "witness_invariant", "per_vertex", "hom_matrices")

    def __init__(self, word1, word2, distinct, witness_vertex=None,
                 witness_invariant=None, per_vertex=None, hom_matrices=None):
        self.word1 = word1
        self.word2 = word2
        self.distinct = distinct
        self.witness_vertex = witness_vertex
        self.witness_invariant = witness_invariant
        self.per_vertex = {} if per_vertex is None else per_vertex
        if hom_matrices is not None:
            self.hom_matrices = hom_matrices

    _images = None  # the two image lists of ``compare_words``

    @cached_property
    def hom_matrices(self):
        """The pair of ``hom_matrix`` tables of the two image lists, built
        on first read; None for a report built without them."""
        if self._images is None:
            return None
        return tuple(map(_hom_table, self._images))

    @property
    def verdict(self):
        if self.distinct:
            return "Distinct"
        return "IndistinguishableOnObjects"

    def to_dict(self):
        out = {
            "word1": list(self.word1),
            "word2": list(self.word2),
            "verdict": self.verdict,
            "per_vertex": {str(k): v for k, v in sorted(self.per_vertex.items())},
        }
        if self.distinct:
            out["witness_vertex"] = self.witness_vertex
            out["witness_invariant"] = self.witness_invariant
        out["hom_matrix_word1"] = self.hom_matrices[0]
        out["hom_matrix_word2"] = self.hom_matrices[1]
        return out


def compare_words(w1, w2, algebra):
    """Distinguish two braid words through their actions on the P_k.

    Sound in one direction: a Distinct verdict (with a reproducible witness
    object) certifies the words act differently, hence present different
    braids.  Indistinguishable actions on the generators are reported as
    such, without claiming equality of the braids.  The report's hom
    matrices (as ``hom_matrix`` gives them) are read, on first use, from
    the same 2n images w1.P_k and w2.P_k that decide the verdict.  Both
    words are evaluated through the memo of ``verify_relations``
    (``_image``), so each letter is applied once per object it meets.
    """
    n = algebra.params.n
    check_word(w1, n)
    check_word(w2, n)
    report = ComparisonReport(word1=list(w1), word2=list(w2), distinct=False)
    images1, images2 = [], []
    for k in range(1, n + 1):
        P = ProjComplex.projective(algebra, k)
        images = {}
        a = _image(w1, P, images)
        b = _image(w2, P, images)
        images1.append(a)
        images2.append(b)
        ok = is_isomorphic(a, b)
        report.per_vertex[k] = "isomorphic" if ok else "non-isomorphic"
        if not ok and not report.distinct:
            report.distinct = True
            report.witness_vertex = k
            report.witness_invariant = "w1.P%d = %r vs w2.P%d = %r" % (k, a, k, b)
    report._images = (images1, images2)
    return report
