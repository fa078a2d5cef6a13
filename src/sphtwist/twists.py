"""Spherical twist functors, braid-word evaluation and relation checks.

A braid word is a sequence of nonzero integers: g > 0 applies the twist at
vertex g, g < 0 its inverse.  Words act left to right.  All outputs are
minimized, so sizes stay proportional to the homology they carry.
"""

from functools import cached_property

from .algebra import _Record
from .complexes import (
    ProjComplex,
    _glue,
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


def _twist(i, M, inverse):
    """The shared body of ``twist`` and (with ``inverse``) ``untwist``.

    One copy of P_i per vector (d, (r, key)) of H = RHom(P_i, M) on
    summand r of M^t, with differential -d_H, written once by
    ``_hom_into``.  Twist: P_i<d> in degree t - 1, the copies before M in
    each degree, with evaluation entry 1 into r.  Untwist: the copy of the
    vector's Frobenius dual in RHom(M, P_i), P_i<d - N> in degree t + 1,
    after M, with co-evaluation entry -1 from r; each summand's vectors are
    listed in descending degree, the order ``hom_basis`` lists their duals
    in, and -d_H is written at its final columns, past M^{t+2}.  ``_glue``
    lays the cone out from rows no one else holds, taking over those of
    -d_H as they are, so ``minimize`` reduces them in place.  A letter with
    no vector is the cone of 0 -> M, or of M -> 0 shifted back: M.
    """
    basis, index = _hom_vectors(i, M, descending=inverse)
    if not basis:
        return minimize(M)
    alg = M.algebra
    rows = {t: [{} for _ in vecs] for t, vecs in basis.items()}
    off = {t: len(M.terms.get(t + 2, ())) for t in basis} if inverse else None
    _hom_into(M, index, rows, neg=True, off=off)
    del index  # a letter peaks in _glue and minimize: free H's index, then basis
    # the copies of the vectors of H^t sit in degree t + 1 or t - 1
    dt, ds = (1, -alg.params.N) if inverse else (-1, 0)
    copies = {t + dt: tuple((i, d + ds) for d, _l in vecs) for t, vecs in basis.items()}
    dH = {t + dt: rows[t] for t in basis}
    if inverse:
        mod = alg.field.char or 0
        coev = {t: [(r, k, mod - 1) for k, (_d, (r, _key)) in enumerate(vecs)]
                for t, vecs in basis.items()}
        mrows = {t: [dict(row) for row in mat] for t, mat in M._rows.items()}
        cone = _glue(alg, M.terms, mrows, coev, copies, dH, placed=True)
    else:
        ev = {t - 1: [(k, r, 1) for k, (_d, (r, _key)) in enumerate(vecs)]
              for t, vecs in basis.items()}
        cone = _glue(alg, copies, dH, ev, M.terms, M._rows)
    cone._fresh = True
    del basis
    return minimize(cone)


def twist(i, M):
    """Twist at vertex i: the cone of the evaluation P_i (x) RHom(P_i, M) -> M.

    A basis path phi in e_i A e_j against the summand (j, s) of M^t
    contributes a summand P_i<deg(phi) + s> in homological degree t of the
    tensor, t - 1 of the cone; the evaluation entry for that copy is phi
    itself.  The copies' rows, -d_H, are written from the vectors of
    RHom(P_i, M) without building that hom complex; ``_glue`` lays them
    out with the evaluation entries and M's rows, and ``minimize`` reduces
    the cone in place (``_twist``).
    """
    return _twist(i, M, inverse=False)


def untwist(i, M):
    """Inverse twist at vertex i, via the Frobenius-dual co-evaluation.

    The co-evaluation M -> P_i (x) RHom(M, P_i)^dual is read off
    RHom(P_i, M): by the trace pairing, the basis path phi in e_i A e_j
    against the summand (j, s) of M^t is dual to phi* in e_j A e_i, whose
    copy P_i<deg(phi) + s - N> sits in homological degree t + 1 of the
    result, with co-evaluation entry phi* itself.  The result is the
    shifted cone minimize(cone(co-evaluation)[-1]): ``_glue`` lays out a
    copy of M's rows, the co-evaluation entries and the copies' rows -d_H,
    which ``_hom_into`` writes at their columns in the cone, and
    ``minimize`` reduces the cone in place (``_twist``); the shifts are
    arranged so that twist and untwist are inverse on the nose.
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
