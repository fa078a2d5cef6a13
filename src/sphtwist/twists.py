"""Spherical twist functors, braid-word evaluation and relation checks.

A braid word is a sequence of nonzero integers: g > 0 applies the twist at
vertex g, g < 0 its inverse.  Words act left to right.  All outputs are
minimized, so sizes stay proportional to the homology they carry.
"""

from .complexes import (
    ProjComplex,
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
    summand r of M^t, with differential -d_H.  Twist: P_i<d> in degree
    t - 1, the copies before M in each degree, with evaluation entry 1
    into r.  Untwist: the copy of the vector's Frobenius dual in
    RHom(M, P_i), P_i<d - N> in degree t + 1, after M, with co-evaluation
    entry -1 from r; each summand's vectors are listed in descending
    degree, the order ``hom_basis`` lists their duals in.  The cone's
    dict rows are written once, in that layout (the copies' rows by
    ``_hom_into``), and ``minimize`` reduces them in place.  A letter with
    no vector is the cone of 0 -> M, or of M -> 0 shifted back: M.
    """
    basis, index = _hom_vectors(i, M, descending=inverse)
    if not basis:
        return minimize(M)
    mod = M.algebra.field.char or 0
    terms, mrows = M.terms, M._rows
    rows = {}
    if not inverse:
        # degree u: the copies of H^{u+1}, then M^u
        copies = {t - 1: tuple((i, d) for d, _l in vecs) for t, vecs in basis.items()}
        hrows = {t: [{len(basis.get(t + 1, ())) + r: 1} for _d, (r, _k) in vecs]
                 for t, vecs in basis.items()}
        _hom_into(M, index, hrows, neg=True)
        glued = {u: copies.get(u, ()) + terms.get(u, ())
                 for u in copies.keys() | terms.keys()}
        for u in glued:
            if u + 1 in glued:
                off = len(copies.get(u + 1, ()))
                mat = rows[u] = hrows.get(u + 1, [])
                if u not in mrows:
                    mat.extend({} for _ in terms.get(u, ()))
                elif off:
                    mat.extend([{off + c: x for c, x in row.items()}
                                for row in mrows[u]])
                else:
                    mat.extend(map(dict, mrows[u]))
    else:
        # degree u: M^u, then the copies of H^{u-1}
        N = M.algebra.params.N
        copies = {t + 1: tuple((i, d - N) for d, _l in vecs)
                  for t, vecs in basis.items()}
        hrows = {t: [{} for _ in vecs] for t, vecs in basis.items()}
        _hom_into(M, index, hrows, neg=True,
                  shift={t: len(terms.get(t + 2, ())) for t in basis})
        glued = {u: terms.get(u, ()) + copies.get(u, ())
                 for u in terms.keys() | copies.keys()}
        for u in glued:
            if u + 1 in glued:
                off = len(terms.get(u + 1, ()))
                mat = rows[u] = ([dict(row) for row in mrows[u]] if u in mrows
                                 else [{} for _ in terms.get(u, ())])
                if u in basis:
                    for r, row in enumerate(mat):
                        for k in index.get((u, r), {}).values():
                            row[off + k] = mod - 1
                mat.extend(hrows.get(u - 1, ()))
    cone = ProjComplex._from_rows(M.algebra, glued, rows)
    cone._fresh = True
    return minimize(cone)


def twist(i, M):
    """Twist at vertex i: the cone of the evaluation P_i (x) RHom(P_i, M) -> M.

    A basis path phi in e_i A e_j against the summand (j, s) of M^t
    contributes a summand P_i<deg(phi) + s> in homological degree t of the
    tensor, t - 1 of the cone; the evaluation entry for that copy is phi
    itself.  The cone's rows are written once, in their final layout, from
    the vectors of RHom(P_i, M) without building that hom complex, and
    ``minimize`` reduces them in place (``_twist``).
    """
    return _twist(i, M, inverse=False)


def untwist(i, M):
    """Inverse twist at vertex i, via the Frobenius-dual co-evaluation.

    The co-evaluation M -> P_i (x) RHom(M, P_i)^dual is read off
    RHom(P_i, M): by the trace pairing, the basis path phi in e_i A e_j
    against the summand (j, s) of M^t is dual to phi* in e_j A e_i, whose
    copy P_i<deg(phi) + s - N> sits in homological degree t + 1 of the
    result, with co-evaluation entry phi* itself.  The result is the
    shifted cone minimize(cone(co-evaluation)[-1]), its rows written once
    from the vectors of RHom(P_i, M) and reduced in place (``_twist``); the
    shifts are arranged so that twist and untwist are inverse on the nose.
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


class RelationCheck:
    __match_args__ = ("relation", "object_vertex", "passed")

    def __init__(self, relation, object_vertex, passed):
        self.relation = relation
        self.object_vertex = object_vertex
        self.passed = passed

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.relation, self.object_vertex, self.passed) == (
            other.relation, other.object_vertex, other.passed)

    def __repr__(self):
        return "%s(relation=%r, object_vertex=%r, passed=%r)" % (
            type(self).__qualname__, self.relation, self.object_vertex, self.passed)


class RelationReport:
    __match_args__ = ("checks",)

    def __init__(self, checks=None):
        self.checks = [] if checks is None else checks

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.checks == other.checks

    def __repr__(self):
        return "%s(checks=%r)" % (type(self).__qualname__, self.checks)

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


def verify_relations(algebra, objects=None):
    """Check inverse, braid and commutation relations on the projectives.

    Relations are verified on objects (each P_k), not as natural
    transformations.  They are evaluated one P_k at a time, each prefix of
    their words applied once to it, and reported group by group, each
    group on every object in turn.
    """
    if objects is None:
        objects = range(1, algebra.params.n + 1)
    groups = _relation_groups(algebra.params.n)
    passed = {}
    for k in objects:
        images = {(): ProjComplex.projective(algebra, k)}

        def image(word):
            if word not in images:
                images[word] = apply_letter(word[-1], image(word[:-1]))
            return images[word]

        for group in groups:
            for name, w1, w2 in group:
                passed[(name, k)] = is_isomorphic(image(w1), image(w2))
    report = RelationReport()
    for group in groups:
        for k in objects:
            for name, _w1, _w2 in group:
                report.checks.append(RelationCheck(name, k, passed[(name, k)]))
    return report


# ----------------------------------------------------------------------
# the faithfulness-based distinguisher


class ComparisonReport:
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
        self.hom_matrices = hom_matrices

    def _fields(self):
        return (self.word1, self.word2, self.distinct, self.witness_vertex,
                self.witness_invariant, self.per_vertex, self.hom_matrices)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(self.__match_args__, self._fields())))

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
    matrices (as ``hom_matrix`` gives them) are read from the same 2n
    images w1.P_k and w2.P_k that decide the verdict; the common prefix of
    w1 and w2 is applied once per P_k.
    """
    n = algebra.params.n
    check_word(w1, n)
    check_word(w2, n)
    report = ComparisonReport(word1=list(w1), word2=list(w2), distinct=False)
    common = 0  # the shared prefix of w1 and w2 is applied once per k
    while common < min(len(w1), len(w2)) and w1[common] == w2[common]:
        common += 1
    images1, images2 = [], []
    for k in range(1, n + 1):
        P = apply_word(w1[:common], ProjComplex.projective(algebra, k))
        a = apply_word(w1[common:], P)
        b = apply_word(w2[common:], P)
        images1.append(a)
        images2.append(b)
        ok = is_isomorphic(a, b)
        report.per_vertex[k] = "isomorphic" if ok else "non-isomorphic"
        if not ok and not report.distinct:
            report.distinct = True
            report.witness_vertex = k
            report.witness_invariant = "w1.P%d = %r vs w2.P%d = %r" % (k, a, k, b)
    report.hom_matrices = (_hom_table(images1), _hom_table(images2))
    return report
