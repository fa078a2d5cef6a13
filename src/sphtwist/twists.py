"""Spherical twist functors, braid-word evaluation and relation checks.

A braid word is a sequence of nonzero integers: g > 0 applies the twist at
vertex g, g < 0 its inverse.  Words act left to right.  All outputs are
minimized, so sizes stay proportional to the homology they carry.
"""

from dataclasses import dataclass, field

from .complexes import (
    ChainMap,
    ProjComplex,
    _zeros,
    cone,
    hom_from_projective,
    hom_to_projective,
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


def _tensor_projective(i, H, M, dual=False):
    """P_i (x) H for a hom complex H of M, with its (co-)evaluation matrices.

    A basis vector of H of internal degree s in homological degree m becomes
    the summand P_i<s> in degree m, and a scalar entry c of the differential
    becomes c e_i.  The vector labelled (r, key) pairs with summand r of M
    through the basis path ``key``, which is the map's entry.  With ``dual``
    (H = RHom(M, P_i)) both degrees are negated, the differential is
    transposed and the map runs from M into the tensor.
    """
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
    return ProjComplex(alg, terms, diffs, check=False), maps


def twist(i, M):
    """Twist at vertex i: the cone of the evaluation P_i (x) RHom(P_i, M) -> M.

    A basis path phi in e_i A e_j against the summand (j, s) of M^t
    contributes a summand P_i<deg(phi) + s> in homological degree t; the
    evaluation entry for that copy is phi itself.  The result is minimized.
    """
    M.algebra.check_vertex(i)
    if M.is_zero():
        return M
    tensor, ev = _tensor_projective(i, hom_from_projective(i, M), M)
    return minimize(cone(ChainMap(tensor, M, ev, check=False)))


def untwist(i, M):
    """Inverse twist at vertex i, via the Frobenius-dual co-evaluation.

    RHom(M, P_i) is dualized through the perfect trace pairing, giving the
    co-evaluation M -> P_i (x) RHom(M, P_i)^dual whose entry into the copy
    dual to a basis path psi in e_j A e_i is psi itself; the copy sits in
    homological degree t with internal shift s - deg(psi).  The result is
    the shifted cone minimize(cone(co-evaluation)[-1]); the shifts are
    arranged so that twist and untwist are inverse on the nose.
    """
    M.algebra.check_vertex(i)
    if M.is_zero():
        return M
    tensor, coev = _tensor_projective(i, hom_to_projective(M, i), M, dual=True)
    return minimize(cone(ChainMap(M, tensor, coev, check=False)).shift(-1, 0))


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
    n = algebra.params.n
    out = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            image = apply_word(letters, ProjComplex.projective(algebra, j))
            hom = hom_from_projective(i, image)
            row.append(hom.homology() if graded else hom.total_homology_dim())
        out.append(row)
    return out


# ----------------------------------------------------------------------
# relation verification


@dataclass
class RelationCheck:
    relation: str
    object_vertex: int
    passed: bool


@dataclass
class RelationReport:
    checks: list = field(default_factory=list)

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


def verify_relations(algebra, objects=None):
    """Check inverse, braid and commutation relations on the projectives.

    Relations are verified on objects (each P_k), not as natural
    transformations.
    """
    n = algebra.params.n
    if objects is None:
        objects = range(1, n + 1)
    report = RelationReport()

    def check(name, k, w1, w2):
        P = ProjComplex.projective(algebra, k)
        ok = is_isomorphic(apply_word(w1, P), apply_word(w2, P))
        report.checks.append(RelationCheck(name, k, ok))

    for i in range(1, n + 1):
        for k in objects:
            check("T%d T'%d = id" % (i, i), k, [i, -i], [])
            check("T'%d T%d = id" % (i, i), k, [-i, i], [])
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in objects:
                if j == i + 1:
                    check(
                        "T%d T%d T%d = T%d T%d T%d" % (i, j, i, j, i, j),
                        k,
                        [i, j, i],
                        [j, i, j],
                    )
                else:
                    check("T%d T%d = T%d T%d" % (i, j, j, i), k, [i, j], [j, i])
    return report


# ----------------------------------------------------------------------
# the faithfulness-based distinguisher


@dataclass
class ComparisonReport:
    """Outcome of acting with two words on every projective generator."""

    word1: list
    word2: list
    distinct: bool
    witness_vertex: int = None
    witness_invariant: str = None
    per_vertex: dict = field(default_factory=dict)
    hom_matrices: tuple = None

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
        if self.hom_matrices is not None:
            out["hom_matrix_word1"] = self.hom_matrices[0]
            out["hom_matrix_word2"] = self.hom_matrices[1]
        return out


def compare_words(w1, w2, algebra, with_hom_matrices=True):
    """Distinguish two braid words through their actions on the P_k.

    Sound in one direction: a Distinct verdict (with a reproducible witness
    object) certifies the words act differently, hence present different
    braids.  Indistinguishable actions on the generators are reported as
    such, without claiming equality of the braids.
    """
    n = algebra.params.n
    check_word(w1, n)
    check_word(w2, n)
    report = ComparisonReport(word1=list(w1), word2=list(w2), distinct=False)
    for k in range(1, n + 1):
        P = ProjComplex.projective(algebra, k)
        a = apply_word(w1, P)
        b = apply_word(w2, P)
        ok = is_isomorphic(a, b)
        report.per_vertex[k] = "isomorphic" if ok else "non-isomorphic"
        if not ok and not report.distinct:
            report.distinct = True
            report.witness_vertex = k
            report.witness_invariant = "w1.P%d = %r vs w2.P%d = %r" % (k, a, k, b)
    if with_hom_matrices:
        report.hom_matrices = (hom_matrix(w1, algebra), hom_matrix(w2, algebra))
    return report
