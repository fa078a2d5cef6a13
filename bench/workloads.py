"""The benchmark's four workloads: their cases, set-up and output checks.

Each workload builds its inputs from a seed, lists a fixed sequence of cases
(one closed loop, one case after another) and checks every output against
``reference`` or against a property the mathematics guarantees.  Program
functions are always looked up through their module at call time
(``twists.apply_word``), so that the traced run sees every call.

Seeds only choose among inputs of equal cost: the mirror image of a word
under the diagram flip i -> n+1-i (braid words and Burau words), the
scalars of a basis change, and the letters of elliptic words with fixed
exponents.  So two seeds do the same amount of work and their timings are
comparable.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

from sphtwist import algebra, cli, complexes, ktheory, twists
from sphtwist.fields import Fp

import reference as ref


class Case:
    """One operation of a pass: ``run`` calls the program, ``check`` judges it.

    ``known_fault`` marks the one case that raises because of a known fault
    in the program: it is counted as failed, while any other case that
    raises makes the run incorrect.
    """

    __slots__ = ("name", "kind", "run", "check", "light", "known_fault")

    def __init__(self, name, kind, run, check, light, known_fault=False):
        self.name = name
        self.kind = kind
        self.run = run
        self.check = check
        self.light = light
        self.known_fault = known_fault


class Workload:
    top = None  # name of the fixed heavy case behind top_s

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.cases = []
        self.stdout_bytes = 0
        self.build()
        names = [c.name for c in self.cases]
        assert len(set(names)) == len(names) and self.top in names

    def add(self, name, kind, run, check, light=False, known_fault=False):
        self.cases.append(Case(name, kind, run, check, light, known_fault))

    def smallest(self):
        """The first case of each kind; cases are listed smallest first."""
        seen = {}
        for case in self.cases:
            seen.setdefault(case.kind, case)
        return list(seen.values())

    def flip(self):
        return self.rng.random() < 0.5


# ----------------------------------------------------------------------
# helpers shared by the checks


def scalar(x):
    return x.v if isinstance(x, Fp) else x


def elem(x):
    return {k: scalar(c) for k, c in x.coeffs.items()}


def summands(M):
    return sum(len(row) for row in M.terms.values())


def laurent(polys):
    return [dict(p.coeffs) for p in polys]


def alternating(table):
    out = {}
    for (m, s), d in table.items():
        out = ref.combine(out, {s: -d if m % 2 else d})
    return out


def canon(x):
    """A hashable, ordered form of an output, for comparing passes."""
    if hasattr(x, "mats"):
        return ("map", canon(x.source), canon(x.target), canon(x.mats))
    if hasattr(x, "terms") and hasattr(x, "diffs"):
        return ("cx", canon(x.terms), canon(x.diffs))
    if hasattr(x, "coeffs"):
        return tuple(sorted((k, str(c)) for k, c in x.coeffs.items()))
    if isinstance(x, dict):
        return tuple(sorted((canon(k), canon(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(canon(v) for v in x)
    return x


def check_certificate(chain, p, M, K, cert):
    """Re-validate an isomorphism certificate without the program.

    The certificate must map a complex with the classes of M onto one with
    the classes of K, be a homogeneous chain map under the reference
    product, and have invertible idempotent blocks in every degree.
    """
    problems = []
    src, tgt = cert.source, cert.target
    n = chain.n
    if ref.euler_of_terms(n, src.terms) != ref.euler_of_terms(n, M.terms):
        problems.append("certificate source has another Euler class than M")
    if ref.euler_of_terms(n, tgt.terms) != ref.euler_of_terms(n, K.terms):
        problems.append("certificate target has another Euler class than K")
    if set(src.terms) != set(tgt.terms):
        return problems + ["certificate source and target live in other degrees"]

    def mat(obj, t, rows, cols):
        have = obj.get(t)
        return [[elem(have[r][c]) if have else {} for c in range(cols)]
                for r in range(rows)]

    def mul(A, B):
        out = []
        for row in A:
            new = []
            for c in range(len(B[0]) if B else 0):
                acc = {}
                for k, x in enumerate(row):
                    if x and B[k][c]:
                        acc = ref.combine(acc, chain.mul(x, B[k][c]))
                new.append(acc)
            out.append(new)
        return out

    def reduce_mod(A):
        if p is None:
            return A
        return [[{k: v % p for k, v in x.items() if v % p} for x in row] for row in A]

    for t, row in src.terms.items():
        f = mat(cert.mats, t, len(row), len(tgt.terms[t]))
        for r, (v, s) in enumerate(row):
            for c, (v2, s2) in enumerate(tgt.terms[t]):
                for key in f[r][c]:
                    if chain.ends(key) != (v, v2) or chain.deg(key) != s - s2:
                        problems.append("certificate entry of wrong type at %d" % t)
        for vs in set(row):
            rs = [r for r, x in enumerate(row) if x == vs]
            cs = [c for c, x in enumerate(tgt.terms[t]) if x == vs]
            block = [[f[r][c].get(("e", vs[0]), 0) for c in cs] for r in rs]
            if not ref.invertible(block, p):
                problems.append("idempotent block at degree %d is singular" % t)
        if t + 1 in src.terms:
            n0, n1 = len(row), len(src.terms[t + 1])
            m0, m1 = len(tgt.terms[t]), len(tgt.terms[t + 1])
            f1 = mat(cert.mats, t + 1, n1, m1)
            lhs = mul(mat(src.diffs, t, n0, n1), f1)
            rhs = mul(f, mat(tgt.diffs, t, m0, m1))
            if reduce_mod(lhs) != reduce_mod(rhs):
                problems.append("certificate does not commute at degree %d" % t)
    return problems


# ----------------------------------------------------------------------
# ladder: twists, cone, minimize and the algebra product


class Ladder(Workload):
    """The pseudo-Anosov ladder [1,-2]^m, its invariants and its unwinding."""

    top = "Q P1 m=6"

    def build(self):
        self.chain = ref.Chain(2)
        Q = algebra.ZigzagAlgebra((2, 2))
        F7 = algebra.ZigzagAlgebra((2, 2), 7)
        for m in range(1, 7):
            self.rung("Q P1 m=%d" % m, "ladder Q", Q, 1, m)
        for m in range(1, 6):
            self.rung("Q P2 m=%d" % m, "ladder Q", Q, 2, m)
        for m in range(1, 6):
            self.rung("F7 P1 m=%d" % m, "ladder F7", F7, 1, m)

    def rung(self, name, kind, alg, k, m):
        word = [1, -2] * m
        if self.flip():
            word, k = self.chain.flip(word), 3 - k
        inverse = [-g for g in reversed(word)]
        want = ref.fibonacci(2 * m + 1 if "P1" in name else 2 * m + 2)

        def run():
            P = complexes.ProjComplex.projective(alg, k)
            M = twists.apply_word(word, P)
            e = ktheory.euler_class(M)
            h = complexes.homology_table(M)
            return M, e, h, twists.apply_word(inverse, M)

        def check(out):
            M, e, h, U = out
            problems = []
            if summands(M) != want:
                problems.append("%d summands, Fibonacci gives %d" % (summands(M), want))
            col = ref.burau_column(self.chain, word, k)
            if laurent(e) != col:
                problems.append("Euler class differs from the q-Burau column")
            for i in (1, 2):
                if alternating(h[i]) != ref.hom_pairing(self.chain, i, col):
                    problems.append("homology of RHom(P%d, M) has the wrong Euler "
                                    "characteristic" % i)
            if U.terms != {0: ((k, 0),)} or U.diffs:
                problems.append("unwinding gave %r, not P%d<0>" % (U, k))
            return problems

        self.add(name, kind, run, check, light=m <= 3)


# ----------------------------------------------------------------------
# iso: the isomorphism test, linalg and the field arithmetic


class Iso(Workload):
    """is_isomorphic on relation pairs, basis changes and distinct pairs."""

    top = "Q braid 34 summands"

    def build(self):
        Q = algebra.ZigzagAlgebra((2, 2))
        F7 = algebra.ZigzagAlgebra((2, 2), 7)
        Q3 = algebra.ZigzagAlgebra((3, 2))
        two, three = ref.Chain(2), ref.Chain(3)
        braid, comm = ([1, 2, 1], [2, 1, 2]), ([1, 3], [3, 1])
        w, u = [1, -2], [1, -2, 3]
        # name, algebra, chain, p, prefix, relation, vertex, relation first
        light = [
            ("Q braid 3 summands", Q, two, None, w, braid, 2, False),
            ("F7 braid 3 summands", F7, two, 7, w, braid, 2, False),
            ("Q3 comm 5 summands", Q3, three, None, u, comm, 1, False),
            ("Q braid 8 summands", Q, two, None, w * 2, braid, 1, True),
            ("Q3 comm 9 summands", Q3, three, None, u, comm, 2, False),
            ("Q braid 13 summands", Q, two, None, w * 3, braid, 1, False),
        ]
        heavy = [
            ("Q3 comm 19 summands", Q3, three, None, u * 2, comm, 1, False),
            ("Q braid 21 summands", Q, two, None, w * 3, braid, 1, True),
            ("Q3 comm 33 summands", Q3, three, None, u * 2, comm, 2, False),
            ("Q braid 34 summands", Q, two, None, w * 4, braid, 2, True),
            ("F7 braid 55 summands", F7, two, 7, w * 4, braid, 2, False),
        ]
        for spec in light:
            self.relation(*spec, light=True)
        self.distinct("distinct W2.21 W2.12", Q, two, w * 2 + [2, 1], w * 2 + [1, 2])
        self.distinct("distinct W3 W2.12", Q, two, w * 3, w * 2 + [1, 2])
        self.basis_change("basis change 5 summands", Q, two, w * 2, 1, light=True)
        for spec in heavy:
            self.relation(*spec, light=False)
        self.basis_change("basis change 21 summands", Q, two, [1, 2, 1] + w * 3, 1,
                          light=False)
        for p in (3, 13, None):
            self.two_copy(p)

    def relation(self, name, alg, chain, p, prefix, relation, k, first, light):
        """Both sides of a braid or commutation relation after (or before) a
        common prefix, applied to P_k."""
        r1, r2 = relation
        w1, w2 = (r1 + prefix, r2 + prefix) if first else (prefix + r1, prefix + r2)
        if self.flip():
            w1, w2, k = chain.flip(w1), chain.flip(w2), chain.n + 1 - k
        M, K = self.images(alg, w1, w2, k)
        assert name.endswith(" %d summands" % summands(M))
        self.pair(name, " ".join(name.split()[:2]), chain, p, M, K, expect=True,
                  light=light)

    def images(self, alg, w1, w2, k):
        P = complexes.ProjComplex.projective(alg, k)
        return twists.apply_word(w1, P), twists.apply_word(w2, P)

    def pair(self, name, kind, chain, p, M, K, expect, light, why=None):
        def run():
            return complexes.is_isomorphic(M, K, with_certificate=True)

        def check(out):
            ok, cert = out
            if ok != expect:
                return ["verdict %s, the mathematics gives %s (%s)"
                        % (ok, expect, why or "a braid relation holds")]
            if ok:
                return check_certificate(chain, p, M, K, cert)
            return [] if cert is None else ["a negative verdict carried a certificate"]

        self.add(name, kind, run, check, light)

    def distinct(self, name, alg, chain, w1, w2):
        k = 1
        if self.flip():
            w1, w2, k = chain.flip(w1), chain.flip(w2), chain.n + 1 - k
        if ref.burau_column(chain, w1, k) == ref.burau_column(chain, w2, k):
            raise ValueError("distinct pair %r, %r has equal Burau columns" % (w1, w2))
        M, K = self.images(alg, w1, w2, k)
        self.pair(name, "distinct", chain, None, M, K, expect=False, light=True,
                  why="Burau columns differ")

    def basis_change(self, name, alg, chain, word, k, light):
        """M against a seeded invertible change of basis of itself.

        In each degree f = permutation . diagonal . unipotent, with the
        unipotent made of homogeneous entries off the diagonal; the new
        differential is f_t d_t f_{t+1}^{-1}.
        """
        if self.flip():
            word, k = chain.flip(word), chain.n + 1 - k
        M = twists.apply_word(word, complexes.ProjComplex.projective(alg, k))
        assert name.endswith(" %d summands" % summands(M))
        rng = self.rng
        fwd, inv, terms = {}, {}, {}
        for t, row in M.terms.items():
            size = len(row)
            perm = list(range(size))
            rng.shuffle(perm)
            f = [[{("e", row[perm[a]][0]): 1} if b == perm[a] else {}
                  for b in range(size)] for a in range(size)]
            g = [[{("e", row[b][0]): 1} if b == perm[a] else {}
                  for a in range(size)] for b in range(size)]
            for i in range(size):
                c = Fraction(rng.choice([1, -1, 2, -2, 3]))
                f = _mat_mul(chain, f, _diag(row, i, c))
                g = _mat_mul(chain, _diag(row, i, 1 / c), g)
            for _ in range(2 * size):
                i, j = rng.randrange(size), rng.randrange(size)
                (v, s), (v2, s2) = row[i], row[j]
                keys = [key for key in chain.paths(v, v2) if chain.deg(key) == s - s2]
                if i == j or not keys:
                    continue
                x = {rng.choice(keys): Fraction(rng.choice([1, -1, 2]))}
                f = _mat_mul(chain, f, _elementary(row, i, j, x))
                minus = {key: -c for key, c in x.items()}
                g = _mat_mul(chain, _elementary(row, i, j, minus), g)
            terms[t] = [row[perm[a]] for a in range(size)]
            fwd[t], inv[t] = f, g
        diffs = {}
        for t, d in M.diffs.items():
            dm = [[elem(x) for x in r] for r in d]
            dk = _mat_mul(chain, _mat_mul(chain, fwd[t], dm), inv[t + 1])
            diffs[t] = [[algebra.AlgebraElement(alg, x) for x in r] for r in dk]
        K = complexes.ProjComplex(alg, terms, diffs)
        self.pair(name, "basis change", chain, None, M, K, expect=True, light=light,
                  why="a basis change preserves the complex")

    def two_copy(self, p):
        """P1^2 -> P2<-1>^2 with diag(a12, a12) against diag(0, a12).

        The two complexes are sums of copies of cone(a12) and of free
        summands; the rank of the a12 coefficient matrix (2 against 1)
        tells them apart, so the verdict must be False.
        """
        alg = algebra.ZigzagAlgebra((2, 2), p)
        a, z = alg.arrow(1, 2), alg.zero()
        terms = {0: [(1, 0), (1, 0)], 1: [(2, -1), (2, -1)]}
        M = complexes.ProjComplex(alg, terms, {0: [[a, z], [z, a]]})
        K = complexes.ProjComplex(alg, terms, {0: [[z, z], [z, a]]})
        ranks = [ref.rank([[scalar(x.coeff(("a", 1, 2))) for x in row]
                           for row in C.diffs[0]], p) for C in (M, K)]
        assert ranks == [2, 1]
        field = "Q" if p is None else "F%d" % p
        kind = "two-copy Q" if p is None else "two-copy Fp"
        self.pair("two-copy %s" % field, kind, ref.Chain(2), p, M, K, expect=False,
                  light=p == 3, why="the a12 coefficient ranks differ")


def _identity(row):
    size = len(row)
    return [[{("e", row[a][0]): 1} if a == b else {} for b in range(size)]
            for a in range(size)]


def _diag(row, i, c):
    out = _identity(row)
    out[i][i] = {("e", row[i][0]): c}
    return out


def _elementary(row, i, j, x):
    out = _identity(row)
    out[i][j] = x
    return out


def _mat_mul(chain, A, B):
    """Product of matrices whose entries are algebra dicts."""
    out = []
    for row in A:
        new = [{} for _ in B[0]]
        for k, x in enumerate(row):
            if x:
                for c, y in enumerate(B[k]):
                    if y:
                        new[c] = ref.combine(new[c], chain.mul(x, y))
        out.append(new)
    return out


# ----------------------------------------------------------------------
# cli: the batch command line, run in process the way a user runs it


class Cli(Workload):
    """sphtwist.cli.main with stdout captured: relations, compare, act, shadows."""

    top = "compare W4.121 W4.212"

    def build(self):
        self.chain = ref.Chain(2)
        self.command(["check-relations", "--n", "2", "--json"], 0,
                     self.relations_json(2), light=True)
        self.act("act W3.2", [1, -2] * 3 + [2], 2, None, light=True)
        self.command(["lattice", "--matrix", "[[-2,1],[1,-2]]"], 0,
                     self.lattice_text("negative_definite", None), light=True)
        self.command(["elliptic", "--word", "(O Op)^6", "--json"], 0,
                     self.elliptic_json([((("O", 1), ("Op", 1)), 6)]), light=True)
        for argv in MALFORMED:
            self.command(argv, 2, self.silent, light=True, kind="malformed")
        self.command(KNOWN_FAULT, 2, self.silent, light=True, kind="malformed",
                     known_fault=True)
        self.compare("compare W2.12 W2.21", [1, -2] * 2 + [1, 2], [1, -2] * 2 + [2, 1])
        for n in range(3, 7):
            self.command(["check-relations", "--n", str(n), "--json"], 0,
                         self.relations_json(n))
        self.command(["check-relations", "--n", "3", "--N", "3", "--json"], 0,
                     self.relations_json(3))
        self.command(["check-relations", "--n", "3", "--N", "3", "--degrees", "1,2"],
                     0, self.relations_text(3))
        self.command(["check-relations", "--n", "4", "--field", "7"], 0,
                     self.relations_text(4))
        self.act("act W4 --json", [1, -2] * 4, 1, ref.fibonacci(9), light=False)
        self.command(["lattice", "--t", "2,3,7", "--reflections"], 0,
                     self.lattice_text("indefinite", 10))
        self.command(["lattice", "--t", "3,3,3", "--json"], 0,
                     self.lattice_json(ref.tdiagram_verdict(3, 3, 3)))
        w3 = [1, -2] * 3
        self.compare("compare 121.W3 212.W3", [1, 2, 1] + w3, [2, 1, 2] + w3)
        self.compare("compare W3.121 W3.212", w3 + [1, 2, 1], w3 + [2, 1, 2])
        self.compare("compare W3.121 W3.112", w3 + [1, 2, 1], w3 + [1, 1, 2])
        self.compare("compare W4 W3", [1, -2] * 4, w3)
        w4 = [1, -2] * 4
        self.compare(self.top, w4 + [1, 2, 1], w4 + [2, 1, 2])

    # -- running

    def command(self, argv, code, check_out, light=False, kind=None, name=None,
                known_fault=False):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    got = cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    got = exc.code
            self.stdout_bytes += len(out.getvalue().encode())
            return got, out.getvalue(), err.getvalue()

        def check(result):
            got, out, err = result
            problems = []
            if got != code:
                problems.append("exit code %r, expected %r" % (got, code))
            if "Traceback" in err:
                problems.append("traceback on stderr")
            return problems + check_out(out)

        self.add(name or " ".join(argv), kind or argv[0], run, check, light, known_fault)

    def compare(self, name, w1, w2):
        if self.flip():
            w1, w2 = self.chain.flip(w1), self.chain.flip(w2)
        distinct = any(ref.burau_column(self.chain, w1, k) !=
                       ref.burau_column(self.chain, w2, k) for k in (1, 2))
        verdict = "Distinct" if distinct else "IndistinguishableOnObjects"

        def check_out(out):
            first = out.splitlines()[0] if out else ""
            return [] if first == "verdict: " + verdict else [
                "compare printed %r, expected %s" % (first, verdict)]

        argv = ["compare", "--w1", _word_text(w1), "--w2", _word_text(w2)]
        self.command(argv, 3 if distinct else 0, check_out, name=name)

    def act(self, name, word, k, want, light):
        """``act`` on P_k; with ``want`` summands it runs with --json and
        checks the complex, Euler class and homology against the reference."""
        json_out = want is not None
        if self.flip():
            word, k = self.chain.flip(word), 3 - k
        argv = ["act", "--word", _word_text(word), "--object", str(k)]
        col = ref.burau_column(self.chain, word, k)

        def check_out(out):
            if not json_out:
                return [] if out.startswith("word %s applied to P%d:" % (word, k)) else [
                    "act printed %r" % out[:60]]
            data = json.loads(out)
            problems = []
            terms = {int(t): [tuple(x) for x in row]
                     for t, row in data["complex"]["terms"].items()}
            if sum(len(r) for r in terms.values()) != want:
                problems.append("act: summand count is not Fibonacci")
            classes = [{e: c for e, c in pairs} for pairs in data["euler_class"]]
            if classes != col or ref.euler_of_terms(2, terms) != col:
                problems.append("act: Euler class differs from the q-Burau column")
            for i, table in data["homology_table"].items():
                h = {tuple(int(x) for x in ts.split(",")): d for ts, d in table.items()}
                if alternating(h) != ref.hom_pairing(self.chain, int(i), col):
                    problems.append("act: homology of RHom(P%s, M) is off" % i)
            return problems

        self.command(argv + (["--json"] if json_out else []), 0, check_out,
                     light=light, name=name)

    # -- stdout checks

    @staticmethod
    def silent(out):
        return [] if not out else ["malformed input printed to stdout"]

    @staticmethod
    def relations_json(n):
        def check_out(out):
            data = json.loads(out)
            want = 2 * n * n + n * (n * (n - 1) // 2)
            problems = []
            if len(data["checks"]) != want:
                problems.append("%d checks, 2n^2 + n*C(n,2) = %d"
                                % (len(data["checks"]), want))
            if not data["all_passed"] or not all(c["passed"] for c in data["checks"]):
                problems.append("a relation check failed")
            return problems
        return check_out

    @staticmethod
    def relations_text(n):
        def check_out(out):
            lines = out.splitlines()
            want = 2 * n * n + n * (n * (n - 1) // 2)
            if len(lines) != want + 1 or lines[-1] != "all relations hold":
                return ["check-relations text output is off"]
            if any(not line.endswith(": ok") for line in lines[:-1]):
                return ["a relation check failed"]
            return []
        return check_out

    @staticmethod
    def lattice_text(verdict, rank):
        def check_out(out):
            lines = out.splitlines()
            problems = []
            if "definiteness: %s" % verdict not in lines:
                problems.append("lattice verdict is not %s" % verdict)
            if rank is not None and sum(l.startswith("reflection in node")
                                        for l in lines) != rank:
                problems.append("lattice printed the wrong number of reflections")
            return problems
        return check_out

    @staticmethod
    def lattice_json(verdict):
        def check_out(out):
            got = json.loads(out)["definiteness"]["verdict"]
            return [] if got == verdict else ["lattice verdict %s, not %s"
                                              % (got, verdict)]
        return check_out

    @staticmethod
    def elliptic_json(word):
        want = elliptic_reference(word)

        def check_out(out):
            got = json.loads(out)["matrix"]
            return [] if got == want else ["elliptic matrix %s, not %s" % (got, want)]
        return check_out


def _word_text(word):
    return " ".join(str(g) for g in word)


# Inputs that must exit 2 with a message and no traceback.
MALFORMED = [
    ["lattice", "--matrix", "[[1,2],[3]]"],
    ["lattice", "--matrix", "not json"],
    ["lattice", "--t", "1,2,3"],
    ["lattice"],
    ["act", "--word", "1 x"],
    ["act", "--word", "3"],
    ["act", "--word", "1", "--object", "9"],
    ["compare", "--w1", "0", "--w2", "1"],
    ["elliptic", "--word", "Q^2"],
    ["elliptic", "--word", "(O"],
    ["check-relations", "--n", "0"],
    ["check-relations", "--N", "1"],
    ["check-relations", "--field", "4"],
    ["check-relations", "--field", "x"],
    ["check-relations", "--degrees", "5"],
    ["no-such-command"],
]
# A known fault: cmd_lattice iterates the parsed JSON without checking that it
# is a list of lists, raises TypeError and so fails on every pass.
KNOWN_FAULT = ["lattice", "--matrix", "5"]


# ----------------------------------------------------------------------
# shadows: ktheory and laurent only, no complexes


def elliptic_text(word):
    parts = []
    for item, k in word:
        if isinstance(item, str):
            parts.append("%s^%d" % (item, k))
        else:
            inner = " ".join("%s^%d" % letter for letter in item)
            parts.append("(%s)^%d" % (inner, k))
    return " ".join(parts)


def elliptic_reference(word):
    out = [[1, 0], [0, 1]]
    for item, k in word:
        base = ref.ELLIPTIC[item] if isinstance(item, str) else ref.elliptic_matrix(item)
        out = ref.int_mat_mul(ref.mat_pow(base, k), out)
    return out


class Shadows(Workload):
    """Burau, Picard-Lefschetz, lattice definiteness and elliptic words."""

    top = "elliptic O^100000"

    def build(self):
        rng = self.rng
        for t in [(2, 3, 5), (3, 3, 3), (2, 4, 4), (2, 3, 6), (2, 3, 7)]:
            self.tdiagram(t, light=False)
        for b, c in [((2, 3, 7), (2, 3, 7)), ((2, 4, 5), (3, 3, 4)),
                     (self.partition(12), self.partition(12)),
                     (self.partition(13), self.partition(10))]:
            self.duality(b, c)
        self.definite(10, light=False)
        # light cases: a few ms each
        for total in (15, 30):
            self.tdiagram(self.partition(total), light=True)
        self.definite(25, light=True)
        for k in (100, 1000):
            letter = rng.choice(["O", "Op", "L"])
            self.elliptic([(letter, k), ((("O", 1), ("Op", -1)), k // 10)], light=True)
        for n in range(2, 9):
            # the cost of a Burau product depends on the word, so the word is
            # fixed and the seed only chooses its mirror image
            fixed = random.Random(n)
            word = [fixed.choice([1, -1]) * fixed.randint(1, n) for _ in range(200)]
            if self.flip():
                word = [(n + 1 - abs(g)) * (1 if g > 0 else -1) for g in word]
            self.burau(n, word)
            self.pl(n, word)
        for n in (50, 75, 100):
            self.definite(n, light=False)
        for total in (45, 60, 92):
            self.tdiagram(self.partition(total), light=False)
        exps = [10000, -2500, 4000, -1500, 700]
        self.elliptic([(rng.choice(["O", "Op", "L"]), k) for k in exps] +
                      [((("O", 1), ("Op", -1)), 1000)], light=False)
        self.elliptic([("O", 100000)], light=False)

    @staticmethod
    def partition(total):
        """A fixed partition of each total: the cost of definiteness depends on
        the arm lengths and on their order, so the seed does not choose them."""
        fixed = random.Random(total)
        p = fixed.randint(2, total - 4)
        q = fixed.randint(2, total - p - 2)
        return p, q, total - p - q

    def tdiagram(self, t, light):
        verdict = ref.tdiagram_verdict(*t)
        rank = sum(t) - 2

        def run():
            return ktheory.definiteness(ktheory.build_tdiagram(*t))

        def check(report):
            if report.verdict != verdict or sum(report.signature) != rank:
                return ["T%s: %s of rank %d, expected %s of rank %d"
                        % (t, report.verdict, sum(report.signature), verdict, rank)]
            return []

        self.add("definiteness T%s" % (t,), "definiteness", run, check, light)

    def definite(self, n, light):
        def run():
            return ktheory.definiteness(ktheory.an_minus2_lattice(n))

        def check(report):
            if report.verdict != "negative_definite" or report.signature != (0, n, 0):
                return ["A_%d lattice is %s" % (n, report.verdict)]
            return []

        self.add("definiteness A_%d" % n, "definiteness", run, check, light)

    def duality(self, b, c):
        want = sum(b) + sum(c) == 24

        def run():
            return ktheory.strange_duality_rank_check(b, c)

        def check(got):
            return [] if got == want else ["strange duality %s %s gave %s" % (b, c, got)]

        self.add("strange duality %s %s" % (b, c), "duality", run, check)

    def elliptic(self, word, light):
        text = elliptic_text(word)
        want = elliptic_reference(word)

        def run():
            return ktheory.elliptic_word(text)

        def check(got):
            (a, b), (c, d) = got
            if got != want or a * d - b * c != 1:
                return ["elliptic %s gave %s, expected %s" % (text, got, want)]
            return []

        name = "elliptic O^100000" if word == [("O", 100000)] else "elliptic " + text
        self.add(name, "elliptic", run, check, light)

    def burau(self, n, word):
        alg = algebra.ZigzagAlgebra((n, 2))
        chain = ref.Chain(n)

        def coeffs(mat):
            return [[dict(p.coeffs) for p in row] for row in mat]

        def run():
            return ktheory.burau_matrix(word, alg)

        def check(got):
            problems = []
            if coeffs(got) != ref.burau_product(chain, word):
                problems.append("Burau matrix for n=%d differs from the reference" % n)
            b = lambda w: coeffs(ktheory.burau_matrix(w, alg))  # noqa: E731
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    rel = ([i, j, i], [j, i, j]) if j == i + 1 else ([i, j], [j, i])
                    if b(rel[0]) != b(rel[1]):
                        problems.append("Burau matrices break %s = %s" % rel)
            return problems

        self.add("burau n=%d" % n, "burau", run, check, light=False)

    def pl(self, n, word):
        def run():
            return ktheory.pl_product(word, n)

        def check(got):
            return [] if got == ref.pl_product(word, n) else [
                "Picard-Lefschetz product for n=%d differs" % n]

        self.add("pl n=%d" % n, "pl", run, check, light=False)


WORKLOADS = {"ladder": Ladder, "iso": Iso, "cli": Cli, "shadows": Shadows}
