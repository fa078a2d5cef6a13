"""Golden outputs of the engine, recorded once and asserted byte for byte.

Each case maps a name to a string: the stdout and exit code of a CLI run,
or a canonical JSON rendering of a library result (hom complexes with their
bases and differentials, twists and untwists, isomorphism certificates) on
seeded complexes.  ``tests/test_golden.py`` recomputes every case and
compares it with ``tests/golden.json``.

Regenerate the file only when an output is meant to change::

    PYTHONPATH=src python tests/golden_cases.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from conftest import (
    FALLBACK_SEEDS,
    fallback_pair,
    make_algebra,
    perturbed_pair,
    random_two_term,
    random_word,
    reversed_summands,
    seeded,
)

from sphtwist import (
    ProjComplex,
    apply_word,
    hom_from_projective,
    hom_matrix,
    hom_to_projective,
    is_isomorphic,
    twist,
    untwist,
)
from sphtwist.algebra import key_str
from sphtwist.cli import main

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

FIELDS = (("Q", None), ("7", 7))
ACT_WORDS = {
    2: ["1", "-1", "1 -2", "-1 2 -1", "1 2 1 -2", "-2 -2 1"],
    3: ["1 -2 3", "-3 2 -1 2", "2 -3 -1", "1 2 -1 3 -2"],
}
COMPARE_PAIRS = {
    2: [("1 2 1", "2 1 2"), ("1 2 1", "1 1 2"), ("1", "-1"), ("1 -2", "-2 1")],
    3: [("1 2 1", "2 1 2"), ("1 3", "3 1"), ("1 2", "2 3"), ("2 3 2", "3 2 -3")],
}


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return "exit %d\n%s" % (code, buf.getvalue())


def cli_cases():
    out = {}
    for fname, _char in FIELDS:
        for n in (2, 3):
            chain = ["--n", str(n), "--field", fname, "--json"]
            out["check-relations n=%d F=%s" % (n, fname)] = _cli(
                ["check-relations"] + chain)
            for word in ACT_WORDS[n]:
                for k in range(1, n + 1):
                    out["act n=%d F=%s %r P%d" % (n, fname, word, k)] = _cli(
                        ["act"] + chain + ["--word", word, "--object", str(k)])
            for w1, w2 in COMPARE_PAIRS[n]:
                out["compare n=%d F=%s %r %r" % (n, fname, w1, w2)] = _cli(
                    ["compare"] + chain + ["--w1", w1, "--w2", w2])
    return out


def scale_cases():
    """Larger CLI runs, pinned by the sha256 of their stdout, and the
    certificates of the ladder against its rewrite by the braid relation,
    pinned by the sha256 of their canonical JSON."""
    out = {}
    ladder = " ".join(["1 -2"] * 6)
    runs = {
        "act --json [1,-2]^6 P1": ["act", "--json", "--word", ladder],
        "compare --json [1,-2]^4+[1,2,1] [1,-2]^4+[2,1,2]": [
            "compare", "--json", "--w1", " ".join(["1 -2"] * 4 + ["1 2 1"]),
            "--w2", " ".join(["1 -2"] * 4 + ["2 1 2"])],
        "check-relations --n 4 --field 13 --json": [
            "check-relations", "--n", "4", "--field", "13", "--json"],
        "act --json --field 7 --object 2 [1,-2]^7": [
            "act", "--json", "--field", "7", "--object", "2",
            "--word", " ".join(["1 -2"] * 7)],
    }
    for fname, _char in FIELDS:
        runs["act --json --field %s [1,-2]^10" % fname] = [
            "act", "--json", "--field", fname, "--word", " ".join(["1 -2"] * 10)]
        runs["check-relations --n 12 --field %s --json" % fname] = [
            "check-relations", "--n", "12", "--field", fname, "--json"]
    for name, argv in runs.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        out["sha256 " + name] = "exit %d\nsha256 %s" % (code, digest)
    # 89 to 610 summands a side: the chain-map system and minimize at scale
    for fname, char in FIELDS:
        alg = make_algebra(2, 2, char=char)
        for m in range(4, 8):
            M = apply_word([1, -2] * m, ProjComplex.projective(alg, 1))
            K = apply_word([2, 1, 2], apply_word([-1, -2, -1], M))
            blob = json.dumps(_certificate(is_isomorphic(M, K, with_certificate=True)),
                              sort_keys=True)
            out["sha256 iso F=%s [1,-2]^%d P1 vs braid rewrite" % (fname, m)] = (
                "sha256 %s" % hashlib.sha256(blob.encode()).hexdigest())
    # seeded basis changes, as they are and with one entry doubled: the
    # certificates of the candidate weights and the grid, one digest per
    # kind and field (over F_2 and F_3 some of these seeds take seconds)
    for kind, pair in (("fallback_pair", fallback_pair),
                       ("perturbed_pair", perturbed_pair)):
        for fname, char in FIELDS:
            blob = json.dumps([_certificate(is_isomorphic(*pair(char, seed),
                                                          with_certificate=True))
                               for seed in range(40)], sort_keys=True)
            out["sha256 iso %s F=%s seeds 0..39" % (kind, fname)] = (
                "sha256 %s" % hashlib.sha256(blob.encode()).hexdigest())
    return out


def _element(x):
    field = x.algebra.field
    return {key_str(k): field.scalar_to_str(c) for k, c in sorted(x.coeffs.items())}


def _hom(H):
    field = H.field
    return {
        "basis": {str(m): [[s, r, key_str(key)] for s, (r, key) in row]
                  for m, row in sorted(H.basis.items())},
        "diffs": {str(m): [[field.scalar_to_str(x) for x in row] for row in mat]
                  for m, mat in sorted(H.diffs.items())},
    }


def _certificate(pair):
    ok, cert = pair
    if cert is None:
        return {"iso": ok}
    return {
        "iso": ok,
        "source": cert.source.to_dict(),
        "target": cert.target.to_dict(),
        "mats": {str(t): [[_element(x) for x in row] for row in mat]
                 for t, mat in sorted(cert.mats.items())},
    }


def library_cases():
    out = {}
    for fname, char in FIELDS:
        for n in (2, 3):
            alg = make_algebra(n, 2, char=char)
            rng = seeded(4000 + 10 * n + (char or 0))
            for c in range(10):
                # at most two summands a side: over F_p larger complexes can
                # send is_isomorphic into its bounded weight grid
                M = random_two_term(alg, rng, max_summands=2)
                data = {
                    "iso reversed": _certificate(is_isomorphic(
                        M, reversed_summands(M), with_certificate=True)),
                    "iso shifted": _certificate(is_isomorphic(
                        M, M.shift(0, 1), with_certificate=True)),
                }
                if c % 2:
                    M = apply_word(random_word(alg, rng, max_len=4), M)
                data["complex"] = M.to_dict()
                for i in range(1, n + 1):
                    data["hom_from P%d" % i] = _hom(hom_from_projective(i, M))
                    data["hom_to P%d" % i] = _hom(hom_to_projective(M, i))
                    data["twist %d" % i] = twist(i, M).to_dict()
                    data["untwist %d" % i] = untwist(i, M).to_dict()
                out["n=%d F=%s complex %d" % (n, fname, c)] = json.dumps(
                    data, sort_keys=True)
            for word in ACT_WORDS[n]:
                letters = [int(g) for g in word.split()]
                graded = [[sorted(h.items()) for h in row]
                          for row in hom_matrix(letters, alg, graded=True)]
                out["hom_matrix n=%d F=%s %r" % (n, fname, word)] = json.dumps(
                    {"total": hom_matrix(letters, alg), "graded": graded})
    return out


def fallback_cases():
    """Certificates found by the complete fallback of is_isomorphic, pinned
    by the sha256 of their canonical JSON."""
    out = {}
    for char, seeds in FALLBACK_SEEDS.items():
        for seed in seeds:
            blob = json.dumps(_certificate(is_isomorphic(
                *fallback_pair(char, seed), with_certificate=True)), sort_keys=True)
            out["sha256 iso fallback F=%s seed %d" % (char or "Q", seed)] = (
                "sha256 %s" % hashlib.sha256(blob.encode()).hexdigest())
    return out


def all_cases():
    out = cli_cases()
    out.update(library_cases())
    out.update(scale_cases())
    out.update(fallback_cases())
    return out


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/golden_cases.py --write")
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(all_cases(), fh, sort_keys=True, indent=0)
        fh.write("\n")
