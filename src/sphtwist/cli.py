"""Batch command-line surface for the twist engine.

Exit codes are a stable contract:
  0  success (or words indistinguishable on objects)
  1  a verified relation failed (implementation bug)
  2  usage, parse or output error, or out of memory
  3  the compared words act differently (distinct braids)
"""

import argparse
import json
import os
import sys
from itertools import islice

from .algebra import ChainParams, ZigzagAlgebra
from .complexes import ProjComplex, homology_table
from .ktheory import (
    IntersectionLattice,
    build_tdiagram,
    definiteness,
    elliptic_word,
    euler_class,
    imat_identity,
    pl_reflection,
)
from .twists import apply_word, compare_words, parse_braid_word, verify_relations

EXIT_OK = 0
EXIT_RELATION_FAILURE = 1
EXIT_USAGE = 2
EXIT_DISTINCT = 3

# `lattice` prints the form (rank^2 entries) and, with --reflections, one
# rank x rank matrix per node; beyond this many entries it refuses.
LATTICE_MAX_ENTRIES = 10**7


def _add_chain_args(p):
    p.add_argument("--n", type=int, default=2, help="number of chain objects")
    p.add_argument("--N", type=int, default=2, dest="sphdim",
                   help="spherical dimension (>= 2)")
    p.add_argument("--degrees", type=str, default=None,
                   help="comma-separated forward-arrow degrees (default: all 1)")
    p.add_argument("--field", type=str, default="Q",
                   help="Q (exact rationals, default) or a prime p for F_p")
    p.add_argument("--json", action="store_true", help="emit JSON output")


def _build_algebra(args):
    degrees = None
    if args.degrees is not None:  # '' is the empty list, not the default
        degrees = tuple(int(x) for x in args.degrees.split(",")) if args.degrees else ()
    char = None
    if args.field != "Q":
        char = int(args.field)
    params = ChainParams(args.n, args.sphdim, degrees)
    return ZigzagAlgebra(params, char=char)


def _emit(data, as_json, text_lines):
    if as_json:  # the bytes of json.dumps, never held whole: encoder chunks in batches
        chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(data)
        for batch in iter(lambda: "".join(islice(chunks, 8192)), ""):
            sys.stdout.write(batch)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)
    sys.stdout.flush()  # a closed pipe raises here, inside main, not at exit


def _complex_lines(M):
    lines = []
    if M.is_zero():
        return ["  (zero complex)"]
    for t in M.degrees():
        names = ", ".join("P%d<%d>" % (v, s) for v, s in M.summands(t))
        lines.append("  degree %d: %s" % (t, names))
    return lines


def cmd_check_relations(args):
    algebra = _build_algebra(args)
    report = verify_relations(algebra)
    lines = []
    for c in report.checks:
        lines.append(
            "%-28s on P%d: %s" % (c.relation, c.object_vertex,
                                  "ok" if c.passed else "FAILED")
        )
    lines.append("all relations hold" if report.all_passed else "RELATION FAILURE")
    _emit(report.to_dict() if args.json else None, args.json, lines)
    return EXIT_OK if report.all_passed else EXIT_RELATION_FAILURE


def cmd_act(args):
    algebra = _build_algebra(args)
    word = parse_braid_word(args.word, algebra.params.n)
    algebra.check_vertex(args.object)
    M = apply_word(word, ProjComplex.projective(algebra, args.object))
    euler = euler_class(M)
    table = homology_table(M)
    data = None
    if args.json:
        data = {
            "word": word,
            "object": args.object,
            "complex": M.to_dict(),
            "euler_class": [p.to_pairs() for p in euler],
            "homology_table": {
                str(i): {"%d,%d" % ts: d for ts, d in sorted(tab.items())}
                for i, tab in table.items()
            },
        }
    lines = ["word %s applied to P%d:" % (word, args.object)]
    lines += _complex_lines(M)
    lines.append("euler class: [%s]" % ", ".join(repr(p) for p in euler))
    for i, tab in sorted(table.items()):
        dims = ", ".join("(%d,%d): %d" % (t, s, d) for (t, s), d in sorted(tab.items()))
        lines.append("hom from P%d: {%s}" % (i, dims))
    _emit(data, args.json, lines)
    return EXIT_OK


def cmd_compare(args):
    algebra = _build_algebra(args)
    w1 = parse_braid_word(args.w1, algebra.params.n)
    w2 = parse_braid_word(args.w2, algebra.params.n)
    report = compare_words(w1, w2, algebra)
    lines = ["verdict: %s" % report.verdict]
    for k, res in sorted(report.per_vertex.items()):
        lines.append("  P%d: %s" % (k, res))
    if report.distinct:
        lines.append("witness: vertex %d, %s"
                     % (report.witness_vertex, report.witness_invariant))
    _emit(report.to_dict() if args.json else None, args.json, lines)
    return EXIT_DISTINCT if report.distinct else EXIT_OK


def _check_lattice_size(rank, reflections):
    entries = rank**2 + (rank**3 if reflections else 0)
    if rank > 0 and entries > LATTICE_MAX_ENTRIES:
        raise ValueError("a lattice of rank %d would print %d entries, over "
                         "the limit of %d" % (rank, entries, LATTICE_MAX_ENTRIES))


def cmd_lattice(args):
    if args.t:
        parts = [int(x) for x in args.t.split(",")]
        if len(parts) != 3:
            raise ValueError("--t expects three comma-separated integers")
        _check_lattice_size(sum(parts) - 2, args.reflections)
        lattice = build_tdiagram(*parts)
    else:
        try:
            form = json.loads(args.matrix)
        except RecursionError:  # the C decoder recurses once per nested list
            raise ValueError("--matrix is nested too deeply")
        lattice = IntersectionLattice(form)
        _check_lattice_size(lattice.rank, args.reflections)
    report = definiteness(lattice)
    lines = [
        "rank: %d" % lattice.rank,
        "definiteness: %s" % report.verdict,
        "signature (pos, neg, zero): %s" % (report.signature,),
    ]
    refls = []
    if args.reflections:
        for k in range(lattice.rank):
            v = [1 if i == k else 0 for i in range(lattice.rank)]
            refls.append(pl_reflection(v, lattice))
        for k, mat in enumerate(refls):
            lines.append("reflection in node %d: %s" % (k + 1, mat))
    data = None
    if args.json:  # the JSON copy of the form is built only to be printed
        data = {"lattice": lattice.to_dict(), "definiteness": report.to_dict()}
        if args.reflections:
            data["reflections"] = refls
    _emit(data, args.json, lines)
    return EXIT_OK


def cmd_elliptic(args):
    mat = elliptic_word(args.word)
    is_identity = mat == imat_identity(2)
    is_central = is_identity or mat == [[-1, 0], [0, -1]]
    data = {"word": args.word, "matrix": mat,
            "identity": is_identity, "central": is_central}
    lines = ["matrix: %s" % (mat,)]
    if is_identity:
        lines.append("word acts as the identity on (rank, degree) vectors")
    elif is_central:
        lines.append("word is central (acts as -identity)")
    _emit(data, args.json, lines)
    return EXIT_OK


def cmd_dump_algebra(args):
    algebra = _build_algebra(args)
    _emit(algebra.describe(), True, ())  # JSON with or without --json
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sphtwist",
        description="Braid group actions by spherical twists on complexes "
        "of graded projectives, with exact K-theory and lattice shadows. "
        "Default chain: n=2, N=2, degrees=1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-relations", help="verify inverse/braid/commutation "
                       "relations on the projective generators")
    _add_chain_args(p)
    p.set_defaults(func=cmd_check_relations)

    p = sub.add_parser("act", help="apply a braid word to a projective")
    _add_chain_args(p)
    p.add_argument("--word", type=str, required=True,
                   help='braid word, e.g. "1 2 -1"')
    p.add_argument("--object", type=int, default=1, help="vertex of the projective")
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("compare", help="distinguish two braid words by their actions")
    _add_chain_args(p)
    p.add_argument("--w1", type=str, required=True)
    p.add_argument("--w2", type=str, required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("lattice", help="definiteness of a T(b1,b2,b3) or "
                       "explicit intersection lattice")
    p.add_argument("--t", type=str, default=None, help="triple b1,b2,b3 (each >= 2)")
    p.add_argument("--matrix", type=str, default=None,
                   help="symmetric integer matrix as JSON")
    p.add_argument("--reflections", action="store_true",
                   help="also print the nodal reflection matrices")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("elliptic", help="matrix of a word in the elliptic "
                       "twists O, Op, L on (rank, degree) vectors")
    p.add_argument("--word", type=str, required=True,
                   help='e.g. "(O Op)^6" or "L^-1 O"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_elliptic)

    p = sub.add_parser("dump-algebra", help="JSON description of the chain algebra")
    _add_chain_args(p)
    p.set_defaults(func=cmd_dump_algebra)

    return parser


_PARSER = None  # built on the first call of main, then reused


def main(argv=None):
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    if args.command == "lattice" and bool(args.t) == bool(args.matrix):
        print("lattice: exactly one of --t or --matrix is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # inside the handler the traceback still holds the failed frames and
        # all they allocated, so the message could fail too: print it after
        pass
    except BrokenPipeError:
        # the reader closed stdout early; what is left goes to devnull, so
        # the interpreter's final flush raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    print("error: out of memory", file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
