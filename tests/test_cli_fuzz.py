"""Property tests of the CLI exit-code contract on generated argv.

Every subcommand gets well-formed and malformed arguments: bad chain
parameters and fields, bad braid words, bad lattice matrices, elliptic
words with deep or unbalanced nesting and huge exponents.  Each run must
exit 0, 2 or 3 and leave no traceback: 1 means "a relation failed", which
no input here may produce.  Runs are in process, derandomized and bounded.
"""

import contextlib
import io
import json
import traceback

from hypothesis import example, given, settings, strategies as st

from sphtwist.cli import main

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=50)


def run_cli(argv):
    """Exit code and stderr of ``sphtwist argv``; an escaping exception is
    printed to stderr as the interpreter would and exits 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


def assert_contract(argv):
    code, err = run_cli(argv)
    shown = [a if len(a) < 80 else a[:40] + "..." + a[-20:] for a in argv]
    assert code in (0, 2, 3), (shown, code, err[-1000:])
    assert "Traceback" not in err, (shown, err[-1000:])


# ----------------------------------------------------------------------
# strategies

junk = st.sampled_from(["", " ", "x", "1.5", "-", "--", "1e3", "0x7", "٣", "nan"])
bad_int = st.one_of(st.integers(-3, 0).map(str), junk)
field = st.sampled_from(["Q", "2", "3", "7", "101", "2305843009213693951"])
bad_field = st.one_of(st.sampled_from(
    ["4", "9", "0", "1", "-7", "561", "18446744073709551617"]), junk)


@st.composite
def chain_args(draw):
    """Chain options, mostly valid; at most one of them malformed."""
    n = draw(st.integers(1, 3))
    N = draw(st.integers(2, 4))
    opts = {"--n": str(n), "--N": str(N), "--field": draw(field),
            "--degrees": ",".join(str(draw(st.integers(1, N - 1)))
                                  for _ in range(n - 1))}
    bad = draw(st.sampled_from([None] * 6 + ["--n", "--N", "--degrees", "--field"]))
    if bad == "--n":
        opts[bad] = draw(st.one_of(bad_int, st.integers(n + 1, 4).map(str)))
    elif bad == "--N":
        opts[bad] = draw(st.one_of(bad_int, st.just("1")))
    elif bad == "--degrees":
        opts[bad] = draw(st.one_of(junk, st.lists(st.integers(-1, 5), max_size=4).map(
            lambda ds: ",".join(map(str, ds)))))
    elif bad == "--field":
        opts[bad] = draw(bad_field)
    argv = []
    for key in ("--n", "--N", "--degrees", "--field"):
        if key == bad or draw(st.booleans()):
            if key == "--degrees" and key != bad and not opts[key]:
                continue
            if key in ("--N", "--degrees") and key != bad and "--n" not in argv:
                continue  # keep the defaults consistent: N=2 fits degrees of 1
            argv += [key, opts[key]]
    if draw(st.booleans()):
        argv.append("--json")
    return n if "--n" in argv else 2, argv


def braid_word(n):
    letter = st.one_of(
        st.integers(1, n).flatmap(lambda g: st.sampled_from([str(g), str(-g)])),
        st.sampled_from(["0", str(n + 1), "x", "1.0", "--1", "99999999999999999999"]))
    good = st.lists(st.integers(1, n).flatmap(lambda g: st.sampled_from([g, -g])),
                    max_size=6).map(lambda w: " ".join(map(str, w)))
    return st.one_of(good, good, st.lists(letter, max_size=6).map(" ".join))


# ----------------------------------------------------------------------
# the subcommands


@FUZZ
@given(chain_args())
def test_fuzz_check_relations(chain):
    assert_contract(["check-relations"] + chain[1])


@FUZZ
@given(st.data())
def test_fuzz_act(data):
    n, chain = data.draw(chain_args())
    word = data.draw(braid_word(n))
    obj = data.draw(st.one_of(*[st.integers(1, n).map(str)] * 4,
                              bad_int, st.just(str(n + 1))))
    assert_contract(["act"] + chain + ["--word", word, "--object", obj])


@FUZZ
@given(st.data())
def test_fuzz_compare(data):
    n, chain = data.draw(chain_args())
    w1, w2 = data.draw(braid_word(n)), data.draw(braid_word(n))
    assert_contract(["compare"] + chain + ["--w1", w1, "--w2", w2])


@FUZZ
@given(chain_args())
def test_fuzz_dump_algebra(chain):
    assert_contract(["dump-algebra"] + chain[1])


json_value = st.recursive(
    st.one_of(st.integers(-3, 3), st.booleans(), st.none(), st.floats(-3, 3),
              st.text(max_size=2)),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=16,
)
symmetric = st.integers(0, 5).flatmap(lambda r: st.lists(
    st.integers(-3, 3), min_size=r * r, max_size=r * r).map(
    lambda xs: [[xs[min(i, j) * r + max(i, j)] for j in range(r)] for i in range(r)]))
matrix = st.one_of(
    symmetric.map(json.dumps),
    st.lists(st.lists(st.integers(-3, 3), max_size=4), max_size=4).map(json.dumps),
    json_value.map(json.dumps),
    st.integers(0, 5000).map(lambda k: "[" * k + "]" * k),
    junk,
)
triple = st.one_of(
    st.lists(st.integers(2, 9), min_size=3, max_size=3).map(
        lambda xs: ",".join(map(str, xs))),
    st.lists(st.integers(-1, 9), min_size=0, max_size=4).map(
        lambda xs: ",".join(map(str, xs))),
    junk)


@FUZZ
@given(st.one_of(
    st.tuples(st.just("--matrix"), matrix),
    st.tuples(st.just("--t"), triple),
    st.just(()),
), st.booleans(), st.booleans())
@example(("--matrix", "[" * 5000 + "]" * 5000), False, False)
def test_fuzz_lattice(arg, reflections, as_json):
    argv = ["lattice"] + list(arg)
    if reflections:
        argv.append("--reflections")
    if as_json:
        argv.append("--json")
    assert_contract(argv)


# a generator raised to any power, or a group of finite order (O Op has
# order 6), keeps the matrix entries small; other groups get small powers
exponent = st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12)).map(
    lambda k: "^%d" % k)
elliptic_token = st.one_of(
    st.sampled_from(["O", "Op", "L", "(", ")", "^", "^2", "^-1", "X", " ", "@"]),
    st.sampled_from(["O", "Op", "L"]).flatmap(
        lambda g: exponent.map(lambda e: g + e)),
    exponent.map(lambda e: "(O Op)" + e),
)


@st.composite
def nested(draw):
    """A word nested ``depth`` groups deep, balanced or not."""
    depth = draw(st.integers(0, 5000))
    close = depth + draw(st.sampled_from([0, 0, -1, 1]))
    inner = draw(st.sampled_from(["O", "Op", "L^-1", "O Op", ""]))
    power = draw(st.sampled_from(["", "^2", "^-1", "^6"]))
    return "(" * depth + inner + (")" + power) * max(close, 0)


@FUZZ
@given(st.one_of(st.lists(elliptic_token, max_size=12).map("".join), nested()),
       st.booleans())
@example("(" * 3000 + "O" + ")" * 3000, False)
@example("(" * 3000 + "O" + ")" * 2999, True)
def test_fuzz_elliptic(word, as_json):
    assert_contract(["elliptic", "--word", word] + (["--json"] if as_json else []))


@FUZZ
@given(st.lists(st.one_of(
    st.sampled_from(["act", "compare", "lattice", "elliptic", "check-relations",
                     "dump-algebra", "no-such", "--word", "--w1", "--n", "--t",
                     "--matrix", "--json", "--help", "-h", "--object", "--field"]),
    junk), max_size=5))
def test_fuzz_arbitrary_argv(argv):
    assert_contract(argv)
