"""Tests for the command-line surface: exit codes, output, determinism."""

import json
import os
import resource
import subprocess
import sys
import time

import pytest

from conftest import DenseLattice, dense_definiteness, dense_pl_reflection, dense_tdiagram
from sphtwist import (
    ChainParams,
    ComparisonReport,
    ProjComplex,
    RelationReport,
    ZigzagAlgebra,
    build_tdiagram,
    cli,
    compare_words,
    definiteness,
    hom_matrix,
    parse_braid_word,
    twists,
)
from sphtwist.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# check-relations


def test_check_relations_default(capsys):
    code, out, _ = run(capsys, "check-relations")
    assert code == 0
    assert "all relations hold" in out


def test_check_relations_n3(capsys):
    code, out, _ = run(capsys, "check-relations", "--n", "3", "--N", "2")
    assert code == 0


def test_check_relations_n2_N3(capsys):
    code, out, _ = run(capsys, "check-relations", "--n", "2", "--N", "3")
    assert code == 0


def test_check_relations_bad_n(capsys):
    code, _, err = run(capsys, "check-relations", "--n", "0")
    assert code == 2
    assert "error" in err


def test_check_relations_json(capsys):
    code, out, _ = run(capsys, "check-relations", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["all_passed"] is True


def test_check_relations_prime_field(capsys):
    code, _, _ = run(capsys, "check-relations", "--field", "5")
    assert code == 0


def test_check_relations_bad_field(capsys):
    code, _, _ = run(capsys, "check-relations", "--field", "6")
    assert code == 2


@pytest.mark.parametrize("field", ["561", "18446744073709551617", "-7", "1"])
def test_check_relations_rejects_non_prime_field(capsys, field):
    code, _, err = run(capsys, "check-relations", "--field", field)
    assert code == 2
    assert "prime below 2^64" in err


def test_check_relations_empty_degrees_is_an_empty_list(capsys):
    # --degrees '' gives no edge degrees, not the default ones
    code, out, err = run(capsys, "check-relations", "--n", "2", "--degrees", "")
    assert (code, out) == (2, "")
    assert "expected 1 edge degrees, got 0" in err
    code, out, _ = run(capsys, "check-relations", "--n", "1", "--degrees", "")
    assert code == 0
    assert "all relations hold" in out


# ----------------------------------------------------------------------
# act


def test_act_neighbor_twist(capsys):
    code, out, _ = run(capsys, "act", "--word", "1", "--object", "2")
    assert code == 0
    assert "degree -1: P1<1>" in out
    assert "degree 0: P2<0>" in out


def test_act_inverse_pair_is_projective(capsys):
    code, out, _ = run(capsys, "act", "--word", "1 -1", "--object", "2")
    assert code == 0
    assert "degree 0: P2<0>" in out
    assert "degree -1" not in out and "degree 1" not in out


def test_act_rejects_zero_token(capsys):
    code, _, err = run(capsys, "act", "--word", "0")
    assert code == 2


def test_act_rejects_out_of_range_object(capsys):
    code, _, _ = run(capsys, "act", "--word", "1", "--object", "5")
    assert code == 2


def test_act_json_round_trips(capsys):
    from sphtwist import ProjComplex, apply_word
    from sphtwist.algebra import ZigzagAlgebra

    code, out, _ = run(capsys, "act", "--word", "2 1", "--object", "1", "--json")
    assert code == 0
    data = json.loads(out)
    back = ProjComplex.from_dict(data["complex"])
    alg = ZigzagAlgebra((2, 2))
    expect = apply_word([2, 1], ProjComplex.projective(alg, 1))
    assert back == expect


# ----------------------------------------------------------------------
# compare


def test_compare_braid_pair(capsys):
    code, out, _ = run(capsys, "compare", "--w1", "1 2 1", "--w2", "2 1 2")
    assert code == 0
    assert "IndistinguishableOnObjects" in out


def test_compare_distinct_generators(capsys):
    code, out, _ = run(capsys, "compare", "--w1", "1", "--w2", "2")
    assert code == 3
    assert "Distinct" in out
    assert "witness" in out


def test_compare_double_twist_vs_identity(capsys):
    code, _, _ = run(capsys, "compare", "--w1", "1 1", "--w2", "")
    assert code == 3


def test_compare_parse_failure(capsys):
    code, _, _ = run(capsys, "compare", "--w1", "x", "--w2", "1")
    assert code == 2


def test_compare_json(capsys):
    code, out, _ = run(capsys, "compare", "--w1", "1", "--w2", "2", "--json")
    data = json.loads(out)
    assert code == 3
    assert data["verdict"] == "Distinct"


@pytest.mark.parametrize("w1, w2", [("1 2 1", "2 1 2"), ("1", "2"),
                                    ("1 -2 1 -2 1 2 1", "1 -2 1 -2 2 1 2")])
def test_compare_builds_hom_tables_for_json_only(capsys, monkeypatch, w1, w2):
    # text output prints no hom matrix, so it builds none of the two tables;
    # --json builds both and prints the document of tables built eagerly
    alg = ZigzagAlgebra(ChainParams(2, 2))
    l1, l2 = parse_braid_word(w1, 2), parse_braid_word(w2, 2)
    report = compare_words(l1, l2, alg)
    eager = ComparisonReport(
        report.word1, report.word2, report.distinct, report.witness_vertex,
        report.witness_invariant, report.per_vertex,
        (hom_matrix(l1, alg), hom_matrix(l2, alg)))
    want = json.dumps(eager.to_dict(), sort_keys=True, indent=2) + "\n"
    calls = []
    build = twists._hom_table

    def record(images, graded=False):
        calls.append(len(images))
        return build(images, graded)

    monkeypatch.setattr(twists, "_hom_table", record)
    code, _out, _err = run(capsys, "compare", "--w1", w1, "--w2", w2)
    assert calls == []
    assert run(capsys, "compare", "--w1", w1, "--w2", w2, "--json") == (code, want, "")
    assert calls == [2, 2]


# ----------------------------------------------------------------------
# lattice


def test_lattice_t237(capsys):
    code, out, _ = run(capsys, "lattice", "--t", "2,3,7")
    assert code == 0
    assert "rank: 10" in out
    assert "indefinite" in out


def test_lattice_e8(capsys):
    code, out, _ = run(capsys, "lattice", "--t", "2,3,5")
    assert code == 0
    assert "negative_definite" in out


def test_lattice_short_arm(capsys):
    code, _, _ = run(capsys, "lattice", "--t", "1,3,5")
    assert code == 2


def test_lattice_requires_input(capsys):
    code, _, err = run(capsys, "lattice")
    assert code == 2


def test_lattice_takes_one_input(capsys):
    # both inputs: neither is silently dropped
    code, out, err = run(capsys, "lattice", "--t", "2,2,2", "--matrix", "[[1]]")
    assert code == 2 and not out and "exactly one of --t or --matrix" in err
    code, out, _ = run(capsys, "lattice", "--t", "2,2,2")
    assert code == 0 and "rank: 4" in out


def test_lattice_explicit_matrix(capsys):
    code, out, _ = run(capsys, "lattice", "--matrix", "[[-2, 1], [1, -2]]")
    assert code == 0
    assert "negative_definite" in out


def test_lattice_asymmetric_matrix(capsys):
    code, _, _ = run(capsys, "lattice", "--matrix", "[[0, 1], [2, 0]]")
    assert code == 2


@pytest.mark.parametrize(
    "matrix",
    [
        "5",
        "[1, 2]",
        "[[1, 2], 3]",
        "[[-2.5, 1], [1, -2]]",
        "[[true, 1], [1, -2]]",
        '[["-2", 1], [1, -2]]',
        '{"a": 1}',
    ],
)
def test_lattice_matrix_rejects_non_integer_rows(capsys, matrix):
    code, out, err = run(capsys, "lattice", "--matrix", matrix)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_lattice_reflections_json(capsys):
    code, out, _ = run(
        capsys, "lattice", "--t", "2,3,5", "--reflections", "--json"
    )
    data = json.loads(out)
    assert code == 0
    assert len(data["reflections"]) == 8


@pytest.mark.parametrize("argv", [["--t", "2,3,7"], ["--t", "4,2,5", "--reflections"],
                                  ["--matrix", "[[0, 1, 0], [1, 0, 0], [0, 0, -3]]"]])
def test_lattice_json_prints_the_dense_form(capsys, argv):
    """--json prints the bytes that the dense form gave."""
    code, out, _ = run(capsys, "lattice", *argv, "--json")
    if argv[0] == "--t":
        dense = DenseLattice(dense_tdiagram(*map(int, argv[1].split(","))))
    else:
        dense = DenseLattice(json.loads(argv[1]))
    want = {"lattice": dense.to_dict(), "definiteness": dense_definiteness(dense).to_dict()}
    if "--reflections" in argv:
        r = dense.rank
        want["reflections"] = [
            dense_pl_reflection([1 if i == k else 0 for i in range(r)], dense)
            for k in range(r)
        ]
    assert code == 0
    assert out == json.dumps(want, sort_keys=True, indent=2) + "\n"


def test_lattice_too_large_exits_before_building(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "lattice", "--t", "100000,2,2")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "rank 100002" in err and "limit" in err


def test_lattice_reflections_count_toward_the_limit(capsys):
    # rank 216: 216^2 form entries fit, 216^2 + 216^3 reflection entries do not
    matrix = json.dumps([[0] * 216 for _ in range(216)])
    code, out, _ = run(capsys, "lattice", "--matrix", matrix)
    assert code == 0 and "rank: 216" in out
    code, out, err = run(capsys, "lattice", "--matrix", matrix, "--reflections")
    assert code == 2
    assert out == ""
    assert "limit" in err


@pytest.mark.parametrize("argv", [["--t", "400,2,2"],
                                  ["--t", "120,2,2", "--reflections"]])
def test_lattice_large_under_the_limit(capsys, argv):
    code, out, _ = run(capsys, "lattice", *argv)
    assert code == 0
    assert out.startswith("rank: %d\n" % (int(argv[1].split(",")[0]) + 2))


# ----------------------------------------------------------------------
# elliptic


def test_elliptic_central_word(capsys):
    code, out, _ = run(capsys, "elliptic", "--word", "(O Op)^6")
    assert code == 0
    assert "identity" in out


def test_elliptic_translation_shadow(capsys):
    code, out, _ = run(capsys, "elliptic", "--word", "L^-1 O")
    assert code == 0
    assert "identity" in out


def test_elliptic_minus_identity_flagged_central(capsys):
    code, out, _ = run(capsys, "elliptic", "--word", "(O Op)^3")
    assert code == 0
    assert "central" in out


def test_elliptic_unknown_generator(capsys):
    code, _, _ = run(capsys, "elliptic", "--word", "X")
    assert code == 2


def test_elliptic_json(capsys):
    code, out, _ = run(capsys, "elliptic", "--word", "O Op", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["matrix"] == [[0, -1], [1, 1]] or len(data["matrix"]) == 2


def test_elliptic_huge_power_answers(capsys):
    code, out, _ = run(capsys, "elliptic", "--word", "O^1000000000")
    assert code == 0
    assert out.splitlines()[0] == "matrix: [[1, -1000000000], [0, 1]]"


def test_elliptic_deep_balanced_nesting(capsys):
    word = "(" * 3000 + "O" + ")" * 3000
    code, out, err = run(capsys, "elliptic", "--word", word)
    assert code == 0
    assert out.splitlines()[0] == "matrix: [[1, -1], [0, 1]]"
    assert "Traceback" not in err


def test_elliptic_deep_unbalanced_nesting(capsys):
    word = "(" * 3000 + "O" + ")" * 2999
    code, out, err = run(capsys, "elliptic", "--word", word)
    assert code == 2
    assert out == ""
    assert "unbalanced" in err and "Traceback" not in err


@pytest.mark.parametrize("word", [
    "(O Op^-1)^1000000000000",  # entries of about 1.39 k bits
    "(" * 4400 + "O" + ")^10" * 4400,  # O^(10^4400)
    "(O^5" + "0" * 4299 + ")^2",  # O^(10^4300), just at the cap
], ids=["hyperbolic", "10^4400", "10^4300"])
def test_elliptic_entries_over_the_cap_exit_2(capsys, word):
    start = time.perf_counter()
    code, out, err = run(capsys, "elliptic", "--word", word)
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert "10^4300" in err and "Traceback" not in err


def test_elliptic_entries_under_the_cap_print(capsys):
    # O^(10^4300 - 1): the square after the top bit of the exponent would
    # pass the cap, but goes unused
    code, out, _ = run(capsys, "elliptic", "--word", "O^" + "9" * 4300)
    assert code == 0
    assert out.splitlines()[0] == "matrix: [[1, -%s], [0, 1]]" % ("9" * 4300)
    code, out, _ = run(capsys, "elliptic", "--word", "(O Op^-1)^1000")
    assert code == 0 and len(out) > 1600


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_PARSER", None)
    outs = [run(capsys, "act", "--word", "1 2 -1", "--object", "2") for _ in range(3)]
    assert run(capsys, "act", "--word", "x")[0] == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    assert outs[0] == outs[1] == outs[2] and outs[0][0] == 0
    assert len(built) == 1


TEXT_RUNS = [
    ["check-relations", "--n", "3"],
    ["act", "--word", "1 -2 1", "--object", "2"],
    ["compare", "--w1", "1 2 1", "--w2", "2 1 2"],
    ["compare", "--w1", "1 2 1", "--w2", "1 1 2"],
]


def test_text_output_builds_no_json_data(capsys, monkeypatch):
    want = [run(capsys, *argv)[:2] for argv in TEXT_RUNS]
    assert [code for code, _out in want] == [0, 0, 0, 3]

    def refuse(self):
        raise AssertionError("JSON data built for text output")

    for cls in (RelationReport, ComparisonReport, ProjComplex):
        monkeypatch.setattr(cls, "to_dict", refuse)
    assert [run(capsys, *argv)[:2] for argv in TEXT_RUNS] == want
    for argv in TEXT_RUNS:
        with pytest.raises(AssertionError):
            main(argv + ["--json"])


def test_lattice_deeply_nested_matrix(capsys):
    code, out, err = run(capsys, "lattice", "--matrix", "[" * 100000 + "]" * 100000)
    assert code == 2
    assert out == ""
    assert "error" in err and "Traceback" not in err


# ----------------------------------------------------------------------
# dump-algebra and determinism


def test_dump_algebra(capsys):
    code, out, _ = run(capsys, "dump-algebra", "--n", "2")
    data = json.loads(out)
    assert code == 0
    assert len(data["basis"]) == 6


@pytest.mark.parametrize("argv", [["lattice", "--t", "120,2,2", "--json"],
                                  ["dump-algebra", "--n", "3", "--N", "3", "--degrees", "1,2"]])
def test_json_streams_the_bytes_of_json_dumps(capsys, argv):
    # --json writes the encoder's chunks in batches; the lattice's
    # document runs over several batches
    code, out, _ = run(capsys, *argv)
    if argv[0] == "lattice":
        lattice = build_tdiagram(120, 2, 2)
        data = {"lattice": lattice.to_dict(), "definiteness": definiteness(lattice).to_dict()}
    else:
        data = ZigzagAlgebra(ChainParams(3, 3, (1, 2))).describe()
    assert code == 0
    assert out == json.dumps(data, sort_keys=True, indent=2) + "\n"


def test_identical_invocations_byte_identical(capsys):
    _, out1, _ = run(capsys, "act", "--word", "1 2 -1", "--object", "2", "--json")
    _, out2, _ = run(capsys, "act", "--word", "1 2 -1", "--object", "2", "--json")
    assert out1 == out2


def test_usage_error_on_missing_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_closed_stdout_exits_2_without_traceback():
    # a reader that stops early, as `| head -1` does, closes the pipe
    # mid-output: an output error, exit 2, not the failed relation of exit 1;
    # the output (about 400 kB) is far over what the pipe buffers
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    argv = [sys.executable, "-m", "sphtwist.cli", "lattice", "--t", "200,2,2", "--json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_out_of_memory_exits_2_without_traceback():
    # the image of [1,-2]^18 has over 24 million summands; with the address
    # space of the child capped, the build runs out of memory, which is exit
    # 2 and one line on stderr, not a traceback and the exit 1 of a failed
    # relation
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (150 << 20, 150 << 20))

    argv = [sys.executable, "-m", "sphtwist.cli", "act", "--word", " ".join(["1 -2"] * 18)]
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=60, preexec_fn=cap)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", b"error: out of memory\n")


@pytest.mark.parametrize("k", [1, 16, 64])
def test_out_of_memory_while_filling_exits_2(k):
    # a command that fills the capped address space with small dicts of
    # k-lists: until the handler ends, the traceback holds every frame the
    # MemoryError unwound and all they allocated, so the one line on stderr
    # must not need memory inside it
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    code = (
        "import sys\n"
        "from sphtwist import cli\n"
        "def fill(args):\n"
        "    held = []\n"
        "    i = 0\n"
        "    while True:\n"
        "        held.append({i: [0] * %d})\n"
        "        i += 1\n"
        "cli.cmd_act = fill\n"
        "sys.exit(cli.main(['act', '--word', '1']))\n" % k
    )

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (120 << 20, 120 << 20))

    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          timeout=60, preexec_fn=cap)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", b"error: out of memory\n")


def test_cold_start_loads_no_heavy_modules():
    # each CLI command is a fresh process, so import time is part of its
    # end-to-end time; -S keeps a site .pth file from loading these first
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize", "sympy"]
    code = (
        "import sys\n"
        "sys.path.insert(0, %r)\n"
        "before = set(sys.modules)\n"
        "import sphtwist, sphtwist.cli\n"
        "print(*sorted(set(sys.modules) - before))\n" % os.path.join(root, "src")
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                          timeout=60, capture_output=True, text=True)
    loaded = proc.stdout.split()
    assert "sphtwist.cli" in loaded
    assert [m for m in heavy if m in loaded] == []


def test_bench_tracer_installs():
    # the bench tracer wraps sphtwist's functions and methods by name; a
    # deletion from src/ that it still names fails here, not in the bench
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    code = (
        "import sys\n"
        "import sphtwist, sphtwist.cli\n"
        "sys.path.insert(0, %r)\n"
        "import tracer\n"
        "tracer.Tracer().install()\n" % os.path.join(root, "bench")
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


@pytest.mark.parametrize("workload", ["ladder", "iso", "cli", "shadows"])
def test_bench_workload_checks_pass(workload):
    # one warm-up pass and the minimum of timed passes of a bench workload:
    # its outputs are checked against the bench's independent references
    # and must repeat exactly in every pass
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "child.py"), "--workload",
         workload, "--role", "run", "--seconds", "0", "--seed", "1"],
        check=True, timeout=120, capture_output=True, text=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], result["problems"]
    assert result["failed_cases"] == []
