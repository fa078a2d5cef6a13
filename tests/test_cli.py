"""Tests for the command-line surface: exit codes, output, determinism."""

import json

import pytest

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


# ----------------------------------------------------------------------
# dump-algebra and determinism


def test_dump_algebra(capsys):
    code, out, _ = run(capsys, "dump-algebra", "--n", "2")
    data = json.loads(out)
    assert code == 0
    assert len(data["basis"]) == 6


def test_identical_invocations_byte_identical(capsys):
    _, out1, _ = run(capsys, "act", "--word", "1 2 -1", "--object", "2", "--json")
    _, out2, _ = run(capsys, "act", "--word", "1 2 -1", "--object", "2", "--json")
    assert out1 == out2


def test_usage_error_on_missing_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
