"""Every recorded output of ``tests/golden.json`` is reproduced byte for byte."""

import json

import pytest

from golden_cases import GOLDEN_PATH, all_cases


@pytest.fixture(scope="module")
def outputs():
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    return golden, all_cases()


def test_golden_case_names_match(outputs):
    golden, got = outputs
    assert sorted(got) == sorted(golden)


def test_golden_outputs_byte_identical(outputs):
    golden, got = outputs
    changed = [name for name in sorted(golden) if got.get(name) != golden[name]]
    assert changed == []
