"""Bit-stability of the deterministic outputs across changes.

Every case of regen_golden.CASES must reproduce its stored SHA-256 digest.
A mismatch means the output bytes changed; if that is intended, rerun
tests/regen_golden.py and name the changed cases in CHANGES.md. The
digests pin one numpy build and CPU class: another BLAS, numpy release or
instruction set may round float64 results differently.
"""

import json

import pytest

from regen_golden import CASES, GOLDEN_PATH

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_every_case_has_a_digest():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert CASES[name]() == GOLDEN[name]
