"""The kernels against their definitions, and the two backends against each other.

The pure-Python kernels are always checked.  The differential tests run only
when the compiled ``gaussreal._speedups`` module imports; they compare it with
``gaussreal._pure`` call for call.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from gaussreal import GaussWord, _pure, symmetry_variants
from gaussreal.oracle import _endpoints_flat

index_words = st.integers(min_value=0, max_value=9).flatmap(
    lambda n: st.permutations(list(range(n)) * 2)
)


def _first_visit_relabelling(reading) -> tuple[int, ...]:
    order = list(dict.fromkeys(reading))
    return tuple(order.index(sym) for sym in reading)


@given(index_words)
def test_pure_canonical_key_is_the_least_relabelled_reading(word):
    readings = symmetry_variants(GaussWord.from_tokens(str(c) for c in word))
    expected = min((_first_visit_relabelling(r) for r in readings), default=())
    assert _pure.canonical_key(word) == expected


def _speedups():
    return pytest.importorskip("gaussreal._speedups")


@given(index_words)
def test_backends_agree_on_canonical_key(word):
    assert _speedups().canonical_key(word) == _pure.canonical_key(word)


@pytest.mark.parametrize("n", range(1, 8))
def test_backends_agree_on_planar_rotation(n, canonical_by_n):
    compiled = _speedups()
    rng = random.Random(n)
    for diagram in canonical_by_n(n):
        flat = _endpoints_flat(diagram)
        start, stop = sorted(rng.randrange((1 << n) + 1) for _ in range(2))
        for bounds in ((), (start, stop)):
            expected = _pure.find_planar_rotation(flat, n, *bounds)
            assert compiled.find_planar_rotation(flat, n, *bounds) == expected
