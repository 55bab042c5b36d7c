"""The kernels against their definitions, and the two backends against each other.

The pure-Python kernels are always checked.  The differential tests run only
when the compiled ``gaussreal._speedups`` module imports; they compare it with
``gaussreal._pure`` call for call.  Without Cython the extension is built from
the tracked ``_speedups.c``, so a test also checks that the C was generated
from the current ``_speedups.pyx``.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

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


SOURCES = Path(__file__).resolve().parents[1] / "src" / "gaussreal"
MARKER = "             # <<<<<<<<<<<<<<"


def test_tracked_c_quotes_the_current_pyx():
    """Every ``.pyx`` excerpt Cython left in ``_speedups.c`` matches the ``.pyx``.

    Each excerpt is headed ``/* "gaussreal/_speedups.pyx":N``; the quoted
    line ending in ``MARKER`` is line N and its neighbours are offset from
    it.  Cython quotes each line right-stripped, after `` * ``.
    """
    pyx = (SOURCES / "_speedups.pyx").read_text().split("\n")
    c = (SOURCES / "_speedups.c").read_text()
    blocks = re.findall(r'/\* "gaussreal/_speedups\.pyx":(\d+)\n(.*?)\n *\*/', c, re.S)
    assert blocks
    for number, body in blocks:
        quoted = body.split("\n")
        (mark,) = [i for i, line in enumerate(quoted) if line.endswith(MARKER)]
        quoted[mark] = quoted[mark][: -len(MARKER)]
        first = int(number) - 1 - mark
        expected = [" * " + line.rstrip() for line in pyx[first : first + len(quoted)]]
        assert quoted == expected, "_speedups.c is stale at .pyx line %s" % number


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
