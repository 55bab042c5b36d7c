"""The kernels against their definitions, and the two backends against each other.

The pure-Python kernels are always checked: ``canonical_key`` against its
definition, and the incremental mask scan against a reference copy of the
scan that refills every chord's rotation for each mask.  The tests of the
compiled ``gaussreal._speedups`` module run only when it imports: they
compare its rotation search with ``gaussreal._pure`` call for call.  Both
backends must refuse input the C cannot copy into its arrays.
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


def _full_refill_find_planar_rotation(endpoints_flat, n, start=0, stop=None) -> int:
    """Reference scan: rebuild sigma for every mask and count its faces."""
    if stop is None:
        stop = 1 << n
    m = 2 * n
    darts = []
    for c in range(n):
        f, s = endpoints_flat[2 * c], endpoints_flat[2 * c + 1]
        darts.append((2 * ((f - 1) % m) + 1, 2 * f, 2 * ((s - 1) % m) + 1, 2 * s))
    sigma = [0] * (4 * n)
    for mask in range(start, stop):
        for c, (in_f, out_f, in_s, out_s) in enumerate(darts):
            if (mask >> c) & 1:
                cycle = (in_f, out_s, out_f, in_s)
            else:
                cycle = (in_f, in_s, out_f, out_s)
            for k in range(4):
                sigma[cycle[k]] = cycle[(k + 1) % 4]
        seen = bytearray(4 * n)
        faces = 0
        for d0 in range(4 * n):
            if seen[d0]:
                continue
            faces += 1
            d = d0
            while not seen[d]:
                seen[d] = 1
                d = sigma[d ^ 1]
        if faces == n + 2:
            return mask
    return -1


@pytest.mark.parametrize("n", range(0, 8))
def test_pure_scan_matches_the_full_refill_scan(n, canonical_by_n):
    rng = random.Random(n)
    diagrams = canonical_by_n(n)
    top = 1 << n
    for diagram in rng.sample(diagrams, min(len(diagrams), 80)):
        flat = _endpoints_flat(diagram)
        a, b, c = (rng.randrange(top + 1) for _ in range(3))
        for bounds in ((), (a, b), (b, a), (c, c), (0, top >> 1)):
            expected = _full_refill_find_planar_rotation(flat, n, *bounds)
            assert _pure.find_planar_rotation(flat, n, *bounds) == expected, bounds


def _speedups():
    return pytest.importorskip("gaussreal._speedups")


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


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_kernels_refuse_malformed_input(backend):
    kernels = _pure if backend == "pure" else _speedups()
    for flat in ([0, 6, 1, 4, 2, 5], [0, -1, 1, 4, 2, 5], [0, 3, 1, 4, 2]):
        with pytest.raises(ValueError):
            kernels.find_planar_rotation(flat, 3)
    with pytest.raises(ValueError):
        kernels.find_planar_rotation(list(range(128)), 64, 0, 1)
