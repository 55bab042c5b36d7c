from __future__ import annotations

import pytest

from gaussreal import GaussWord, enumerate_canonical, is_realizable, oracle_realizable


@pytest.fixture(scope="session")
def canonical_by_n():
    """Memoized canonical diagrams per chord count (used up to n = 7)."""
    cache: dict[int, list] = {}

    def get(n: int) -> list:
        if n not in cache:
            cache[n] = list(enumerate_canonical(n))
        return cache[n]

    return get


@pytest.fixture(scope="session")
def verdicts_by_n(canonical_by_n):
    """(diagram, criterion_says_realizable, oracle_witness) per chord count."""
    cache: dict[int, list] = {}

    def get(n: int) -> list:
        if n not in cache:
            cache[n] = [
                (d, is_realizable(d).realizable, oracle_realizable(d))
                for d in canonical_by_n(n)
            ]
        return cache[n]

    return get


def _reference_diagram(tokens):
    """Word, labels, endpoints, chord per position and crossing rows of
    ``tokens`` by three separate passes, sharing no code with the
    builder's pass: GaussWord's validation, the first/pairs dicts, then a
    prefix XOR.  Tests and CI import it from here."""
    word = GaussWord(tokens)
    labels: list[str] = []
    first: dict[str, int] = {}
    pairs: dict[str, list[int]] = {}
    for pos, sym in enumerate(word.symbols):
        if sym not in first:
            first[sym] = len(labels)
            labels.append(sym)
            pairs[sym] = [pos]
        else:
            pairs[sym].append(pos)
    endpoints = tuple((pairs[lab][0], pairs[lab][1]) for lab in labels)
    position_chord = [0] * len(tokens)
    for c, (p, q) in enumerate(endpoints):
        position_chord[p] = position_chord[q] = c
    prefix = [0]
    for c in position_chord:
        prefix.append(prefix[-1] ^ (1 << c))
    rows = tuple(prefix[q] ^ prefix[p + 1] for p, q in endpoints)
    return word, tuple(labels), endpoints, tuple(position_chord), rows
