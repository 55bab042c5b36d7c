"""The kernels against their definitions, and the two backends against each other.

The pure-Python kernels are always checked: ``canonical_key`` against its
definition, and the depth-first rotation search against a reference scan
that refills every chord's rotation for each mask and counts its faces.
The tests of the compiled ``gaussreal._speedups`` module run only when it
imports: they compare its rotation search with ``gaussreal._pure`` call
for call.  The reference scans all 2**n masks, so it also checks that
the search may keep one bit per crossing-graph component at 0 and that
flipping components turns its first leaf into the least mask.  Both
backends must refuse input the C cannot copy into its arrays.  Polygon
words, realizable by construction, and their never-realizable mutants
check the search at sizes the reference scan cannot reach.  Words padded
with kinks, words with ``a b b a`` shells, and sums of trefoils check
that fixing a bit per component loses no spherical mask and keeps the
search from turning exhaustive.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gaussreal import GaussWord, _pure, diagram_from_word, symmetry_variants
from gaussreal.oracle import _endpoints_flat, witness_for_mask

POLYGONS = Path(__file__).resolve().parent.parent / "perfbench" / "polygons.py"

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


def _full_refill_find_planar_rotation(endpoints_flat, n) -> int:
    """Reference scan: rebuild sigma for every mask and count its faces."""
    m = 2 * n
    darts = []
    for c in range(n):
        f, s = endpoints_flat[2 * c], endpoints_flat[2 * c + 1]
        darts.append((2 * ((f - 1) % m) + 1, 2 * f, 2 * ((s - 1) % m) + 1, 2 * s))
    sigma = [0] * (4 * n)
    for mask in range(1 << n):
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
    for diagram in rng.sample(diagrams, min(len(diagrams), 80)):
        flat = _endpoints_flat(diagram)
        expected = _full_refill_find_planar_rotation(flat, n)
        assert _pure.find_planar_rotation(flat, n) == expected, diagram.word


# SHA-256 of "<canonical word>: <mask>\n" over the canonical diagrams
# with 1 to 7 chords, in enumeration order.
PURE_SEARCH_PIN = "b41527aa04c681904959900ed104bd7c950d40464bac43dd165c61268db81ce4"


def test_pure_search_matches_its_pin_up_to_seven_chords(canonical_by_n):
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 8):
        for diagram in canonical_by_n(n):
            mask = _pure.find_planar_rotation(_endpoints_flat(diagram), n)
            digest.update(b"%s: %d\n" % (diagram.word.text().encode(), mask))
            count += 1
    assert count == 5941
    assert digest.hexdigest() == PURE_SEARCH_PIN


def _speedups():
    return pytest.importorskip("gaussreal._speedups")


def _backends() -> list:
    """The pure kernels, and the compiled ones when they import."""
    try:
        from gaussreal import _speedups
    except ImportError:
        return [_pure]
    return [_pure, _speedups]


def _flat_of(index_word) -> list[int]:
    """Endpoints of an index word, chord c at 2c and 2c + 1."""
    ends: dict[int, list[int]] = {}
    for position, c in enumerate(index_word):
        ends.setdefault(c, []).append(position)
    return [p for c in range(len(ends)) for p in ends[c]]


@functools.cache
def _polygons():
    spec = importlib.util.spec_from_file_location("polygons", POLYGONS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@st.composite
def plane_index_words(draw, chords):
    """A polygon word with a drawn chord count, its chords renumbered."""
    n = draw(chords)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    (word,) = _polygons().polygon_words(rng, [n], 1)[n]
    order = draw(st.permutations(range(n)))
    return [order[int(label) - 1] for label in word]


# Random words almost never embed, so half the words are plane ones.
mid_sized = st.integers(min_value=8, max_value=10)


@settings(deadline=None)
@given(
    st.one_of(
        mid_sized.flatmap(lambda n: st.permutations(list(range(n)) * 2)),
        plane_index_words(mid_sized),
    )
)
def test_search_matches_the_full_refill_scan_on_mid_sized_words(word):
    n = len(word) // 2
    flat = _flat_of(word)
    expected = _full_refill_find_planar_rotation(flat, n)
    for kernels in _backends():
        assert kernels.find_planar_rotation(flat, n) == expected, kernels.__name__


def test_polygon_words_embed_and_their_mutants_do_not():
    """16 to 24 chords: the mask retraces to Euler 2, and no mutant embeds."""
    polygons = _polygons()
    rng = random.Random(12)
    words = polygons.polygon_words(rng, range(16, 25), 2)
    for n, group in sorted(words.items()):
        for word in group:
            for tokens, plane in ((word, True), (polygons.mutate(rng, word), False)):
                diagram = diagram_from_word(" ".join(tokens))
                flat = _endpoints_flat(diagram)
                masks = {k.find_planar_rotation(flat, n) for k in _backends()}
                assert len(masks) == 1, (tokens, masks)
                (mask,) = masks
                if plane:
                    assert mask >= 0, tokens
                    assert witness_for_mask(diagram, mask).euler == 2, tokens
                else:
                    assert mask == -1, tokens


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_loops_keep_bit_zero(backend):
    kernels = _pure if backend == "pure" else _speedups()
    # 1 2 1 2 is no plane curve.  With 40 kinks, a search that tried both
    # bits of every kink would visit 2**42 - 1 nodes before giving up.
    word = [0, 1, 0, 1] + [c for c in range(2, 42) for _ in "ab"]
    assert kernels.find_planar_rotation(_flat_of(word), 42) == -1
    # Kinks around a trefoil core (chords 3-5), chord 0 and the top chord
    # among them: the least mask of all 2**8 keeps every kink's bit at 0.
    word = [0, 0, 3, 4, 7, 7, 5, 3, 4, 5, 1, 1, 2, 2, 6, 6]
    flat = _flat_of(word)
    expected = _full_refill_find_planar_rotation(flat, 8)
    assert expected >= 0
    assert kernels.find_planar_rotation(flat, 8) == expected


@st.composite
def shell_words(draw):
    """A core word with ``a b b a`` shells inserted, chords renumbered.

    The outer chord of a shell crosses no chord but is no loop; the core
    is 1 2 1 2 (no plane curve) or the trefoil (a plane curve).
    """
    word = list(draw(st.sampled_from([(0, 1, 0, 1), (0, 1, 2, 0, 1, 2)])))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        a = len(word) // 2
        at = draw(st.integers(min_value=0, max_value=len(word)))
        word[at:at] = [a, a + 1, a + 1, a]
    order = draw(st.permutations(range(len(word) // 2)))
    return [order[c] for c in word]


@settings(deadline=None)
@given(shell_words())
def test_isolated_chords_keep_bit_zero(word):
    n = len(word) // 2
    flat = _flat_of(word)
    expected = _full_refill_find_planar_rotation(flat, n)
    for kernels in _backends():
        assert kernels.find_planar_rotation(flat, n) == expected, kernels.__name__


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_shells_do_not_make_the_search_exhaustive(backend):
    kernels = _pure if backend == "pure" else _speedups()
    # 1 2 1 2 with 30 shells on either side: a search that tried both bits
    # of every outer chord would visit about 2**30 nodes before giving up.
    word = [0, 1, 0, 1]
    for a in range(2, 62, 2):
        word = [a, a + 1, a + 1, a] + word if a % 4 else word + [a, a + 1, a + 1, a]
    assert kernels.find_planar_rotation(_flat_of(word), 62) == -1


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_trefoil_summands_do_not_make_the_search_exhaustive(backend):
    kernels = _pure if backend == "pure" else _speedups()
    # Each summand a b c a b c is a component of the crossing graph.  On
    # 1 2 1 2, no plane curve, a search that tried both bits of each
    # summand's first chord would double its visits per summand: about
    # five million nodes for these 19.
    summands = [c for a in range(2, 59, 3) for c in (a, a + 1, a + 2) * 2]
    assert kernels.find_planar_rotation(_flat_of([0, 1, 0, 1] + summands), 59) == -1
    # On the trefoil, the sum is a plane curve, and the mask has each
    # summand's top chord, 3j + 2, at bit 0.
    word = [0, 1, 2, 0, 1, 2] + [c + 1 for c in summands]
    diagram = diagram_from_word(" ".join(map(str, word)))
    mask = kernels.find_planar_rotation(_endpoints_flat(diagram), 60)
    assert witness_for_mask(diagram, mask).euler == 2
    assert not any(mask >> (3 * j + 2) & 1 for j in range(20))


@pytest.mark.parametrize("n", range(1, 8))
def test_backends_agree_on_planar_rotation(n, canonical_by_n):
    compiled = _speedups()
    for diagram in canonical_by_n(n):
        flat = _endpoints_flat(diagram)
        expected = _pure.find_planar_rotation(flat, n)
        assert compiled.find_planar_rotation(flat, n) == expected, diagram.word


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_kernels_refuse_malformed_input(backend):
    kernels = _pure if backend == "pure" else _speedups()
    for flat in ([0, 6, 1, 4, 2, 5], [0, -1, 1, 4, 2, 5], [0, 3, 1, 4, 2]):
        with pytest.raises(ValueError):
            kernels.find_planar_rotation(flat, 3)
    with pytest.raises(ValueError):
        kernels.find_planar_rotation(list(range(128)), 64)
    with pytest.raises(ValueError):  # a position taken twice
        kernels.find_planar_rotation([0, 3, 1, 4, 1, 5], 3)
    assert kernels.find_planar_rotation([0, 3, 1, 4, 2, 5], 3) == 2  # trefoil
    assert kernels.find_planar_rotation([], 0) == -1
