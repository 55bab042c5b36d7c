"""SHA-256 pins of the structured documents the command line writes.

``test_criterion_8_deterministic_reports`` compares a run with itself;
these tests compare each run with a recorded one.  Each pin is the digest
of the exit status and stdout of one ``--format structured`` command,
recorded when documents were written by ``json.dumps(sort_keys=True,
indent=2)``.  A change to a verdict, a witness, a label order or one byte
of layout fails here.

The batches are polygon words from ``perfbench/polygons.py`` with their
one-swap mutants, each mutant also relabelled with labels that mix
multi-digit numerals, letters of both cases and numerals that
``core._label_key`` reads as the same int ("7", "07", "+7").
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

from gaussreal.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
NON_PLANE_9 = "1 2 3 4 5 1 6 7 2 3 8 9 7 6 4 5 9 8"
EVEN_NONREAL_6 = "1 2 3 4 5 6 2 1 4 3 6 5"
EVEN_NONREAL_8 = "0 1 2 3 4 5 6 0 1 7 3 2 5 6 7 4"
KINKED_8 = "c 1 2 3 4 5 1 6 3 4 7 c 8 7 5 2 6 8"
MIXED_LABELS = ["7", "07", "+7", "a", "B", "10", "9", "Z", "b", "A", "100", "x1", "x10"]
MIXED_LABELS += ["x2", "11", "0"] + ["c%d" % i for i in range(50)]
random.Random(3).shuffle(MIXED_LABELS)


def _relabelled(tokens: list[str]) -> list[str]:
    """Polygon chords "1", "2", ... renamed with the mixed labels."""
    return [MIXED_LABELS[int(t) - 1] for t in tokens]


def _batch(seed: int, chords) -> str:
    """Each polygon word, its mutant, then the mutant relabelled."""
    from polygons import mutate, polygon_words

    rng = random.Random(seed)
    lines = []
    for words in polygon_words(rng, chords, 1).values():
        mutant = mutate(rng, words[0])
        lines += [words[0], mutant, _relabelled(mutant)]
    return "".join(" ".join(tokens) + "\n" for tokens in lines)


# Case id -> (argv, batch seed and chord counts for --batch, or None).
CASES = {
    "check-batch-cross": (["check", "--cross-check"], (5, range(10, 15))),
    "check-batch": (["check"], (6, range(10, 61, 5))),
    "check-trefoil": (["check", "1 2 3 1 2 3"], None),
    "check-odd-chord": (["check", "1 2 1 2"], None),
    "check-smoothing": (["check", EVEN_NONREAL_6], None),
    "check-kinked": (["check", KINKED_8], None),
    "check-non-plane-9": (["check", NON_PLANE_9], None),
    "check-mixed-labels": (["check", "b 10 +7 a 9 b 7 10 a +7 07 9 7 07"], None),
    "oracle-trefoil": (["oracle", "1 2 3 1 2 3"], None),
    "oracle-non-plane-9": (["oracle", NON_PLANE_9], None),
    "witness-even-nonreal-8": (["witness", EVEN_NONREAL_8], None),
    "witness-none": (["witness", "1 2 1 2"], None),
    "smooth-kinked": (["smooth", KINKED_8, "3"], None),
    "enumerate-5": (["enumerate", "--max-chords", "5"], None),
    "cross-validate-6": (["cross-validate", "--max-chords", "6"], None),
}

PINS = {
    "check-batch": "56ed5e257c59b7cb3246f2c6e175cd47e2cde35c9ed6276cb2b8639a77ba98a7",
    "check-batch-cross": "30167a5ade75392d15b9418a64c058f59a4b818a7fab6fcca6ef6115c1606d86",
    "check-kinked": "8b95c892a09f02e1de61c6ee08112b7de8bbe402e354ded8b2aa05dfae8cc9cc",
    "check-mixed-labels": "b63746a5c9d75a6d13e5679520da288d4049f5af426ca0bd593d9cca2dba51b4",
    "check-non-plane-9": "3eaef1a15367f8957290285c0cac5abaab804603761867d4f8cc685b8ccdc7c0",
    "check-odd-chord": "55c26602a9450a52b1d3657782b0cfc6ba134245b3b75d75f56882949c2c6eb2",
    "check-smoothing": "643a7ed1a2152ae53659d55b20861904e5507f829be2a098d2097adcd4c46fbb",
    "check-trefoil": "be76c585f7a031ff36895bbfa024e16b1836cf6adca1ec69d319e3ed2a9baa6a",
    "cross-validate-6": "85e0e675e77cbe4cee993be649299985ec4bfd499ee3955d136d9a3921f12551",
    "enumerate-5": "f6c3ba913e4700ff9cde2ede0cbe86880c143e9d774132db585954eeee566072",
    "oracle-non-plane-9": "a197727c4ac33db13b12c16c0fd55114c2fe718b9f72cb4de5442e5b1b704f5e",
    "oracle-trefoil": "6f61c45cb334d0c13594a960d8e9728a9f4feb5cae738af784971f2c2a128e75",
    "smooth-kinked": "ef222f780a636f253e9bf7277ccca3739dc379a29d1dd50b6aa266d3aaa68764",
    "witness-even-nonreal-8": "02686d27bed524163c4e7167872d8310cff229aebadcaa5ca212455680bd35db",
    "witness-none": "98603b5476bfbac16add20ccfd4f342d5295ff36726eaa2390ebe772b8a6f5c7",
}


def _digest(capsys, tmp_path, argv, batch) -> str:
    argv = list(argv)
    if batch is not None:
        path = tmp_path / "words.txt"
        path.write_text(_batch(*batch), encoding="utf-8")
        argv += ["--batch", str(path)]
    code = main(argv + ["--format", "structured"])
    out = capsys.readouterr().out
    return hashlib.sha256(("%d\n%s" % (code, out)).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_structured_output_matches_its_pin(case, capsys, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    assert _digest(capsys, tmp_path, *CASES[case]) == PINS[case]
