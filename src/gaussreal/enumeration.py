"""Exhaustive enumeration of small diagrams and the dual-route validation sweep.

``enumerate_canonical`` generates every Gauss diagram with a given number
of chords exactly once up to rotation, reflection and relabeling: it runs
over all perfect matchings of the 2n circle positions (the second
occurrences placed recursively), canonicalizes each word, and dedupes.
``cross_validate`` then plays the two independent deciders against each
other — the even-condition criterion of ``gaussreal.realizability`` and
the rotation-system search of ``gaussreal.oracle`` — over every canonical
diagram up to a chord bound.  Diagrams stream through both deciders one at
a time, in worker processes if asked, and only counts and disagreements
are kept.  Disagreements are not errors of the harness; they are its most
important output and are recorded with both witnesses and written out as
re-runnable batch lines.

Structured sweep documents never include timing, so two runs with the
same configuration are byte-identical; wall time is kept on the in-memory
report for the human-readable summary only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from . import _kernels, codec
from .core import CanonicalForm, ChordDiagram, GaussWord, interlacement
from .core import diagram_from_word  # noqa: F401  -- wrapped by perfbench/spans.py
from .oracle import EmbeddingWitness, oracle_realizable
from .realizability import RealizabilityReport, is_realizable


def _fill(word: list[int], c: int):
    """Complete ``word`` in place, yielding it once per perfect matching.

    Chord c takes the first free slot (-1) and, in turn, each later free
    slot as its partner; chord c + 1 then fills the rest.
    """
    if -1 not in word:
        yield word
        return
    first = word.index(-1)
    word[first] = c
    for j in range(first + 1, len(word)):
        if word[j] == -1:
            word[j] = c
            yield from _fill(word, c + 1)
            word[j] = -1
    word[first] = -1


def _shard_keys(args) -> set:
    """Canonical keys of every index word whose position 0 pairs with j."""
    n, j = args
    word = [-1] * (2 * n)
    word[0] = word[j] = 0
    return {_kernels.canonical_key(w) for w in _fill(word, 1)}


def canonical_keys(n: int, workers: int = 1) -> list[tuple[int, ...]]:
    """Sorted canonical keys of all n-chord diagrams, one per symmetry orbit.

    The matching space is sharded by the partner of position 0; shards are
    independent, so they may run in worker processes, and the merged
    seen-set is identical either way.
    """
    if n < 0:
        raise ValueError("chord count must be non-negative")
    if n == 0:
        return [()]
    keys = set()
    for part in _kernels._map(_shard_keys, [(n, j) for j in range(1, 2 * n)], workers):
        keys |= part
    return sorted(keys)


def enumerate_canonical(
    n: int, workers: int = 1, require_non_isolated: bool = False
) -> Iterator[ChordDiagram]:
    """One canonical representative per n-chord diagram, in sorted key order.

    The keys are computed when this is called, in ``workers`` processes if
    more than one; the diagrams are then built lazily, one per ``next()``.
    With ``require_non_isolated``, diagrams containing a kink (a chord that
    crosses no other) are skipped.
    """
    diagrams = (CanonicalForm(key=key).diagram() for key in canonical_keys(n, workers))
    if require_non_isolated:
        return (d for d in diagrams if not interlacement(d).isolated())
    return diagrams


@dataclass(frozen=True)
class SweepConfig:
    max_chords: int
    require_non_isolated: bool = False  # drop diagrams containing kinks
    workers: int = 1

    def __post_init__(self):
        if self.max_chords < 1:
            raise ValueError("max_chords must be at least 1")


@dataclass(frozen=True)
class Disagreement:
    """One diagram on which the two routes split, with both witnesses."""

    word: GaussWord
    criterion: RealizabilityReport
    oracle: EmbeddingWitness | None

    def document(self) -> dict:
        return {
            "word": self.word.text(),
            "criterion": self.criterion.document(),
            "oracle": None if self.oracle is None else self.oracle.document(),
        }


@dataclass(frozen=True)
class SweepRow:
    n: int
    total: int
    realizable: int
    non_realizable: int
    disagreements: tuple[Disagreement, ...]

    def document(self) -> dict:
        return {
            "n": self.n,
            "total": self.total,
            "realizable": self.realizable,
            "non_realizable": self.non_realizable,
            "disagreements": [d.document() for d in self.disagreements],
        }


@dataclass(frozen=True)
class SweepReport:
    max_chords: int
    require_non_isolated: bool
    rows: tuple[SweepRow, ...]
    wall_time: float  # seconds; deliberately absent from document()

    @property
    def disagreements(self) -> tuple[Disagreement, ...]:
        return tuple(d for row in self.rows for d in row.disagreements)

    def document(self) -> dict:
        doc = codec.new_document("cross-validation")
        doc.update(
            {
                "max_chords": self.max_chords,
                "require_non_isolated": self.require_non_isolated,
                "rows": [row.document() for row in self.rows],
                "total_diagrams": sum(row.total for row in self.rows),
                "total_disagreements": len(self.disagreements),
            }
        )
        return doc

    def summary_lines(self) -> list[str]:
        lines = []
        for row in self.rows:
            lines.append(
                "n=%d: %d diagrams, %d realizable, %d non-realizable, %d disagreements"
                % (
                    row.n,
                    row.total,
                    row.realizable,
                    row.non_realizable,
                    len(row.disagreements),
                )
            )
        lines.append(
            "total: %d diagrams, %d disagreements, %.1fs"
            % (
                sum(row.total for row in self.rows),
                len(self.disagreements),
                self.wall_time,
            )
        )
        return lines


# Sweep items per worker task: one diagram is too little work to ship alone.
_SWEEP_CHUNK = 256


def _sweep_item(diagram: ChordDiagram) -> tuple[bool, Disagreement | None]:
    """The criterion verdict of one diagram, and the split if the oracle differs."""
    criterion = is_realizable(diagram)
    witness = oracle_realizable(diagram)
    if criterion.realizable == (witness is not None):
        return criterion.realizable, None
    return criterion.realizable, Disagreement(diagram.word, criterion, witness)


def cross_validate(cfg: SweepConfig) -> SweepReport:
    """Run both deciders over every canonical diagram with n <= max_chords."""
    start = time.perf_counter()
    rows = []
    for n in range(1, cfg.max_chords + 1):
        diagrams = enumerate_canonical(n, cfg.workers, cfg.require_non_isolated)
        total = realizable = 0
        disagreements = []
        for verdict, split in _kernels._map(
            _sweep_item, diagrams, cfg.workers, _SWEEP_CHUNK
        ):
            total += 1
            realizable += verdict
            if split is not None:
                disagreements.append(split)
        rows.append(
            SweepRow(
                n=n,
                total=total,
                realizable=realizable,
                non_realizable=total - realizable,
                disagreements=tuple(disagreements),
            )
        )
    return SweepReport(
        max_chords=cfg.max_chords,
        require_non_isolated=cfg.require_non_isolated,
        rows=tuple(rows),
        wall_time=time.perf_counter() - start,
    )


def write_counterexamples(report: SweepReport, path: str) -> tuple[str, str]:
    """Write disagreement words as a batch file plus a witness document.

    Returns the two paths written: the batch file at ``path`` (re-runnable
    with ``gaussreal check --batch``) and the full witnesses at
    ``path + ".json"``.
    """
    entries = report.disagreements
    lines = ["# diagrams where the even-condition route and the oracle split"]
    lines.extend(d.word.text() for d in entries)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    doc = codec.new_document("disagreements")
    doc["entries"] = [d.document() for d in entries]
    json_path = path + ".json"
    with open(json_path, "w", encoding="utf-8") as handle:
        handle.write(codec.document_to_json(doc))
    return path, json_path
