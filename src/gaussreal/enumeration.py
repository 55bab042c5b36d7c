"""Exhaustive enumeration of small diagrams and the dual-route validation sweep.

``enumerate_canonical`` generates every Gauss diagram with a given number
of chords exactly once up to rotation, reflection and relabeling, as the
canonical key of its orbit (see ``gaussreal.core``), in ascending key
order.  It is an orderly generator: it builds only words whose chord gaps
obey the lemma below and tests each complete one, so it holds no key set
and, at n = 7, tests 16,060 words where canonicalising every perfect
matching would take 135,135.

It rests on one lemma.  Call the gap of a chord in a reading the distance
from its first occurrence to its second.  Let G be the position of the
second 0 in a canonical key w.  Then G is the least gap of any chord in
either direction, w[1..G-1] = 1..G-1, and every chord's gap lies in
[G, 2n - G].  (Let g be the least gap.  No chord repeats within g
consecutive positions, so the reading that starts at a chord of gap g
begins 0, 1, .., g-1, 0, and a reading whose first chord has a larger gap
begins 0, 1, .., g and loses at position g.)

So for G = 1..n in turn, which is ascending key order, the generator fixes
the prefix 0, 1, .., G-1, 0 and fills the remaining positions left to
right.  At each position it first closes an open chord, in ascending label
order, if that chord's gap lands in [G, 2n - G]; then it opens the next
label.  Words come out in lexicographic order.  A complete word is kept
unless some reading of it relabels to a smaller word.  Only readings whose
first chord has gap G need that test, because every other reading loses at
position G.  Such a reading starts at an end of a chord whose gap is G or
2n - G, so only those chords are looked at, and each reading is
relabelled only up to its first difference from the word.

``cross_validate`` then plays the two independent deciders against each
other — the even-condition criterion of ``gaussreal.realizability`` and
the rotation-system search of ``gaussreal.oracle`` — over every canonical
diagram up to a chord bound.  Canonical keys stream from the calling
process, n = 1 first, through one ``_kernels._map``.  Each key's diagram is
built where the key is decided, in a worker process if asked, so only
keys and verdicts cross between processes; only counts and disagreements
are kept.  Disagreements are not errors of the harness; they are its most
important output and are recorded with both witnesses and written out as
re-runnable batch lines.

Structured sweep documents never include timing, so two runs with the
same configuration are byte-identical; wall time is kept on the in-memory
report for the human-readable summary only.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import Iterator

from . import _kernels, codec
from .core import CanonicalForm, ChordDiagram, GaussWord, interlacement
from .core import diagram_from_word  # noqa: F401  -- wrapped by perfbench/spans.py
from .oracle import EmbeddingWitness, oracle_realizable
from .realizability import RealizabilityReport, _decide, is_realizable


def _keys_with_gap(n: int, gap: int) -> Iterator[tuple[int, ...]]:
    """Ascending canonical keys of n-chord diagrams whose least chord gap is ``gap``."""
    m = 2 * n
    far = m - gap
    word = [0] * m
    start = [0] * n  # position of each label's first occurrence
    end = [0] * n  # and of its second
    for c in range(gap):
        word[c] = start[c] = c
    end[0] = gap
    open_ = list(range(1, gap))  # labels with one occurrence so far, ascending

    def below(first: int, step: int) -> bool:
        """Whether reading from ``first`` by ``step`` relabels below the word."""
        relabel = [-1] * n
        fresh = 0
        i = first
        for expected in word:
            sym = word[i]
            label = relabel[sym]
            if label < 0:
                label = relabel[sym] = fresh
                fresh += 1
            if label != expected:
                return label < expected
            i = (i + step) % m
        return False

    def beaten() -> bool:
        """Whether a reading whose first chord has gap ``gap`` relabels below word.

        Only a chord of gap G or 2n - G starts such a reading, one from
        each end; the reading from 0 forwards is the word itself.
        """
        for c in range(n):
            p, q = start[c], end[c]
            if q - p == gap and ((p > 0 and below(p, 1)) or below(q, -1)):
                return True
            if q - p == far and (below(q, 1) or below(p, -1)):
                return True
        return False

    def fill(p: int, fresh: int):
        if p == m:
            if not beaten():
                yield tuple(word)
            return
        if open_:
            oldest = p - start[open_[0]]
            if oldest > far:
                return
            for k in range(len(open_)):
                c = open_[k]
                if p - start[c] < gap:
                    break
                word[p] = c
                end[c] = p
                del open_[k]
                yield from fill(p + 1, fresh)
                open_.insert(k, c)
            if oldest == far:  # the oldest chord had to close here
                return
        if fresh < n:
            word[p] = fresh
            start[fresh] = p
            open_.append(fresh)
            yield from fill(p + 1, fresh + 1)
            open_.pop()

    yield from fill(gap + 1, gap)


def _orderly_keys(n: int, least_gap: int = 1) -> Iterator[tuple[int, ...]]:
    """Canonical keys of n-chord diagrams whose least gap is at least ``least_gap``.

    Each comes once, in ascending order; the empty key stands for n = 0.
    """
    if n < 0:
        raise ValueError("chord count must be non-negative")
    if n == 0:
        return iter([()])
    return itertools.chain.from_iterable(
        _keys_with_gap(n, gap) for gap in range(least_gap, n + 1)
    )


def canonical_keys(n: int) -> list[tuple[int, ...]]:
    """Sorted canonical keys of all n-chord diagrams, one per symmetry orbit."""
    return list(_orderly_keys(n))


def enumerate_canonical(
    n: int, require_non_isolated: bool = False
) -> Iterator[ChordDiagram]:
    """One canonical representative per n-chord diagram, in sorted key order.

    Keys are generated and turned into diagrams lazily, one per ``next()``.
    With ``require_non_isolated``, diagrams containing a kink (a chord that
    crosses no other) are skipped.  Keys whose least gap is 1 begin 0 0, a
    kink, so those are never generated; a kink elsewhere is filtered out.
    """
    keys = _orderly_keys(n, 2 if require_non_isolated else 1)
    diagrams = (CanonicalForm(key=key).diagram() for key in keys)
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
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


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


# Sweep items per worker task: one key is too little work to ship alone.
_SWEEP_CHUNK = 256


def _sweep_item(
    key: tuple[int, ...], require_non_isolated: bool = False
) -> tuple[int, bool, Disagreement | None] | None:
    """Chord count and criterion verdict of one key's diagram, and any split.

    The diagram is built here, where the item runs, so only keys travel
    to worker processes.  With ``require_non_isolated`` a diagram with a
    kink gives None.  Only a split needs the criterion's labelled report,
    so only a split builds it.
    """
    diagram = CanonicalForm(key).diagram()
    rows = interlacement(diagram).rows
    if require_non_isolated and not all(rows):
        return None
    realizable = _decide(diagram, rows) is None
    witness = oracle_realizable(diagram)
    if realizable == (witness is not None):
        return diagram.n, realizable, None
    split = Disagreement(diagram.word, is_realizable(diagram), witness)
    return diagram.n, realizable, split


def cross_validate(cfg: SweepConfig) -> SweepReport:
    """Run both deciders over every canonical diagram with n <= max_chords.

    One stream of keys, n = 1 first, goes through one ``_kernels._map``.
    """
    start = time.perf_counter()
    least_gap = 2 if cfg.require_non_isolated else 1
    keys = itertools.chain.from_iterable(
        _orderly_keys(n, least_gap) for n in range(1, cfg.max_chords + 1)
    )
    item = functools.partial(
        _sweep_item, require_non_isolated=cfg.require_non_isolated
    )
    total = [0] * (cfg.max_chords + 1)  # indexed by n
    realizable = [0] * (cfg.max_chords + 1)
    disagreements: list[list[Disagreement]] = [[] for _ in total]
    for result in _kernels._map(item, keys, cfg.workers, _SWEEP_CHUNK):
        if result is None:
            continue
        n, verdict, split = result
        total[n] += 1
        realizable[n] += verdict
        if split is not None:
            disagreements[n].append(split)
    rows = tuple(
        SweepRow(
            n=n,
            total=total[n],
            realizable=realizable[n],
            non_realizable=total[n] - realizable[n],
            disagreements=tuple(disagreements[n]),
        )
        for n in range(1, cfg.max_chords + 1)
    )
    return SweepReport(
        max_chords=cfg.max_chords,
        require_non_isolated=cfg.require_non_isolated,
        rows=rows,
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
