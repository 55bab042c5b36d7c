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
diagram up to a chord bound.  Its unit of work is a shard: one slice of
one level's key tree, given by n, the least gap G and, for G = 1 and
G = 2, which hold most keys, the head: the symbols at the first
``_SHARD_HEAD`` free positions.  A larger G, or a level too small for a
head, is one shard; n <= 7 makes 61 shards and n <= 9 makes 94.  Read
in order, the shards' keys are the level's key stream.  The shards,
n = 1 first, go through one ``_kernels._map``, and each generates its
own keys, continuing the fill from its head, where it runs: in a worker
process if asked.  So no process waits on another's key generation, and
only shards and counts cross between processes; the counts and
disagreements are added up in shard order, which keeps the document
byte-identical for any number of workers.

A shard generates ``_SWEEP_CHUNK`` keys at a time and runs each stage
over the whole batch before the next.  A key is its diagram's
``position_chord``, and ``core._chord_pass``, the one pass that every
diagram is built from, reads off each key the endpoints, which the oracle
searches, and the crossing rows, which the criterion decides on.  Then
kinked keys go if asked, the criterion decides every key, and the oracle
searches every key.  Last, in key order, a labelled ``ChordDiagram`` is
built only for the pure-Python retrace of a spherical mask and for a
disagreement.  Batching keys, and then running stage by stage rather
than key by key, each cut the pure-Python sweep's time (see
BENCH_shards.json and BENCH_stages.json).

Disagreements are not errors of the harness; they are its most important
output and are recorded with both witnesses and written out as
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
from .core import CanonicalForm, ChordDiagram, GaussWord, _chord_pass, interlacement
from .core import diagram_from_word  # noqa: F401  -- wrapped by perfbench/spans.py
from .oracle import EmbeddingWitness, planar_mask, spherical_witness
from .oracle import oracle_realizable  # noqa: F401  -- wrapped by perfbench/spans.py
from .realizability import RealizabilityReport, _decide, is_realizable


def _keys_with_gap(
    n: int, gap: int, head: tuple[int, ...] = (), cut: int = 0
) -> Iterator[tuple[int, ...]]:
    """Ascending canonical keys of n-chord diagrams whose least chord gap is ``gap``.

    Only keys whose free positions, from ``gap + 1`` on, begin with
    ``head`` come; ``head`` must be one that ``cut`` yields.  With a
    ``cut`` below 2n, the fill stops there and yields instead, in
    ascending order, each head that reaches it: the symbols at the free
    positions before ``cut``.  Some heads lead to no key.
    """
    m = 2 * n
    far = m - gap
    word = [0] * m
    start = [0] * n  # position of each label's first occurrence
    end = [0] * n  # and of its second
    for c in range(gap):
        word[c] = start[c] = c
    end[0] = gap
    open_ = list(range(1, gap))  # labels with one occurrence so far, ascending
    fresh = gap
    for p, c in enumerate(head, gap + 1):
        word[p] = c
        if c == fresh:
            start[c] = p
            open_.append(c)
            fresh += 1
        else:
            end[c] = p
            open_.remove(c)
    base = gap + len(head)  # the last fixed position
    stop = cut or m

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

    # One loop over positions.  At position p the options are, in order:
    # close open_[k] for k = 0, 1, .. while that chord's gap reaches G, then
    # open the next label.  ``taken[p]`` is the option taken at p: the
    # index k in open_ of the chord closed there (``word[p]``), or -1 for
    # an opening.  Backtracking undoes one position and resumes there with
    # the next option.
    taken = [0] * m
    p = base + 1
    k = 0  # the next option to try at p
    while True:
        if p < stop:
            oldest = p - start[open_[0]] if open_ else 0
            if oldest <= far:
                if k < len(open_) and p - start[open_[k]] >= gap:
                    c = open_.pop(k)
                    word[p] = c
                    end[c] = p
                    taken[p] = k
                    p += 1
                    k = 0
                    continue
                if oldest < far and fresh < n:  # the oldest chord may stay open
                    word[p] = fresh
                    start[fresh] = p
                    open_.append(fresh)
                    fresh += 1
                    taken[p] = -1
                    p += 1
                    k = 0
                    continue
        elif cut:
            yield tuple(word[gap + 1 : cut])
        elif not beaten():
            yield tuple(word)
        while True:  # back to the last position with an option left
            p -= 1
            if p == base:
                return
            k = taken[p]
            if k >= 0:
                open_.insert(k, word[p])
                k += 1
                break
            open_.pop()
            fresh -= 1


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
    # How the run went, for the summary only; deliberately absent from
    # document(), so that documents stay byte-identical across runs.
    wall_time: float  # seconds
    workers: int = 1

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
            "total: %d diagrams, %d disagreements, %.1fs, %s backend, %d worker%s"
            % (
                sum(row.total for row in self.rows),
                len(self.disagreements),
                self.wall_time,
                _kernels.BACKEND,
                self.workers,
                "" if self.workers == 1 else "s",
            )
        )
        return lines


# Keys a shard generates before it decides them (see the module docstring).
_SWEEP_CHUNK = 256
# Free positions that the head of a gap-1 or gap-2 shard fixes.
_SHARD_HEAD = 3


def _shards(n: int, least_gap: int = 1) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """The shards of level n whose least gap is at least ``least_gap``.

    A shard is ``(n, gap, head)``: the keys of ``_keys_with_gap(n, gap,
    head)``.  Gaps 1 and 2 hold most keys, so each of their heads of
    ``_SHARD_HEAD`` free positions is a shard; a larger gap is one shard.
    In this order their keys are ``_orderly_keys(n, least_gap)``.
    """
    for gap in range(least_gap, n + 1):
        cut = gap + 1 + _SHARD_HEAD
        if gap > 2 or cut >= 2 * n:
            yield n, gap, ()
        else:
            for head in _keys_with_gap(n, gap, cut=cut):
                yield n, gap, head


def _sweep_shard(
    shard: tuple[int, int, tuple[int, ...]], require_non_isolated: bool = False
) -> tuple[int, int, int, list[Disagreement]]:
    """``(n, total, realizable, splits)`` over the keys of one shard.

    The shard generates its keys where it runs and decides them in
    batches of ``_SWEEP_CHUNK``, one stage at a time over the whole
    batch: every ``_chord_pass``, the kink filter under
    ``require_non_isolated``, every ``_decide``, every ``planar_mask``.
    Last, in key order, a labelled ``ChordDiagram`` is built only for a
    spherical mask, which ``spherical_witness`` retraces, and for a
    split, which carries ``is_realizable``'s labelled report.
    """
    n, gap, head = shard
    total = realizable = 0
    splits = []
    keys = _keys_with_gap(n, gap, head)
    while batch := list(itertools.islice(keys, _SWEEP_CHUNK)):
        passes = [_chord_pass(key) for key in batch]
        if require_non_isolated:
            kept = [i for i, (_, rows, _) in enumerate(passes) if all(rows)]
            batch = [batch[i] for i in kept]
            passes = [passes[i] for i in kept]
        verdicts = [
            _decide(key, endpoints, rows) is None
            for key, (endpoints, rows, _) in zip(batch, passes)
        ]
        masks = [
            planar_mask(list(itertools.chain.from_iterable(endpoints)), n)
            for endpoints, _, _ in passes
        ]
        total += len(batch)
        realizable += sum(verdicts)
        for key, verdict, mask in zip(batch, verdicts, masks):
            if mask < 0 and not verdict:
                continue
            diagram = CanonicalForm(key).diagram()  # labels for the retrace or split
            witness = None if mask < 0 else spherical_witness(diagram, mask)
            if verdict != (witness is not None):
                splits.append(
                    Disagreement(diagram.word, is_realizable(diagram), witness)
                )
    return n, total, realizable, splits


def cross_validate(cfg: SweepConfig) -> SweepReport:
    """Run both deciders over every canonical diagram with n <= max_chords.

    The shards, n = 1 first, go through one ``_kernels._map``, and their
    counts are added up in shard order.
    """
    start = time.perf_counter()
    least_gap = 2 if cfg.require_non_isolated else 1
    shards = itertools.chain.from_iterable(
        _shards(n, least_gap) for n in range(1, cfg.max_chords + 1)
    )
    task = functools.partial(
        _sweep_shard, require_non_isolated=cfg.require_non_isolated
    )
    total = [0] * (cfg.max_chords + 1)  # indexed by n
    realizable = [0] * (cfg.max_chords + 1)
    disagreements: list[list[Disagreement]] = [[] for _ in total]
    for n, count, verdicts, splits in _kernels._map(task, shards, cfg.workers):
        total[n] += count
        realizable[n] += verdicts
        disagreements[n].extend(splits)
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
        workers=cfg.workers,
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
    doc["entries"] = (d.document() for d in entries)
    json_path = path + ".json"
    with open(json_path, "w", encoding="utf-8") as handle:
        codec.write_document(doc, handle)
    return path, json_path
