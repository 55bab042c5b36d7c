"""In-memory spans around gaussreal's public functions, from outside the package.

A traced pass runs the same ``cli.main`` call as an untraced one, with
every module-level name that a layer calls through replaced by a timing
wrapper for the duration of the pass.  Python looks such names up in the
calling module's globals at call time, so a wrapper installed in, say,
``gaussreal.realizability`` sees each ``even_condition`` call that
``is_realizable`` makes, in the order the program makes them.  No file of
the package is touched, and ``uninstall`` puts every original back.

Each span records its name, its parent, and its start and end from
``time.perf_counter``.  A span's self time is its duration minus the time
covered by spans it encloses, so the self times of one pass partition the
part of its wall time that the wrappers cover.
"""

from __future__ import annotations

import collections
from array import array
from time import perf_counter

from gaussreal import (
    _kernels,
    cli,
    codec,
    enumeration,
    oracle,
    realizability,
    smoothing,
)
from gaussreal.enumeration import SweepReport
from gaussreal.realizability import (
    EvenConditionViolation,
    RealizabilityReport,
    SmoothingViolation,
)


class Tracer:
    """Spans and counters of one traced pass, held in memory until written."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("H")
        self.span_id = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_seconds: dict[str, float] = collections.defaultdict(float)
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[list] = []  # open spans: [id, seconds in children]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _open(self) -> list:
        entry = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(entry)
        return entry

    def _close(self, entry: list, name: str, nid: int, start: float, end: float):
        stack = self._stack
        stack.pop()
        duration = end - start
        self.self_seconds[name] += duration - entry[1]
        if stack:
            stack[-1][1] += duration
        self.span_name.append(nid)
        self.span_id.append(entry[0])
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_start.append(start)
        self.span_end.append(end)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` inside a span; ``observe(args, result)`` may count work."""
        nid = self._name(name)

        def traced(*args, **kwargs):
            entry = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(entry, name, nid, start, perf_counter())
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Generator ``fn`` with one span per item it produces."""
        nid = self._name(name)

        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                entry = self._open()
                start = perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(entry, name, nid, start, perf_counter())
                yield item

        return traced

    def count_calls(self, counter: str, fn):
        """``fn`` counting its calls, with no span (it runs too often)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def durations(self, name: str) -> list[float]:
        """Inclusive duration of every span with this name, in seconds."""
        nid = self._name_id.get(name)
        return [
            end - start
            for n, start, end in zip(self.span_name, self.span_start, self.span_end)
            if n == nid
        ]

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Put the wrappers in place of the names each layer calls through."""
        counts = self.counts

        def verdict(args, report):
            if isinstance(report.witness, EvenConditionViolation):
                counts["base_violations"] += 1
            elif isinstance(report.witness, SmoothingViolation):
                counts["smoothing_violations"] += 1

        def planar(args, witness):
            counts["oracle_calls"] += 1
            counts["planar_hits"] += witness is not None

        def masks(args, found):
            _, n, *bounds = args
            start = bounds[0] if bounds else 0
            stop = bounds[1] if len(bounds) > 1 and bounds[1] is not None else 1 << n
            counts["masks_scanned"] += (found + 1 if found >= 0 else stop) - start

        def orbits(args, keys):
            counts["orbits_kept"] += len(keys)

        def smoothing_checked(args, result):
            counts["smoothings_checked"] += 1

        def emitted(args, text):
            counts["bytes_emitted"] += len(text.encode("utf-8"))

        for module in (cli, enumeration, realizability, smoothing):
            self._patch(
                module,
                "diagram_from_word",
                self.wrap("core.diagram_from_word", module.diagram_from_word),
            )
        for module in (cli, enumeration, realizability):
            self._patch(
                module,
                "interlacement",
                self.wrap("core.interlacement", module.interlacement),
            )
        self._patch(
            codec, "parse_batch", self.wrap("codec.parse_batch", codec.parse_batch)
        )
        self._patch(
            codec,
            "document_to_json",
            self.wrap("codec.emit", codec.document_to_json, emitted),
        )
        for cls in (RealizabilityReport, SweepReport):
            self._patch(cls, "document", self.wrap("codec.emit", cls.document))
        for module in (cli, enumeration):
            self._patch(
                module,
                "is_realizable",
                self.wrap("realizability.is_realizable", module.is_realizable, verdict),
            )
            self._patch(
                module,
                "oracle_realizable",
                self.wrap("oracle.oracle_realizable", module.oracle_realizable, planar),
            )
        self._patch(
            realizability,
            "even_condition",
            self.wrap("realizability.even_condition", realizability.even_condition),
        )
        self._patch(
            realizability,
            "smooth_by_word",
            self.wrap(
                "smoothing.smooth_by_word",
                realizability.smooth_by_word,
                smoothing_checked,
            ),
        )
        self._patch(
            _kernels,
            "find_planar_rotation",
            self.wrap("oracle.kernel_search", _kernels.find_planar_rotation, masks),
        )
        self._patch(
            oracle,
            "witness_for_mask",
            self.wrap("oracle.witness_retrace", oracle.witness_for_mask),
        )
        self._patch(
            enumeration,
            "canonical_keys",
            self.wrap("enumeration.canonical_keys", enumeration.canonical_keys, orbits),
        )
        self._patch(
            enumeration,
            "enumerate_canonical",
            self.wrap_generator(
                "enumeration.key_to_diagram", enumeration.enumerate_canonical
            ),
        )
        self._patch(
            _kernels,
            "canonical_key",
            self.count_calls("matchings_visited", _kernels.canonical_key),
        )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path, origin: float) -> None:
        """Write every span as a tab-separated line, times relative to origin."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tname\tstart_s\tend_s\n")
            for nid, sid, parent, start, end in sorted(
                zip(
                    self.span_name,
                    self.span_id,
                    self.span_parent,
                    self.span_start,
                    self.span_end,
                ),
                key=lambda span: span[1],
            ):
                handle.write(
                    "%d\t%d\t%s\t%.9f\t%.9f\n"
                    % (sid, parent, self.names[nid], start - origin, end - origin)
                )
