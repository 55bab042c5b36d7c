"""Time the hot loops: the enumerator per level, and the rotation search.

* ``canonical_keys`` for every chord count up to the given size,
  ``CanonicalForm(key).diagram()`` over that level's keys, and the
  sweep's tasks, ``_sweep_shard`` over the level's shards, which
  generate their keys and decide them.  The enumerator and the key-to-diagram step are
  pure Python on both backends; the sweep searches with the selected
  backend.
* ``find_planar_rotation`` over every canonical diagram of that size,
  called as the embedding oracle calls it; this depth-first,
  genus-pruned search is the inner loop of the oracle.  Both
  backends are loaded directly (ignoring the GAUSSREAL_PURE switch), run
  on identical inputs, and must return the same result for every timed
  input.

Usage::

    python3 benchmarks/bench_kernels.py [--max-chords 6] [--repeat 3]
"""

from __future__ import annotations

import argparse
import time
from typing import Callable

from gaussreal import (
    KERNEL_BACKEND,
    CanonicalForm,
    _pure,
    canonical_keys,
    enumerate_canonical,
)
from gaussreal.enumeration import _shards, _sweep_shard
from gaussreal.oracle import _endpoints_flat

try:
    from gaussreal import _speedups
except ImportError:  # pragma: no cover - build without the extension
    _speedups = None


def _time(fn, repeat: int) -> tuple[float, list]:
    """Best wall time of ``repeat`` calls, and the results of the last."""
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        results = fn()
        best = min(best, time.perf_counter() - started)
    return best, results


def bench_oracle(backend, flats) -> Callable[[], list]:
    def run() -> list:
        return [backend.find_planar_rotation(flat, n) for flat, n in flats]

    return run


def _report(backends, bench, inputs, repeat: int) -> None:
    times, results = {}, {}
    for name, backend in backends:
        times[name], results[name] = _time(bench(backend, inputs), repeat)
        print("  %-8s %8.3fs" % (name, times[name]))
    if len(times) == 2:
        print("  speedup  %8.1fx" % (times["pure"] / times["compiled"]))
        if results["pure"] != results["compiled"]:
            raise SystemExit("the pure and compiled backends disagree")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-chords", type=int, default=6)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    n = args.max_chords
    if n < 1:
        parser.error("--max-chords must be at least 1")

    print(
        "canonical_keys, key -> diagram, then the shards"
        " (%s search), per level:" % KERNEL_BACKEND
    )
    for level in range(1, n + 1):
        seconds, keys = _time(lambda: canonical_keys(level), args.repeat)
        built, _ = _time(
            lambda: [CanonicalForm(key).diagram() for key in keys], args.repeat
        )
        shards = list(_shards(level))
        sharded, counts = _time(
            lambda: [_sweep_shard(shard) for shard in shards], args.repeat
        )
        if sum(count[1] for count in counts) != len(keys):
            raise SystemExit("the shards of n=%d miss keys" % level)
        print(
            "  n=%-6d %8.3fs %8.3fs %8.3fs  %d keys, %d shards"
            % (level, seconds, built, sharded, len(keys), len(shards))
        )

    diagrams = list(enumerate_canonical(n))
    flats = [(_endpoints_flat(d), d.n) for d in diagrams]

    backends = [("pure", _pure)]
    if _speedups is not None:
        backends.append(("compiled", _speedups))
    else:
        print("extension not built; timing the pure backend only")

    print(
        "find_planar_rotation on all %d canonical diagrams with %d chords:"
        % (len(diagrams), n)
    )
    _report(backends, bench_oracle, flats, args.repeat)


if __name__ == "__main__":
    main()
