"""Time the hot kernels: compiled extension vs pure-Python fallback.

Both backends are loaded directly (ignoring the GAUSSREAL_PURE switch) and
run on identical inputs:

* ``canonical_key`` over every double-occurrence word of a given size,
  which is the inner loop of diagram enumeration, and
* ``find_planar_rotation`` over the hardest canonical diagrams, which is
  the inner loop of the embedding oracle.

Usage::

    python3 benchmarks/bench_kernels.py [--max-chords 6] [--repeat 3]
"""

from __future__ import annotations

import argparse
import time
from typing import Callable

from gaussreal import _pure, diagram_from_word, enumerate_canonical
from gaussreal.enumeration import _fill
from gaussreal.oracle import _endpoints_flat

try:
    from gaussreal import _speedups
except ImportError:  # pragma: no cover - build without the extension
    _speedups = None


def _time(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def bench_canonical(backend, words) -> Callable[[], None]:
    def run() -> None:
        for word in words:
            backend.canonical_key(word)

    return run


def bench_oracle(backend, flats) -> Callable[[], None]:
    def run() -> None:
        for flat, n in flats:
            backend.find_planar_rotation(flat, n)

    return run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-chords", type=int, default=6)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    n = args.max_chords

    words = [tuple(word) for word in _fill([-1] * (2 * n), 0)]
    diagrams = list(enumerate_canonical(n))
    flats = [(_endpoints_flat(d), d.n) for d in diagrams]

    backends = [("pure", _pure)]
    if _speedups is not None:
        backends.append(("compiled", _speedups))
    else:
        print("extension not built; timing the pure backend only")

    print("canonical_key on all %d words with %d chords:" % (len(words), n))
    times = {}
    for name, backend in backends:
        times[name] = _time(bench_canonical(backend, words), args.repeat)
        print("  %-8s %8.3fs" % (name, times[name]))
    if len(times) == 2:
        print("  speedup  %8.1fx" % (times["pure"] / times["compiled"]))

    print(
        "find_planar_rotation on all %d canonical diagrams with %d chords:"
        % (len(diagrams), n)
    )
    times = {}
    for name, backend in backends:
        times[name] = _time(bench_oracle(backend, flats), args.repeat)
        print("  %-8s %8.3fs" % (name, times[name]))
    if len(times) == 2:
        print("  speedup  %8.1fx" % (times["pure"] / times["compiled"]))

    # Smoke-check that both backends agree on one verdict each.
    sample = diagram_from_word("1 2 3 1 2 3")
    flat = _endpoints_flat(sample)
    results = {name: b.find_planar_rotation(flat, 3) for name, b in backends}
    assert len(set(results.values())) == 1, results


if __name__ == "__main__":
    main()
