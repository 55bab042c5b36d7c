"""Kernel selection: the compiled rotation search with a pure-Python fallback.

Set the environment variable GAUSSREAL_PURE (to anything non-empty) to force
the pure implementations even when the extension module is importable.  The
selected backend name is exported as BACKEND ("compiled" or "pure").
``_map`` is the package's one process pool: a streaming, ordered ``map``.
"""

from __future__ import annotations

import os

from . import _pure

if os.environ.get("GAUSSREAL_PURE"):
    _impl = _pure
    BACKEND = "pure"
else:
    try:
        from . import _speedups as _impl  # type: ignore[no-redef]

        BACKEND = "compiled"
    except ImportError:
        _impl = _pure
        BACKEND = "pure"

# Canonical keys are computed once per ``core.canonicalize`` call, on no hot
# path, so the pure implementation serves both backends.
canonical_key = _pure.canonical_key
find_planar_rotation = _impl.find_planar_rotation


def _map(fn, items, workers: int):
    """``map(fn, items)``, in ``workers`` processes if more than one.

    Results come in item order and stream: neither the items nor the
    results are collected into a list.  Closing the generator early
    terminates the pool.
    """
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            yield from pool.imap(fn, items)
    else:
        yield from map(fn, items)
