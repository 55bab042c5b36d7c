"""Kernel selection: compiled Cython speedups with a pure-Python fallback.

Set the environment variable GAUSSREAL_PURE (to anything non-empty) to force
the pure implementations even when the extension module is importable.  The
selected backend name is exported as BACKEND ("compiled" or "pure").
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

canonical_key = _impl.canonical_key
find_planar_rotation = _impl.find_planar_rotation
