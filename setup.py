"""Build script: compiles the optional kernel module gaussreal._speedups.

The package is pure Python except for gaussreal._speedups, the oracle's
rotation-system search, written by hand in ``src/gaussreal/_speedups.c``
against the CPython C API.  If the compile fails, ``optional=True`` skips
the extension with a warning; gaussreal._kernels then selects the pure
implementations at import time, so nothing else needs to care.

Build in place with ``python setup.py build_ext --inplace``.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("gaussreal._speedups", ["src/gaussreal/_speedups.c"], optional=True)
    ]
)
