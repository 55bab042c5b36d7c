"""Build script: compiles the optional kernel module gaussreal._speedups.

The package is pure Python except for gaussreal._speedups, which holds the
two hot loops (canonical-form minimisation and rotation-system search).

- With Cython installed, setuptools cythonizes ``_speedups.pyx``.
- Without Cython, setuptools compiles the tracked ``_speedups.c`` next to
  it instead, so the C must be regenerated (build with Cython installed)
  and committed whenever the ``.pyx`` changes; ``tests/test_kernels.py``
  checks that the two are in step.
- If the C compile fails, ``optional=True`` skips the extension with a
  warning; gaussreal._kernels then selects the pure implementations at
  import time, so nothing else needs to care.

Build in place with ``python setup.py build_ext --inplace``.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "gaussreal._speedups", ["src/gaussreal/_speedups.pyx"], optional=True
        )
    ]
)
