"""The traced benchmark's wrappers fit the package and come off cleanly.

``perfbench/spans.py`` replaces module-level names of the package by
timing wrappers for one pass and puts the originals back afterwards.  A
refactor that drops one of those names would break only the traced
benchmark; this test makes it break the suite instead.
"""

from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_install_then_uninstall_restores_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._saved)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
