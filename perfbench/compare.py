"""Compare two result files written by perfbench/run.py.

Usage::

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both results and the change from BASE to NEW.
Refuses, with exit code 2, to compare results that differ in kernel
backend, workload or trace mode: their numbers measure different things.
"""

from __future__ import annotations

import json
import sys

MUST_MATCH = ("backend", "workload", "trace")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    results = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            results.append(json.load(handle))
    base, new = results
    for key in MUST_MATCH:
        if base["meta"][key] != new["meta"][key]:
            print(
                "refusing to compare: %s is %r in %s but %r in %s"
                % (key, base["meta"][key], argv[0], new["meta"][key], argv[1]),
                file=sys.stderr,
            )
            return 2
    print("%-40s %14s %14s %9s" % ("metric", "base", "new", "change"))
    for name, metric in base["metrics"].items():
        before = metric["value"]
        after = new["metrics"][name]["value"]
        change = "%+8.1f%%" % (100 * (after - before) / before) if before else "-"
        print(
            "%-40s %14.6g %14.6g %9s %s"
            % (name, before, after, change, metric["unit"])
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
