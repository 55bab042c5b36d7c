"""Command-line front end: check, smooth, oracle, witness, enumerate, cross-validate.

Every subcommand reads Gauss codes in the formats of ``gaussreal.codec``
and writes either a short text rendering (default) or a structured JSON
document (``--format structured``).  Exit status: 0 on success (for
``check``: a realizable verdict), 1 when ``check`` concludes
non-realizable, 2 on unusable input.  Under ``check --cross-check`` a word
too large for the oracle keeps ``cross_check: null`` and a warning on
stderr; its verdict still sets the exit status like any other.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import KERNEL_BACKEND, __version__, codec
from .contours import colorful_chords, exists_colorful_witness, transfer_witness
from .core import MalformedWord, UnknownChord, _chord_pass, _numerals, diagram_from_word
from .core import interlacement  # noqa: F401  -- wrapped by perfbench/spans.py
from .enumeration import (
    SweepConfig,
    _orderly_keys,
    cross_validate,
    write_counterexamples,
)
from .oracle import OracleBudgetExceeded, oracle_realizable
from .realizability import OracleCrossCheck, is_realizable
from .smoothing import smooth_by_word


def _parse_word(text: str):
    """The diagram of one word's text, whose tokens the builder checks."""
    return diagram_from_word(codec._tokens(text))


def _emit(args, document: dict, text_lines: list[str]) -> None:
    """Print the text lines, or write the document to stdout item by item.

    The document gets the bytes of ``json.dumps(document, sort_keys=True,
    indent=2)`` and a newline; a top-level value that is an iterator is
    drawn and written one item at a time (see ``codec.write_document``).
    """
    if args.format == "structured":
        codec.write_document(document, sys.stdout)
    else:
        for line in text_lines:
            print(line)


def _cross_check_of(diagram, report):
    witness = oracle_realizable(diagram)
    found = witness is not None
    return OracleCrossCheck(
        realizable=found,
        agrees=found == report.realizable,
        handedness=witness.rotation.handedness if found else None,
    )


def _cmd_check(args) -> int:
    if (args.word is None) == (args.batch is None):
        raise codec.ParseError("give exactly one of a word or --batch FILE")
    if args.batch is not None:
        with open(args.batch, "r", encoding="utf-8") as handle:
            entries = codec.parse_batch_diagrams(handle.read())
        diagrams = [diagram for _, diagram in entries]
    else:
        diagrams = [_parse_word(args.word)]
    # One stage at a time over the whole batch: the criterion decides every
    # word, then the oracle checks each report in word order, replacing it
    # in place, so its warnings come in word order.
    reports = [is_realizable(diagram) for diagram in diagrams]
    if args.cross_check:
        for i, diagram in enumerate(diagrams):
            try:
                check = _cross_check_of(diagram, reports[i])
            except OracleBudgetExceeded as exc:
                print(
                    "warning: oracle skipped on %r: %s"
                    % (diagram.word.text(), exc.args[0]),
                    file=sys.stderr,
                )
                continue
            reports[i] = replace(reports[i], cross_check=check)
            if not check.agrees:
                print(
                    "warning: oracle disagrees on %r" % diagram.word.text(),
                    file=sys.stderr,
                )
    # Each format builds only what it prints: documents or headlines.  Every
    # word is decided and cross-checked before a byte is written, and a
    # batch's reports are turned into documents one at a time as they are
    # written.
    doc: dict = {}
    lines: list[str] = []
    if args.format == "structured":
        if args.batch is not None:
            doc = codec.new_document("realizability-batch")
            doc["reports"] = (r.document() for r in reports)
        else:
            doc = codec.new_document("realizability")
            doc.update(reports[0].document())
    elif args.batch is not None:
        lines = ["%s: %s" % (r.word.text(), r.headline()) for r in reports]
    else:
        lines = [reports[0].headline()]
    _emit(args, doc, lines)
    return 0 if all(r.realizable for r in reports) else 1


def _cmd_smooth(args) -> int:
    diagram = _parse_word(args.word)
    result = smooth_by_word(diagram, args.chord)
    doc = codec.new_document("smoothing")
    doc.update(
        {
            "word": diagram.word.text(),
            "chord": result.chord,
            "smoothed": result.word.text(),
        }
    )
    _emit(args, doc, [result.word.text()])
    return 0


def _cmd_oracle(args) -> int:
    diagram = _parse_word(args.word)
    witness = oracle_realizable(diagram)
    doc = codec.new_document("oracle")
    doc["word"] = diagram.word.text()
    doc["realizable"] = witness is not None
    doc["witness"] = None if witness is None else witness.document()
    if witness is None:
        lines = [
            "non-realizable: no rotation system among 2^%d embeds in the plane"
            % diagram.n
        ]
    else:
        lines = [
            "realizable: handedness %s yields %d faces (V - E + F = 2)"
            % (
                "".join(str(b) for b in witness.rotation.handedness) or "-",
                witness.face_count,
            )
        ]
    _emit(args, doc, lines)
    return 0


def _cmd_witness(args) -> int:
    diagram = _parse_word(args.word)
    witness = exists_colorful_witness(diagram)
    doc = codec.new_document("colorful-witness")
    doc["word"] = diagram.word.text()
    if witness is None:
        doc["found"] = False
        doc["witness"] = None
        doc["transfer"] = None
        _emit(args, doc, ["no colorful witness"])
        return 0
    result, contour, coloring = transfer_witness(diagram, witness)
    transferred = colorful_chords(result.diagram, contour, coloring)
    doc["found"] = True
    doc["witness"] = witness.document()
    doc["transfer"] = {
        "smoothed_chord": witness.contour.b_label,
        "smoothed_word": result.word.text(),
        "contour": contour.document(),
        "coloring": coloring.document(),
        "colorful": sorted(transferred),
        "holds": witness.chord in transferred,
    }
    x = witness.contour
    lines = [
        "colorful chord %s for X(%s, %s) selector %d (doors: %s)"
        % (
            witness.chord,
            x.a_label,
            x.b_label,
            x.selector,
            ", ".join(x.document()["doors"]),
        ),
        "after smoothing %s: chord %s %s colorful for C(%s) selector %d in %s"
        % (
            x.b_label,
            witness.chord,
            "is" if witness.chord in transferred else "IS NOT",
            x.a_label,
            contour.selector,
            result.word.text(),
        ),
    ]
    _emit(args, doc, lines)
    return 0


def _cmd_enumerate(args) -> int:
    if args.max_chords < 0:
        raise ValueError("max_chords must be at least 0")
    # Each word is printed straight from its canonical key, labelled "1".."n"
    # like CanonicalForm.word; only a kink filter reads the crossing rows.
    least_gap = 2 if args.require_non_isolated else 1
    rows = []
    for n in range(1, args.max_chords + 1):
        keys = _orderly_keys(n, least_gap)
        if args.require_non_isolated:
            keys = (key for key in keys if all(_chord_pass(key)[1]))
        labels = _numerals(n)
        rows.append((n, [" ".join([labels[c] for c in key]) for key in keys]))
    doc = codec.new_document("enumeration")
    doc["max_chords"] = args.max_chords
    doc["require_non_isolated"] = args.require_non_isolated
    doc["rows"] = [{"n": n, "count": len(words), "words": words} for n, words in rows]
    lines = []
    for n, words in rows:
        lines.append("# n=%d: %d diagrams" % (n, len(words)))
        lines.extend(words)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            if args.format == "structured":
                codec.write_document(doc, handle)
            else:
                handle.write("\n".join(lines) + "\n")
        print("wrote %s" % args.output)
    else:
        _emit(args, doc, lines)
    return 0


def _cmd_cross_validate(args) -> int:
    cfg = SweepConfig(
        max_chords=args.max_chords,
        require_non_isolated=args.require_non_isolated,
        workers=args.workers,
    )
    report = cross_validate(cfg)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            codec.write_document(report.document(), handle)
    if args.counterexamples:
        batch_path, json_path = write_counterexamples(report, args.counterexamples)
        print("wrote %s and %s" % (batch_path, json_path), file=sys.stderr)
    _emit(args, report.document(), report.summary_lines())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussreal",
        description="Decide plane-curve realizability of Gauss diagrams.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version="%%(prog)s %s (kernels: %s)" % (__version__, KERNEL_BACKEND),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--format",
            choices=("text", "structured"),
            default="text",
            help="output rendering (default: text)",
        )

    p = sub.add_parser("check", help="decide realizability via the even condition")
    p.add_argument("word", nargs="?", help="Gauss code, e.g. '1 2 1 2'")
    p.add_argument("--batch", metavar="FILE", help="file with one Gauss code per line")
    p.add_argument(
        "--cross-check",
        action="store_true",
        help="also run the rotation-system oracle and report agreement",
    )
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("smooth", help="apply the smoothing word rule to one chord")
    p.add_argument("word")
    p.add_argument("chord", help="label of the chord to smooth")
    common(p)
    p.set_defaults(func=_cmd_smooth)

    p = sub.add_parser("oracle", help="brute-force rotation-system realizability")
    p.add_argument("word")
    common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("witness", help="search X-contours for a colorful chord")
    p.add_argument("word")
    common(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("enumerate", help="list canonical diagrams up to a size")
    p.add_argument("--max-chords", type=int, required=True)
    p.add_argument("--require-non-isolated", action="store_true")
    p.add_argument("--output", metavar="FILE", help="write here instead of stdout")
    common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "cross-validate",
        help="compare the even-condition route against the oracle exhaustively",
    )
    p.add_argument("--max-chords", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--require-non-isolated", action="store_true")
    p.add_argument("--output", metavar="FILE", help="also write the structured report")
    p.add_argument(
        "--counterexamples",
        metavar="FILE",
        help="write disagreements as a batch file (+ .json witnesses)",
    )
    common(p)
    p.set_defaults(func=_cmd_cross_validate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        codec.ParseError,
        MalformedWord,
        UnknownChord,
        OracleBudgetExceeded,
        ValueError,
        OSError,
    ) as exc:
        # str() of a KeyError such as UnknownChord quotes its text; the
        # first argument of other errors may be an errno or a codec name.
        message = exc.args[0] if isinstance(exc, KeyError) else str(exc)
        print("error: %s" % message, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
