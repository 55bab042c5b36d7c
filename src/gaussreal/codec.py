"""Reading and writing Gauss codes and report documents.

Wire formats:

- *Gauss code text*: whitespace-separated tokens ("1 2 1 2").  When the
  input contains no whitespace at all it is read as the compact form, one
  alphanumeric character per token ("abab").  Emission always uses the
  spaced form, single spaces, newline-terminated.

- *Batch files*: one Gauss code per line; blank lines and lines starting
  with '#' are ignored.  ``parse_batch_diagrams`` hands each line's tokens
  to ``core.diagram_from_word``, which numbers the chords, computes the
  crossing rows and checks the tokens, so a batch word is validated
  once; ``parse_batch`` gives the same lines as words.

- *Structured reports*: JSON documents with a top-level "schema_version"
  and "kind".  Serialisation is deterministic so equal inputs produce
  byte-identical output: keys sorted, two-space indent, one item per line
  ending in ",", ": " after each key, "[]" and "{}" for empty containers,
  ASCII-only strings and a trailing newline.  These are exactly the bytes
  of ``json.dumps(document, sort_keys=True, indent=2) + "\n"``, written
  by a small writer of our own, since ``indent`` sends ``json`` to its
  pure-Python encoder.  ``write_document`` writes a document to a text
  stream item by item: a top-level value may be an iterator, which it
  draws one item at a time and writes as a list, so a batch of reports
  is never held as one tree or one text.  ``document_to_json`` returns
  the same bytes as a string.  Volatile data such as wall-clock time
  never enters the structured form.
"""

from __future__ import annotations

import io
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _quote

from .core import ChordDiagram, GaussWord, MalformedWord, diagram_from_word

SCHEMA_VERSION = 1


class ParseError(ValueError):
    """Input text that cannot be tokenised as a Gauss code."""


def _tokens(text: str) -> tuple[str, ...]:
    """The tokens of spaced or compact Gauss code text, not yet validated."""
    tokens = text.split()
    if len(tokens) == 1:
        # No whitespace inside: the compact form, one character per token.
        (compact,) = tokens
        if not compact.isalnum():
            raise ParseError(
                "compact Gauss code may only contain alphanumeric characters: %r"
                % text
            )
        return tuple(compact)
    return tuple(tokens)


def parse_gauss_code(text: str) -> GaussWord:
    """Parse spaced or compact Gauss code text into a validated word."""
    return GaussWord(_tokens(text))


def emit_gauss_code(word: GaussWord) -> str:
    """Canonical text form: tokens joined by single spaces, newline-terminated."""
    return word.text() + "\n"


def parse_batch_diagrams(text: str) -> list[tuple[int, ChordDiagram]]:
    """Parse a batch file body into (line_number, diagram) pairs.

    Line numbers are 1-based and refer to the original text, so error
    messages and counterexample files can point back at their source.
    Each line's tokens go to ``diagram_from_word`` as they are: its pass
    raises the MalformedWord that GaussWord would, so no GaussWord
    validates them first.
    """
    out: list[tuple[int, ChordDiagram]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        try:
            out.append((lineno, diagram_from_word(_tokens(body))))
        except (ParseError, MalformedWord) as exc:
            raise type(exc)("line %d: %s" % (lineno, exc)) from None
    return out


def parse_batch(text: str) -> list[tuple[int, GaussWord]]:
    """Parse a batch file body into (line_number, word) pairs.

    The lines and errors of ``parse_batch_diagrams``, with each diagram's
    word.
    """
    return [(lineno, diagram.word) for lineno, diagram in parse_batch_diagrams(text)]


def emit_batch(words) -> str:
    return "".join(emit_gauss_code(w) for w in words)


def write_document(document, out) -> None:
    """Write ``document`` to the text stream ``out`` as deterministic JSON.

    Writes the bytes of ``json.dumps(document, sort_keys=True, indent=2)``
    plus a newline, item by item.  The document, or a value of its
    top-level dict, may be an iterator: it is written as a list, drawing
    one item at a time and writing each as soon as it is serialised, so
    only one item's value and text exist at a time ("[]" when empty).
    Takes str, int, bool, None, list, tuple and dict with str keys, and
    raises TypeError on anything else; documents hold no floats.
    """
    write = out.write
    if isinstance(document, dict) and document:
        opening = "{\n  "
        for key in sorted(document):
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s" % type(key).__name__)
            write(opening + _quote(key) + ": ")
            opening = ",\n  "
            _write_value(document[key], "\n  ", write)
        write("\n}\n")
    else:
        _write_value(document, "\n", write)
        write("\n")


def _write_value(value, indent: str, write) -> None:
    """Write ``value``; an iterator is drawn and written item by item."""
    if not isinstance(value, Iterator):
        write(_json(value, indent))
        return
    inner = indent + "  "
    opening = "[" + inner
    for item in value:
        write(opening + _json(item, inner))
        opening = "," + inner
    write("[]" if opening[0] == "[" else indent + "]")


def document_to_json(document: dict) -> str:
    """``write_document``'s bytes as one string."""
    out = io.StringIO()
    write_document(document, out)
    return out.getvalue()


def _json(value, indent: str) -> str:
    """``value`` as indented JSON; ``indent`` is a newline and its indent."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s" % type(key).__name__)
            items.append(_quote(key) + ": " + _json(value[key], inner))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {str}:
            items = map(_quote, value)
        elif kinds == {int}:  # bools are not ints here: type(True) is bool
            items = map(int.__repr__, value)
        else:
            items = [_json(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(
        "Object of type %s is not JSON serializable" % type(value).__name__
    )


def new_document(kind: str) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": kind}
