from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussreal import GaussWord, MalformedWord, ParseError, parse_gauss_code
from gaussreal.codec import (
    SCHEMA_VERSION,
    document_to_json,
    emit_batch,
    emit_gauss_code,
    new_document,
    parse_batch,
    write_document,
)


def test_parse_whitespace_separated_tokens():
    w = parse_gauss_code(" 1 2  10 1\t2 10 ")
    assert w.symbols == ("1", "2", "10", "1", "2", "10")
    assert parse_gauss_code("1\t2\t1\t2").symbols == ("1", "2", "1", "2")
    assert parse_gauss_code("a\nb\na\nb\n").symbols == ("a", "b", "a", "b")


def test_parse_compact_single_character_form():
    assert parse_gauss_code("abab").symbols == ("a", "b", "a", "b")
    assert parse_gauss_code("1212").symbols == ("1", "2", "1", "2")
    # One token, however much whitespace is around it.
    assert parse_gauss_code(" \tabab\n").symbols == ("a", "b", "a", "b")
    assert parse_gauss_code("aa").symbols == ("a", "a")


@given(st.text(alphabet="ab1 \t\n\x0b\x1c\xa0\u2003", max_size=8))
def test_parse_reads_whitespace_as_str_isspace_does(text):
    stripped = text.strip()
    if any(ch.isspace() for ch in stripped):
        expected = stripped.split()
    else:
        expected = list(stripped)
    try:
        word = parse_gauss_code(text)
    except MalformedWord:
        with pytest.raises(MalformedWord):
            GaussWord.from_tokens(expected)
    else:
        assert list(word.symbols) == expected


def test_parse_empty_is_the_empty_word():
    assert parse_gauss_code("").n == 0
    assert parse_gauss_code("  \n").n == 0


def test_parse_rejects_non_alphanumeric_compact_input():
    with pytest.raises(ParseError):
        parse_gauss_code("a-a")


def test_emit_roundtrips_and_ends_with_newline():
    w = parse_gauss_code("1 2 1 2")
    out = emit_gauss_code(w)
    assert out == "1 2 1 2\n"
    assert parse_gauss_code(out) == w


def test_batch_skips_blanks_and_comments_and_numbers_lines():
    text = "# header\n\n1 1\n  # note\n1 2 1 2\n"
    entries = parse_batch(text)
    assert [(line, w.text()) for line, w in entries] == [(3, "1 1"), (5, "1 2 1 2")]
    again = emit_batch([w for _, w in entries])
    assert parse_batch(again) == [(1, entries[0][1]), (2, entries[1][1])]


def test_batch_errors_carry_the_line_number():
    with pytest.raises(MalformedWord) as info:
        parse_batch("1 1\n\n1 2 3\n")
    assert "line 3" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_batch("1 1\na-a\n")
    assert "line 2" in str(info.value)


def test_document_json_is_canonical():
    a = document_to_json({"b": 1, "a": [2, 3]})
    b = document_to_json({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [2, 3], "b": 1}
    assert "  " in a  # indented, human-diffable


def test_new_document_carries_schema_version():
    doc = new_document("oracle")
    assert doc == {"schema_version": SCHEMA_VERSION, "kind": "oracle"}


def test_parse_accepts_gauss_word_text_of_any_labels():
    w = GaussWord.from_tokens(["x1", "y", "x1", "y"])
    assert parse_gauss_code(w.text()) == w


# Short strings, plus quotes, backslashes, control and non-ASCII characters.
_text = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "é", "\U0001f600"]
)
_scalars = st.none() | st.booleans() | st.integers(-(2**200), 2**200) | _text
_documents = st.recursive(
    _scalars
    | st.lists(st.integers(-(2**70), 2**70) | st.booleans(), max_size=5)
    | st.lists(_text, max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_text, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(document=st.dictionaries(_text, _documents, max_size=4))
def test_document_json_equals_indented_sorted_json_dumps(document):
    expected = json.dumps(document, sort_keys=True, indent=2) + "\n"
    assert document_to_json(document) == expected
    # Streamed: every top-level list drawn from an iterator, empty ones too.
    streamed = {
        key: iter(value) if isinstance(value, list) else value
        for key, value in document.items()
    }
    out = io.StringIO()
    write_document(streamed, out)
    assert out.getvalue() == expected
    lists = [value for value in document.values() if isinstance(value, list)]
    for value in lists:
        out = io.StringIO()
        write_document(iter(value), out)
        assert out.getvalue() == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "document", [{"a": 1.5}, {"a": [1, 2.0]}, {1: "a"}, {"a": {2: 3}}, {"a": {1, 2}}]
)
def test_document_json_refuses_floats_non_str_keys_and_other_types(document):
    with pytest.raises(TypeError):
        document_to_json(document)
    with pytest.raises(TypeError):
        write_document(document, io.StringIO())
    # A streamed list checks its items as it writes them.
    with pytest.raises(TypeError):
        write_document({"a": iter([document])}, io.StringIO())
