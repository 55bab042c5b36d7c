from __future__ import annotations

import io
import json
import sys

import pytest

from gaussreal import KERNEL_BACKEND
from gaussreal.cli import main
from gaussreal.realizability import RealizabilityReport

EVEN_NONREAL_6 = "1 2 3 4 5 6 2 1 4 3 6 5"
EVEN_NONREAL_8 = "0 1 2 3 4 5 6 0 1 7 3 2 5 6 7 4"
TREFOIL = "1 2 3 1 2 3"
# Every chord crosses the other 63, an odd number: non-realizable, and one
# chord past the oracle.
STAR_64 = " ".join([str(c) for c in range(64)] * 2)
# Passes the even condition on itself and on every smoothing, yet no
# rotation system embeds it: the one split of the n = 9 sweep.
NON_PLANE_9 = "1 2 3 4 5 1 6 7 2 3 8 9 7 6 4 5 9 8"
STAR_64_SKIPPED = (
    "warning: oracle skipped on '%s': rotation search over 2**64"
    " assignments refused (limit n <= 63)\n" % STAR_64
)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "gaussreal 0.1.0" in out
    assert "(kernels: %s)" % KERNEL_BACKEND in out


def test_check_realizable_exits_zero(capsys):
    code, out, err = _run(capsys, "check", TREFOIL)
    assert (code, out, err) == (0, "realizable\n", "")


def test_check_non_realizable_headline(capsys):
    code, out, _ = _run(capsys, "check", EVEN_NONREAL_6)
    assert code == 1
    assert out == (
        "non-realizable: smoothing chord 1 breaks even condition on pair (3, 5)\n"
    )


def test_check_structured_document(capsys):
    code, out, _ = _run(capsys, "check", "1 2 1 2", "--format", "structured")
    assert code == 1
    doc = json.loads(out)
    assert doc["kind"] == "realizability"
    assert doc["verdict"] == "non-realizable"
    assert doc["witness"]["kind"] == "even-condition"
    assert doc["word"] == "1 2 1 2"


def test_check_rejects_word_and_batch_together(tmp_path, capsys):
    batch = tmp_path / "words.txt"
    batch.write_text("1 1\n")
    code, _, err = _run(capsys, "check", "1 1", "--batch", str(batch))
    assert code == 2
    assert err.startswith("error:")


def test_check_requires_some_input(capsys):
    code, _, err = _run(capsys, "check")
    assert code == 2
    assert "exactly one" in err


def test_batch_mixed_verdicts(tmp_path, capsys):
    batch = tmp_path / "words.txt"
    batch.write_text("# comment\n%s\n\n1 2 1 2\n" % TREFOIL)
    code, out, _ = _run(capsys, "check", "--batch", str(batch))
    assert code == 1
    assert out.splitlines() == [
        "1 2 3 1 2 3: realizable",
        "1 2 1 2: non-realizable: even condition fails on chord 1",
    ]


def test_batch_all_realizable_exits_zero(tmp_path, capsys):
    batch = tmp_path / "words.txt"
    batch.write_text("1 1\n%s\n" % TREFOIL)
    code, _, _ = _run(capsys, "check", "--batch", str(batch))
    assert code == 0


def test_check_batch_names_a_missing_file(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    code, out, err = _run(capsys, "check", "--batch", str(missing))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(missing) in err


def test_check_batch_names_a_decoding_error(tmp_path, capsys):
    batch = tmp_path / "words.txt"
    batch.write_bytes(b"1 2 1 2\n\xff\n")
    code, out, err = _run(capsys, "check", "--batch", str(batch))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "can't decode" in err


@pytest.mark.parametrize(
    "body, message",
    [
        (
            "# header\n\n1 1\n  # note\n1 2 3 1 2\n1 2 1 2\n",
            "error: line 5: every label must occur exactly twice;"
            " offending labels: 3\n",
        ),
        (
            "1 2 1 2\n\n# three sevens\n7 7 7 8 8 7\n",
            "error: line 4: every label must occur exactly twice;"
            " offending labels: 7\n",
        ),
        (
            "# compact words\nabab\n\na-a\n",
            "error: line 4: compact Gauss code may only contain"
            " alphanumeric characters: 'a-a'\n",
        ),
    ],
)
@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("cross", [(), ("--cross-check",)])
def test_batch_error_names_its_line_and_exits_two(
    tmp_path, capsys, body, message, fmt, cross
):
    batch = tmp_path / "words.txt"
    batch.write_text(body)
    code, out, err = _run(
        capsys, "check", "--batch", str(batch), "--format", fmt, *cross
    )
    assert (code, out, err) == (2, "", message)


def test_batch_structured_document(tmp_path, capsys):
    batch = tmp_path / "words.txt"
    batch.write_text("1 1\n1 2 1 2\n")
    code, out, _ = _run(
        capsys, "check", "--batch", str(batch), "--format", "structured"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["kind"] == "realizability-batch"
    assert [r["verdict"] for r in doc["reports"]] == ["realizable", "non-realizable"]


def test_batch_report_is_written_before_the_next_is_built(tmp_path, monkeypatch):
    # Each report's document is built only once the previous one is
    # written, so a batch never holds all its documents or their text.
    words = ["1 2 1 2", TREFOIL, EVEN_NONREAL_6, "1 1"]
    batch = tmp_path / "words.txt"
    batch.write_text("\n".join(words) + "\n")
    out = io.StringIO()
    written = []
    document = RealizabilityReport.document

    def recording(self):
        written.append(len(out.getvalue()))
        return document(self)

    monkeypatch.setattr(RealizabilityReport, "document", recording)
    monkeypatch.setattr(sys, "stdout", out)
    code = main(["check", "--batch", str(batch), "--format", "structured"])
    text = out.getvalue()
    assert code == 1
    assert [r["word"] for r in json.loads(text)["reports"]] == words
    # Report i ends at the i-th closing brace at the list's indent.
    close = "\n    }"
    ends = [i + len(close) for i in range(len(text)) if text.startswith(close, i)]
    assert len(ends) == len(written) == len(words)
    for i in range(1, len(words)):
        assert written[i] >= ends[i - 1], (i, written, ends)


def test_cross_check_attaches_oracle_verdict(capsys):
    code, out, _ = _run(
        capsys, "check", "1 2 1 2", "--cross-check", "--format", "structured"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["cross_check"] == {
        "agrees": True,
        "handedness": None,
        "realizable": False,
    }


def test_cross_check_on_a_realizable_word(capsys):
    code, out, _ = _run(
        capsys, "check", TREFOIL, "--cross-check", "--format", "structured"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["cross_check"]["agrees"] is True
    assert doc["cross_check"]["realizable"] is True
    assert isinstance(doc["cross_check"]["handedness"], list)


def test_cross_check_skips_the_oracle_per_word_past_its_limit(tmp_path, capsys):
    batch = tmp_path / "words.txt"
    batch.write_text("%s\n%s\n1 2 1 2\n" % (TREFOIL, STAR_64))
    code, out, err = _run(
        capsys,
        "check",
        "--batch",
        str(batch),
        "--cross-check",
        "--format",
        "structured",
    )
    assert code == 1
    reports = json.loads(out)["reports"]
    assert [r["word"] for r in reports] == [TREFOIL, STAR_64, "1 2 1 2"]
    assert [r["verdict"] for r in reports] == [
        "realizable",
        "non-realizable",
        "non-realizable",
    ]
    assert [r["cross_check"] is None for r in reports] == [False, True, False]
    assert err == STAR_64_SKIPPED


def test_cross_check_warnings_come_in_word_order(tmp_path, capsys):
    # The criterion decides the whole batch before the oracle runs; the
    # oracle's warnings still follow the words.
    words = [NON_PLANE_9, STAR_64, TREFOIL, NON_PLANE_9]
    batch = tmp_path / "words.txt"
    batch.write_text("".join(word + "\n" for word in words))
    code, out, err = _run(
        capsys,
        "check",
        "--batch",
        str(batch),
        "--cross-check",
        "--format",
        "structured",
    )
    assert code == 1
    disagrees = "warning: oracle disagrees on '%s'\n" % NON_PLANE_9
    assert err == disagrees + STAR_64_SKIPPED + disagrees
    reports = json.loads(out)["reports"]
    assert [r["word"] for r in reports] == words
    assert [r["cross_check"] is None for r in reports] == [False, True, False, False]
    assert [r["cross_check"] and r["cross_check"]["agrees"] for r in reports] == [
        False,
        None,
        True,
        False,
    ]


def test_oracle_past_its_limit_exits_two(capsys):
    code, out, err = _run(capsys, "oracle", STAR_64)
    assert (code, out) == (2, "")
    assert err.startswith("error: rotation search over 2**64")


def test_malformed_word_exits_two(capsys):
    # A label seen once, a label seen three times, a compact word that is
    # not alphanumeric: each single-word command names it the same way.
    malformed = [
        ("1 2 1", "every label must occur exactly twice; offending labels: 2"),
        ("a b a b a", "every label must occur exactly twice; offending labels: a"),
        ("ab-ab", "compact Gauss code may only contain alphanumeric characters: 'ab-ab'"),
    ]
    for command in ("check", "smooth", "oracle", "witness"):
        for word, message in malformed:
            argv = [command, word] + (["1"] if command == "smooth" else [])
            assert _run(capsys, *argv) == (2, "", "error: %s\n" % message), argv


def test_smooth_prints_the_smoothed_word(capsys):
    code, out, _ = _run(capsys, "smooth", TREFOIL, "1")
    assert (code, out) == (0, "3 2 2 3\n")


def test_smooth_unknown_chord_exits_two(capsys):
    code, _, err = _run(capsys, "smooth", "1 2 1 2", "9")
    assert code == 2
    assert "no chord labelled '9'" in err


def test_oracle_text_verdicts(capsys):
    code, out, _ = _run(capsys, "oracle", TREFOIL)
    assert code == 0
    assert out == "realizable: handedness 010 yields 5 faces (V - E + F = 2)\n"
    code, out, _ = _run(capsys, "oracle", "1 2 1 2")
    assert code == 0  # the oracle reports; only `check` maps verdict to exit code
    assert out == "non-realizable: no rotation system among 2^2 embeds in the plane\n"


def test_oracle_structured_document(capsys):
    code, out, _ = _run(capsys, "oracle", TREFOIL, "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "oracle"
    assert doc["realizable"] is True
    assert doc["witness"]["euler"] == 2
    assert doc["witness"]["handedness"] == [0, 1, 0]


def test_witness_text_lines(capsys):
    code, out, _ = _run(capsys, "witness", EVEN_NONREAL_8)
    assert code == 0
    assert out.splitlines() == [
        "colorful chord 5 for X(0, 2) selector 0 (doors: 3, 7)",
        "after smoothing 2: chord 5 is colorful for C(0) selector 0"
        " in 0 1 3 7 1 0 6 5 4 3 5 6 7 4",
    ]


def test_witness_absent_on_realizable_words(capsys):
    code, out, _ = _run(capsys, "witness", "1 2 1 2")
    assert (code, out) == (0, "no colorful witness\n")
    code, out, _ = _run(capsys, "witness", "1 2 1 2", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is False


def test_witness_structured_document(capsys):
    code, out, _ = _run(capsys, "witness", EVEN_NONREAL_8, "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["witness"]["chord"] == "5"
    assert doc["transfer"]["smoothed_chord"] == "2"
    assert doc["transfer"]["smoothed_word"] == "0 1 3 7 1 0 6 5 4 3 5 6 7 4"
    assert doc["transfer"]["colorful"] == ["5", "6"]
    assert doc["transfer"]["holds"] is True


def test_enumerate_stdout(capsys):
    code, out, _ = _run(capsys, "enumerate", "--max-chords", "2")
    assert code == 0
    assert out.splitlines() == [
        "# n=1: 1 diagrams",
        "1 1",
        "# n=2: 2 diagrams",
        "1 1 2 2",
        "1 2 1 2",
    ]


def test_enumerate_writes_output_file(tmp_path, capsys):
    target = tmp_path / "words.txt"
    code, out, _ = _run(capsys, "enumerate", "--max-chords", "2", "--output", str(target))
    assert code == 0
    assert out == "wrote %s\n" % target
    assert target.read_text().splitlines()[-1] == "1 2 1 2"


def test_enumerate_require_non_isolated_drops_kinked_diagrams(capsys):
    code, out, _ = _run(capsys, "enumerate", "--max-chords", "3", "--require-non-isolated")
    assert code == 0
    assert out.splitlines() == [
        "# n=1: 0 diagrams",
        "# n=2: 1 diagrams",
        "1 2 1 2",
        "# n=3: 2 diagrams",
        "1 2 1 3 2 3",
        "1 2 3 1 2 3",
    ]


def test_enumerate_refuses_a_negative_bound(capsys):
    code, out, err = _run(capsys, "enumerate", "--max-chords", "-1")
    assert (code, out) == (2, "")
    assert err == "error: max_chords must be at least 0\n"


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_cross_validate_refuses_fewer_than_one_worker(capsys, workers):
    code, out, err = _run(
        capsys, "cross-validate", "--max-chords", "2", "--workers", workers
    )
    assert (code, out) == (2, "")
    assert err == "error: workers must be at least 1\n"


def test_cross_validate_text_summary(capsys):
    code, out, _ = _run(capsys, "cross-validate", "--max-chords", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=1: 1 diagrams, 1 realizable, 0 non-realizable, 0 disagreements"
    assert lines[-1].startswith("total: 3 diagrams, 0 disagreements")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cross_validate_summary_names_the_backend_and_workers(capsys, workers):
    code, out, _ = _run(capsys, "cross-validate", "--max-chords", "2", "--workers", workers)
    assert code == 0
    plural = "" if workers == "1" else "s"
    assert out.splitlines()[-1].endswith(
        ", %s backend, %s worker%s" % (KERNEL_BACKEND, workers, plural)
    )
    # The structured document stays free of how the run went.
    _, structured, _ = _run(
        capsys, "cross-validate", "--max-chords", "2", "--workers", workers,
        "--format", "structured",
    )
    assert KERNEL_BACKEND not in structured and "worker" not in structured


def test_cross_validate_output_holds_the_structured_report(tmp_path, capsys):
    target = tmp_path / "sweep.json"
    code, out, _ = _run(capsys, "cross-validate", "--max-chords", "3", "--output", str(target))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[2] == "n=3: 5 diagrams, 3 realizable, 2 non-realizable, 0 disagreements"
    assert lines[-1].startswith("total: 8 diagrams, 0 disagreements")
    _, structured, _ = _run(capsys, "cross-validate", "--max-chords", "3", "--format", "structured")
    assert target.read_text() == structured
    assert json.loads(structured)["kind"] == "cross-validation"


def test_cross_validate_counterexample_files(tmp_path, capsys):
    target = tmp_path / "cx.txt"
    code, _, err = _run(
        capsys, "cross-validate", "--max-chords", "2", "--counterexamples", str(target)
    )
    assert code == 0
    assert "wrote" in err
    assert target.read_text().startswith("#")
    assert json.loads((tmp_path / "cx.txt.json").read_text())["entries"] == []


def test_cross_validate_structured_is_deterministic(capsys):
    _, first, _ = _run(capsys, "cross-validate", "--max-chords", "3", "--format", "structured")
    _, second, _ = _run(capsys, "cross-validate", "--max-chords", "3", "--format", "structured")
    assert first == second
    assert json.loads(first)["total_diagrams"] == 8


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
