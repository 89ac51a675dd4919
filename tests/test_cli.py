"""Command line behavior: output shapes, exit codes, JSON round trips."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from flatknots import (
    MOVE_LAWS,
    MoveKind,
    SearchConfig,
    enumerate_realizable,
    equivalence_query,
    move_set,
    neighbors,
    search_class,
    twist_family,
)
from flatknots.checks import table_adjacency
from flatknots.cli import main
from flatknots.corpus import CorpusEntry
from flatknots.invariants import r1_normal_form
from flatknots.words import chord_count, connected_sum

TREFOIL_TEXT = "a b c a b c"
TREFOIL_WORD = tuple(TREFOIL_TEXT.split())
FIGURE8_TEXT = "a b c a d c b d"
NONREALIZABLE_TEXT = "a b c d a b c d"
FROZEN_TABLE_JSON = Path(__file__).resolve().parent.parent / "perfbench" / "frozen" / "table.json"
TRANSCRIPT = json.loads((Path(__file__).resolve().parent / "cli_transcript.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", TRANSCRIPT["cases"], ids=lambda case: " ".join(case["argv"]))
def test_cli_transcript(capsys, tmp_path, case):
    """One recorded invocation replays with the same exit code and stdout.

    ``{dir}`` stands for a directory holding the transcript's corpus
    files.  stderr is compared wherever the command line writes it; a
    null stderr marks an argparse usage error, whose text varies across
    Python versions.
    """
    for name, text in TRANSCRIPT["files"].items():
        (tmp_path / name).write_text(text)
    try:
        code = main([arg.replace("{dir}", str(tmp_path)) for arg in case["argv"]])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (case["code"], case["stdout"])
    if case["stderr"] is not None:
        assert err.replace(str(tmp_path), "{dir}") == case["stderr"]


def test_invariants_text(capsys):
    code, out, err = run(capsys, "invariants", TREFOIL_TEXT)
    assert code == 0
    assert "n=3" in out and "X=3" in out and "tr=2" in out and "H=0" in out
    assert err == ""


def test_invariants_json_payload(capsys):
    code, out, _ = run(capsys, "invariants", TREFOIL_TEXT, "--json")
    assert code == 0
    assert json.loads(out) == {
        "word": "a b c a b c",
        "n": 3,
        "X": 3,
        "X_mod3": 0,
        "tr": 2,
        "H": 0,
        "reduced": "a b c a b c",
        "trefoil_summands": 1,
        "realizable": True,
    }


def test_invariants_exit_codes(capsys):
    code, _, err = run(capsys, "invariants", "a b a")
    assert code == 2
    assert "malformed word" in err
    code, _, err = run(capsys, "invariants", NONREALIZABLE_TEXT)
    assert code == 3
    assert "not realizable" in err
    code, _, err = run(capsys, "invariants")
    assert code == 2


def test_invariants_word_and_corpus_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("first: a a\n")
    code, out, err = run(capsys, "invariants", NONREALIZABLE_TEXT, "--corpus", str(path))
    assert code == 2
    assert out == ""
    assert "give a word or --corpus, not both" in err


def test_invariants_empty_word_dash(capsys):
    code, out, _ = run(capsys, "invariants", "-", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 0 and payload["word"] == "-"


def test_invariants_over_corpus(capsys, tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("first: a a\nsecond: a b c a b c\n")
    code, out, _ = run(capsys, "invariants", "--corpus", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert [row["name"] for row in payload] == ["first", "second"]
    assert payload[1]["tr"] == 2


@pytest.mark.parametrize("command", ["invariants", "table"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_corpus_is_a_corpus_error(capsys, tmp_path, command, kind):
    path, reason = {
        "missing": (tmp_path / "absent.txt", "No such file or directory"),
        "directory": (tmp_path, "Is a directory"),
        "not-utf8": (
            tmp_path / "latin1.txt",
            "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte",
        ),
    }[kind]
    if kind == "not-utf8":
        path.write_bytes(b"3_1: abcab\xff c a b c\n")
    code, out, err = run(capsys, command, "--corpus", str(path))
    assert code == 2
    assert out == ""
    assert err == f"corpus error: cannot read {path}: {reason}\n"


def test_invariants_of_a_sixteen_trefoil_sum(capsys):
    word = TREFOIL_WORD
    for _ in range(15):
        word = connected_sum(word, TREFOIL_WORD, slot=len(word) // 2)
    code, out, _ = run(capsys, "invariants", " ".join(word), "--json")
    assert code == 0
    assert '"tr": 32' in out
    assert json.loads(out)["n"] == 48


def test_table_rows_and_adjacency(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["name", "n", "X", "X%3", "tr", "H", "factors"]
    assert any(line.startswith("3_1") and " 3 " in line for line in lines)
    assert "3_1 -- 4_1" in out
    assert "6_1 -- 7_2" in out


FROZEN_EDGES = [
    ["3_1", "4_1"],
    ["4_1", "5_2"],
    ["5_1", "6_2"],
    ["5_2", "6_1"],
    ["5_2", "6_3"],
    ["6_1", "7_2"],
    ["6_1", "7_6"],
    ["6_1", "7_A"],
    ["6_2", "6_3"],
    ["6_2", "7_5"],
    ["6_2", "7_7"],
    ["6_2", "7_B"],
    ["6_2", "7_C"],
    ["6_3", "7_6"],
    ["6_3", "7_A"],
    ["7_4", "7_7"],
    ["7_6", "7_7"],
    ["7_A", "7_B"],
]


def test_table_json_frozen(capsys):
    code, out, _ = run(capsys, "table", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 17
    by_name = {row["name"]: row for row in payload["rows"]}
    assert by_name["5_2"]["X"] == 7 and by_name["5_2"]["tr"] == 2
    assert by_name["7_1"]["factors"] == by_name["7_1"]["word"]
    # rows come out ordered by chord count then word
    keys = [(row["n"], row["word"]) for row in payload["rows"]]
    assert keys == sorted(keys)
    assert payload["one_triangle_edges"] == FROZEN_EDGES


def test_table_json_matches_the_frozen_file_byte_for_byte(capsys):
    code, out, _ = run(capsys, "table", "--json")
    assert code == 0
    assert out.encode("utf-8") == FROZEN_TABLE_JSON.read_bytes()


def _images_through_curl_orbits(word):
    # The reference rule: every word that curl moves reach within one
    # extra chord, then one triangle move, then curl deletions.
    orbit = search_class(word, move_set("r1"), SearchConfig(max_chords=chord_count(word) + 1))
    triangles = move_set("both") - move_set("r1")
    return {r1_normal_form(after) for staged in orbit.words for _, after in neighbors(staged, triangles)}


def test_table_adjacency_matches_the_curl_orbit_rule():
    # Every realizable word with n <= 6, curls included, as one corpus.
    words = [word for n in range(7) for word in enumerate_realizable(n)]
    entries = [CorpusEntry(f"w{i:02d}", word, i) for i, word in enumerate(words)]
    images = {entry.name: _images_through_curl_orbits(entry.word) for entry in entries}
    normal = {entry.name: r1_normal_form(entry.word) for entry in entries}
    expected = [
        (first.name, second.name)
        for i, first in enumerate(entries)
        for second in entries[i + 1 :]
        if normal[second.name] in images[first.name] or normal[first.name] in images[second.name]
    ]
    assert (len(entries), len(expected)) == (69, 863)
    assert table_adjacency(entries) == expected


def test_table_over_a_corpus_with_a_curl(capsys, tmp_path):
    # t is the trefoil with a curl spliced in; its curl normal form is
    # one triangle move from the figure eight.
    path = tmp_path / "curl.txt"
    path.write_text("t: a b c a b c d d\nf: a b c a d c b d\n5_1: a b c d e a b c d e\n")
    code, out, _ = run(capsys, "table", "--corpus", str(path), "--json")
    assert code == 0
    assert json.loads(out)["one_triangle_edges"] == [["f", "t"]]


VERIFY_STDOUT = {
    "parity": "PASS parity/tr-even: 26 realizable words with n <= 5\n",
    "deltas": "PASS deltas/move-deltas: 94 site applications, exhaustive n <= 4\n",
    "twist": (
        "PASS twist/twist-tr: tr = 2 for n = 1..8\n"
        "PASS twist/twist-x-step: X gains 1 at odd n; X = 3 4 7 8 11 12 15 16\n"
        "PASS twist/twist-weak-path-1: T(1) ~ T(2) by a weak path of <= 2 moves\n"
        "PASS twist/twist-weak-path-3: T(3) ~ T(4) by a weak path of <= 2 moves\n"
        "PASS twist/twist-strong-step: T(2) ~ T(3) by a strong path of <= 2 moves\n"
    ),
    "strong-trivial": (
        "PASS strong-trivial/reached-are-trivial: 127 words reached within 7 chords\n"
        "PASS strong-trivial/targets-reached: 127 realizable words with n <= 7 "
        "pass strong_trivial_test\n"
    ),
    "bracket": (
        "PASS bracket/normalized-units: normalized bracket of the empty word "
        "and one curl is 1\n"
        "PASS bracket/trefoil-det: determinant 3\n"
        "PASS bracket/twist-dets-distinct: determinants 3 7 11\n"
    ),
}


@pytest.mark.parametrize(
    "suite,extra",
    [
        ("parity", ["--max-n", "5"]),
        ("deltas", ["--max-n", "4"]),
        ("twist", []),
        ("strong-trivial", []),
        ("bracket", []),
    ],
)
def test_verify_suites_pass(capsys, suite, extra):
    code, out, _ = run(capsys, "verify", suite, *extra)
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 1
    assert out == VERIFY_STDOUT[suite]


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nosuch")
    assert code == 2
    assert "unknown suite" in err


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "bracket", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "bracket"
    assert payload["passed"] is True
    assert all({"name", "passed", "detail"} <= set(c) for c in payload["checks"])


@pytest.mark.parametrize("suite,max_n", [("parity", "-1"), ("deltas", "-3")])
def test_verify_rejects_negative_max_n(capsys, suite, max_n):
    code, out, err = run(capsys, "verify", suite, "--max-n", max_n)
    assert code == 2
    assert out == ""
    assert "--max-n" in err


@pytest.mark.parametrize(
    "suite,flag,value",
    [
        ("parity", "--seed", "5"),
        ("twist", "--max-n", "0"),
        ("twist", "--seed", "5"),
        ("strong-trivial", "--max-n", "3"),
        ("bracket", "--seed", "1"),
    ],
)
def test_verify_rejects_a_flag_the_suite_ignores(capsys, suite, flag, value):
    code, out, err = run(capsys, "verify", suite, flag, value)
    assert code == 2
    assert out == ""
    assert suite in err and flag in err


def test_verify_reports_a_broken_law(capsys, monkeypatch):
    # Two strong-expand sites among the realizable words with n <= 4
    # raise tr by 2; apply_move reads only the X law, so only the suite
    # can notice.
    law = MOVE_LAWS[MoveKind.STRONG_EXPAND]
    monkeypatch.setitem(MOVE_LAWS, MoveKind.STRONG_EXPAND, law._replace(dtr=(0,)))
    code, out, _ = run(capsys, "verify", "deltas", "--max-n", "4")
    assert code == 1
    assert out.startswith("FAIL deltas/move-deltas: 94 site applications")
    assert "strong-expand" in out and "dtr=2" in out
    code, out, _ = run(capsys, "verify", "deltas", "--max-n", "4", "--json")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_deltas_sampling_note(capsys):
    code, out, _ = run(capsys, "verify", "deltas", "--max-n", "7", "--seed", "11")
    assert code == 0
    assert "sampled words up to n = 7" in out
    # Each n past the exhaustive range samples 25 realizable words.
    code, out, _ = run(capsys, "verify", "deltas", "--max-n", "9", "--seed", "11")
    assert code == 0
    assert out.endswith(", plus 75 sampled words up to n = 9\n")


def test_moves_list_and_apply(capsys):
    code, out, _ = run(capsys, "moves", "list", TREFOIL_TEXT, "--moves", "strong")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 8
    assert lines[6].startswith("6: strong-contract")

    code, out, _ = run(
        capsys, "moves", "apply", TREFOIL_TEXT, "--moves", "strong", "--site", "6"
    )
    assert code == 0
    assert "dX=-3" in out and "dtr=-2" in out and "dH=+0" in out


def test_moves_apply_json(capsys):
    code, out, _ = run(
        capsys, "moves", "apply", TREFOIL_TEXT, "--site", "0", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["before"] == "a b c a b c"
    assert payload["dX"] == 0 and payload["dtr"] == 0 and payload["dH"] == 0
    assert payload["site"].startswith("curl-add")
    assert out == (
        "{\n"
        '  "after": "d d a b c a b c",\n'
        '  "before": "a b c a b c",\n'
        '  "canonical": "a a b c d b c d",\n'
        '  "dH": 0,\n'
        '  "dX": 0,\n'
        '  "dtr": 0,\n'
        '  "site": "curl-add at [0] on -"\n'
        "}\n"
    )


def test_moves_apply_strong_contraction_json(capsys):
    code, out, _ = run(
        capsys, "moves", "apply", TREFOIL_TEXT, "--moves", "strong", "--site", "6", "--json"
    )
    assert code == 0
    assert out == (
        "{\n"
        '  "after": "b a a c c b",\n'
        '  "before": "a b c a b c",\n'
        '  "canonical": "a a b b c c",\n'
        '  "dH": 0,\n'
        '  "dX": -3,\n'
        '  "dtr": -2,\n'
        '  "site": "strong-contract at [0,2,4] on a b c"\n'
        "}\n"
    )


def test_moves_errors(capsys):
    code, _, err = run(capsys, "moves", "apply", TREFOIL_TEXT, "--site", "99")
    assert code == 2
    assert "--site must be in" in err
    code, _, err = run(capsys, "moves", "list", NONREALIZABLE_TEXT)
    assert code == 3


def test_explore_class(capsys):
    code, out, err = run(
        capsys, "explore", "class", "a a", "--moves", "r1", "--max-n", "2"
    )
    assert code == 0
    assert out.splitlines() == ["-", "a a", "a a b b"]
    assert "truncated: yes" in err


def test_explore_class_json(capsys):
    code, out, _ = run(
        capsys,
        "explore", "class", TREFOIL_TEXT,
        "--moves", "strong", "--max-n", "3", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["start"] == "a b c a b c"
    assert "a a b b c c" in payload["words"]


def test_explore_class_window_defaults_to_the_search_config(capsys):
    code, out, _ = run(capsys, "explore", "class", TREFOIL_TEXT, "--json")
    assert code == 0
    payload = json.loads(out)
    result = search_class(TREFOIL_WORD, move_set("both"))
    assert (payload["count"], payload["truncated"]) == (len(result.words), result.truncated)


def test_explore_equiv_window_defaults_to_the_library(capsys):
    five_two = "a b c a d e b c e d"
    code, out, _ = run(capsys, "explore", "equiv", TREFOIL_TEXT, five_two, "--moves", "weak", "--json")
    assert code == 0
    result = equivalence_query(TREFOIL_WORD, five_two.split(), "weak")
    assert json.loads(out) == result.to_dict()
    assert result.reason == "no path within chords <= 7, states <= 200000"


def test_explore_equiv_window_grows_with_the_words(capsys):
    # T(7) and T(8) have 9 and 10 chords, beyond any fixed cap of 8.
    first, second = (" ".join(twist_family(n)) for n in (7, 8))
    code, out, _ = run(capsys, "explore", "equiv", first, second, "--moves", "weak")
    assert code == 0
    assert out.splitlines()[0] == "equivalent: path of 2 moves found"


def test_explore_equiv_verdicts(capsys):
    code, out, _ = run(
        capsys, "explore", "equiv", FIGURE8_TEXT, "-", "--moves", "strong"
    )
    assert code == 0
    assert out.startswith("not-equivalent: cross chord residues mod 3 differ")

    code, out, _ = run(
        capsys, "explore", "equiv", TREFOIL_TEXT, "-", "--moves", "weak"
    )
    assert code == 0
    assert out.startswith("not-equivalent: trivializing numbers differ")

    code, out, _ = run(
        capsys, "explore", "equiv", "a a", "-", "--moves", "r1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "equivalent"
    assert "path" in payload


def test_explore_equiv_prints_path(capsys):
    code, out, _ = run(
        capsys, "explore", "equiv", "a a b b", "-", "--moves", "r1"
    )
    assert code == 0
    assert "equivalent: path of 2 moves found" in out
    assert out.count("curl-delete") == 2


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["class", "a a", "--max-n", "-1"], "--max-n"),
        (["class", "a a", "--max-states", "0"], "--max-states"),
        (["equiv", "a a", "-", "--max-n", "-1"], "--max-n"),
        (["equiv", "a a", "-", "--max-states", "0"], "--max-states"),
    ],
)
def test_explore_rejects_an_empty_window(capsys, argv, flag):
    code, out, err = run(capsys, "explore", *argv)
    assert code == 2
    assert out == ""
    assert flag in err


def test_explore_family(capsys):
    code, out, _ = run(capsys, "explore", "family", "T", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "family": "T",
        "n": 3,
        "word": "a b c d e a b e d c",
        "X": 7,
        "tr": 2,
    }
    code, _, err = run(capsys, "explore", "family", "Q", "3")
    assert code == 2
    assert "twist family" in err
    code, _, err = run(capsys, "explore", "family", "T", "0")
    assert code == 2


def test_knots_commands(capsys):
    code, out, _ = run(capsys, "knots", "det", TREFOIL_TEXT)
    assert code == 0
    assert out.strip() == "3"

    code, out, _ = run(capsys, "knots", "det", TREFOIL_TEXT, "--json")
    assert code == 0
    assert out == '{\n  "determinant": 3,\n  "word": "a b c a b c"\n}\n'

    code, out, _ = run(capsys, "knots", "bracket", "-")
    assert code == 0
    assert "bracket: 0:1" in out

    code, out, _ = run(capsys, "knots", "resolve", TREFOIL_TEXT, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["signs"] == [1, 1, 1]
    assert payload["writhe"] == 3

    code, _, err = run(capsys, "knots", "det", NONREALIZABLE_TEXT)
    assert code == 3


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "flatknots", "invariants", TREFOIL_TEXT, "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tr"] == 2
