"""``tools/byte_corpus.py``: its column mode, which says how two CSV texts (files, or
``rate``'s stdout) differ column by column, and the environment it gives the change tree's
runs."""

import math

from reference import ROOT, load

# the tool is a script, not a package module, so it is loaded by path
byte_corpus = load(ROOT / "tools" / "byte_corpus.py", "byte_corpus")

PARENT = """\
# sign = corrected
family,l,param,R,cutoff_km
mcs-bb84,0,0.25,-0.0,45.8
mcs-bb84,1,0.5,nan,
mcs-bb84,2,0.75,1e-3,
"""


def test_identical_texts_differ_nowhere():
    diffs = byte_corpus.column_diffs(PARENT, PARENT)
    assert diffs["rows"] == (3, 3) and diffs["head"]
    assert diffs["columns"] == dict.fromkeys(["family", "l", "param", "R", "cutoff_km"], (0, 0.0))


def test_signed_zeros_nan_and_empty_cells():
    change = PARENT.replace("-0.0,45.8", "0,45.8").replace("nan,", "nan,45.8")
    change = change.replace("0.75,1e-3", "0.7500000000000001,nan")
    columns = byte_corpus.column_diffs(PARENT, change)["columns"]
    # -0.0 against 0 differs as text, by 0; nan against a number has no relative bound
    assert columns["R"] == (2, math.inf)
    assert columns["param"] == (1, (0.7500000000000001 - 0.75) / 0.7500000000000001)
    assert columns["cutoff_km"] == (1, math.inf)  # an empty cell against a cutoff
    assert columns["family"] == columns["l"] == (0, 0.0)


def test_a_signed_zero_alone_differs_by_zero():
    columns = byte_corpus.column_diffs(PARENT, PARENT.replace("-0.0,", "0.0,"))["columns"]
    assert columns["R"] == (1, 0.0)


def test_text_cells_compare_as_strings():
    columns = byte_corpus.column_diffs(PARENT, PARENT.replace("mcs-bb84,1", "mcs-sarg04,1"))
    assert columns["columns"]["family"] == (1, math.inf)


def test_unequal_row_counts_compare_the_common_rows():
    longer = PARENT + "mcs-bb84,3,1.0,2e-3,\n"
    diffs = byte_corpus.column_diffs(PARENT, longer.replace("0.25", "0.5"))
    assert diffs["rows"] == (3, 4) and diffs["head"]
    assert diffs["columns"]["param"] == (1, 0.5)
    assert sum(count for count, _ in diffs["columns"].values()) == 1


def test_notes_and_header():
    assert not byte_corpus.column_diffs(PARENT, PARENT.replace("corrected", "literal"))["head"]
    assert not byte_corpus.column_diffs(PARENT, PARENT.replace(",R,", ",R_raw,"))["head"]


def test_report_names_each_file_and_moved_column():
    parent = {"figure2.csv": PARENT.encode(), "figure2.svg": b"<svg/>"}
    change = {"figure2.csv": PARENT.replace("0.25", "0.5").encode(), "figure2.svg": b"<svg />"}
    assert byte_corpus.column_report(parent, change) == [
        "figure2.csv: 3 rows", "    param: 1 cells differ, worst relative 0.5", "figure2.svg: differs"]


PROBE = ("-c", "import os; print(os.environ.get('CORPUS_PROBE'))")


def test_an_extra_variable_reaches_the_child_process():
    code, out, err, written = byte_corpus.run(ROOT, PROBE, {}, {"CORPUS_PROBE": "AVX2 only"})
    assert (code, out, err, written) == (0, "AVX2 only\n", "", {})
    assert byte_corpus.run(ROOT, PROBE, {})[1] == "None\n"


def test_change_env_sets_the_variable_for_the_change_tree_only(monkeypatch, capsys):
    monkeypatch.setattr(byte_corpus, "CASES", [("probe", PROBE, {})])
    monkeypatch.setattr(byte_corpus, "LIBRARY_CASES", [])
    monkeypatch.setattr(byte_corpus, "bench_cases", lambda seed, scratch: [])
    assert byte_corpus.main([str(ROOT), str(ROOT)]) == 0
    assert byte_corpus.main([str(ROOT), str(ROOT), "--change-env", "CORPUS_PROBE=x=1"]) == 1
    assert "    None  ->  x=1\n" in capsys.readouterr().out


def test_a_csv_on_stdout_is_reported_column_by_column(monkeypatch, capsys, tmp_path):
    trees = [tmp_path / "parent", tmp_path / "change"]
    for tree in trees:
        (tree / "src" / "mcs_qkd").mkdir(parents=True)
        (tree / "src" / "mcs_qkd" / "__init__.py").touch()
    moved = PARENT.replace("0.25", "0.25000000000000006")
    outputs = {("table",): (PARENT, moved), ("text",): ("verification passed\n", "failed\n")}
    monkeypatch.setattr(byte_corpus, "CASES", [(argv[0], argv, {}) for argv in outputs])
    monkeypatch.setattr(byte_corpus, "LIBRARY_CASES", [])
    monkeypatch.setattr(byte_corpus, "bench_cases", lambda seed, scratch: [])
    monkeypatch.setattr(byte_corpus, "run", lambda tree, argv, files, extra_env=None: (
        0, outputs[argv][tree.name == "change"], "", {}))
    assert byte_corpus.main([str(tree) for tree in trees]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "DIFFERS table: stdout (argv: table)",
        "    stdout: 3 rows",
        "        param: 1 cells differ, worst relative 2.22e-16",
        "DIFFERS text: stdout (argv: text)",
        "2 cases: 0 identical, 2 differ",
    ]
