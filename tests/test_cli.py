"""Command line interface: normal-form reduction, verification suites,
exit codes, and byte-level determinism of reports."""

import json
import os
import subprocess
import sys

import pytest

import klrcalc
from klrcalc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- normal form --------------------------------------------------------


def test_nf_nilhecke_dot_past_crossing(capsys):
    code, out, _ = run(capsys, "nf", "t1 x1 1[i,i]", "--table")
    assert code == 0
    assert out.strip() == "-1*1[i,i] + x2*t1*1[i,i]"


def test_nf_double_crossing_distinct_colors(capsys):
    code, out, _ = run(capsys, "nf", "t1 t1 1[j,i]", "--table")
    assert code == 0
    assert out.strip() == "x2*1[j,i] + x1*1[j,i]"


def test_nf_json_output(capsys):
    code, out, _ = run(capsys, "nf", "x1 1[i,j]")
    assert code == 0
    doc = json.loads(out)
    assert doc["weight"] == {"i": 1, "j": 1}
    assert doc["terms"]


def test_nf_sum_and_signs(capsys):
    code, out, _ = run(capsys, "nf", "x1 1[i] - x1 1[i]", "--table")
    assert code == 0
    assert out.strip() == "0"


# -- rejected input -----------------------------------------------------


def test_weight_mismatch_is_usage_error(capsys):
    code, _, err = run(capsys, "nf", "1[i] 1[j]")
    assert code == 2
    assert "error" in err


def test_coefficient_grammar_rejects_q(capsys):
    code, _, err = run(capsys, "nf", "q^2 x1 1[i]")
    assert code == 2


def test_unknown_strand_index(capsys):
    code, _, err = run(capsys, "nf", "x3 1[i,j]")
    assert code == 2


def test_missing_idempotent(capsys):
    code, _, err = run(capsys, "nf", "x1 x2")
    assert code == 2


def test_bad_window(capsys):
    code, _, err = run(capsys, "suite", "relations", "--window", "5:1")
    assert code == 2


def test_degenerate_unit_config(tmp_path, capsys):
    cfg = {
        "labels": ["i", "j"],
        "dot": [[2, -1], [-1, 2]],
        "q": {"i,j": {"t": 0}},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "nf", "1[i,j]", "--cartan", str(path))
    assert code == 2
    assert "invertible" in err


def test_unknown_label_in_q_table(tmp_path, capsys):
    cfg = {
        "labels": ["i", "j"],
        "dot": [[2, -1], [-1, 2]],
        "q": {"i,k": {"t": 2}},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "nf", "1[i,j]", "--cartan", str(path))
    assert code == 2
    assert "unknown index label" in err


@pytest.mark.parametrize("entry", [
    {"dot": 5},
    {"dot": [["a", "b"], ["c", "d"]]},
    {"q": {"i,j": 3}},
    {"q": [1]},
    {"q": {"i,j": {"terms": 5}}},
])
def test_malformed_cartan_file_is_usage_error(entry, tmp_path, capsys):
    cfg = {"labels": ["i", "j"], "dot": [[2, -1], [-1, 2]], **entry}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "nf", "1[i,j]", "--cartan", str(path))
    assert code == 2
    assert "error" in err


def test_mackey_needs_two_labels(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"labels": ["i"], "dot": [[2]]}))
    code, _, err = run(capsys, "suite", "mackey", "--cartan", str(path))
    assert code == 2
    assert "two index labels" in err


# -- suites -------------------------------------------------------------


def test_relations_suite_passes(capsys):
    code, out, _ = run(capsys, "suite", "relations", "--height-bound", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "relations"
    assert doc["passed"] is True
    assert doc["checks"]
    assert all(c["ok"] for c in doc["checks"])


def test_k0_suite_passes(capsys):
    code, out, _ = run(capsys, "suite", "k0", "--height-bound", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"]


def test_suite_reports_are_deterministic(capsys):
    argv = ["suite", "nilhecke", "--seed", "7", "--height-bound", "2"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_uplus_suite_b2(capsys):
    code, out, _ = run(capsys, "suite", "uplus", "--cartan", "B2",
                       "--height-bound", "2")
    assert code == 0
    assert json.loads(out)["passed"]


def test_no_command_prints_usage(capsys):
    code, _, err = run(capsys)
    assert code == 2


# -- console entry point ------------------------------------------------


def test_console_script_runs():
    # the child imports the klrcalc this test imported, also when only
    # pytest's own pythonpath setting put it on sys.path
    src = os.path.dirname(os.path.dirname(klrcalc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "klrcalc.cli", "nf", "1[i]", "--table"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1[i]"
