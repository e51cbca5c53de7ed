"""Command line interface: normal-form reduction, verification suites,
exit codes, and byte-level determinism of reports."""

import hashlib
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
    assert "'k'" in err


@pytest.mark.parametrize("entry", [
    {"dot": 5},
    {"dot": [["a", "b"], ["c", "d"]]},
    {"q": {"i,j": 3}},
    {"q": [1]},
    {"q": {"i,j": {"terms": 5}}},
    # homogeneous exponents (1 + 3 = 4) with a coefficient that is no number
    {"dot": [[2, -4], [-4, 2]], "q": {"i,j": {"terms": [[1, 3, [1]]]}}},
    # float exponents that pass the homogeneity sum 1.5 + 2.5 = 4
    {"dot": [[2, -4], [-4, 2]], "q": {"i,j": {"terms": [[1.5, 2.5, 1]]}}},
    # a float unit is not the decimal written; "1/10" is the way to say it
    {"q": {"i,j": {"t": 0.1}}},
    # both orders give extra terms, and they are not mirror images
    {"dot": [[2, -4], [-4, 2]], "q": {"i,j": {"terms": [[1, 3, 1]]},
                                      "j,i": {"terms": [[2, 2, 5]]}}},
    # orthogonal colours, whose one constant Q is given two different units
    {"dot": [[2, 0], [0, 2]], "q": {"i,j": {"t": 5}, "j,i": {"t": 3}}},
])
def test_malformed_cartan_file_is_usage_error(entry, tmp_path, capsys):
    cfg = {"labels": ["i", "j"], "dot": [[2, -1], [-1, 2]], **entry}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "nf", "1[i,j]", "--cartan", str(path))
    assert code == 2
    assert "error" in err


def test_orthogonal_colours_share_one_unit(tmp_path, capsys):
    """For orthogonal colours one unit serves both orders of Q, so
    tau_1^2 is that unit on 1[i,j] and on 1[j,i]."""
    cfg = {"labels": ["i", "j"], "dot": [[2, 0], [0, 2]],
           "q": {"i,j": {"t": 5}}}
    path = tmp_path / "orth.json"
    path.write_text(json.dumps(cfg))
    for idem in ("1[i,j]", "1[j,i]"):
        code, out, _ = run(capsys, "nf", f"t1 t1 {idem}", "--table",
                           "--cartan", str(path))
        assert code == 0
        assert out.strip() == f"5*{idem}"


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


# sha256 of the stdout of `klrcalc suite NAME --cartan CARTAN` at default
# flags, with its exit status; any change to a report shows up here.
SUITE_REPORT_DIGESTS = [
    ("relations", "A2", 0,
     "740c18d2428849a36114452035dd9fe16bb8f946bd76b68e3f20e7a9fffd7f33"),
    ("nilhecke", "A2", 0,
     "b5c7b45ad20edf95f5ee0807bcad99c7c11749ad1285217f9b75b8d72d1b5768"),
    ("vanish", "A2", 0,
     "acb4ed90cae3f8ba77fd199c3366a85ef3ae1cea028c86e2d60a5395cdbafb9a"),
    ("serre", "A2", 0,
     "327f9ce2169e635f6170cfbae97f5992b77d6e28a190d69d861569a748bf05b5"),
    ("mackey", "A2", 0,
     "c581dd15ee299602213e8201fe19de363ac39fab0f2eda9f7cb9f22bf9c787a6"),
    ("uplus", "A2", 0,
     "0e35cf04b6b021d03cbc52204a973cd2ebb2eabcfa9d7d9a15070ccd751ad51d"),
    ("k0", "A2", 0,
     "a2348ee0fc4ba11487bcf08ab0b32a5e5ef9346082a4e16ccb5442bf0ba0b511"),
    ("relations", "B2", 0,
     "358d2de783b9fc3328b37f5110bd4c6df9c26bc490e23729f56b852f10457d3c"),
    ("nilhecke", "B2", 0,
     "a67ce6e41317fce609825af4f505d49a79608570ad59619c12b8114a48ae74b6"),
    ("vanish", "B2", 0,
     "f17c5c54311ded69cf71b471d4821a49e216e516b29b8b7ee27d34292f62d47c"),
    ("serre", "B2", 0,
     "dfd0d0c432d795d9ccefcb432f36916a2fe56822a049f29a06126e9f43d4821f"),
    ("mackey", "B2", 0,
     "6b57cd8ebd40e10bfbf108c260089eb901ed7d1567d72666cc70df721281d5c7"),
    ("uplus", "B2", 0,
     "f538c54486bdff1203d936b59f9bfa6fccae4dcb3d41a5b03dc187eb8886bc8b"),
    ("k0", "B2", 0,
     "0b005b9f673de1ccc6f859067022f84db962078c86c3e7f6f53194b8191a7022"),
    ("relations", "B2r", 0,
     "e40490335b980c77540d9f8d7bb40d0a44d24674b7f8f834a1088d4644537d63"),
    ("nilhecke", "B2r", 0,
     "77734bd981e72916f94c457c3636d85a639c9d044c90efcea0ddb63dc9d256aa"),
    ("vanish", "B2r", 0,
     "b6509c4db55dddab86a92e1bd67e2dfe2c9536bec2a2a26ecc77930dd99f5cba"),
    ("serre", "B2r", 0,
     "1b0dc0a495539425cea75fc9d39b0231c48a57daa834bdd6a6a150f57d57c042"),
    ("mackey", "B2r", 0,
     "3402fa85cab367871cb64c4ba3e9af21e6722b3ad6d18ab2128ed1d7d9ad0060"),
    ("uplus", "B2r", 0,
     "9e0deadc0c6c09deefb688165d5c6adb48baa322558b7c45f8fd88b542f5c9e3"),
    ("k0", "B2r", 0,
     "c7b25b6c7d344f3f657c8391f3a6b52b4bdeee558a036504f9fed44c42b97c69"),
    ("relations", "G2", 0,
     "f297616ec5975d398cd088538f66b673708f77dd2799a9d63e4b440244613792"),
    ("nilhecke", "G2", 0,
     "af3ec8c89ac772a5de4afc8829038859010741002c1a4c00114e2ddbeea52ec9"),
    ("vanish", "G2", 0,
     "73320f24e3964f69f0d1a5289df7bdfb49927c3d9cf2343fc9cb2de672704552"),
    ("serre", "G2", 0,
     "43d62fde3f18669275352522e915e9105fed8f50021c25327633ce5d206494a6"),
    ("mackey", "G2", 0,
     "febf7850db7d203e39190f3297e6d4de64760f2a8a758ffb96d4add4b4cbb231"),
    ("uplus", "G2", 0,
     "fc50bafcf31675802a461a4c8da205c82b950a6004d016dabdf8aa627930759b"),
    ("k0", "G2", 0,
     "7eed5cf30def0383ad9144341de683d23bed025f40d1e21b9ba6c9e7a1cfdc9d"),
]


@pytest.mark.parametrize("name,cartan,status,digest", SUITE_REPORT_DIGESTS,
                         ids=[f"{n}-{c}" for n, c, _, _ in
                              SUITE_REPORT_DIGESTS])
def test_suite_reports_are_pinned(capsys, name, cartan, status, digest):
    code, out, _ = run(capsys, "suite", name, "--cartan", cartan)
    assert code == status
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
