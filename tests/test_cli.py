import json
import subprocess
import sys

import pytest

from qchar import smallness
from qchar.cartan import build_diagram
from qchar.cli import _budgets, _json_text, build_parser, main
from qchar.expansion import QCharacter, SpecialnessReport, fm_algorithm
from qchar.monomials import (
    AWitness,
    Monomial,
    kr_highest,
    monomial_from_json,
    monomial_to_json,
    parse_monomial,
    plain_json,
    witness_to_json,
)
from qchar.smallness import Budgets, check_small_empirical, enumerate_dominant_below


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_examples(capsys):
    code, out, _ = run(capsys, "classify", "--g", "A3", "--i", "2", "--k", "3")
    assert code == 0 and out == "NotSmall\n"
    code, out, _ = run(capsys, "classify", "--g", "A1", "--i", "1", "--k", "7")
    assert code == 0 and out == "Small\n"
    code, out, _ = run(capsys, "classify", "--g", "D4", "--i", "1", "--k", "3")
    assert code == 0 and out == "Small\n"


def test_classify_empirical(capsys):
    code, out, _ = run(capsys, "classify", "--g", "A3", "--i", "2", "--k", "3",
                       "--r", "2", "--empirical")
    assert code == 0
    assert out.splitlines()[:2] == [
        "NotSmall",
        "empirical: NotSmall (6 dominant monomials, 1 not special, "
        "0 undetermined, 1 no candidate)"]
    assert "agree: yes" in out


def test_qchar_rank1(capsys):
    code, out, _ = run(capsys, "qchar", "--g", "A1", "1_0")
    assert code == 0 and out == "1_0 + 1_2^-1\n"


def test_qchar_sl3_fundamental(capsys):
    code, out, _ = run(capsys, "qchar", "--g", "A2", "1_0")
    assert code == 0
    assert out.strip() == "1_0 + 1_2^-1 2_1 + 2_3^-1"


def test_qchar_not_special(capsys):
    code, out, _ = run(capsys, "qchar", "--g", "A3", "1_1 3_1 2_4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "NotSpecial"
    assert lines[1] == "witness 2_2"
    assert any("-->" in line for line in lines[2:])
    # the closure forces 1_-1; the process reaches it in two steps
    code, out, _ = run(capsys, "qchar", "--g", "A2", "1_-1 1_1 2_-2")
    assert code == 0
    assert out.splitlines() == [
        "NotSpecial",
        "witness 1_-1",
        "  1_-1 1_1 2_-2 --[2]--> 1_-1^2 1_1 2_0^-1",
        "  1_-1^2 1_1 2_0^-1 --[1]--> 1_-1"]


def test_qchar_json_round_trip(capsys):
    code, out, _ = run(capsys, "qchar", "--g", "A2", "1_0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "qchar/1"
    chi = QCharacter.from_json(doc["qchar"])
    assert chi.multiplicity(parse_monomial("1_0")) == 1
    assert len(chi) == 3
    assert chi.highest == parse_monomial("1_0")
    assert monomial_from_json(doc["subject"]) == parse_monomial("1_0")
    # the identity serialises as an empty list and still comes back
    code, out, _ = run(capsys, "qchar", "--g", "A1", "1", "--format", "json")
    assert code == 0
    chi = QCharacter.from_json(json.loads(out)["qchar"])
    assert chi.highest == Monomial() and chi.terms == {Monomial(): 1}


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--g", "A3", "--i", "2", "--k", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2 dominant monomials"
    assert set(lines[1:]) == {"1_0 3_0", "2_-1 2_1"}


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--g", "D4", "--i", "1", "--k", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2 and doc["partial"] is False


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "classify", "--g", "Q9", "--i", "1", "--k", "1")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "qchar", "--g", "A2", "1_0^-1")
    assert code == 2 and "not dominant" in err
    code, _, _ = run(capsys, "classify", "--g", "A3")  # missing flags
    assert code == 2
    code, _, err = run(capsys, "classify", "--g", "B2", "--i", "1", "--k", "1")
    assert code == 2 and "simply-laced" in err


@pytest.mark.parametrize("argv, message", [
    (["enumerate", "--g", "D4", "--i", "9", "--k", "2"], "node 9 not in diagram D4"),
    (["qchar", "--g", "A2", "1_0 5_3"], "node 5 not in diagram A2"),
    (["qchar", "--g", "D4", "9_0"], "node 9 not in diagram D4"),
    (["sweep", "--g", "A1", "--kmax", "0"], "kmax must be >= 1"),
    (["sweep", "--g", "A4..A1", "--kmax", "2"], "no diagrams to sweep"),
])
def test_bad_input_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, code", [
    (["qchar", "--g", "A2", "1_0", "--r", "3"], 2),
    (["verify-remarks", "--r", "3"], 2),
    (["classify", "--g", "A2", "--i", "1", "--k", "1", "--r", "3"], 0),
    (["enumerate", "--g", "A2", "--i", "1", "--k", "2", "--r", "3"], 0),
    (["sweep", "--g", "A1", "--kmax", "1", "--r", "3"], 0),
])
def test_r_only_where_read(capsys, argv, code):
    got, out, err = run(capsys, *argv)
    assert got == code
    if code:
        assert out == "" and "unrecognized arguments: --r 3" in err


def test_budget_exhaustion_exit_4(capsys):
    code, out, _ = run(capsys, "qchar", "--g", "A3", "2_-2 2_0 2_2",
                       "--fm-steps", "2")
    assert code == 4
    assert out.splitlines() == ["Inconclusive", "step budget exhausted"]
    # a forced dominant monomial the process cannot reach in one step
    code, out, _ = run(capsys, "qchar", "--g", "A2", "1_-1 1_1 2_-2",
                       "--process-steps", "1")
    assert code == 4
    assert out.splitlines() == [
        "Inconclusive",
        "closure forces dominant monomial 1_-1 but the generation process "
        "found no replayable witness within budget"]


@pytest.mark.parametrize("flag", ["--fm-steps", "--process-steps", "--enum-nodes"])
def test_zero_budget_flag_exit_2(capsys, flag):
    # each flag on a command that reads it, and on classify without
    # --empirical, which takes the flags but reads none: refused at parse time
    reader = (["enumerate", "--g", "A2", "--i", "1", "--k", "1"] if flag == "--enum-nodes"
              else ["qchar", "--g", "A2", "1_0"])
    for argv in (reader, ["classify", "--g", "A3", "--i", "2", "--k", "3"]):
        for value in ("0", "-5"):
            code, out, err = run(capsys, *argv, flag, value)
            assert code == 2 and out == ""
            assert f"argument {flag}: budgets must be positive" in err
    code, out, err = run(capsys, *reader, flag, "x")
    assert code == 2 and out == "" and f"argument {flag}: invalid int value: 'x'" in err


_ALL_BUDGETS = ("fm_steps", "process_steps", "enum_nodes")
# command -> (argv, the budgets it reads)
_BUDGET_READERS = {
    "classify": (["classify", "--g", "A2", "--i", "1", "--k", "1", "--empirical"],
                 _ALL_BUDGETS),
    "qchar": (["qchar", "--g", "A2", "1_0"], ("fm_steps", "process_steps")),
    "enumerate": (["enumerate", "--g", "A2", "--i", "1", "--k", "2"], ("enum_nodes",)),
    "verify-remarks": (["verify-remarks"], _ALL_BUDGETS),
    "sweep": (["sweep", "--g", "A1", "--kmax", "1"], _ALL_BUDGETS),
}


@pytest.mark.parametrize("budget", _ALL_BUDGETS)
@pytest.mark.parametrize("command", list(_BUDGET_READERS))
def test_budget_flags_only_where_read(capsys, command, budget):
    argv, reads = _BUDGET_READERS[command]
    flag = "--" + budget.replace("_", "-")
    if budget in reads:
        budgets = _budgets(build_parser().parse_args([*argv, flag, "7"]))
        assert getattr(budgets, budget) == 7
    else:
        code, out, err = run(capsys, *argv, flag, "7")
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {flag} 7" in err


def test_unread_budget_env_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("QCHAR_FM_STEPS", "hello")
    monkeypatch.setenv("QCHAR_PROCESS_STEPS", "0")
    code, out, _ = run(capsys, "enumerate", "--g", "A3", "--i", "2", "--k", "2")
    assert code == 0 and out.startswith("2 dominant monomials\n")
    monkeypatch.setenv("QCHAR_ENUM_NODES", "hello")
    monkeypatch.delenv("QCHAR_FM_STEPS")
    monkeypatch.delenv("QCHAR_PROCESS_STEPS")
    code, out, _ = run(capsys, "qchar", "--g", "A1", "1_0")
    assert code == 0 and out == "1_0 + 1_2^-1\n"


def test_env_budget_override(capsys, monkeypatch):
    monkeypatch.setenv("QCHAR_FM_STEPS", "2")
    code, out, _ = run(capsys, "qchar", "--g", "A3", "2_-2 2_0 2_2")
    assert code == 4
    monkeypatch.setenv("QCHAR_FM_STEPS", "hello")
    code, _, err = run(capsys, "qchar", "--g", "A3", "2_-2 2_0 2_2")
    assert code == 2 and "QCHAR_FM_STEPS" in err


def test_sweep_small_range(capsys):
    code, out, _ = run(capsys, "sweep", "--g", "A1..A2", "--kmax", "2")
    assert code == 0
    assert out.splitlines()[-1] == "all cells agree"
    assert "A1 i=1 k=1" in out


def test_undetermined_sweep_exit_4(capsys):
    budgets = ("--fm-steps", "400", "--process-steps", "400")
    code, out, _ = run(capsys, "sweep", "--g", "A2~", "--kmax", "1", *budgets)
    assert code == 4
    lines = out.splitlines()
    assert all(line.endswith("empirical=Undetermined agree=no") for line in lines[:-1])
    assert lines[-1] == "no disagreement; 3 cells undetermined"
    code, _, _ = run(capsys, "classify", "--g", "A2~", "--i", "0", "--k", "1",
                     "--empirical", *budgets)
    assert code == 4


@pytest.mark.parametrize("argv", [
    ["classify", "--g", "A3", "--i", "2", "--k", "3", "--empirical"],
    ["sweep", "--g", "A3", "--kmax", "3"]])
def test_certified_contradiction_exit_3(capsys, monkeypatch, argv):
    # A3 node 2, k = 3 at budget 20: NotSmall, certified, with undetermined
    # entries; a closed form patched to Small contradicts it
    original = smallness.classify
    monkeypatch.setattr(smallness, "classify", lambda c, i, k: (
        smallness.SMALL if (i, k) == (2, 3) else original(c, i, k)))
    argv = [*argv, "--fm-steps", "20", "--process-steps", "20"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 3
    doc = json.loads(out)
    cell = next(cell for cell in doc.get("cells", [doc])
                if (cell["node"], cell["k"]) == (2, 3))
    assert cell["empirical"]["verdict"] == "NotSmall"
    assert cell["empirical"]["undetermined"] and not cell["agree"]
    code, out, _ = run(capsys, *argv)
    assert code == 3
    if argv[0] == "sweep":
        assert out.splitlines()[-1] == "DISAGREEMENT found"


def test_sweep_bad_range(capsys):
    code, _, err = run(capsys, "sweep", "--g", "A1..D4", "--kmax", "1")
    assert code == 2 and "range" in err


def test_reruns_byte_identical(capsys):
    first = run(capsys, "qchar", "--g", "A3", "1_1 3_1 2_4", "--format", "json")
    second = run(capsys, "qchar", "--g", "A3", "1_1 3_1 2_4", "--format", "json")
    assert first == second
    first = run(capsys, "classify", "--g", "D4", "--i", "2", "--k", "3",
                "--empirical", "--format", "json")
    second = run(capsys, "classify", "--g", "D4", "--i", "2", "--k", "3",
                 "--empirical", "--format", "json")
    assert first == second


def test_verify_remarks_command(capsys):
    code, out, _ = run(capsys, "verify-remarks")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "3/3 replays passed"
    assert all(line.startswith("PASS") for line in lines[:-1])


@pytest.mark.parametrize("reach, failed", [
    # a listed monomial the generation process never reaches
    (("1_3^-1 2_2^2 2_4 3_3^-1", "1_5", "2_2"), "FAIL process generates 1_5"),
    # a generated monomial that is not the closure's witness
    (("2_2", "1_3^-1 2_2^2 2_4 3_3^-1"), "FAIL witness is 1_3^-1 2_2^2 2_4 3_3^-1"),
])
def test_verify_remarks_failing_row_exit_3(capsys, monkeypatch, reach, failed):
    row = ("sl4-interior-string", "A3", 2, 3, 2, "1_1 3_1 2_4", reach)
    monkeypatch.setattr(smallness, "_REMARKS", (row,))
    code, out, _ = run(capsys, "verify-remarks")
    lines = out.splitlines()
    assert code == 3
    assert lines[0] == "FAIL sl4-interior-string"
    assert lines[-1] == "0/1 replays passed"
    details = lines[1:-1]
    assert all(line.startswith(("  PASS ", "  FAIL ")) for line in details)
    assert [line for line in details if "FAIL" in line] == [f"  {failed}"]
    assert len(details) == 7 + len(reach)


def test_module_entry_point_subprocess():
    cmd = [sys.executable, "-m", "qchar.cli", "qchar", "--g", "A1", "1_0"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == "1_0 + 1_2^-1\n"
    assert first.stdout == second.stdout  # byte-identical across processes


def test_verify_remarks_json(capsys):
    code, out, _ = run(capsys, "verify-remarks", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "qchar/1"
    assert doc["passed"] == doc["total"] == 3
    assert [r["name"] for r in doc["results"]] == [
        "sl4-interior-string", "fork-d4-leaf-level-4", "triangle-cycle-level-3"]


def test_json_text_matches_json_dumps(capsys):
    entry = {"node": 1, "power": -3, "exponent": 2}
    doc = {"schema": "qchar/1", "empty": {}, "none": [], "flag": True,
           "off": False, "missing": None, "ratio": 0.25, "big": 10 ** 20,
           "text": 'tab\t "quoted" \u00e9\u2603 \\', "\u00e9key": [entry],
           "nested": [[entry, {"node": 1, "power": -3, "exponent": 2}],
                      {"deep": [entry, ()]}, (1, "x")],
           "bools": [{"a": 1, "b": True}, {"a": 1, "b": 1}]}  # True == 1
    assert _json_text(doc) == json.dumps(doc, indent=2)
    assert _json_text([]) == "[]" and _json_text(7) == "7"

    # report documents keep their monomials and witnesses for the writer
    A3, D4 = build_diagram("A", 3), build_diagram("D", 4)
    consistent = fm_algorithm(D4, kr_highest(D4, 2, 2, 0))
    assert max(consistent.qchar.terms.values()) > 1
    not_special = fm_algorithm(A3, parse_monomial("1_1 3_1 2_4"))
    assert not_special.verdict == "NotSpecial" and not_special.chain
    inconclusive = fm_algorithm(A3, parse_monomial("2_-2 2_0 2_2"), budget=2)
    assert inconclusive.verdict == "Inconclusive"
    cell = check_small_empirical(A3, 2, 3, 0, Budgets(fm_steps=12, process_steps=50))
    emp = cell.empirical
    assert emp.not_special and emp.undetermined and emp.no_candidate
    odd = parse_monomial("1_-3^-12 2_5^10 3_0")
    hand = SpecialnessReport("SpecialFMConsistent", Monomial.one(), steps=1,
                             qchar=QCharacter({Monomial.one(): 11, odd: 10},
                                              highest=Monomial.one()))
    reports = [consistent, consistent.qchar, not_special, not_special.chain[0],
               inconclusive, cell, hand, hand.qchar]
    for obj in reports:
        assert _json_text(obj._doc()) == json.dumps(obj.to_json(), indent=2)
    mixed = {"m": [Monomial.one(), odd, [odd, {"w": AWitness({(2, -4): 11})}]],
             "w": AWitness({}), "deep": [[[odd]]]}
    assert _json_text(mixed) == json.dumps(plain_json(mixed), indent=2)

    # the enumerate document
    code, out, _ = run(capsys, "enumerate", "--g", "D4", "--i", "2", "--k", "3",
                       "--r", "-1", "--format", "json")
    enum = enumerate_dominant_below(D4, 2, 3, -1)
    doc = {"schema": "qchar/1", "command": "enumerate", "diagram": "D4",
           "node": 2, "k": 3, "r": -1, "count": len(enum.entries), "partial": False,
           "entries": [{"monomial": monomial_to_json(m), "text": str(m),
                        "witness_table": witness_to_json(w)}
                       for m, w in enum.entries]}
    assert code == 0 and out == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["qchar", "--g", "D4", "1_0 1_2"],
    ["qchar", "--g", "A3", "1_1 3_1 2_4"],
    ["qchar", "--g", "A3", "2_0 2_2 2_4", "--fm-steps", "2"],
    ["enumerate", "--g", "D4", "--i", "2", "--k", "3"],
    ["sweep", "--g", "A1..A2", "--kmax", "2"],
    ["classify", "--g", "A3", "--i", "2", "--k", "3", "--empirical"],
])
def test_json_output_is_indent_2_dumps(capsys, argv):
    _, out, _ = run(capsys, *argv, "--format", "json")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
