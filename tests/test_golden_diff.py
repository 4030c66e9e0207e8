"""The diff rule of tools/golden.py: what may move between two recordings, and by how much."""

import copy
import importlib.util
import json
from pathlib import Path

from click.testing import CliRunner

from pdm_spectra import cli

_spec = importlib.util.spec_from_file_location(
    "golden", Path(__file__).resolve().parent.parent / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def _spectrum_doc(fmt="json"):
    out = CliRunner().invoke(cli.main, ["spectrum", "--case", "a", "--reference", "oscillator",
                                        "--g", "0.5", "--eps", "0.5", "--levels", "0..1",
                                        "--N", "301", "--format", fmt])
    assert out.exit_code == 0
    return out.output.encode()


def _verdicts(a: bytes, b: bytes):
    return [(where, holds) for where, _, _, _, holds in golden._judge(a, b)]


def test_identical_outputs_have_no_differences():
    doc = _spectrum_doc()
    assert _verdicts(doc, doc) == []


def test_eigenvalue_moves_are_judged_by_their_bound():
    parent = _spectrum_doc()
    doc = json.loads(parent)
    near, far, flag = (copy.deepcopy(doc) for _ in range(3))
    near["rows"][0]["E_numeric"][0] += 1e-13
    near["rows"][0]["gap"] -= 1e-13
    far["rows"][0]["E_numeric"][0] += 1e-6
    flag["rows"][1]["real"] = not flag["rows"][1]["real"]
    assert _verdicts(parent, json.dumps(near).encode()) == [
        ("rows[0].E_numeric", True), ("rows[0].gap", True)]
    assert _verdicts(parent, json.dumps(far).encode()) == [("rows[0].E_numeric", False)]
    assert _verdicts(parent, json.dumps(flag).encode()) == [("rows[1].real", False)]


def test_csv_eigenvalue_columns_follow_the_same_rule():
    parent = _spectrum_doc("csv")
    lines = parent.decode().splitlines()
    cells = lines[2].split(",")
    cells[4] = f"{float(cells[4]) + 1e-6:.12e}"
    change = "\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n"
    assert _verdicts(parent, change.encode()) == [("rows[0].En_re", False)]


def test_conjugate_pairs_are_matched_as_sets():
    # a verify table whose pair comes back in the opposite order: index by
    # index it moves by the pair width, as a set it does not move at all
    pair = [[4.0, 0.01], [4.0, -0.01]]
    report = {"config": {}, "checks": [{"name": "convention-adjudication", "results": {"unit": {
        "details": [{"reference": "oscillator(g=1.0,eps=0.5)", "report": {
            "matched": [{"n": i, "E_numeric": e, "gap": 0.01} for i, e in enumerate(pair)],
            "spurious": []}}]}}}]}
    swapped = copy.deepcopy(report)
    for entry, e in zip(swapped["checks"][0]["results"]["unit"]["details"][0]["report"]["matched"],
                        reversed(pair)):
        entry["E_numeric"] = e
    holds = [h for _, h in _verdicts(json.dumps(report).encode(), json.dumps(swapped).encode())]
    assert holds == [True, True]


def test_exit_code_and_stderr_must_not_change():
    assert _verdicts(b"2\n", b"1\n") == [("(value)", False)]
    assert _verdicts(b"PASS a\n", b"FAIL a\n") == [("lines[0]", False)]
