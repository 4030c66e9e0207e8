"""CLI behavior: parsing, outputs, determinism, exit codes."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from pdm_spectra import cli
from pdm_spectra.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


FAST = ["--alpha", "1", "--g", "0.5", "--L", "8", "--N", "601", "--levels", "0..1"]


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_oscillator_odd_integers(runner):
    res = runner.invoke(main, ["spectrum", *FAST])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["schema"] == "pdm-spectra/spectrum/v1"
    ea = [row["E_analytic"][0] for row in doc["rows"]]
    # g = 1/2 under the unit convention: the two quasi-parity towers
    # interleave into consecutive odd integers
    assert ea == pytest.approx([1.0, 3.0, 5.0, 7.0])
    assert all(row["E_analytic"][1] == 0.0 for row in doc["rows"])
    # alpha = 1 means unit mass: the numeric oracle sees the reference
    # problem itself, so the gaps sit at the stencil truncation level
    assert all(row["gap"] < 5e-3 for row in doc["rows"])
    assert all(row["real"] for row in doc["rows"])


@pytest.mark.parametrize("command", ["spectrum", "wavefunction"])
def test_scarf_at_integer_t_exits_0(runner, command):
    # t = sqrt(1/4 + lambda + mu) = 3: a bound state where Gamma(n - 2p + 1/4) has a pole
    res = runner.invoke(main, [command, "--reference", "scarf", "--lambda", "8.5314",
                               "--mu", "0.2186", "--levels", "1"])
    assert res.exit_code == 0, res.output


def test_spectrum_csv_format(runner):
    res = runner.invoke(main, ["spectrum", *FAST, "--format", "csv"])
    assert res.exit_code == 0, res.output
    lines = [l for l in res.output.strip().split("\n") if not l.startswith("#")]
    assert lines[0] == "n,q,Ea_re,Ea_im,En_re,En_im,gap,real"
    assert len(lines) == 1 + 4
    first = lines[1].split(",")
    assert float(first[2]) == pytest.approx(1.0)


def test_spectrum_deterministic_output(runner, tmp_path):
    a = runner.invoke(main, ["spectrum", *FAST]).output
    b = runner.invoke(main, ["spectrum", *FAST]).output
    assert a == b  # byte identical
    out = tmp_path / "spec.json"
    res = runner.invoke(main, ["spectrum", *FAST, "--out", str(out)])
    assert res.exit_code == 0
    # file output embeds its own --out path in the echoed config; the rows
    # themselves must be identical to the stdout run
    assert json.loads(out.read_text())["rows"] == json.loads(a)["rows"]


def test_spectrum_scarf_level_out_of_range(runner):
    res = runner.invoke(main, ["spectrum", "--reference", "scarf",
                               "--levels", "0..5", "--N", "301"])
    assert res.exit_code == 2
    assert "out of Scarf bound range" in res.output
    assert "(s+t-1)/2" in res.output


def test_wavefunction_second_scarf_branch_has_its_own_energy(runner):
    # (+, -) at lambda = 5.25, mu = 5.4 is bound (t - s > 1); its psi was once
    # paired with the (+, +) energy -1.71314 and left a residual of 2.57e-1
    res = runner.invoke(main, ["wavefunction", "--reference", "scarf", "--lambda", "5.25",
                               "--mu", "5.4", "--sign-q", "-1", "--levels", "0",
                               "--L", "12", "--N", "2401"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["E"][0] == pytest.approx(-0.98534, abs=1e-5)
    assert doc["residual"] <= 1e-3


def test_spectrum_scarf_branch_level_out_of_range(runner):
    # (+, -) holds one bound level here: n < (t-s-1)/2 = 0.9926
    res = runner.invoke(main, ["spectrum", "--reference", "scarf", "--lambda", "5.25",
                               "--mu", "5.4", "--sign-q", "-1", "--levels", "0..1",
                               "--N", "301"])
    assert res.exit_code == 2
    assert "need n < (t-s-1)/2 = 0.99" in res.output


def test_spectrum_matches_levels_above_the_sixteenth_eigenvalue(runner):
    # 18 rows: the two highest sit above the 16th oracle eigenvalue and
    # must still be paired with their own eigenvalue, not the 16th
    res = runner.invoke(main, ["spectrum", "--reference", "oscillator", "--g", "0.75",
                               "--eps", "0.5", "--levels", "0..8", "--N", "301",
                               "--L", "10"])
    assert res.exit_code == 0, res.output
    rows = json.loads(res.output)["rows"]
    assert len(rows) == 18
    assert all(row["gap"] < 0.2 for row in rows)


# ---------------------------------------------------------------------------
# usage errors


@pytest.mark.parametrize("argv", [
    ["spectrum", "--levels", "banana"],
    ["spectrum", "--levels", "3..1"],
    ["spectrum", "--levels", "-2"],
    ["spectrum", "--alpha", "-1"],
    ["spectrum", "--case", "c"],
    ["spectrum", "--N", "2"],
    ["spectrum", "--L", "0"],
    ["spectrum", "--L", "nan"],
    ["spectrum", "--convention", "planck"],
    ["potential", "--case", "b", "--gamma", "0"],
    ["potential", "--k", "-1"],
    ["potential", "--case", "b", "--gamma", "-2"],   # default k = 2/gamma < 0
    ["spectrum", "--k", "0"],
])
def test_usage_errors_exit_2(runner, argv):
    res = runner.invoke(main, argv)
    assert res.exit_code == 2, f"{argv}: {res.output}"


def test_config_file_and_flag_precedence(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 1.0, "g": 0.5, "L": 8.0,
                               "N": 601, "levels": "0..1"}))
    res = runner.invoke(main, ["spectrum", "--config", str(cfg), "--N", "401"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["config"]["N"] == 401      # flag wins
    assert doc["config"]["alpha"] == pytest.approx(1.0)  # file applies

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alfa": 1.0}))
    res = runner.invoke(main, ["spectrum", "--config", str(bad)])
    assert res.exit_code == 2
    assert "unknown config keys" in res.output

    res = runner.invoke(main, ["spectrum", "--config", str(tmp_path / "none.json")])
    assert res.exit_code == 2


def test_config_file_bad_value_is_usage_error(runner, tmp_path):
    for doc, msg in (({"case": "b", "gamma": "abc"}, "could not convert"),
                     ({"case": "b", "gamma": 0}, "--gamma must be nonzero"),
                     ({"k": -0.5}, "exponent_k must be > 0")):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        res = runner.invoke(main, ["potential", "--config", str(cfg)])
        assert res.exit_code == 2, res.output
        assert msg in res.output


# ---------------------------------------------------------------------------
# potential / wavefunction


def test_potential_unit_mass_equals_reference_profile(runner):
    res = runner.invoke(main, ["potential", "--alpha", "1", "--g", "0.5",
                               "--L", "6", "--N", "201", "--levels", "0"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    v = np.array(doc["potential"]["values"])
    om = np.array(doc["omega"]["values"])
    # alpha = 1: the transformation is the identity, V(x) == Omega(x)
    assert np.max(np.abs(v - om)) < 1e-10
    assert doc["pt_defect"] < 1e-10


def test_wavefunction_residual_and_csv(runner):
    res = runner.invoke(main, ["wavefunction", "--alpha", "1", "--g", "0.5",
                               "--L", "6", "--N", "601", "--levels", "0"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["residual"] < 1e-3
    psi = np.array(doc["psi"]["values"])
    phi = np.array(doc["phi"]["values"])
    assert np.max(np.abs(psi - phi)) < 1e-12  # unit mass: Psi == phi

    res = runner.invoke(main, ["wavefunction", "--alpha", "1", "--g", "0.5",
                               "--L", "6", "--N", "201", "--levels", "0",
                               "--format", "csv"])
    assert res.exit_code == 0
    lines = res.output.strip().split("\n")
    assert any(l.startswith("# residual:") for l in lines)
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "x,psi_re,psi_im,y,phi_re,phi_im"


def test_wavefunction_gaussian_ground_state(runner):
    # g = 1/2: no centrifugal term, phi_0 is a shifted Gaussian in z = y - i eps
    res = runner.invoke(main, ["wavefunction", "--alpha", "1", "--g", "0.5",
                               "--eps", "0.5", "--L", "6", "--N", "241",
                               "--levels", "0"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    y = np.array(doc["phi"]["y"])
    phi = np.array(doc["phi"]["values"])[:, 0] + 1j * np.array(doc["phi"]["values"])[:, 1]
    i0 = np.argmin(np.abs(y))
    z = y - 0.5j
    expected = np.exp(-z ** 2 / 2.0)
    got = phi * (expected[i0] / phi[i0])
    assert np.max(np.abs(got - expected)) < 1e-10


# ---------------------------------------------------------------------------
# verify wiring (cheap stubs; the full run is exercised in the acceptance suite)


def _stub_checks(passed):
    def fake_adjudicate_convention(checks):
        checks.append({"name": "convention-adjudication", "passed": True,
                       "adjudicated": "unit", "results": {}})
        return "unit", None

    def fake_adjudicate_scarf(checks, res):
        checks.append({"name": "scarf-formula", "passed": True,
                       "matched": "corrected", "outcome": {}})
        return "corrected"

    def fake_round_trip(checks):
        checks.append({"name": "round-trip", "passed": True, "sup_norm": 0.0})

    def fake_transport(checks, beta_override):
        checks.append({"name": "transport-residual", "passed": passed,
                       "worst_residual": 0.0, "worst_control_ratio": 1e9,
                       "cases": [], "beta_override": beta_override})

    return (fake_adjudicate_convention, fake_adjudicate_scarf,
            fake_round_trip, fake_transport)


def _patch_verify(monkeypatch, passed):
    conv, scarf, rt, tr = _stub_checks(passed)
    monkeypatch.setattr(cli, "_adjudicate_convention", conv)
    monkeypatch.setattr(cli, "_adjudicate_scarf_formula", scarf)
    monkeypatch.setattr(cli, "_check_round_trip", rt)
    monkeypatch.setattr(cli, "_check_transport", tr)


def test_verify_pass_writes_conventions(runner, tmp_path, monkeypatch):
    _patch_verify(monkeypatch, passed=True)
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--out", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["convention_adjudicated"] == "unit"
    conv = json.loads((tmp_path / "CONVENTIONS.json").read_text())
    assert conv["adjudicated_convention"] == "unit"
    assert conv["scarf_energy_formula"] == "corrected"
    assert conv["branch_default"] == {"sign_p": 1, "sign_q": 1}
    assert "PASS convention-adjudication" in res.output


def test_verify_failure_exits_1(runner, tmp_path, monkeypatch):
    _patch_verify(monkeypatch, passed=False)
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--out", str(out)])
    assert res.exit_code == 1
    assert json.loads(out.read_text())["passed"] is False
    assert "FAIL transport-residual" in res.output


def test_verify_beta_override_is_threaded(runner, tmp_path, monkeypatch):
    _patch_verify(monkeypatch, passed=True)
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--case-a-beta", "0.6", "--out", str(out)])
    assert res.exit_code == 0
    report = json.loads(out.read_text())
    tr = [c for c in report["checks"] if c["name"] == "transport-residual"][0]
    assert tr["beta_override"] == pytest.approx(0.6)


def test_transport_beta_override_inflates_residual():
    # unit-level: overriding the case-a exponent must blow up the residual
    checks_good: list = []
    checks_bad: list = []
    cli._check_transport(checks_good, None)
    cli._check_transport(checks_bad, 0.6)
    good = [c for c in checks_good[0]["cases"] if c["scheme"] == "case-a"]
    bad = [c for c in checks_bad[0]["cases"] if c["scheme"] == "case-a"]
    for g, b in zip(good, bad):
        assert b["residual"] > 1e3 * g["residual"]


def test_version_flag(runner):
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0
    assert "pdm-spectra" in res.output
