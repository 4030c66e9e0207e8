"""Tests of the benchmark's own logic: generator, output checks, span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks, trace, workloads  # noqa: E402


def _take(workload, seed, n=24):
    return list(itertools.islice(workloads.operations(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert _take(workload, 7) == _take(workload, 7)
    if workload != "verify-suite":  # fixed suite: the seed does not reach it
        assert _take(workload, 7) != _take(workload, 8)


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        next(workloads.operations("nope", 1))


@pytest.mark.parametrize("workload", ["spectrum-scan", "eigenpairs", "transport-sample"])
def test_drawn_problems_are_physical(workload):
    for seed in range(20):
        for op in _take(workload, seed, 12):
            p = op.get("problem")
            if p is None:  # CLI op: read the problem back from its arguments
                a = op["args"]
                p = {a[i][2:]: a[i + 1] for i in range(1, len(a) - 1, 2)}
                p = {k: (v if k in ("case", "reference", "levels", "format") else float(v))
                     for k, v in p.items()}
                lo, _, hi = p["levels"].partition("..")
                levels = range(int(lo), int(hi or lo) + 1)
            else:
                levels = range(p["levels"][0], p["levels"][1] + 1)
            assert p["alpha"] > 0 and p["L"] > 0
            if p["reference"] == "scarf":
                s, t = workloads.scarf_st(p["lambda"], p["mu"])
                assert all(n < (s + t - 1) / 2 for n in levels)
                assert all(workloads.scarf_kappa(p["lambda"], p["mu"], n) >= 1.0 for n in levels)
            else:
                assert p["g"] != round(p["g"]) and p["eps"] != 0
                assert max(levels) < workloads.OSC_LEVELS


def test_transport_cycle_mixes_quadrature_and_closed_form():
    cycle = _take("transport-sample", 3, len(workloads._TRANSPORT_CYCLE))
    quad = [op for op in cycle if op["quadrature"]]
    assert len(quad) == 3 and all("--k" in op["args"] for op in quad)
    assert cycle[-1]["last_in_cycle"] and not any(op["last_in_cycle"] for op in cycle[:-1])


def _spectrum_text(e_analytic, e_numeric, alpha=2.0, L=10.0, N=601, g=1.0):
    gap = abs(complex(*e_numeric) - complex(*e_analytic))
    return json.dumps({
        "schema": "pdm-spectra/spectrum/v1",
        "config": {"alpha": alpha, "L": L, "N": N, "reference": "scarf", "g": g,
                   "convention": "unit"},
        "rows": [{"n": 0, "q": None, "E_analytic": e_analytic, "E_numeric": e_numeric,
                  "gap": gap, "real": True}],
    })


def test_spectrum_check_flags_perturbed_eigenvalue():
    ea = [-4.0, 0.0]
    assert checks.check_spectrum(_spectrum_text(ea, [-4.0 + 1e-4, 0.0]), 1)["gap"] == pytest.approx(1e-4)
    with pytest.raises(checks.CheckFailed, match="tolerance"):
        checks.check_spectrum(_spectrum_text(ea, [-3.5, 0.0]), 1)
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.check_spectrum(_spectrum_text(ea, [-4.0, 0.0]), 2)


def test_gap_tolerance_widens_only_near_a_tower_crossing():
    plain = checks.gap_tolerance(0.02, 4.0, 2.0)
    assert checks.tower_distance("scarf", 1.0, "unit") == math.inf
    assert checks.tower_distance("oscillator", 1.5, "unit") == pytest.approx(2.0)
    assert checks.gap_tolerance(0.02, 4.0, 2.0, 2.0) == plain
    near = checks.tower_distance("oscillator", 1.1, "unit")
    assert near == pytest.approx(0.4)
    assert checks.gap_tolerance(0.02, 4.0, 2.0, near) == pytest.approx(plain / 0.16)


def test_level_distance():
    # oscillator, UNIT: E(n, q) = 4n + 2 - 2qg
    assert checks.level_distance("oscillator", 11.8, 3, 1, 1.1, "unit") == pytest.approx(0.4)
    assert checks.level_distance("oscillator", 0.8, 0, 1, 0.6, "unit") == pytest.approx(2.4)
    assert checks.level_distance("oscillator", 0.4, 0, 1, 0.6, "half") == pytest.approx(1.2)
    # Scarf II: kappa = 3 -> level n+1 at -4, 5 above; kappa = 0.8 -> continuum edge
    assert checks.level_distance("scarf", -9.0 + 0j, 2, None, 1.0, "unit") == pytest.approx(5.0)
    assert checks.level_distance("scarf", -0.64 + 0j, 2, None, 1.0, "unit") == pytest.approx(0.64)


def test_spectrum_check_flags_a_match_to_the_other_tower():
    """At g = 1.1 the towers sit 0.4 apart; a coarse grid must not widen the
    tolerance so far that the other tower's level passes for this one."""
    g, alpha, L, N = 1.1, 3.0, 7.7, 601
    e3 = 4.0 * 3 + 2.0 - 2.0 * g           # n=3, q=+1: 11.8
    other = 4.0 * 2 + 2.0 + 2.0 * g        # n=2, q=-1: 12.2
    h = 2.0 * L / (N - 1)
    plain = checks.gap_tolerance(h, e3, alpha, checks.tower_distance("oscillator", g, "unit"))
    assert plain > 0.4  # without the cap the wrong level would pass
    doc = {
        "schema": "pdm-spectra/spectrum/v1",
        "config": {"alpha": alpha, "L": L, "N": N, "reference": "oscillator", "g": g,
                   "convention": "unit"},
        "rows": [{"n": 3, "q": 1, "E_analytic": [e3, 0.0], "E_numeric": [other, 0.0],
                  "gap": abs(other - e3), "real": True}],
    }
    with pytest.raises(checks.CheckFailed, match="tolerance 2.000e-01"):
        checks.check_spectrum(json.dumps(doc), 1)
    doc["rows"][0]["E_numeric"] = [e3 + 0.05, 0.0]
    doc["rows"][0]["gap"] = 0.05
    assert checks.check_spectrum(json.dumps(doc), 1)["gap"] == pytest.approx(0.05)


def test_spectrum_check_flags_a_misreported_gap():
    doc = json.loads(_spectrum_text([-4.0, 0.0], [-4.0 + 1e-4, 0.0]))
    doc["rows"][0]["gap"] = 1e-9
    with pytest.raises(checks.CheckFailed, match="reported gap"):
        checks.check_spectrum(json.dumps(doc), 1)


def _eigensystem(n=12):
    """A small non-symmetric matrix with its exact eigenpairs."""
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    vals, vecs = np.linalg.eig(matrix)
    reported = np.linalg.norm(matrix @ vecs - vecs * vals, axis=0)
    return matrix, vals, vecs, reported


def test_eigenvector_check_recomputes_residuals():
    matrix, vals, vecs, reported = _eigensystem()
    checks.check_eigenvectors(matrix, vals, vecs, reported)
    # a perturbed eigenvector fails although the solver's own residual is unchanged
    bad = vecs.copy()
    bad[3, 5] += 1e-6
    with pytest.raises(checks.CheckFailed, match="eigenpair 5: residual"):
        checks.check_eigenvectors(matrix, vals, bad, reported)
    bad_vals = vals.copy()
    bad_vals[2] += 1e-7
    with pytest.raises(checks.CheckFailed, match="eigenpair 2: residual"):
        checks.check_eigenvectors(matrix, bad_vals, vecs, reported)
    bad_rep = reported.copy()
    bad_rep[4] = 1e-8
    with pytest.raises(checks.CheckFailed, match="eigenpair 4: reported residual"):
        checks.check_eigenvectors(matrix, vals, vecs, bad_rep)
    with pytest.raises(checks.CheckFailed, match="shape"):
        checks.check_eigenvectors(matrix, vals, vecs[:, :-1], reported)


def test_eigenpairs_check_flags_perturbed_eigenvalue():
    vals = [complex(1.0 + j, 0.0) for j in range(8)]
    args = dict(energy=3.0 + 1e-5j, tol=1e-3, k=8, analytic_residual=1e-3,
                pt_commutation=0.0, compare_passed=True)
    assert checks.check_eigenpairs(vals, **args)["residual"] == 1e-3
    with pytest.raises(checks.CheckFailed, match="closed-form level"):
        checks.check_eigenpairs(vals, **dict(args, energy=3.5 + 0j))
    # a level above the k returned eigenvalues is not expected among them
    assert "gap" not in checks.check_eigenpairs(vals, **dict(args, energy=9.5 + 0j))
    with pytest.raises(checks.CheckFailed, match="expected 8"):
        checks.check_eigenpairs(vals[:-1], **args)
    with pytest.raises(checks.CheckFailed, match="spectrum_compare"):
        checks.check_eigenpairs(vals, **dict(args, compare_passed=False))
    with pytest.raises(checks.CheckFailed, match="analytic residual"):
        checks.check_eigenpairs(vals, **dict(args, analytic_residual=math.nan))
    with pytest.raises(checks.CheckFailed, match="commutation"):
        checks.check_eigenpairs(vals, **dict(args, pt_commutation=1e-9))


def test_wavefunction_csv_check_counts_samples():
    rows = "\n".join("0.0,1.0,0.0,0.0,1.0,0.0" for _ in range(5))
    text = "# config: {}\n# n: 0\n# residual: 1.0e-03\nx,psi_re,psi_im,y,phi_re,phi_im\n" + rows + "\n"
    assert checks.check_wavefunction(text, "csv", 5) == {"residual": 1e-3}
    with pytest.raises(checks.CheckFailed, match="expected header"):
        checks.check_wavefunction(text, "csv", 6)
    with pytest.raises(checks.CheckFailed, match="residual"):
        checks.check_wavefunction(text.replace("1.0e-03", "nan"), "csv", 5)


def _verify_texts(passed=True, adjudicated="unit", formula="corrected"):
    report = {
        "schema": "pdm-spectra/verify/v1", "config": {}, "passed": passed,
        "convention_adjudicated": adjudicated,
        "checks": [
            {"name": "convention-adjudication", "passed": True, "results": {adjudicated: {
                "details": [{"report": {"matched": [{"gap": 1e-4}, {"gap": 3e-4}]}}]}}},
            {"name": "transport-residual", "passed": passed, "cases": [{"residual": 2e-3}]},
        ],
    }
    conventions = {"adjudicated_convention": adjudicated, "scarf_energy_formula": formula}
    return json.dumps(report), json.dumps(conventions)


def test_verify_check_flags_failed_suite_and_wrong_conventions():
    assert checks.check_verify(*_verify_texts()) == {"gap": 3e-4, "residual": 2e-3}
    with pytest.raises(checks.CheckFailed, match="did not pass: transport-residual"):
        checks.check_verify(*_verify_texts(passed=False))
    with pytest.raises(checks.CheckFailed, match="adjudicated convention 'half'"):
        checks.check_verify(*_verify_texts(adjudicated="half"))
    with pytest.raises(checks.CheckFailed, match="Scarf formula 'published'"):
        checks.check_verify(*_verify_texts(formula="published"))
    with pytest.raises(checks.CheckFailed, match="not JSON"):
        checks.check_verify(_verify_texts()[0], "{")


def _span(i, name, parent, start, end, **attrs):
    return trace.Span(id=i, name=name, fn=name, op=0, parent=parent, start=start, end=end,
                      attrs=attrs)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        _span(0, "cli", None, 0.0, 10.0, output_bytes=100),
        _span(1, "pct_engine", 0, 1.0, 4.0),
        _span(2, "mass_models", 1, 1.5, 2.0),
        _span(3, "numeric_oracle.eigen_solve", 0, 5.0, 9.0, order=10, k=4, vectors=True),
        _span(4, "numeric_oracle.certify", 3, 6.0, 7.0),
    ]
    assert trace.self_times(spans) == pytest.approx([3.0, 2.5, 0.5, 3.0, 1.0])
    m = trace.layer_metrics(spans, n_ops=2)
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["cli.output_bytes"] == 50
    assert m["pct_engine.self_s"] == pytest.approx(1.25)
    assert m["numeric_oracle.eigen_solve.calls"] == 0.5
    assert m["numeric_oracle.eigen_solve.order_sum"] == 5
    assert m["numeric_oracle.eigen_solve.vector_calls"] == 0.5
    assert m["numeric_oracle.compare.calls"] == 0


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, "cli", None, 0.0, 10.0),
             _span(1, "specfun", 0, 2.0, 6.0),
             _span(2, "specfun", 0, 4.0, 12.0)]
    assert trace.self_times(spans)[0] == pytest.approx(2.0)


def test_tracer_patches_call_sites_and_restores_them():
    from pdm_spectra import GridSpec, cli, numeric_oracle

    original = cli.eigen_solve
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert cli.eigen_solve is not original
        root = tracer.root("request", 0)
        op = numeric_oracle.discretize_const(lambda y: y * y, GridSpec(5.0, 41))
        numeric_oracle.eigen_solve(op, 3, want_vectors=False)
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert cli.eigen_solve is original
    names = [s.name for s in tracer.spans]
    # discretize_const calls discretize_pdm: one assemble span, not two
    assert names == ["request", "numeric_oracle.assemble", "numeric_oracle.eigen_solve"]
    assert tracer.spans[2].attrs == {"order": 39, "k": 3, "vectors": False}
    assert all(s.parent == 0 for s in tracer.spans[1:])


def test_reported_metrics_match_benchmark_json():
    from perfbench import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = [{"index": 0, "wall": 1.0, "ok": True, "reason": None, "gap": 1e-4}]
    e2e, lines = run._end_to_end(records, [0.5, 0.6, 0.7], 100.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()}
    for name in ("op_p90_s", "failed_frac", "max_eig_gap", "max_residual"):
        assert any(ln.startswith(name + " = ") for ln in lines)
    layers = dict(trace.layer_metrics([], 1), **{"trace.overhead_s": 0.0})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: run._unit(k) for k in layers}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
