"""Per-operation output checks.

Each check parses one operation's output, raises ``CheckFailed`` with a reason
when the output is wrong, and otherwise returns the accuracy figures it saw
(``gap``: worst |E_numeric - E_closed-form|; ``residual``: worst residual
certificate of an analytic Psi on the finite-difference operator).

Tolerances:

* ``gap_tolerance`` is grid-honest: the second-order stencil leaves an
  eigenvalue error ~ h^2 (1 + |E|) scaled by the squared coordinate
  compression max(1, alpha)^2, and divided by the squared distance D to the
  other quasi-parity tower when D < 1 (oscillator levels near a tower
  crossing, an exceptional point, converge with a larger constant: at
  g = 1.1167, D = 0.47, the n=1 level kept 4.5x the plain estimate at N=601
  and 5.6x at N=1201). Over 500 rows drawn by the spectrum-scan generator on
  N=301 grids the plain ratio gap / (h^2 (1+|E|) max(1,alpha)^2) stayed below
  1.02 away from crossings, hence GAP_FACTOR = 4. The tolerance is then
  capped at half the distance from the level to the nearest other
  closed-form level (``level_distance``), so a row matched to a neighbouring
  level fails whatever the grid.
* ``rounding_tolerance`` bounds an eigenpair residual ||A x - lambda x||/||x||
  by RESIDUAL_FACTOR * machine epsilon * ||A||_inf. The residuals are
  recomputed here from the returned eigenvectors (``check_eigenvectors``),
  not taken from the solver's own certificates.
"""

from __future__ import annotations

import json
import math

import numpy as np

GAP_FACTOR = 4.0
RESIDUAL_FACTOR = 1e3
EPS = 2.220446049250313e-16
PT_DEFECT_MAX = 1e-10
PT_COMMUTATION_MAX = 1e-12  # the bound the verify suite applies


class CheckFailed(Exception):
    pass


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def tower_distance(reference: str, g: float | None, convention: str) -> float:
    """Energy distance between the oscillator's two quasi-parity towers.

    E(n, q) = 4n + 2 - 2qg under UNIT (half that under HALF), so the towers
    sit 4 dist(g, Z) apart and cross at integer g. Scarf II has one tower.
    """
    if reference != "oscillator":
        return math.inf
    return 4.0 * abs(g - round(g)) * (1.0 if convention == "unit" else 0.5)


def level_distance(reference: str, energy: complex, n: int, q: int | None,
                   g: float | None, convention: str) -> float:
    """Distance from level n (quasi-parity q) to the nearest other closed-form level.

    Oscillator: E(n', q') = 4n' + 2 - 2q'g for n' >= 0 and q' = +-1 (UNIT).
    Scarf II has one tower, E_n = -kappa_n^2 with kappa_(n+1) = kappa_n - 1:
    level n+1 lies 2 kappa_n - 1 above, or, when it is not bound
    (kappa_n <= 1), the continuum edge 0 lies kappa_n^2 above. Level n-1 lies
    further away, 2 kappa_n + 1 below.
    """
    scale = 1.0 if convention == "unit" else 0.5
    if reference == "oscillator":
        level = lambda m, p: 4.0 * m + 2.0 - 2.0 * p * g
        others = [level(m, p) for m in range(n + int(abs(g)) + 3) for p in (1, -1)
                  if (m, p) != (n, q)]
        return scale * min(abs(level(n, q) - e) for e in others)
    kappa = math.sqrt(max(0.0, -energy.real / scale))
    return scale * (2.0 * kappa - 1.0 if kappa > 1.0 else kappa * kappa)


def gap_tolerance(h: float, energy: complex, alpha: float, tower: float = math.inf,
                  spacing: float = math.inf) -> float:
    tol = (GAP_FACTOR * h * h * (1.0 + abs(energy)) * max(1.0, alpha) ** 2
           / min(1.0, tower) ** 2)
    return min(tol, 0.5 * spacing)


def rounding_tolerance(norm_a: float) -> float:
    return RESIDUAL_FACTOR * EPS * norm_a


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _pair(v) -> complex:
    require(isinstance(v, list) and len(v) == 2 and all(map(_finite, v)),
            f"not a finite [re, im] pair: {v!r}")
    return complex(v[0], v[1])


def _json(text: str, schema: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None
    require(isinstance(doc, dict), "output is not a JSON object")
    require(doc.get("schema") == schema, f"schema {doc.get('schema')!r} != {schema!r}")
    require(isinstance(doc.get("config"), dict), "config echo missing")
    return doc


def check_spectrum(text: str, rows: int) -> dict:
    doc = _json(text, "pdm-spectra/spectrum/v1")
    cfg = doc["config"]
    h = 2.0 * cfg["L"] / (cfg["N"] - 1)
    tower = tower_distance(cfg["reference"], cfg["g"], cfg["convention"])
    require(isinstance(doc.get("rows"), list) and len(doc["rows"]) == rows,
            f"expected {rows} rows")
    worst = 0.0
    for row in doc["rows"]:
        require(set(row) == {"n", "q", "E_analytic", "E_numeric", "gap", "real"},
                f"row keys {sorted(row)}")
        ea, en = _pair(row["E_analytic"]), _pair(row["E_numeric"])
        gap = abs(en - ea)
        require(_finite(row["gap"]) and abs(row["gap"] - gap) <= 1e-9 * max(1.0, gap),
                f"n={row['n']}: reported gap {row['gap']} != |E_numeric - E_analytic| = {gap}")
        spacing = level_distance(cfg["reference"], ea, row["n"], row["q"], cfg["g"],
                                 cfg["convention"])
        tol = gap_tolerance(h, ea, cfg["alpha"], tower, spacing)
        require(gap <= tol, f"n={row['n']} q={row['q']}: gap {gap:.3e} > tolerance {tol:.3e}")
        worst = max(worst, gap)
    return {"gap": worst}


def _csv_body(text: str, columns: int, n_points: int) -> dict:
    """Comment values ('# key: value') of a CSV output; checks the data rows."""
    lines = text.rstrip("\n").split("\n")
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    require(len(body) == n_points + 1, f"expected header + {n_points} rows, got {len(body)}")
    require(len(body[0].split(",")) == columns, f"header {body[0]!r}")
    for ln in body[1:]:
        fields = ln.split(",")
        require(len(fields) == columns, f"row {ln!r}")
        try:
            require(all(math.isfinite(float(f)) for f in fields), f"non-finite row {ln!r}")
        except ValueError:
            raise CheckFailed(f"non-numeric row {ln!r}") from None
    found = {}
    for ln in comments:
        key, _, value = ln[1:].strip().partition(":")
        found[key.strip()] = value.strip()
    return found


def _samples(field: dict, n_points: int, what: str) -> None:
    require(isinstance(field, dict) and isinstance(field.get("values"), list)
            and len(field["values"]) == n_points, f"{what}: expected {n_points} samples")
    for v in field["values"]:
        _pair(v)


def check_potential(text: str, fmt: str, n_points: int) -> dict:
    if fmt == "json":
        doc = _json(text, "pdm-spectra/potential/v1")
        _pair(doc.get("E"))
        _samples(doc.get("potential"), n_points, "potential")
        _samples(doc.get("omega"), n_points, "omega")
        defect = doc.get("pt_defect")
    else:
        found = _csv_body(text, 6, n_points)
        try:
            defect = float(found.get("pt_defect", "nan"))
        except ValueError:
            defect = math.nan
    require(_finite(defect) and defect < PT_DEFECT_MAX, f"pt_defect {defect!r}")
    return {}


def check_wavefunction(text: str, fmt: str, n_points: int) -> dict:
    if fmt == "json":
        doc = _json(text, "pdm-spectra/wavefunction/v1")
        _pair(doc.get("E"))
        _samples(doc.get("psi"), n_points, "psi")
        _samples(doc.get("phi"), n_points, "phi")
        res = doc.get("residual")
    else:
        found = _csv_body(text, 6, n_points)
        try:
            res = float(found.get("residual", "nan"))
        except ValueError:
            res = math.nan
    require(_finite(res) and res >= 0.0, f"residual {res!r}")
    return {"residual": res}


def check_verify(report_text: str, conventions_text: str) -> dict:
    doc = _json(report_text, "pdm-spectra/verify/v1")
    require(doc.get("passed") is True, "verify did not pass: " + ", ".join(
        c.get("name", "?") for c in doc.get("checks", []) if not c.get("passed")))
    conv = doc.get("convention_adjudicated")
    try:
        conventions = json.loads(conventions_text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"CONVENTIONS.json is not JSON: {exc}") from None
    require(conventions.get("adjudicated_convention") == "unit" and conv == "unit",
            f"adjudicated convention {conventions.get('adjudicated_convention')!r}")
    require(conventions.get("scarf_energy_formula") == "corrected",
            f"Scarf formula {conventions.get('scarf_energy_formula')!r}")
    checks = {c["name"]: c for c in doc["checks"]}
    gaps = [m["gap"] for d in checks["convention-adjudication"]["results"][conv]["details"]
            for m in d["report"]["matched"]]
    residuals = [c["residual"] for c in checks["transport-residual"]["cases"]]
    require(gaps and all(map(_finite, gaps)), "no finite spectrum gaps in the report")
    require(residuals and all(map(_finite, residuals)), "no finite transport residuals")
    return {"gap": max(gaps), "residual": max(residuals)}


def check_eigenvectors(matrix, eigenvalues, eigenvectors, reported) -> None:
    """Every returned eigenpair at rounding level, by residuals computed here.

    ``matrix`` is the interior operator and ``eigenvectors`` its interior
    columns; ``reported`` are the solver's own certificates, which must be at
    rounding level too.
    """
    matrix, vals, vecs = np.asarray(matrix), np.asarray(eigenvalues), np.asarray(eigenvectors)
    require(vecs.shape == (matrix.shape[0], len(vals)) and len(reported) == len(vals),
            f"eigenvectors of shape {vecs.shape} for {len(vals)} eigenvalues")
    rtol = rounding_tolerance(float(np.abs(matrix).sum(axis=1).max()))
    norms = np.linalg.norm(vecs, axis=0)
    require(bool(np.all(norms > 0.0)), "zero eigenvector")
    residuals = np.linalg.norm(matrix @ vecs - vecs * vals[None, :], axis=0) / norms
    for j, (r, rep) in enumerate(zip(residuals, reported)):
        require(math.isfinite(r) and r <= rtol,
                f"eigenpair {j}: residual {r:.3e} > {rtol:.3e} (rounding level)")
        require(_finite(float(rep)) and rep <= rtol,
                f"eigenpair {j}: reported residual {float(rep):.3e} > {rtol:.3e}")


def check_eigenpairs(eigenvalues, energy: complex, tol: float, k: int,
                     analytic_residual: float, pt_commutation: float,
                     compare_passed: bool) -> dict:
    """Library request: k eigenvalues, the closed-form level among them.

    A target potential can hold eigenvalues below the level it transports
    (conjugate pairs of the target operator), so the level is expected among
    the k returned only when its real part lies inside their range.
    """
    require(len(eigenvalues) == k, f"expected {k} eigenvalues")
    require(_finite(analytic_residual), f"analytic residual {analytic_residual!r}")
    require(pt_commutation < PT_COMMUTATION_MAX, f"PT commutation defect {pt_commutation!r}")
    if energy.real > max(complex(e).real for e in eigenvalues):
        return {"residual": analytic_residual}
    gap = min(abs(complex(e) - energy) for e in eigenvalues)
    require(gap <= tol, f"closed-form level: gap {gap:.3e} > tolerance {tol:.3e}")
    require(compare_passed, "spectrum_compare did not match the closed-form level")
    return {"gap": gap, "residual": analytic_residual}
