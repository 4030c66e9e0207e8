"""Golden corpus of CLI outputs: record one checkout's outputs, diff two recordings.

    python3 tools/golden.py record DIR
    python3 tools/golden.py diff A B

``record`` runs every invocation in ``INVOCATIONS`` against the ``src/`` of the
checkout this file sits in, each in its own directory ``DIR/<name>/``, and
keeps its ``stdout``, ``stderr`` and ``exit_code`` there beside any file the
command wrote (``--out`` targets, ``CONVENTIONS.json``) and the config file it
read. BLAS runs on one thread, because the last bits of an eigensolve depend
on the thread count. One recording takes about half a minute on 2 cores.

``diff A B`` compares two recordings file by file, A the parent and B the
change, and prints every file that differs or exists on one side only. Within
a differing file it prints each JSON path, each CSV cell (row, column name) or
each other line whose text differs, with both values, and judges it by the
rule a change to the eigensolver or to the operator's arithmetic must meet:

- an eigenvalue (``E_numeric``; the ``En_re``/``En_im`` CSV columns) may move
  by 32 kappa_j eps ||A||_inf, and its ``gap`` by the same amount, with
  kappa_j = ||x||^2/|x^T x| the condition number of the level of A nearest
  the parent's value (A is complex symmetric, so x is also its left
  eigenvector). The eigenvalues of one table are matched as sets, because a
  conjugate pair may come back in either order;
- a residual (``residual``, ``control_ratio``, ``worst_residual``,
  ``worst_control_ratio``) may move by 4 eps (||A||_inf + |E|), which a
  ratio of two residuals carries into its own relative bound;
- every other byte stays as it is: verdicts, ``real`` flags, level indices,
  exit codes and stderr.

The operator A of each value is rebuilt from the config echo (``spectrum``,
``wavefunction``) or from verify's fixed operators, listed once below. It
exits 0 when the rule holds for every difference and 1 otherwise.

The corpus covers the README commands; ``potential`` and ``wavefunction`` in
JSON and CSV for case a (Scarf, oscillator), case b on the closed-form map
(gamma = 1 and 0.5) and case b on the quadrature map (k = 1.2; Scarf and
oscillator); ``spectrum`` in JSON and CSV (Scarf case b, oscillator case a,
the quadrature map, an 18-row oscillator table); ``spectrum`` and
``wavefunction`` on a Scarf II draw whose t = sqrt(1/4 + lambda + mu) is an
integer (3); three ``--config`` runs with
a flag override; six usage errors; two ``--out`` runs; and ``verify`` with
its negative control.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pdm_spectra import (BranchSelection, GenOscillator, GridSpec, ScarfII,  # noqa: E402
                         SpectrumConvention, build_target_problem, cli, discretize_const,
                         discretize_pdm, eigen_solve, mass_eval, omega_oscillator, omega_scarf)

EPS = np.finfo(float).eps

_CASE_A_SCARF = ["--case", "a", "--reference", "scarf", "--lambda", "5.25", "--mu", "0.25",
                 "--L", "10", "--N", "401", "--levels", "1"]
_CASE_A_OSC = ["--case", "a", "--reference", "oscillator", "--g", "0.75", "--eps", "1",
               "--L", "6", "--N", "401", "--levels", "0"]
_CASE_B_G1 = ["--case", "b", "--gamma", "1", "--reference", "scarf", "--lambda", "8",
              "--mu", "0.25", "--L", "3.2", "--N", "401", "--levels", "0"]
_CASE_B_G05 = ["--case", "b", "--gamma", "0.5", "--reference", "oscillator", "--g", "0.75",
               "--eps", "0.5", "--L", "3", "--N", "401", "--levels", "1"]
_CASE_B_QUAD_SCARF = ["--case", "b", "--gamma", "1", "--k", "1.2", "--reference", "scarf",
                      "--lambda", "8", "--mu", "0.25", "--L", "4", "--N", "301", "--levels", "0"]
_CASE_B_QUAD_OSC = ["--case", "b", "--gamma", "1", "--k", "1.2", "--reference", "oscillator",
                    "--g", "0.75", "--eps", "1", "--L", "3", "--N", "301", "--levels", "0"]
# t = sqrt(1/4 + lambda + mu) = 3 exactly
_SCARF_T3 = ["--reference", "scarf", "--lambda", "8.5314", "--mu", "0.2186", "--levels", "1"]

_SPECTRA = {
    "scarf-b": ["--case", "b", "--gamma", "1", "--alpha", "2", "--reference", "scarf",
                "--lambda", "8", "--mu", "0.25", "--L", "3.2", "--N", "601", "--levels", "0..2"],
    "osc-a": ["--case", "a", "--alpha", "2", "--reference", "oscillator", "--g", "0.5",
              "--eps", "0.5", "--levels", "0..3", "--N", "301"],
    "quad": ["--case", "b", "--gamma", "1", "--k", "1.2", "--reference", "oscillator",
             "--g", "0.75", "--eps", "1", "--L", "4", "--N", "301", "--levels", "0..1"],
    "rows18": ["--reference", "oscillator", "--g", "0.75", "--eps", "0.5", "--levels", "0..8",
               "--N", "301", "--L", "10"],
}

# (name, CLI arguments, config file contents or None); a config is written to
# config.json in the invocation's directory, which is also its working directory
INVOCATIONS: tuple = (
    ("readme-spectrum", ["spectrum", "--case", "a", "--alpha", "2", "--reference", "oscillator",
                         "--g", "0.5", "--eps", "0.5", "--levels", "0..3", "--N", "1201"], None),
    ("readme-potential", ["potential", "--reference", "scarf", "--lambda", "5.25",
                          "--mu", "0.25", "--levels", "0"], None),
    ("readme-wavefunction", ["wavefunction", "--case", "b", "--gamma", "1", "--alpha", "2",
                             "--reference", "scarf", "--lambda", "8", "--mu", "0.25",
                             "--L", "3.2", "--N", "2401", "--levels", "0"], None),
    ("readme-verify", ["verify", "--out", "report.json"], None),
    *((f"{cmd}-{label}-{fmt}", [cmd, *args, "--format", fmt], None)
      for cmd in ("potential", "wavefunction")
      for label, args in (("a-scarf", _CASE_A_SCARF), ("a-osc", _CASE_A_OSC),
                          ("b-g1", _CASE_B_G1), ("b-g05", _CASE_B_G05),
                          ("b-quad-scarf", _CASE_B_QUAD_SCARF),
                          ("b-quad-osc", _CASE_B_QUAD_OSC))
      for fmt in ("json", "csv")),
    *((f"spectrum-{label}-{fmt}", ["spectrum", *args, "--format", fmt], None)
      for label, args in _SPECTRA.items() for fmt in ("json", "csv")),
    *((f"{cmd}-scarf-t3", [cmd, *_SCARF_T3], None) for cmd in ("spectrum", "wavefunction")),
    ("config-potential", ["potential", "--config", "config.json", "--format", "csv"],
     {"case": "b", "gamma": 1, "alpha": 2, "reference": "scarf", "lambda": 8, "mu": 0.25,
      "L": 3.2, "N": 401, "levels": "0"}),
    ("config-spectrum", ["spectrum", "--config", "config.json", "--N", "401"],
     {"reference": "oscillator", "g": 0.75, "eps": 0.5, "levels": "0..2", "N": 301, "L": 10}),
    ("config-wavefunction", ["wavefunction", "--config", "config.json", "--levels", "1"],
     {"case": "a", "reference": "scarf", "lambda": 5.25, "mu": 0.25, "L": 10, "N": 401}),
    ("usage-config-gamma-0", ["potential", "--config", "config.json"], {"case": "b", "gamma": 0}),
    ("usage-config-gamma-abc", ["potential", "--config", "config.json"],
     {"case": "b", "gamma": "abc"}),
    ("usage-flag-gamma-0", ["potential", "--case", "b", "--gamma", "0"], None),
    ("usage-bad-levels", ["spectrum", "--levels", "3..1"], None),
    ("usage-scarf-level", ["spectrum", "--reference", "scarf", "--lambda", "5.25", "--mu", "0.25",
                           "--levels", "0..9"], None),
    ("usage-negative-k", ["potential", "--k", "-1"], None),
    ("out-spectrum", ["spectrum", *_SPECTRA["osc-a"], "--out", "out.json"], None),
    ("out-potential", ["potential", *_CASE_A_OSC, "--format", "csv", "--out", "out.csv"], None),
    ("verify-case-a-beta", ["verify", "--case-a-beta", "0.3", "--out", "report.json"], None),
)


def record(out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for name, args, config in INVOCATIONS:
        cwd = out / name
        cwd.mkdir(parents=True)
        if config is not None:
            (cwd / "config.json").write_text(json.dumps(config))
        done = subprocess.run([sys.executable, "-m", "pdm_spectra.cli", *args], cwd=cwd, env=env,
                              capture_output=True)
        (cwd / "stdout").write_bytes(done.stdout)
        (cwd / "stderr").write_bytes(done.stderr)
        (cwd / "exit_code").write_text(f"{done.returncode}\n")
        print(f"{name}: exit {done.returncode}", file=sys.stderr)


def _parse(data: bytes):
    """A JSON document as it is. Text as a dict of its '# key: value' comment
    lines plus its CSV rows by column name, when every other line has the
    header's width, or else its lines."""
    try:
        return json.loads(data)
    except ValueError:
        pass
    doc, body = {}, []
    for line in data.decode(errors="replace").splitlines():
        key, sep, value = line[2:].partition(": ")
        if line.startswith("# ") and sep:
            doc[key] = value
        else:
            body.append(line)
    header = body[0].split(",") if body else []
    if len(header) > 1 and all(len(line.split(",")) == len(header) for line in body):
        doc["rows"] = [dict(zip(header, line.split(","))) for line in body[1:]]
    else:
        doc["lines"] = body
    return doc


def _leaves(obj, path: str = ""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def _anorm(op) -> float:
    return float(np.max(np.abs(op.lower) + np.abs(op.diag) + np.abs(op.upper)))


def _eigen_bound(op, e: complex) -> float:
    """32 kappa_j eps ||A||_inf for the eigenvalue of op nearest e."""
    x = eigen_solve(op, k=1, sigma=e).eigenvectors[1:-1, 0]
    return 32 * np.linalg.norm(x) ** 2 / abs(x @ x) * EPS * _anorm(op)


def _residual_bound(op, e: complex) -> float:
    return 4 * EPS * (_anorm(op) + abs(e))


def _config(doc: dict):
    echo = doc["config"]
    return cli._resolve(json.loads(echo) if isinstance(echo, str) else dict(echo))


def _operator(cfg, pot, n: int):
    tp = build_target_problem(cfg.scheme, pot, cfg.branch, n, cfg.conv, cfg.grid)
    op = discretize_pdm(lambda x: mass_eval(cfg.mass, x), tp.potential, cfg.grid, cfg.conv)
    return op, tp.energy


def _verify_operator(reference: str, conv: str):
    """An operator of verify's convention adjudication, by its report label."""
    conv = SpectrumConvention(conv)
    params = [float(v) for v in re.findall(r"-?\d+(?:\.\d+)?", reference)]
    if reference.startswith("oscillator"):
        pot = GenOscillator(*params)
        grid = GridSpec(12.0, 2401 if conv is SpectrumConvention.UNIT else 1201)
        return discretize_const(lambda y: omega_oscillator(pot, y), grid, conv)
    scarf = ScarfII(*params)
    return discretize_const(lambda y: omega_scarf(scarf, y), GridSpec(15.0, 1501), conv)


def _complex(flat: dict, pair: tuple) -> complex:
    return complex(float(flat[pair[0]]), float(flat[pair[1]]))


def _eigen_entry(flat: dict, re_path: str, im_path: str, op):
    return (re_path, im_path), _eigen_bound(op, _complex(flat, (re_path, im_path)))


def _spectrum_allowance(doc: dict, flat: dict):
    cfg = _config(doc)
    groups, bounds = [], {}
    for i, (n, _, pot, _) in enumerate(cli._analytic_rows(cfg)):
        p = f"rows[{i}]."
        pair = ((p + "E_numeric[0]", p + "E_numeric[1]") if p + "E_numeric[0]" in flat
                else (p + "En_re", p + "En_im"))
        entry = _eigen_entry(flat, *pair, _operator(cfg, pot, n)[0])
        groups.append([entry])
        bounds[p + "gap"] = entry[1]
    return groups, bounds


def _verify_allowance(doc: dict, flat: dict):
    groups, bounds = [], {}
    for c, check in enumerate(doc["checks"]):
        if check["name"] == "convention-adjudication":
            for conv, result in check["results"].items():
                for d, detail in enumerate(result["details"]):
                    op = _verify_operator(detail["reference"], conv)
                    p = f"checks[{c}].results.{conv}.details[{d}].report."
                    group = []
                    for i in range(len(detail["report"]["matched"])):
                        q = f"{p}matched[{i}]."
                        group.append(_eigen_entry(flat, q + "E_numeric[0]", q + "E_numeric[1]", op))
                        bounds[q + "gap"] = group[-1][1]
                    for i in range(len(detail["report"]["spurious"])):
                        q = f"{p}spurious[{i}]"
                        group.append(_eigen_entry(flat, q + "[0]", q + "[1]", op))
                    groups.append(group)
        elif check["name"] == "transport-residual":
            p = f"checks[{c}]."
            for i, (case, (_, scheme, _, ref, n, L)) in enumerate(
                    zip(check["cases"], cli._transport_cases())):
                conv, grid = SpectrumConvention.UNIT, GridSpec(L, 2401)
                tp = build_target_problem(scheme, ref, BranchSelection(), n, conv, grid)
                op = discretize_pdm(lambda x: mass_eval(scheme.mass, x), tp.potential, grid, conv)
                b = _residual_bound(op, tp.energy)
                # ratio = r_bad / r, each residual moving by at most b
                rb = b * (1 + case["control_ratio"]) / case["residual"]
                bounds[f"{p}cases[{i}].residual"] = b
                bounds[f"{p}cases[{i}].control_ratio"] = rb
                bounds[p + "worst_residual"] = max(b, bounds.get(p + "worst_residual", 0.0))
                bounds[p + "worst_control_ratio"] = max(
                    rb, bounds.get(p + "worst_control_ratio", 0.0))
    return groups, bounds


def _wavefunction_allowance(doc: dict, flat: dict):
    cfg = _config(doc)
    op, energy = _operator(cfg, cfg.ref, cfg.levels[0])
    return [], {"residual": _residual_bound(op, energy)}


def _allowance(doc, flat: dict):
    """(groups, bounds): the eigenvalues of the parent's document, each group a
    list of ((re path, im path), bound) matched as a set, and the bound of
    each scalar field allowed to move."""
    if not isinstance(doc, dict) or "config" not in doc:
        return [], {}
    if "rows[0].E_numeric[0]" in flat or "rows[0].En_re" in flat:
        return _spectrum_allowance(doc, flat)
    if "checks" in doc:
        return _verify_allowance(doc, flat)
    if "residual" in doc:
        return _wavefunction_allowance(doc, flat)
    return [], {}


def _judge(a: bytes, b: bytes):
    """(where, parent value, change value, verdict, holds) per difference."""
    da, db = _parse(a), _parse(b)
    la, lb = dict(_leaves(da)), dict(_leaves(db))
    for path in [*la, *(p for p in lb if p not in la)]:
        if path not in la or path not in lb:
            yield (path or "(value)", json.dumps(la.get(path)), json.dumps(lb.get(path)),
                   "on one side only", False)
    if la.keys() != lb.keys():
        return
    groups, bounds = _allowance(da, la)
    seen = set()
    for group in groups:
        change = [_complex(lb, pair) for pair, _ in group]
        free = list(range(len(change)))
        for pair, bound in group:
            seen.update(pair)
            e = _complex(la, pair)
            j = min(free, key=lambda j: abs(change[j] - e))
            free.remove(j)
            move = abs(change[j] - e)
            shown = [" ".join(str(side[p]) for p in pair) for side in (la, lb)]
            if move or shown[0] != shown[1]:
                yield (pair[0].removesuffix("[0]"), *shown,
                       f"eigenvalue moved {move:.3g}, {move / bound:.3g} of its bound {bound:.3g}",
                       move <= bound)
    for path, x in la.items():
        y = lb[path]
        if path in seen or json.dumps(x) == json.dumps(y):
            continue
        if path in bounds:
            move = abs(float(y) - float(x))
            yield (path, json.dumps(x), json.dumps(y),
                   f"moved {move:.3g}, {move / bounds[path]:.3g} of its bound {bounds[path]:.3g}",
                   move <= bounds[path])
        else:
            yield path or "(value)", json.dumps(x), json.dumps(y), "must not change", False


def diff(a: Path, b: Path) -> int:
    files = sorted({p.relative_to(a) for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b) for p in b.rglob("*") if p.is_file()})
    differing = broken = 0
    for rel in files:
        fa, fb = a / rel, b / rel
        if not (fa.is_file() and fb.is_file()):
            print(f"{rel}: only in {a if fa.is_file() else b}")
            differing += 1
            broken += 1
            continue
        da, db = fa.read_bytes(), fb.read_bytes()
        if da == db:
            continue
        differing += 1
        print(f"{rel}: differs")
        for where, x, y, verdict, holds in _judge(da, db):
            broken += not holds
            print(f"  {where}: {x} | {y}  {'ok' if holds else 'BREAKS THE RULE'}: {verdict}")
    print(f"{len(files)} files compared, {differing} differ, {broken} differences break the rule")
    return 1 if broken else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "record":
        record(Path(argv[1]))
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        return diff(Path(argv[1]), Path(argv[2]))
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
