"""Golden corpus of CLI outputs: record one checkout's outputs, diff two recordings.

    python3 tools/golden.py record DIR
    python3 tools/golden.py diff A B

``record`` runs every invocation in ``INVOCATIONS`` against the ``src/`` of the
checkout this file sits in, each in its own directory ``DIR/<name>/``, and
keeps its ``stdout``, ``stderr`` and ``exit_code`` there beside any file the
command wrote (``--out`` targets, ``CONVENTIONS.json``) and the config file it
read. BLAS runs on one thread, because the last bits of an eigensolve depend
on the thread count. One recording takes a few minutes, most of it the two
``verify`` runs.

``diff`` compares two recordings file by file and prints every file that
differs or exists on one side only. Within a differing file it prints each
JSON path, each CSV cell (line, column name) or each other line whose text
differs, with both values. It exits 0 when the recordings are identical and
1 otherwise.

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
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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


def _json_diffs(a, b, path: str):
    if isinstance(a, dict) and isinstance(b, dict) and list(a) == list(b):
        for key in a:
            yield from _json_diffs(a[key], b[key], f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_diffs(x, y, f"{path}[{i}]")
    elif json.dumps(a) != json.dumps(b):
        yield path or "(root)", json.dumps(a), json.dumps(b)


def _text_diffs(a: str, b: str):
    la, lb = a.splitlines(), b.splitlines()
    # CSV when every line that is not a '#' comment has the same number of fields
    rows = [line for line in la if not line.startswith("#")]
    width = rows[0].count(",") if rows else 0
    header = rows[0].split(",") if width and all(r.count(",") == width for r in rows) else None
    for i in range(max(len(la), len(lb))):
        x = la[i] if i < len(la) else "(missing)"
        y = lb[i] if i < len(lb) else "(missing)"
        if x == y:
            continue
        ca, cb = x.split(","), y.split(",")
        if header and not x.startswith("#") and len(ca) == len(cb) == len(header):
            for col, u, v in zip(header, ca, cb):
                if u != v:
                    yield f"line {i + 1}, {col}", u, v
        else:
            yield f"line {i + 1}", x, y


def _file_diffs(a: bytes, b: bytes):
    try:
        yield from _json_diffs(json.loads(a), json.loads(b), "")
    except ValueError:
        yield from _text_diffs(a.decode(errors="replace"), b.decode(errors="replace"))


def diff(a: Path, b: Path) -> int:
    files = sorted({p.relative_to(a) for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b) for p in b.rglob("*") if p.is_file()})
    differing = 0
    for rel in files:
        fa, fb = a / rel, b / rel
        if not (fa.is_file() and fb.is_file()):
            print(f"{rel}: only in {a if fa.is_file() else b}")
            differing += 1
            continue
        da, db = fa.read_bytes(), fb.read_bytes()
        if da == db:
            continue
        differing += 1
        print(f"{rel}: differs")
        for where, x, y in _file_diffs(da, db):
            print(f"  {where}: {x} | {y}")
    print(f"{len(files)} files compared, {differing} differ")
    return 1 if differing else 0


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
