"""Closed-loop benchmark of pdm-spectra.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One client in one process sends each operation only after the previous one has
completed. An operation is one ``pdm-spectra`` invocation made in-process
through the click entry point, or one library request (``eigenpairs``). Every
output is checked (perfbench/checks.py); a failed check counts as a failed
operation and the run goes on. A run measures whole cycles of the workload's
strata (perfbench/workloads.py) for at least ``--seconds`` seconds.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each
operation untraced and then traced (perfbench/trace.py) and prints the
per-layer metrics per operation, including the tracing overhead (traced minus
untraced wall time); the spans go to
``.perfbench_out/trace-<workload>-seed<seed>.jsonl``. Peak RSS is read after
the first two cycles.

BLAS runs one thread (within the cap of nproc) and no other threads are
started: on a shared 2-core host the same dense eigensolve varied 11%
(sd/mean over 25 repeats) with two BLAS threads and 5.5% with one, and ten
seeded runs of spectrum-scan and eigenpairs spread 12-17% (quartile distance
over median) with two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5     # each in a fresh process
# Peak RSS is read after a fixed amount of work: the resident set of one
# process running many operations keeps growing (~60 MB over 176
# transport-sample operations), so a peak read at the end would charge a
# faster program for the extra operations it fits into the run.
PEAK_RSS_CYCLES = 2
P90_MIN_OPS = 100     # p90 needs ten samples beyond it
BLAS_THREADS = 1


def _set_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Runner:
    """Executes and checks operations; optionally under a tracer."""

    def __init__(self, workdir: Path):
        from click.testing import CliRunner

        from pdm_spectra import cli, mass_models, numeric_oracle, pct_engine

        self.cli, self.mass_models = cli, mass_models
        self.numeric_oracle, self.pct_engine = numeric_oracle, pct_engine
        self.click = CliRunner()
        self.workdir = workdir
        self.tracer = None
        self.peak_rss_mb = 0.0

    def execute(self, op: dict) -> dict:
        """Run one operation; returns wall time, pass/fail and accuracy figures."""
        from perfbench import checks

        root = None
        if self.tracer is not None:
            root = self.tracer.root("cli" if op["call"] == "cli" else "request", op["index"])
        t0 = time.perf_counter()
        try:
            if op["call"] == "cli":
                out = self._cli(op)
            else:
                out = self._eigenpairs(op)
        except Exception as exc:  # an exception fails this operation, not the run
            out = {"error": f"{type(exc).__name__}: {exc}"}
        wall = time.perf_counter() - t0
        if root is not None:
            root.attrs["output_bytes"] = out.get("output_bytes", 0)
            self.tracer.close(root)
        stats, reason = {}, out.get("error")
        if reason is None:
            try:
                stats = out["check"]()
            except checks.CheckFailed as exc:
                reason = str(exc)
        return {"index": op["index"], "wall": wall, "ok": reason is None,
                "reason": reason, **stats}

    def _cli(self, op: dict) -> dict:
        from perfbench import checks

        args = list(op["args"])
        report = conventions = None
        if op["command"] == "verify":
            outdir = Path(tempfile.mkdtemp(dir=self.workdir))
            report, conventions = outdir / "report.json", outdir / "CONVENTIONS.json"
            args += ["--out", str(report)]
        result = self.click.invoke(self.cli.main, args)
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            raise result.exception
        if result.exit_code != 0:
            raise RuntimeError(f"exit code {result.exit_code}: {result.stderr.strip()[-300:]}")
        text = result.stdout
        nbytes = len(result.stdout_bytes)
        if op["command"] == "verify":
            text, conv_text = report.read_text(), conventions.read_text()
            nbytes += len(text) + len(conv_text)
            for p in (report, conventions):
                p.unlink()
            report.parent.rmdir()
            check = lambda: checks.check_verify(text, conv_text)
        elif op["command"] == "spectrum":
            check = lambda: checks.check_spectrum(text, op["rows"])
        elif op["command"] == "potential":
            check = lambda: checks.check_potential(text, op["format"], op["N"])
        else:
            check = lambda: checks.check_wavefunction(text, op["format"], op["N"])
        return {"check": check, "output_bytes": nbytes}

    def _eigenpairs(self, op: dict) -> dict:
        """build_target_problem -> discretize_pdm -> eigen_solve(k, vectors) -> certificates.

        The certificates are those the verify suite applies: the analytic Psi
        residual, the dense PT commutation check, and the closed-form level
        matched by spectrum_compare after conjugate-pair collapse.
        """
        import dataclasses

        from perfbench import checks
        from pdm_spectra import (BranchSelection, CaseA, CaseB, EnergyLevel, GenOscillator,
                                 GridSpec, MassDistribution, ScarfII, SpectrumConvention)

        p = op["problem"]
        mass = MassDistribution(p["alpha"], p["k"])
        scheme = CaseA(mass) if p["case"] == "a" else CaseB(p["gamma"], mass)
        ref = (ScarfII(p["lambda"], p["mu"]) if p["reference"] == "scarf"
               else GenOscillator(p["g"], p["eps"], p["qparity"]))
        grid = GridSpec(p["L"], op["N"])
        conv = SpectrumConvention.UNIT
        oracle = self.numeric_oracle
        tp = self.pct_engine.build_target_problem(scheme, ref, BranchSelection(), p["lo"],
                                                  conv, grid)
        # V is sampled on the operator's own grid, so the samples are passed as is
        dop = oracle.discretize_pdm(lambda x: self.mass_models.mass_eval(mass, x),
                                    lambda x: tp.potential.values, grid, conv)
        res = oracle.eigen_solve(dop, op["k"], want_vectors=True)
        analytic = oracle.residual(dop, tp.psi, tp.energy)
        commutation = oracle.pt_commutation_defect(dop)
        collapsed = oracle.collapse_conjugate_pairs(res.eigenvalues)
        tol = checks.gap_tolerance(
            grid.spacing, tp.energy, p["alpha"],
            checks.tower_distance(p["reference"], p.get("g"), conv.value),
            checks.level_distance(p["reference"], tp.energy, p["lo"], p.get("qparity"),
                                  p.get("g"), conv.value))
        report = oracle.spectrum_compare([EnergyLevel(p["lo"], tp.energy, conv)],
                                         dataclasses.replace(res, eigenvalues=collapsed), tol)

        def check():
            checks.check_eigenvectors(dop.matrix[1:-1, 1:-1], res.eigenvalues,
                                      res.eigenvectors[1:-1], res.residuals)
            return checks.check_eigenpairs(collapsed, tp.energy, tol, op["k"], analytic,
                                           commutation, report.passed)

        return {"check": check}

    def loop(self, ops, seconds: float, tracer=None) -> tuple[list[dict], list[dict]]:
        """Closed loop over whole cycles until at least ``seconds`` have passed.

        With a tracer, each operation runs untraced and then traced, so that
        the two wall times of the pair differ only by the tracing.
        """
        records, traced = [], []
        cycles = 0
        t0 = time.perf_counter()
        for op in ops:
            records.append(self.execute(op))
            if tracer is not None:
                tracer.install()
                self.tracer = tracer
                try:
                    traced.append(self.execute(op))
                finally:
                    self.tracer = None
                    tracer.uninstall()
            if op["last_in_cycle"]:
                cycles += 1
                if cycles <= PEAK_RSS_CYCLES:
                    self.peak_rss_mb = _peak_rss_mb()
                if time.perf_counter() - t0 >= seconds:
                    break
        return records, traced


def _setup_samples() -> list[float]:
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, str(probe)], cwd=ROOT, capture_output=True,
                              text=True, timeout=150, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(records: list[dict], setup: list[float],
                peak_rss_mb: float) -> tuple[dict, list[str]]:
    walls = [r["wall"] for r in records]
    n = len(walls)
    gaps = [r["gap"] for r in records if "gap" in r]
    residuals = [r["residual"] for r in records if "residual" in r]
    failed = sum(not r["ok"] for r in records)
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "ops_per_s": _metric(n / sum(walls), "ops/s"),
        "op_p50_s": _metric(statistics.median(walls), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    lines = [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    if n >= P90_MIN_OPS:
        lines.append(f"op_p90_s = {statistics.quantiles(walls, n=10)[-1]:.6g} s ({n} samples)")
    else:
        lines.append(f"op_p90_s = n/a s ({n} samples; needs {P90_MIN_OPS})")
    lines.append(f"failed_frac = {failed / n:.6g} 1 ({failed} of {n})")
    lines.append(f"max_eig_gap = {max(gaps):.6e} 1" if gaps else "max_eig_gap = n/a 1 (no level compared)")
    lines.append(f"max_residual = {max(residuals):.6e} 1" if residuals
                 else "max_residual = n/a 1 (no analytic Psi certified)")
    lines.append(f"setup samples = {', '.join(f'{s:.4f}' for s in setup)} s")
    return metrics, lines


def main(argv=None) -> int:
    args = _parse(argv)
    _set_threads()
    if not (SRC / "pdm_spectra" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench import envinfo, trace, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    setup = [] if args.trace else _setup_samples()
    # this process pays its own import and warm-up before timing starts
    from perfbench.setup_probe import timed_setup
    timed_setup()
    print("env " + json.dumps(envinfo.record(ROOT, SRC), sort_keys=True))
    tracer = trace.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        runner = Runner(Path(tmp))
        records, traced = runner.loop(
            workloads.operations(args.workload, args.seed), args.seconds, tracer)
    all_records = records + traced
    for r in all_records:
        if not r["ok"]:
            print(f"FAILED op {r['index']}: {r['reason']}")
    if tracer is not None:
        n = len(traced)
        spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        per_op = trace.layer_metrics(tracer.spans, n)
        per_op["trace.overhead_s"] = (sum(r["wall"] for r in traced)
                                      - sum(r["wall"] for r in records)) / n
        metrics = {k: _metric(v, _unit(k)) for k, v in per_op.items()}
        lines = [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
        lines.append(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        metrics, lines = _end_to_end(records, setup, runner.peak_rss_mb)
    for ln in lines:
        print(ln)
    failed = sum(not r["ok"] for r in all_records)
    print(json.dumps({"correct": failed == 0, "attempted": len(all_records),
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s/op"
    if name.endswith("output_bytes"):
        return "B/op"
    return "count/op"


if __name__ == "__main__":
    sys.exit(main())
