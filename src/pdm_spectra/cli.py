"""Command-line front end.

Subcommands: spectrum, potential, wavefunction, verify. Flags can also come
from a JSON config file (--config); explicit flags win. Every output embeds
the fully resolved configuration and the library version, floats are always
rendered as %.12e and dict order is fixed, so identical configurations give
byte-identical outputs. Files are written atomically (temp + rename).

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 numeric failure.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass

import click
import numpy as np

from . import __version__
from .conventions import SpectrumConvention
from .errors import ConvergenceError, OutOfBoundStateRange, PdmSpectraError
from .mass_models import GridSpec, MassDistribution, SampledFunction, mass_eval, pt_defect
from .numeric_oracle import (
    EigenResult,
    collapse_conjugate_pairs,
    discretize_const,
    discretize_pdm,
    eigen_solve,
    pt_commutation_defect,
    residual,
    spectrum_compare,
)
from .pct_engine import (
    CaseA,
    CaseB,
    build_target_problem,
    forward_omega,
    inverse_potential,
)
from .reference_potentials import (
    BranchSelection,
    GenOscillator,
    ScarfII,
    SCARF_FORMULA_CORRECTED,
    SCARF_FORMULA_PUBLISHED,
    omega_oscillator,
    omega_scarf,
    oscillator_energy,
    scarf_bound_count,
    scarf_branch_sum,
    scarf_branch_text,
    scarf_energy,
)

_DEFAULTS = {
    "case": "a",
    "alpha": 2.0,
    "gamma": 1.0,
    "k": None,          # derived: 2.0 for case a, 2/gamma for case b
    "reference": "oscillator",
    "lambda": 5.25,
    "mu": 0.25,
    "g": 1.0,
    "eps": 0.5,
    "qparity": 1,
    "sign_p": 1,
    "sign_q": 1,
    "convention": "unit",
    "L": 12.0,
    "N": 1201,
    "levels": "0..3",
    "format": "json",
    "out": None,
}


@dataclass
class RunConfig:
    case: str
    alpha: float
    gamma: float
    k: float | None     # None until _resolve derives the default
    reference: str
    lambda_depth: float
    mu: float
    g: float
    eps: float
    qparity: int
    sign_p: int
    sign_q: int
    convention: str
    L: float
    N: int
    levels: tuple
    format: str
    out: str | None

    def echo_dict(self) -> dict:
        d = asdict(self)
        d["levels"] = f"{self.levels[0]}..{self.levels[-1]}"
        d["version"] = __version__
        return d

    @property
    def conv(self) -> SpectrumConvention:
        return SpectrumConvention(self.convention)

    @property
    def mass(self) -> MassDistribution:
        return MassDistribution(self.alpha, self.k)

    @property
    def scheme(self):
        return CaseA(self.mass) if self.case == "a" else CaseB(self.gamma, self.mass)

    @property
    def ref(self):
        if self.reference == "scarf":
            return ScarfII(self.lambda_depth, self.mu)
        return GenOscillator(self.g, self.eps, self.qparity)

    @property
    def branch(self) -> BranchSelection:
        return BranchSelection(self.sign_p, self.sign_q)

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.L, self.N)


def _parse_levels(spec: str) -> tuple:
    try:
        if ".." in spec:
            a, b = spec.split("..")
            lo, hi = int(a), int(b)
        else:
            lo = hi = int(spec)
    except ValueError:
        raise click.UsageError(f"--levels expects 'a..b' or 'n', got {spec!r}")
    if lo < 0 or hi < lo:
        raise click.UsageError(f"--levels range {spec!r} is empty or negative")
    return tuple(range(lo, hi + 1))


def _resolve(params: dict) -> RunConfig:
    merged = dict(_DEFAULTS)
    cfg_path = params.pop("config_path", None)
    if cfg_path:
        try:
            with open(cfg_path) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise click.UsageError(f"cannot read config file {cfg_path}: {exc}")
        unknown = set(file_cfg) - set(_DEFAULTS)
        if unknown:
            raise click.UsageError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_cfg)
    for key, val in params.items():
        if val is not None:
            merged[key] = val
    # click parameter names differ from config-file keys for a few options
    rename = {"lambda_depth": "lambda", "half_width": "L", "num_points": "N",
              "fmt": "format"}
    for src, dst in rename.items():
        if src in merged:
            merged[dst] = merged.pop(src)
    try:
        cfg = RunConfig(
            case=str(merged["case"]),
            alpha=float(merged["alpha"]),
            gamma=float(merged["gamma"]),
            k=None if merged["k"] is None else float(merged["k"]),
            reference=str(merged["reference"]),
            lambda_depth=float(merged["lambda"]),
            mu=float(merged["mu"]),
            g=float(merged["g"]),
            eps=float(merged["eps"]),
            qparity=int(merged["qparity"]),
            sign_p=int(merged["sign_p"]),
            sign_q=int(merged["sign_q"]),
            convention=str(merged["convention"]),
            L=float(merged["L"]),
            N=int(merged["N"]),
            levels=_parse_levels(str(merged["levels"])),
            format=str(merged["format"]),
            out=merged["out"],
        )
    except (TypeError, ValueError) as exc:
        raise click.UsageError(str(exc))
    if cfg.case not in ("a", "b"):
        raise click.UsageError(f"--case must be 'a' or 'b', got {cfg.case!r}")
    if cfg.case == "b" and cfg.gamma == 0:
        raise click.UsageError("--gamma must be nonzero for case b")
    if cfg.reference not in ("scarf", "oscillator"):
        raise click.UsageError(f"unknown reference {cfg.reference!r}")
    if cfg.convention not in ("half", "unit"):
        raise click.UsageError(f"unknown convention {cfg.convention!r}")
    derived = cfg.k is None
    if derived:
        cfg.k = 2.0 if cfg.case == "a" else 2.0 / cfg.gamma
    try:
        cfg.mass, cfg.grid  # these reject alpha, k, L or N out of range, NaN included
    except ValueError as exc:
        hint = " (the default k is 2/gamma)" if derived and not cfg.k > 0 else ""
        raise click.UsageError(f"{exc}{hint}")
    return cfg


# ---------------------------------------------------------------------------
# deterministic serialization


def _det(obj) -> str:
    """Render JSON with %.12e floats and fixed (insertion) key order."""
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return f"{obj:.12e}"
    if isinstance(obj, complex):
        return _det([obj.real, obj.imag])
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_det(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_det(v) for v in obj) + "]"
    if isinstance(obj, (np.floating,)):
        return f"{float(obj):.12e}"
    if isinstance(obj, (np.integer,)):
        return str(int(obj))
    if isinstance(obj, (np.complexfloating,)):
        return _det(complex(obj))
    raise TypeError(f"cannot serialize {type(obj)}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=not text.endswith("\n"))
        return
    d = os.path.dirname(os.path.abspath(out)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".pdm-spectra-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _common_options(fn):
    opts = [
        click.option("--case", type=click.Choice(["a", "b"]), default=None,
                     help="PCT scheme: case a (beta=1/2) or case b (beta=(2-gamma)/4)."),
        click.option("--alpha", type=float, default=None, help="Mass parameter alpha > 0."),
        click.option("--gamma", type=float, default=None, help="Case-b coordinate exponent."),
        click.option("--k", "k", type=float, default=None, help="Mass exponent k (default 2, or 2/gamma for case b)."),
        click.option("--reference", type=click.Choice(["scarf", "oscillator"]), default=None),
        click.option("--lambda", "lambda_depth", type=float, default=None, help="Scarf II depth."),
        click.option("--mu", type=float, default=None, help="Scarf II imaginary strength."),
        click.option("--g", type=float, default=None, help="Oscillator coupling."),
        click.option("--eps", type=float, default=None, help="Oscillator imaginary shift."),
        click.option("--qparity", type=click.Choice(["+1", "-1"]), default=None,
                     callback=lambda c, p, v: None if v is None else int(v)),
        click.option("--sign-p", "sign_p", type=click.Choice(["+1", "-1"]), default=None,
                     callback=lambda c, p, v: None if v is None else int(v)),
        click.option("--sign-q", "sign_q", type=click.Choice(["+1", "-1"]), default=None,
                     callback=lambda c, p, v: None if v is None else int(v)),
        click.option("--convention", type=click.Choice(["half", "unit"]), default=None),
        click.option("--L", "half_width", type=float, default=None, help="Grid half width."),
        click.option("--N", "num_points", type=int, default=None, help="Grid points."),
        click.option("--levels", type=str, default=None, help="Level range 'a..b'."),
        click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default=None),
        click.option("--out", type=click.Path(), default=None, help="Output path (stdout if omitted)."),
        click.option("--config", "config_path", type=click.Path(), default=None,
                     help="JSON config file; explicit flags override it."),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


@click.group()
@click.version_option(version=__version__, prog_name="pdm-spectra")
def main():
    """Build and validate PT-symmetric PDM Schroedinger problems."""


def _analytic_rows(cfg: RunConfig):
    """(n, qparity or None, reference object, EnergyLevel) per table row."""
    rows = []
    if cfg.reference == "scarf":
        pot = ScarfII(cfg.lambda_depth, cfg.mu)
        bound = scarf_bound_count(pot, cfg.branch)
        for n in cfg.levels:
            if n >= bound:
                raise click.UsageError(
                    f"level n={n} out of Scarf bound range: need n < "
                    f"({scarf_branch_text(cfg.branch)}-1)/2 "
                    f"= {(scarf_branch_sum(pot, cfg.branch).real - 1) / 2:.6g}")
            rows.append((n, None, pot, scarf_energy(pot, cfg.branch, n, cfg.conv)))
    else:
        for q in (+1, -1):
            pot = GenOscillator(cfg.g, cfg.eps, q)
            for n in cfg.levels:
                rows.append((n, q, pot, oscillator_energy(pot, n, cfg.conv)))
        rows.sort(key=lambda r: r[3].energy.real)
    return rows


@main.command()
@_common_options
def spectrum(**params):
    """Analytic level table with matched finite-difference oracle values."""
    cfg = _resolve(params)
    try:
        rows = _analytic_rows(cfg)
        out_rows = []
        for n, q, pot, lev in rows:
            tp = build_target_problem(cfg.scheme, pot, cfg.branch, n, cfg.conv, cfg.grid)
            op = discretize_pdm(lambda x: mass_eval(cfg.mass, x), tp.potential,
                                cfg.grid, cfg.conv)
            res = eigen_solve(op, k=min(4, cfg.N - 2), want_vectors=False, sigma=lev.energy)
            en = complex(res.eigenvalues[0])
            out_rows.append({
                "n": n, "q": q,
                "E_analytic": [lev.energy.real, lev.energy.imag],
                "E_numeric": [en.real, en.imag],
                "gap": abs(en - lev.energy),
                "real": bool(res.reality_flags[0]),
            })
    except ConvergenceError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(3)
    if cfg.format == "json":
        _emit(_det({"schema": "pdm-spectra/spectrum/v1",
                    "config": cfg.echo_dict(), "rows": out_rows}) + "\n", cfg.out)
    else:
        lines = [f"# config: {_det(cfg.echo_dict())}",
                 "n,q,Ea_re,Ea_im,En_re,En_im,gap,real"]
        for r in out_rows:
            q = r["q"] if r["q"] is not None else 0
            lines.append(
                f"{r['n']},{q},{r['E_analytic'][0]:.12e},{r['E_analytic'][1]:.12e},"
                f"{r['E_numeric'][0]:.12e},{r['E_numeric'][1]:.12e},{r['gap']:.12e},{int(r['real'])}")
        _emit("\n".join(lines) + "\n", cfg.out)


@main.command()
@_common_options
def potential(**params):
    """Sample the target potential V(x) (and the reference profile Omega)."""
    cfg = _resolve(params)
    n = cfg.levels[0]
    try:
        tp = build_target_problem(cfg.scheme, cfg.ref, cfg.branch, n, cfg.conv, cfg.grid)
    except OutOfBoundStateRange as exc:
        raise click.UsageError(str(exc))
    x = cfg.grid.points
    y = cfg.scheme.y_of_x(x)
    omega = (omega_scarf(cfg.ref, y) if cfg.reference == "scarf"
             else omega_oscillator(cfg.ref, y))
    m = mass_eval(cfg.mass, x)
    defect = pt_defect(tp.potential)
    if cfg.format == "json":
        _emit(_det({"schema": "pdm-spectra/potential/v1",
                    "config": cfg.echo_dict(),
                    "n": n,
                    "E": [tp.energy.real, tp.energy.imag],
                    "pt_defect": defect,
                    "potential": tp.potential.to_json_dict(),
                    "omega": {"grid": cfg.grid.to_dict(),
                              "values": [[v.real, v.imag] for v in np.asarray(omega)]},
                    }) + "\n", cfg.out)
    else:
        lines = [f"# config: {_det(cfg.echo_dict())}",
                 f"# n: {n}  E: {tp.energy.real:.12e}{tp.energy.imag:+.12e}j",
                 f"# pt_defect: {defect:.12e}",
                 "x,re,im,mass,omega_re,omega_im"]
        for xi, vi, mi, oi in zip(x, tp.potential.values, m, np.asarray(omega)):
            lines.append(f"{xi:.12e},{vi.real:.12e},{vi.imag:.12e},{mi:.12e},"
                         f"{oi.real:.12e},{oi.imag:.12e}")
        _emit("\n".join(lines) + "\n", cfg.out)


@main.command()
@_common_options
def wavefunction(**params):
    """Sample phi_n(y) and the assembled Psi_n(x), with a residual certificate."""
    cfg = _resolve(params)
    n = cfg.levels[0]
    try:
        tp = build_target_problem(cfg.scheme, cfg.ref, cfg.branch, n, cfg.conv, cfg.grid)
    except OutOfBoundStateRange as exc:
        raise click.UsageError(str(exc))
    x = cfg.grid.points
    y = np.asarray(cfg.scheme.y_of_x(x), dtype=float)
    m = mass_eval(cfg.mass, x)
    phi = tp.psi.values / m ** cfg.scheme.beta
    op = discretize_pdm(lambda t: mass_eval(cfg.mass, t), tp.potential, cfg.grid, cfg.conv)
    res = residual(op, tp.psi, tp.energy)
    if cfg.format == "json":
        _emit(_det({"schema": "pdm-spectra/wavefunction/v1",
                    "config": cfg.echo_dict(),
                    "n": n,
                    "E": [tp.energy.real, tp.energy.imag],
                    "residual": res,
                    "psi": tp.psi.to_json_dict(),
                    "phi": {"grid": cfg.grid.to_dict(),
                            "y": list(map(float, y)),
                            "values": [[v.real, v.imag] for v in phi]},
                    }) + "\n", cfg.out)
    else:
        lines = [f"# config: {_det(cfg.echo_dict())}",
                 f"# n: {n}  E: {tp.energy.real:.12e}{tp.energy.imag:+.12e}j",
                 f"# residual: {res:.12e}",
                 "x,psi_re,psi_im,y,phi_re,phi_im"]
        for xi, pi, yi, fi in zip(x, tp.psi.values, y, phi):
            lines.append(f"{xi:.12e},{pi.real:.12e},{pi.imag:.12e},"
                         f"{yi:.12e},{fi.real:.12e},{fi.imag:.12e}")
        _emit("\n".join(lines) + "\n", cfg.out)


# ---------------------------------------------------------------------------
# verify


def _adjudicate_convention(checks: list) -> tuple[str | None, EigenResult]:
    """Fit closed-form spectra against the oracle under both conventions.

    Returns the adjudicated convention and the UNIT Scarf oracle spectrum,
    which the Scarf-formula check reuses.
    """
    results = {}
    scarf = ScarfII(5.25, 0.25)
    sel = BranchSelection()
    for conv in (SpectrumConvention.UNIT, SpectrumConvention.HALF):
        ok = True
        details = []
        for g, eps in ((1.0, 0.5), (1.5, 0.5)):
            grid = GridSpec(12.0, 2401 if conv is SpectrumConvention.UNIT else 1201)
            levels = [oscillator_energy(GenOscillator(g, eps, q), n, conv)
                      for q in (+1, -1) for n in range(3)]
            pot = GenOscillator(g, eps)
            op = discretize_const(lambda y: omega_oscillator(pot, y), grid, conv)
            res = eigen_solve(op, k=16, want_vectors=False)
            # at integer g the quasi-parity towers cross and the crossing
            # levels are defective: the discrete pair splits O(h) into a
            # conjugate pair whose mean is the second-order-accurate value
            res = dataclasses.replace(
                res, eigenvalues=collapse_conjugate_pairs(res.eigenvalues))
            rep = spectrum_compare(levels, res, tol=1e-3)
            ok = ok and rep.passed
            details.append({"reference": f"oscillator(g={g},eps={eps})",
                            "passed": rep.passed, "report": rep.to_json_dict()})
        grid = GridSpec(15.0, 1501)
        levels = [scarf_energy(scarf, sel, n, conv) for n in range(scarf_bound_count(scarf))]
        op = discretize_const(lambda y: omega_scarf(scarf, y), grid, conv)
        res = eigen_solve(op, k=8, want_vectors=False)
        if conv is SpectrumConvention.UNIT:
            scarf_unit = res
        rep = spectrum_compare(levels, res, tol=1e-3)
        ok = ok and rep.passed
        details.append({"reference": "scarf(5.25,0.25)", "passed": rep.passed,
                        "report": rep.to_json_dict()})
        results[conv.value] = {"passed": ok, "details": details}
    fitting = [c for c, r in results.items() if r["passed"]]
    adjudicated = fitting[0] if len(fitting) == 1 else None
    checks.append({"name": "convention-adjudication",
                   "passed": adjudicated is not None,
                   "adjudicated": adjudicated,
                   "results": results})
    return adjudicated, scarf_unit


def _adjudicate_scarf_formula(checks: list, res: EigenResult) -> str | None:
    """Match the UNIT Scarf oracle spectrum against both energy formulas."""
    scarf = ScarfII(5.25, 0.25)
    sel = BranchSelection()
    outcome = {}
    for formula in (SCARF_FORMULA_PUBLISHED, SCARF_FORMULA_CORRECTED):
        levels = [scarf_energy(scarf, sel, n, SpectrumConvention.UNIT, formula=formula)
                  for n in range(scarf_bound_count(scarf))]
        rep = spectrum_compare(levels, res, tol=1e-3)
        outcome[formula] = rep.passed
    winners = [f for f, p in outcome.items() if p]
    winner = winners[0] if len(winners) == 1 else None
    checks.append({"name": "scarf-formula", "passed": winner is not None,
                   "matched": winner, "outcome": outcome})
    return winner


def _check_round_trip(checks: list) -> None:
    grid = GridSpec(8.0, 301)
    worst = 0.0
    scarf = ScarfII(3.0, 1.0)
    osc = GenOscillator(1.0, 0.5)
    for alpha in (0.5, 2.0, 5.0):
        for gamma in (0.5, 1.0, 2.0):
            schemes = [CaseB(gamma, MassDistribution(alpha, 2.0 / gamma)),
                       CaseA(MassDistribution(alpha, 2.0))]
            for scheme in schemes:
                for omega in (lambda y: omega_scarf(scarf, y),
                              lambda y: omega_oscillator(osc, y)):
                    E = -1.3 + 0.0j
                    v = lambda x: inverse_potential(scheme, omega, E, x)
                    om2 = forward_omega(scheme, v, E, grid=grid)
                    ref = np.asarray(omega(om2.grid.points), dtype=complex)
                    worst = max(worst, float(np.max(np.abs(om2.values - ref))))
    checks.append({"name": "round-trip", "passed": worst < 1e-10, "sup_norm": worst})


# Reference parameters and window per transported configuration.  The window
# L is tuned per case: the case-b map compresses the grid near the origin
# (dy/dx = m^{1/2}, so y'(0) = alpha), which inflates the stencil truncation
# by ~alpha^4 and calls for a much tighter box.  The well depths are chosen
# deep enough that the n=1 state has decayed at the wall, and the oscillator
# coupling g is kept away from the integer values where the two quasi-parity
# towers cross and the discrete operator turns defective at the crossings.
_TRANSPORT_CONFIGS = (
    # (scheme tag, reference kind, grid half width, reference parameters)
    ("case-a", "scarf", 10.0, (5.25, 0.25)),
    ("case-a", "oscillator", 6.0, (0.75, 1.0, +1)),
    ("case-b", "scarf", 3.2, (8.0, 0.25)),
    ("case-b", "oscillator", 3.0, (0.75, 1.0, +1)),
)


def _transport_cases():
    for tag, kind, L, params in _TRANSPORT_CONFIGS:
        scheme = (CaseA(MassDistribution(2.0, 2.0)) if tag == "case-a"
                  else CaseB(1.0, MassDistribution(2.0, 2.0)))
        ref = ScarfII(*params) if kind == "scarf" else GenOscillator(*params)
        for n in (0, 1):
            yield tag, scheme, kind, ref, n, L


def _check_transport(checks: list, beta_override: float | None) -> None:
    conv = SpectrumConvention.UNIT
    sel = BranchSelection()
    worst = 0.0
    entries = []
    passed = True
    worst_control = np.inf
    for tag, scheme, kind, ref, n, L in _transport_cases():
        grid = GridSpec(L, 2401)
        tp = build_target_problem(scheme, ref, sel, n, conv, grid)
        op = discretize_pdm(lambda x: mass_eval(scheme.mass, x), tp.potential, grid, conv)
        m = mass_eval(scheme.mass, grid.points)
        psi = tp.psi
        if beta_override is not None and tag == "case-a":
            psi = SampledFunction(grid, psi.values * m ** (beta_override - scheme.beta),
                                  label=psi.label + "-override")
        r = residual(op, psi, tp.energy)
        psi_bad = SampledFunction(grid, psi.values * m ** 0.1, label="control")
        r_bad = residual(op, psi_bad, tp.energy)
        ratio = r_bad / r if r > 0 else np.inf
        defect = pt_defect(tp.potential)
        comm = pt_commutation_defect(op)
        ok = r < 1e-4 and ratio >= 1e3 and defect < 1e-10 and comm < 1e-12
        passed = passed and ok
        worst = max(worst, r)
        worst_control = min(worst_control, ratio)
        entries.append({"scheme": tag, "reference": kind, "n": n,
                        "qparity": getattr(ref, "quasi_parity", None),
                        "L": L, "residual": r, "control_ratio": ratio,
                        "pt_defect": defect, "pt_commutation": comm, "passed": ok})
    checks.append({"name": "transport-residual", "passed": passed,
                   "worst_residual": worst, "worst_control_ratio": worst_control,
                   "cases": entries})


@main.command()
@_common_options
@click.option("--case-a-beta", type=float, default=None,
              help="Override the case-a exponent in the residual check (negative control).")
def verify(case_a_beta, **params):
    """Run the full invariant suite and write a machine-readable report."""
    cfg = _resolve(params)
    checks: list = []
    try:
        adjudicated, scarf_unit = _adjudicate_convention(checks)
        _adjudicate_scarf_formula(checks, scarf_unit)
        _check_round_trip(checks)
        _check_transport(checks, case_a_beta)
    except ConvergenceError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(3)
    passed = all(c["passed"] for c in checks)
    report = {
        "schema": "pdm-spectra/verify/v1",
        "config": cfg.echo_dict(),
        "convention_adjudicated": adjudicated,
        "passed": passed,
        "checks": checks,
    }
    out_dir = os.path.dirname(os.path.abspath(cfg.out)) if cfg.out else os.getcwd()
    conventions = {
        "schema": "pdm-spectra/conventions/v1",
        "adjudicated_convention": adjudicated,
        "scarf_energy_formula": next(
            (c.get("matched") for c in checks if c["name"] == "scarf-formula"), None),
        "branch_default": {"sign_p": 1, "sign_q": 1},
        "version": __version__,
    }
    _emit(_det(conventions) + "\n", os.path.join(out_dir, "CONVENTIONS.json"))
    _emit(_det(report) + "\n", cfg.out)
    for c in checks:
        click.echo(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}", err=True)
    if not passed:
        sys.exit(1)


def entrypoint():  # pragma: no cover
    try:
        main(standalone_mode=True)
    except PdmSpectraError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(3)


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
