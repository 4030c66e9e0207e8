"""Seeded workload generator.

A workload is an endless sequence of operations built from a fixed cycle of
strata. A stratum fixes the shape of an operation (command, grid size, level
count, coordinate-map path); the seed draws everything else (scheme, mass,
reference parameters, levels, window) from physically sensible ranges. A run
measures whole cycles, so every run of a workload executes the same mix of
shapes and its medians do not depend on where the clock stopped.

Only the standard library is used here, so the same seed gives the same
inputs on every machine.

``verify-suite`` (one ``pdm-spectra verify`` per cycle, fixed inputs) is not
listed in BENCHMARK.json: one operation takes 62-78 s, and 22 runs of it do
not fit the benchmark's time budget beside steady runs of the other three.
It stays runnable for recording the verify wall time by hand.

Ranges:

* mass ``alpha`` in [0.5, 3]; case b takes ``gamma`` in [0.5, 2] and the
  closed-form ``k = 2/gamma``, except in the quadrature-map strata, which take
  ``alpha`` in [2, 3], ``k = f 2/gamma`` with f in [0.5, 0.8], and the
  oscillator;
* Scarf II ``lambda`` in [6, 14], ``mu`` in [0.1, 1.5]; levels are drawn only
  among the bound states (``n < (s+t-1)/2``) that decay at rate at least
  ``KAPPA_MIN``;
* oscillator ``g`` in [0.6, 0.9] or [1.1, 1.4] (never integer, where the two
  quasi-parity towers cross) and ``eps`` in [0.5, 1]; levels 0..3 (the CLI
  default range);
* the half width L puts the wall where the drawn level has decayed by
  ``exp(-DECAY)``, widened by a random factor in [1, 1.25].
"""

from __future__ import annotations

import math
import random
from typing import Iterator

WORKLOADS = ("spectrum-scan", "eigenpairs", "transport-sample", "verify-suite")

DECAY = 16.0
KAPPA_MIN = 1.0
OSC_LEVELS = 4

# (reference, N, number of levels); the N=1201 stratum holds one row so that
# two thirds of the operations are the cheap N=601 ones and the median sits
# inside one cost cluster.
_SPECTRUM_CYCLE = (("oscillator", 601, 1), ("scarf", 601, 2), ("scarf", 1201, 1))
# (N, k): every k on the cheap grid, plus one N=1201 request, so that every
# cycle runs the same mix and the median sits among the N=601 requests
_EIGENPAIR_CYCLE = ((601, 8), (601, 24), (601, 48), (1201, 48))
# (command, format, N, quadrature map?): every closed-form shape once, plus
# three quadrature-map shapes. With eleven operations a cycle, the median of
# whole cycles falls inside one closed-form shape rather than between two.
_TRANSPORT_CYCLE = tuple(
    (cmd, fmt, n, False)
    for cmd in ("potential", "wavefunction")
    for fmt in ("json", "csv")
    for n in (1201, 2401)
) + (
    ("potential", "json", 2401, True),
    ("wavefunction", "csv", 2401, True),
    ("wavefunction", "json", 1201, True),
)


def scarf_st(lam: float, mu: float) -> tuple[float, float]:
    return math.sqrt(0.25 + lam - mu), math.sqrt(0.25 + lam + mu)


def scarf_kappa(lam: float, mu: float, n: int) -> float:
    """Decay rate sqrt(-E_n) of Scarf II level n (UNIT convention)."""
    s, t = scarf_st(lam, mu)
    return 0.5 * (s + t) - n - 0.5


def scarf_level_count(lam: float, mu: float) -> int:
    """Levels 0..count-1 lie in the bound range and decay at least KAPPA_MIN."""
    s, t = scarf_st(lam, mu)
    return int(math.floor(0.5 * (s + t) - 0.5 - KAPPA_MIN)) + 1


def y_map(alpha: float, k: float, gamma: float, x: float) -> float:
    """y(x) = int_0^x m^(gamma/2) for the rational mass; gamma = 0 is case a."""
    if gamma == 0.0:
        return x
    if abs(k * gamma / 2.0 - 1.0) < 1e-12:
        return x + (alpha - 1.0) * math.atan(x)
    steps = 200  # composite Simpson; the integrand is smooth and bounded
    h = x / steps
    f = lambda t: ((alpha + t * t) / (1.0 + t * t)) ** (k * gamma / 2.0)
    acc = f(0.0) + f(x)
    for i in range(1, steps):
        acc += (4.0 if i % 2 else 2.0) * f(i * h)
    return acc * h / 3.0


def x_for_y(alpha: float, k: float, gamma: float, y: float) -> float:
    lo, hi = 0.0, max(1.0, y)
    while y_map(alpha, k, gamma, hi) < y:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if y_map(alpha, k, gamma, mid) < y:
            lo = mid
        else:
            hi = mid
    return hi


def _r(v: float) -> float:
    return round(v, 4)


def _scheme(rng: random.Random, quadrature: bool = False) -> dict:
    # The per-point quadrature cost grows with the window, which shrinks as
    # alpha^(k gamma/2) grows; the quadrature strata draw from a band where
    # the window stays within ~1.5x, so their cost follows the code, not the draw.
    alpha = _r(rng.uniform(2.0, 3.0) if quadrature else rng.uniform(0.5, 3.0))
    if not quadrature and rng.random() < 0.5:
        return {"case": "a", "alpha": alpha, "gamma": 0.0, "k": 2.0, "k_flag": False}
    gamma = _r(rng.uniform(0.5, 2.0))
    if quadrature:
        f = rng.uniform(0.5, 0.8)
        return {"case": "b", "alpha": alpha, "gamma": gamma,
                "k": _r(2.0 / gamma * f), "k_flag": True}
    return {"case": "b", "alpha": alpha, "gamma": gamma, "k": 2.0 / gamma, "k_flag": False}


def _reference(rng: random.Random, kind: str, nlev: int) -> dict:
    """Reference parameters and a start level with nlev levels available."""
    if kind == "scarf":
        while True:
            lam, mu = _r(rng.uniform(6.0, 14.0)), _r(rng.uniform(0.1, 1.5))
            count = scarf_level_count(lam, mu)
            if count >= nlev:
                break
        lo = rng.randrange(0, count - nlev + 1)
        kappa = scarf_kappa(lam, mu, lo + nlev - 1)
        return {"reference": "scarf", "lambda": lam, "mu": mu, "lo": lo,
                "y_wall": DECAY / kappa}
    g = _r(rng.choice((rng.uniform(0.6, 0.9), rng.uniform(1.1, 1.4))))
    eps = _r(rng.uniform(0.5, 1.0))
    lo = rng.randrange(0, OSC_LEVELS - nlev + 1)
    hi = lo + nlev - 1
    return {"reference": "oscillator", "g": g, "eps": eps, "lo": lo,
            "qparity": rng.choice((1, -1)),
            "y_wall": math.sqrt(2.0 * DECAY + eps * eps + 4.0 * hi + 2.0)}


def _problem(rng: random.Random, kind: str, nlev: int, quadrature: bool = False) -> dict:
    p = _scheme(rng, quadrature)
    p.update(_reference(rng, kind, nlev))
    x_wall = x_for_y(p["alpha"], p["k"], p["gamma"], p["y_wall"])
    p["L"] = round(x_wall * rng.uniform(1.0, 1.25), 3)
    p["levels"] = (p["lo"], p["lo"] + nlev - 1)
    return p


def cli_args(command: str, p: dict, n_points: int, fmt: str, single_level: bool) -> list[str]:
    """pdm-spectra argument list for a drawn problem."""
    args = [command, "--case", p["case"], "--alpha", repr(p["alpha"])]
    if p["case"] == "b":
        args += ["--gamma", repr(p["gamma"])]
    if p["k_flag"]:
        args += ["--k", repr(p["k"])]
    args += ["--reference", p["reference"]]
    if p["reference"] == "scarf":
        args += ["--lambda", repr(p["lambda"]), "--mu", repr(p["mu"])]
    else:
        args += ["--g", repr(p["g"]), "--eps", repr(p["eps"])]
        if single_level:
            args += ["--qparity", f"{p['qparity']:+d}"]
    lo, hi = p["levels"]
    args += ["--L", repr(p["L"]), "--N", str(n_points),
             "--levels", str(lo) if single_level else f"{lo}..{hi}", "--format", fmt]
    return args


def _spectrum_cycle(rng: random.Random) -> list[dict]:
    ops = []
    for kind, n_points, nlev in _SPECTRUM_CYCLE:
        p = _problem(rng, kind, nlev)
        rows = nlev * (2 if kind == "oscillator" else 1)
        ops.append({"call": "cli", "command": "spectrum", "N": n_points, "format": "json",
                    "rows": rows, "args": cli_args("spectrum", p, n_points, "json", False)})
    return ops


def _eigenpairs_cycle(rng: random.Random) -> list[dict]:
    ops = []
    for n_points, k in _EIGENPAIR_CYCLE:
        p = _problem(rng, rng.choice(("scarf", "oscillator")), 1)
        ops.append({"call": "eigenpairs", "N": n_points, "k": k, "problem": p})
    return ops


def _transport_cycle(rng: random.Random) -> list[dict]:
    # the shapes keep their order: with a seeded order the resident set after
    # two cycles moved by ~7% between seeds, as allocations fragmented differently
    ops = []
    for command, fmt, n_points, quadrature in _TRANSPORT_CYCLE:
        # quadrature strata take the oscillator, whose wall sits at y ~ 6-7 for
        # every drawn level; Scarf walls range over y ~ 5-16 and the
        # per-point quadrature cost grows with the window
        kind = "oscillator" if quadrature else rng.choice(("scarf", "oscillator"))
        p = _problem(rng, kind, 1, quadrature)
        ops.append({"call": "cli", "command": command, "N": n_points, "format": fmt,
                    "quadrature": quadrature,
                    "args": cli_args(command, p, n_points, fmt, True)})
    return ops


def _verify_cycle(rng: random.Random) -> list[dict]:
    # the invariant suite has fixed inputs; the seed does not reach it
    return [{"call": "cli", "command": "verify", "args": ["verify"]}]


_CYCLES = {
    "spectrum-scan": _spectrum_cycle,
    "eigenpairs": _eigenpairs_cycle,
    "transport-sample": _transport_cycle,
    "verify-suite": _verify_cycle,
}


def operations(workload: str, seed: int) -> Iterator[dict]:
    """Endless operation stream; each op carries its position in its cycle."""
    if workload not in _CYCLES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    index = 0
    while True:
        cycle = _CYCLES[workload](rng)
        for pos, op in enumerate(cycle):
            yield dict(op, index=index, last_in_cycle=pos == len(cycle) - 1)
            index += 1


def warmup_args() -> list[str]:
    """One small spectrum call: first-call costs of click, assembly and LAPACK."""
    return ["spectrum", "--reference", "scarf", "--N", "201", "--levels", "0..0"]
