"""Span tracing at module boundaries, from outside the program.

``Tracer.install`` replaces each public function of a layer by a timing
wrapper in the namespace of the module that calls it (for example
``pdm_spectra.cli.eigen_solve`` or ``pdm_spectra.pct_engine.coordinate_map_y``),
so the program itself is unchanged. The per-point ``mass_eval`` integrand of
the coordinate-map quadrature is looked up inside ``mass_models`` and is
therefore never spanned. A call into a layer made from inside a span of the
same layer (``discretize_const`` calling ``discretize_pdm``) belongs to the
outer span and opens none.

Spans are kept in memory as ``Span`` records and written out by ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import asdict, dataclass, field

# (layer, calling modules, function names). A name is patched in every
# listed module that imports it.
LAYERS = (
    ("numeric_oracle.eigen_solve", ("cli", "numeric_oracle"), ("eigen_solve",)),
    ("numeric_oracle.assemble", ("cli", "numeric_oracle"), ("discretize_pdm", "discretize_const")),
    ("numeric_oracle.certify", ("cli", "numeric_oracle"), ("residual", "pt_commutation_defect")),
    ("numeric_oracle.compare", ("cli", "numeric_oracle"),
     ("spectrum_compare", "collapse_conjugate_pairs")),
    ("mass_models.coord_map", ("pct_engine",), ("coordinate_map_y", "coordinate_map_x")),
    ("mass_models", ("cli", "pct_engine"), ("mass_eval", "mass_log_derivs", "pt_defect", "sample")),
    ("specfun", ("reference_potentials",),
     ("gamma_c", "jacobi_poly", "laguerre_poly", "complex_pow")),
    ("reference_potentials", ("cli", "pct_engine"),
     ("omega_scarf", "omega_oscillator", "branch_params", "scarf_bound_count", "scarf_energy",
      "oscillator_energy", "scarf_wavefunction", "oscillator_wavefunction")),
    ("pct_engine", ("cli", "pct_engine"),
     ("build_target_problem", "forward_omega", "inverse_potential")),
)
EIGEN_LAYER = "numeric_oracle.eigen_solve"


@dataclass
class Span:
    id: int
    name: str
    fn: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _eigen_attrs(bound: inspect.BoundArguments) -> dict:
    args = bound.arguments
    return {"order": args["op"].grid.num_points_N - 2, "k": int(args["k"]),
            "vectors": bool(args["want_vectors"])}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = -1

    def _open(self, name: str, fn: str) -> Span:
        span = Span(id=len(self.spans), name=name, fn=fn, op=self.op,
                    parent=self._stack[-1].id if self._stack else None,
                    start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def root(self, name: str, op: int) -> Span:
        """Open the span of one whole operation; end it with ``close``."""
        self.op = op
        return self._open(name, name)

    def wrap(self, layer: str, fn):
        sig = inspect.signature(fn) if layer == EIGEN_LAYER else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stack and self._stack[-1].name == layer:
                return fn(*args, **kwargs)
            span = self._open(layer, fn.__name__)
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = _eigen_attrs(bound)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced

    def install(self) -> None:
        for layer, modules, names in LAYERS:
            for mod_name in modules:
                mod = importlib.import_module(f"pdm_spectra.{mod_name}")
                for name in names:
                    if hasattr(mod, name):
                        orig = getattr(mod, name)
                        self._patched.append((mod, name, orig))
                        setattr(mod, name, self.wrap(layer, orig))

    def uninstall(self) -> None:
        while self._patched:
            mod, name, orig = self._patched.pop()
            setattr(mod, name, orig)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(spans: list[Span], n_ops: int) -> dict:
    """Per-operation counts and self times of every layer, plus the cli remainder."""
    selfs = self_times(spans)
    m = {}
    for layer, _, _ in LAYERS:
        m[f"{layer}.calls"] = 0.0
        m[f"{layer}.self_s"] = 0.0
    for key in ("order_sum", "k_sum", "vector_calls"):
        m[f"{EIGEN_LAYER}.{key}"] = 0.0
    m["cli.self_s"] = 0.0
    m["cli.output_bytes"] = 0.0
    for s, self_s in zip(spans, selfs):
        if s.name == "cli":
            m["cli.self_s"] += self_s
            m["cli.output_bytes"] += s.attrs.get("output_bytes", 0)
        elif f"{s.name}.calls" in m:
            m[f"{s.name}.calls"] += 1
            m[f"{s.name}.self_s"] += self_s
        if s.name == EIGEN_LAYER:
            m[f"{EIGEN_LAYER}.order_sum"] += s.attrs["order"]
            m[f"{EIGEN_LAYER}.k_sum"] += s.attrs["k"]
            m[f"{EIGEN_LAYER}.vector_calls"] += s.attrs["vectors"]
    return {k: v / n_ops for k, v in m.items()}
