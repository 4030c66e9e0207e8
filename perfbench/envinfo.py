"""Environment record printed with every result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

_THREAD_SYMBOLS = ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _loaded_openblas() -> list[str]:
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return []
    return sorted(paths)


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    out = {}
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        for sym in _THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read without running git; None outside a repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for ln in packed.read_text().splitlines():
            if ln.endswith(" " + name):
                return ln.split()[0]
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def record(root: Path, src: Path) -> dict:
    import numpy
    import scipy
    from importlib.metadata import version

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "blas": {"vendor": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(),
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(src),
    }
