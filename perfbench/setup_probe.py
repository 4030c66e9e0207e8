"""Time one set-up of the program: importing pdm_spectra with scipy and click,
then one warm-up operation. Run as a script, it prints the seconds.

``python3 perfbench/setup_probe.py`` (from the repository root)
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def timed_setup() -> float:
    """Seconds from the first import to the end of the warm-up call."""
    from perfbench.workloads import warmup_args

    t0 = time.perf_counter()
    import click  # noqa: F401
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    from click.testing import CliRunner

    from pdm_spectra import cli

    result = CliRunner().invoke(cli.main, warmup_args())
    elapsed = time.perf_counter() - t0
    if result.exit_code != 0:
        raise RuntimeError(f"warm-up operation failed with exit code {result.exit_code}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"pdm_spectra imported from {cli.__file__}, not from {SRC}")
    return elapsed


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT), str(SRC)]
    print(repr(timed_setup()))
