"""Paired perfbench runs of two checkouts, written to a root ``BENCH_<label>.json``.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seed S \
        [--label L]

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, with that
checkout's own benchmark code, for the ``run_seconds`` that the change's
``BENCHMARK.json`` fixes, one process at a time; even pairs run the parent
first and odd pairs the change first, so slow drift of the host falls on both
sides alike. Every pair uses the same seed, so both sides see the same inputs.

Each invocation appends one set to the file, so the file keeps every run
made: the set's workload and seed, every run's final JSON line with the
``FAILED op`` lines it printed, each side's median and quartiles of every
end-to-end metric named in the change's ``BENCHMARK.json``, how many pairs the
change won per metric, and the two tests a claim is judged by (a gain: wins in
at least nine tenths of the pairs and a median difference larger than the
parent's quartile distance; a regression: a median worse than the parent's by
more than the metric's bound). It also sums each side's ``failed`` and
``attempted`` operations over the set and flags the set when the change's
failed share is higher than the parent's, which rejects a change as surely as
a regression does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    return {**json.loads(lines[-1]),
            "failed_ops": [line for line in lines if line.startswith("FAILED op")]}


def _failures(runs: list[dict]) -> dict:
    failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
    return {"failed": failed, "attempted": attempted, "share": failed / attempted}


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _judge(metric: dict, parent: list[float], change: list[float]) -> dict:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ps, cs = _summary(parent), _summary(change)
    worse_by = -sign * (cs["median"] - ps["median"]) / ps["median"]
    return {
        "unit": metric["unit"], "parent": ps, "change": cs,
        "change_wins": wins, "pairs": len(parent),
        "gain": (wins >= 0.9 * len(parent)
                 and sign * (cs["median"] - ps["median"]) > ps["q3"] - ps["q1"]),
        "worse_by": worse_by, "bound": metric["bound"],
        "regression": worse_by > metric["bound"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--label", default="pairs")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_run(getattr(args, side), args.workload, args.seed, seconds))
            m = runs[side][-1]["metrics"]
            print(f"pair {i} {side}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in m.items())
                  + f", failed {runs[side][-1]['failed']}/{runs[side][-1]['attempted']}",
                  file=sys.stderr)

    metrics = {
        m["name"]: _judge(m, [r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                          [r["metrics"][m["name"]]["value"] for r in runs["change"]])
        for m in spec["end_to_end"]
    }
    failures = {side: _failures(runs[side]) for side in runs}
    failures["change_fails_more"] = failures["change"]["share"] > failures["parent"]["share"]
    entry = {"workload": args.workload, "seed": args.seed, "seconds": seconds,
             "pairs": args.pairs, "order": "even pairs parent first, odd pairs change first",
             "metrics": metrics, "failures": failures, "runs": runs}

    path = ROOT / f"BENCH_{args.label}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"sets": []}
    doc["sets"].append(entry)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{args.workload} {name}: parent {m['parent']['median']:.4g} "
              f"change {m['change']['median']:.4g} {m['unit']}, change won "
              f"{m['change_wins']}/{m['pairs']}, gain={m['gain']} regression={m['regression']}")
    print(f"{args.workload} failed: parent {failures['parent']['failed']}/"
          f"{failures['parent']['attempted']}, change {failures['change']['failed']}/"
          f"{failures['change']['attempted']}, change fails more={failures['change_fails_more']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
