"""Do two sets of runs of the same code agree within BENCHMARK.json's bounds?

    python3 bench/steady.py [--first-seed 1]

It makes two sets of ten runs of every workload in BENCHMARK.json; each
run gets its own seed, counting up from --first-seed.  For every workload
and end-to-end metric it prints each set's median and spread (the distance
between the first and third quartile, as a share of the median) and how
far the second median moved from the first.  A metric agrees when its
spread stays within its bound in both sets and the second median is within
the bound of the first in either direction; a workload also needs both
sets to fail the same share of their items.  The exit status is 0 when
everything agrees, else 1.  The figures are also written to
bench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2
RUNS = 10  # per workload per set


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    sets = []
    seed = args.first_seed
    for s in range(SETS):
        runs: dict[str, list[dict]] = {w: [] for w in names}
        for _ in range(RUNS):
            for w in names:
                result = run_once(spec, w, seed)
                runs[w].append({"seed": seed, **result})
                values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"set {s + 1} {w} seed {seed}: {values} "
                      f"failed={result['failed']}/{result['attempted']} "
                      f"correct={result['correct']} wall={result['wall_s']:.1f}s", flush=True)
                seed += 1
        sets.append(runs)

    agree = True
    summary = []
    print()
    print(f"{'workload':16} {'metric':12} {'bound':>6} "
          + " ".join(f"{'median' + str(s + 1):>11} {'spread' + str(s + 1):>8}"
                     for s in range(len(sets)))
          + "  moved  verdict")
    for w in names:
        shares = {
            Fraction(sum(r["failed"] for r in runs[w]), sum(r["attempted"] for r in runs[w]))
            for runs in sets
        }
        if len(shares) > 1 or not all(r["correct"] for runs in sets for r in runs[w]):
            agree = False
            print(f"{w}: failed shares {sorted(map(str, shares))} differ, or a check failed")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols, ok = [], True
            medians = []
            for runs in sets:
                med, spr = spread([r["metrics"][name]["value"] for r in runs[w]])
                medians.append(med)
                cols.append((med, spr))
                if spr > bound:
                    ok = False
            moved = (medians[1] - medians[0]) / medians[0]
            if abs(moved) > bound:
                ok = False
            agree = agree and ok
            summary.append({"workload": w, "metric": name, "bound": bound,
                            "sets": [{"median": a, "spread": b} for a, b in cols],
                            "moved": moved, "agree": ok})
            print(f"{w:16} {name:12} {bound:6.2f} "
                  + " ".join(f"{a:11.5g} {b:8.3f}" for a, b in cols)
                  + f"  {moved:+.3f}  {'agree' if ok else 'DISAGREE'}")

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps({"summary": summary, "runs": sets}, indent=1) + "\n")
    print(f"\n{'all metrics agree' if agree else 'some metrics disagree'}; figures in {path}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
