"""finitetop benchmark: one workload, measured for a given time.

    python3 bench/run.py --workload census-verify-5 --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout that holds src/finitetop.  It starts
bench/worker.py once per phase of each round, one process at a time, and
runs whole rounds until the timed windows add up to --seconds.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones in BENCHMARK.json; with
--trace 1 they are the per-layer ones, from a run with spans recorded.
A summary with tails and their sample counts goes to standard error, and
the full result to bench/out/.  The exit status is 0 when the run
completed, whatever its checks found, and 1 when it could not run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

sys.path.insert(0, str(BENCH))
from worker import FM1_SUITE, PER_SPACE_SUITES, products_pairs  # noqa: E402

WORKLOADS = ("census-verify-5", "products-16", "homeo-census-6")
# set-up-only processes per untraced run, besides the set-up of every phase
SETUP_PROBES = 6
# every run ends within this many seconds, or fails
RUN_LIMIT_S = 170
PERCENTILES = (75, 90, 95, 99, 99.9)


class RunFailed(Exception):
    pass


class Run:
    def __init__(self, args, tmp: Path):
        self.args = args
        self.tmp = tmp
        self.started = time.monotonic()
        self.setup: list[float] = []
        self.window = 0.0
        self.rounds = 0
        self.items: list[list] = []  # [id, seconds, ok]
        self.units = 0  # what items_per_s counts
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.traces: list[dict] = []
        self.pairs = None
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def spawn(self, role: str, *extra: str, setup_only: bool = False) -> dict:
        cmd = [sys.executable, str(WORKER), "--root", str(ROOT), "--role", role, *extra]
        if setup_only:
            cmd.append("--setup-only")
        elif self.args.trace:
            name = f"trace-{self.args.workload}-seed{self.args.seed}-{role}-r{self.rounds}.jsonl.gz"
            cmd += ["--trace-out", str(OUT / name)]
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        launched = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=self.env,
                                  timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{role} phase passed the {RUN_LIMIT_S} s limit") from None
        if proc.returncode != 0:
            raise RunFailed(f"{role} phase exited with status {proc.returncode}")
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            raise RunFailed(f"{role} phase printed no result") from None
        self.setup.append((result["first_item_at"] - launched) * result["setup_scale"])
        if not setup_only:
            self.window += result["window_s"]
            self.problems += [f"{role}: {p}" for p in result["problems"]]
            self.notes += [f"{role}: {p}" for p in result["notes"]]
            if "trace" in result:
                self.traces.append(result)
        return result

    # --- one round of each workload ---------------------------------------------

    def census_verify_round(self) -> None:
        """Census of the 5-point spaces to a file, then verify of that file.

        An item is one space; its time is its census record plus its suites.
        """
        path = str(self.tmp / f"census-r{self.rounds}.txt")
        written = self.spawn("census", "--census-file", path)
        read = self.spawn("verify", "--census-file", path, "--digest", written["extra"]["digest"])
        os.unlink(path)
        verified = {item[0]: item for item in read["items"]}
        for index, rid, seconds, ok in written["items"]:
            other = verified.get(index, [index, None, 0.0, False])
            ok = ok and other[3] and other[1] == rid
            self.items.append([rid, seconds + other[2], ok])
            self.units += ok

    def products_round(self) -> None:
        if self.pairs is None:
            self.pairs = ",".join(f"{i}:{j}" for i, j in products_pairs(self.args.seed))
        result = self.spawn("products", "--pairs", self.pairs)
        self.items += [it[1:] for it in result["items"]]
        self.units += sum(1 for it in result["items"] if it[3])

    def homeo_round(self) -> None:
        """The whole `census --n 6 --up-to-homeo` job; an item is one class."""
        result = self.spawn("homeo", "--census-file", str(self.tmp / "homeo.txt"))
        self.items += [it[1:] for it in result["items"]]
        # the labeled spaces that the emitted classes stand for, by orbit count
        self.units += result["extra"].get("labeled", 0)

    def execute(self) -> None:
        round_fn = {
            "census-verify-5": self.census_verify_round,
            "products-16": self.products_round,
            "homeo-census-6": self.homeo_round,
        }[self.args.workload]
        if not self.args.trace:
            role = {"census-verify-5": "census", "products-16": "products",
                    "homeo-census-6": "homeo"}[self.args.workload]
            for _ in range(SETUP_PROBES):
                self.spawn(role, setup_only=True)
        while self.rounds == 0 or 0 < self.window < self.args.seconds:
            round_fn()
            self.rounds += 1


# --- metrics ------------------------------------------------------------------

def tail(seconds: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(seconds)
    n = len(ordered)
    out = {"samples": n, "p50_ms": 1000 * statistics.median(ordered)}
    for q in PERCENTILES:
        if n * (100 - q) / 100 >= 10:
            out[f"p{q:g}_ms"] = 1000 * ordered[math.ceil(n * q / 100) - 1]
    return out


def end_to_end(run: Run) -> dict:
    ok = [s for _, s, good in run.items if good]
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "items_per_s": {"value": run.units / run.window if run.window else 0.0, "unit": "1/s"},
        "item_p50_ms": {"value": 1000 * statistics.median(ok) if ok else 0.0, "unit": "ms"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        "setup_s": {"value": statistics.median(run.setup), "unit": "s"},
    }


def per_layer(run: Run) -> dict:
    totals: dict[str, list] = {}
    counts: dict[str, int] = {}
    caches: dict[str, list] = {}
    gc_runs, gc_pause, preorder_pass = 0, 0.0, 0.0
    for result in run.traces:
        tr = result["trace"]
        for name, rec in tr["totals"].items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += rec[k]
        for name, k in tr["counts"].items():
            counts[name] = counts.get(name, 0) + k
        for name, (hits, misses, entries) in tr["caches"].items():
            acc = caches.setdefault(name, [0, 0, 0])
            acc[0] += hits
            acc[1] += misses
            acc[2] = max(acc[2], entries)
        gc_runs += tr["gc"][0]
        gc_pause += tr["gc"][1]
        preorder_pass += result["extra"].get("preorder_pass_s", 0.0)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def span(label, calls=True):
        rec = totals.get(label, [0, 0.0, 0.0])
        if calls:
            put(f"{label}.calls", rec[0], "count")
        put(f"{label}.self_s", rec[2], "s")

    def ratio(a, b):
        return a / b if b else 0.0

    span("spaces.product")
    span("spaces.from_preorder")
    span("census.enumerate_topologies", calls=False)
    enum_self = totals.get("census.enumerate_topologies", [0, 0.0, 0.0])[2]
    put("census.dedup_residual_s", enum_self - preorder_pass if preorder_pass else 0.0, "s")
    for label in ("operators.alpha_topology", "operators.set_class"):
        span(label)
        hits, misses, _ = caches.get(label, [0, 0, 0])
        put(f"{label}.hit_ratio", ratio(hits, hits + misses), "ratio")
    span("operators.hull")
    span("covers.check_property")
    hits, misses, _ = caches.get("covers.check_property", [0, 0, 0])
    put("covers.check_property.hit_ratio", ratio(hits, hits + misses), "ratio")
    put("maps.enumerate_maps.maps", counts.get("maps.enumerate_maps.maps", 0), "count")
    span("maps.verify_fm1")
    fm1_calls = totals.get("maps.verify_fm1", [0])[0]
    put("maps.verify_fm1.applicable_ratio",
        ratio(counts.get("maps.verify_fm1.applicable", 0), fm1_calls), "ratio")
    span("census.profile")
    span("census.space_id", calls=False)
    span("census.write_census", calls=False)
    put("census.write_census.bytes", counts.get("census.write_census.bytes", 0), "B")
    span("census.read_census", calls=False)
    put("census.read_census.records", counts.get("census.read_census.records", 0), "count")
    for suite in PER_SPACE_SUITES + (FM1_SUITE,):
        span(f"verifier.run_suite.{suite}", calls=False)
    for label in ("operators.alpha_topology", "covers.check_property"):
        put(f"{label}.cache_entries", caches.get(label, [0, 0, 0])[2], "count")
    put("runtime.gc.collections", gc_runs, "count")
    put("runtime.gc.pause_s", gc_pause, "s")
    return metrics


def report(run: Run, result: dict) -> None:
    ok = [s for _, s, good in run.items if good]
    detail = {
        "workload": run.args.workload,
        "seed": run.args.seed,
        "trace": run.args.trace,
        "rounds": run.rounds,
        "window_s": run.window,
        "items_per_s": run.units / run.window if run.window else 0.0,
        "item_times": tail(ok) if ok else {},
        "setup_samples_s": run.setup,
        "problems": run.problems,
        "notes": run.notes[:20],
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        **result,
    }
    name = f"result-{run.args.workload}-seed{run.args.seed}-trace{int(run.args.trace)}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1) + "\n")
    print(f"{run.args.workload} seed {run.args.seed}: {run.rounds} rounds, "
          f"{run.window:.2f} s timed, {detail['items_per_s']:.4g} items/s"
          + (" (traced)" if run.args.trace else ""), file=sys.stderr)
    if ok:
        print("item times: " + ", ".join(
            f"{k} {v:.4g}" if k != "samples" else f"{v} samples"
            for k, v in detail["item_times"].items()), file=sys.stderr)
    for line in run.problems + run.notes[:20]:
        print(f"check failed: {line}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description="finitetop benchmark, one workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="rounds run until their timed windows add up to this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn a stop request into an exception, so the running phase is killed
    # and waited for, and the temporary files go
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    if not (ROOT / "src" / "finitetop" / "__init__.py").is_file():
        print(f"benchmark: no src/finitetop under {ROOT}", file=sys.stderr)
        return 1
    # bytecode is compiled here, once, so no phase pays for it in its set-up
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        run = Run(args, tmp)
        run.execute()
    except RunFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    ok_items = sum(1 for it in run.items if it[2])
    result = {
        "correct": not run.problems,
        "attempted": len(run.items),
        "failed": len(run.items) - ok_items,
        "metrics": per_layer(run) if args.trace else end_to_end(run),
    }
    report(run, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
