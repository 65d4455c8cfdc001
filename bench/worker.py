"""One round of one benchmark workload, in a fresh interpreter.

run.py starts this script once per phase of every round, so each phase
starts with the program's caches empty, as one command-line invocation
does.  It prints one JSON object on its last line of standard output:

    first_item_at  time.monotonic() when the first timed item started
    setup_scale    reference seconds per wall second during set-up
    window_s       seconds from the first item to the end of the phase
    items          [index, id, seconds, ok] per item, in order

Times are in reference seconds (see clock.py).
    problems       failed whole-phase checks (empty when all passed)
    notes          why single items failed
    trace          span totals when --trace 1

The timed loop records the program's outputs; every check runs after the
window closes.  An item whose check fails, or whose call raises, is not ok.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
from clock import Clock  # noqa: E402
from spans import Tracer  # noqa: E402

# Every suite of the paper's laws.  The list is fixed here, so that dropping
# a suite from the program shows as a failure, not as a speed-up.
PER_SPACE_SUITES = (
    "lemma-2.1",
    "prop-p1",
    "lemma-2.2",
    "prop-2.1",
    "thm-2.1",
    "cor-locally",
    "thm-2.2",
    "thm-2.3",
    "thm-t29",
    "subpara-implication",
    "thm-t32",
    "cor-closed-hereditary",
    "lemma-lfm1",
    "prop-hausdorff-alpha-para",
    "thm-final",
    "shared-classes",
)
FM1_SUITE = "thm-fm1"

CENSUS_N = 5
HOMEO_N = 6
FACTOR_N = 4
PAIRS_PER_ROUND = 60


def load_program(root: Path):
    """Import finitetop from the checkout's src and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import finitetop
    from finitetop import census, covers, operators, spaces, verifier

    if Path(finitetop.__file__).resolve().parent != src / "finitetop":
        raise SystemExit(f"finitetop was imported from {finitetop.__file__}, not {src}")
    return argparse.Namespace(
        census=census, covers=covers, operators=operators, spaces=spaces, verifier=verifier
    )


class Phase:
    """The items of one phase, and how the tracer attributes spans to them."""

    def __init__(self, clock: Clock, tracer):
        self.now = clock.now
        self.tracer = tracer
        self.window = 0.0
        self.items: list[list] = []
        self.problems: list[str] = []  # whole-phase checks that failed
        self.notes: list[str] = []  # why single items failed
        self.extra: dict = {}

    def call(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)

    def begin(self, index) -> None:
        if self.tracer is not None:
            self.tracer.item = index

    def end(self) -> None:
        if self.tracer is not None:
            self.tracer.item = None


# --- census writing: census-verify-5 (census phase) and homeo-census-6 --------

def write_phase(ft, phase: Phase, path: Path, n: int, up_to_homeo: bool) -> list:
    """Enumerate, profile and write one census, as `finitetop census` does.

    An item is one record: its enumeration step, profile, id, and the write
    of its line, which ends when write_census asks for the next record.
    """
    census = ft.census
    outputs = []

    def records():
        it = census.enumerate_topologies(n, up_to_homeo=up_to_homeo)
        index = 0
        while True:
            phase.begin(index)
            t0 = phase.now()
            try:
                t = phase.call("census.enumerate_topologies", next, it)
            except StopIteration:
                phase.end()
                return
            except Exception as exc:  # the enumeration broke: no more items
                phase.end()
                phase.problems.append(f"enumeration: {type(exc).__name__}: {exc}")
                return
            try:
                rec = census.CensusRecord(census.space_id(t), t, census.profile(t))
            except Exception as exc:  # the item fails; the census goes on
                phase.items.append([index, None, phase.now() - t0, False])
                phase.notes.append(f"item {index}: {type(exc).__name__}: {exc}")
                outputs.append(None)
                index += 1
                continue
            outputs.append((rec.id, t.min_nbhd, t.opens, rec.profile.to_obj()))
            yield rec
            phase.items.append([index, rec.id, phase.now() - t0, True])
            index += 1

    with open(path, "w", encoding="utf-8") as fh:
        try:
            census.write_census(records(), fh)
        except Exception as exc:  # the items written so far still count
            phase.problems.append(f"write_census: {type(exc).__name__}: {exc}")
    return outputs


def check_written(phase: Phase, outputs: list, n: int, expected: int) -> None:
    """Each record against the reference definitions, then the whole census."""
    ids, tables = set(), set()
    for item, out in zip(phase.items, outputs):
        if out is None:
            continue
        rid, U, opens, prof = out
        V = oracle.alpha_table(U)
        ok = (
            rid == oracle.record_id(n, list(opens))
            and list(opens) == oracle.upsets(U)
            and prof["sizes"]["alpha"] == len(oracle.upsets(V))
            and prof["properties"]["alpha-subparacompact"] == oracle.alpha_subparacompact(U)
            and prof["properties"]["nodec"] == (V == U)
        )
        item[3] = item[3] and ok
        if not ok:
            phase.notes.append(f"item {item[0]}: record {rid} disagrees with the reference")
        ids.add(rid)
        tables.add(U)
    if len(outputs) != expected:
        phase.problems.append(f"census has {len(outputs)} records, expected {expected}")
    if len(ids) != len(outputs) or len(tables) != len(outputs):
        phase.problems.append("census repeats a record id or a space")


def census_phase(ft, phase: Phase, args) -> None:
    path = Path(args.census_file)
    start = phase.now()
    outputs = write_phase(ft, phase, path, CENSUS_N, up_to_homeo=False)
    phase.window = phase.now() - start
    data = path.read_bytes()
    phase.extra["digest"] = hashlib.sha256(data).hexdigest()
    if phase.tracer is not None:
        phase.tracer.count("census.write_census.bytes", len(data))
    check_written(phase, outputs, CENSUS_N, oracle.LABELED_COUNTS[CENSUS_N])


def homeo_phase(ft, phase: Phase, args) -> None:
    path = Path(args.census_file)
    start = phase.now()
    outputs = write_phase(ft, phase, path, HOMEO_N, up_to_homeo=True)
    phase.window = phase.now() - start
    if phase.tracer is not None:
        phase.tracer.count("census.write_census.bytes", path.stat().st_size)
    path.unlink()
    check_written(phase, outputs, HOMEO_N, oracle.HOMEO_COUNTS[HOMEO_N])
    # distinct classes whose orbits add up to every labeled space are a
    # complete set of representatives
    classes = [out for out in outputs if out is not None]
    forms, labeled = set(), 0
    for out in classes:
        form, autos = oracle.canonical_form(out[1])
        forms.add(form)
        labeled += math.factorial(HOMEO_N) // autos
    if len(forms) != len(classes):
        phase.problems.append("two emitted classes are homeomorphic")
    if labeled != oracle.LABELED_COUNTS[HOMEO_N]:
        phase.problems.append(f"class orbits cover {labeled} labeled spaces")
    phase.extra["labeled"] = labeled
    if phase.tracer is not None:
        preorder_pass(ft, phase)


def preorder_pass(ft, phase: Phase) -> None:
    """Build every labeled 6-point space on its own, outside the window.

    Its spans give spaces.from_preorder, and its whole time is what
    enumerate_topologies spends before deduplication.
    """
    census, spaces = ft.census, ft.spaces
    start = phase.now()
    for r in census.enumerate_preorders(HOMEO_N):
        phase.call("spaces.from_preorder", spaces.from_preorder, r)
    phase.extra["preorder_pass_s"] = phase.now() - start


# --- census-verify-5: verify phase ------------------------------------------

def verify_phase(ft, phase: Phase, args) -> None:
    """Read the census back and run every law suite, as `finitetop verify`
    does on a census file.

    The order is the command's: each suite in turn sweeps every space, so a
    space's cache entries must last from one suite to the next.  Each suite
    runs on one space at a time, and an item's time is the sum of its
    space's calls.
    """
    census, verifier = ft.census, ft.verifier
    path = Path(args.census_file)
    start = phase.now()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            records = census.read_census(fh)
        except Exception as exc:  # no record reads back: every item fails
            records = []
            phase.problems.append(f"read_census: {type(exc).__name__}: {exc}")
    phase.items = [[index, rec.id, 0.0, True] for index, rec in enumerate(records)]
    results = [[] for _ in records]
    for suite in PER_SPACE_SUITES:
        for item, rec, reports in zip(phase.items, records, results):
            phase.begin(item[0])
            t0 = phase.now()
            try:
                reports.append(verifier.run_suite(suite, (rec.space,)))
            except Exception as exc:  # the item fails; the sweep goes on
                if item[3]:
                    phase.notes.append(f"item {item[0]}: {suite}: {type(exc).__name__}: {exc}")
                item[3] = False
            item[2] += phase.now() - t0
    phase.end()
    sample = tuple(rec.space for rec in records[: oracle.FM1_SAMPLE])
    try:
        fm1 = verifier.run_suite(FM1_SUITE, sample)
    except Exception as exc:
        fm1 = None
        phase.problems.append(f"{FM1_SUITE}: {type(exc).__name__}: {exc}")
    phase.window = phase.now() - start

    data = path.read_bytes()
    if hashlib.sha256(data).hexdigest() != args.digest:
        phase.problems.append("census file changed between writing and reading")
    if phase.tracer is not None:
        phase.tracer.count("census.read_census.records", len(records))
    lines = data.decode("utf-8").splitlines()[1:]
    if len(lines) != len(records):
        phase.problems.append(f"read {len(records)} records from {len(lines)} lines")
    for item, rec, line, reports in zip(phase.items, records, lines, results):
        readback = {
            "id": rec.id,
            "n": rec.n,
            "opens": [oracle.points(u) for u in rec.space.opens],
            "profile": rec.profile.to_obj(),
        }
        ok = readback == json.loads(line) and [
            (r.suite, r.spaces_checked, r.passed) for r in reports
        ] == [(s, 1, True) for s in PER_SPACE_SUITES]
        if not ok and item[3]:
            phase.notes.append(f"item {item[0]}: read-back or suite check failed")
        item[3] = item[3] and ok
    fm1_maps = oracle.FM1_SAMPLE ** 2 * math.factorial(CENSUS_N)
    if fm1 is not None and not (fm1.passed and fm1.spaces_checked == fm1_maps):
        phase.problems.append(
            f"thm-fm1: {len(fm1.violations)} violations over {fm1.spaces_checked} maps, "
            f"expected 0 over {fm1_maps}"
        )


# --- products-16 ---------------------------------------------------------------

def factor_pool() -> list[tuple[int, ...]]:
    """Tables of the α-subparacompact 4-point spaces, in a fixed order."""
    return sorted(
        U for U in oracle.preorder_tables(FACTOR_N) if oracle.alpha_subparacompact(U)
    )


def products_pairs(seed: int) -> list[tuple[int, int]]:
    """This seed's sample of the unordered pairs of factor_pool() indices.

    The pairs are ordered by the size of what the program builds and caches
    for them (open sets of the product and of its α-topology), which ranges
    from 4 to 131,072, and cut into PAIRS_PER_ROUND strata of equal count.
    Each stratum gives one random pair, except the top one, which always
    gives its largest: a few pairs there are ten times larger than the rest,
    and drawing them by lot would make peak memory a lottery.
    """
    pool = factor_pool()
    sizes = {}
    for i in range(len(pool)):
        for j in range(i, len(pool)):
            U = oracle.product_table(pool[i], pool[j])
            sizes[i, j] = oracle.count_upsets(U) + oracle.count_upsets(oracle.alpha_table(U))
    pairs = sorted(sizes, key=lambda ij: (sizes[ij], ij))
    rng = random.Random(seed)
    bounds = [len(pairs) * k // PAIRS_PER_ROUND for k in range(PAIRS_PER_ROUND + 1)]
    chosen = [pairs[rng.randrange(lo, hi)] for lo, hi in zip(bounds[:-2], bounds[1:-1])]
    return chosen + [pairs[-1]]


def products_setup(ft):
    """The α-subparacompact 4-point spaces, as `search --predicate
    question1-witness` builds them, in factor_pool() order."""
    census, covers = ft.census, ft.covers
    pool = [
        t for t in census.labeled_census(FACTOR_N)
        if covers.check_property(t, "alpha-subparacompact")
    ]
    pool.sort(key=lambda t: t.min_nbhd)
    return pool


def products_phase(ft, phase: Phase, args, pool) -> None:
    spaces, operators, covers = ft.spaces, ft.operators, ft.covers
    pairs = [tuple(map(int, ij.split(":"))) for ij in args.pairs.split(",")]
    outputs = []
    start = phase.now()
    for index, (i, j) in enumerate(pairs):
        phase.begin(index)
        t0 = phase.now()
        try:
            p = spaces.product(pool[i], pool[j])
            pa = operators.alpha_topology(p)
            verdict = covers.check_property(p, "alpha-subparacompact")
            outputs.append((p.min_nbhd, pa.min_nbhd, verdict))
            ok = True
        except Exception as exc:  # the item fails; the sweep goes on
            outputs.append(None)
            ok = False
            phase.notes.append(f"item {index}: {type(exc).__name__}: {exc}")
        phase.items.append([index, f"{i}x{j}", phase.now() - t0, ok])
    phase.end()
    phase.window = phase.now() - start

    reference = factor_pool()
    if [t.min_nbhd for t in pool] != reference:
        phase.problems.append(
            f"{len(pool)} α-subparacompact {FACTOR_N}-point spaces, expected {len(reference)}"
        )
    for item, out, (i, j) in zip(phase.items, outputs, pairs):
        if out is None:
            continue
        U = oracle.product_table(pool[i].min_nbhd, pool[j].min_nbhd)
        ok = out == (U, oracle.alpha_table(U), oracle.alpha_subparacompact(U))
        if not ok:
            phase.notes.append(f"item {item[0]}: pair {item[1]} disagrees with the reference")
        item[3] = item[3] and ok


# --- entry point -------------------------------------------------------------

ROLES = ("census", "verify", "products", "homeo")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout that holds src/finitetop")
    parser.add_argument("--role", required=True, choices=ROLES)
    parser.add_argument("--pairs", help="products-16: i:j,... indices into factor_pool()")
    parser.add_argument("--census-file", help="census file the phase writes or reads")
    parser.add_argument("--digest", help="sha256 of the census file to read")
    parser.add_argument("--setup-only", action="store_true", help="stop before the first item")
    parser.add_argument("--trace-out", help="write per-item span totals here (traced run)")
    args = parser.parse_args()

    clock = Clock()
    clock.start()
    ft = load_program(Path(args.root))
    tracer = None
    if args.trace_out:
        tracer = Tracer(clock.now)
        tracer.install()
    pool = products_setup(ft) if args.role == "products" else None
    first_item_at = time.monotonic()
    setup_scale = clock.scale()
    if args.setup_only:
        clock.stop()
        print(json.dumps({"first_item_at": first_item_at, "setup_scale": setup_scale}))
        return 0
    if tracer is not None:
        tracer.reset()

    phase = Phase(clock, tracer)
    if args.role == "census":
        census_phase(ft, phase, args)
    elif args.role == "verify":
        verify_phase(ft, phase, args)
    elif args.role == "products":
        products_phase(ft, phase, args, pool)
    else:
        homeo_phase(ft, phase, args)
    clock.stop()

    result = {
        "first_item_at": first_item_at,
        "setup_scale": setup_scale,
        "window_s": phase.window,
        "items": phase.items,
        "problems": phase.problems,
        "notes": phase.notes,
        "extra": phase.extra,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        with gzip.open(args.trace_out, "wt", encoding="utf-8") as fh:
            for index, seconds in ((it[0], it[2]) for it in phase.items):
                spans = tracer.items.get(index, {})
                fh.write(json.dumps({"role": args.role, "item": index,
                                     "seconds": seconds, "spans": spans}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
