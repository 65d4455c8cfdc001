"""Check the benchmark's reference computations against the program.

    python3 bench/selftest.py

The workloads trust oracle.py to judge the program's outputs, so its
definitions are first compared with the program where both are known to be
right: every labeled space with n <= 5 (7,331 spaces) and a seeded sample of
16-point products.  The canonical form is compared with the published
counts of spaces up to homeomorphism.  The exit status is 0 when all agree.
"""

from __future__ import annotations

import math
import random
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
from worker import FACTOR_N, load_program  # noqa: E402

SEED = 1
PRODUCTS = 12  # sampled 16-point products


def main() -> int:
    ft = load_program(BENCH.parent)
    census, covers, operators, spaces = ft.census, ft.covers, ft.operators, ft.spaces
    bad: list[str] = []
    started = time.perf_counter()

    checked = 0
    for n in range(1, 6):
        tables = set()
        orbits = {}
        for t in census.labeled_census(n):
            U = t.min_nbhd
            tables.add(U)
            checked += 1
            if operators.alpha_topology(t).min_nbhd != oracle.alpha_table(U):
                bad.append(f"alpha table of {U}")
            if covers.check_property(t, "alpha-subparacompact") != oracle.alpha_subparacompact(U):
                bad.append(f"alpha-subparacompact verdict of {U}")
            if list(t.opens) != oracle.upsets(U) or len(t.opens) != oracle.count_upsets(U):
                bad.append(f"open sets of {U}")
            if census.space_id(t) != oracle.record_id(n, list(t.opens)):
                bad.append(f"record id of {U}")
            form, autos = oracle.canonical_form(U)
            orbits[form] = math.factorial(n) // autos
        if len(tables) != oracle.LABELED_COUNTS[n]:
            bad.append(f"{len(tables)} labeled {n}-point spaces")
        if n <= FACTOR_N and tables != set(oracle.preorder_tables(n)):
            bad.append(f"{n}-point spaces differ from the brute-force enumeration")
        # each class's orbit must hold exactly the labeled spaces of its form
        labeled = sum(orbits.values())
        if len(orbits) != oracle.HOMEO_COUNTS[n] or labeled != oracle.LABELED_COUNTS[n]:
            bad.append(f"{len(orbits)} canonical forms covering {labeled} spaces at n={n}")
        print(f"n={n}: {len(tables)} labeled spaces, {len(orbits)} classes", flush=True)

    pool = sorted(
        (t for t in census.labeled_census(FACTOR_N)
         if covers.check_property(t, "alpha-subparacompact")),
        key=lambda t: t.min_nbhd,
    )
    rng = random.Random(SEED)
    verdicts = []
    for _ in range(PRODUCTS):
        t1, t2 = rng.choice(pool), rng.choice(pool)
        p = spaces.product(t1, t2)
        U = oracle.product_table(t1.min_nbhd, t2.min_nbhd)
        verdict = covers.check_property(p, "alpha-subparacompact")
        verdicts.append(verdict)
        pa = operators.alpha_topology(p)
        if (p.min_nbhd, pa.min_nbhd, verdict, len(p.opens) + len(pa.opens)) != (
            U, oracle.alpha_table(U), oracle.alpha_subparacompact(U),
            oracle.count_upsets(U) + oracle.count_upsets(oracle.alpha_table(U)),
        ):
            bad.append(f"product of {t1.min_nbhd} and {t2.min_nbhd}")

    for line in bad[:20]:
        print(f"disagree: {line}")
    print(f"{checked} labeled spaces and {PRODUCTS} 16-point products "
          f"({sum(verdicts)} alpha-subparacompact) checked in "
          f"{time.perf_counter() - started:.1f} s: "
          f"{'all agree' if not bad else f'{len(bad)} disagreements'}")
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
