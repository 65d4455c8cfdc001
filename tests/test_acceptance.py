"""End-to-end acceptance checks, one test per criterion.

Each test prints one PASS/FAIL line (run with -s to see them live).  The
criterion computations are packaged as report builders returning canonical
text so the determinism criterion can re-run and byte-compare all of them.
"""

import functools
import io
import time

from conftest import MODE_PAIRS
from finitetop import (
    build_topology,
    profile,
    read_census,
    run_suite,
    search,
    write_census,
)
from finitetop.census import census_records, labeled_census
from finitetop.verifier import search_counts, witness_to_obj
from oracles import (
    CONSTRAINTS,
    canonical_cover,
    count_topologies_direct,
    every_cover_has_refinement,
    every_cover_has_refinement_exhaustive,
    has_refinement,
    has_refinement_exhaustive,
    homeo_census,
    irredundant_covers,
)

ONE_OPEN_POINT = build_topology(3, [0b001])

CLASS_IDENTITY_SUITES = ("lemma-2.1", "prop-2.1", "prop-p1", "lemma-2.2", "shared-classes")
COVERING_SUITES = (
    "thm-2.1",
    "cor-locally",
    "thm-2.2",
    "thm-2.3",
    "thm-t29",
    "subpara-implication",
)


def announce(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def runner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")

        return runner

    return wrap


# --- report builders (shared with the determinism criterion) -------------------

def report_class_identities():
    lines = []
    for n in (3, 4):
        pool = labeled_census(n)
        for tag in CLASS_IDENTITY_SUITES:
            lines.append(run_suite(tag, pool).to_text())
    return "\n".join(lines)


def report_gc_mismatch_search():
    witnesses = search("gc-mismatch", 3)
    counts = search_counts(witnesses, 3)
    lines = [f"n={n}: {counts[n]} witnesses" for n in sorted(counts)]
    lines += [str(witness_to_obj(w)) for w in witnesses]
    return "\n".join(lines)


def report_e31_analog_profile():
    prof = profile(ONE_OPEN_POINT)
    certified = has_refinement_exhaustive(
        ONE_OPEN_POINT, canonical_cover(ONE_OPEN_POINT, "alpha-open"), "closed+sigma-discrete"
    )
    return (
        f"compact={prof.properties['compact']} "
        f"alpha-subparacompact={prof.properties['alpha-subparacompact']} "
        f"exhaustive-refinement-exists={certified}"
    )


def report_mode_agreement():
    lines = []
    for t in labeled_census(3):
        for (cover_kind, constraint), production in MODE_PAIRS.items():
            p = production(t)
            s = every_cover_has_refinement(t, cover_kind, constraint)
            e = every_cover_has_refinement_exhaustive(t, cover_kind, constraint)
            lines.append(f"{cover_kind}/{constraint}: {p} {s} {e}")
            assert p == s == e, (t, cover_kind, constraint)
        for cover in irredundant_covers(t, "alpha-open"):
            for constraint in CONSTRAINTS:
                s = has_refinement(t, cover, constraint)
                e = has_refinement_exhaustive(t, cover, constraint)
                assert s == e, (t, cover.members, constraint)
    return "\n".join(lines)


def report_covering_biconditionals():
    lines = []
    for n in (1, 2, 3, 4):
        pool = labeled_census(n)
        for tag in COVERING_SUITES:
            lines.append(run_suite(tag, pool).to_text())
    return "\n".join(lines)


def report_subspace_heredity():
    lines = []
    for n in (1, 2, 3, 4):
        pool = labeled_census(n)
        lines.append(run_suite("thm-t32", pool).to_text())
        lines.append(run_suite("cor-closed-hereditary", pool).to_text())
    return "\n".join(lines)


def report_image_law_sweep():
    return run_suite("thm-fm1", labeled_census(3)).to_text()


def report_census_integrity():
    labeled = [len(labeled_census(n)) for n in (1, 2, 3, 4, 5)]
    homeo = [len(homeo_census(n)) for n in (1, 2, 3, 4, 5)]
    direct = [count_topologies_direct(n) for n in (1, 2, 3)]
    buf = io.StringIO()
    write_census(census_records(3), buf)
    text = buf.getvalue()
    again = io.StringIO()
    write_census(read_census(io.StringIO(text)), again)
    round_trip = "ok" if again.getvalue() == text else "broken"
    return (
        f"labeled={labeled} homeo={homeo} direct={direct} round-trip={round_trip}"
    )


BUILDERS = (
    report_class_identities,
    report_gc_mismatch_search,
    report_e31_analog_profile,
    report_mode_agreement,
    report_covering_biconditionals,
    report_subspace_heredity,
    report_image_law_sweep,
    report_census_integrity,
)


# --- criteria -------------------------------------------------------------------

@announce(1, "class identities over the n<=4 censuses")
def test_criterion_1_class_identity_suites():
    start = time.perf_counter()
    text = report_class_identities()
    elapsed = time.perf_counter() - start
    assert " 0 violations" in text
    assert "29 checked" in text and "355 checked" in text
    for line in text.splitlines():
        assert "0 violations" in line, line
    assert elapsed < 30.0, f"class-identity suites took {elapsed:.1f}s"


@announce(2, "g-closed mismatch witness at three points")
def test_criterion_2_gc_mismatch_search(capsys):
    witnesses = search("gc-mismatch", 3)
    counts = search_counts(witnesses, 3)
    assert counts[1] == 0 and counts[2] == 0, "witness found below three points"
    mine = [w for w in witnesses if w.spaces[0] == ONE_OPEN_POINT]
    assert len(mine) == 1
    assert mine[0].subsets == (0b011,)
    assert "T^α = {∅,{a},{a,b},{a,c},X}" in mine[0].explanation

    from finitetop.cli import main

    assert main(["search", "--predicate", "gc-mismatch", "--max-n", "3"]) == 0
    out = capsys.readouterr().out
    assert "n=1: 0 witnesses" in out and "n=2: 0 witnesses" in out
    assert "T = {∅,{a},X}" in out
    assert "T^α = {∅,{a},{a,b},{a,c},X}" in out
    assert "{a,b}" in out


@announce(3, "compact space refusing closed refinements")
def test_criterion_3_compact_not_alpha_subparacompact():
    prof = profile(ONE_OPEN_POINT)
    assert prof.properties["compact"] is True
    assert prof.properties["alpha-subparacompact"] is False
    ok, witness = has_refinement_exhaustive(
        ONE_OPEN_POINT,
        canonical_cover(ONE_OPEN_POINT, "alpha-open"),
        "closed+sigma-discrete",
        want_witness=True,
    )
    assert ok is False and witness is None, "exhaustive search found a refinement"


@announce(4, "simplified mode equals exhaustive mode on all 3-point spaces")
def test_criterion_4_mode_agreement():
    text = report_mode_agreement()
    assert len(text.splitlines()) == 29 * len(MODE_PAIRS)


@announce(5, "covering-property biconditionals over the n<=4 census")
def test_criterion_5_covering_biconditionals():
    text = report_covering_biconditionals()
    for line in text.splitlines():
        assert "0 violations" in line, line
        assert "vacuous" in line  # vacuity counts are part of every report


@announce(6, "subspace heredity of closed refinability over the n<=4 census")
def test_criterion_6_subspace_heredity():
    text = report_subspace_heredity()
    for line in text.splitlines():
        assert "0 violations" in line, line


@announce(7, "image-law sweep over all 3-point surjections")
def test_criterion_7_image_law_sweep():
    report = run_suite("thm-fm1", labeled_census(3))
    assert report.spaces_checked == 29 * 29 * 6
    assert report.violations == ()


@announce(8, "census counts, independent oracle, byte-stable files")
def test_criterion_8_census_integrity():
    text = report_census_integrity()
    assert "labeled=[1, 4, 29, 355, 6942]" in text
    assert "homeo=[1, 3, 9, 33, 139]" in text
    assert "direct=[1, 4, 29]" in text
    assert "round-trip=ok" in text


@announce(9, "byte-identical reports on repeated runs")
def test_criterion_9_determinism():
    for builder in BUILDERS:
        first = builder()
        second = builder()
        assert first == second, f"{builder.__name__} is not deterministic"
