"""Law suites over census streams and witness searches."""

import pytest

from finitetop import alpha_topology, discrete, product, run_suite, search, set_class
from finitetop.census import labeled_census
from oracles import (
    SetFamily,
    every_cover_has_refinement_exhaustive,
    has_refinement_exhaustive,
    is_homeomorphic,
)
from finitetop.verifier import (
    SEARCH_PREDICATES,
    SUITE_DESCRIPTIONS,
    SUITE_TAGS,
    search_counts,
    witness_to_obj,
)


def test_every_suite_has_a_description():
    assert set(SUITE_DESCRIPTIONS) == set(SUITE_TAGS)


def test_one_check_builds_each_space_tables_once(table_builds):
    # a per-space suite on one space touches T and T^α, and the scope it
    # opens shares their tables across every scan and hull table it asks for
    built = 0
    for suite in SUITE_TAGS:
        if suite == "thm-fm1":
            continue
        for t in labeled_census(4):
            set_class.cache_clear()
            table_builds.clear()
            run_suite(suite, (t,))
            assert set(table_builds) <= {t, alpha_topology(t)}, (suite, t)
            assert max(table_builds.values(), default=0) <= 1, (suite, t)
            built += sum(table_builds.values())
    assert built > 0


def test_lemma_21_over_three_point_census():
    report = run_suite("lemma-2.1", labeled_census(3))
    assert report.spaces_checked == 29
    assert report.violations == ()
    assert "29 checked, 0 violations" in report.to_text()


def test_t32_on_discrete_two_points():
    report = run_suite("thm-t32", [discrete(2)])
    assert report.spaces_checked == 1
    assert report.violations == ()
    assert report.vacuous_count == 0


def test_fm1_sweep_two_point_pairs():
    report = run_suite("thm-fm1", labeled_census(2))
    assert report.violations == ()
    # 4x4 ordered pairs, 2 surjections each
    assert report.spaces_checked == 32


@pytest.mark.parametrize("suite", SUITE_TAGS)
def test_all_suites_pass_on_small_censuses(suite):
    for n in (1, 2, 3):
        report = run_suite(suite, labeled_census(n))
        assert report.passed, report.to_text()


def test_all_suites_pass_at_n4_with_sampled_fm1():
    pool = labeled_census(4)
    for suite in SUITE_TAGS:
        stream = pool[:8] if suite == "thm-fm1" else pool
        report = run_suite(suite, stream)
        assert report.passed, report.to_text()


@pytest.mark.slow
def test_all_suites_pass_on_homeo_census_n5():
    from finitetop.census import homeo_census

    pool = homeo_census(5)
    for suite in SUITE_TAGS:
        stream = pool[:6] if suite == "thm-fm1" else pool
        report = run_suite(suite, stream)
        assert report.passed, report.to_text()


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("lemma-9.9", [])


def test_report_serialization_is_deterministic():
    a = run_suite("prop-p1", labeled_census(3))
    b = run_suite("prop-p1", labeled_census(3))
    assert a.to_text() == b.to_text()
    assert a.to_obj() == b.to_obj()


# --- searches -----------------------------------------------------------------------

def test_gc_mismatch_search_includes_the_known_witness(one_open_point):
    witnesses = search("gc-mismatch", 3)
    counts = search_counts(witnesses, 3)
    assert counts[1] == 0 and counts[2] == 0
    # two homeomorphism classes of witnesses at three points: three
    # relabelings of the single-open-point space plus six of the chain space
    assert counts[3] == 9
    mine = [w for w in witnesses if w.spaces[0] == one_open_point]
    assert len(mine) == 1
    w = mine[0]
    assert w.subsets == (0b011,)
    assert "T^α = {∅,{a},{a,b},{a,c},X}" in w.explanation
    assert "{a,b}" in w.explanation


def test_compact_not_alpha_subparacompact_search(one_open_point):
    witnesses = search("compact-not-alpha-subparacompact", 3)
    counts = search_counts(witnesses, 3)
    assert counts[1] == 0 and counts[2] == 0
    assert any(w.spaces[0] == one_open_point for w in witnesses)


def test_non_nodec_search_minimality(one_open_point):
    witnesses = search("non-nodec", 3)
    counts = search_counts(witnesses, 3)
    assert counts[1] == 0 and counts[2] == 0
    assert any(w.spaces[0] == one_open_point for w in witnesses)


def test_question_searches_report_neutrally():
    q1 = search("question1-witness", 2)
    q2 = search("question2-witness", 3)
    # findings are reported as computed, never asserted empty or nonempty
    for w in q1 + q2:
        assert w.re_check()


@pytest.mark.parametrize("predicate", SEARCH_PREDICATES)
def test_witness_recheck_invariant(predicate):
    max_n = 2 if predicate == "question1-witness" else 3
    witnesses = search(predicate, max_n)
    for w in witnesses:
        assert w.re_check()
        obj = witness_to_obj(w)
        assert obj["predicate"] == predicate
    # re_check runs the search code again, so judge the covering witnesses
    # with the definitional oracles as well
    if predicate == "compact-not-alpha-subparacompact":
        assert witnesses
        for w in witnesses:
            (t,) = w.spaces
            cover = SetFamily(t.n, w.subsets)
            assert not has_refinement_exhaustive(t, cover, "closed+sigma-discrete")
    if predicate == "question1-witness":
        assert witnesses
        for w in witnesses:
            t1, t2 = w.spaces
            assert _alpha_subparacompact_exhaustive(t1)
            assert _alpha_subparacompact_exhaustive(t2)
            assert not _alpha_subparacompact_exhaustive(product(t1, t2))


def _alpha_subparacompact_exhaustive(t):
    return every_cover_has_refinement_exhaustive(t, "alpha-open", "closed+sigma-discrete")


def test_search_results_closed_under_relabeling():
    witnesses = search("gc-mismatch", 3)
    witness_spaces = {w.spaces[0] for w in witnesses if w.n == 3}
    for t in labeled_census(3):
        if any(is_homeomorphic(t, s) for s in witness_spaces):
            assert t in witness_spaces


def test_search_is_deterministic():
    a = search("gc-mismatch", 3)
    b = search("gc-mismatch", 3)
    assert [witness_to_obj(w) for w in a] == [witness_to_obj(w) for w in b]


def test_search_validation():
    with pytest.raises(ValueError):
        search("unicorn", 3)
    with pytest.raises(ValueError):
        search("gc-mismatch", 0)
