"""Law suites over census streams and witness searches."""

import random
from itertools import permutations
from math import factorial

import pytest

from finitetop import (
    alpha_topology,
    check_property,
    discrete,
    indiscrete,
    maps,
    product,
    run_suite,
    search,
    set_class,
    space_id,
    verifier,
)
from finitetop.census import automorphism_count, class_key, homeo_tables, labeled_census
from finitetop.covers import QUESTION2_EQUIVALENCE
from finitetop.spaces import from_preorder, iter_points, mask_of, set_text
from oracles import (
    SetFamily,
    class_scan_per_mask,
    every_cover_has_refinement_exhaustive,
    fm1_report_by_enumeration,
    has_refinement_exhaustive,
    homeo_census,
    is_homeomorphic,
)
from finitetop.verifier import (
    SEARCH_PREDICATES,
    SUITE_DESCRIPTIONS,
    SUITE_TAGS,
    Report,
    _check_space,
    search_counts,
    witness_to_obj,
)

PER_SPACE_SUITES = tuple(s for s in SUITE_TAGS if s != "thm-fm1")


def test_every_suite_has_a_description():
    assert set(SUITE_DESCRIPTIONS) == set(SUITE_TAGS)


def test_one_check_builds_each_space_tables_once(table_builds):
    # the per-space check that decides a class touches T and T^α, and the
    # scope it opens shares their tables across every scan and hull table
    built = 0
    for suite in PER_SPACE_SUITES:
        for t in labeled_census(4):
            set_class.cache_clear()
            table_builds.clear()
            _check_space(suite, t)
            assert set(table_builds) <= {t, alpha_topology(t)}, (suite, t)
            assert max(table_builds.values(), default=0) <= 1, (suite, t)
            built += sum(table_builds.values())
    assert built > 0


SMALL_POOL = tuple(t for n in (1, 2, 3, 4) for t in labeled_census(n))


def _verdict(suite, t):
    fired, problems = _check_space(suite, t)
    return fired, bool(problems)


def _per_space_report(suite, pool):
    # the report of checking every space on its own labels
    violations, vacuous = [], 0
    for t in pool:
        fired, problems = _check_space(suite, t)
        vacuous += not fired
        violations.extend((space_id(t), d) for d in problems)
    return Report(suite, len(pool), tuple(violations), vacuous)


def _open_points_planted(t):
    # fails on exactly one 3-point class, that of {∅,{a},X}, and names the
    # labeled open point, so each member has its own detail text
    opens = [u for u in t.opens if u.bit_count() == 1]
    fired = t.n == 3
    if fired and len(opens) == 1 and len(t.opens) == 3:
        return True, [f"open point {set_text(opens[0], t.n)}"]
    return fired, []


@pytest.fixture
def planted(monkeypatch):
    """A suite named "planted" whose checker fails on one class."""
    monkeypatch.setitem(verifier._PER_SPACE_SUITES, "planted", _open_points_planted)
    verifier._class_verdict.cache_clear()
    yield "planted"
    verifier._class_verdict.cache_clear()


@pytest.mark.parametrize("suite", PER_SPACE_SUITES + ("planted",))
def test_class_verdicts_are_invariants(request, suite):
    # every labeled space with n <= 4 against its class representative,
    # then the class-keyed fold against the per-space one, whose planted
    # violations carry labeled text
    if suite == "planted":
        request.getfixturevalue("planted")
    for t in SMALL_POOL:
        assert _verdict(suite, t) == _verdict(suite, from_preorder(class_key(t))), t
    assert run_suite(suite, SMALL_POOL) == _per_space_report(suite, SMALL_POOL)


def test_planted_violation_lists_every_member_of_its_class(planted, one_open_point):
    pool = labeled_census(3) + labeled_census(2)
    report = run_suite(planted, pool)
    members = [t for t in pool if class_key(t) == one_open_point.min_nbhd]
    assert len(members) == 3
    assert report.violations == tuple(
        (space_id(t), f"open point {set_text(t.opens[1], 3)}") for t in members
    )
    assert report.spaces_checked == len(pool)
    assert report.vacuous_count == len(labeled_census(2))


def test_spaces_beyond_the_class_range_are_checked_one_by_one(monkeypatch):
    # a 16-point space is never keyed: its key could take a large share of
    # a second to compute
    monkeypatch.setattr(verifier, "class_key", None)
    report = run_suite("subpara-implication", [discrete(16)])
    assert report.passed and report.vacuous_count == 0


def test_violations_beyond_the_class_range_keep_their_details(monkeypatch):
    # a space above MAX_HOMEO_N is checked on its own; its details are listed
    # under its id, in pool order
    def seven_points(t):
        fired = t.n == 7
        return fired, [f"{t.n} points, {len(t.opens)} opens"] if fired else []

    monkeypatch.setitem(verifier._PER_SPACE_SUITES, "seven-points", seven_points)
    pool = [discrete(7), discrete(2), indiscrete(7)]
    report = run_suite("seven-points", pool)
    assert report == Report(
        "seven-points",
        3,
        ((space_id(pool[0]), "7 points, 128 opens"), (space_id(pool[2]), "7 points, 2 opens")),
        1,
    )


def test_reports_carry_no_instance_dict():
    # a worker holds a report per space and suite
    assert not hasattr(run_suite("lemma-2.1", labeled_census(2)), "__dict__")


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


def _sub_pools(n):
    census = labeled_census(n)
    yield census[:8]
    for seed in range(5):
        yield tuple(random.Random(seed).sample(census, 8))


# interleaved, so enumerated pairs of unequal size sit between counted ones
MIXED_POOL = labeled_census(3)[:10] + labeled_census(2) + labeled_census(3)[10:]

FM1_POOLS = {
    **{f"census-{n}": labeled_census(n) for n in (1, 2, 3)},
    **{f"n{n}-pool-{i}": pool for n in (4, 5) for i, pool in enumerate(_sub_pools(n))},
    "mixed-2-3": MIXED_POOL,
}


@pytest.mark.parametrize("name", sorted(FM1_POOLS))
def test_fm1_count_equals_enumeration(name):
    pool = FM1_POOLS[name]
    assert run_suite("thm-fm1", pool) == fm1_report_by_enumeration(pool)


def test_fm1_count_over_the_four_point_census():
    # 355 x 355 pairs of 24 bijections each; enumeration takes most of a minute
    report = run_suite("thm-fm1", labeled_census(4))
    assert report == Report("thm-fm1", 3024600, (), 3022320)


def _lemma_spaces():
    # every labeled space with n <= 5, and every class on 6 and 7 points
    for n in (1, 2, 3, 4, 5):
        yield from labeled_census(n)
    for n in (6, 7):
        yield from map(from_preorder, homeo_tables(n))


def test_alpha_subparacompact_spaces_are_nodec():
    # the nodec lemma (README): an alpha-subparacompact T, and a T whose T^α
    # is subparacompact, has T^α = T.  So the law's maps out of such a space
    # are homeomorphisms, and question 2 has no finite witness
    for t in _lemma_spaces():
        ta = alpha_topology(t)
        if check_property(t, "alpha-subparacompact"):
            assert ta == t, t
        if check_property(ta, "subparacompact"):
            assert ta == t, t
        agree = check_property(ta, "subparacompact") == check_property(t, "alpha-subparacompact")
        assert agree == QUESTION2_EQUIVALENCE, t


@pytest.mark.parametrize("pool", [labeled_census(3), MIXED_POOL], ids=["census-3", "mixed"])
def test_fm1_planted_violation_is_enumerated_in_order(monkeypatch, one_open_point, pool):
    # the one-open-point class reads as alpha-subparacompact, in production
    # and in the oracle alike; its maps reach two classes that are not, and
    # the violations and their order must agree
    planted_key = class_key(one_open_point)
    real = check_property

    def planted(t, prop):
        if prop == "alpha-subparacompact" and t.n == 3 and class_key(t) == planted_key:
            return True
        return real(t, prop)

    monkeypatch.setattr(verifier, "check_property", planted)
    monkeypatch.setattr(maps, "check_property", planted)
    report = run_suite("thm-fm1", pool)
    assert len({sid for sid, _ in report.violations}) == 3
    assert report == fm1_report_by_enumeration(pool)


def _opens(t):
    return frozenset(t.opens)


def _alpha_opens(t):
    return frozenset(class_scan_per_mask(t, "alpha-open"))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sandwich_lemma(n):
    # for T ⊆ S', S'^α ⊆ T^α iff S' ⊆ T^α (Njåstad), so the tables between
    # T and T^α are exactly the pullbacks of closed alpha-irresolute
    # bijections out of T
    spaces = [(s, _opens(s), _alpha_opens(s)) for s in labeled_census(n)]
    for t, t_opens, t_alpha in spaces:
        pullbacks = set()
        for s, s_opens, s_alpha in spaces:
            closed = t_opens <= s_opens
            assert (closed and s_alpha <= t_alpha) == (closed and s_opens <= t_alpha)
            if closed and s_alpha <= t_alpha:
                pullbacks.add(s.min_nbhd)
        lower, upper = alpha_topology(t).min_nbhd, t.min_nbhd
        between = [
            s.min_nbhd
            for s, _, _ in spaces
            if all(a & ~r == 0 and r & ~u == 0 for a, r, u in zip(lower, s.min_nbhd, upper))
        ]
        assert between == sorted(pullbacks), t


def _automorphisms_brute_force(rows):
    # the point bijections that carry the open sets onto themselves
    t = from_preorder(rows)
    opens = set(t.opens)
    return sum(
        {mask_of(sigma[x] for x in iter_points(u)) for u in opens} == opens
        for sigma in permutations(range(t.n))
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)])
def test_automorphism_counts(n):
    classes = homeo_tables(n)
    if n <= 5:  # n! relabellings of every open set per class
        for rows in classes:
            assert automorphism_count(rows) == _automorphisms_brute_force(rows), rows
    # the orbits of the classes are the labeled census (A000798)
    orbits = sum(factorial(n) // automorphism_count(rows) for rows in classes)
    assert orbits == (1, 4, 29, 355, 6942, 209527, 9535241)[n - 1]


@pytest.mark.parametrize(
    "pool",
    [(discrete(8),), (discrete(2), discrete(8), discrete(9))],
    ids=["discrete-8", "first-pair-past-the-budget"],
)
def test_fm1_budget_error_as_enumeration_raises_it(pool):
    with pytest.raises(ValueError) as expected:
        fm1_report_by_enumeration(pool)
    with pytest.raises(ValueError) as raised:
        run_suite("thm-fm1", pool)
    assert str(raised.value) == str(expected.value)
    assert str(raised.value) == "16777216 maps exceed the budget of 1000000"


@pytest.mark.parametrize("suite", SUITE_TAGS)
def test_all_suites_pass_on_small_censuses(suite):
    for n in (1, 2, 3):
        report = run_suite(suite, labeled_census(n))
        assert report.passed, report.to_text()


def test_all_suites_pass_on_the_four_point_census():
    pool = labeled_census(4)
    for suite in SUITE_TAGS:
        report = run_suite(suite, pool)
        assert report.passed, report.to_text()


@pytest.mark.slow
def test_all_suites_pass_on_homeo_census_n5():
    pool = homeo_census(5)
    for suite in SUITE_TAGS:
        report = run_suite(suite, pool)
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


def test_gc_mismatch_is_non_nodec():
    # a computed fact with no proof yet: g-closed(T) and g-closed(T^α) differ
    # iff T^α ≠ T, on every labeled space with n <= 5 and every 6-point
    # class; the two predicates stay apart until it is proved
    spaces = [t for n in (1, 2, 3, 4, 5) for t in labeled_census(n)]
    spaces += map(from_preorder, homeo_tables(6))
    for t in spaces:
        mismatch = verifier._search_gc_mismatch(t) is not None
        assert mismatch == (verifier._search_non_nodec(t) is not None), t


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
