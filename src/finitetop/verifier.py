"""Executable law suites and counterexample/witness searches.

Each suite sweeps a census stream and reports the spaces checked, the
violations found, and how often its hypotheses actually fired, so a law
that only holds vacuously is visible in the report.  Suites are pure folds
over the stream: rerunning one over the same stream reproduces the report
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .spaces import (
    MAX_POINTS,
    Topology,
    family_text,
    iter_points,
    product,
    set_text,
    space_to_obj,
    subspace,
)
from .operators import alpha_topology, hull, set_class
from .covers import (
    canonical_cover,
    check_property,
    every_cover_has_refinement,
    has_refinement,
)
from .maps import SpaceMap, enumerate_maps, verify_fm1
from .census import labeled_census, space_id

SUITE_TAGS = (
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
    "thm-fm1",
    "prop-hausdorff-alpha-para",
    "thm-final",
    "shared-classes",
)

SUITE_DESCRIPTIONS = {
    "lemma-2.1": "semi-open families of a space and of its alpha-refinement coincide",
    "prop-p1": "semi-closures agree under alpha-refinement, hence so do the sg-closed families",
    "lemma-2.2": "for semi-open sets the alpha-closure equals the closure",
    "prop-2.1": "regular-closed families of a space and of its alpha-refinement coincide",
    "thm-2.1": "semi-compactness and the four subcover-by-closures properties transfer both ways",
    "cor-locally": "the two local relative-subcover properties transfer both ways",
    "thm-2.2": "the four locally-finite-refinement conditions are equivalent per space",
    "thm-2.3": "locally countable regular-closed refinability transfers both ways",
    "thm-t29": "extremally disconnected + countable regular-closed subcovers force dense semi-open refinability",
    "subpara-implication": "alpha-open refinability implies open refinability",
    "thm-t32": "pointwise unions of relatively-absorbed sets inherit alpha-subparacompactness as subspaces",
    "cor-closed-hereditary": "closed subspaces inherit alpha-subparacompactness",
    "lemma-lfm1": "sigma-discrete and sigma-closure-preserving closed refinability agree",
    "thm-fm1": "closed irresolute surjections carry alpha-subparacompactness onto the image",
    "prop-hausdorff-alpha-para": "hausdorff + alpha-paracompact forces a normal refinement that adds nothing",
    "thm-final": "hausdorff + alpha-paracompact forces a hausdorff paracompact refinement",
    "shared-classes": "preopen, beta-open, nowhere-dense, dense, codense, clopen and alpha-open classes coincide",
}

_SHARED_KINDS = (
    "preopen",
    "beta-open",
    "nowhere-dense",
    "dense",
    "codense",
    "clopen",
    "alpha-open",
)

_THM21_PROPS = ("semi-compact", "s-closed-upper", "s-closed-lower", "rc-lindelof", "sg-compact")

_COR_LOCAL_PROPS = ("locally-s-closed-upper", "locally-s-closed-lower")

SEARCH_PREDICATES = (
    "gc-mismatch",
    "compact-not-alpha-subparacompact",
    "non-nodec",
    "question1-witness",
    "question2-witness",
)


@dataclass
class Report:
    suite: str
    spaces_checked: int
    violations: tuple[tuple[str, str], ...]
    vacuous_count: int

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_obj(self) -> dict:
        return {
            "suite": self.suite,
            "spaces_checked": self.spaces_checked,
            "violations": [
                {"space": sid, "details": details} for sid, details in self.violations
            ],
            "vacuous_count": self.vacuous_count,
        }

    def to_text(self) -> str:
        lines = [
            f"suite {self.suite}: {self.spaces_checked} checked, "
            f"{len(self.violations)} violations, {self.vacuous_count} vacuous"
        ]
        for sid, details in self.violations:
            lines.append(f"  violation {sid}: {details}")
        return "\n".join(lines)


def run_suite(suite: str, spaces: Iterable[Topology]) -> Report:
    """Fold one law suite over a census stream.

    For thm-fm1 the stream is paired with itself and spaces_checked counts
    the surjections swept rather than the spaces.
    """
    pool = tuple(spaces)
    if suite == "thm-fm1":
        return _suite_fm1(pool)
    try:
        checker = _PER_SPACE_SUITES[suite]
    except KeyError:
        raise ValueError(f"unknown suite {suite!r}") from None
    violations: list[tuple[str, str]] = []
    vacuous = 0
    for t in pool:
        fired, problems = checker(t)
        if not fired:
            vacuous += 1
        violations.extend((space_id(t), d) for d in problems)
    return Report(suite, len(pool), tuple(violations), vacuous)


# --- per-space suite checkers -------------------------------------------------

def _class_equal(t: Topology, kind: str) -> Optional[str]:
    base = set_class(t, kind)
    refined = set_class(alpha_topology(t), kind)
    if base == refined:
        return None
    return (
        f"{kind} classes differ: base {family_text(base, t.n)}, "
        f"refined {family_text(refined, t.n)}"
    )


def _check_lemma_21(t):
    problem = _class_equal(t, "semi-open")
    return True, [problem] if problem else []


def _check_prop_p1(t):
    problems = []
    ta = alpha_topology(t)
    for a in range(1 << t.n):
        left = hull(t, a, "alpha-semi-closure")
        right = hull(t, a, "semi-closure")
        if left != right:
            problems.append(
                f"semi-closures of {set_text(a, t.n)} differ: refined "
                f"{set_text(left, t.n)}, base {set_text(right, t.n)}"
            )
    if set_class(t, "sg-closed") != set_class(ta, "sg-closed"):
        problems.append(_class_equal(t, "sg-closed"))
    return True, problems


def _check_lemma_22(t):
    problems = []
    for a in set_class(t, "semi-open"):
        if hull(t, a, "alpha-closure") != hull(t, a, "closure"):
            problems.append(
                f"closures of semi-open {set_text(a, t.n)} differ under refinement"
            )
    return True, problems


def _check_prop_21(t):
    problem = _class_equal(t, "regular-closed")
    return True, [problem] if problem else []


def _check_thm_21(t):
    ta = alpha_topology(t)
    problems = [
        f"{prop}: base {check_property(t, prop)}, refined {check_property(ta, prop)}"
        for prop in _THM21_PROPS
        if check_property(t, prop) != check_property(ta, prop)
    ]
    return True, problems


def _check_cor_locally(t):
    ta = alpha_topology(t)
    problems = [
        f"{prop}: base {check_property(t, prop)}, refined {check_property(ta, prop)}"
        for prop in _COR_LOCAL_PROPS
        if check_property(t, prop) != check_property(ta, prop)
    ]
    return True, problems


def _check_thm_22(t):
    ta = alpha_topology(t)
    conditions = {
        "(a)": check_property(t, "para-s-closed"),
        "(b)": every_cover_has_refinement(
            t, "regular-closed", "regular-closed+locally-finite"
        ),
        "(c)": every_cover_has_refinement(
            ta, "regular-closed", "regular-closed+locally-finite"
        ),
        "(d)": check_property(ta, "para-s-closed"),
    }
    if len(set(conditions.values())) == 1:
        return True, []
    detail = ", ".join(f"{k}={v}" for k, v in conditions.items())
    return True, [f"conditions diverge: {detail}"]


def _check_thm_23(t):
    ta = alpha_topology(t)
    a, b = check_property(t, "para-rc-lindelof"), check_property(ta, "para-rc-lindelof")
    return True, [] if a == b else [f"para-rc-lindelof: base {a}, refined {b}"]


def _check_thm_t29(t):
    fired = check_property(t, "extremally-disconnected") and check_property(
        t, "rc-lindelof"
    )
    if fired and not check_property(t, "para-s-closed"):
        return True, ["extremally disconnected rc-lindelof space is not para-s-closed"]
    return fired, []


def _check_subpara_implication(t):
    fired = check_property(t, "alpha-subparacompact")
    if fired and not check_property(t, "subparacompact"):
        return True, ["alpha-subparacompact space is not subparacompact"]
    return fired, []


def _check_thm_t32(t):
    fired = check_property(t, "alpha-subparacompact")
    if not fired:
        return False, []
    problems = []
    for a in set_class(t, "f-sigma-g-alpha-closed"):
        if a == 0:
            continue
        sub, _ = subspace(t, a)
        if not check_property(sub, "alpha-subparacompact"):
            problems.append(
                f"subspace on {set_text(a, t.n)} is not alpha-subparacompact"
            )
    return True, problems


def _check_cor_closed_hereditary(t):
    fired = check_property(t, "alpha-subparacompact")
    if not fired:
        return False, []
    problems = []
    fsga = frozenset(set_class(t, "f-sigma-g-alpha-closed"))
    for a in set_class(t, "closed"):
        if a == 0:
            continue
        if a not in fsga:
            problems.append(
                f"closed {set_text(a, t.n)} escapes the wider hereditary class"
            )
        sub, _ = subspace(t, a)
        if not check_property(sub, "alpha-subparacompact"):
            problems.append(
                f"closed subspace on {set_text(a, t.n)} is not alpha-subparacompact"
            )
    return True, problems


def _check_lemma_lfm1(t):
    # both side conditions hold for every finite family, so the two sides
    # agree; the tests check that against the definitional oracle
    left = every_cover_has_refinement(t, "alpha-open", "closed+sigma-discrete")
    right = every_cover_has_refinement(
        t, "alpha-open", "closed+sigma-closure-preserving"
    )
    if left == right:
        return True, []
    return True, [f"sigma-discrete route gives {left}, sigma-closure-preserving {right}"]


def _check_prop_hausdorff_alpha_para(t):
    fired = check_property(t, "hausdorff") and check_property(t, "alpha-paracompact")
    if not fired:
        return False, []
    problems = []
    ta = alpha_topology(t)
    if not check_property(ta, "normal"):
        problems.append("alpha-refinement is not normal")
    if not check_property(t, "nodec"):
        problems.append("alpha-refinement adds open sets")
    return True, problems


def _check_thm_final(t):
    fired = check_property(t, "hausdorff") and check_property(t, "alpha-paracompact")
    if not fired:
        return False, []
    problems = []
    ta = alpha_topology(t)
    if not check_property(ta, "hausdorff"):
        problems.append("alpha-refinement is not hausdorff")
    if not every_cover_has_refinement(ta, "open", "open+locally-finite"):
        problems.append("alpha-refinement is not paracompact")
    return True, problems


def _check_shared_classes(t):
    problems = []
    for kind in _SHARED_KINDS:
        problem = _class_equal(t, kind)
        if problem:
            problems.append(problem)
    return True, problems


_PER_SPACE_SUITES = {
    "lemma-2.1": _check_lemma_21,
    "prop-p1": _check_prop_p1,
    "lemma-2.2": _check_lemma_22,
    "prop-2.1": _check_prop_21,
    "thm-2.1": _check_thm_21,
    "cor-locally": _check_cor_locally,
    "thm-2.2": _check_thm_22,
    "thm-2.3": _check_thm_23,
    "thm-t29": _check_thm_t29,
    "subpara-implication": _check_subpara_implication,
    "thm-t32": _check_thm_t32,
    "cor-closed-hereditary": _check_cor_closed_hereditary,
    "lemma-lfm1": _check_lemma_lfm1,
    "prop-hausdorff-alpha-para": _check_prop_hausdorff_alpha_para,
    "thm-final": _check_thm_final,
    "shared-classes": _check_shared_classes,
}


def _suite_fm1(pool: tuple[Topology, ...]) -> Report:
    checked = 0
    vacuous = 0
    violations: list[tuple[str, str]] = []
    for dom in pool:
        for cod in pool:
            for f in enumerate_maps(dom, cod, surjective_only=True):
                checked += 1
                verdict = verify_fm1(f)
                if verdict == "not-applicable":
                    vacuous += 1
                elif verdict == "VIOLATION":
                    violations.append(
                        (
                            space_id(dom),
                            f"map {list(f.fn)} onto {space_id(cod)} breaks the image law",
                        )
                    )
    return Report("thm-fm1", checked, tuple(violations), vacuous)


# --- witness search -------------------------------------------------------------

@dataclass
class Witness:
    """One found example; re-evaluating its predicate must yield True."""

    predicate: str
    n: int
    spaces: tuple[Topology, ...]
    subsets: tuple[int, ...]
    space_map: Optional[SpaceMap]
    explanation: str

    def re_check(self) -> bool:
        return _RECHECKS[self.predicate](self)


def search(predicate: str, max_n: int) -> list[Witness]:
    """Sweep the labeled censuses from n=1 upward and collect all witnesses.

    The sweep always starts at one point, so an empty result at some n is a
    computed fact about every smaller space as well.
    """
    if predicate not in SEARCH_PREDICATES:
        raise ValueError(f"unknown search predicate {predicate!r}")
    if not 1 <= max_n <= MAX_POINTS:
        raise ValueError(f"max_n must be in 1..{MAX_POINTS}, got {max_n}")
    out: list[Witness] = []
    if predicate == "question1-witness":
        _search_question1(max_n, out)
        return out
    for n in range(1, max_n + 1):
        for t in labeled_census(n):
            w = _SEARCHES[predicate](t)
            if w is not None:
                out.append(w)
    return out


def search_counts(witnesses: list[Witness], max_n: int) -> dict[int, int]:
    """Witnesses per point count, zero-filled over the swept range.

    Product witnesses live on more points than the swept factors, so keys
    beyond max_n can appear.
    """
    counts = {n: 0 for n in range(1, max_n + 1)}
    for w in witnesses:
        counts[w.n] = counts.get(w.n, 0) + 1
    return counts


def _search_gc_mismatch(t: Topology) -> Optional[Witness]:
    ta = alpha_topology(t)
    base = frozenset(set_class(t, "g-closed"))
    refined = frozenset(set_class(ta, "g-closed"))
    diff = sorted(base ^ refined)
    if not diff:
        return None
    a = diff[0]
    where = "base space only" if a in base else "alpha-refinement only"
    return Witness(
        predicate="gc-mismatch",
        n=t.n,
        spaces=(t,),
        subsets=(a,),
        space_map=None,
        explanation=(
            f"T = {family_text(t.opens, t.n)}, T^α = {family_text(ta.opens, t.n)}; "
            f"{set_text(a, t.n)} is g-closed in the {where}"
        ),
    )


def _search_compact_not_asp(t: Topology) -> Optional[Witness]:
    if not check_property(t, "compact") or check_property(t, "alpha-subparacompact"):
        return None
    cover = canonical_cover(t, "alpha-open")
    return Witness(
        predicate="compact-not-alpha-subparacompact",
        n=t.n,
        spaces=(t,),
        subsets=tuple(cover.members),
        space_map=None,
        explanation=(
            f"T = {family_text(t.opens, t.n)} is compact but the minimal alpha-open "
            f"cover {family_text(cover.members, t.n)} has no covering closed refinement"
        ),
    )


def _search_non_nodec(t: Topology) -> Optional[Witness]:
    if check_property(t, "nodec"):
        return None
    ta = alpha_topology(t)
    extra = sorted(set(ta.opens) - set(t.opens))
    return Witness(
        predicate="non-nodec",
        n=t.n,
        spaces=(t,),
        subsets=tuple(extra),
        space_map=None,
        explanation=(
            f"T = {family_text(t.opens, t.n)} gains alpha-open sets "
            f"{family_text(extra, t.n)}"
        ),
    )


def _search_question2(t: Topology) -> Optional[Witness]:
    ta = alpha_topology(t)
    if not check_property(ta, "subparacompact"):
        return None
    if check_property(t, "alpha-subparacompact"):
        return None
    return Witness(
        predicate="question2-witness",
        n=t.n,
        spaces=(t,),
        subsets=(),
        space_map=None,
        explanation=(
            f"T = {family_text(t.opens, t.n)}: the alpha-refinement is subparacompact "
            f"but the base space is not alpha-subparacompact"
        ),
    )


def _search_question1(max_n: int, out: list[Witness]) -> None:
    pools = {
        n: [t for t in labeled_census(n) if check_property(t, "alpha-subparacompact")]
        for n in range(1, max_n + 1)
    }
    for n1 in range(1, max_n + 1):
        for n2 in range(n1, max_n + 1):
            if n1 * n2 > MAX_POINTS:
                continue
            for i, t1 in enumerate(pools[n1]):
                second = pools[n2][i:] if n1 == n2 else pools[n2]
                for t2 in second:
                    p = product(t1, t2)
                    if check_property(p, "alpha-subparacompact"):
                        continue
                    out.append(
                        Witness(
                            predicate="question1-witness",
                            n=p.n,
                            spaces=(t1, t2),
                            subsets=(),
                            space_map=None,
                            explanation=(
                                f"product of {family_text(t1.opens, t1.n)} and "
                                f"{family_text(t2.opens, t2.n)} is not alpha-subparacompact "
                                f"although both factors are"
                            ),
                        )
                    )


_SEARCHES = {
    "gc-mismatch": _search_gc_mismatch,
    "compact-not-alpha-subparacompact": _search_compact_not_asp,
    "non-nodec": _search_non_nodec,
    "question2-witness": _search_question2,
}


def _recheck_gc(w: Witness) -> bool:
    (t,) = w.spaces
    (a,) = w.subsets
    base = frozenset(set_class(t, "g-closed"))
    refined = frozenset(set_class(alpha_topology(t), "g-closed"))
    return base != refined and (a in base) != (a in refined)


def _recheck_compact_not_asp(w: Witness) -> bool:
    (t,) = w.spaces
    if not check_property(t, "compact") or check_property(t, "alpha-subparacompact"):
        return False
    return not has_refinement(t, canonical_cover(t, "alpha-open"), "closed+sigma-discrete")


def _recheck_non_nodec(w: Witness) -> bool:
    (t,) = w.spaces
    return not check_property(t, "nodec")


def _recheck_question1(w: Witness) -> bool:
    t1, t2 = w.spaces
    return (
        check_property(t1, "alpha-subparacompact")
        and check_property(t2, "alpha-subparacompact")
        and not check_property(product(t1, t2), "alpha-subparacompact")
    )


def _recheck_question2(w: Witness) -> bool:
    (t,) = w.spaces
    return check_property(alpha_topology(t), "subparacompact") and not check_property(
        t, "alpha-subparacompact"
    )


_RECHECKS = {
    "gc-mismatch": _recheck_gc,
    "compact-not-alpha-subparacompact": _recheck_compact_not_asp,
    "non-nodec": _recheck_non_nodec,
    "question1-witness": _recheck_question1,
    "question2-witness": _recheck_question2,
}


def witness_to_obj(w: Witness) -> dict:
    return {
        "predicate": w.predicate,
        "n": w.n,
        "spaces": [space_to_obj(t) for t in w.spaces],
        "subsets": [list(iter_points(a)) for a in w.subsets],
        "map": None if w.space_map is None else list(w.space_map.fn),
        "explanation": w.explanation,
    }
