"""Executable law suites and counterexample/witness searches.

Each suite sweeps a census stream and reports the spaces checked, the
violations found, and how often its hypotheses actually fired, so a law
that only holds vacuously is visible in the report.  Suites are pure folds
over the stream: rerunning one over the same stream reproduces the report
byte for byte.

Most laws say that a class or a property of T is the same in T^α; those
suites are built by ``_classes_agree`` and ``_properties_transfer`` from
the kinds or properties they compare, and the plain implications by
``_implies``.  Each search predicate but question 2, which a theorem
settles, is one function from its spaces to a ``Witness`` or None, and
``Witness.re_check`` runs that function again on the witness's spaces.  Judging witnesses independently of that code is the
job of the definitional oracles in the test suite.

Whether a suite fired on a space, and whether it found a violation, are
topological invariants, so ``run_suite`` decides them once per
homeomorphism class.  A space of at most ``MAX_HOMEO_N`` points is keyed
by its least relabelled table (``census.class_key``, a lookup in the
relabelling index up to ``MAX_LABELED_N`` points), and the checker runs on
that table; only the members of a violating class are checked again on
their own labels, so the details name their own points and keep the pool
order.  Larger spaces, such as 16-point products, are checked one by one,
because their key can take longer than the check.  The question 1 search
likewise decides each product once per pair of factor classes, and
``census.profile`` profiles each class once.

The image law (thm-fm1) is counted, not enumerated.  Between spaces of
equal size every surjection is a bijection f: T -> S, closed and
α-irresolute iff the pullback f⁻¹S lies between T and T^α (Njåstad,
Pacific J. Math. 15, 1965).  An α-subparacompact T is nodec, T^α = T (the
lemma in README), so those maps are the homeomorphisms: |Aut T| from each
member of T's class in the pool onto each, and none breaks the law.  Every
pair adds n! checked maps, and the maps not applicable are vacuous.  A pair
is enumerated map by map, in pool order, only when its two spaces differ in
size, or when its domain reads as α-subparacompact but not nodec, which the
lemma rules out; so violation details read as before.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import starmap
from math import factorial
from typing import Iterable, Iterator, Optional

from .spaces import (
    MAX_POINTS,
    Topology,
    _from_table,
    family_text,
    iter_points,
    product,
    set_text,
    space_to_obj,
    subspace,
)
from .operators import alpha_topology, hull_table, set_class, table_scope
from .covers import (
    PARACOMPACT,
    REGULAR_CLOSED_REFINABLE,
    SIGMA_CLOSURE_PRESERVING,
    SIGMA_DISCRETE,
    check_property,
)
from .maps import check_map_budget, enumerate_maps, verify_fm1
from .census import (
    MAX_HOMEO_N,
    MAX_LABELED_N,
    automorphism_count,
    class_key,
    labeled_census,
    space_id,
)

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

SEARCH_PREDICATES = (
    "gc-mismatch",
    "compact-not-alpha-subparacompact",
    "non-nodec",
    "question1-witness",
    "question2-witness",
)


@dataclass(slots=True)
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
    if suite not in _PER_SPACE_SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    violations: list[tuple[str, str]] = []
    vacuous = 0
    for t in pool:
        if t.n <= MAX_HOMEO_N:
            fired, violated = _class_verdict(suite, class_key(t))
            problems = _check_space(suite, t)[1] if violated else ()
        else:
            fired, problems = _check_space(suite, t)
        vacuous += not fired
        if problems:
            sid = space_id(t)
            violations += [(sid, d) for d in problems]
    return Report(suite, len(pool), tuple(violations), vacuous)


def _check_space(suite: str, t: Topology) -> tuple[bool, list[str]]:
    # one check builds the tables of t and of T^α once between them
    with table_scope():
        return _PER_SPACE_SUITES[suite](t)


@lru_cache(maxsize=None)
def _class_verdict(suite: str, key: tuple[int, ...]) -> tuple[bool, bool]:
    """Whether the suite fired, and whether it found a violation, on a class.

    Both are topological invariants, so the class representative decides
    them for every labeled member.
    """
    fired, problems = _check_space(suite, _from_table(key))
    return fired, bool(problems)


# --- per-space suite checkers -------------------------------------------------
#
# A checker maps one space to (hypotheses fired, violation details).

def _class_differences(t: Topology, kinds: tuple[str, ...]) -> list[str]:
    ta = alpha_topology(t)
    problems = []
    for kind in kinds:
        base, refined = set_class(t, kind), set_class(ta, kind)
        if base != refined:
            problems.append(
                f"{kind} classes differ: base {family_text(base, t.n)}, "
                f"refined {family_text(refined, t.n)}"
            )
    return problems


def _classes_agree(*kinds: str):
    """Each class of T equals the same class of T^α."""
    return lambda t: (True, _class_differences(t, kinds))


def _properties_transfer(*props: str):
    """Each property holds in T iff it holds in T^α."""

    def check(t):
        ta = alpha_topology(t)
        problems = []
        for prop in props:
            a, b = check_property(t, prop), check_property(ta, prop)
            if a != b:
                problems.append(f"{prop}: base {a}, refined {b}")
        return True, problems

    return check


def _implies(hypotheses: tuple[str, ...], conclusion: str, message: str):
    """A space with every hypothesis property has the conclusion property."""

    def check(t):
        fired = all(check_property(t, p) for p in hypotheses)
        if fired and not check_property(t, conclusion):
            return True, [message]
        return fired, []

    return check


def _check_prop_p1(t):
    refined = hull_table(t, "alpha-semi-closure")
    base = hull_table(t, "semi-closure")
    problems = [
        f"semi-closures of {set_text(a, t.n)} differ: refined "
        f"{set_text(left, t.n)}, base {set_text(right, t.n)}"
        for a, (left, right) in enumerate(zip(refined, base))
        if left != right
    ]
    return True, problems + _class_differences(t, ("sg-closed",))


def _check_lemma_22(t):
    refined = hull_table(t, "alpha-closure")
    base = hull_table(t, "closure")
    return True, [
        f"closures of semi-open {set_text(a, t.n)} differ under refinement"
        for a in set_class(t, "semi-open")
        if refined[a] != base[a]
    ]


def _check_thm_22(t):
    ta = alpha_topology(t)
    conditions = {
        "(a)": check_property(t, "para-s-closed"),
        "(b)": REGULAR_CLOSED_REFINABLE,
        "(c)": REGULAR_CLOSED_REFINABLE,
        "(d)": check_property(ta, "para-s-closed"),
    }
    if len(set(conditions.values())) == 1:
        return True, []
    detail = ", ".join(f"{k}={v}" for k, v in conditions.items())
    return True, [f"conditions diverge: {detail}"]


def _subspaces_inherit(t: Topology, kind: str, prefix: str) -> list[str]:
    # each nonempty member of the class spans an alpha-subparacompact subspace
    return [
        f"{prefix}subspace on {set_text(a, t.n)} is not alpha-subparacompact"
        for a in set_class(t, kind)
        if a and not check_property(subspace(t, a)[0], "alpha-subparacompact")
    ]


def _check_thm_t32(t):
    if not check_property(t, "alpha-subparacompact"):
        return False, []
    return True, _subspaces_inherit(t, "f-sigma-g-alpha-closed", "")


def _check_cor_closed_hereditary(t):
    if not check_property(t, "alpha-subparacompact"):
        return False, []
    wider = frozenset(set_class(t, "f-sigma-g-alpha-closed"))
    escaped = [
        f"closed {set_text(a, t.n)} escapes the wider hereditary class"
        for a in set_class(t, "closed")
        if a not in wider
    ]
    return True, escaped + _subspaces_inherit(t, "closed", "closed ")


def _check_lemma_lfm1(t):
    # both sides ask every alpha-open cover for a closed refinement and
    # differ only in a side condition that every finite family meets; the
    # tests check the two sides against the definitional oracle
    if SIGMA_DISCRETE == SIGMA_CLOSURE_PRESERVING:
        return True, []
    return True, [
        f"sigma-discrete side gives {SIGMA_DISCRETE}, "
        f"sigma-closure-preserving {SIGMA_CLOSURE_PRESERVING}"
    ]


def _hausdorff_alpha_paracompact(t: Topology) -> bool:
    return check_property(t, "hausdorff") and check_property(t, "alpha-paracompact")


def _check_prop_hausdorff_alpha_para(t):
    if not _hausdorff_alpha_paracompact(t):
        return False, []
    problems = []
    if not check_property(alpha_topology(t), "normal"):
        problems.append("alpha-refinement is not normal")
    if not check_property(t, "nodec"):
        problems.append("alpha-refinement adds open sets")
    return True, problems


def _check_thm_final(t):
    if not _hausdorff_alpha_paracompact(t):
        return False, []
    problems = []
    ta = alpha_topology(t)
    if not check_property(ta, "hausdorff"):
        problems.append("alpha-refinement is not hausdorff")
    if not PARACOMPACT:
        problems.append("alpha-refinement is not paracompact")
    return True, problems


_PER_SPACE_SUITES = {
    "lemma-2.1": _classes_agree("semi-open"),
    "prop-p1": _check_prop_p1,
    "lemma-2.2": _check_lemma_22,
    "prop-2.1": _classes_agree("regular-closed"),
    "thm-2.1": _properties_transfer(
        "semi-compact", "s-closed-upper", "s-closed-lower", "rc-lindelof", "sg-compact"
    ),
    "cor-locally": _properties_transfer("locally-s-closed-upper", "locally-s-closed-lower"),
    "thm-2.2": _check_thm_22,
    "thm-2.3": _properties_transfer("para-rc-lindelof"),
    "thm-t29": _implies(
        ("extremally-disconnected", "rc-lindelof"),
        "para-s-closed",
        "extremally disconnected rc-lindelof space is not para-s-closed",
    ),
    "subpara-implication": _implies(
        ("alpha-subparacompact",),
        "subparacompact",
        "alpha-subparacompact space is not subparacompact",
    ),
    "thm-t32": _check_thm_t32,
    "cor-closed-hereditary": _check_cor_closed_hereditary,
    "lemma-lfm1": _check_lemma_lfm1,
    "prop-hausdorff-alpha-para": _check_prop_hausdorff_alpha_para,
    "thm-final": _check_thm_final,
    "shared-classes": _classes_agree(
        "preopen", "beta-open", "nowhere-dense", "dense", "codense", "clopen", "alpha-open"
    ),
}


def _suite_fm1(pool: tuple[Topology, ...]) -> Report:
    """Count the image law's maps over every ordered pair of the pool.

    A pair of equal size is counted (see the module docstring); a pair of
    unequal size is enumerated.  The pairs whose maps are enumerated are
    taken in pool order, so violation details come out as map-by-map
    enumeration lists them.
    """
    # the budget error that enumerating the first pair past it raises
    firsts: dict[int, Topology] = {}
    for t in pool:
        firsts.setdefault(t.n, t)
    for x in firsts.values():
        for y in firsts.values():
            check_map_budget(x, y)

    keys = [class_key(t) for t in pool]
    members = Counter(keys)
    sizes = Counter(t.n for t in pool)
    checked = applicable = 0
    # domain classes whose maps onto equal sizes are enumerated too
    enumerated: set[tuple[int, ...]] = set()
    for key, d in members.items():
        t = _from_table(key)
        if check_property(t, "alpha-subparacompact"):
            if not check_property(t, "nodec"):
                # the nodec lemma rules this out; enumerate, do not count
                enumerated.add(key)
                continue
            # the applicable maps are the homeomorphisms within the class
            applicable += d * d * automorphism_count(key)
        checked += d * sizes[t.n] * factorial(t.n)
    vacuous = checked - applicable

    violations: list[tuple[str, str]] = []
    if enumerated or len(sizes) > 1:
        for dom, dkey in zip(pool, keys):
            for cod in pool:
                if cod.n != dom.n or dkey in enumerated:
                    pair_checked, pair_vacuous = _enumerate_fm1(dom, cod, violations)
                    checked += pair_checked
                    vacuous += pair_vacuous
    return Report("thm-fm1", checked, tuple(violations), vacuous)


def _enumerate_fm1(dom: Topology, cod: Topology, violations: list) -> tuple[int, int]:
    """Check every surjection dom -> cod on its own; (checked, vacuous).

    Violations are appended in map order.
    """
    checked = vacuous = 0
    for f in enumerate_maps(dom, cod, surjective_only=True):
        checked += 1
        verdict = verify_fm1(f)
        if verdict == "not-applicable":
            vacuous += 1
        elif verdict == "VIOLATION":
            violations.append(
                (space_id(dom), f"map {list(f.fn)} onto {space_id(cod)} breaks the image law")
            )
    return checked, vacuous


# --- witness search -------------------------------------------------------------

@dataclass
class Witness:
    """One found example; re_check runs its search again on its spaces."""

    predicate: str
    n: int
    spaces: tuple[Topology, ...]
    subsets: tuple[int, ...]
    explanation: str

    def re_check(self) -> bool:
        return _SEARCHES[self.predicate](*self.spaces) == self


def search(predicate: str, max_n: int) -> list[Witness]:
    """Sweep the labeled censuses from n=1 upward and collect all witnesses.

    The sweep always starts at one point, so an empty result at some n is a
    computed fact about every smaller space as well.  Question 2 is settled
    by a theorem instead, so its search sweeps nothing and finds nothing.
    """
    if predicate not in SEARCH_PREDICATES:
        raise ValueError(f"unknown search predicate {predicate!r}")
    # every sweep enumerates labeled censuses, so check before the first one
    if not 1 <= max_n <= MAX_LABELED_N:
        raise ValueError(f"max_n must be in 1..{MAX_LABELED_N}, got {max_n}")
    if predicate == "question2-witness":
        # a witness would break covers.QUESTION2_EQUIVALENCE, which holds on
        # every finite space
        return []
    if predicate == "question1-witness":
        candidates = _factor_pairs(max_n)
    else:
        candidates = ((t,) for n in range(1, max_n + 1) for t in labeled_census(n))
    found = starmap(_SEARCHES[predicate], candidates)
    return [w for w in found if w is not None]


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
        "gc-mismatch",
        t.n,
        (t,),
        (a,),
        f"T = {family_text(t.opens, t.n)}, T^α = {family_text(ta.opens, t.n)}; "
        f"{set_text(a, t.n)} is g-closed in the {where}",
    )


def _search_compact_not_asp(t: Topology) -> Optional[Witness]:
    if not check_property(t, "compact") or check_property(t, "alpha-subparacompact"):
        return None
    cover = tuple(sorted(set(alpha_topology(t).min_nbhd)))
    return Witness(
        "compact-not-alpha-subparacompact",
        t.n,
        (t,),
        cover,
        f"T = {family_text(t.opens, t.n)} is compact but the minimal alpha-open "
        f"cover {family_text(cover, t.n)} has no covering closed refinement",
    )


def _search_non_nodec(t: Topology) -> Optional[Witness]:
    if check_property(t, "nodec"):
        return None
    extra = sorted(set(alpha_topology(t).opens) - set(t.opens))
    return Witness(
        "non-nodec",
        t.n,
        (t,),
        tuple(extra),
        f"T = {family_text(t.opens, t.n)} gains alpha-open sets {family_text(extra, t.n)}",
    )


def _search_question1(t1: Topology, t2: Topology) -> Optional[Witness]:
    asp = "alpha-subparacompact"
    if not check_property(t1, asp) or not check_property(t2, asp):
        return None
    if _product_asp(class_key(t1), class_key(t2)):
        return None
    return Witness(
        "question1-witness",
        t1.n * t2.n,
        (t1, t2),
        (),
        f"product of {family_text(t1.opens, t1.n)} and "
        f"{family_text(t2.opens, t2.n)} is not alpha-subparacompact "
        f"although both factors are",
    )


@lru_cache(maxsize=None)
def _product_asp(key1: tuple[int, ...], key2: tuple[int, ...]) -> bool:
    # homeomorphic factors give homeomorphic products
    product_space = product(_from_table(key1), _from_table(key2))
    return check_property(product_space, "alpha-subparacompact")


def _factor_pairs(max_n: int) -> Iterator[tuple[Topology, Topology]]:
    # unordered pairs of alpha-subparacompact factors with at most
    # MAX_POINTS points in their product
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
                    yield t1, t2


_SEARCHES = {
    "gc-mismatch": _search_gc_mismatch,
    "compact-not-alpha-subparacompact": _search_compact_not_asp,
    "non-nodec": _search_non_nodec,
    "question1-witness": _search_question1,
}


def witness_to_obj(w: Witness) -> dict:
    return {
        "predicate": w.predicate,
        "n": w.n,
        "spaces": [space_to_obj(t) for t in w.spaces],
        "subsets": [list(iter_points(a)) for a in w.subsets],
        "map": None,
        "explanation": w.explanation,
    }
