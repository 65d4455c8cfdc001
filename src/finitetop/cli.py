"""Command-line entry point: census, verify, search, inspect.

Exit status: 0 on success and no violations, 1 when a verify suite reports
violations, 2 on usage or input errors, 3 on an internal fault (any other
exception), reported in one line.  Human-readable output labels the points
a, b, c, ... in order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, TextIO

from . import census as census_mod
from . import verifier
from .spaces import Topology, family_text, iter_points, load_space, space_to_obj
from .operators import CLASS_KINDS, alpha_topology, set_class
from .covers import PROPERTY_TAGS, check_property, property_reason

EXTRA_FACETS = ("alpha", "gc", "profile", "sizes")

# sweeping every surjection pair is cubic-exponential in n; past this point
# the verify command samples a deterministic prefix of the census
_FM1_FULL_SWEEP_N = 3
_FM1_SAMPLE = 8


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finitetop",
        description="finite-topology census, law verification, and witness search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_census = sub.add_parser("census", help="enumerate all topologies on n points")
    p_census.add_argument("--n", type=int, required=True)
    p_census.add_argument("--up-to-homeo", action="store_true")
    p_census.add_argument("--out", default="-", help="output path, - for stdout")

    p_verify = sub.add_parser("verify", help="run law suites over a census")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--census", help="path to a census file")
    p_verify.add_argument("--suite", default="all", help="comma list of suite ids or 'all'")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", default="-")

    p_search = sub.add_parser("search", help="search the censuses for witnesses")
    p_search.add_argument("--predicate", required=True, choices=verifier.SEARCH_PREDICATES)
    p_search.add_argument("--max-n", type=int, required=True)
    p_search.add_argument("--format", choices=("text", "json"), default="text")
    p_search.add_argument("--out", default="-")

    p_inspect = sub.add_parser("inspect", help="evaluate facets of one space file")
    p_inspect.add_argument("--space", required=True, help="path to a space file")
    p_inspect.add_argument("--facets", required=True, help="comma list of facet names")
    p_inspect.add_argument(
        "--complete",
        action="store_true",
        help="complete a non-closed open family instead of rejecting it",
    )
    p_inspect.add_argument("--format", choices=("text", "json"), default="text")
    p_inspect.add_argument("--out", default="-")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "census":
            return _with_out(args.out, lambda out: _cmd_census(args, out))
        if args.command == "verify":
            return _with_out(args.out, lambda out: _cmd_verify(args, out))
        if args.command == "search":
            return _with_out(args.out, lambda out: _cmd_search(args, out))
        if args.command == "inspect":
            return _with_out(args.out, lambda out: _cmd_inspect(args, out))
        raise AssertionError(args.command)
    except (ValueError, OSError) as exc:
        print(f"finitetop: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"finitetop: internal error: {message}", file=sys.stderr)
        return 3


def _with_out(path: str, fn) -> int:
    """Run fn on the output stream; a file is replaced only when fn returns.

    The output goes to a temporary file beside path (beside the file a
    symlink names), so a command that fails leaves no new file and an
    existing one as it was.  A target that is not a regular file, such as
    /dev/null, is written in place.
    """
    if path == "-":
        return fn(sys.stdout)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as out:
            return fn(out)
    target = os.path.realpath(path)
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        out = open(tmp, "x", encoding="utf-8")
    except OSError as exc:  # report the path the user gave
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with out:
            code = fn(out)
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise
    return code


def _cmd_census(args, out: TextIO) -> int:
    records = census_mod.census_records(args.n, up_to_homeo=args.up_to_homeo)
    count = census_mod.write_census(records, out)
    print(f"census: {count} spaces on {args.n} points", file=sys.stderr)
    return 0


def _cmd_verify(args, out: TextIO) -> int:
    if args.census is not None:
        with open(args.census, "r", encoding="utf-8") as fh:
            spaces = tuple(rec.space for rec in census_mod.read_census(fh))
        if not spaces:
            # a verify that checked nothing must not report success
            raise ValueError(f"census file {args.census} holds no spaces")
        n = spaces[0].n
    else:
        spaces = census_mod.labeled_census(args.n)
        n = args.n
    if args.suite == "all":
        suites = verifier.SUITE_TAGS
    else:
        suites = tuple(s.strip() for s in args.suite.split(",") if s.strip())
        if not suites:
            raise ValueError("no suites given")
        unknown = [s for s in suites if s not in verifier.SUITE_TAGS]
        if unknown:
            raise ValueError(f"unknown suites: {', '.join(unknown)}")
    failed = False
    for suite in suites:
        pool = spaces
        if suite == "thm-fm1" and n > _FM1_FULL_SWEEP_N:
            pool = spaces[:_FM1_SAMPLE]  # documented deterministic sample
        report = verifier.run_suite(suite, pool)
        if args.format == "json":
            out.write(json.dumps(report.to_obj()) + "\n")
        else:
            out.write(report.to_text() + "\n")
        failed = failed or not report.passed
    return 1 if failed else 0


def _cmd_search(args, out: TextIO) -> int:
    witnesses = verifier.search(args.predicate, args.max_n)
    counts = verifier.search_counts(witnesses, args.max_n)
    if args.format == "json":
        out.write(
            json.dumps(
                {
                    "predicate": args.predicate,
                    "max_n": args.max_n,
                    "counts": {str(n): counts[n] for n in sorted(counts)},
                }
            )
            + "\n"
        )
        for w in witnesses:
            out.write(json.dumps(verifier.witness_to_obj(w)) + "\n")
    else:
        out.write(f"search {args.predicate} up to n={args.max_n}\n")
        for n in sorted(counts):
            out.write(f"n={n}: {counts[n]} witnesses\n")
        for w in witnesses:
            ids = ",".join(census_mod.space_id(t) for t in w.spaces)
            out.write(f"witness {ids}: {w.explanation}\n")
    return 0


def _cmd_inspect(args, out: TextIO) -> int:
    with open(args.space, "r", encoding="utf-8") as fh:
        t = load_space(fh, complete=args.complete)
    facets = tuple(f.strip() for f in args.facets.split(",") if f.strip())
    if not facets:
        raise ValueError("no facets given")
    known = set(PROPERTY_TAGS) | set(CLASS_KINDS) | set(EXTRA_FACETS)
    unknown = [f for f in facets if f not in known]
    if unknown:
        raise ValueError(f"unknown facets: {', '.join(unknown)}")
    for facet in facets:
        if args.format == "json":
            out.write(json.dumps(_facet_obj(t, facet)) + "\n")
        else:
            out.write(_facet_text(t, facet) + "\n")
    return 0


def _facet_text(t: Topology, facet: str) -> str:
    if facet == "alpha":
        ta = alpha_topology(t)
        return f"T^α = {family_text(ta.opens, t.n)}"
    if facet == "gc":
        return f"gc_mismatch={_bool_text(census_mod.profile(t).gc_mismatch)}"
    if facet == "profile":
        prof = census_mod.profile(t)
        lines = [
            f"{tag}={_bool_text(value)}" for tag, value in prof.properties.items()
        ]
        lines.append(_sizes_text(prof))
        lines.append(f"gc_mismatch={_bool_text(prof.gc_mismatch)}")
        lines.append(f"so_eq_alpha={_bool_text(prof.so_eq_alpha)}")
        return "\n".join(lines)
    if facet == "sizes":
        return _sizes_text(census_mod.profile(t))
    if facet in PROPERTY_TAGS:
        value = check_property(t, facet)
        reason = property_reason(facet)
        suffix = " (finite-space theorem)" if reason else ""
        return f"{facet}={_bool_text(value)}{suffix}"
    return f"{facet} = {family_text(set_class(t, facet), t.n)}"


def _sizes_text(prof) -> str:
    return "sizes: " + " ".join(f"{k}={v}" for k, v in prof.sizes.items())


def _facet_obj(t: Topology, facet: str) -> dict:
    if facet == "alpha":
        return {"facet": "alpha", "space": space_to_obj(alpha_topology(t))}
    if facet == "gc":
        return {"facet": "gc", "gc_mismatch": census_mod.profile(t).gc_mismatch}
    if facet == "profile":
        return {"facet": "profile", **census_mod.profile(t).to_obj()}
    if facet == "sizes":
        return {"facet": "sizes", "sizes": census_mod.profile(t).sizes}
    if facet in PROPERTY_TAGS:
        obj = {"facet": facet, "value": check_property(t, facet)}
        reason = property_reason(facet)
        if reason:
            obj["reason"] = reason
        return obj
    members = [sorted(iter_points(m)) for m in set_class(t, facet)]
    return {"facet": facet, "members": members}


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


if __name__ == "__main__":
    sys.exit(main())
